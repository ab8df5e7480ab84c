"""Trinomial cubic fields Q(alpha), alpha^3 = a*alpha - b, and the rational
realization of the unique Hopf-Galois structure acting on Z[alpha].

The field is described by validated integers (a, b): f = x^3 - a*x + b must
have no rational root, both coefficients nonzero, and (a, b) reduced in the
sense that no prime p has p^2 | a and p^3 | b (a looser convention allowing
everything with v_p(a) <= 2 or v_p(b) <= 3 can be selected).  The
discriminant is delta = 4a^3 - 27b^2 and g = gcd(a, b).

Elements of Z[alpha] carry coordinates with respect to B = {1, alpha,
alpha^2}.  The acting Hopf algebra is only ever touched through coordinates
with respect to a fixed basis W = {w1, w2, w3}: w1 is the identity operator,
and the other two act on B through the Gram matrix

    w2 . 1 = 0     w2 . alpha = 6a*alpha^2 + 9b*alpha - 4a^2
                   w2 . alpha^2 = -9b*alpha^2 - 2a^2*alpha + 6ab
    w3 . 1 = 2     w3 . alpha = -alpha
                   w3 . alpha^2 = -alpha^2 + 2a

with the multiplication table w2^2 = delta*(w3 - 2*w1), w2*w3 = w3*w2 = -w2,
w3^2 = 2*w1 + w3.  Everything downstream (associated orders, freeness,
maximality) consumes only these rational data.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import TYPE_CHECKING

from .arith import _perfect_power, _valuation, factorize
from .errors import ValidationError
from .record import Record

if TYPE_CHECKING:
    from fractions import Fraction

REDUCED_STRICT = "strict"
REDUCED_LOOSE = "loose"


class TrinomialCubic(Record):
    """Validated descriptor of f = x^3 - a*x + b.  Construct via validate()."""

    __slots__ = ("a", "b", "delta", "g")

    def __init__(self, a: int, b: int, delta: int, g: int):
        self.a = a
        self.b = b
        self.delta = delta
        self.g = g


class OrderElement(Record):
    """Element of Z[alpha] with coordinates (c0, c1, c2) w.r.t. {1, alpha, alpha^2}."""

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0: int, c1: int, c2: int):
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2

    @property
    def coords(self) -> tuple[int, int, int]:
        return (self.c0, self.c1, self.c2)


class HopfElement(Record):
    """Element of the Hopf algebra with rational coordinates w.r.t. W."""

    __slots__ = ("h1", "h2", "h3")

    def __init__(self, h1: Fraction, h2: Fraction, h3: Fraction):
        self.h1 = h1
        self.h2 = h2
        self.h3 = h3

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.h1, self.h2, self.h3)

    @staticmethod
    def of(h1, h2, h3) -> "HopfElement":
        from fractions import Fraction

        return HopfElement(Fraction(h1), Fraction(h2), Fraction(h3))


def _integer_roots(a: int, b: int) -> list[int]:
    """The integer roots of x^3 - a*x + b, in the order a search over the
    divisors d <= sqrt|b| of b, trying d, -d, b/d, -b/d, would meet them.

    Each root divides b, so it lies in [-|b|, |b|].  On the integers x^3 - a*x
    + b is strictly monotone on each piece cut at +-s, s = isqrt(a // 3) <=
    sqrt(a/3) < s + 1, for a > 0 (everywhere for a < 0), so bisection finds
    the at most one root of each piece.
    """
    n = abs(b)
    pieces = [(-n, n, True)]
    if a > 0:
        s = isqrt(a // 3)
        pieces = [(-n, -s - 1, True), (-s, s, False), (s + 1, n, True)]
    roots = []
    for lo, hi, rising in pieces:
        while lo <= hi:
            mid = (lo + hi) // 2
            v = mid * mid * mid - a * mid + b
            if v == 0:
                roots.append(mid)
                break
            if (v < 0) == rising:
                lo = mid + 1
            else:
                hi = mid - 1
    # almost every field has none, and one needs no order
    if len(roots) < 2:
        return roots

    def divisor_order(r: int) -> tuple[int, int]:
        d = min(abs(r), n // abs(r))
        return d, 2 * (abs(r) != d) + (r < 0)

    return sorted(roots, key=divisor_order)


def validate(a: int, b: int, reduced_convention: str = REDUCED_STRICT) -> TrinomialCubic:
    """Check (a, b) and build the field descriptor, or raise ValidationError.

    Rejections: ZERO_A and ZERO_B (the formulas downstream divide by a, and
    b = 0 is always reducible); REDUCIBLE when f has an integer root;
    NOT_REDUCED when some prime violates the selected reducedness convention;
    GCD_UNFACTORED when gcd(a, b) holds composites the factorization budget
    cannot split and that may hide such a prime.
    """
    if a == 0:
        raise ValidationError("ZERO_A", "a = 0 is outside the supported family")
    if b == 0:
        raise ValidationError("ZERO_B", "b = 0 makes x^3 - a*x + b reducible")
    for r in _integer_roots(a, b):
        raise ValidationError("REDUCIBLE", f"f has integer root x = {r}")
    if reduced_convention == REDUCED_STRICT:
        amin, bmin = 2, 3
    elif reduced_convention == REDUCED_LOOSE:
        amin, bmin = 3, 4
    else:
        raise ValueError(f"unknown reduced convention {reduced_convention!r}")
    g = gcd(a, b)
    common, cof = factorize(g)
    for p in common:
        # factorize proved p prime
        if _valuation(a, p) >= amin and _valuation(b, p) >= bmin:
            raise ValidationError(
                "NOT_REDUCED",
                f"prime {p} has v_p(a) >= {amin} and v_p(b) >= {bmin}",
            )
    if cof != 1:
        # The budget left composites unsplit (two primes above ~10^12 at the
        # default).  Each prime p of cof has v_p(g) = v_p(cof), so only one
        # with p^2 | cof can violate; when cof = r^e with e >= bmin, every
        # prime of r does.  Anything else cannot be decided without its primes.
        root, e = _perfect_power(cof)
        if e >= bmin:
            raise ValidationError(
                "NOT_REDUCED",
                f"every prime p of {root} has v_p(a) >= {amin} and v_p(b) >= {bmin}",
            )
        raise ValidationError(
            "GCD_UNFACTORED",
            f"gcd {g} of (a, b) keeps the cofactor {cof}, which the factorization "
            f"budget cannot split, so reducedness cannot be decided",
        )
    delta = 4 * a**3 - 27 * b**2
    if delta == 0:  # would force a rational root
        raise AssertionError(f"({a}, {b}) passed the root check with delta = 0")
    return TrinomialCubic(a, b, delta, g)


def gram_matrix(k: TrinomialCubic) -> tuple[tuple[OrderElement, ...], ...]:
    """The 3x3 array of values w_i . gamma_j, each an element of Z[alpha]."""
    a, b = k.a, k.b
    return (
        (OrderElement(1, 0, 0), OrderElement(0, 1, 0), OrderElement(0, 0, 1)),
        (
            OrderElement(0, 0, 0),
            OrderElement(-4 * a * a, 9 * b, 6 * a),
            OrderElement(6 * a * b, -2 * a * a, -9 * b),
        ),
        (OrderElement(2, 0, 0), OrderElement(0, -1, 0), OrderElement(2 * a, 0, -1)),
    )


def action_matrix(k: TrinomialCubic) -> tuple[tuple[int, int, int], ...]:
    """The rows of the 9x3 coordinate matrix of the W-action on B.

    Rows are grouped in blocks of three by basis element of B (block j holds
    the B-coordinates of w1.gamma_j, w2.gamma_j, w3.gamma_j as columns);
    columns are indexed by W.
    """
    return action_rows(k.a, k.b)


def action_rows(a: int, b: int) -> tuple[tuple[int, int, int], ...]:
    """action_matrix on plain ints.  Every entry is an integer polynomial in
    a and b, so residues of a and b modulo n give the matrix modulo n."""
    return (
        (1, 0, 2),
        (0, 0, 0),
        (0, 0, 0),
        (0, -4 * a * a, 0),
        (1, 9 * b, -1),
        (0, 6 * a, 0),
        (0, 6 * a * b, 2 * a),
        (0, -2 * a * a, 0),
        (1, -9 * b, -1),
    )


def hopf_mul_coords(delta: int, u: tuple, v: tuple) -> tuple:
    """Product of two W-coordinate vectors under the W multiplication table.

    Works for int or Fraction coordinates alike.
    """
    u1, u2, u3 = u
    v1, v2, v3 = v
    c1 = u1 * v1 - 2 * delta * u2 * v2 + 2 * u3 * v3
    c2 = u1 * v2 + u2 * v1 - (u2 * v3 + u3 * v2)
    c3 = delta * u2 * v2 + u1 * v3 + u3 * v1 + u3 * v3
    return (c1, c2, c3)


def hopf_mul(k: TrinomialCubic, u: HopfElement, v: HopfElement) -> HopfElement:
    """Bilinear product under the W multiplication table."""
    return HopfElement.of(*hopf_mul_coords(k.delta, u.coords, v.coords))


def apply_hopf(k: TrinomialCubic, h: HopfElement, u) -> tuple[Fraction, Fraction, Fraction]:
    """Act by h = h1*w1 + h2*w2 + h3*w3 on a field element u given in B
    coordinates (OrderElement or a 3-tuple of rationals), reading the action
    off action_matrix."""
    from fractions import Fraction

    uc = u.coords if isinstance(u, OrderElement) else tuple(u)
    am = action_matrix(k)
    out = []
    for r in range(3):
        # coordinate r of w_i . u, for each i
        wu = [sum(uc[j] * am[3 * j + r][i] for j in range(3)) for i in range(3)]
        out.append(sum((hi * x for hi, x in zip(h.coords, wu)), Fraction(0)))
    return tuple(out)
