"""Maximality of Z[alpha]: is it the full ring of integers of Q(alpha)?

Decided by congruence tables on (a, b) specialized to the trinomial family:

  p = 2:  one of   (a) b odd
                   (b) a even         and b = 2 (mod 4)
                   (c) a = 3 (mod 4)  and b = 0 (mod 4)
                   (d) a = 1 (mod 4)  and b = 2 (mod 4)
  p = 3:  one of   (a) v3(a) = 0
                   (b) v3(a) >= 1 and v3(b) = 1
                   (c) v3(a) >= 1, a != 3 (mod 9), v3(b) = 0,
                       b^2 != a + 1 (mod 9)
                   (d) a = 3 (mod 9), v3(b) = 0, b^2 != 4 (mod 9)
  p > 3:  one of   (a) v_p(a) = 0 and v_p(b) >= 1
                   (b) v_p(a) >= 1 and v_p(b) <= 1
                   (c) v_p(a) = v_p(b) = 0 and v_p(delta) <= 1

Beyond 2 and 3 only the primes with p^2 | delta can fail, so the per-input
work is factoring delta; an unfactorable composite cofactor downgrades the
verdict to UNDECIDED_FACTORIZATION instead of guessing.

As an independent referee, ``dedekind_check`` decides via the classical
criterion whether p divides the index [O_L : Z[alpha]] from the factorization
of f modulo p; the test suite plays the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import DEFAULT_TRIAL_DIVISION_LIMIT, factorize, is_prime, valuation
from .assocorder import AssociatedOrder, build
from .cubicfield import TrinomialCubic
from .freeness import FreenessReport, decide_freeness

MAXIMAL = "MAXIMAL"
NOT_MAXIMAL = "NOT_MAXIMAL"
UNDECIDED_FACTORIZATION = "UNDECIDED_FACTORIZATION"


@dataclass(frozen=True)
class MaximalityReport:
    status: str
    failing_prime: int | None
    per_prime: tuple[tuple[int, str, bool], ...]
    delta_factors: tuple[tuple[int, int], ...]
    cofactor: int  # unfactored part of |delta|; 1 when complete

    @property
    def is_maximal(self) -> bool:
        return self.status == MAXIMAL


def alaca_condition(k: TrinomialCubic, p: int) -> tuple[bool, str]:
    """Evaluate the congruence table at p; returns (passed, matched label)."""
    return _table(k.a, k.b, k.delta, p)


def _table(a: int, b: int, delta: int, p: int) -> tuple[bool, str]:
    """alaca_condition on the integers of the field, which _maximality
    passes without building a TrinomialCubic."""
    if p == 2:
        if b % 2 == 1:
            return True, "2a"
        if a % 2 == 0 and b % 4 == 2:
            return True, "2b"
        if a % 4 == 3 and b % 4 == 0:
            return True, "2c"
        if a % 4 == 1 and b % 4 == 2:
            return True, "2d"
        return False, "none"
    if p == 3:
        v3a, v3b = valuation(a, 3), valuation(b, 3)
        if v3a == 0:
            return True, "3a"
        if v3a >= 1 and v3b == 1:
            return True, "3b"
        if v3a >= 1 and a % 9 != 3 and v3b == 0 and (b * b - a - 1) % 9 != 0:
            return True, "3c"
        if a % 9 == 3 and v3b == 0 and (b * b - 4) % 9 != 0:
            return True, "3d"
        return False, "none"
    vpa, vpb = valuation(a, p), valuation(b, p)
    if vpa == 0 and vpb >= 1:
        return True, "pa"
    if vpa >= 1 and vpb <= 1:
        return True, "pb"
    if vpa == 0 and vpb == 0 and valuation(delta, p) <= 1:
        return True, "pc"
    return False, "none"


def is_maximal(
    k: TrinomialCubic, limit: int = DEFAULT_TRIAL_DIVISION_LIMIT
) -> MaximalityReport:
    """Conjunction of the table over p in {2, 3} and every p > 3 with p^2 | delta.

    The table reads b only through b mod 4, v_p(b) and b^2, and delta is
    4a^3 - 27b^2, so the fields (a, b) and (a, -b) have one report.  It is
    kept for the last two (a, |b|) (_maximality), and a scan, which runs
    the two fields back to back, factors their delta once.
    """
    return _maximality(k.a, abs(k.b), limit)


@lru_cache(maxsize=2)
def _maximality(a: int, babs: int, limit: int) -> MaximalityReport:
    """is_maximal's report for the fields (a, +-babs)."""
    delta = 4 * a**3 - 27 * babs * babs
    factors, cofactor = factorize(delta, limit)
    checked: list[tuple[int, str, bool]] = []
    failing = None
    primes = [2, 3] + sorted(p for p, e in factors.items() if p > 3 and e >= 2)
    for p in primes:
        ok, label = _table(a, babs, delta, p)
        checked.append((p, label, ok))
        if not ok and failing is None:
            failing = p
    if failing is not None:
        status = NOT_MAXIMAL
    elif cofactor != 1:
        # cofactor could hide a p with p^2 | delta; refuse to guess
        status = UNDECIDED_FACTORIZATION
    else:
        status = MAXIMAL
    return MaximalityReport(
        status, failing, tuple(checked), tuple(sorted(factors.items())), cofactor
    )


# --- Dedekind's criterion ------------------------------------------------
#
# For the monic cubic f and a prime p: factor f mod p.  If the reduction is
# squarefree the criterion passes outright.  Otherwise the cubic has exactly
# one repeated linear factor (x - r)^e, e in {2, 3}; with radical lift g* and
# complement lift h* (so f = g*h* mod p), p does not divide the index iff
# T = (f - g*h*)/p is nonzero at r mod p.


def _poly_mod(coeffs: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_divmod(num, den, p):
    num = list(num)
    inv = pow(den[-1], -1, p)
    deg_d = len(den) - 1
    quot = [0] * max(0, len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i] % p
        if c == 0:
            continue
        q = c * inv % p
        quot[i - deg_d] = q
        for j, dc in enumerate(den):
            num[i - deg_d + j] = (num[i - deg_d + j] - q * dc) % p
    rem = tuple(num[:deg_d])
    while rem and rem[-1] % p == 0:
        rem = rem[:-1]
    return tuple(quot), _poly_mod(rem, p)


def _poly_gcd(f, g, p):
    while g:
        f, g = g, _poly_divmod(f, g, p)[1]
    if f:
        inv = pow(f[-1], -1, p)
        f = tuple(c * inv % p for c in f)
    return f


def _poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _repeated_root(fbar, p: int) -> int | None:
    """The (unique) root of the monic cubic fbar mod p with multiplicity >= 2."""
    if p <= 3:
        for r in range(p):
            if _poly_eval(fbar, r, p) == 0:
                quot, rem = _poly_divmod(fbar, (-r % p, 1), p)
                if rem != ():
                    raise AssertionError(f"x - {r} leaves remainder {rem} mod {p}")
                if _poly_eval(quot, r, p) == 0:
                    return r
        return None
    deriv = _poly_mod(tuple(i * c for i, c in enumerate(fbar))[1:], p)
    c = _poly_gcd(fbar, deriv, p)
    if len(c) <= 1:
        return None  # squarefree
    if len(c) == 3:  # c = (x - r)^2; its own derivative pins r (char > 2)
        c = _poly_gcd(c, _poly_mod(tuple(i * k for i, k in enumerate(c))[1:], p), p)
    if len(c) != 2:
        raise AssertionError(f"repeated factor {c} mod {p} is not linear")
    return (-c[0] * pow(c[1], -1, p)) % p


def dedekind_check(k: TrinomialCubic, p: int) -> bool:
    """True iff p does not divide the index [O_L : Z[alpha]]."""
    if not is_prime(p):
        raise ValueError(f"dedekind_check requires a prime, got {p}")
    f = (k.b, -k.a, 0, 1)
    fbar = _poly_mod(f, p)
    r = _repeated_root(fbar, p)
    if r is None:
        return True
    # multiplicity of r and the complementary factor
    rest = fbar
    e = 0
    while True:
        quot, rem = _poly_divmod(rest, (-r % p, 1), p)
        if rem != ():
            break
        rest = quot
        e += 1
    if e not in (2, 3):
        raise AssertionError(f"root {r} of f mod {p} has multiplicity {e}")
    lin = (-r % p, 1)
    if e == 2:
        gstar = _poly_mul(lin, rest, p)  # (x - r) * (x - r')
        hstar = lin
    else:
        gstar = lin
        hstar = _poly_mul(lin, lin, p)
    prod = _poly_mul_z(tuple(gstar), tuple(hstar))
    t = []
    for i in range(4):
        fc = f[i] if i < len(f) else 0
        pc = prod[i] if i < len(prod) else 0
        diff = fc - pc
        if diff % p != 0:
            raise AssertionError(f"g* h* does not lift f mod {p}")
        t.append(diff // p)
    return _poly_eval(_poly_mod(tuple(t), p), r, p) != 0


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def _poly_mul_z(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


@dataclass(frozen=True)
class CombinedVerdict:
    """Maximality plus freeness; the ring-of-integers verdict only applies
    when Z[alpha] is the full ring of integers, otherwise the freeness report
    speaks about Z[alpha] alone.  ``order`` is the one associated order both
    the freeness decision and the callers' output are taken from."""

    maximality: MaximalityReport
    freeness: FreenessReport
    ring_of_integers_free: str | None
    order: AssociatedOrder


def combined_verdict(
    k: TrinomialCubic, limit: int = DEFAULT_TRIAL_DIVISION_LIMIT
) -> CombinedVerdict:
    maxrep = is_maximal(k, limit)
    order = build(k)
    freerep = decide_freeness(k, limit, order)
    ring_free = freerep.verdict if maxrep.is_maximal else None
    return CombinedVerdict(maxrep, freerep, ring_free, order)
