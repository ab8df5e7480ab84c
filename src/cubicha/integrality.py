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

As an independent referee, ``dedekind_check`` decides by Dedekind's
criterion whether p divides the index [O_L : Z[alpha]]: from the one root r
that f and f' can share modulo p, p divides the index iff p^2 | f(r).  It
uses only is_prime and integer arithmetic, not the table, and the test
suite plays the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import DEFAULT_TRIAL_DIVISION_LIMIT, _valuation, factorize, is_prime
from .assocorder import AssociatedOrder, build
from .cubicfield import TrinomialCubic
from .freeness import FreenessReport, decide_freeness

MAXIMAL = "MAXIMAL"
NOT_MAXIMAL = "NOT_MAXIMAL"
UNDECIDED_FACTORIZATION = "UNDECIDED_FACTORIZATION"


@dataclass(unsafe_hash=True)
class MaximalityReport:
    """Whether Z[alpha] is the ring of integers, with the congruence table's
    answer at 2, 3 and each p > 3 with p^2 | delta, and the first prime
    that fails it."""

    status: str
    failing_prime: int | None
    per_prime: tuple[tuple[int, str, bool], ...]
    delta_factors: tuple[tuple[int, int], ...]
    cofactor: int  # unfactored part of |delta|; 1 when complete

    @property
    def is_maximal(self) -> bool:
        return self.status == MAXIMAL


def _table(a: int, b: int, delta: int, p: int) -> tuple[bool, str]:
    """The congruence table at p on the integers of the field; returns
    (passed, matched label).  p must already be proved prime: _maximality
    passes 2, 3 or a prime of delta that factorize returned."""
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
        v3a, v3b = _valuation(a, 3), _valuation(b, 3)
        if v3a == 0:
            return True, "3a"
        if v3a >= 1 and v3b == 1:
            return True, "3b"
        if v3a >= 1 and a % 9 != 3 and v3b == 0 and (b * b - a - 1) % 9 != 0:
            return True, "3c"
        if a % 9 == 3 and v3b == 0 and (b * b - 4) % 9 != 0:
            return True, "3d"
        return False, "none"
    vpa, vpb = _valuation(a, p), _valuation(b, p)
    if vpa == 0 and vpb >= 1:
        return True, "pa"
    if vpa >= 1 and vpb <= 1:
        return True, "pb"
    if vpa == 0 and vpb == 0 and _valuation(delta, p) <= 1:
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


def dedekind_check(k: TrinomialCubic, p: int) -> bool:
    """True iff p does not divide the index [O_L : Z[alpha]], by Dedekind's
    criterion (Cohen, GTM 138, 6.1) for f = x^3 - a*x + b.

    Write f = g*h mod p with g the product of the distinct irreducible
    factors of f mod p, and T = (f - g*h)/p for monic lifts g, h.  If f is
    squarefree mod p then p does not divide the index.  Otherwise a cubic
    has one repeated factor, linear: a root r of both f and f' = 3x^2 - a
    mod p, hence of x*f' - 3f = 2a*x - 3b.  For p > 3 that pins r to
    3b/(2a) when p does not divide a, and to 0 (where f' = 3x^2) when it
    does; for p <= 3 every residue is tried.  p divides the index iff T(r)
    = 0 mod p, and lifts g, h that vanish at the integer r give T(r) =
    f(r)/p.  Another lift r + t*p moves f(r) by t*p*f'(r) = 0 mod p^2, so
    p divides the index iff p^2 | f(r), for a double root and a triple
    root alike.
    """
    if not is_prime(p):
        raise ValueError(f"dedekind_check requires a prime, got {p}")
    a, b = k.a, k.b
    if p <= 3:
        candidates = range(p)
    else:
        candidates = (3 * b * pow(2 * a, -1, p) % p if a % p else 0,)
    for r in candidates:
        fr = r**3 - a * r + b
        if fr % p == 0 and (3 * r * r - a) % p == 0:
            return fr % (p * p) != 0
    return True


@dataclass(unsafe_hash=True)
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
