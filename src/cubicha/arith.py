"""Exact integer arithmetic utilities.

p-adic valuations, Miller-Rabin primality, trial-division factorization with
an explicit give-up signal (FactorizationLimitError) instead of a silent
wrong answer, and the periodic continued fraction of sqrt(D).  The last one
is not used by the solvers: it is the independent referee that
``quadrep.pell_fundamental`` (the PQa walk) is held against.
"""

from __future__ import annotations

import math
from math import isqrt

from .errors import DegenerateFormError

INFINITY = math.inf

DEFAULT_TRIAL_DIVISION_LIMIT = 10**7

# Deterministic Miller-Rabin witnesses for n < 3.3 * 10^24; beyond that the
# same bases act as a strong probabilistic test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(n: int, p: int) -> int | float:
    """Largest e with p^e | n; INFINITY iff n == 0.  Negative n uses |n|."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"valuation requires a prime, got {p}")
    if n == 0:
        return INFINITY
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def periodic_sqrt_cf(d: int) -> tuple[int, tuple[int, ...]]:
    """Continued fraction of sqrt(d) as (a0, minimal period).

    Uses the integer (m, den, a) recurrence; the period closes at the first
    index with den == 1, where the partial quotient equals 2*a0.
    """
    if d <= 0:
        raise ValueError("periodic_sqrt_cf requires d > 0")
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise DegenerateFormError(f"{d} is a perfect square")
    m, den, a = 0, 1, a0
    period = []
    while True:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        period.append(a)
        if den == 1:
            if a != 2 * a0:
                raise AssertionError(f"period of sqrt({d}) closed at {a}, not {2 * a0}")
            return a0, tuple(period)


def factorize(n: int, limit: int = DEFAULT_TRIAL_DIVISION_LIMIT) -> tuple[dict[int, int], int]:
    """Factor |n| by trial division up to ``limit``; returns (factors, cofactor).

    The cofactor is 1 when the factorization is complete, and is also folded
    in when it turns out to be prime or a perfect power of a prime.  A
    composite cofactor is returned as-is; callers decide whether that is
    acceptable or must raise FactorizationLimitError.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 5
    step = 2
    while p * p <= n and p <= limit:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += step
        step = 6 - step  # 5, 7, 11, 13, ... wheel
    if n > 1:
        if p * p > n or is_prime(n):
            factors[n] = factors.get(n, 0) + 1
            n = 1
        else:
            root, exp = _perfect_power(n)
            if exp > 1 and is_prime(root):
                factors[root] = factors.get(root, 0) + exp
                n = 1
    return factors, n


def _iroot(n: int, e: int) -> int:
    """floor(n ** (1/e)) by integer Newton iteration."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, e) with n = r^e and e maximal; (n, 1) when n is not a power."""
    for e in range(n.bit_length(), 1, -1):
        r = _iroot(n, e)
        if r > 1 and r**e == n:
            return r, e
    return n, 1


def divisors(factors: dict[int, int]) -> list[int]:
    """All positive divisors from a factorization, ascending."""
    out = [1]
    for p, e in factors.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)
