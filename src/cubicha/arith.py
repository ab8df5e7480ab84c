"""Exact integer arithmetic utilities.

p-adic valuations, BPSW primality (Miller-Rabin plus a strong Lucas test),
factorization within an explicit work budget (trial division to a small
bound, then Brent's rho) that hands back what it could not split instead of
a silent wrong answer, and square roots modulo n from the factorization of
n.  The one continued-fraction engine is the principal-cycle walk in
``quadrep``.
"""

from __future__ import annotations

import math
from math import gcd, isqrt

INFINITY = math.inf

DEFAULT_TRIAL_DIVISION_LIMIT = 10**7

# factorize divides by primes up to this bound and leaves larger ones to rho
TRIAL_DIVISION_BOUND = 2**12
# One Brent iteration costs about ten trial divisions (both measured on a
# 40-digit p*q), so a limit L buys (L - TRIAL_DIVISION_BOUND) // 10 of them.
RHO_ITERATION_COST = 10
# iterations whose |x - y| are multiplied together before one gcd
_RHO_BATCH = 128

# Miller-Rabin to these twelve bases is a proof of primality below
# 318665857834031151167461 (~3.2 * 10^23), the least strong pseudoprime to
# all of them; the strong Lucas test after it makes is_prime the BPSW test,
# for which no composite that passes is known.
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
    return _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters: the
    first D in 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.
    ``n`` is odd with no prime factor below 50."""
    if isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0:  # gcd(D, n) > 1: a prime n meets (D/n) = -1 long before |D| = n
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # (U_m, V_m, Q^m) mod n for m running over the binary prefixes of k
    u, v, qm = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qm = u * v % n, (v * v - 2 * qm) % n, qm * qm % n
        if bit == "1":
            u, v = u + v, d * u + v  # (P*U + V)/2 and (D*U + P*V)/2 with P = 1
            u = (u + n if u % 2 else u) // 2 % n
            v = (v + n if v % 2 else v) // 2 % n
            qm = qm * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qm) % n
        qm = qm * qm % n
        if v == 0:
            return True
    return False


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


def factorize(n: int, limit: int = DEFAULT_TRIAL_DIVISION_LIMIT) -> tuple[dict[int, int], int]:
    """Factor |n| within the work budget ``limit``; returns (factors, cofactor).

    Trial division by 2, 3 and the 6k +- 1 wheel up to
    min(limit, TRIAL_DIVISION_BOUND); then Brent's rho on what is left, with
    (limit - TRIAL_DIVISION_BOUND) // RHO_ITERATION_COST iterations in all,
    shared by every split.  Each part is tested with is_prime and
    _perfect_power and split again while composite.  ``factors`` comes in
    ascending order.  The cofactor is 1 when the factorization is complete;
    otherwise it is the product of the composites the budget could not split,
    and callers decide whether that is acceptable or must raise
    FactorizationLimitError.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    bound = min(limit, TRIAL_DIVISION_BOUND)
    p = 5
    step = 2
    while p * p <= n and p <= bound:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += step
        step = 6 - step  # 5, 7, 11, 13, ... wheel
    if p * p > n:
        if n > 1:
            factors[n] = factors.get(n, 0) + 1
        return factors, 1
    budget = max(0, limit - TRIAL_DIVISION_BOUND) // RHO_ITERATION_COST
    cofactor = 1
    parts = [(n, 1)]  # (m, e): m^e still divides what is left
    while parts:
        m, e = parts.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + e
            continue
        root, exp = _perfect_power(m)
        if exp > 1:
            parts.append((root, e * exp))
            continue
        d, budget = _brent(m, budget)
        if d is None:
            cofactor *= m**e
        else:
            parts += [(d, e), (m // d, e)]
    return dict(sorted(factors.items())), cofactor


def _brent(n: int, budget: int) -> tuple[int | None, int]:
    """A proper factor of the composite ``n`` by Brent's rho, or None when
    the next step would take more than ``budget`` iterations; returns it with
    the budget left.  x -> x^2 + c from x0 = 2, with c = 1, 2, ... in turn
    when a walk closes without a split, so every run is the same."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if budget < r:
                return None, budget
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            budget -= r
            k = 0
            while k < r and g == 1:
                m = min(_RHO_BATCH, r - k)
                if budget < m:
                    return None, budget
                ys = y
                for _ in range(m):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                budget -= m
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:  # the last batch overshot: walk it again, one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, budget


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


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of the unit ``a`` modulo the odd prime ``p`` by
    Tonelli-Shanks, or None when ``a`` is a non-residue."""
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == s:  # only a composite p gets here
                raise ValueError(f"Tonelli-Shanks needs a prime modulus, got {p}")
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _sqrt_mod_prime_power(a: int, p: int, e: int) -> list[int]:
    """All z in [0, p^e) with z^2 = a (mod p^e), ascending.

    With a = p^v * a1 (p not dividing a1, v < e), z = p^(v/2) * w where
    w^2 = a1 (mod p^(e-v)), and each such w mod p^(e-v) gives p^(v/2)
    roots z mod p^e.  The unit roots w come from Tonelli-Shanks and Hensel
    lifting for odd p, and one binary digit at a time for p = 2.
    """
    q = p**e
    a %= q
    if a == 0:
        return list(range(0, q, p ** ((e + 1) // 2)))
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    if v % 2:
        return []
    k = e - v
    pk = p**k
    if p == 2:
        ws, mod = [1], 2
        while mod < pk:
            ws = [w + c for w in ws for c in (0, mod) if ((w + c) ** 2 - a) % (2 * mod) == 0]
            mod *= 2
    else:
        w = _sqrt_mod_prime(a % p, p)
        if w is None:
            return []
        mod = p
        while mod < pk:
            mod *= p
            w = (w - (w * w - a) * pow(2 * w, -1, mod)) % mod
        ws = [w, pk - w]
    h = p ** (v // 2)
    return sorted({h * (w + j * pk) for w in ws for j in range(h)})


def sqrt_mod(a: int, factors: dict[int, int]) -> list[int]:
    """All z in [0, n) with z^2 = a (mod n), ascending, where n is the
    product of p^e over ``factors`` (primes): the roots modulo each prime
    power, joined by the Chinese remainder theorem."""
    roots, n = [0], 1
    for p, e in factors.items():
        q = p**e
        inv = pow(n, -1, q)
        roots = [r + n * ((w - r) * inv % q) for r in roots for w in _sqrt_mod_prime_power(a, p, e)]
        n *= q
    return sorted(roots)


def divisors(factors: dict[int, int]) -> list[int]:
    """All positive divisors from a factorization, ascending."""
    out = [1]
    for p, e in factors.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)
