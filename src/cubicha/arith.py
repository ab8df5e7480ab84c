"""Exact integer arithmetic utilities.

p-adic valuations, primality (Miller-Rabin to as many prime bases as make it
a proof below psi_12 ~ 3.2 * 10^23, and the BPSW test, Miller-Rabin plus a
strong Lucas test, above), factorization within an explicit work budget
(trial division by a table of primes up to a small bound, then Brent's rho)
that hands back what it could not split instead of a silent wrong answer, and
square roots modulo n from the factorization of n.  The one
continued-fraction engine is the principal-cycle walk in ``quadrep``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, compress
from math import gcd, isqrt

INFINITY = math.inf

DEFAULT_TRIAL_DIVISION_LIMIT = 10**7

# factorize divides by primes up to this bound and leaves larger ones to rho
TRIAL_DIVISION_BOUND = 2**12
# One Brent iteration was measured at about ten divisions of the old 6k +- 1
# trial-division wheel (both on a 40-digit p*q), so a limit L buys
# (L - TRIAL_DIVISION_BOUND) // 10 of them.  Trial division now runs over
# blocks of primes and costs less per prime, but the budget formula is kept
# as it was, so a given limit ends the same factorizations UNDECIDED.
RHO_ITERATION_COST = 10
# iterations whose |x - y| are multiplied together before one gcd
_RHO_BATCH = 128
# root sets of a mod p^e kept by _sqrt_mod_prime_power: a scan of [-20, 20]^2
# asks for 80 distinct ones
ROOT_CACHE_SIZE = 1024


def _sieve(bound: int) -> list[int]:
    """The primes up to ``bound``, ascending, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * (bound + 1)
    flags[:2] = b"\0\0"
    for p in range(2, isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return list(compress(range(bound + 1), flags))


_PRIMES = _sieve(TRIAL_DIVISION_BOUND)  # 564 primes, the last 4093
# the primes from 5 up in blocks of 16, each with its product: one gcd
# skips a block that holds no factor
_TRIAL_BLOCKS = tuple(
    (block, math.prod(block)) for block in (_PRIMES[i : i + 16] for i in range(2, len(_PRIMES), 16))
)

# Miller-Rabin to the first k prime bases is a proof of primality below
# psi_k, the least strong pseudoprime to all of them (OEIS A014233; Jaeschke
# 1993, and Jiang & Deng 2014 for psi_12).  Rows (psi_k, bases), ascending;
# psi_8 = psi_7 and psi_10 = psi_11 = psi_9 add nothing.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROOF_BOUNDS = tuple(
    (psi, _MR_BASES[:k])
    for psi, k in (
        (2047, 1),
        (1373653, 2),
        (25326001, 3),
        (3215031751, 4),
        (2152302898747, 5),
        (3474749660383, 6),
        (341550071728321, 7),
        (3825123056546413051, 9),
        (318665857834031151167461, 12),
    )
)
# at and above psi_12 all twelve bases and then the strong Lucas test run:
# that is the BPSW test, for which no composite that passes is known
_PSI_12 = _MR_PROOF_BOUNDS[-1][0]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Whether ``n`` is prime: a proof below psi_12 (~3.2 * 10^23), where
    Miller-Rabin runs to the fewest prime bases that make it one; at and
    above psi_12, the BPSW test."""
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
    bases = next((b for psi, b in _MR_PROOF_BOUNDS if n < psi), _MR_BASES)
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_12 or _strong_lucas(n)


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

    Trial division by 2, 3 and then the primes of the table up to
    min(limit, TRIAL_DIVISION_BOUND), in blocks of 16: one gcd with a
    block's product skips a block that holds no factor.  Then Brent's rho on
    what is left, with (limit - TRIAL_DIVISION_BOUND) // RHO_ITERATION_COST
    iterations in all, shared by every split.  Each part is tested with
    is_prime and _perfect_power and split again while composite.
    ``factors`` comes in ascending order.  The cofactor is 1 when the
    factorization is complete; otherwise it is the product of the composites
    the budget could not split, and callers decide whether that is
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
    bound = min(limit, TRIAL_DIVISION_BOUND)
    # no prime below q divides what is left of n, so n < q^2 makes it 1 or prime
    q = TRIAL_DIVISION_BOUND + 1
    for block, product in _TRIAL_BLOCKS:
        if block[0] > bound or block[0] ** 2 > n:
            q = block[0]
            break
        if gcd(n, product) > 1:
            for p in block:
                if p > bound:
                    break
                while n % p == 0:
                    factors[p] = factors.get(p, 0) + 1
                    n //= p
            if p > bound:  # the block's primes above the bound are not tried
                q = p
                break
    if q * q > n:
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
    """(r, e) with n = r^e and e maximal; (n, 1) when n is not a power.

    Only prime exponents are tried: n = r^e makes every prime p | e an
    exponent too, and the maximal exponent of n is p times that of its
    p-th root, on which this recurses."""
    top = n.bit_length() - 1  # 2^e <= n exactly when e <= top
    exponents = _PRIMES
    if top > TRIAL_DIVISION_BOUND:  # past the table every e is tried
        exponents = chain(_PRIMES, range(TRIAL_DIVISION_BOUND + 1, top + 1))
    for e in exponents:
        if e > top:
            break
        r = _iroot(n, e)
        if r**e == n:
            root, f = _perfect_power(r)
            return root, e * f
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


@lru_cache(maxsize=ROOT_CACHE_SIZE)
def _sqrt_mod_prime_power(a: int, p: int, e: int) -> tuple[int, ...]:
    """All z in [0, p^e) with z^2 = a (mod p^e), ascending, for
    0 <= a < p^e, as a tuple.  Kept in a bounded cache: the targets of a
    scan share most of their prime powers, and the residues of |D| modulo
    them recur.

    With a = p^v * a1 (p not dividing a1, v < e), z = p^(v/2) * w where
    w^2 = a1 (mod p^(e-v)), and each such w mod p^(e-v) gives p^(v/2)
    roots z mod p^e.  The unit roots w come from Tonelli-Shanks and Hensel
    lifting for odd p, and one binary digit at a time for p = 2.
    """
    q = p**e
    if a == 0:
        return tuple(range(0, q, p ** ((e + 1) // 2)))
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    if v % 2:
        return ()
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
            return ()
        mod = p
        while mod < pk:
            mod *= p
            w = (w - (w * w - a) * pow(2 * w, -1, mod)) % mod
        ws = [w, pk - w]
    h = p ** (v // 2)
    return tuple(sorted({h * (w + j * pk) for w in ws for j in range(h)}))


def sqrt_mod(a: int, factors: dict[int, int]) -> list[int]:
    """All z in [0, n) with z^2 = a (mod n), ascending, in a new list, where
    n is the product of p^e over ``factors`` (primes): the roots modulo each
    prime power, from the cache of _sqrt_mod_prime_power (at most
    ROOT_CACHE_SIZE residues, keyed by (a mod p^e, p, e)), joined by the
    Chinese remainder theorem."""
    roots, n = [0], 1
    for p, e in factors.items():
        q = p**e
        inv = pow(n, -1, q)
        local = _sqrt_mod_prime_power(a % q, p, e)
        roots = [r + n * ((w - r) * inv % q) for r in roots for w in local]
        n *= q
    return sorted(roots)


def divisors(factors: dict[int, int]) -> list[int]:
    """All positive divisors from a factorization, ascending."""
    out = [1]
    for p, e in factors.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)
