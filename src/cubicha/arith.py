"""Exact integer arithmetic utilities.

p-adic valuations, primality (a proof below psi_12 ~ 3.2 * 10^23, by
Miller-Rabin to as many prime bases as make it one below psi_6 and from 2^64
up, and by the BPSW test, one base-2 round plus a strong Lucas test, in
between; above psi_12, BPSW-probable), factorization within an explicit work
budget (trial division by a table of primes up to a small bound, then
Brent's rho) that hands back what it could not split instead of a silent
wrong answer, and square roots modulo n from the factorization of n.  The
one continued-fraction engine is the principal-cycle walk in ``quadrep``.

Each kernel of a factorization computes what its plain loop would, in fewer
interpreter steps: trial division skips a group of eight blocks of 16
primes, or a block, with one gcd; Brent's rho takes four iterations per
pass on the same walk and iteration count; the strong Lucas test runs a
ladder on V alone and reads U_k = 0 off D U_k = 2V_(k+1) - P V_k.
"""

from __future__ import annotations

import math
from itertools import chain, compress
from math import gcd, isqrt

INFINITY = math.inf

DEFAULT_TRIAL_DIVISION_LIMIT = 10**7

# factorize divides by primes up to this bound and leaves larger ones to rho
TRIAL_DIVISION_BOUND = 2**12
# A limit L buys (L - TRIAL_DIVISION_BOUND) // 10 rho iterations.  The 10 is
# a budget unit, not a timing: it was once one rho iteration's cost in
# divisions of the old 6k +- 1 wheel, and neither trial division (now by
# groups and blocks of primes) nor rho (now four iterations per pass) costs
# that any more.  The formula and the count of iterations are kept, so a
# given limit ends the same factorizations UNDECIDED.
RHO_ITERATION_COST = 10
# iterations whose |x - y| are multiplied together before one gcd
_RHO_BATCH = 128


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
# the blocks eight at a time, as (last prime, product, blocks): one gcd
# skips a group that holds no factor and lies wholly below the bound and
# sqrt(n); the 36 blocks make five groups
_TRIAL_GROUPS = tuple(
    (blocks[-1][0][-1], math.prod(product for _, product in blocks), blocks)
    for blocks in (_TRIAL_BLOCKS[i : i + 8] for i in range(0, len(_TRIAL_BLOCKS), 8))
)

# Miller-Rabin to the first k prime bases is a proof of primality below
# psi_k, the least strong pseudoprime to all of them (OEIS A014233; Jaeschke
# 1993, and Jiang & Deng 2014 for psi_12).  From psi_6 to 2^64 the BPSW test,
# one base-2 round and then the strong Lucas test, proves it in about half
# the time of seven to twelve bases: no composite below 2^64 passes it, by
# Feitsma and Galway's list of the base-2 strong pseudoprimes below 2^64
# (Baillie, Fiori & Wagstaff, Math. Comp. 90 (2021) 1931-1955).  Below psi_6
# the bases cost no more than BPSW.  Rows (bound, bases, lucas), ascending:
# below bound, and not below the row before, Miller-Rabin to those bases and
# then, if lucas, the strong Lucas test decide.  At and above psi_12 that is
# BPSW with all twelve bases: no composite that passes it is known, but it
# is no proof.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMALITY_ROUTES = tuple(
    (bound, _MR_BASES[:k], lucas)
    for bound, k, lucas in (
        (2047, 1, False),
        (1373653, 2, False),
        (25326001, 3, False),
        (3215031751, 4, False),
        (2152302898747, 5, False),
        (3474749660383, 6, False),
        (2**64, 1, True),
        (318665857834031151167461, 12, False),
        (INFINITY, 12, True),
    )
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Whether ``n`` is prime: a proof below psi_12 (~3.2 * 10^23), where
    Miller-Rabin runs to the fewest prime bases that make it one below psi_6
    (~3.5 * 10^12) and from 2^64 up, and one base-2 round and the strong
    Lucas test (BPSW) run in between; at and above psi_12, the twelve bases
    and the strong Lucas test, which no known composite passes."""
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
    bases, lucas = next((b, lucas) for bound, b, lucas in _PRIMALITY_ROUTES if n < bound)
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
    return not lucas or _strong_lucas(n)


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
    ``n`` is odd with no prime factor below 50.  With n + 1 = k * 2^s, k
    odd, it passes when U_k = 0 or V_(k*2^r) = 0 (mod n) for some r < s.

    A ladder over the bits of k carries (V_m, V_(m+1), Q^m) mod n, with
    V_2m = V_m^2 - 2Q^m, V_(2m+1) = V_m V_(m+1) - P Q^m and
    V_(2m+2) = V_(m+1)^2 - 2Q^(m+1), and no U at all.  U_k is read off
    D U_k = 2V_(k+1) - P V_k: (D/n) = -1 makes D a unit mod n, so U_k = 0
    exactly when 2V_(k+1) = P V_k (mod n).  This is the strong test, not
    the extra strong one, and so the one that the BPSW proof below 2^64
    covers."""
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
    q = (1 - d) // 4 % n
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # m runs over the binary prefixes of k from m = 1: V_1 = P = 1, V_2 = 1 - 2Q
    v, w, qm = 1, (1 - 2 * q) % n, q
    for bit in bin(k)[3:]:
        if bit == "1":
            v, w, qm = (v * w - qm) % n, (w * w - 2 * qm * q) % n, qm * qm * q % n
        else:
            v, w, qm = (v * v - 2 * qm) % n, (v * w - qm) % n, qm * qm % n
    if v == 0 or (2 * w - v) % n == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qm) % n
        qm = qm * qm % n
        if v == 0:
            return True
    return False


def valuation(n: int, p: int) -> int | float:
    """Largest e with p^e | n; INFINITY iff n == 0.  Negative n uses |n|.
    ValueError unless p is prime, which 2 and 3, the primes most callers
    pass, need no test to be."""
    if p != 2 and p != 3 and not is_prime(p):
        raise ValueError(f"valuation requires a prime, got {p}")
    return _valuation(n, p)


def _valuation(n: int, p: int) -> int | float:
    """valuation without the primality test, for a p the caller has proved
    prime, such as a prime that factorize returned."""
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
    min(limit, TRIAL_DIVISION_BOUND), in groups of eight blocks of 16: one
    gcd with a group's product skips a group below the bound and sqrt(n)
    that holds no factor, and one with a block's product skips such a block
    (_trial_division).  Then Brent's rho on what is left, with
    (limit - TRIAL_DIVISION_BOUND) // RHO_ITERATION_COST iterations in all,
    shared by every split; an iteration is counted as one step of the walk
    however many a loop pass takes.  Each part is tested with
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
    n, q = _trial_division(n, min(limit, TRIAL_DIVISION_BOUND), factors)
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
        root, exp = _perfect_power(m, q)
        if exp > 1:
            parts.append((root, e * exp))
            continue
        d, budget = _brent(m, budget)
        if d is None:
            cofactor *= m**e
        else:
            parts += [(d, e), (m // d, e)]
    return dict(sorted(factors.items())), cofactor


def _trial_division(n: int, bound: int, factors: dict[int, int]) -> tuple[int, int]:
    """Divide the primes of the table from 5 up to ``bound`` out of ``n``
    into ``factors``; returns what is left of n and a floor q: no prime
    below q divides it, so n < q^2 makes it 1 or prime, and every root of a
    power dividing it is at least q.  One gcd skips a group that lies
    wholly below the bound and sqrt(n); any other group goes block by
    block, as if there were no groups, up to the first block past the bound
    or sqrt(n) or the first prime past the bound."""
    for last, group_product, blocks in _TRIAL_GROUPS:
        if last <= bound and last * last <= n and gcd(n, group_product) == 1:
            continue
        for block, product in blocks:
            if block[0] > bound or block[0] ** 2 > n:
                return n, block[0]
            if gcd(n, product) > 1:
                for p in block:
                    if p > bound:  # the block's primes above the bound are not tried
                        return n, p
                    while n % p == 0:
                        factors[p] = factors.get(p, 0) + 1
                        n //= p
    return n, TRIAL_DIVISION_BOUND + 1


def _brent(n: int, budget: int) -> tuple[int | None, int]:
    """A proper factor of the composite ``n`` by Brent's rho, or None when
    the next step would take more than ``budget`` iterations; returns it with
    the budget left.  x -> x^2 + c from x0 = 2, with c = 1, 2, ... in turn
    when a walk closes without a split, so every run is the same.

    Each round advances y by r iterations from the saved x, then walks r
    more in batches of m = min(_RHO_BATCH, r) whose differences x - y are
    multiplied together mod n before one gcd; r doubles every round.  r and
    m are powers of two, so from 4 on both loops take four iterations per
    pass, and a batch folds its four differences into q with one reduction
    mod n.  That leaves every y, every q mod n, each gcd and each budget
    check where one iteration per pass puts them."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if budget < r:
                return None, budget
            x = y
            if r < 4:
                for _ in range(r):
                    y = (y * y + c) % n
            else:
                for _ in range(r >> 2):
                    y = (y * y + c) % n
                    y = (y * y + c) % n
                    y = (y * y + c) % n
                    y = (y * y + c) % n
            budget -= r
            k = 0
            while k < r and g == 1:
                m = min(_RHO_BATCH, r - k)
                if budget < m:
                    return None, budget
                ys = y
                if m < 4:
                    for _ in range(m):
                        y = (y * y + c) % n
                        q = q * (x - y) % n
                else:
                    for _ in range(m >> 2):
                        y1 = (y * y + c) % n
                        y2 = (y1 * y1 + c) % n
                        y3 = (y2 * y2 + c) % n
                        y = (y3 * y3 + c) % n
                        q = q * ((x - y1) * (x - y2)) * ((x - y3) * (x - y)) % n
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


def _perfect_power(n: int, least: int = 2) -> tuple[int, int]:
    """(r, e) with n = r^e and e maximal; (n, 1) when n is not a power.

    Only prime exponents are tried: n = r^e makes every prime p | e an
    exponent too, and the maximal exponent of n is p times that of its
    p-th root, on which this recurses.  ``least`` is a floor for the root:
    the caller vouches that no prime below it divides n, so any root is at
    least ``least`` and the exponents stop at the first e with least^e > n.
    factorize passes its trial-division floor, which leaves a 62-bit
    cofactor at the default budget only e in {2, 3, 5} to try."""
    top = n.bit_length() - 1  # least^e <= n needs e <= top
    exponents = _PRIMES
    if top > TRIAL_DIVISION_BOUND:  # past the table every e is tried
        exponents = chain(_PRIMES, range(TRIAL_DIVISION_BOUND + 1, top + 1))
    for e in exponents:
        if least**e > n:
            break
        r = _iroot(n, e)
        if r**e == n:
            root, f = _perfect_power(r, least)
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


def _sqrt_mod_prime_power(a: int, p: int, e: int) -> tuple[int, ...]:
    """All z in [0, p^e) with z^2 = a (mod p^e), ascending, for
    0 <= a < p^e, as a tuple.

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
    prime power (_sqrt_mod_prime_power), joined by the Chinese remainder
    theorem."""
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
