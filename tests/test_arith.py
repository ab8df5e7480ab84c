import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from cubicha import arith
from cubicha.arith import (
    DEFAULT_TRIAL_DIVISION_LIMIT,
    INFINITY,
    RHO_ITERATION_COST,
    TRIAL_DIVISION_BOUND,
    _brent,
    _iroot,
    _perfect_power,
    _strong_lucas,
    divisors,
    factorize,
    is_prime,
    sqrt_mod,
    valuation,
)
from cubicha.errors import DegenerateFormError, FactorizationLimitError
from cubicha.selfcheck import periodic_sqrt_cf


def naive_valuation(n, p):
    # independent oracle: repeated division
    if n == 0:
        return INFINITY
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


class TestValuation:
    def test_examples(self):
        assert valuation(12, 2) == 2
        assert valuation(0, 3) == INFINITY
        assert valuation(19625, 5) == 3  # 19625 = 5^3 * 157
        assert naive_valuation(19625, 5) == 3

    def test_negative_uses_abs(self):
        assert valuation(-12, 2) == 2

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            valuation(10, 4)
        with pytest.raises(ValueError):
            valuation(10, 1)

    def test_non_primes_near_2_and_3_rejected(self):
        # 2 and 3 skip the primality test; their neighbours, squares and
        # negatives must not
        for p in (0, 1, 4, 9, 15, -3, -2, 6):
            for n in (0, 1, 12, -54):
                with pytest.raises(ValueError):
                    valuation(n, p)

    def test_2_and_3_match_naive_on_seeded_n(self):
        rng = random.Random(321)
        ns = [0, 1, -1, 2, -3, 2**64, -(3**40), 6**30 * 7]
        for _ in range(500):
            sign = rng.choice((-1, 1))
            ns.append(sign * 2 ** rng.randint(0, 70) * 3 ** rng.randint(0, 40) * rng.randint(1, 10**6))
        for n in ns:
            for p in (2, 3):
                assert valuation(n, p) == naive_valuation(n, p), (n, p)

    @given(st.integers(-(10**6), 10**6), st.sampled_from([2, 3, 5, 7, 11]))
    def test_matches_naive(self, n, p):
        assert valuation(n, p) == naive_valuation(n, p)


class TestPeriodicSqrtCf:
    def test_examples(self):
        assert periodic_sqrt_cf(69) == (8, (3, 3, 1, 4, 1, 3, 3, 16))
        assert periodic_sqrt_cf(2) == (1, (2,))
        a0, period = periodic_sqrt_cf(405)
        assert a0 == 20 and period[-1] == 40

    def test_square_rejected(self):
        with pytest.raises(DegenerateFormError):
            periodic_sqrt_cf(49)

    def test_period_end_convergent_is_pell_unit(self):
        rng = random.Random(11)
        for _ in range(60):
            d = rng.randint(2, 10**5)
            if math.isqrt(d) ** 2 == d:
                continue
            a0, period = periodic_sqrt_cf(d)
            h0, h1, k0, k1 = 1, a0, 0, 1
            for a in period[:-1]:
                h0, h1 = h1, a * h1 + h0
                k0, k1 = k1, a * k1 + k0
            v = h1 * h1 - d * k1 * k1
            assert v in (1, -1)
            if v == -1:
                t, u = h1 * h1 + d * k1 * k1, 2 * h1 * k1
                assert t * t - d * u * u == 1


class TestFactorSupport:
    def test_is_prime_smalls(self):
        def naive(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        for n in range(-2, 500):
            assert is_prime(n) == naive(n), n

    def test_is_prime_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**19 - 1))

    def test_factorize_complete(self):
        facs, cof = factorize(19625)
        assert facs == {5: 3, 157: 1} and cof == 1
        facs, cof = factorize(-864)
        assert facs == {2: 5, 3: 3} and cof == 1

    def test_factorize_prime_power_cofactor_folds(self):
        facs, cof = factorize(2 * 1000003**2, limit=10)
        assert cof == 1 and facs == {2: 1, 1000003: 2}

    def test_factorize_composite_cofactor_survives(self):
        n = 1000003 * 1000033
        facs, cof = factorize(n, limit=10)
        assert cof == n and facs == {}

    def test_factorize_budget_boundary(self):
        # at limit = TRIAL_DIVISION_BOUND rho gets no iterations; the
        # default budget splits two primes just above the bound
        n = 1000003 * 1000033
        assert factorize(n, limit=TRIAL_DIVISION_BOUND) == ({}, n)
        assert factorize(n) == ({1000003: 1, 1000033: 1}, 1)

    def test_divisors(self):
        assert divisors({2: 2, 3: 1}) == [1, 2, 3, 4, 6, 12]

    def test_limit_error_carries_data(self):
        err = FactorizationLimitError(100, 10, 7)
        assert err.limit == 10 and err.cofactor == 7


# the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


class TestSqrtMod:
    def test_matches_residue_scan_on_108ag(self):
        # the moduli the freeness problems meet: |D| = 3|delta| modulo
        # 108ag divided by its square divisors; the referee scans every residue
        rng = random.Random(108)
        cases = 0
        while cases < 60:
            h = rng.randint(1, 12)
            a, b = h * rng.randint(-20, 20), h * rng.randint(-20, 20)
            g = math.gcd(a, b)
            n = 108 * abs(a) * g
            if a == 0 or b == 0 or n > 200000:
                continue
            dabs = 3 * abs(4 * a**3 - 27 * b**2)
            for f in range(1, math.isqrt(n) + 1):
                if n % (f * f) == 0:
                    m = n // (f * f)
                    want = [z for z in range(m) if (z * z - dabs) % m == 0]
                    assert sqrt_mod(dabs, factorize(m)[0]) == want, (dabs, m)
            cases += 1

    def test_matches_residue_scan_on_prime_powers(self):
        # high powers of 2, 3, 5 and 7 dividing both the modulus and the square
        rng = random.Random(7)
        for _ in range(400):
            p = rng.choice([2, 3, 5, 7])
            m = p ** rng.randint(1, math.floor(math.log(5000, p))) * rng.randint(1, 4)
            a = rng.choice([1, 2, 3, 4, 9, 16, 25, 27, 81]) * rng.randint(0, 10**6)
            want = [z for z in range(m) if (z * z - a) % m == 0]
            assert sqrt_mod(a, factorize(m)[0]) == want, (a, m)

    @pytest.mark.slow
    def test_every_residue_below_600_cold_and_warm(self):
        # the cache of root sets (quadrep._root_sets), through which the
        # Pell layer calls sqrt_mod, changes no answer: every a mod n,
        # n <= 600, in a shuffled order that interleaves the moduli, in
        # blocks that are each posed twice, once missing the cache and once
        # hitting it
        from cubicha import quadrep

        want, squares = {}, {}
        for n in range(1, 601):
            roots = {}
            for z in range(n // 2 + 1):
                roots.setdefault(z * z % n, []).append(z)
            want[n] = roots
            squares[n] = [f for f in range(1, math.isqrt(n) + 1) if n % (f * f) == 0]

        def root_sets(a, n):
            return quadrep._root_sets(a, n, DEFAULT_TRIAL_DIVISION_LIMIT)

        pairs = [(a, n) for n in range(1, 601) for a in range(n)]
        rng = random.Random(600)
        rng.shuffle(pairs)
        quadrep._root_sets.cache_clear()
        for i in range(0, len(pairs), 100):
            block = pairs[i:i + 100]
            cold = {}
            for a, n in block:
                cold[a, n] = root_sets(a, n)
                # f -> the z <= m/2 with z^2 = a mod m, for every f^2 | n, m = n/f^2
                got = {f: list(roots) for f, _, roots in cold[a, n]}
                assert got == {f: want[n // (f * f)].get(a % (n // (f * f)), []) for f in squares[n]}, (a, n)
            for a, n in rng.sample(block, len(block)):
                assert root_sets(a, n) == cold[a, n], (a, n)
        info = quadrep._root_sets.cache_info()
        assert info.misses == info.hits == len(pairs)

    def test_returned_list_is_fresh(self):
        # each call returns a new list: a caller's edit of its list
        # reaches no other caller
        for factors, roots in (({5: 2}, [2, 23]), ({3: 1, 5: 1}, [2, 7, 8, 13])):
            got = sqrt_mod(4, factors)
            assert got == roots
            got[0] = -1
            got.append(99)
            assert sqrt_mod(4, factors) == roots


def sieve(bound):
    flags = bytearray([1]) * (bound + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    return [p for p in range(bound + 1) if flags[p]]


class TestBPSW:
    def test_mr_pseudoprimes_rejected(self):
        assert not is_prime(PSI_12)
        assert not is_prime(PSI_13)
        assert is_prime(399165290221) and is_prime(798330580441)

    def test_pseudoprime_never_listed_as_prime(self):
        for n in (PSI_12, 4 * PSI_12):
            facs, cof = factorize(n)
            assert PSI_12 not in facs
            assert facs.get(399165290221) == 1 or cof % PSI_12 == 0

    def test_strong_lucas_pseudoprimes_below_1e5(self):
        # OEIS A217255: the strong Lucas pseudoprimes (Selfridge's method A)
        known = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]
        primes = set(sieve(10**5))
        odd_small = [p for p in primes if 2 < p < 50]
        found = [
            n for n in range(53, 10**5, 2)
            if n not in primes and all(n % p for p in odd_small) and _strong_lucas(n)
        ]
        assert found == known
        assert all(_strong_lucas(p) for p in primes if p > 47)

    def test_against_sympy(self):
        isprime = pytest.importorskip("sympy").isprime
        rng = random.Random(5)
        for _ in range(3000):
            n = rng.randrange(2, 10 ** rng.randint(3, 40))
            assert is_prime(n) == isprime(n), n


class TestRho:
    def test_products_of_large_primes(self):
        small = sieve(math.isqrt(10**9))

        def is_prime_by_trial(n):
            return n > 1 and all(n % p for p in small if p * p <= n)

        rng = random.Random(2024)
        for _ in range(300):
            count, primes = rng.randint(2, 4), []
            while len(primes) < count:
                if primes and rng.random() < 0.25:
                    primes.append(rng.choice(primes))  # a repeated prime
                    continue
                c = rng.randint(TRIAL_DIVISION_BOUND, 10**9)
                if is_prime_by_trial(c):
                    primes.append(c)
            n = math.prod(primes) * rng.choice((1, -1))
            facs, cof = factorize(n)
            assert cof == 1, n
            assert math.prod(p**e for p, e in facs.items()) == abs(n)
            assert all(is_prime(p) for p in facs)
            assert facs == dict(sorted(Counter(primes).items())), n

    def test_budget_is_honest(self):
        # two 21-digit primes: far beyond 10^6 rho iterations, so the
        # default budget gives up and hands the product back
        p, q = 100000000000000000039, 100000000000000000129
        start = time.perf_counter()
        facs, cof = factorize(4 * p * q)
        elapsed = time.perf_counter() - start
        assert facs == {2: 2} and cof == p * q
        assert elapsed < 2.0, elapsed


# The referees below are the implementations that the prime-table trial
# division, the fewer Miller-Rabin bases below psi_12, the prime-exponent
# power test, the four-iteration rho loops and the V-only Lucas ladder
# replaced, kept verbatim apart from names.  They share _iroot and _jacobi
# with the package, which did not change with them.

REFEREE_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
REFEREE_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def referee_brent(n, budget):
    # one iteration per loop pass and one reduction of q per difference
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
                m = min(128, r - k)
                if budget < m:
                    return None, budget
                ys = y
                for _ in range(m):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                budget -= m
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, budget


def referee_strong_lucas(n):
    # the U/V doubling, with a halving of each for every 1-bit of k
    if math.isqrt(n) ** 2 == n:
        return False
    d = 5
    while True:
        j = arith._jacobi(d, n)
        if j == -1:
            break
        if j == 0:
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    u, v, qm = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qm = u * v % n, (v * v - 2 * qm) % n, qm * qm % n
        if bit == "1":
            u, v = u + v, d * u + v
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


def referee_is_prime(n):
    # Miller-Rabin to all twelve bases, then the strong Lucas test, always
    if n < 2:
        return False
    for p in REFEREE_SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in REFEREE_MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return referee_strong_lucas(n)


def referee_perfect_power(n):
    # every exponent from the bit length down, so the first hit is maximal
    for e in range(n.bit_length(), 1, -1):
        r = _iroot(n, e)
        if r > 1 and r**e == n:
            return r, e
    return n, 1


def referee_factorize(n, limit=DEFAULT_TRIAL_DIVISION_LIMIT):
    # trial division by 2, 3 and the 6k +- 1 wheel, then the same rho phase
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors = {}
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
        step = 6 - step
    if p * p > n:
        if n > 1:
            factors[n] = factors.get(n, 0) + 1
        return factors, 1
    budget = max(0, limit - TRIAL_DIVISION_BOUND) // RHO_ITERATION_COST
    cofactor = 1
    parts = [(n, 1)]
    while parts:
        m, e = parts.pop()
        if referee_is_prime(m):
            factors[m] = factors.get(m, 0) + e
            continue
        root, exp = referee_perfect_power(m)
        if exp > 1:
            parts.append((root, e * exp))
            continue
        d, budget = referee_brent(m, budget)
        if d is None:
            cofactor *= m**e
        else:
            parts += [(d, e), (m // d, e)]
    return dict(sorted(factors.items())), cofactor


# every budget where the trial bound or the first rho iteration changes hands
REFEREE_LIMITS = (0, 1, 2, 4, 5, 6, 7, *range(4092, 4098), 10**5, DEFAULT_TRIAL_DIVISION_LIMIT)


def same_factorization(n, limit):
    facs, cof = factorize(n, limit)
    want, want_cof = referee_factorize(n, limit)
    # items, not the dicts: the order of the factors is compared too
    return list(facs.items()) == list(want.items()) and cof == want_cof


class TestReferees:
    @pytest.mark.slow
    def test_factorize_every_small_n(self):
        for n in range(1, 2 * 10**5 + 1):
            assert same_factorization(n, DEFAULT_TRIAL_DIVISION_LIMIT), n
            assert is_prime(n) == referee_is_prime(n), n
            assert _perfect_power(n) == referee_perfect_power(n), n

    def test_factorize_small_n_at_every_limit(self):
        # every 37th n keeps the cross product quick
        for n in range(1, 2 * 10**5 + 1, 37):
            for limit in REFEREE_LIMITS:
                assert same_factorization(n, limit), (n, limit)

    def test_factorize_seeded_large_n(self):
        rng = random.Random(16)
        exhausted = 0
        for _ in range(200):
            n = rng.randrange(1, 10 ** rng.randint(2, 40))
            # plant factors at and around the trial bound and the block edges
            n *= rng.choice((1, 4, 9, 25 * 49, 4091, 4093, 4099, 4091 * 4093, 4093 * 4099, 101 * 103))
            for limit in REFEREE_LIMITS[:-1]:  # the default budget runs below
                assert same_factorization(n, limit), (n, limit)
            exhausted += factorize(n, 10**5)[1] != 1
        assert exhausted > 20, exhausted  # the runs where the budget runs out

    @pytest.mark.slow
    def test_factorize_seeded_large_n_default_budget(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randrange(1, 10 ** rng.randint(2, 40))
            assert same_factorization(n, DEFAULT_TRIAL_DIVISION_LIMIT), n

    def test_is_prime_seeded_large_n(self):
        rng = random.Random(18)
        for _ in range(3000):
            n = rng.randrange(2, 10 ** rng.randint(3, 40))
            assert is_prime(n) == referee_is_prime(n), n
        # primes and prime products on both sides of each psi
        for n in (*PSI_TABLE, *sieve(10**4)[-50:]):
            for m in (n, n - 2, n + 2, n * 1000003):
                assert is_prime(m) == referee_is_prime(m), m

    @pytest.mark.slow
    def test_perfect_power_seeded_powers(self):
        rng = random.Random(19)
        for _ in range(500):
            r = rng.randrange(2, 10 ** rng.randint(1, 6))
            e = rng.randint(1, 40)
            for n in (r**e, r**e + 1, r**e - 1):
                assert _perfect_power(n) == referee_perfect_power(n), (r, e)
        # exponents past the prime table: 4099 and 4111 are prime, and
        # 4105 = 5 * 821 is found through the fifth root
        for e in (4099, 4105, 4111):
            assert _perfect_power(2**e) == referee_perfect_power(2**e) == (2, e)


def random_prime(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi)
        if referee_is_prime(p):
            return p


class TestRewrittenKernels:
    # _brent, _strong_lucas and the grouped trial division each compute what
    # the parent's plain loops did: the same factor and budget left, the
    # same verdict, the same factors and cofactor

    BUDGETS = (0, 1, 3, 7, 100, 1000, 10**6)

    def test_brent_matches_referee_at_every_budget(self):
        # p and q of 13 to 31 bits, so that the budget runs out mid-advance
        # and mid-batch and the split comes in the first batch of 128 or
        # far past it; p = q overshoots a batch and steps back through it,
        # and the last three walks close without a split at c = 1
        rng = random.Random(2801)
        pairs = []
        for i in range(60):
            p = random_prime(rng, 4097, 2 ** rng.randint(13, 31))
            pairs.append((p, p if i % 15 == 0 else random_prime(rng, 4097, 2 ** rng.randint(13, 31))))
        pairs += [(4099, 4273), (4111, 4643), (4129, 4337)]
        splits = 0
        for p, q in pairs:
            for budget in self.BUDGETS:
                got = _brent(p * q, budget)
                assert got == referee_brent(p * q, budget), (p, q, budget)
                splits += got[0] is not None
        assert splits > 90, splits

    def test_strong_lucas_matches_referee_and_sympy(self):
        is_strong_lucas_prp = pytest.importorskip("sympy.ntheory.primetest").is_strong_lucas_prp
        rng = random.Random(2802)
        odd_small = [p for p in REFEREE_SMALL_PRIMES if p > 2]
        passed = 0
        for i in range(6000):
            # odd n with no prime factor below 50, every third one a prime
            n = rng.randrange(53, 2 ** rng.randint(7, 64)) | 1
            if i % 3 == 0:
                n = random_prime(rng, 53, 2 ** rng.randint(7, 64))
            if any(n % p == 0 for p in odd_small):
                continue
            got = _strong_lucas(n)
            assert got == referee_strong_lucas(n) == is_strong_lucas_prp(n), n
            passed += got
        assert passed > 1000, passed
        for n in (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519):
            assert not referee_is_prime(n) and _strong_lucas(n), n

    def test_factorize_matches_referee_at_the_group_edges(self):
        # factors at the ends of the five trial groups and of their blocks,
        # above the table, and two primes of 20 to 31 bits for rho
        rng = random.Random(2803)
        table = [p for p in SMALL_TABLE if 5 <= p < 4096]
        edges = [p for _, _, blocks in arith._TRIAL_GROUPS for b in (blocks[0], blocks[-1]) for p in (b[0][0], b[0][-1])]
        above = [p for p in SMALL_TABLE if p > 4096]
        for i in range(120):
            n = rng.choice((1, 2, 6, 81))
            for _ in range(rng.randint(0, 3)):
                n *= rng.choice(rng.choice((table, edges, edges))) ** rng.choice((1, 1, 2, 3))
            if i % 3 == 0:
                n *= rng.choice(above) ** rng.choice((1, 2))
            elif i % 3 == 1:
                n *= random_prime(rng, 2**20, 2**31) * random_prime(rng, 2**20, 2**31)
            for limit in (0, 5, 4095, 4096, 4097, 10**5, DEFAULT_TRIAL_DIVISION_LIMIT):
                assert same_factorization(n, limit), (n, limit)


# psi_1 .. psi_13 (OEIS A014233): the least odd n that is a strong
# pseudoprime to each of the first k prime bases
PSI_TABLE = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


class TestPsiTable:
    @pytest.mark.parametrize("k", range(1, 14))
    def test_psi_is_composite(self, k):
        assert not is_prime(PSI_TABLE[k - 1])

    def test_window_around_each_psi_agrees_with_sympy(self):
        # a "<=" where "<" is meant passes psi_k itself with k bases
        isprime = pytest.importorskip("sympy").isprime
        for psi in sorted(set(PSI_TABLE)):
            for n in range(psi - 10**4, psi + 10**4 + 1):
                assert is_prime(n) == isprime(n), n

    def test_psi_is_composite_under_optimize(self, run_optimized):
        out = run_optimized(
            "from cubicha.arith import is_prime\n"
            f"print([is_prime(n) for n in {list(PSI_TABLE)}])\n"
        )
        assert out == f"{[False] * len(PSI_TABLE)}\n"


PSI_5, PSI_6, PSI_7, PSI_9 = PSI_TABLE[4], PSI_TABLE[5], PSI_TABLE[6], PSI_TABLE[8]


def strong_base2(n):
    # one strong Miller-Rabin round to base 2, written out on its own
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


class TestBPSWRange:
    # from psi_6 up to 2^64 is_prime runs one base-2 round and the strong
    # Lucas test, which together admit no composite below 2^64

    def test_psi_6_7_9_rejected(self):
        for psi in (PSI_6, PSI_7, PSI_9):
            assert PSI_6 <= psi < 2**64
            assert strong_base2(psi)
            assert not is_prime(psi), psi

    def test_base2_strong_pseudoprimes_rejected(self):
        # n = p(2p - 1) with p and 2p - 1 prime and p = 1 (mod 4) is a
        # base-2 Fermat pseudoprime, as 2 is a square mod 2p - 1; about half
        # of them pass the strong round too
        rng = random.Random(25)
        lo, hi = math.isqrt(PSI_6 // 2) + 1, math.isqrt(2**63)
        found = set()
        while len(found) < 24:
            p = rng.randrange(lo, hi) // 4 * 4 + 1
            n = p * (2 * p - 1)
            if PSI_6 <= n < 2**64 and referee_is_prime(p) and referee_is_prime(2 * p - 1) and strong_base2(n):
                found.add(n)
        for n in found:
            assert not is_prime(n), n
            assert not referee_is_prime(n), n

    def test_seeded_draws_agree_with_referee_and_sympy(self):
        isprime = pytest.importorskip("sympy").isprime
        rng = random.Random(26)
        # each switch and each old row gets its share of draws
        edges = (PSI_5, PSI_6, PSI_7, PSI_9, 2**64, 2**64 + 2**40)
        primes = 0
        for i in range(20000):
            lo, hi = edges[i % 5], edges[i % 5 + 1]
            n = rng.randrange(lo, hi) | 1
            got = is_prime(n)
            assert got == referee_is_prime(n) == isprime(n), n
            primes += got
        assert primes > 500, primes
        for edge in (PSI_6, 2**64):
            for n in range(edge - 2000, edge + 2001):
                assert is_prime(n) == referee_is_prime(n) == isprime(n), n


SMALL_TABLE = sieve(5000)


def coprime_to_primes_below(n, least):
    return all(n % p for p in SMALL_TABLE if p < least)


class TestPerfectPowerFloor:
    # factorize passes its trial-division floor: no prime below it divides
    # what is left, so no root is smaller and fewer exponents need a try

    @pytest.mark.parametrize("least", (2, 5, 59, 1009, 4097))
    def test_floor_agrees_with_referee(self, least):
        rng = random.Random(least)
        roots = [p for p in SMALL_TABLE if p >= least][:40]
        while len(roots) < 60:  # larger roots, with no prime below the floor
            r = rng.randrange(least, 10**6)
            if coprime_to_primes_below(r, least):
                roots.append(r)
        cases = []
        for _ in range(150):
            r1, r2 = rng.choice(roots), rng.choice(roots)
            e1, e2 = rng.choice((2, 3, 5, 7)), rng.choice((1, 2, 3, 5, 7))
            cases += [r1**e1, r1**e1 * r2**e2]
        while len(cases) < 450:  # non-powers, almost all of them
            n = rng.randrange(2, 2**62)
            if coprime_to_primes_below(n, least):
                cases.append(n)
        cases += [least**e for e in (2, 3, 5, 7) if coprime_to_primes_below(least, least)]
        for n in cases:
            assert coprime_to_primes_below(n, least)
            assert _perfect_power(n, least) == referee_perfect_power(n), (n, least)

    def test_factorize_agrees_with_referee_across_the_floor(self):
        rng = random.Random(27)
        below = [p for p in SMALL_TABLE if p < 4096]
        above = [p for p in SMALL_TABLE if p > 4096] + [
            p for p in (rng.randrange(2**19, 2**21) for _ in range(400)) if referee_is_prime(p)
        ]
        # the least primes left at each floor: 5 at limits 0 and 3, 4099 at 4096
        edge = [5, 7, 4091, 4093, 4099, 4111]
        for i in range(150):
            n = 1
            for _ in range(rng.randint(1, 4)):
                n *= rng.choice(rng.choice((below, above, above, edge))) ** rng.choice((1, 1, 2, 3, 5))
            if i % 10 == 0:  # two primes of 28 bits, which rho splits past the budget of 10^5
                draws = (rng.randrange(2**27, 2**28) for _ in range(200))
                n *= math.prod([p for p in draws if referee_is_prime(p)][:2])
            for limit in (0, 3, 4096, 10**5, DEFAULT_TRIAL_DIVISION_LIMIT):
                assert same_factorization(n, limit), (n, limit)


class TestWorkCounts:
    # operation counts, not timings, guard the fast paths: a change that
    # brings back the extra bases or exponents fails here

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        iroot = arith._iroot

        def counting_pow(*args):
            counts["pow"] += 1
            return pow(*args)

        def counting_iroot(n, e):
            counts["iroot"] += 1
            return iroot(n, e)

        def counting_gcd(*args):
            counts["gcd"] += 1
            return math.gcd(*args)

        monkeypatch.setattr(arith, "pow", counting_pow, raising=False)
        monkeypatch.setattr(arith, "_iroot", counting_iroot)
        monkeypatch.setattr(arith, "gcd", counting_gcd)
        return counts

    def test_62_bit_prime_costs_one_gcd_per_trial_group(self, counts):
        # and a limit below the first group's last prime pays for no group:
        # none at limit 0, one block at limit 5
        assert len(arith._TRIAL_GROUPS) == 5
        rng = random.Random(30)
        for _ in range(20):
            p = random_prime(rng, 2**61, 2**62)
            for limit, gcds in ((DEFAULT_TRIAL_DIVISION_LIMIT, 5), (5, 1), (0, 0)):
                counts.clear()
                assert factorize(p, limit) == ({p: 1}, 1)
                assert counts["gcd"] <= gcds, (p, limit)

    def test_small_prime_costs_one_gcd_per_block_it_reaches(self, counts):
        # below 733^2, the square of the first group's last prime, no group
        # is skipped whole: a prime n pays one gcd for each block whose
        # first prime p has p^2 <= n, as it did before the groups
        starts = [block[0] for block, _ in arith._TRIAL_BLOCKS]
        for p in (5003, 10007, 65537, 100003, 536867):
            counts.clear()
            assert factorize(p) == ({p: 1}, 1)
            assert counts["gcd"] == sum(s * s <= p for s in starts), p

    def test_prime_below_2_64_costs_one_pow(self, counts):
        rng = random.Random(28)
        primes = [3474749660401, 2305843009213693967, 4611686018427387847, 18446744073709551557]
        while len(primes) < 20:
            n = rng.randrange(PSI_6, 2**64)
            if referee_is_prime(n):
                primes.append(n)
        for p in primes:
            counts.clear()
            assert is_prime(p)
            assert counts["pow"] == 1, p

    def test_prime_from_2_64_to_psi_12_costs_twelve_pows(self, counts):
        for p in (18446744073709551629, 318665857834031151167441):
            counts.clear()
            assert is_prime(p)
            assert counts["pow"] == 12, p

    def test_62_bit_non_power_costs_three_iroots(self, counts):
        rng = random.Random(29)
        for _ in range(50):
            m = rng.randrange(2**61, 2**62) | 1
            counts.clear()
            assert _perfect_power(m, 4097) == (m, 1)
            assert counts["iroot"] <= 3, m
        # factorize passes its floor: a 62-bit p * q for rho, where p and q
        # are prime, takes one power test
        for p, q in ((1048583, 2199023255579), (1048589, 3298493989379)):
            counts.clear()
            assert factorize(p * q) == ({p: 1, q: 1}, 1)
            assert counts["iroot"] <= 3, (p, q)
