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
        # the cache of prime-power roots changes no answer: every a mod n,
        # n <= 600, once from an empty cache at every call, and once more in
        # a shuffled order that interleaves the moduli, with the cache kept
        # and a shifted by multiples of n
        want, factors = {}, {}
        for n in range(1, 601):
            roots = {}
            for z in range(n):
                roots.setdefault(z * z % n, []).append(z)
            want[n], factors[n] = roots, factorize(n)[0]
        pairs = [(a, n) for n in range(1, 601) for a in range(n)]
        for a, n in pairs:
            arith._sqrt_mod_prime_power.cache_clear()
            assert sqrt_mod(a, factors[n]) == want[n].get(a, []), (a, n)
        rng = random.Random(600)
        rng.shuffle(pairs)
        hits = arith._sqrt_mod_prime_power.cache_info().hits
        for a, n in pairs:
            shifted = a + n * rng.randint(-3, 3)
            assert sqrt_mod(shifted, factors[n]) == want[n].get(a, []), (shifted, n)
        assert arith._sqrt_mod_prime_power.cache_info().hits - hits > len(pairs)

    def test_returned_list_is_fresh(self):
        # the cache holds tuples: a caller's edit of its list reaches no
        # other caller
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
# division, the fewer Miller-Rabin bases below psi_12 and the prime-exponent
# power test replaced, kept verbatim apart from names.  They share _brent,
# _iroot and _strong_lucas with the package, which did not change with them.

REFEREE_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
REFEREE_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


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
    return _strong_lucas(n)


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
        d, budget = _brent(m, budget)
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
