import math
import random
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from cubicha.arith import (
    INFINITY,
    TRIAL_DIVISION_BOUND,
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
