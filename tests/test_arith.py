import math
import random

import pytest
from hypothesis import given, strategies as st

from cubicha.arith import (
    INFINITY,
    divisors,
    factorize,
    is_prime,
    periodic_sqrt_cf,
    valuation,
)
from cubicha.errors import DegenerateFormError, FactorizationLimitError


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

    def test_divisors(self):
        assert divisors({2: 2, 3: 1}) == [1, 2, 3, 4, 6, 12]

    def test_limit_error_carries_data(self):
        err = FactorizationLimitError(100, 10, 7)
        assert err.limit == 10 and err.cofactor == 7
