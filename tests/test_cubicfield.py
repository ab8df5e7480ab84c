import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cubicha.cubicfield import (
    HopfElement,
    OrderElement,
    REDUCED_LOOSE,
    REDUCED_STRICT,
    _integer_roots,
    action_matrix,
    apply_hopf,
    gram_matrix,
    hopf_mul,
    validate,
)
from cubicha.errors import ValidationError
from cubicha.selfcheck import _mul_coords, trace, verify_sqrt_identity

W1 = HopfElement.of(1, 0, 0)
W2 = HopfElement.of(0, 1, 0)
W3 = HopfElement.of(0, 0, 1)


def sympy_mul_oracle(a, b, u, v):
    # independent oracle: expand and reduce with sympy polynomials
    from sympy import Poly, Symbol, div

    x = Symbol("x")
    f = Poly(x**3 - a * x + b, x)
    pu = Poly(u[2] * x**2 + u[1] * x + u[0], x)
    pv = Poly(v[2] * x**2 + v[1] * x + v[0], x)
    _, rem = div(pu * pv, f, x)
    coeffs = rem.all_coeffs()[::-1] + [0, 0, 0]
    return tuple(int(c) for c in coeffs[:3])


class TestValidate:
    def test_worked_instance(self):
        k = validate(1, 1)
        assert (k.a, k.b, k.delta, k.g) == (1, 1, -23, 1)

    def test_reducible(self):
        with pytest.raises(ValidationError) as exc:
            validate(3, 2)  # 1 - 3 + 2 = 0
        assert exc.value.code == "REDUCIBLE"

    def test_not_reduced(self):
        with pytest.raises(ValidationError) as exc:
            validate(4, 8)  # v2(a) = 2, v2(b) = 3
        assert exc.value.code == "NOT_REDUCED"

    def test_loose_convention_admits_4_8(self):
        k = validate(4, 8, REDUCED_LOOSE)
        assert k.g == 4

    def test_loose_convention_still_rejects(self):
        with pytest.raises(ValidationError) as exc:
            validate(8, 16, REDUCED_LOOSE)  # v2(a) = 3, v2(b) = 4
        assert exc.value.code == "NOT_REDUCED"

    def test_zero_rejections(self):
        with pytest.raises(ValidationError) as exc:
            validate(0, 5)
        assert exc.value.code == "ZERO_A"
        with pytest.raises(ValidationError) as exc:
            validate(5, 0)
        assert exc.value.code == "ZERO_B"

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            validate(1, 1, "sloppy")

    def test_reducible_large_root(self):
        with pytest.raises(ValidationError):
            validate(21, 20)  # x = 4: 64 - 84 + 20 = 0

    def test_large_b_does_not_hang(self):
        r, a = 10**10, 7
        start = time.perf_counter()
        with pytest.raises(ValidationError) as exc:
            validate(a, r**3 - a * r)
        assert time.perf_counter() - start < 0.1
        assert exc.value.code == "REDUCIBLE" and str(exc.value).endswith(f"x = {-r}")
        start = time.perf_counter()
        k = validate(a, 10**30 + 1)
        assert time.perf_counter() - start < 0.1
        assert k.g == 1

    def test_unsplit_gcd_is_rejected_or_decided(self):
        # g = p*q, p and q past the reach of the default factorization budget
        g = 1000000000039 * 1000000000061
        with pytest.raises(ValidationError) as exc:
            validate(g, 5 * g)
        assert exc.value.code == "GCD_UNFACTORED"
        # g^3 divides both: p^2 | a and p^3 | b for each p | g, unsplit or not
        with pytest.raises(ValidationError) as exc:
            validate(g**3, g**3)
        assert exc.value.code == "NOT_REDUCED"

    @pytest.mark.parametrize("convention", [REDUCED_STRICT, REDUCED_LOOSE])
    @pytest.mark.parametrize("e", [2, 3, 4, 6, 9])
    def test_unsplit_gcd_power_decided_by_maximal_exponent(self, e, convention):
        # gcd = r^e with r = p*q unsplit, so v_p(a) = v_p(b) = e for each p | r;
        # only the maximal exponent of the cofactor decides this.  r^4 as
        # (r^2)^2, r^6 as (r^2)^3 or (r^3)^2 and r^9 as (r^3)^3 each fall
        # below bmin under one convention
        r = 1000000000039 * 1000000000061
        amin, bmin = (2, 3) if convention == REDUCED_STRICT else (3, 4)
        with pytest.raises(ValidationError) as exc:
            validate(r**e, 5 * r**e, convention)
        if e >= bmin:
            assert exc.value.code == "NOT_REDUCED"
            assert str(exc.value) == f"every prime p of {r} has v_p(a) >= {amin} and v_p(b) >= {bmin}"
        else:
            assert exc.value.code == "GCD_UNFACTORED"
            assert f"keeps the cofactor {r**e}," in str(exc.value)

    def test_integer_roots_match_divisor_search(self):
        def referee(a, b):
            # every divisor d <= sqrt|b| with d, -d, b/d, -b/d, first hit first
            n, found = abs(b), []
            for d in range(1, math.isqrt(n) + 1):
                if n % d == 0:
                    for r in (d, -d, n // d, -(n // d)):
                        if r**3 - a * r + b == 0 and r not in found:
                            found.append(r)
            return found

        for a in range(-60, 61):
            for b in range(-60, 61):
                if b != 0:
                    assert _integer_roots(a, b) == referee(a, b), (a, b)


class TestMul:
    """Multiplication in Z[alpha] as ``verify_sqrt_identity`` computes it."""

    def test_defining_relation(self):
        k = validate(1, 1)
        alpha, alpha2 = (0, 1, 0), (0, 0, 1)
        assert _mul_coords(k.a, k.b, alpha, alpha2) == (-k.b, k.a, 0)
        assert _mul_coords(k.a, k.b, alpha2, alpha2) == (0, -k.b, k.a)

    def test_worked_square(self):
        k = validate(1, 1)
        u = (-1, 0, 1)
        assert _mul_coords(k.a, k.b, u, u) == (1, -1, -1)
        assert sympy_mul_oracle(1, 1, (-1, 0, 1), (-1, 0, 1)) == (1, -1, -1)

    def test_against_sympy_oracle(self):
        rng = random.Random(2)
        checked = 0
        while checked < 50:
            a, b = rng.randint(-30, 30), rng.randint(-30, 30)
            k = try_validate(a, b)
            if k is None:
                continue
            u = tuple(rng.randint(-9, 9) for _ in range(3))
            v = tuple(rng.randint(-9, 9) for _ in range(3))
            got = _mul_coords(k.a, k.b, u, v)
            assert got == sympy_mul_oracle(a, b, u, v)
            checked += 1


def try_validate(a, b):
    if a == 0 or b == 0:
        return None
    try:
        return validate(a, b)
    except ValidationError:
        return None


class TestTrace:
    @pytest.mark.parametrize("a,b", [(1, 1), (3, 1), (-4, 7)])
    def test_basis_traces(self, a, b):
        k = validate(a, b)
        assert trace(k, OrderElement(1, 0, 0)) == 3
        assert trace(k, OrderElement(0, 1, 0)) == 0
        assert trace(k, OrderElement(0, 0, 1)) == 2 * a


class TestGramAndAction:
    def test_gram_worked_instance(self):
        g = gram_matrix(validate(1, 1))
        assert g[1][1] == OrderElement(-4, 9, 6)
        assert g[1][2] == OrderElement(6, -2, -9)

    def test_gram_fixed_rows(self):
        for a, b in [(1, 1), (5, 6), (-3, 2)]:
            g = gram_matrix(validate(a, b))
            assert g[0] == (OrderElement(1, 0, 0), OrderElement(0, 1, 0), OrderElement(0, 0, 1))
            assert g[2][0] == OrderElement(2, 0, 0)
            assert g[1][0] == OrderElement(0, 0, 0)

    def test_action_matrix_entries(self):
        m = action_matrix(validate(1, 1))
        assert m[3] == (0, -4, 0)
        assert m[5] == (0, 6, 0)
        assert m[1] == (0, 0, 0) and m[2] == (0, 0, 0)

    def test_action_matrix_matches_gram(self):
        rng = random.Random(4)
        checked = 0
        while checked < 30:
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            k = try_validate(a, b)
            if k is None:
                continue
            checked += 1
            am = action_matrix(k)
            gm = gram_matrix(k)
            for j in range(3):
                for r in range(3):
                    for i in range(3):
                        assert am[3 * j + r][i] == gm[i][j].coords[r]


class TestHopfAlgebra:
    def test_identity_element(self):
        k = validate(1, 1)
        v = HopfElement.of(Fraction(2, 3), -1, Fraction(5, 7))
        assert hopf_mul(k, W1, v) == v
        assert hopf_mul(k, v, W1) == v

    def test_w2_squared(self):
        k = validate(1, 1)
        assert hopf_mul(k, W2, W2) == HopfElement.of(46, 0, -23)

    def test_w3_squared(self):
        k = validate(1, 1)
        assert hopf_mul(k, W3, W3) == HopfElement.of(2, 0, 1)

    def test_table_as_operator_identity(self):
        # products verified through their action on B, not just the table
        for a, b in [(1, 1), (3, 1), (5, 6), (-2, 2)]:
            k = validate(a, b)
            for wi in (W1, W2, W3):
                for wj in (W1, W2, W3):
                    prod = hopf_mul(k, wi, wj)
                    for gamma in gram_matrix(k)[0]:
                        lhs = apply_hopf(k, wi, apply_hopf(k, wj, gamma))
                        assert lhs == apply_hopf(k, prod, gamma)

    def test_apply_examples(self):
        k = validate(1, 1)
        alpha = OrderElement(0, 1, 0)
        w1_plus_w3 = HopfElement.of(1, 0, 1)
        assert apply_hopf(k, w1_plus_w3, alpha) == (0, 0, 0)
        one = OrderElement(1, 0, 0)
        assert apply_hopf(k, W2, one) == (0, 0, 0)
        lhs = apply_hopf(k, W2, apply_hopf(k, W3, alpha))
        rhs = tuple(-x for x in apply_hopf(k, W2, alpha))
        assert lhs == rhs

    def test_trace_identity_random(self):
        rng = random.Random(6)
        w1_plus_w3 = HopfElement.of(1, 0, 1)
        checked = 0
        while checked < 40:
            k = try_validate(rng.randint(-999, 999), rng.randint(-999, 999))
            if k is None:
                continue
            checked += 1
            for gamma in gram_matrix(k)[0]:
                assert apply_hopf(k, w1_plus_w3, gamma) == (Fraction(trace(k, gamma)), 0, 0)


class TestSqrtIdentity:
    @pytest.mark.parametrize("a,b", [(1, 1), (3, 1), (5, 6)])
    def test_worked_instances(self, a, b):
        assert verify_sqrt_identity(validate(a, b))

    def test_sympy_oracle(self):
        from sympy import Poly, Symbol, div, expand

        x = Symbol("x")
        for a, b in [(1, 1), (3, 1), (5, 6), (-7, 11)]:
            f = Poly(x**3 - a * x + b, x)
            s = Poly(6 * a * x**2 + 9 * b * x - 4 * a**2, x)
            delta = 4 * a**3 - 27 * b**2
            rhs = Poly(delta * (-3 * x**2 + 4 * a), x)
            _, rem = div(s * s - rhs, f, x)
            assert rem.is_zero
            assert verify_sqrt_identity(validate(a, b))

    @given(
        st.integers(-(10**6), 10**6).filter(bool),
        st.integers(-(10**6), 10**6).filter(bool),
    )
    def test_randomized(self, a, b):
        try:
            k = validate(a, b)
        except ValidationError:
            return
        assert verify_sqrt_identity(k)
