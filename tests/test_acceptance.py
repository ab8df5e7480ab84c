"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime.  All arithmetic is exact; every comparison below is equality
unless the criterion itself is a bound."""

import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from cubicha import cubicfield, exactlinalg, freeness, quadrep, selfcheck
from cubicha.arith import factorize
from cubicha.assocorder import (
    CASE1,
    CASE2,
    CASE3,
    build,
    classify,
    closed_form_reduced,
    index_of_case,
)
from cubicha.cubicfield import HopfElement, OrderElement, validate
from cubicha.errors import ValidationError
from cubicha.exactlinalg import det3, lattice_equal3, reduce_tall
from cubicha.freeness import (
    FREE,
    NOT_FREE,
    d_beta,
    decide_freeness,
    is_generator,
)
from cubicha.integrality import dedekind_check, is_maximal
from cubicha.selfcheck import alaca_condition, brute_force_generator


def _grid(bound):
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a == 0 or b == 0:
                continue
            try:
                yield validate(a, b)
            except ValidationError:
                continue


class _Timer:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPT {self.name}: {status} ({elapsed:.3f} s, budget {self.budget} s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.name} exceeded its runtime budget: {elapsed:.3f} s"
            )


def test_criterion_1_worked_instance_1_1():
    with _Timer("1 worked instance (1,1)", 0.1):
        k = validate(1, 1)
        order = build(k)
        assert order.index_iw == 2
        target = ((1, 0, 0), (0, 1, 0), (0, Fraction(-1, 2), Fraction(1, 2)))
        # basis as columns vs {w1, w2, (-w2+w3)/2} as columns: same lattice
        basis_cols = tuple(zip(*(v.coords for v in selfcheck.order_basis(order))))
        target_cols = tuple(zip(*target))
        assert lattice_equal3(
            exactlinalg.inverse3(basis_cols), exactlinalg.inverse3(target_cols)
        )
        rep = decide_freeness(k)
        assert rep.verdict == FREE
        assert is_generator(k, rep.generator, order)
        assert is_generator(k, OrderElement(-1, 0, 1), order)
        assert is_maximal(k).is_maximal


def test_criterion_2_worked_instance_3_1():
    with _Timer("2 worked instance (3,1)", 0.1):
        k = validate(3, 1)
        assert k.delta == 81 and isqrt(k.delta) ** 2 == k.delta  # Galois field
        order = build(k)
        assert order.index_iw == 54
        sols = set(quadrep.solve_definite(243, 324))
        assert sols == {(18, 0), (-18, 0), (9, 1), (-9, 1), (9, -1), (-9, -1)}
        rep = decide_freeness(k)
        assert rep.verdict == FREE
        assert is_generator(k, rep.generator, order)
        assert is_maximal(k).is_maximal


def test_criterion_3_worked_instance_3_3():
    with _Timer("3 worked instance (3,3)", 0.5):
        k = validate(3, 3)
        order = build(k)
        assert order.case.major == CASE2
        assert order.index_iw == 54
        rep = decide_freeness(k)
        assert rep.verdict == FREE
        cert_324 = dict(rep.pell)[324]
        assert (27, 1) in cert_324.representatives
        t, u = cert_324.fundamental
        assert (t, u) == (161, 8)
        assert 161 * 161 - 405 * 64 == 1


def test_criterion_4_negative_instance_6_1():
    with _Timer("4 negative instance (6,1)", 1.0):
        k = validate(6, 1)
        order = build(k)
        assert order.case.major == CASE3
        assert order.index_iw == 54
        rep = decide_freeness(k)
        assert rep.verdict == NOT_FREE
        assert set(rep.checked_rhs) == {648, -648}
        for rhs, cert in rep.pell:
            assert cert.kind == quadrep.DEFINITE
            assert cert.representatives == ()
        assert is_maximal(k).is_maximal
        assert brute_force_generator(k, 12) is None


def test_criterion_5_non_maximal_17_1():
    with _Timer("5 non-maximal instance (17,1)", 0.1):
        k = validate(17, 1)
        assert abs(k.delta) == 5**3 * 157
        maxrep = is_maximal(k)
        assert not maxrep.is_maximal
        assert maxrep.failing_prime == 5
        assert dedekind_check(k, 5) is False
        # the two routes agree on every examined prime
        for p, _, table_ok in maxrep.per_prime:
            assert table_ok == dedekind_check(k, p)


@pytest.mark.slow
def test_criterion_6_index_table_sweep():
    with _Timer("6 index-table sweep |a|,|b| <= 50", 30.0):
        count = 0
        for k in _grid(50):
            case = classify(k)
            generic = reduce_tall(cubicfield.action_matrix(k))
            closed = closed_form_reduced(k, case)
            assert abs(det3(generic)) == index_of_case(case, k.g), (k.a, k.b)
            assert lattice_equal3(closed, generic), (k.a, k.b)
            count += 1
        assert count > 5000


@pytest.mark.slow
def test_criterion_7_identity_suite():
    with _Timer("7 identity suite, 1000 random pairs", 30.0):
        rng = random.Random(2024)
        w = [HopfElement.of(*v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        done = 0
        while done < 1000:
            a = rng.randint(-(10**6), 10**6)
            b = rng.randint(-(10**6), 10**6)
            if a == 0 or b == 0:
                continue
            try:
                k = validate(a, b)
            except ValidationError:
                continue
            assert selfcheck.verify_sqrt_identity(k)
            basis = cubicfield.gram_matrix(k)[0]
            for wi in w:
                for wj in w:
                    prod = cubicfield.hopf_mul(k, wi, wj)
                    for gamma in basis:
                        lhs = cubicfield.apply_hopf(
                            k, wi, cubicfield.apply_hopf(k, wj, gamma)
                        )
                        assert lhs == cubicfield.apply_hopf(k, prod, gamma)
            w1_plus_w3 = HopfElement.of(1, 0, 1)
            for gamma in basis:
                image = cubicfield.apply_hopf(k, w1_plus_w3, gamma)
                assert image == (Fraction(selfcheck.trace(k, gamma)), 0, 0)
            done += 1


def test_criterion_9_oracle_agreement():
    with _Timer("9 oracle agreement |a|,|b| <= 20 + pell oracle", 300.0):
        for k in _grid(20):
            order = build(k)
            rep = decide_freeness(k, order=order)
            found = brute_force_generator(k, 12)
            if found is not None:
                assert rep.verdict != NOT_FREE, (k.a, k.b)
                assert is_generator(k, found, order)
            if rep.verdict == NOT_FREE:
                assert found is None, (k.a, k.b)
            if rep.verdict == FREE:
                assert abs(d_beta(k, rep.generator)) == rep.index_iw
        # randomized small-instance equivalence of the indefinite solver
        rng = random.Random(9)
        box = 2000
        done = 0
        while done < 40:
            d = rng.randint(2, 500)
            if isqrt(d) ** 2 == d:
                continue
            n = rng.randint(-(10**4), 10**4)
            if n == 0:
                continue
            if len(selfcheck.periodic_sqrt_cf(d)[1]) % 2:
                # no |D| = 3*|delta| has an odd period, and the solver refuses one
                assert selfcheck.refuses_odd_period(quadrep.solve_indefinite, -d, n), (d, n)
                done += 1
                continue
            cert = quadrep.solve_indefinite(-d, n)
            got = selfcheck._orbit_closure_in_box(d, n, cert, box)
            want = set()
            for y in range(-box, box + 1):
                r = n + d * y * y
                if r >= 0:
                    x = isqrt(r)
                    if x * x == r and x <= box:
                        want |= {(x, y), (-x, y)}
            assert got == want, (d, n)
            done += 1


def test_criterion_10_alaca_dedekind_referee():
    with _Timer("10 Alaca/Dedekind referee |a|,|b| <= 30", 60.0):
        count = 0
        for k in _grid(30):
            factors, cofactor = factorize(k.delta)
            assert cofactor == 1
            primes = sorted({2, 3} | {p for p, e in factors.items() if e >= 2})
            for p in primes:
                table_ok, _ = alaca_condition(k, p)
                assert table_ok == dedekind_check(k, p), (k.a, k.b, p)
                count += 1
        assert count > 6000
