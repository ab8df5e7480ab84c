import json
import random

import pytest
from hypothesis import given, strategies as st

from cubicha.assocorder import CASE1, build
from cubicha.cubicfield import OrderElement, apply_hopf, validate
from cubicha.errors import FactorizationLimitError, NoIntegralCandidateError, ValidationError
from cubicha.exactlinalg import det3
from cubicha.freeness import (
    FREE,
    NOT_FREE,
    UNDECIDED,
    d_beta,
    decide_freeness,
    generator_from_solution,
    is_generator,
    m_beta,
)
from cubicha.quadrep import FormProblem, solve_with_conditions
from cubicha import cli, freeness, selfcheck
from cubicha.selfcheck import brute_force_generator


class TestDBeta:
    def test_examples(self):
        assert d_beta(validate(1, 1), OrderElement(-1, 0, 1)) == -2
        assert d_beta(validate(3, 1), OrderElement(-1, 0, 1)) == 54
        for a, b in [(1, 1), (5, 6), (-2, 7)]:
            assert d_beta(validate(a, b), OrderElement(1, 0, 0)) == 0

    @given(
        st.integers(-50, 50).filter(bool),
        st.integers(-50, 50).filter(bool),
        st.tuples(st.integers(-15, 15), st.integers(-15, 15), st.integers(-15, 15)),
    )
    def test_equals_determinant(self, a, b, beta):
        try:
            k = validate(a, b)
        except ValidationError:
            return
        el = OrderElement(*beta)
        assert d_beta(k, el) == det3(m_beta(k, el))

    def test_sign_symmetric_in_abs(self):
        # the linear factor flips sign under negation, the quadratic does not
        k = validate(1, 1)
        for beta in [OrderElement(-1, 0, 1), OrderElement(2, -3, 1)]:
            neg = OrderElement(*(-c for c in beta.coords))
            assert d_beta(k, beta) == -d_beta(k, neg)
            assert abs(d_beta(k, beta)) == abs(d_beta(k, neg))


class TestMBeta:
    def test_unit_vectors(self):
        k = validate(1, 1)
        assert m_beta(k, OrderElement(1, 0, 0)) == ((1, 0, 2), (0, 0, 0), (0, 0, 0))
        assert m_beta(k, OrderElement(0, 1, 0)) == ((0, -4, 0), (1, 9, -1), (0, 6, 0))

    def test_linear_in_beta(self):
        k = validate(5, 3)
        rows_sum = m_beta(k, OrderElement(1, 1, 0))
        partial = tuple(
            tuple(
                m_beta(k, OrderElement(1, 0, 0))[i][j] + m_beta(k, OrderElement(0, 1, 0))[i][j]
                for j in range(3)
            )
            for i in range(3)
        )
        assert rows_sum == partial


class TestIsGenerator:
    def test_examples(self):
        assert is_generator(validate(1, 1), OrderElement(-1, 0, 1))
        assert is_generator(validate(3, 1), OrderElement(-1, 0, 1))
        assert not is_generator(validate(1, 1), OrderElement(1, 0, 0))

    def test_spec_pinned_generator_3_3(self):
        assert is_generator(validate(3, 3), OrderElement(-1, 0, 1))

    def test_negation_preserved(self):
        k = validate(1, 1)
        assert is_generator(k, OrderElement(1, 0, -1))


def _per_branch(a, b, x, y):
    k = validate(a, b)
    order = build(k)
    return {branch: generator_from_solution(k, x, y, branch, order) for branch in (-1, 1)}


class TestGeneratorFromSolution:
    # each branch of a solution gives its own generator, 6a*b2 = 9by + branch*x
    def test_worked_1_1(self):
        assert _per_branch(1, 1, 9, 1) == {
            -1: OrderElement(-1, 0, 1), 1: OrderElement(-1, 3, 1),
        }

    def test_worked_3_3(self):
        assert _per_branch(3, 3, 27, 1) == {
            -1: OrderElement(-1, 0, 1), 1: OrderElement(-1, 3, 1),
        }

    def test_worked_3_1_y0(self):
        k = validate(3, 1)
        assert _per_branch(3, 1, 18, 0) == {
            -1: OrderElement(1, -1, 0), 1: OrderElement(1, 1, 0),
        }
        assert d_beta(k, OrderElement(1, 1, 0)) in (54, -54)

    def test_no_integral_candidate_surfaces(self):
        # (36, 0) solves x^2 + 3*delta*y^2 = 1296 for (-12, -11), but
        # 6a = -72 divides neither 9by + x = 36 nor 9by - x = -36
        k = validate(-12, -11)
        order = build(k)
        assert 36 * 36 == 1296 == -108 * (-12) * k.g  # (36, 0) solves a target
        for branch in (-1, 1):
            with pytest.raises(NoIntegralCandidateError):
                generator_from_solution(k, 36, 0, branch, order)

    def test_case1_y_divisible_by_3_raises(self):
        # (1, 1) is CASE1: with 3 | y the linear factor 3*b1 + 2a*y is a
        # multiple of 3, never +-1, although 6a = 6 divides 9by - x = 27 - 3
        k = validate(1, 1)
        order = build(k)
        with pytest.raises(NoIntegralCandidateError):
            generator_from_solution(k, 3, 3, -1, order)


def test_matched_solution_explains_the_generator(monkeypatch, capsys):
    # b3 = y and 6a*b2 = 9by + branch*x on every FREE field of [-20, 20]^2,
    # and the one candidate is verified once
    calls = []
    real = freeness.is_generator
    monkeypatch.setattr(freeness, "is_generator", lambda *args: calls.append(1) or real(*args))
    free = 0
    for k in selfcheck.validated_pairs(20):
        rep = decide_freeness(k)
        if rep.verdict != FREE:
            continue
        free += 1
        x, y, branch = rep.matched
        _, b2, b3 = rep.generator.coords
        assert (b3, 6 * k.a * b2) == (y, 9 * k.b * y + branch * x), (k.a, k.b)
    assert free == len(calls) == 842
    monkeypatch.undo()
    assert cli.main(["analyze", "--a", "1", "--b", "471"]) == cli.EX_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["freeness"]["matched_solution"] == [4239, 1, -1]
    assert doc["freeness"]["generator"] == [-1, 0, 1]


class TestDecideFreeness:
    def test_worked_1_1(self):
        rep = decide_freeness(validate(1, 1))
        assert rep.verdict == FREE
        assert rep.generator == OrderElement(-1, 0, 1)
        assert rep.index_iw == 2

    def test_worked_6_1(self):
        rep = decide_freeness(validate(6, 1))
        assert rep.verdict == NOT_FREE
        assert rep.index_iw == 54
        assert rep.generator is None
        # emptiness certificates for both right-hand sides
        assert set(rep.checked_rhs) == {648, -648}
        for rhs, cert in rep.pell:
            assert cert.representatives == ()

    def test_worked_3_3(self):
        rep = decide_freeness(validate(3, 3))
        assert rep.verdict == FREE
        assert rep.index_iw == 54
        assert is_generator(validate(3, 3), rep.generator)

    def test_degenerate_pair_decided(self):
        # 3*delta is a negative perfect square here; the divisor route decides
        rep = decide_freeness(validate(-6, 2))
        assert rep.verdict == FREE
        assert is_generator(validate(-6, 2), rep.generator)

    def test_undecided_on_tiny_factor_limit(self):
        # degenerate pair whose targets contain primes 5 and 7
        k = validate(-210, -186)
        rep = decide_freeness(k, limit=4)
        assert rep.verdict == UNDECIDED
        assert rep.limit_hit == 4
        assert rep.generator is None
        # with the default limit the same field is decided
        assert decide_freeness(k).verdict in (FREE, NOT_FREE)

    def test_budget_fails_both_targets_or_neither(self):
        # the targets +-N of a field share |N| and the regime, and factorize
        # is deterministic, so a budget that cannot factor what one target
        # needs fails the other too: decide_freeness needs one UNDECIDED exit
        seen = {"raised": 0, "solved": 0}
        for a in range(-40, 41):
            for b in range(-40, 41):
                try:
                    k = validate(a, b)
                except ValidationError:
                    continue
                major = build(k).case.major
                base = freeness._RHS_FACTOR[major] * a * k.g
                d = 3 * k.delta
                for limit in (0, 4):
                    raised = []
                    for rhs in (base, -base):
                        problem = FormProblem(
                            d=d, n=rhs, modulus=6 * abs(a), ycoef=9 * b, require_y_not_div3=major == CASE1
                        )
                        try:
                            solve_with_conditions(problem, limit)
                            raised.append(False)
                        except FactorizationLimitError as exc:
                            assert exc.limit == limit and exc.n == abs(rhs), (a, b, limit, rhs)
                            raised.append(True)
                    assert raised[0] == raised[1], (a, b, limit)
                    seen["raised" if raised[0] else "solved"] += 1
        assert min(seen.values()) > 0, seen

    def test_report_invariants_on_grid(self):
        for a in range(-6, 7):
            for b in range(-6, 7):
                if a == 0 or b == 0:
                    continue
                try:
                    k = validate(a, b)
                except ValidationError:
                    continue
                rep = decide_freeness(k)
                if rep.verdict == FREE:
                    assert rep.generator is not None
                    assert abs(d_beta(k, rep.generator)) == rep.index_iw
                    # negation of a generator is again a generator
                    assert is_generator(k, OrderElement(*(-c for c in rep.generator.coords)))
                else:
                    assert rep.generator is None


class TestBruteForce:
    def test_worked_1_1(self):
        k = validate(1, 1)
        found = brute_force_generator(k, 2)
        assert found is not None and is_generator(k, found)

    def test_worked_6_1_none(self):
        assert brute_force_generator(validate(6, 1), 10) is None

    def test_worked_3_1(self):
        k = validate(3, 1)
        found = brute_force_generator(k, 2)
        assert found is not None and is_generator(k, found)

    def test_matches_naive_box(self):
        # the quadratic-scan shortcut must agree with the cubic box search
        rng = random.Random(3)
        done = 0
        while done < 15:
            a, b = rng.randint(-8, 8), rng.randint(-8, 8)
            if a == 0 or b == 0:
                continue
            try:
                k = validate(a, b)
            except ValidationError:
                continue
            bound = 4
            order = build(k)
            naive = None
            for c0 in range(-bound, bound + 1):
                for c1 in range(-bound, bound + 1):
                    for c2 in range(-bound, bound + 1):
                        if abs(d_beta(k, OrderElement(c0, c1, c2))) == order.index_iw:
                            naive = OrderElement(c0, c1, c2)
                            break
                    if naive:
                        break
                if naive:
                    break
            got = brute_force_generator(k, bound)
            assert (got is None) == (naive is None), (a, b)
            if got is not None:
                assert abs(d_beta(k, got)) == order.index_iw
            done += 1


def test_freeness_oracle_builds_one_order_per_field(build_calls):
    # brute_force_generator reads I_W off the case table, so the order the
    # suite builds for decide_freeness is the only one per field
    selfcheck.suite_freeness_oracle(random.Random(0), 20)
    assert len(build_calls) == len(set(build_calls)) == 1424


class TestOracleAgreement:
    def test_small_grid_both_directions(self):
        for a in range(-8, 9):
            for b in range(-8, 9):
                if a == 0 or b == 0:
                    continue
                try:
                    k = validate(a, b)
                except ValidationError:
                    continue
                rep = decide_freeness(k)
                found = brute_force_generator(k, 12)
                if found is not None:
                    assert rep.verdict != NOT_FREE, (a, b)
                if rep.verdict == NOT_FREE:
                    assert found is None, (a, b)


class TestIsGeneratorReferee:
    def test_integer_cross_check_matches_fraction_referee(self):
        # is_generator's structural route runs in integers; the Fraction
        # images under the basis must be integral, and span Z[alpha] exactly
        # for generators
        rng = random.Random(31)
        fields = [(1, 1), (3, 1), (3, 3), (-6, 2), (7, -2), (1, 2)]
        for a, b in fields:
            k = validate(a, b)
            order = build(k)
            betas = [OrderElement(-1, 0, 1), OrderElement(1, 1, 0)] + [
                OrderElement(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(40)
            ]
            for beta in betas:
                images = [apply_hopf(k, v, beta) for v in order.basis]
                assert all(x.denominator == 1 for img in images for x in img)
                spans = abs(det3(images)) == 1
                assert is_generator(k, beta, order) == spans, (a, b, beta)


def test_is_generator_checks_raise_under_optimize(run_optimized):
    # an adj entry off by one moves beta's images out of Z[alpha]; a doubled
    # adj column keeps them integral but no longer spanning Z[alpha]
    out = run_optimized(
        "import dataclasses\n"
        "from cubicha.assocorder import build\n"
        "from cubicha.cubicfield import OrderElement, validate\n"
        "from cubicha.freeness import is_generator\n"
        "k = validate(3, 3)\n"
        "order = build(k)\n"
        "beta = OrderElement(-1, 0, 1)\n"
        "assert is_generator(k, beta, order)\n"
        "rows = [list(r) for r in order.adj]\n"
        "off = [r[:] for r in rows]\n"
        "off[0][0] += 1\n"
        "doubled = [[x * (2 if j == 1 else 1) for j, x in enumerate(r)] for r in rows]\n"
        "for planted in (off, doubled):\n"
        "    broken = dataclasses.replace(order, adj=tuple(map(tuple, planted)))\n"
        "    try:\n"
        "        is_generator(k, beta, broken)\n"
        "    except AssertionError as exc:\n"
        "        print('raised:', exc)\n"
    )
    lines = out.splitlines()
    assert len(lines) == 2, out
    assert "out of Z[alpha]" in lines[0]
    assert "determinant criterion says True" in lines[1]


def test_generator_check_raises_under_optimize(run_optimized):
    # python -O strips assert statements; a matched solution whose generator
    # fails verification must still raise
    out = run_optimized(
        "from cubicha import freeness\n"
        "from cubicha.cubicfield import validate\n"
        "freeness.is_generator = lambda k, beta, order=None: False\n"
        "try:\n"
        "    freeness.decide_freeness(validate(1, 1))\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    assert out.startswith("raised:") and "is not a generator" in out, out
