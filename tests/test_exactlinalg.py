import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from cubicha.cubicfield import action_matrix, validate
from cubicha.errors import RankError, SingularMatrixError, ValidationError
from cubicha.exactlinalg import (
    adjugate_rows,
    det3,
    inverse3,
    lattice_equal3,
    rat_matmul,
    reduce_tall,
)
from cubicha.selfcheck import minors_gcd

I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def is_integral(rows) -> bool:
    return all(x.denominator == 1 for row in rows for x in row)


def gauss_det(m) -> Fraction:
    # independent oracle: plain fraction Gaussian elimination
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


class TestReduceTall:
    def test_identity(self):
        assert reduce_tall(I3) == I3

    def test_worked_instance_1_1(self):
        d = reduce_tall(action_matrix(validate(1, 1)))
        assert d == ((1, 0, 0), (0, 1, 1), (0, 0, 2))

    def test_worked_instance_3_1_det(self):
        d = reduce_tall(action_matrix(validate(3, 1)))
        assert abs(det3(d)) == 54

    def test_block_spans_the_row_lattice(self):
        # referee: D spans the rows of M iff every row of M is an integer
        # combination of the rows of D (M * D^-1 integral) and the indices
        # agree (|det D| = gcd of the 3x3 minors of M)
        rng = random.Random(3)
        checked = 0
        for rows_count, bound in [(7, 9)] * 40 + [(6, 20)] * 40:
            m = tuple(
                tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(rows_count)
            )
            try:
                d = reduce_tall(m)
            except RankError:
                continue
            assert is_integral(rat_matmul(m, inverse3(d)))
            minors = 0
            for rows in combinations(m, 3):
                minors = gcd(minors, det3(rows))
            assert abs(det3(d)) == minors
            checked += 1
        assert checked > 60

    def test_canonical_shape(self):
        rng = random.Random(5)
        for _ in range(40):
            m = [[rng.randint(-20, 20) for _ in range(3)] for _ in range(6)]
            try:
                d = reduce_tall(m)
            except RankError:
                continue
            for i in range(3):
                assert d[i][i] > 0
                for j in range(i):
                    assert d[j][j] != 0
                for r in range(i):
                    assert 0 <= d[r][i] < d[i][i]
                for r in range(i + 1, 3):
                    assert d[r][i] == 0

    def test_det_invariant_under_row_shuffle(self):
        # a permuted stack is another valid reduction path of the same lattice
        rng = random.Random(9)
        for a, b in [(1, 1), (3, 1), (5, 6), (-4, 2)]:
            m = action_matrix(validate(a, b))
            d1 = reduce_tall(m)
            rows = list(m)
            rng.shuffle(rows)
            d2 = reduce_tall(tuple(rows))
            assert abs(det3(d1)) == abs(det3(d2))
            assert lattice_equal3(d1, d2)

    def test_rank_deficient_rejected(self):
        m = ((1, 2, 3), (2, 4, 6), (0, 0, 0), (1, 2, 3))
        with pytest.raises(RankError):
            reduce_tall(m)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            reduce_tall(((1, 2, 3), (0, 1, 2)))


class TestDet3Inverse3:
    def test_det_examples(self):
        assert det3(I3) == 1
        for g in (1, 2, 5):
            assert det3(((1, 0, 0), (0, g, 0), (0, 0, 2))) == 2 * g

    def test_det_m_beta_worked_instance(self):
        # coordinate matrix of the action on beta = -1 + alpha^2 for (a, b) = (1, 1)
        from cubicha.cubicfield import OrderElement
        from cubicha.freeness import m_beta

        m = m_beta(validate(1, 1), OrderElement(-1, 0, 1))
        assert det3(m) == -2
        assert gauss_det(m) == -2

    def test_det_wrong_shape(self):
        with pytest.raises(ValueError):
            det3(((1, 2), (3, 4)))

    def test_inverse_examples(self):
        assert inverse3(I3) == I3
        assert inverse3(((1, 0, 0), (0, 2, 0), (0, 0, 2))) == (
            (1, 0, 0), (0, Fraction(1, 2), 0), (0, 0, Fraction(1, 2))
        )
        m = ((1, 0, 0), (0, 1, 1), (0, 0, 2))
        assert inverse3(m) == ((1, 0, 0), (0, 1, Fraction(-1, 2)), (0, 0, Fraction(1, 2)))
        assert all(type(x) is Fraction for row in inverse3(m) for x in row)

    def test_inverse_random_roundtrip(self):
        rng = random.Random(1)
        for _ in range(60):
            m = tuple(
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
                for _ in range(3)
            )
            if det3(m) == 0:
                continue
            assert rat_matmul(m, inverse3(m)) == I3

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            inverse3(((1, 2, 3), (2, 4, 6), (0, 0, 1)))


class TestLatticeEqual:
    def test_same_lattice_different_form(self):
        a = ((1, 0, 0), (0, 1, 1), (0, 0, 2))
        # add row multiples: same lattice, different matrix
        b = ((1, 0, 0), (0, 1, 3), (0, 0, 2))
        assert lattice_equal3(a, b)

    def test_sublattice_rejected(self):
        a = ((1, 0, 0), (0, 1, 0), (0, 0, 2))
        b = ((1, 0, 0), (0, 1, 0), (0, 0, 4))
        assert not lattice_equal3(a, b)
        assert not lattice_equal3(b, a)


class TestIntegerRoutes:
    """The integer routes the order certificates run on, refereed by the
    Fraction routines."""

    def test_reduce_tall_integer_input_stays_integer(self):
        for a, b in [(1, 1), (3, 1), (5, 6), (-4, 2), (17, 1)]:
            m = action_matrix(validate(a, b))
            d = reduce_tall(m)
            assert type(d) is tuple and all(type(row) is tuple for row in d)
            assert all(type(x) is int for row in d for x in row)
            assert is_integral(rat_matmul(m, inverse3(d)))

    def test_adjugate(self):
        rng = random.Random(17)
        for _ in range(60):
            m = tuple(tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3))
            det = det3(m)
            assert type(det) is int and det == gauss_det(m)
            assert rat_matmul(m, adjugate_rows(m)) == tuple(
                tuple(det * (i == j) for j in range(3)) for i in range(3)
            )


class TestMinorsGcd:
    """The gcd of all the 3x3 minors, the referee of the three that build
    certifies the associated order's index with, refereed in turn by the
    Hermite reduction: it must equal |det reduce_tall(M)|."""

    def test_equals_reduce_tall_index_on_fields(self):
        checked = 0
        for a in range(-12, 13):
            for b in range(-12, 13):
                try:
                    k = validate(a, b)
                except ValidationError:
                    continue
                m = action_matrix(k)
                index = abs(det3(reduce_tall(m)))
                assert minors_gcd(m) == index, (a, b)
                checked += 1
        assert checked > 400

    def test_equals_reduce_tall_index_on_random_tall_matrices(self):
        # half the draws are a random 9x3 matrix times a random 3x3 one, so
        # that the index is often far from 1
        rng = random.Random(23)
        checked = 0
        for trial in range(300):
            rows = [[rng.randint(-12, 12) for _ in range(3)] for _ in range(9)]
            for r in rng.sample(range(9), rng.randint(0, 4)):
                rows[r] = [0, 0, 0]
            if trial % 2:
                t = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
                rows = [[sum(row[i] * t[i][j] for i in range(3)) for j in range(3)] for row in rows]
            try:
                d = reduce_tall(rows)
            except RankError:
                assert minors_gcd(rows) == 0
                continue
            assert minors_gcd(rows) == abs(det3(d)), rows
            checked += 1
        assert checked > 250

    def test_rank_deficient_gives_zero(self):
        assert minors_gcd(((1, 2, 3), (2, 4, 6), (0, 0, 0), (1, 2, 3))) == 0
