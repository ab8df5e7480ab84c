"""Associated order of Z[alpha] inside the Hopf algebra: case analysis,
closed-form reduced matrices, the module index, and a certified basis.

The 2- and 3-adic valuations of (a, b) split the computation into three major
cases with a binary 2-adic refinement:

    CASE1: 3 does not divide a           index 2g
    CASE2: 3 | a and v3(a) <= v3(b)      index 18g
    CASE3: v3(a) > v3(b)  (forces 3|a)   index 54g

For each of the six (major, minor) combinations a literal 3x3 reduced matrix
R is known in closed form; it is integral with det R = I_W > 0, and the basis
is read off the columns of R^-1 = adj(R) / det R.  ``build`` always
recomputes the generic reduction of the 9x3 action matrix as well and
certifies that both generate the same lattice, so every returned
AssociatedOrder carries a per-input proof rather than trusting the case
table.  Every certificate runs in integers on R and adj(R), as a congruence
modulo det R (Cohen, GTM 138, section 2.4); the rational views ``reduced``
and ``basis`` are made only when read.  ``in_order`` is the Fraction
membership test the test suite referees the integer route with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .arith import valuation
from .cubicfield import HopfElement, TrinomialCubic, hopf_mul_coords
from .errors import LatticeMismatchError
from .exactlinalg import (
    IntMatrix,
    RatMatrix,
    adjugate3,
    det3,
    divisible,
    int_lattice_equal3,
    int_matmul,
    reduce_tall,
)
from . import cubicfield

CASE1 = "CASE1"
CASE2 = "CASE2"
CASE3 = "CASE3"
V2GE = "V2GE"
V2LT = "V2LT"

_INDEX_FACTOR = {CASE1: 2, CASE2: 18, CASE3: 54}


@dataclass(frozen=True)
class CaseLabel:
    major: str
    minor: str

    def __str__(self) -> str:
        return f"{self.major}/{self.minor}"


@dataclass(frozen=True)
class AssociatedOrder:
    """The order as its integral reduced matrix R (det R = index_iw) and
    adj(R), whose columns are index_iw times the basis vectors.  ``reduced``
    and ``basis`` are the rational views of the same data."""

    case: CaseLabel
    index_iw: int
    int_reduced: IntMatrix
    adj: IntMatrix

    @property
    def reduced(self) -> RatMatrix:
        return self.int_reduced.to_rat()

    @property
    def basis(self) -> tuple[HopfElement, HopfElement, HopfElement]:
        d = self.index_iw
        cols = zip(*self.adj.entries)
        return tuple(HopfElement(*(Fraction(x, d) for x in col)) for col in cols)


def classify(k: TrinomialCubic) -> CaseLabel:
    v3a, v3b = valuation(k.a, 3), valuation(k.b, 3)
    if v3a == 0:
        major = CASE1
    elif v3a <= v3b:
        major = CASE2
    else:
        major = CASE3
    minor = V2GE if valuation(k.a, 2) >= valuation(k.b, 2) else V2LT
    return CaseLabel(major, minor)


def index_of_case(case: CaseLabel, g: int) -> int:
    return _INDEX_FACTOR[case.major] * g


def h_closed_form(k: TrinomialCubic) -> int:
    """gcd(2a, 9b) (CASE1) resp. gcd(6a, 9b) (3 | a), via the valuation table.

    The closed form is cross-checked against the directly computed gcd; a
    mismatch would mean the table is being applied outside its hypotheses.
    """
    case = classify(k)
    g = k.g
    if case.major == CASE1:
        h = g if case.minor == V2GE else 2 * g
        direct = gcd(2 * k.a, 9 * k.b)
    else:
        v3_le = valuation(k.a, 3) <= valuation(k.b, 3)
        if case.minor == V2GE:
            h = 3 * g if v3_le else 9 * g
        else:
            h = 6 * g if v3_le else 18 * g
        direct = gcd(6 * k.a, 9 * k.b)
    if h != direct:
        raise AssertionError(f"closed-form gcd {h} != direct gcd {direct} for {k}")
    return h


def closed_form_reduced(k: TrinomialCubic) -> RatMatrix:
    """The literal reduced matrix for the classified case."""
    return _closed_form(k, classify(k)).to_rat()


def _closed_form(k: TrinomialCubic, case: CaseLabel) -> IntMatrix:
    g = k.g
    table = {
        (CASE1, V2GE): [[1, 0, 0], [0, g, 1], [0, 0, 2]],
        (CASE1, V2LT): [[1, 0, 0], [0, 2 * g, 0], [0, 0, 1]],
        (CASE2, V2GE): [[1, 0, 2], [0, 3 * g, 3], [0, 0, 6]],
        (CASE2, V2LT): [[1, 0, 2], [0, 6 * g, 0], [0, 0, 3]],
        (CASE3, V2GE): [[1, 0, 2], [0, 9 * g, 3], [0, 0, 6]],
        (CASE3, V2LT): [[1, 0, 2], [0, 18 * g, 0], [0, 0, 3]],
    }
    return IntMatrix.from_rows(table[(case.major, case.minor)])


def in_order(reduced: RatMatrix, h: HopfElement) -> bool:
    """Membership test: h lies in the order cut out by the reduced matrix
    iff reduced * h is an integer vector."""
    for row in reduced.entries:
        if sum(x * y for x, y in zip(row, h.coords)).denominator != 1:
            return False
    return True


def build(k: TrinomialCubic) -> AssociatedOrder:
    """Assemble the associated order with all its certificates.

    Computes the generic reduction of the action matrix alongside the closed
    form and demands lattice equality (LatticeMismatchError otherwise) and
    that det R is the index the case table gives; then checks that the
    basis stabilizes B, spans a ring and contains the identity.
    """
    case = classify(k)
    reduced = _closed_form(k, case)
    generic = reduce_tall(cubicfield.action_matrix(k))
    if not int_lattice_equal3(reduced, generic):
        raise LatticeMismatchError(
            f"closed-form and generic reduced matrices disagree for (a, b) = "
            f"({k.a}, {k.b})"
        )
    index = det3(reduced)
    expected = index_of_case(case, k.g)
    if index != expected:
        raise AssertionError(
            f"det = {index} but the index table says {expected} for {k}"
        )
    order = AssociatedOrder(case, index, reduced, adjugate3(reduced))
    _verify_certificates(k, order)
    return order


def _verify_certificates(k: TrinomialCubic, order: AssociatedOrder) -> None:
    d, adj = order.index_iw, order.adj
    # basis vectors must map all of B into Z[alpha]: row block j of
    # action * adj holds the images of alpha^j under the adj columns
    if not divisible(int_matmul(cubicfield.action_matrix(k), adj), d):
        raise AssertionError(f"a basis vector moves B out of Z[alpha] for {k}")
    # ring closure: pairwise products stay in the lattice the basis spans,
    # i.e. R * (adj_i * adj_j) = 0 mod d^2
    cols = list(zip(*adj.entries))
    products = [hopf_mul_coords(k.delta, u, v) for u in cols for v in cols]
    if not divisible(int_matmul(order.int_reduced, IntMatrix(tuple(zip(*products)))), d * d):
        raise AssertionError(f"a product of basis vectors escapes the order for {k}")
    # the identity operator is a basis vector in every case table
    if cols[0] != (d, 0, 0):
        raise AssertionError(f"the first basis vector is not the identity for {k}")


def basis_matrix(order: AssociatedOrder) -> RatMatrix:
    """Basis vectors as columns (this is exactly reduced^-1)."""
    return RatMatrix.from_rows(
        [[v.coords[r] for v in order.basis] for r in range(3)]
    )
