"""Associated order of Z[alpha] inside the Hopf algebra: case analysis,
closed-form reduced matrices, the module index, and a certified basis.

The 2- and 3-adic valuations of (a, b) split the computation into three major
cases with a binary 2-adic refinement:

    CASE1: 3 does not divide a           index 2g
    CASE2: 3 | a and v3(a) <= v3(b)      index 18g
    CASE3: v3(a) > v3(b)  (forces 3|a)   index 54g

For each of the six (major, minor) combinations a literal 3x3 reduced matrix
R is known in closed form; it is integral with det R = I_W > 0, and the basis
is read off the columns of R^-1 = adj(R) / det R.  ``build`` proves per input
that R cuts out the associated order A_H = {h : M h integral}, M the 9x3
action matrix: M * adj(R) = 0 mod det R puts the lattice of R inside A_H.
The gcd of all the 3x3 minors of M is [A_H : Z^3] (Cohen, GTM 138, section
2.4), so with that containment every minor is a multiple of det R, and any
set of minors whose gcd is det R proves A_H equal to the lattice of R.
Three minors of M always suffice: rows (0, 4, 8) give -54b, rows (0, 3, 6)
give -8a^3 and rows (0, 4, 5) give 18a, and for all a, b != 0

    gcd(54b, 8a^3, 18a) = I_W = 2g, 18g or 54g, by the case above.

Prime by prime, with v_p(g) = min(v_p(a), v_p(b)): at p >= 5 its valuation
is min(v_p(b), 3v_p(a), v_p(a)) = v_p(g); at 2 it is
1 + min(v2(b), 2 + 3v2(a), v2(a)) = 1 + v2(g); at 3 it is
min(3 + v3(b), 3v3(a), 2 + v3(a)), which is 0 = v3(2g) in CASE1, where
v3(a) = 0, then 3 = v3(18g) when v3(a) = 1 <= v3(b), and
2 + v3(a) = v3(18g) when 2 <= v3(a) <= v3(b), and 3 + v3(b) = v3(54g)
in CASE3, where v3(a) >= v3(b) + 1.

``build`` also proves that the basis spans a ring (R times each product of
two basis columns is 0 mod d^2, d = det R), that the identity is its
first vector, and that the given adj is the adjugate of R (R * adj = d * I),
so that its columns span the lattice of R and not a sublattice of it.
Those checks, and containment, are congruences or identities, and they are
proved once per residue class rather than once per field.  Containment
reads M only modulo d, ring closure reads the products only modulo d^2, and
the last two checks read R, adj and d alone.  The entries of M are integer
polynomials in a and b, and those of the products (hopf_mul_coords) in
delta, so their values modulo d and d^2 depend only on a mod d, b mod d and
delta mod d^2.  ``_congruence_failure`` therefore decides all four from
the order's own R, adj(R) and d and those three residues, in a bounded
cache: the 1,424 fields of [-20,20]^2, scanned row by row with the cache
emptied before each row, pose 530 classes.  The key holds the order as
given, so an order that is not the closed form is checked as it stands.
lru_cache keeps only returned values, never a raise, and the helper returns
its failure for _verify_certificates to raise with the field's name.  The
equality certificate, the gcd of three minors, is not a function of these
residues, and stays per field.

Every matrix is a tuple of integer rows and every certificate a congruence
on them in straight-line integers; no rational appears here.  The Fraction
routes that referee these integers (the basis view, membership, the basis
matrix, the gcd closed form) and the per-field form of the certificates
live in ``selfcheck``.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .arith import valuation
from .cubicfield import TrinomialCubic, hopf_mul_coords
from .errors import LatticeMismatchError
from .exactlinalg import adjugate_rows, det3, divides_product
from .record import Record
from . import cubicfield

CASE1 = "CASE1"
CASE2 = "CASE2"
CASE3 = "CASE3"
V2GE = "V2GE"
V2LT = "V2LT"

_INDEX_FACTOR = {CASE1: 2, CASE2: 18, CASE3: 54}

# the reduced matrix R of each case at g = 1; its middle pivot scales with g
_REDUCED = {
    (CASE1, V2GE): ((1, 0, 0), (0, 1, 1), (0, 0, 2)),
    (CASE1, V2LT): ((1, 0, 0), (0, 2, 0), (0, 0, 1)),
    (CASE2, V2GE): ((1, 0, 2), (0, 3, 3), (0, 0, 6)),
    (CASE2, V2LT): ((1, 0, 2), (0, 6, 0), (0, 0, 3)),
    (CASE3, V2GE): ((1, 0, 2), (0, 9, 3), (0, 0, 6)),
    (CASE3, V2LT): ((1, 0, 2), (0, 18, 0), (0, 0, 3)),
}


class CaseLabel(Record):
    __slots__ = ("major", "minor")

    def __init__(self, major: str, minor: str):
        self.major = major
        self.minor = minor

    def __str__(self) -> str:
        return f"{self.major}/{self.minor}"


class AssociatedOrder(Record):
    """The order as the integer rows of its reduced matrix R (det R =
    index_iw) and of adj(R), whose columns are index_iw times the basis
    vectors; analyze renders the basis from the integers."""

    __slots__ = ("case", "index_iw", "reduced", "adj")

    def __init__(
        self,
        case: CaseLabel,
        index_iw: int,
        reduced: tuple[tuple[int, int, int], ...],
        adj: tuple[tuple[int, int, int], ...],
    ):
        self.case = case
        self.index_iw = index_iw
        self.reduced = reduced
        self.adj = adj


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


# the rows of the action matrix whose minors are -54b, -8a^3 and 18a
_INDEX_MINORS = ((0, 4, 8), (0, 3, 6), (0, 4, 5))


def index_minors_gcd(rows) -> int:
    """The gcd of the three minors of the action matrix ``rows`` that make
    its index for every a, b != 0 (see the module docstring).

    Straight-line, as it runs once per field: on Python 3.10 and 3.11 every
    comprehension is a frame of its own, and 3.12 inlines list
    comprehensions but not generators."""
    (i0, i1, i2), (j0, j1, j2), (k0, k1, k2) = _INDEX_MINORS
    return gcd(
        det3((rows[i0], rows[i1], rows[i2])),
        det3((rows[j0], rows[j1], rows[j2])),
        det3((rows[k0], rows[k1], rows[k2])),
    )


def closed_form_reduced(k: TrinomialCubic, case: CaseLabel) -> tuple[tuple[int, int, int], ...]:
    """The rows of the literal reduced matrix R for the case."""
    top, (r10, r11, r12), bottom = _REDUCED[case.major, case.minor]
    return (top, (r10, r11 * k.g, r12), bottom)


def build(k: TrinomialCubic) -> AssociatedOrder:
    """Assemble the associated order with all its certificates.

    Demands that det R of the closed form is the index the case table gives,
    then that R cuts out the associated order (LatticeMismatchError
    otherwise), spans a ring and contains the identity.
    """
    case = classify(k)
    reduced = closed_form_reduced(k, case)
    index = det3(reduced)
    expected = index_of_case(case, k.g)
    if index != expected:
        raise AssertionError(
            f"det = {index} but the index table says {expected} for {k}"
        )
    order = AssociatedOrder(case, index, reduced, adjugate_rows(reduced))
    _verify_certificates(k, order)
    return order


# what _congruence_failure returns when containment fails
_MOVES_B = "a basis vector moves B out of Z[alpha]"


def _verify_certificates(k: TrinomialCubic, order: AssociatedOrder) -> None:
    d = order.index_iw
    failure = _congruence_failure(order.reduced, order.adj, d, k.a % d, k.b % d, k.delta % (d * d))
    # containment is the premise of the equality certificate, so it fails first
    if failure == _MOVES_B:
        raise AssertionError(f"{failure} for {k}")
    # equality: with containment every 3x3 minor of M is a multiple of d, so
    # three of them whose gcd is d prove the index of A_H to be d
    if index_minors_gcd(cubicfield.action_matrix(k)) != d:
        raise LatticeMismatchError(
            f"closed-form and generic reduced matrices disagree for (a, b) = "
            f"({k.a}, {k.b})"
        )
    if failure is not None:
        raise AssertionError(f"{failure} for {k}")


@lru_cache(maxsize=128)
def _congruence_failure(reduced, adj, d: int, a: int, b: int, delta: int) -> str | None:
    """The first congruence certificate that the order with rows ``reduced``
    and ``adj`` and index d fails, given a, b mod d and delta mod d^2, or
    None (see the module docstring)."""
    cols = tuple(zip(*adj))
    # containment: the basis vectors map all of B into Z[alpha]; row block j
    # of M * adj(R) holds the images of alpha^j under the adj columns
    if not divides_product(d, cubicfield.action_rows(a, b), cols):
        return _MOVES_B
    # ring closure: pairwise products stay in the lattice the basis spans,
    # i.e. R * (adj_i * adj_j) = 0 mod d^2; W is commutative, so one order
    # of each pair is enough
    products = [hopf_mul_coords(delta, u, v) for i, u in enumerate(cols) for v in cols[i:]]
    if not divides_product(d * d, reduced, products):
        return "a product of basis vectors escapes the order"
    # the identity operator is a basis vector in every case table
    if cols[0] != (d, 0, 0):
        return "the first basis vector is not the identity"
    # adj is the adjugate of R, R * adj = d * I, so the basis spans the
    # lattice of R and not a sublattice of it
    (r0, r1, r2), (s0, s1, s2), (t0, t1, t2) = reduced
    (u0, u1, u2), (v0, v1, v2), (w0, w1, w2) = cols
    if (
        r0 * u0 + r1 * u1 + r2 * u2 != d
        or r0 * v0 + r1 * v1 + r2 * v2
        or r0 * w0 + r1 * w1 + r2 * w2
        or s0 * u0 + s1 * u1 + s2 * u2
        or s0 * v0 + s1 * v1 + s2 * v2 != d
        or s0 * w0 + s1 * w1 + s2 * w2
        or t0 * u0 + t1 * u1 + t2 * u2
        or t0 * v0 + t1 * v1 + t2 * v2
        or t0 * w0 + t1 * w1 + t2 * w2 != d
    ):
        return "the adjugate does not invert the reduced matrix"
    return None
