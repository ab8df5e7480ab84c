"""Exact matrices over Z and Q.

Small fixed-size problems only: the tall matrices reduced here are 9x3 and
every square matrix is 3x3 apart from the tracked 9x9 transform.  Everything
is exact; no floating point appears anywhere.

``reduce_tall`` brings an m x n integer or rational matrix (m >= n, full
column rank) to an upper-triangular n x n block D stacked on zeros, using only
the three determinant-preserving-up-to-sign row operations (swap, add an
integer multiple of another row, negate), and returns the unimodular transform
U with U*M = [D; 0].  Denominators are cleared first by their lcm c and
restored at the end, so the integer core is a Hermite normal form computation
(Cohen, GTM 138, section 2.4); an integer matrix comes back integer.

The associated order's certificates run in integers.  Its reduced matrix R
is integral, so R^-1 is carried as adj(R) and det(R), and "X * Y^-1 is
integral" becomes the congruence X * adj(Y) = 0 mod det(Y)
(``int_lattice_equal3``, ``divisible``).  The Fraction routines
(``inverse3``, ``lattice_equal3``, ``rat_matmul``) are the independent
referee that the test suite and ``cubicha verify`` hold the integer route
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import lcm
from .errors import RankError, SingularMatrixError


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def to_rat(self) -> "RatMatrix":
        return RatMatrix.from_rows(self.entries)


@dataclass(frozen=True)
class RatMatrix:
    """Exact rational matrix; every entry a Fraction (lowest terms, positive
    denominator -- Fraction guarantees both)."""

    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @staticmethod
    def from_rows(rows) -> "RatMatrix":
        return RatMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix.from_rows(IntMatrix.identity(n).entries)

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)


@dataclass(frozen=True)
class ReductionResult:
    """U * M = [d; 0] with U unimodular; c is the denominator scale cleared
    from M before the integer reduction."""

    d: IntMatrix | RatMatrix
    u: IntMatrix
    c: int


def int_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    assert a.cols == b.rows
    bt = list(zip(*b.entries))
    return IntMatrix(
        tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
            for row in a.entries
        )
    )


def rat_matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    assert a.cols == b.rows
    bt = list(zip(*b.entries))
    return RatMatrix(
        tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
            for row in a.entries
        )
    )


def det_int(m: IntMatrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = m.rows
    assert n == m.cols
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det3(m: IntMatrix | RatMatrix) -> int | Fraction:
    """Determinant of a 3x3 matrix, in the entries' own arithmetic."""
    if m.rows != 3 or m.cols != 3:
        raise ValueError(f"det3 needs a 3x3 matrix, got {m.rows}x{m.cols}")
    ((a, b, c), (d, e, f), (g, h, i)) = m.entries
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _adjugate_entries(m) -> tuple[tuple, ...]:
    # transposed cofactors: m * adj(m) = det(m) * I
    ((a, b, c), (d, e, f), (g, h, i)) = m.entries
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def adjugate3(m: IntMatrix) -> IntMatrix:
    """adj(m) = det(m) * m^-1, integral for an integer matrix."""
    return IntMatrix(_adjugate_entries(m))


def inverse3(m: RatMatrix) -> RatMatrix:
    det = det3(m)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    return RatMatrix(tuple(tuple(x / det for x in row) for row in _adjugate_entries(m)))


def divisible(m: IntMatrix, n: int) -> bool:
    """Whether every entry of m is a multiple of n, i.e. m / n is integral."""
    return all(x % n == 0 for row in m.entries for x in row)


def _row_addmul(a, u, dst, src, q):
    # dst += q * src, applied to both the working matrix and the transform
    a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]


def reduce_tall(m: IntMatrix | RatMatrix) -> ReductionResult:
    """Reduce a tall full-column-rank matrix to [D; 0] by unimodular rows.

    D is canonical Hermite-normal shape after rescaling: positive pivots on
    the diagonal, entries above each pivot reduced into [0, pivot).  Pivots
    are chosen as the least-absolute-value nonzero entry of the working
    column to bound growth.  D is an IntMatrix (and c = 1) when m is one.
    """
    rows, cols = m.rows, m.cols
    if rows < cols:
        raise ValueError("reduce_tall requires rows >= cols")
    c = 1
    for row in m.entries:
        for x in row:
            c = lcm(c, x.denominator)
    a = [[int(x * c) for x in row] for row in m.entries]
    u = [list(row) for row in IntMatrix.identity(rows).entries]

    for col in range(cols):
        while True:
            live = [r for r in range(col, rows) if a[r][col] != 0]
            if not live:
                raise RankError(f"no pivot available in column {col}")
            piv = min(live, key=lambda r: abs(a[r][col]))
            if len(live) == 1:
                break
            for r in live:
                if r != piv:
                    q = a[r][col] // a[piv][col]
                    if q:
                        _row_addmul(a, u, r, piv, -q)
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
            u[piv], u[col] = u[col], u[piv]
        if a[col][col] < 0:
            a[col] = [-x for x in a[col]]
            u[col] = [-x for x in u[col]]
        for r in range(col):
            q = a[r][col] // a[col][col]
            if q:
                _row_addmul(a, u, r, col, -q)

    if isinstance(m, IntMatrix):
        d = IntMatrix(tuple(tuple(a[r]) for r in range(cols)))
    else:
        d = RatMatrix(
            tuple(tuple(Fraction(x, c) for x in a[r]) for r in range(cols))
        )
    return ReductionResult(d, IntMatrix.from_rows(u), c)


def lattice_equal3(a: RatMatrix, b: RatMatrix) -> bool:
    """Whether two nonsingular 3x3 reduced matrices cut out the same lattice,
    i.e. a * b^-1 is an integer matrix of determinant +-1."""
    p = rat_matmul(a, inverse3(b))
    return p.is_integral() and abs(det3(p)) == 1


def int_lattice_equal3(a: IntMatrix, b: IntMatrix) -> bool:
    """``lattice_equal3`` for integer matrices, in integers: a * b^-1 is
    integral iff a * adj(b) = 0 mod det(b), and then its determinant is +-1
    iff |det a| = |det b|."""
    det_b = det3(b)
    if det_b == 0:
        raise SingularMatrixError("matrix is singular")
    return abs(det3(a)) == abs(det_b) and divisible(int_matmul(a, adjugate3(b)), det_b)
