"""Exact matrices over Z and Q.

Small fixed-size problems only: the tall matrices reduced here are 9x3 and
every square matrix is 3x3.  Everything is exact; no floating point appears
anywhere.

``reduce_tall`` brings an m x n integer matrix (m >= n, full column rank) to
an upper-triangular n x n block D stacked on zeros, using only the three
determinant-preserving-up-to-sign row operations (swap, add an integer
multiple of another row, negate), and returns D: an integer Hermite normal
form computation (Cohen, GTM 138, section 2.4).  D spans the same lattice as
the rows of the input.

The associated order's certificates run in straight-line integers on tuples
of rows.  ``minors_gcd``, the gcd of the 3x3 minors of a tall matrix, is the
index in Z^3 of the lattice its rows span, the |det D| that ``reduce_tall``
reaches by row operations.  ``reduce_tall`` and the Fraction routines
(``inverse3``, ``lattice_equal3``, ``rat_matmul``) are the independent
referee that the test suite and ``cubicha verify`` hold the integers against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

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


def rat_matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if a.cols != b.rows:
        raise AssertionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bt = list(zip(*b.entries))
    return RatMatrix(
        tuple(
            tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
            for row in a.entries
        )
    )


def det_rows(rows) -> int | Fraction:
    """Determinant of the 3x3 matrix with these three rows."""
    ((a, b, c), (d, e, f), (g, h, i)) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adjugate_rows(rows) -> tuple[tuple, ...]:
    """adj(m) = det(m) * m^-1 as rows, integral for an integer matrix."""
    ((a, b, c), (d, e, f), (g, h, i)) = rows
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def divides_product(n: int, rows, cols) -> bool:
    """Whether n divides every entry of rows * C, C the matrix with columns
    ``cols``; rows and columns have length 3."""
    return not any((r0 * c0 + r1 * c1 + r2 * c2) % n for r0, r1, r2 in rows for c0, c1, c2 in cols)


def det3(m: IntMatrix | RatMatrix) -> int | Fraction:
    """Determinant of a 3x3 matrix, in the entries' own arithmetic."""
    if m.rows != 3 or m.cols != 3:
        raise ValueError(f"det3 needs a 3x3 matrix, got {m.rows}x{m.cols}")
    return det_rows(m.entries)


def inverse3(m: RatMatrix) -> RatMatrix:
    det = det3(m)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    return RatMatrix(tuple(tuple(x / det for x in row) for row in adjugate_rows(m.entries)))


def minors_gcd(rows, stop: int = 1) -> int:
    """gcd of the 3x3 minors of integer rows of length 3: the index in Z^3 of
    the lattice they span, 0 below rank 3.  The scan ends once the gcd equals
    ``stop``, below which it cannot fall when every minor is a multiple of
    ``stop`` (always so for the default 1)."""
    g = 0
    for trio in combinations([r for r in rows if any(r)], 3):
        g = gcd(g, det_rows(trio))
        if g == stop:
            break
    return g


def reduce_tall(m: IntMatrix) -> IntMatrix:
    """Reduce a tall full-column-rank integer matrix to [D; 0] by unimodular
    row operations and return D.

    D is in Hermite normal form: positive pivots on the diagonal, entries
    above each pivot reduced into [0, pivot).  Pivots are chosen as the
    least-absolute-value nonzero entry of the working column to bound growth.
    """
    rows, cols = m.rows, m.cols
    if rows < cols:
        raise ValueError("reduce_tall requires rows >= cols")
    a = [list(row) for row in m.entries]

    for col in range(cols):
        while True:
            live = [r for r in range(col, rows) if a[r][col] != 0]
            if not live:
                raise RankError(f"no pivot available in column {col}")
            piv = min(live, key=lambda r: abs(a[r][col]))
            if len(live) == 1:
                break
            p = a[piv]
            for r in live:
                if r != piv:
                    q = a[r][col] // p[col]
                    if q:
                        a[r] = [x - q * y for x, y in zip(a[r], p)]
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
        if a[col][col] < 0:
            a[col] = [-x for x in a[col]]
        for r in range(col):
            q = a[r][col] // a[col][col]
            if q:
                a[r] = [x - q * y for x, y in zip(a[r], a[col])]

    return IntMatrix(tuple(tuple(a[r]) for r in range(cols)))


def lattice_equal3(a: RatMatrix, b: RatMatrix) -> bool:
    """Whether two nonsingular 3x3 reduced matrices cut out the same lattice,
    i.e. a * b^-1 is an integer matrix of determinant +-1."""
    p = rat_matmul(a, inverse3(b))
    return p.is_integral() and abs(det3(p)) == 1
