"""Exact matrices over Z and Q, each a tuple of row tuples.

Small fixed-size problems only: the tall matrices reduced here are 9x3 and
every square matrix is 3x3.  Everything is exact; no floating point appears
anywhere.

The associated order's certificates run in straight-line integers on rows:
``det3``, ``adjugate_rows`` and ``divides_product``.

``reduce_tall`` brings an m x n integer matrix (m >= n, full column rank) to
an upper-triangular n x n block D stacked on zeros, using only the three
determinant-preserving-up-to-sign row operations (swap, add an integer
multiple of another row, negate), and returns D: an integer Hermite normal
form computation (Cohen, GTM 138, section 2.4).  D spans the same lattice as
the rows of the input, and |det D| is the gcd of its minors.  It and the
Fraction routines (``inverse3``, ``lattice_equal3``, ``rat_matmul``) are the
independent referee that the test suite and ``cubicha verify`` hold the
integers against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import RankError, SingularMatrixError

if TYPE_CHECKING:
    from fractions import Fraction


def rat_matmul(a, b) -> tuple[tuple, ...]:
    """The product of two matrices given as rows, in the entries' own
    arithmetic."""
    if len(a[0]) != len(b):
        raise AssertionError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def det3(rows) -> int | Fraction:
    """Determinant of the 3x3 matrix with these rows, in the entries' own
    arithmetic; ValueError for any other shape."""
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
    for r0, r1, r2 in rows:
        for c0, c1, c2 in cols:
            if (r0 * c0 + r1 * c1 + r2 * c2) % n:
                return False
    return True


def inverse3(rows) -> tuple[tuple[Fraction, ...], ...]:
    """The inverse of a 3x3 matrix as Fraction rows."""
    from fractions import Fraction

    det = det3(rows)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    return tuple(tuple(Fraction(x, det) for x in row) for row in adjugate_rows(rows))


def reduce_tall(m) -> tuple[tuple[int, ...], ...]:
    """Reduce a tall full-column-rank integer matrix, given as rows, to
    [D; 0] by unimodular row operations and return the rows of D.

    D is in Hermite normal form: positive pivots on the diagonal, entries
    above each pivot reduced into [0, pivot).  Pivots are chosen as the
    least-absolute-value nonzero entry of the working column to bound growth.
    """
    rows, cols = len(m), len(m[0])
    if rows < cols:
        raise ValueError("reduce_tall requires rows >= cols")
    a = [list(row) for row in m]

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

    return tuple(tuple(a[r]) for r in range(cols))


def lattice_equal3(a, b) -> bool:
    """Whether two nonsingular 3x3 reduced matrices cut out the same lattice,
    i.e. a * b^-1 is an integer matrix of determinant +-1."""
    p = rat_matmul(a, inverse3(b))
    return all(x.denominator == 1 for row in p for x in row) and abs(det3(p)) == 1
