"""Exact solution of x^2 + D*y^2 = N with the side condition used by the
freeness criterion (D = 3*delta of either sign, N one of +-12ag, +-36ag,
+-108ag, divisibility 6a | 9by + x or 9by - x).

Three regimes:

  * D > 0 (definite): y is bounded by sqrt(N/D), so the full solution set is
    a finite enumeration.
  * D < 0 with |D| a square k^2 (degenerate): the form factors as
    (x - k*y)(x + k*y) and solutions come from divisor pairs of N, which
    requires factoring |N|; running out of the factorization budget raises
    FactorizationLimitError rather than returning a wrong "no".
  * D < 0, |D| nonsquare (indefinite): a genuine Pell-type problem.  The
    solution set is a finite union of orbits under the automorph
    (x, y) -> (t*x + |D|*u*y, u*x + t*y) built from the fundamental solution
    of t^2 - |D|*u^2 = 1.  Orbit representatives come from the continued
    fraction method (Matthews, "The Diophantine equation x^2 - Dy^2 = N"):
    for every square divisor f^2 | N and every square root z of |D| mod
    m = |N/f^2|, the PQa expansion of (z + sqrt(|D|))/m yields a solution
    of x^2 - |D|y^2 = +-N/f^2 at each state with |Q| = 1, through
    G_i^2 - |D|*B_i^2 = (-1)^(i+1) * Q_0 * Q_(i+1).  The roots z come from
    the factorization of m (Hensel lifting and the CRT), not from a scan of
    all m residues.

    The principal cycle of sqrt(|D|) and the unit are found once per |D|
    and cached, from the first half of the palindromic period
    (_principal_cycle).  The roots z, and where each meets the cycle, are
    found once for both signs of N (_located_roots).  The roots depend only
    on |N| and on |D| mod |N|, which fixes |D| mod m for every m | |N|, and
    a scan meets the same pairs again and again: each target of the
    freeness criterion has |N| = 12|a|g, 36|a|g or 108|a|g, which divides
    12a^3 (g | a; 3 | a in the last two cases; v3(g) < v3(a) in the third),
    and |D| = 81b^2 - 12a^3, so |D| = (9b)^2 (mod |N|).  So the roots are
    kept in a bounded cache under (|D| mod |N|, |N|) (_root_sets), and the
    factorization of |N| under |N| (_target_factors).

    The unit and the hits are products of M(a) = [[a, 1], [1, 0]] over
    stretches of the cycle's partial quotients, and the cycle keeps them in
    a product tree of top rows alone (_cf_tree).  Three identities of the
    complete quotients (P_k + sqrt(|D|))/Q_k of sqrt(|D|) (Jacobson &
    Williams, Solving the Pell Equation, 2009, ch. 3) supply the rest:

      * P_k^2 = |D| - Q_(k-1) Q_k, with Q_0 = 1, so P need not be stored;
      * the bottom row of R = M(a_i) ... M(a_j) follows from its top row in
        linear time, R10 = (R00 (P_(j+1) - P_i) + R01 Q_(j+1))/Q_(i-1) and
        R11 = (R00 Q_i - R10 (P_i + P_(j+1)))/Q_(j+1): the sqrt(|D|) part
        and the rational part of x_i (R10 x_(j+1) + R11) = R00 x_(j+1) + R01,
        x_k = (P_k + sqrt(|D|))/Q_k, with Q_(i-1) Q_i = |D| - P_i^2;
      * for the period L = 2h, the unit is t + u sqrt(|D|) =
        (G + B_(h-1) sqrt(|D|))^2/Q_h, from the middle convergent G/B_(h-1)
        of sqrt(|D|), G = P_h B_(h-1) + Q_h B_(h-2).

    A state with Q = +-1 is +-(P + sqrt(|D|)), whose expansion runs into the
    complete quotients of sqrt(|D|) within a few steps; the periodic tail of
    the whole expansion, which is the cycle of its first reduced state, is
    then the principal cycle.  So a z whose first reduced state is off the
    principal cycle has no |Q| = 1 state at all, pre-period included, and
    is dropped.  Most such z are dropped before their walk: the content
    gcd(m, 2z, (z^2 - |D|)/m) of the state's form is the same at every
    state of the expansion, as each step is an equivalence of forms, and a
    state with |Q| = 1 has content 1, so a z of content > 1 has no hit.
    The hit of any other z needs one prefix product of the
    first half of the period, and solves x^2 - |D|y^2 = +|N|/f^2 or
    -|N|/f^2 by the parity of its step count, so each sign of N reads only
    its own roots (_indefinite_certificate).  Representatives are
    normalized to the orbit's (|y|, |x|)-minimal point and closed under both
    sign flips.

    Most points read off the cycle are that minimal point already, and
    Nagell's bound on fundamental solutions (T. Nagell, Introduction to
    Number Theory, 1951, section 58, Theorems 108 and 108a) proves it
    without a step of the automorph.  Write eps = t + u*sqrt(|D|) = e^l and
    x + y*sqrt(|D|) = +-sqrt(|N|)*e^s for a solution of x^2 - |D|*y^2 = N;
    the automorph moves s by l.  When N > 0,
    |y| = sqrt(N)*|sinh s|/sqrt(|D|) and u/sqrt(2(t + 1)) =
    sinh(l/2)/sqrt(|D|); when N < 0, |y| = sqrt(|N|)*cosh(s)/sqrt(|D|) and
    u/sqrt(2(t - 1)) = cosh(l/2)/sqrt(|D|).  Both |sinh| and cosh grow
    strictly with |s|, so in either case the strict inequality

        2(t +- 1)*y^2 < u^2*|N|     (+ for N > 0, - for N < 0)

    holds exactly when |s| < l/2.  Then s + l and s - l are both farther
    from 0 than s, and every other point of the orbit has a strictly larger
    |y|: the point is the one the descent (_normalize_rep) returns, which
    moves only to a strictly smaller (|y|, |x|).  The test runs on bit
    lengths, with no products: y^2 < 2^(2 bits(y)), 2(t +- 1) <
    2^bits(2(t +- 1)), u^2 >= 2^(2 bits(u) - 2) and |N| >= 2^(bits(|N|) - 1),
    so 2 bits(y) + bits(2(t +- 1)) <= 2 bits(u) + bits(|N|) - 3 implies the
    inequality (_nagell_room).  A point that fails the bit test, which
    includes every point at the bound, where two points of the orbit tie,
    takes the exact descent.

    The period of sqrt(|D|) is always even here.  It is odd exactly when
    t^2 - |D|*u^2 = -1 has a solution, and 3 divides |D| while -1 is not a
    square mod 3.  So only even periods are solved, and _principal_cycle
    refuses an odd one with ValueError.

    The certificate (unit and sorted representatives) is built once per
    (|D|, N).  b -> -b maps x^3 - ax + b to x^3 - ax - b (alpha -> -alpha)
    and keeps delta and g, so the fields (a, b) and (a, -b) pose the same
    problems, and a scan, which evaluates the two back to back, solves them
    once for both.  Only the side condition depends on b.

The side condition is constant on each orbit, so every regime tests only
its representatives, in one loop.  Take M = 6|a|, c = 9b, the forms
l_s(x, y) = c*y + s*x for s = +-1, and the automorph
A(x, y) = (t*x + |D|*u*y, u*x + t*y).  Then
l_s(A(x, y)) = (t + s*c*u)*l_s(x, y) + s*u*(|D| - c^2)*y, and M divides
|D| - c^2 = -(D + c^2) = -12a^3, so l_s(A v) = (t + s*c*u)*l_s(v) mod M.
The multiplier is a unit mod M, as (t + s*c*u)(t - s*c*u) = t^2 - |D|*u^2
= 1 mod M, and the same holds for A^-1 with -u.  So M divides l_s at one
point of an orbit exactly when it divides l_s at every point, with the same
s.  FormProblem refuses any problem outside this hypothesis (M | D + c^2).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt
from typing import NamedTuple

from .arith import DEFAULT_TRIAL_DIVISION_LIMIT, divisors, factorize, sqrt_mod
from .errors import DegenerateFormError, FactorizationLimitError
from .record import Record

DEFINITE = "DEFINITE"
INDEFINITE = "INDEFINITE"
DEGENERATE = "DEGENERATE"


class FormProblem(Record):
    """x^2 + d*y^2 = n with the divisibility side condition.

    ``modulus`` is 6|a| and ``ycoef`` is 9b: a pair (x, y) is accepted when
    modulus divides ycoef*y + x or ycoef*y - x.  The problem must meet the
    hypothesis under which acceptance is constant on each orbit of the
    automorph (see the module docstring): modulus divides d + ycoef^2.  The
    freeness problems meet it (d + 81b^2 = 12a^3); any other raises
    AssertionError.
    """

    __slots__ = ("d", "n", "modulus", "ycoef")

    def __init__(self, d: int, n: int, modulus: int, ycoef: int):
        self.d = d
        self.n = n
        self.modulus = modulus
        self.ycoef = ycoef

        if self.n == 0 or self.d == 0:
            raise AssertionError(f"FormProblem needs d, n != 0, got d = {self.d}, n = {self.n}")
        if self.modulus <= 0 or self.modulus % 6 != 0:
            raise AssertionError(f"FormProblem modulus {self.modulus} is not 6k, k > 0")
        if (self.d + self.ycoef**2) % self.modulus != 0:
            raise AssertionError(
                f"FormProblem modulus {self.modulus} does not divide d + ycoef^2 = {self.d + self.ycoef**2}"
            )

    def accepts(self, x: int, y: int) -> int | None:
        """Matched branch sign (-1 for ycoef*y - x, +1 for ycoef*y + x), or None.

        When modulus divides both, the branch is -1.  The caller builds its
        generator from this branch, so the reported match reproduces it.
        """
        if (self.ycoef * y - x) % self.modulus == 0:
            return -1
        if (self.ycoef * y + x) % self.modulus == 0:
            return 1
        return None


class PellCertificate(Record):
    """Evidence object for one right-hand side N.

    ``representatives`` is the complete solution set (DEFINITE, DEGENERATE)
    or a sign-closed complete set of orbit representatives (INDEFINITE).
    ``fundamental`` is present exactly in the INDEFINITE case.
    ``orbit_period_mod`` is always None: the side condition is decided on
    the representatives alone, and no orbit is walked.  The field stays
    because the benchmark's tracer reads it (``_cert_info`` in
    ``perfbench/spans.py``); the analyze JSON keeps its key as well.
    """

    __slots__ = ("kind", "fundamental", "representatives", "orbit_period_mod")

    def __init__(
        self,
        kind: str,
        fundamental: tuple[int, int] | None,
        representatives: tuple[tuple[int, int], ...],
        orbit_period_mod: int | None = None,
    ):
        self.kind = kind
        self.fundamental = fundamental
        self.representatives = representatives
        self.orbit_period_mod = orbit_period_mod


def solve_definite(d: int, n: int) -> list[tuple[int, int]]:
    """All integer solutions of x^2 + d*y^2 = n for d > 0 (empty when n < 0)."""
    if d <= 0:
        raise AssertionError(f"solve_definite needs d > 0, got {d}")
    if n < 0:
        return []
    out = set()
    y = 0
    while d * y * y <= n:
        r = n - d * y * y
        x = isqrt(r)
        if x * x == r:
            out.update({(x, y), (-x, y), (x, -y), (-x, -y)})
        y += 1
    return sorted(out, key=_rep_order)


def _rep_order(p: tuple[int, int]):
    x, y = p
    return (abs(y), 0 if y >= 0 else 1, abs(x), 0 if x >= 0 else 1)


def _row_mul(r: tuple, y: tuple) -> tuple:
    # a row vector times a 2x2 matrix (top-left, top-right, bottom-left,
    # bottom-right)
    return r[0] * y[0] + r[1] * y[2], r[0] * y[1] + r[1] * y[3]


_LEAF = 256


def _row_steps(row: tuple, quots) -> tuple:
    # row times the product of [[a, 1], [1, 0]] over quots, one quotient at
    # a time: (r0, r1) M(a) = (a*r0 + r1, r0)
    r0, r1 = row
    for a in quots:
        r0, r1 = a * r0 + r1, r0
    return r0, r1


def _edge(dabs: int, qs, k: int) -> tuple:
    """(P_k, Q_(k-1), Q_k) of sqrt(dabs), k >= 1, from the stored Q (qs[i]
    is Q_(i+1), Q_0 = 1): P_k^2 = dabs - Q_(k-1) Q_k must be an exact
    square, else AssertionError."""
    q_prev, q = qs[k - 2] if k > 1 else 1, qs[k - 1]
    p2 = dabs - q_prev * q
    p = isqrt(p2) if p2 > 0 else 0
    if p == 0 or p * p != p2:
        raise AssertionError(f"Q = {q} at step {k} of the cycle of sqrt({dabs}) has no P")
    return p, q_prev, q


def _segment(row: tuple, e0: tuple, e1: tuple) -> tuple:
    """The product R = M(a_i) ... M(a_j) whose top row is ``row``, with its
    bottom row derived from e0 = (P_i, Q_(i-1), Q_i) and
    e1 = (P_(j+1), Q_j, Q_(j+1)) (_edge):
    R10 = (R00 (P_(j+1) - P_i) + R01 Q_(j+1))/Q_(i-1) and
    R11 = (R00 Q_i - R10 (P_i + P_(j+1)))/Q_(j+1) (see the module
    docstring).  Products by small integers only; a division that leaves a
    remainder raises AssertionError."""
    r0, r1 = row
    p0, q_prev, q0 = e0
    p1, _, q1 = e1
    r2, m2 = divmod(r0 * (p1 - p0) + r1 * q1, q_prev)
    r3, m3 = divmod(r0 * q0 - r2 * (p0 + p1), q1)
    if m2 or m3:
        raise AssertionError(f"no bottom row from (P, Q) = ({p0}, {q0}) to ({p1}, {q1}) of a cycle")
    return r0, r1, r2, r3


def _cf_tree(dabs: int, qs, quots) -> list:
    """The product tree of M(a) = [[a, 1], [1, 0]] over quots = a_1 ... a_n
    of sqrt(dabs), whose Q are qs (qs[i] = Q_(i+1), n < len(qs)), level by
    level, each node as its top row alone.  Level 0 holds the products over
    the runs of _LEAF quotients, the top row of each, (B, B'), built by
    stepping (1, 0) through the run (_row_steps).  Each level above holds
    the products of neighbouring pairs below it, an odd last node carried up
    unchanged.  So node j of level i covers runs j*2^i .. (j+1)*2^i - 1 (the
    last node up to the last run), and the last level holds the top row of
    the whole product alone.

    A leaf steps a small row, of a few hundred bits, while each node above
    costs a _segment and a _row_mul of its size, and each run boundary an
    _edge square root: runs of 256 quotients leave an eighth of the nodes
    that runs of 32 did, and on the benchmark's pell pool the tree takes
    about 0.7 of the time it took with them.

    A pair's product is the left node's top row times the right node's
    matrix, 4 products of the nodes' size, not the 8 of two whole matrices.
    The right node R = M(a_i) ... M(a_j) gets its bottom row from its top
    row and the complete quotients at its two ends (_segment, _edge;
    Jacobson & Williams, Solving the Pell Equation, 2009, ch. 3):

        R10 = (R00 (P_(j+1) - P_i) + R01 Q_(j+1)) / Q_(i-1)
        R11 = (R00 Q_i - R10 (P_i + P_(j+1))) / Q_(j+1)

    with each P from P_k^2 = dabs - Q_(k-1) Q_k, Q_0 = 1."""
    n = len(quots)
    level = [_row_steps((1, 0), quots[i:i + _LEAF]) for i in range(0, n, _LEAF)] or [(1, 0)]
    # the states at the ends of the runs: edges[r] is step r*_LEAF + 1, the
    # last one step n + 1
    edges = [_edge(dabs, qs, min(i, n) + 1) for i in range(0, n + _LEAF, _LEAF)] if n > _LEAF else []
    runs = len(level)
    tree, width = [level], 1  # width: runs per node of the level
    while len(level) > 1:
        tail = level[-1:] if len(level) % 2 else []
        level = [
            _row_mul(x, _segment(y, edges[j * width], edges[min(j * width + width, runs)]))
            for j, x, y in zip(range(1, len(level), 2), level[::2], level[1::2])
        ] + tail
        tree.append(level)
        width *= 2
    return tree


def _prefix_rows(dabs: int, cycle: _Cycle, cuts) -> list:
    """The top row (B_c, B_(c-1)) of P(c), the product of M(a) over the
    first c quotients of the cycle of sqrt(dabs), for each of the sorted
    cuts, c <= h - 1, the span of the cycle's tree (_principal_cycle).

    One left-to-right sweep: the top row of the product of the first whole
    runs is carried from run to run, multiplied (_row_mul) by each tree node
    that covers runs between, O(log) nodes per gap.  A node keeps its top
    row alone; its bottom row is derived, as in _cf_tree, from the Q stored
    at its ends: each P from P_k^2 = dabs - Q_(k-1) Q_k (_edge), then
    R10 = (R00 (P_(j+1) - P_i) + R01 Q_(j+1))/Q_(i-1) and
    R11 = (R00 Q_i - R10 (P_i + P_(j+1)))/Q_(j+1) (_segment; Jacobson &
    Williams, Solving the Pell Equation, 2009, ch. 3).  A cut multiplies
    the row by the product over its partial run, from the previous cut
    when that lies in its run, else from the start of its run: (1, 0) is
    stepped through it one quotient at a time (_row_steps), which keeps the
    numbers small, and its bottom row is derived the same way (_segment).
    So a cut costs 4 products of the carried row by small numbers, however
    long its partial run."""
    qs, quots, tree = cycle.qs, cycle.quots, cycle.row_tree
    row, pos = (1, 0), 0  # the top row of the product of the first pos runs
    cut_row, at = row, 0  # the top row of P(at)
    rows = []
    for c in cuts:
        b = c // _LEAF
        if b > pos:
            while pos < b:
                # the highest node that starts at run pos and ends by run b
                i = min(len(tree), (b - pos).bit_length(), (pos & -pos).bit_length() or len(tree)) - 1
                end = pos + (1 << i)
                e0, e1 = _edge(dabs, qs, pos * _LEAF + 1), _edge(dabs, qs, end * _LEAF + 1)
                row, pos = _row_mul(row, _segment(tree[i][pos >> i], e0, e1)), end
            cut_row, at = row, b * _LEAF
        run = _segment(_row_steps((1, 0), quots[at:c]), _edge(dabs, qs, at + 1), _edge(dabs, qs, c + 1))
        cut_row, at = _row_mul(cut_row, run), c
        rows.append(cut_row)
    return rows


class _Cycle(NamedTuple):
    """A _principal_cycle entry (see there)."""

    s: int
    qs: list
    quots: list
    unit: tuple[int, int]
    row_tree: list
    period: int


# the unit is checked to solve t^2 - dabs*u^2 = 1 modulo this prime, which
# costs no product of the unit's size
_UNIT_CHECK_MOD = (1 << 61) - 1


@lru_cache(maxsize=2)
def _principal_cycle(dabs: int) -> _Cycle:
    """The first half of the period of sqrt(dabs), its length, its unit and
    the product tree of the half's convergents.  Raises ValueError when the
    period is odd, which 3 | dabs rules out (see the module docstring).

    s = isqrt(dabs); qs[i] and quots[i] are Q and the partial quotient of
    the complete quotient (P + sqrt(dabs))/Q at step i + 1, for the first
    h = len(qs) steps of the period L = 2h.  Index 0 holds Q_1 = dabs - s^2.
    P is not stored: P_k^2 + Q_(k-1) Q_k = dabs with Q_0 = 1, and the walk
    itself steps Q by Q_(k+1) = Q_(k-1) + a_k (P_k - P_(k+1)) rather than
    by a division.

    The period is a palindrome, Q_k = Q_(L-k), P_k = P_(L+1-k) and
    a_k = a_(L-k), so (P, Q) is walked to its middle only: the first k with
    P_(k+1) = P_k (L = 2k).  A k with Q_(k+1) = Q_k would be the middle of
    an odd period (L = 2k + 1), and is refused.  Position i of the whole
    cycle holds step i + 1: for i < h, Q and the quotient are qs[i] and
    quots[i]; for h <= i < L - 1 they are qs[j] and quots[j], j = L - 2 - i;
    position L - 1 is the only state with Q = 1, (s, 1), whose quotient
    is 2s.

    ``row_tree`` is the product tree of M(a_1) ... M(a_(h-1)),
    M(a) = [[a, 1], [1, 0]], each node kept as its top row (_cf_tree); the
    root's is (B_(h-1), B_(h-2)), the denominators of the convergents of
    sqrt(dabs).  The unit comes from the middle convergent G/B_(h-1),
    G = P_h B_(h-1) + Q_h B_(h-2): t = (G^2 + dabs B_(h-1)^2)/Q_h and
    u = 2 G B_(h-1)/Q_h (Jacobson & Williams, Solving the Pell Equation,
    2009, ch. 3), three products of the unit's size.  Both divisions must
    be exact, and t^2 - dabs*u^2 = 1 must hold modulo 2^61 - 1, else
    AssertionError.

    By the symmetry of the period a hit needs only a prefix
    P(c) = M(a_1) ... M(a_c) with c < h (see _indefinite_certificate):
    a_(c+1) ... a_(L-1) is the reverse of a_1 ... a_(L-1-c), so its product
    is P(L-1-c)^T.  The tree's nodes are kept for _prefix_rows, which reads
    all the prefixes a target needs off them in one sweep.
    """
    s = isqrt(dabs)
    qs, quots = [], []
    q0, p, q = 1, s, dabs - s * s  # Q_0, P_1, Q_1
    while True:
        if q == q0:
            raise ValueError(f"sqrt({dabs}) has an odd period, which no |D| = 3*|delta| has")
        a = (p + s) // q
        qs.append(q)
        quots.append(a)
        p1 = a * q - p
        if p1 == p:
            break
        q0, q = q, q0 + a * (p - p1)
        p = p1
    h = len(quots)
    tree = _cf_tree(dabs, qs, quots[:h - 1])
    b1, b0 = tree[-1][0]
    g = p * b1 + q * b0  # p, q = P_h, Q_h
    t, mt = divmod(g * g + dabs * (b1 * b1), q)
    u, mu = divmod(2 * g * b1, q)
    tm, um = t % _UNIT_CHECK_MOD, u % _UNIT_CHECK_MOD
    if mt or mu or (tm * tm - dabs * um * um - 1) % _UNIT_CHECK_MOD:
        raise AssertionError(f"the middle convergent of sqrt({dabs}) gives no unit")
    return _Cycle(s, qs, quots, (t, u), tree, 2 * h)


def pell_fundamental(dabs: int) -> tuple[int, int]:
    """Least (t, u), t, u > 0, with t^2 - dabs*u^2 = 1: the convergent of
    sqrt(dabs) at the end of its period.  Built once per dabs, with its
    cycle; raises ValueError when the period is odd (see _principal_cycle)."""
    if isqrt(dabs) ** 2 == dabs:
        raise DegenerateFormError(f"{dabs} is a perfect square")
    return _principal_cycle(dabs).unit


@lru_cache(maxsize=32)
def _target_factors(nabs: int, limit: int) -> tuple[tuple[int, int], ...]:
    """The factorization of nabs as ascending (p, e) pairs, kept for the
    next targets of the same |N|: a scan row poses few, as each is 12|a|g,
    36|a|g or 108|a|g with g | a.  Raises FactorizationLimitError when the
    budget ``limit`` cannot complete it, and then caches nothing."""
    factors, cofactor = factorize(nabs, limit)
    if cofactor != 1:
        raise FactorizationLimitError(nabs, limit, cofactor)
    return tuple(factors.items())


@lru_cache(maxsize=256)
def _root_sets(dmod: int, nabs: int, limit: int) -> tuple:
    """(f, m, roots) for every f^2 | nabs, m = nabs/f^2: roots holds the
    z <= m/2 with z^2 = dmod (mod m), ascending.

    dmod is |D| mod |N|, which fixes |D| mod m for every m | |N|, so the
    fields of a scan that share it share this work (see the module
    docstring).  Raises FactorizationLimitError when the budget ``limit``
    cannot factor nabs.
    """
    splits = [(1, {})]  # (f, factorization of nabs/f^2) for every f^2 | nabs
    for p, e in _target_factors(nabs, limit):
        splits = [
            (f * p**k, {**mf, p: e - 2 * k} if e > 2 * k else mf)
            for f, mf in splits
            for k in range(e // 2 + 1)
        ]
    out = []
    for f, mf in splits:
        m = nabs // (f * f)
        # the hits of -z are the conjugates (x, -y) of those of z, up to the
        # automorph, and the representatives are closed under that sign flip
        roots = sqrt_mod(dmod, mf)
        out.append((f, m, tuple(roots[:bisect_right(roots, m // 2)])))
    return tuple(out)


@lru_cache(maxsize=2)
def _located_roots(dabs: int, nabs: int, limit: int) -> tuple:
    """(f, z, pre, c) for every f^2 | nabs and every square root z <= m/2 of
    dabs modulo m = nabs/f^2 whose expansion of (z + sqrt(dabs))/m reaches
    the principal cycle: pre holds its partial quotients before its first
    reduced state, which is at position c of the cycle.

    The roots come from _root_sets, which a scan's fields share through
    dabs mod nabs.  A root whose form (m, 2z, (z^2 - dabs)/m) has content
    gcd(m, 2z, (z^2 - dabs)/m) > 1 is skipped before its walk: content is
    invariant under equivalence, each PQa step is one, and every state of
    the principal cycle, like any state with |Q| = 1, has content 1, so its
    expansion never meets them.  On a scan of [-40,40]^2 that skips 26,682
    of the 46,022 roots.  Each other root is walked once, by the PQa step,
    to its first reduced state, and its quotients are recorded on the way.
    A root whose first reduced state is off the principal cycle has no hit
    (see the module docstring) and is dropped.
    The states are looked up by one filter over the stored Q of the
    cycle's first half for the Q values wanted: each stored Q_k stands for
    two positions of the cycle (see _principal_cycle), and each position's
    P comes from _edge: P^2 = dabs - Q_prev*Q, which must be a square.
    Nothing here depends on the sign of the target, so x^2 - dabs*y^2 =
    +-nabs share one call through the cache, and each keeps its own roots.
    Raises FactorizationLimitError when the factorization budget ``limit``
    cannot factor nabs.
    """
    root_sets = _root_sets(dabs % nabs, nabs, limit)
    cycle = _principal_cycle(dabs)
    s, qs = cycle.s, cycle.qs
    roots = []  # (f, z, pre, first reduced state)
    wanted_q = set()
    for f, m, zs in root_sets:
        for z in zs:
            if gcd(m, 2 * z, (z * z - dabs) // m) > 1:
                continue
            p, q, pre = z, m, []
            while True:
                a = (p + s) // q if q > 0 else (-p - s - 1) // -q
                pre.append(a)
                p = a * q - p
                q = (dabs - p * p) // q
                if 0 < p <= s and s - p < q <= s + p:
                    break
            roots.append((f, z, tuple(pre), (p, q)))
            wanted_q.add(q)
    h, last = len(qs), cycle.period - 1
    where = {(s, 1): last}
    for k in compress(range(h), map(wanted_q.__contains__, qs)):
        # position k holds (P_(k+1), Q_(k+1)); position last - 1 - k, when
        # it lies past the stored half, holds (P_(k+2), Q_(k+1))
        p, _, q = _edge(dabs, qs, k + 1)
        where[p, q] = k
        if last - 1 - k >= h:
            where[_edge(dabs, qs, k + 2)[0], q] = last - 1 - k
    return tuple((f, z, pre, where[st]) for f, z, pre, st in roots if st in where)


def _nagell_room(t: int, u: int, n: int) -> int:
    """The largest 2*bits(y) with which a solution (x, y) of
    x^2 - |D|*y^2 = n is certified minimal in its orbit by Nagell's bound,
    (t, u) the unit (see the module docstring)."""
    return 2 * u.bit_length() + abs(n).bit_length() - 3 - (2 * (t + 1 if n > 0 else t - 1)).bit_length()


def _normalize_rep(dabs: int, t: int, u: int, x: int, y: int) -> tuple[int, int]:
    # descend to the orbit's (|y|, |x|)-minimal point under A and A^-1,
    # which share the four products
    du = dabs * u
    while True:
        tx, duy, ux, ty = t * x, du * y, u * x, t * y
        best = (x, y)
        for cand in ((tx + duy, ux + ty), (tx - duy, ty - ux)):
            if (abs(cand[1]), abs(cand[0])) < (abs(best[1]), abs(best[0])):
                best = cand
        if best == (x, y):
            return best
        x, y = best


@lru_cache(maxsize=2)
def _indefinite_certificate(dabs: int, n: int, limit: int) -> PellCertificate:
    """solve_indefinite's certificate, kept for the mirror field (a, -b),
    which poses the same (dabs, n) (see the module docstring).

    The PQa expansion of (z + sqrt(dabs))/q0 of a located root (f, z, pre,
    c0), q0 = |n|/f^2, has at its state k the value
    G_(k-1)^2 - dabs*B_(k-1)^2 = (-1)^k * q0 * Q_k, and a hit is a state with
    |Q_k| = 1, read off as (q0*G - z*B, B).  From its first reduced state
    j = len(pre) on, at position c0 of the cycle, only the states at the
    position of (s, 1) have Q = 1.  The first, k = j + L - 1 - c0, has the
    convergent matrix H = M(pre) P(c0)^-1 P(L-1) = M(pre) P(L-1-c0)^T (see
    _principal_cycle), whose first column is (G, B), and as L is even its
    value is +q0 exactly when len(pre) + c0 is odd: only the roots of n's
    sign are read.  When c0 < L-1-c0, the second column of
    H P(L-1)^-1 = M(pre) P(c0)^-1 (det P(c0) = +-1, so the inverse is a
    signed adjugate) gives instead -+ the hit times the conjugate of the
    unit, a point of the same orbit with the same value.  Either way a root
    needs only the top row of P(min(c0, L-1-c0)), and min(c0, L-1-c0) <
    L/2, so one sweep of _prefix_rows over the unit's tree serves every
    root.  A state before j with |Q| = 1 adds no orbit: it is
    +-(P + sqrt(dabs)), whose expansion meets (s, 1) at the same parity
    within the period, and the two solutions differ by a unit of norm 1.

    A hit that Nagell's bound proves minimal in its orbit is kept as it is;
    any other is descended to the minimum (see the module docstring)."""
    t, u = pell_fundamental(dabs)
    cycle = _principal_cycle(dabs)
    last = cycle.period - 1
    roots = [r for r in _located_roots(dabs, abs(n), limit) if (len(r[2]) + r[3]) % 2 == (n > 0)]
    cuts = sorted({min(c0, last - c0) for *_, c0 in roots})
    rows = dict(zip(cuts, _prefix_rows(dabs, cycle, cuts)))
    room = _nagell_room(t, u, n)
    reps = set()
    for f, z, pre, c0 in roots:
        p0, p1 = rows[min(c0, last - c0)]
        v0, v1 = (p0, p1) if c0 >= last - c0 else (-p1, p0)
        # M(pre) (v0, v1), which is (v0, v1) M(reversed pre) transposed
        g, y = _row_steps((v0, v1), pre[::-1])
        m = n // (f * f)
        x = abs(m) * g - z * y
        if x * x - dabs * y * y != m:
            raise AssertionError(f"({f * x}, {f * y}) does not solve x^2 - {dabs}*y^2 = {n}")
        x, y = f * x, f * y
        if 2 * y.bit_length() > room:
            x, y = _normalize_rep(dabs, t, u, x, y)
        reps.update({(x, y), (-x, y), (x, -y), (-x, -y)})
    return PellCertificate(INDEFINITE, (t, u), tuple(sorted(reps, key=_rep_order)))


def solve_indefinite(d: int, n: int, limit: int = DEFAULT_TRIAL_DIVISION_LIMIT) -> PellCertificate:
    """Complete orbit representatives of x^2 + d*y^2 = n for d < 0, |d| nonsquare.

    An empty representative set is a proof that no solutions exist.  Raises
    FactorizationLimitError when the factorization budget ``limit`` cannot
    factor |n|.
    """
    if d >= 0 or n == 0:
        raise AssertionError(f"solve_indefinite needs d < 0, n != 0, got d = {d}, n = {n}")
    dabs = -d
    if isqrt(dabs) ** 2 == dabs:
        raise DegenerateFormError(f"|d| = {dabs} is a perfect square")
    return _indefinite_certificate(dabs, n, limit)


def solve_degenerate(d: int, n: int, limit: int = DEFAULT_TRIAL_DIVISION_LIMIT) -> list[tuple[int, int]]:
    """All solutions of x^2 - k^2*y^2 = n via divisor pairs, for -d = k^2.

    (x - k*y)(x + k*y) = n: every factorization n = d0 * e0 gives
    x = (d0 + e0)/2, y = (e0 - d0)/(2k) when those are integers.  Needs the
    full divisor list of |n|; raises FactorizationLimitError when the
    factorization budget ``limit`` cannot provide it.
    """
    if d >= 0 or n == 0:
        raise AssertionError(f"solve_degenerate needs d < 0, n != 0, got d = {d}, n = {n}")
    k = isqrt(-d)
    if k * k != -d:
        raise AssertionError(f"solve_degenerate needs -d a square, got d = {d}")
    out = set()
    for pos in divisors(dict(_target_factors(abs(n), limit))):
        for d0 in (pos, -pos):
            e0 = n // d0
            if (d0 + e0) % 2 == 0 and (e0 - d0) % (2 * k) == 0:
                out.add(((d0 + e0) // 2, (e0 - d0) // (2 * k)))
    return sorted(out, key=_rep_order)


def solve_with_conditions(
    problem: FormProblem, limit: int = DEFAULT_TRIAL_DIVISION_LIMIT
) -> tuple[tuple[int, int, int] | None, PellCertificate]:
    """Search for a solution meeting the side conditions.

    Returns ((x, y, branch), certificate) on a hit, (None, certificate) for a
    verified NONE.  The match is the first representative, in _rep_order,
    that the problem accepts.  In the definite and degenerate kinds the
    representatives are every solution; in the indefinite kind every
    solution lies in the orbit of one, and the side condition is constant
    on each orbit (see the module docstring), so NONE means every solution
    class was examined exhaustively there too.
    """
    d, n = problem.d, problem.n
    if d > 0:
        cert = PellCertificate(DEFINITE, None, tuple(solve_definite(d, n)))
    elif isqrt(-d) ** 2 == -d:
        cert = PellCertificate(DEGENERATE, None, tuple(solve_degenerate(d, n, limit)))
    else:
        cert = solve_indefinite(d, n, limit)
    for x, y in cert.representatives:
        branch = problem.accepts(x, y)
        if branch is not None:
            if x * x + d * y * y != n:
                sign = "-" if d < 0 else "+"
                raise AssertionError(f"({x}, {y}) does not solve x^2 {sign} {abs(d)}*y^2 = {n}")
            return (x, y, branch), cert
    return None, cert
