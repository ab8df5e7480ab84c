"""Exact solution of x^2 + D*y^2 = N with the side conditions used by the
freeness criterion (D = 3*delta of either sign, N one of +-12ag, +-36ag,
+-108ag, divisibility 6a | 9by + x or 9by - x, optionally 3 not dividing y).

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
    (_principal_cycle).  The roots z, and where each meets the cycle, depend
    only on |N| and are found once for both signs of N (_located_roots).  A
    state with Q = +-1 is +-(P + sqrt(|D|)), whose expansion runs into the
    complete quotients of sqrt(|D|) within a few steps; the periodic tail of
    the whole expansion, which is the cycle of its first reduced state, is
    then the principal cycle.  So a z whose first reduced state is off the
    principal cycle has no |Q| = 1 state at all, pre-period included, and
    is dropped.  The hit of any other z needs one prefix product of the
    first half of the period (_cycle_points).  Representatives are
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
s.  The condition "3 does not divide y" is constant too: 3 divides D and N,
so 3 divides x, and t^2 = 1 mod 3 gives u*x + t*y = t*y mod 3.  FormProblem
refuses any problem outside these hypotheses (M | D + c^2, and 3 | D, N when
3 must not divide y).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import isqrt
from typing import NamedTuple

from .arith import DEFAULT_TRIAL_DIVISION_LIMIT, divisors, factorize, sqrt_mod
from .errors import DegenerateFormError, FactorizationLimitError

DEFINITE = "DEFINITE"
INDEFINITE = "INDEFINITE"
DEGENERATE = "DEGENERATE"


@dataclass(frozen=True)
class FormProblem:
    """x^2 + d*y^2 = n with the divisibility side condition.

    ``modulus`` is 6|a| and ``ycoef`` is 9b: a pair (x, y) is accepted when
    modulus divides ycoef*y + x or ycoef*y - x (and 3 does not divide y when
    ``require_y_not_div3`` is set).  The problem must meet the hypotheses
    under which acceptance is constant on each orbit of the automorph (see
    the module docstring): modulus divides d + ycoef^2, and when
    ``require_y_not_div3`` is set, 3 divides d and n.  The freeness problems
    meet them (d + 81b^2 = 12a^3); any other raises AssertionError.
    """

    d: int
    n: int
    modulus: int
    ycoef: int
    require_y_not_div3: bool = False

    def __post_init__(self):
        if self.n == 0 or self.d == 0:
            raise AssertionError(f"FormProblem needs d, n != 0, got d = {self.d}, n = {self.n}")
        if self.modulus <= 0 or self.modulus % 6 != 0:
            raise AssertionError(f"FormProblem modulus {self.modulus} is not 6k, k > 0")
        if (self.d + self.ycoef**2) % self.modulus != 0:
            raise AssertionError(
                f"FormProblem modulus {self.modulus} does not divide d + ycoef^2 = {self.d + self.ycoef**2}"
            )
        if self.require_y_not_div3 and (self.d % 3 or self.n % 3):
            raise AssertionError(
                f"FormProblem with 3 not dividing y needs 3 | d and 3 | n, got d = {self.d}, n = {self.n}"
            )

    def accepts(self, x: int, y: int) -> int | None:
        """Matched branch sign (-1 for ycoef*y - x, +1 for ycoef*y + x), or None.

        When modulus divides both, the branch is -1.  The caller builds its
        generator from this branch, so the reported match reproduces it.
        """
        if self.require_y_not_div3 and y % 3 == 0:
            return None
        if (self.ycoef * y - x) % self.modulus == 0:
            return -1
        if (self.ycoef * y + x) % self.modulus == 0:
            return 1
        return None


@dataclass(frozen=True)
class PellCertificate:
    """Evidence object for one right-hand side N.

    ``representatives`` is the complete solution set (DEFINITE, DEGENERATE)
    or a sign-closed complete set of orbit representatives (INDEFINITE).
    ``fundamental`` is present exactly in the INDEFINITE case.
    ``orbit_period_mod`` is always None: the side condition is decided on
    the representatives alone, and no orbit is walked.  The field stays
    because the benchmark's tracer reads it (``_cert_info`` in
    ``perfbench/spans.py``); the analyze JSON keeps its key as well.
    """

    kind: str
    fundamental: tuple[int, int] | None
    representatives: tuple[tuple[int, int], ...]
    orbit_period_mod: int | None = None


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


def _mat_mul(x: tuple, y: tuple) -> tuple:
    # 2x2 matrices as (top-left, top-right, bottom-left, bottom-right)
    return (
        x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3],
    )


def _row_mul(r: tuple, y: tuple) -> tuple:
    # a row vector times a 2x2 matrix
    return r[0] * y[0] + r[1] * y[2], r[0] * y[1] + r[1] * y[3]


_LEAF = 32


def _row_steps(row: tuple, quots) -> tuple:
    # row times the product of [[a, 1], [1, 0]] over quots, one quotient at
    # a time: (r0, r1) M(a) = (a*r0 + r1, r0)
    r0, r1 = row
    for a in quots:
        r0, r1 = a * r0 + r1, r0
    return r0, r1


def _cf_tree(quots) -> list:
    """The product tree of M(a) = [[a, 1], [1, 0]] over quots, level by
    level.  Level 0 holds the products over the runs of _LEAF quotients,
    each [[A_i, A_(i-1)], [B_i, B_(i-1)]] for the convergents A/B of its run,
    built as its top row, (1, 0) stepped through the run by _row_steps, and
    its bottom row, (0, 1) stepped likewise.  Each level above holds the
    products of neighbouring pairs below it, an odd last node carried up
    unchanged.  So node j of level i covers runs j*2^i .. (j+1)*2^i - 1 (the
    last node up to the last run), and the last level holds the whole
    product alone."""
    runs = (quots[i:i + _LEAF] for i in range(0, len(quots), _LEAF))
    level = [_row_steps((1, 0), run) + _row_steps((0, 1), run) for run in runs] or [(1, 0, 0, 1)]
    tree = [level]
    while len(level) > 1:
        tail = level[-1:] if len(level) % 2 else []
        level = [_mat_mul(x, y) for x, y in zip(level[::2], level[1::2])] + tail
        tree.append(level)
    return tree


def _prefix_rows(quots, tree, cuts) -> list:
    """The top row of P(c), the product of M(a) over quots[:c], for each of
    the sorted cuts, which lie within the quotients of ``tree`` (_cf_tree).

    One left-to-right sweep: the top row of the product of the first whole
    runs is carried from run to run, multiplied (_row_mul) by each tree node
    that covers runs between, O(log) nodes per gap.  A cut steps the row
    one quotient at a time (_row_steps) from the previous cut when that
    lies in its run, else from the start of its run."""
    row, pos = (1, 0), 0  # the top row of the product of the first pos runs
    cut_row, at = row, 0  # the top row of P(at)
    rows = []
    for c in cuts:
        b = c // _LEAF
        if b > pos:
            while pos < b:
                # the highest node that starts at run pos and ends by run b
                i = min(len(tree), (b - pos).bit_length(), (pos & -pos).bit_length() or len(tree)) - 1
                row = _row_mul(row, tree[i][pos >> i])
                pos += 1 << i
            cut_row, at = row, b * _LEAF
        cut_row, at = _row_steps(cut_row, quots[at:c]), c
        rows.append(cut_row)
    return rows


class _Cycle(NamedTuple):
    """A _principal_cycle entry (see there)."""

    s: int
    qs: list
    quots: list
    unit: tuple[int, int]
    tree: list
    period: int


@lru_cache(maxsize=2)
def _principal_cycle(dabs: int) -> _Cycle:
    """The first half of the period of sqrt(dabs), its length, its unit and
    the product tree of the unit's half.  Raises ValueError when the period
    is odd, which 3 | dabs rules out (see the module docstring).

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

    The unit is the first column of M(s) M(a_1) ... M(a_(L-1)),
    M(a) = [[a, 1], [1, 0]]; as M(a) is symmetric, that product is
    K M(a_h) K^T for K = M(a_1) ... M(a_(h-1)), the root of ``tree``.

    By the same symmetry a hit needs only a prefix P(c) = M(a_1) ... M(a_c)
    with c < h (see _cycle_points): a_(c+1) ... a_(L-1) is the reverse of
    a_1 ... a_(L-1-c), so its product is P(L-1-c)^T.  The tree's nodes are
    kept for _prefix_rows, which reads all the prefixes a target needs off
    them in one sweep.
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
    tree = _cf_tree(quots[:h - 1])
    k0, k1, k2, k3 = tree[-1][0]
    x, y = quots[-1] * k0 + k1, k0
    n0 = k0 * x + k1 * y
    return _Cycle(s, qs, quots, (s * n0 + k2 * x + k3 * y, n0), tree, 2 * h)


def pell_fundamental(dabs: int) -> tuple[int, int]:
    """Least (t, u), t, u > 0, with t^2 - dabs*u^2 = 1: the convergent of
    sqrt(dabs) at the end of its period.  Built once per dabs, with its
    cycle; raises ValueError when the period is odd (see _principal_cycle)."""
    if isqrt(dabs) ** 2 == dabs:
        raise DegenerateFormError(f"{dabs} is a perfect square")
    return _principal_cycle(dabs).unit


def _located_roots(dabs: int, nabs: int, limit: int) -> tuple:
    """(f, z, pre, c) for every f^2 | nabs and every square root z <= m/2 of
    dabs modulo m = nabs/f^2 whose expansion of (z + sqrt(dabs))/m reaches
    the principal cycle: pre holds its partial quotients before its first
    reduced state, which is at position c of the cycle.

    Each root is walked once, by the PQa step, to its first reduced state,
    and its quotients are recorded on the way.  sqrt_mod gives the roots in
    ascending order, so the walk over a modulus stops at its first root
    above m/2.  A root whose first reduced state is off the principal cycle
    has no hit (see _cycle_points and the module docstring) and is dropped.
    The states are looked up by one filter over the stored Q of the
    cycle's first half for the Q values wanted: each stored Q_k stands for
    two positions of the cycle (see _principal_cycle), and each position's
    P comes from P^2 = dabs - Q_prev*Q, which must be a square.  Nothing
    here depends on the sign of the target, so x^2 - dabs*y^2 = +-nabs
    share one call, through the cache of its one caller, _cycle_points.
    Raises FactorizationLimitError when the factorization budget ``limit``
    cannot factor nabs.
    """
    factors, cofactor = factorize(nabs, limit)
    if cofactor != 1:
        raise FactorizationLimitError(nabs, limit, cofactor)
    splits = [(1, {})]  # (f, factorization of nabs/f^2) for every f^2 | nabs
    for p, e in factors.items():
        splits = [
            (f * p**k, {**mf, p: e - 2 * k} if e > 2 * k else mf)
            for f, mf in splits
            for k in range(e // 2 + 1)
        ]
    cycle = _principal_cycle(dabs)
    s, qs = cycle.s, cycle.qs
    roots = []  # (f, z, pre, first reduced state)
    wanted_q = set()
    for f, mf in splits:
        m = nabs // (f * f)
        half = m // 2
        # the hits of -z are the conjugates (x, -y) of those of z, up to the
        # automorph, and the representatives are closed under that sign flip
        for z in sqrt_mod(dabs, mf):
            if z > half:
                break
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
        q = qs[k]
        # position k holds (P_(k+1), Q_(k+1)); position last - 1 - k, when
        # it lies past the stored half, holds (P_(k+2), Q_(k+1))
        sides = [(k, qs[k - 1] if k else 1)]
        if last - 1 - k >= h:
            sides.append((last - 1 - k, qs[k + 1]))
        for i, q_prev in sides:
            p2 = dabs - q_prev * q
            p = isqrt(p2) if p2 > 0 else 0
            if p == 0 or p * p != p2:
                raise AssertionError(f"Q = {q} at position {i} of the cycle of sqrt({dabs}) has no P")
            where[p, q] = i
    return tuple((f, z, pre, where[st]) for f, z, pre, st in roots if st in where)


@lru_cache(maxsize=2)
def _cycle_points(dabs: int, nabs: int, limit: int) -> tuple:
    """(f, x, y, v) for every located root (f, z, pre, c0) of nabs: a point
    in the orbit of the root's hits and its value v = x^2 - dabs*y^2, which
    is +-nabs/f^2.  The value is computed here once for both signs of the
    target; _indefinite_certificate checks it before it uses the point.

    The PQa expansion of (z + sqrt(dabs))/q0, q0 = nabs/f^2, has at its
    state k the value G_(k-1)^2 - dabs*B_(k-1)^2 = (-1)^k * q0 * Q_k, and a
    hit is a state with |Q_k| = 1, read off as (q0*G - z*B, B).  From its
    first reduced state j = len(pre) on, at position c0 of the cycle, only
    the states at the position of (s, 1) have Q = 1.  The first,
    k = j + L - 1 - c0, has the convergent matrix
    H = M(pre) P(c0)^-1 P(L-1) = M(pre) P(L-1-c0)^T (see _principal_cycle),
    whose first column is (G, B).  When c0 < L-1-c0, the second column of
    H P(L-1)^-1 = M(pre) P(c0)^-1 (det P(c0) = +-1, so the inverse is a
    signed adjugate) gives instead -+ the hit times the conjugate of the
    unit, a point of the same orbit.  Either way a root needs only the top
    row of P(min(c0, L-1-c0)), and min(c0, L-1-c0) < L/2, so one sweep of
    _prefix_rows over the unit's tree serves every root, and both signs of
    the target.  A state before j with |Q| = 1 adds no orbit: it is
    +-(P + sqrt(dabs)), whose expansion meets (s, 1) at the same parity
    within the period, and the two solutions differ by a unit of norm 1.
    """
    cycle = _principal_cycle(dabs)
    roots = _located_roots(dabs, nabs, limit)
    last = cycle.period - 1
    cuts = sorted({min(c0, last - c0) for *_, c0 in roots})
    rows = dict(zip(cuts, _prefix_rows(cycle.quots, cycle.tree, cuts)))
    out = []
    for f, z, pre, c0 in roots:
        p0, p1 = rows[min(c0, last - c0)]
        v0, v1 = (p0, p1) if c0 >= last - c0 else (-p1, p0)
        # M(pre) (v0, v1), which is (v0, v1) M(reversed pre) transposed
        g, b = _row_steps((v0, v1), pre[::-1])
        x = nabs // (f * f) * g - z * b
        out.append((f, x, b, x * x - dabs * b * b))
    return tuple(out)


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

    A point of _cycle_points with value +m = n/f^2 is a hit; one with value
    -m is the other sign's hit, and is skipped.  A hit that Nagell's bound
    proves minimal in its orbit is kept as it is; any other is descended to
    the minimum (see the module docstring)."""
    t, u = pell_fundamental(dabs)
    room = _nagell_room(t, u, n)
    reps = set()
    for f, x, y, v in _cycle_points(dabs, abs(n), limit):
        m = n // (f * f)
        if v == -m:
            continue
        if v != m:
            raise AssertionError(f"({f * x}, {f * y}) does not solve x^2 - {dabs}*y^2 = {n}")
        nx, ny = f * x, f * y
        if 2 * ny.bit_length() > room:
            nx, ny = _normalize_rep(dabs, t, u, nx, ny)
        reps.update({(nx, ny), (-nx, ny), (nx, -ny), (-nx, -ny)})
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
    factors, cofactor = factorize(abs(n), limit)
    if cofactor != 1:
        raise FactorizationLimitError(abs(n), limit, cofactor)
    out = set()
    for pos in divisors(factors):
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
