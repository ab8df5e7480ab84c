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

    The principal cycle of sqrt(|D|) (its reduced (P, Q) states and partial
    quotients, in int64 arrays) and the fundamental unit are found once per
    |D| and cached: the period is a palindrome, so half of it is walked and
    mirrored, and the unit comes from a product tree over the first half.
    The roots z, and where each meets the cycle, depend only on |N| and are
    found once for both signs of N.  For each z only (P, Q) is walked, to
    the first reduced state.  A state with Q = +-1 is +-(P + sqrt(|D|)),
    whose expansion runs into the complete quotients of sqrt(|D|) within a
    few steps; the periodic tail of the whole expansion, which is the cycle
    of its first reduced state, is then the principal cycle.  So a z whose
    first reduced state is off the principal cycle has no |Q| = 1 state at
    all, pre-period included, and is dropped.  Otherwise the cycle's one
    Q = 1 state (s, 1) is found by position, at both parities when the
    period is odd, and a convergent is built only for a hit.  For the
    forms here the period is always even: 3 divides |D|, and -1 is not a
    square mod 3, so t^2 - |D|*u^2 = -1 has no solution.  Representatives
    are normalized to the orbit's (|y|, |x|)-minimal point and closed under
    both sign flips.

Condition checking on an infinite orbit terminates because the conditions
only depend on (x, y) modulo 6|a| (3 divides 6a, so "3 | y" is determined
too): the orbit is walked modulo 6|a| with cycle detection, and an exact
solution is reconstructed by automorph powering only when a state matches.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

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
    ``require_y_not_div3`` is set).
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

    def accepts(self, x: int, y: int) -> int | None:
        """Matched branch sign (+1 for ycoef*y + x, -1 for ycoef*y - x), or None."""
        if self.require_y_not_div3 and y % 3 == 0:
            return None
        if (self.ycoef * y + x) % self.modulus == 0:
            return 1
        if (self.ycoef * y - x) % self.modulus == 0:
            return -1
        return None


@dataclass(frozen=True)
class PellCertificate:
    """Evidence object for one right-hand side N.

    ``representatives`` is the complete solution set (DEFINITE, DEGENERATE)
    or a sign-closed complete set of orbit representatives (INDEFINITE).
    ``fundamental`` is present exactly in the INDEFINITE case.
    ``orbit_period_mod`` records the longest orbit cycle length modulo the
    condition modulus observed while checking conditions, when any orbit was
    walked to completion.
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


def _floor_surd(p: int, q: int, s: int) -> int:
    # floor((p + sqrt(d)) / q) with s = isqrt(d), sqrt(d) irrational
    if q > 0:
        return (p + s) // q
    return (-p - s - 1) // (-q)


def _mat_mul(x: tuple, y: tuple) -> tuple:
    # 2x2 matrices as (top-left, top-right, bottom-left, bottom-right)
    return (
        x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3],
    )


_LEAF = 32


def _cf_matrix(quots) -> tuple:
    """The product of [[a, 1], [1, 0]] over the partial quotients a_0..a_i,
    which is [[A_i, A_(i-1)], [B_i, B_(i-1)]] for the convergents A/B: runs
    of _LEAF quotients multiplied in turn, then a balanced product tree."""
    level = []
    for i in range(0, len(quots), _LEAF):
        a1, a0, b1, b0 = 1, 0, 0, 1
        for a in quots[i:i + _LEAF]:
            a1, a0, b1, b0 = a * a1 + a0, a1, a * b1 + b0, b1
        level.append((a1, a0, b1, b0))
    if not level:
        return 1, 0, 0, 1
    while len(level) > 1:
        tail = level[-1:] if len(level) % 2 else []
        level = [_mat_mul(x, y) for x, y in zip(level[::2], level[1::2])] + tail
    return level[0]


@lru_cache(maxsize=2)
def _principal_cycle(dabs: int):
    """(s, ps, qs, quots, (t, u)): the period of sqrt(dabs) and its unit.

    s = isqrt(dabs); ps[i], qs[i] and quots[i] are P, Q and the partial
    quotient of the complete quotient (P + sqrt(dabs))/Q at step i + 1, so
    index 0 holds (s, dabs - s^2) and the last index the only state with
    Q = 1, (s, 1), whose quotient is 2s.  Every entry lies in (0, 2s], so the
    arrays are int64 unless 2s does not fit.

    The period L is a palindrome, Q_k = Q_(L-k), P_k = P_(L+1-k) and
    a_k = a_(L-k), so (P, Q) is walked to its middle only: the first k with
    P_(k+1) = P_k (L = 2k) or Q_(k+1) = Q_k (L = 2k + 1, k = 0 for
    dabs = s^2 + 1).  The unit is the first column of M(s) M(a_1) ...
    M(a_(L-1)), M(a) = [[a, 1], [1, 0]], squared when L is odd; as M(a) is
    symmetric, that product is K M(a_h) K^T (L = 2h) or K K^T (L = 2h + 1)
    for K = M(a_1) ... M(a_r), r = L - 1 - h.
    """
    s = isqrt(dabs)
    new = (lambda: array("q")) if (2 * s).bit_length() < 64 else list
    ps, qs, quots = new(), new(), new()
    p, q = s, dabs - s * s
    odd = q == 1
    while not odd:
        a = (p + s) // q
        ps.append(p)
        qs.append(q)
        quots.append(a)
        p1 = a * q - p
        q1 = (dabs - p1 * p1) // q
        if p1 == p:
            break
        odd = q1 == q
        p, q = p1, q1
    h = len(quots)
    r = h if odd else h - 1
    k0, k1, k2, k3 = _cf_matrix(quots[:r])
    x, y = (k0, k1) if odd else (quots[-1] * k0 + k1, k0)
    n0 = k0 * x + k1 * y
    t, u = s * n0 + k2 * x + k3 * y, n0
    if odd:
        t, u = t * t + dabs * u * u, 2 * t * u
        ps.append(p)  # P_(h+1)
    ps += ps[:h][::-1]
    qs += qs[:r][::-1]
    qs.append(1)
    quots += quots[:r][::-1]
    quots.append(2 * s)
    return s, ps, qs, quots, (t, u)


def pell_fundamental(dabs: int) -> tuple[int, int]:
    """Least (t, u), t, u > 0, with t^2 - dabs*u^2 = 1: the convergent of
    sqrt(dabs) at the end of its period, squared when the period is odd
    (that convergent then has norm -1).  Built once per dabs, with its cycle."""
    if isqrt(dabs) ** 2 == dabs:
        raise DegenerateFormError(f"{dabs} is a perfect square")
    return _principal_cycle(dabs)[4]


@lru_cache(maxsize=2)
def _located_roots(dabs: int, nabs: int) -> tuple:
    """(f, z, pre, c) for every f^2 | nabs and every square root z <= m/2 of
    dabs modulo m = nabs/f^2 whose expansion of (z + sqrt(dabs))/m reaches
    the principal cycle: pre holds its partial quotients before its first
    reduced state, which is at position c of the cycle.

    Only (P, Q) is walked, to that state; a root whose first reduced state
    is off the principal cycle has no hit (see _cf_hits and the module
    docstring) and is dropped.  All states are looked up in one pass over
    the cycle.  Nothing here depends on the sign of the target, so
    x^2 - dabs*y^2 = +-nabs share one call.  Raises FactorizationLimitError
    when the default budget cannot factor nabs.
    """
    factors, cofactor = factorize(nabs)
    if cofactor != 1:
        raise FactorizationLimitError(nabs, DEFAULT_TRIAL_DIVISION_LIMIT, cofactor)
    splits = [(1, {})]  # (f, factorization of nabs/f^2) for every f^2 | nabs
    for p, e in factors.items():
        splits = [
            (f * p**k, {**mf, p: e - 2 * k} if e > 2 * k else mf)
            for f, mf in splits
            for k in range(e // 2 + 1)
        ]
    s, ps, qs, _, _ = _principal_cycle(dabs)
    roots = []  # (f, z, pre, first reduced state)
    for f, mf in splits:
        m = nabs // (f * f)
        # the hits of -z are the conjugates (x, -y) of those of z, up to the
        # automorph, and the representatives are closed under that sign flip
        for z in sqrt_mod(dabs, mf):
            if z <= m // 2:
                p, q, pre = z, m, []
                while True:
                    a = _floor_surd(p, q, s)
                    pre.append(a)
                    p = a * q - p
                    q = (dabs - p * p) // q
                    if 0 < p <= s and s - p < q <= s + p:
                        break
                roots.append((f, z, tuple(pre), (p, q)))
    wanted = {state for *_, state in roots}
    where = {state: i for i, state in enumerate(zip(ps, qs)) if state in wanted}
    return tuple((f, z, pre, where[st]) for f, z, pre, st in roots if st in where)


def _cf_hits(dabs: int, z: int, q0: int, m: int, pre: tuple, c0: int) -> list[tuple[int, int]]:
    """(G, B) with G^2 - dabs*B^2 = m from the PQa expansion of
    (z + sqrt(dabs))/q0, q0 > 0 dividing z^2 - dabs, with partial quotients
    ``pre`` up to its first reduced state j, at position c0 of the cycle.

    Its state k has value G_(k-1)^2 - dabs*B_(k-1)^2 = (-1)^k * q0 * Q_k,
    and a hit is a state with |Q_k| = 1 and that value m.  Of the states
    j .. j + L' - 1 (state j + L' repeats state j) only those at the
    position of (s, 1) have Q = 1; L' is the period L, or 2L when L is odd,
    so that (s, 1) is met at both parities, hence with both signs of the
    value.  A state before j with |Q| = 1 adds no orbit: it is
    +-(P + sqrt(dabs)), whose expansion meets (s, 1) at the same parity
    within those states, and the two solutions differ by a unit of norm 1.
    Convergents are built only for hits, by product trees.
    """
    quots = _principal_cycle(dabs)[3]
    period = len(quots)
    j = len(pre)
    span = period if period % 2 == 0 else 2 * period
    out = []
    for k in range(j + period - 1 - c0, j + span, period):
        if (q0 if k % 2 == 0 else -q0) != m:
            continue
        seg = quots[c0:c0 + k - j]
        if len(seg) < k - j:
            seg += quots[:k - j - len(seg)]
        g1, _, b1, _ = _mat_mul(_cf_matrix(pre), _cf_matrix(seg))
        out.append((q0 * g1 - z * b1, b1))
    return out


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


def solve_indefinite(d: int, n: int) -> PellCertificate:
    """Complete orbit representatives of x^2 + d*y^2 = n for d < 0, |d| nonsquare.

    An empty representative set is a proof that no solutions exist.  Raises
    FactorizationLimitError when the default factorization budget cannot
    factor |n|.
    """
    if d >= 0 or n == 0:
        raise AssertionError(f"solve_indefinite needs d < 0, n != 0, got d = {d}, n = {n}")
    dabs = -d
    if isqrt(dabs) ** 2 == dabs:
        raise DegenerateFormError(f"|d| = {dabs} is a perfect square")
    t, u = pell_fundamental(dabs)
    raw = []
    for f, z, pre, c0 in _located_roots(dabs, abs(n)):
        m = n // (f * f)
        raw += [(f * g, f * b) for g, b in _cf_hits(dabs, z, abs(m), m, pre, c0)]
    reps = set()
    for x, y in raw:
        if x * x - dabs * y * y != n:
            raise AssertionError(f"({x}, {y}) does not solve x^2 - {dabs}*y^2 = {n}")
        nx, ny = _normalize_rep(dabs, t, u, x, y)
        reps.update({(nx, ny), (-nx, ny), (nx, -ny), (-nx, -ny)})
    return PellCertificate(INDEFINITE, (t, u), tuple(sorted(reps, key=_rep_order)))


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


def _unit_pow(t: int, u: int, dabs: int, k: int) -> tuple[int, int]:
    # (t + u*sqrt(dabs))^k by binary powering
    rt, ru = 1, 0
    bt, bu = t, u
    while k:
        if k & 1:
            rt, ru = rt * bt + dabs * ru * bu, rt * bu + ru * bt
        bt, bu = bt * bt + dabs * bu * bu, 2 * bt * bu
        k >>= 1
    return rt, ru


def solve_with_conditions(
    problem: FormProblem, limit: int = DEFAULT_TRIAL_DIVISION_LIMIT
) -> tuple[tuple[int, int, int] | None, PellCertificate]:
    """Search for a solution meeting the side conditions.

    Returns ((x, y, branch), certificate) on a hit, (None, certificate) for a
    verified NONE.  For the indefinite kind each representative's orbit is
    walked modulo the condition modulus with cycle detection, so NONE means
    every solution class was examined exhaustively.
    """
    d, n, m = problem.d, problem.n, problem.modulus
    dabs = -d
    if d > 0 or isqrt(dabs) ** 2 == dabs:
        if d > 0:
            cert = PellCertificate(DEFINITE, None, tuple(solve_definite(d, n)))
        else:
            cert = PellCertificate(DEGENERATE, None, tuple(solve_degenerate(d, n, limit)))
        for x, y in cert.representatives:
            branch = problem.accepts(x, y)
            if branch is not None:
                return (x, y, branch), cert
        return None, cert

    cert = solve_indefinite(d, n)
    t, u = cert.fundamental
    tm, um = t % m, u % m
    dm = dabs % m
    longest = 0
    for x0, y0 in cert.representatives:
        sx, sy = x0 % m, y0 % m
        start = (sx, sy)
        k = 0
        while True:
            branch = problem.accepts(sx, sy)
            if branch is not None:
                tk, uk = _unit_pow(t, u, dabs, k)
                x, y = tk * x0 + dabs * uk * y0, uk * x0 + tk * y0
                if x * x - dabs * y * y != n:
                    raise AssertionError(f"({x}, {y}) does not solve x^2 - {dabs}*y^2 = {n}")
                return (x, y, branch), cert
            sx, sy = (tm * sx + dm * um * sy) % m, (um * sx + tm * sy) % m
            k += 1
            if (sx, sy) == start:
                longest = max(longest, k)
                break
            if k > m * m + 1:  # unreachable: the map is a bijection mod m
                raise AssertionError("orbit walk failed to cycle")
    return None, PellCertificate(
        cert.kind, cert.fundamental, cert.representatives, longest or None
    )
