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
    of t^2 - |D|*u^2 = 1.  Orbit representatives are found with the
    continued-fraction method: for every square divisor f^2 | N and every
    square root z of |D| mod |N/f^2|, the PQa expansion of the quadratic
    irrational (z + sqrt(|D|))/|N/f^2| is scanned for |Q| = 1 events, each of
    which yields a solution of x^2 - |D|y^2 = +-N/f^2 via the identity
    G_i^2 - |D|*B_i^2 = (-1)^(i+1) * Q_0 * Q_(i+1).  The scan ends when the
    expansion returns to its first reduced state at the same step parity, so
    an odd period is walked twice and each of its |Q| = 1 states is seen
    with both signs; no norm -1 unit is needed to repair wrong-sign hits.
    For the forms here there is none anyway: 3 divides |D|, and -1 is not a
    square mod 3.  Representatives are normalized to the orbit's
    (|y|, |x|)-minimal point and closed under both sign flips.

Condition checking on an infinite orbit terminates because the conditions
only depend on (x, y) modulo 6|a| (3 divides 6a, so "3 | y" is determined
too): the orbit is walked modulo 6|a| with cycle detection, and an exact
solution is reconstructed by automorph powering only when a state matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import DEFAULT_TRIAL_DIVISION_LIMIT, divisors, factorize
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


def _pqa_candidates(d: int, z: int, q0: int) -> list[tuple[int, int, int]]:
    """PQa expansion of (z + sqrt(d))/q0 (requires q0 | z^2 - d).

    Returns every (G, B, G^2 - d*B^2) observed at a |Q| = 1 event until the
    expansion is back at its first reduced state (0 < P <= s and
    s - P < Q <= s + P) with the same step parity.  The periodic part begins
    at that state, so this is the first repeat of a (P, Q, parity) state; by
    then both achievable signs of the target value have appeared if they
    ever do.
    """
    s = isqrt(d)
    p, q = z, q0
    g2, g1 = -z, q0
    b2, b1 = 1, 0
    r = -1  # step of the first reduced state (pr, qr), once it is seen
    i = 0
    out = []
    while True:
        a = _floor_surd(p, q, s)
        g = a * g1 + g2
        b = a * b1 + b2
        p = a * q - p
        q = (d - p * p) // q
        if abs(q) == 1:
            out.append((g, b, g * g - d * b * b))
        if r < 0:
            if 0 < p <= s and s - p < q <= s + p:
                r, pr, qr = i, p, q
        elif p == pr and q == qr and (i - r) % 2 == 0:
            return out
        g2, g1 = g1, g
        b2, b1 = b1, b
        i += 1


def pell_fundamental(dabs: int) -> tuple[int, int]:
    """Least (t, u), t, u > 0, with t^2 - dabs*u^2 = 1."""
    if isqrt(dabs) ** 2 == dabs:
        raise DegenerateFormError(f"{dabs} is a perfect square")
    for g, b, v in _pqa_candidates(dabs, 0, 1):
        if v == 1:
            return abs(g), abs(b)
    raise AssertionError(f"no fundamental solution surfaced for {dabs}")


def _normalize_rep(dabs: int, t: int, u: int, x: int, y: int) -> tuple[int, int]:
    # descend to the orbit's (|y|, |x|)-minimal point under A and A^-1
    cur = (x, y)
    while True:
        best = cur
        for sgn in (1, -1):
            cand = (t * cur[0] + sgn * dabs * u * cur[1], sgn * u * cur[0] + t * cur[1])
            if (abs(cand[1]), abs(cand[0])) < (abs(best[1]), abs(best[0])):
                best = cand
        if best == cur:
            return cur
        cur = best


def solve_indefinite(d: int, n: int) -> PellCertificate:
    """Complete orbit representatives of x^2 + d*y^2 = n for d < 0, |d| nonsquare.

    An empty representative set is a proof that no solutions exist.
    """
    if d >= 0 or n == 0:
        raise AssertionError(f"solve_indefinite needs d < 0, n != 0, got d = {d}, n = {n}")
    dabs = -d
    if isqrt(dabs) ** 2 == dabs:
        raise DegenerateFormError(f"|d| = {dabs} is a perfect square")
    t, u = pell_fundamental(dabs)
    raw = []
    f = 1
    while f * f <= abs(n):
        if n % (f * f) == 0:
            m = n // (f * f)
            am = abs(m)
            for z in range(-((am - 1) // 2), am // 2 + 1):
                if (z * z - dabs) % am != 0:
                    continue
                for g, b, v in _pqa_candidates(dabs, z, am):
                    if v == m:
                        raw.append((f * g, f * b))
        f += 1
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
