import json
import random
from functools import lru_cache
from math import isqrt
from pathlib import Path

import pytest

from cubicha import quadrep
from cubicha.arith import DEFAULT_TRIAL_DIVISION_LIMIT as LIMIT
from cubicha.assocorder import CASE1, classify
from cubicha.cubicfield import validate
from cubicha.errors import DegenerateFormError, FactorizationLimitError, ValidationError
from cubicha.freeness import _RHS_FACTOR, NOT_FREE, decide_freeness
from cubicha.quadrep import (
    DEFINITE,
    DEGENERATE,
    INDEFINITE,
    FormProblem,
    pell_fundamental,
    solve_definite,
    solve_degenerate,
    solve_indefinite,
    solve_with_conditions,
    _nagell_room,
    _normalize_rep,
    _principal_cycle,
)
from cubicha.selfcheck import periodic_sqrt_cf


def _pqa_candidates(d, z, q0):
    """Referee: the PQa expansion of (z + sqrt(d))/q0 (q0 | z^2 - d), walked
    with its convergents until it is back at its first reduced state at the
    same step parity; every (G, B, G^2 - d*B^2) seen at a |Q| = 1 event."""
    s = isqrt(d)
    p, q = z, q0
    g2, g1 = -z, q0
    b2, b1 = 1, 0
    r = -1  # step of the first reduced state (pr, qr), once it is seen
    i = 0
    out = []
    while True:
        a = (p + s) // q if q > 0 else (-p - s - 1) // (-q)
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


def referee_representatives(dabs, n):
    """Referee for solve_indefinite: every square root z of dabs modulo
    |n/f^2|, found by scanning all residues, gets its own full PQa walk."""
    t, u = next((abs(g), abs(b)) for g, b, v in _pqa_candidates(dabs, 0, 1) if v == 1)
    reps = set()
    f = 1
    while f * f <= abs(n):
        if n % (f * f) == 0:
            m = n // (f * f)
            am = abs(m)
            for z in range(-((am - 1) // 2), am // 2 + 1):
                if (z * z - dabs) % am == 0:
                    for g, b, v in _pqa_candidates(dabs, z, am):
                        if v == m:
                            x, y = _normalize_rep(dabs, t, u, f * g, f * b)
                            reps |= {(x, y), (-x, y), (x, -y), (-x, -y)}
        f += 1
    return (t, u), reps


def brute_box(dabs, n, box):
    # oracle: exhaustive search of x^2 - dabs*y^2 = n with |x|, |y| <= box
    out = set()
    for y in range(-box, box + 1):
        r = n + dabs * y * y
        if r < 0:
            continue
        x = isqrt(r)
        if x * x == r and x <= box:
            out.add((x, y))
            out.add((-x, y))
    return out


def orbit_closure(cert, dabs, n, box):
    t, u = cert.fundamental
    cap = (2 * t + 2 * dabs * u) * (box + 10) + abs(n)
    seen, out = set(), set()
    stack = list(cert.representatives)
    while stack:
        x, y = stack.pop()
        if (x, y) in seen:
            continue
        seen.add((x, y))
        if abs(x) <= box and abs(y) <= box:
            out.add((x, y))
        for sgn in (1, -1):
            nx, ny = t * x + sgn * dabs * u * y, sgn * u * x + t * y
            if abs(nx) <= cap and abs(ny) <= cap:
                stack.append((nx, ny))
    return out


class TestSolveDefinite:
    def test_example_243(self):
        sols = set(solve_definite(243, 324))
        assert sols == {(18, 0), (-18, 0), (9, 1), (-9, 1), (9, -1), (-9, -1)}

    def test_negative_target_empty(self):
        assert solve_definite(243, -324) == []

    def test_example_12_12(self):
        assert set(solve_definite(12, 12)) == {(0, 1), (0, -1)}

    def test_matches_enumeration(self):
        rng = random.Random(0)
        for _ in range(150):
            d = rng.randint(1, 400)
            n = rng.randint(-2000, 2000)
            if n == 0:
                continue
            got = set(solve_definite(d, n))
            want = set()
            y = 0
            while d * y * y <= max(n, 0):
                r = n - d * y * y
                if r >= 0:
                    x = isqrt(r)
                    if x * x == r:
                        want |= {(x, y), (-x, y), (x, -y), (-x, -y)}
                y += 1
            assert got == want, (d, n)


def odd_period(d):
    # the parity of the period of sqrt(d), from the referee
    return len(periodic_sqrt_cf(d)[1]) % 2 == 1


def assert_refused(call, d):
    # an odd period of sqrt(d) is refused, by an explicit raise naming d
    with pytest.raises(ValueError, match=rf"^sqrt\({d}\) has an odd period"):
        call()


class TestPellFundamental:
    def test_frozen_values(self):
        assert pell_fundamental(69) == (7775, 936)
        assert pell_fundamental(405) == (161, 8)
        assert pell_fundamental(3) == (2, 1)
        assert_refused(lambda: pell_fundamental(2), 2)

    def test_verifies(self):
        # 2, 61 and 109 have odd periods
        for d in (69, 405, 2, 61, 109):
            if odd_period(d):
                assert_refused(lambda: pell_fundamental(d), d)
                continue
            t, u = pell_fundamental(d)
            assert t * t - d * u * u == 1

    def test_minimality_small(self):
        # 2, 5, 10 and 13 have odd periods
        for d in (2, 3, 5, 6, 7, 10, 13):
            if odd_period(d):
                assert_refused(lambda: pell_fundamental(d), d)
                continue
            t, u = pell_fundamental(d)
            uu = 1
            while True:
                tt = isqrt(1 + d * uu * uu)
                if tt * tt == 1 + d * uu * uu:
                    break
                uu += 1
            assert (t, u) == (tt, uu)

    def test_square_rejected(self):
        with pytest.raises(DegenerateFormError):
            pell_fundamental(36)

    def test_period_past_int64(self):
        # sqrt(k^2 - 1) = [k - 1; 1, 2k - 2]: a two-step period whose
        # entries (up to 2s) do not fit 64 bits
        k = 2**70
        d = k * k - 1
        assert periodic_sqrt_cf(d) == (k - 1, (1, 2 * k - 2))
        assert pell_fundamental(d) == (k, 1)
        assert set(solve_indefinite(-d, 1).representatives) == {(1, 0), (-1, 0)}
        reps = set(solve_indefinite(-d, 2 - 2 * k).representatives)
        assert reps == {(k - 1, 1), (1 - k, 1), (k - 1, -1), (1 - k, -1)}

    def test_matches_period_end_convergent(self):
        # referee: the convergent of sqrt(d) at the end of its first period
        # solves t^2 - d*u^2 = (-1)^L for period length L, and is the least
        # norm +1 solution when L is even; an odd L is refused
        odd = 0
        for d in range(2, 2000):
            if isqrt(d) ** 2 == d:
                continue
            a0, period = periodic_sqrt_cf(d)
            if len(period) % 2:
                assert_refused(lambda: pell_fundamental(d), d)
                odd += 1
                continue
            h0, h1, k0, k1 = 1, a0, 0, 1
            for a in period[:-1]:
                h0, h1 = h1, a * h1 + h0
                k0, k1 = k1, a * k1 + k0
            assert pell_fundamental(d) == (h1, k1), d
        assert odd > 100


def full_period_walk(d):
    """Referee for _principal_cycle: (s, ps, qs, quots) walked state by state
    over the whole period, up to the state with Q = 1."""
    s = isqrt(d)
    ps, qs, quots = [], [], []
    p, q = s, d - s * s
    while True:
        a = (p + s) // q
        ps.append(p)
        qs.append(q)
        quots.append(a)
        if q == 1:
            return s, ps, qs, quots
        p = a * q - p
        q = (d - p * p) // q


def scanned_roots(d, m):
    """The z <= m/2 with z^2 = d mod m, by a scan of the residues."""
    return [z for z in range(m // 2 + 1) if (z * z - d) % m == 0]


@lru_cache(maxsize=4096)
def scanned_prime_power_roots(d, q):
    """The w in [0, q) with w^2 = d mod q, by a scan of the residues."""
    return [w for w in range(q) if (w * w - d) % q == 0]


def joined_roots(d, m):
    """The z <= m/2 with z^2 = d mod m: the roots modulo each prime power of
    m, by a scan of its residues, joined by the CRT; for moduli too large
    to scan whole."""
    roots, n, rest, p = [0], 1, m, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        q = 1
        while rest % p == 0:
            rest //= p
            q *= p
        if q > 1:
            local = scanned_prime_power_roots(d % q, q)
            roots = [r + n * ((w - r) * pow(n, -1, q) % q) for r in roots for w in local]
            n *= q
        p += 1
    return sorted(z for z in roots if z <= m // 2)


def referee_located_roots(d, targets, roots=scanned_roots):
    """Referee for _located_roots, for each |N| of targets: every f^2 | |N|
    and every z <= m/2 with z^2 = d mod m = |N|/f^2, from ``roots``, walked
    by the PQa step to its first reduced state, which is looked up in a dict
    of the states of full_period_walk."""
    s, ps, qs, _ = full_period_walk(d)
    where = {state: i for i, state in enumerate(zip(ps, qs))}
    out = {}
    for nabs in targets:
        found = []
        f = 1
        while f * f <= nabs:
            m = nabs // (f * f)
            for z in roots(d, m) if nabs % (f * f) == 0 else ():
                p, q, pre = z, m, []
                while True:
                    a = (p + s) // q if q > 0 else (-p - s - 1) // (-q)
                    pre.append(a)
                    p = a * q - p
                    q = (d - p * p) // q
                    if 0 < p <= s and s - p < q <= s + p:
                        break
                if (p, q) in where:
                    found.append((f, z, tuple(pre), where[p, q]))
            f += 1
        out[nabs] = sorted(found)
    return out


def rebuilt_period(d):
    """(s, ps, qs, quots) of the whole period, rebuilt from the half that
    _principal_cycle stores: Q and the quotients of position i >= h read
    from position L - 2 - i, the state (s, 1) last, and every P from
    P_k^2 + Q_(k-1) Q_k = d, which must be an exact square.  An odd period
    gives the message of its refusal instead."""
    try:
        c = _principal_cycle(d)
    except ValueError as exc:
        return str(exc)
    h, period = len(c.qs), c.period
    stored = list(range(h)) + [period - 2 - i for i in range(h, period - 1)]
    qs = [c.qs[j] for j in stored] + [1]
    quots = [c.quots[j] for j in stored] + [2 * c.s]
    ps = []
    for q_prev, q in zip([1] + qs, qs):
        p = isqrt(d - q_prev * q)
        assert p * p == d - q_prev * q, (d, len(ps))
        ps.append(p)
    return c.s, ps, qs, quots


def walked_period(d):
    """full_period_walk(d) when the period is even, else the refusal that
    _principal_cycle must give."""
    walk = full_period_walk(d)
    if len(walk[3]) % 2:
        return f"sqrt({d}) has an odd period, which no |D| = 3*|delta| has"
    return walk


class TestPrincipalCycle:
    def test_small_d_both_parities(self):
        # even periods are rebuilt, odd ones refused
        parities = set()
        for d in range(2, 20000):
            if isqrt(d) ** 2 != d:
                assert rebuilt_period(d) == walked_period(d), d
                parities.add(len(full_period_walk(d)[3]) % 2)
        assert parities == {0, 1}

    def test_period_one(self):
        # sqrt(s^2 + 1) = [s; 2s]: the period 1 is odd, and refused
        for s in (1, 2, 3, 10, 999, 2**31, 2**70):
            d = s * s + 1
            assert full_period_walk(d) == (s, [s], [1], [2 * s]), s
            assert rebuilt_period(d) == walked_period(d), s

    def test_multiples_of_3_have_even_periods(self):
        # the fact the solver rests on: -1 is not a square mod 3, so no
        # d = 3m has t^2 - d*u^2 = -1, and every period is even
        walks = 0
        for m in range(1, 20000):
            d = 3 * m
            if isqrt(d) ** 2 != d:
                period = len(full_period_walk(d)[3])
                assert period % 2 == 0, d
                assert _principal_cycle(d).period == period, d
                walks += 1
        assert walks == 19918

    @pytest.mark.slow
    def test_seeded_large_d(self):
        rng = random.Random(1108)
        done = 0
        while done < 300:
            d = rng.randint(10**8, 10**11)
            if isqrt(d) ** 2 != d:
                assert rebuilt_period(d) == walked_period(d), d
                done += 1

    def test_list_storage(self):
        # 2s does not fit 64 bits; the entries are plain lists all the same
        d = 2**140 - 1
        c = _principal_cycle(d)
        assert type(c.qs) is type(c.quots) is list
        assert rebuilt_period(d) == full_period_walk(d)

    def test_stores_half_the_period_and_no_p(self):
        # the entry's fields are named, none holds P, and the walk keeps
        # L/2 values of Q and of the quotients; an odd L is refused
        sizes = set()
        for d in [*range(2, 3000), 2**140 - 1, 2**140 + 1, 10**10 + 19]:
            if isqrt(d) ** 2 == d:
                continue
            period = len(full_period_walk(d)[3])
            if period % 2:
                assert_refused(lambda: _principal_cycle(d), d)
                sizes.add((1, "refused"))
                continue
            c = _principal_cycle(d)
            assert c._fields == ("s", "qs", "quots", "unit", "tree", "period")
            assert c.period == period, d
            assert len(c.qs) == len(c.quots) == period // 2, d
            sizes.add((0, True))
        assert sizes == {(0, True), (1, "refused")}


class TestLocatedRoots:
    @staticmethod
    def check(d, targets, seen, roots=scanned_roots):
        # an odd period, by the referee, is refused for every target
        if len(full_period_walk(d)[3]) % 2:
            for nabs in targets:
                assert_refused(lambda: quadrep._located_roots(d, nabs, LIMIT), d)
            seen["refused"] += 1
            return
        want = referee_located_roots(d, targets, roots)
        h = len(_principal_cycle(d).qs)
        for nabs in targets:
            got = quadrep._located_roots(d, nabs, LIMIT)
            assert sorted(got) == want[nabs], (d, nabs)
            for *_, c in got:
                seen["first half" if c < h else "second half"] += 1

    def test_small_d(self):
        # every nonsquare d < 3000, with targets that have roots: 1 (the
        # state (s, d - s^2)), (s + 1)^2 - d, 4(d - s^2), and products of
        # small primes with square factors
        seen = {"first half": 0, "second half": 0, "refused": 0}
        for d in range(2, 3000):
            s = isqrt(d)
            if s * s != d:
                self.check(d, (1, 12, 108, 900, (s + 1) ** 2 - d, 4 * (d - s * s)), seen)
        assert min(seen["first half"], seen["second half"]) > 5000 and seen["refused"] > 100, seen

    @pytest.mark.slow
    def test_seeded_large_d(self):
        rng = random.Random(1300)
        seen = {"first half": 0, "second half": 0, "refused": 0}
        done = 0
        while done < 300:
            d = rng.randint(10**5, 10**10)
            if isqrt(d) ** 2 != d:
                self.check(d, (1, 12, 108, rng.randint(2, 5000)), seen)
                done += 1
        assert min(seen["first half"], seen["second half"]) > 50 and seen["refused"] > 10, seen

    def test_freeness_problems_of_the_benchmark_square(self):
        # real traffic: every indefinite problem that decide_freeness poses
        # on [-20,20]^2, |N| = 12|a|g, 36|a|g or 108|a|g: a scan of that
        # square locates roots 507 times, for 503 distinct (|D|, |N|)
        targets = {}
        for prob in freeness_problems(-20, 20):
            dabs = -prob.d
            if dabs > 0 and isqrt(dabs) ** 2 != dabs:
                targets.setdefault(dabs, set()).add(abs(prob.n))
        assert sum(map(len, targets.values())) == 503
        seen = {"first half": 0, "second half": 0, "refused": 0}
        for d, nabs in targets.items():
            self.check(d, sorted(nabs), seen)
        assert min(seen["first half"], seen["second half"]) > 600 and seen["refused"] == 0, seen

    @pytest.mark.slow
    def test_seeded_targets_sharing_factors_with_d(self):
        # |N| = 2^i * 3^j * k, i, j <= 10, with k a multiple of a divisor of
        # d = 3m, so that many roots meet a prime power of |N| that also
        # divides d; the referee scans each prime power, not all of m
        rng = random.Random(2020)
        seen = {"first half": 0, "second half": 0, "refused": 0}
        done = 0
        while done < 40:
            d = 3 * rng.choice((1, 2, 3, 4, 8, 9, 27)) * rng.randint(1, 3000)
            if isqrt(d) ** 2 == d:
                continue
            shared = [e for e in range(1, 1000) if d % e == 0]
            targets = [
                2 ** rng.randint(0, 10) * 3 ** rng.randint(0, 10) * rng.choice(shared) * rng.randint(1, 20)
                for _ in range(3)
            ]
            self.check(d, targets, seen, joined_roots)
            done += 1
        assert min(seen["first half"], seen["second half"]) > 50 and seen["refused"] == 0, seen

    def test_period_shapes(self):
        # period 1 (d = s^2 + 1) and other odd periods, refused; even
        # periods, and 2s past 64 bits
        parities = set()
        for d in (2, 5, 13, 61, 3, 7, 69, 405, 10**6 + 1, 2**140 + 1, 2**140 - 1, 2**140 - 2**71):
            self.check(d, range(1, 60), {"first half": 0, "second half": 0, "refused": 0})
            parities.add(len(full_period_walk(d)[3]) % 2)
        assert parities == {0, 1}


def test_solution_certificates_raise_under_optimize(run_optimized):
    # two d whose square root has an odd period, which the solver refuses;
    # a zero target, to the solver and to FormProblem; problems outside the
    # hypotheses under which the side condition is constant on an orbit (6
    # does not divide -7 + 81; 3 does not divide d; 3 does not divide n);
    # then a bogus point (1, 1) read off the cycle for x^2 - 7y^2 = 9, then
    # a bogus representative (3, 1) of x^2 - 69y^2 = 12 that the side
    # condition accepts at once; then a stored Q of the cycle of sqrt(45)
    # corrupted from 5 to 4, which without the check on P would move the
    # root (1, 0) of 9 from position 3 of the cycle to position 2
    out = run_optimized(
        "from cubicha import quadrep\n"
        "for call in (lambda: quadrep.pell_fundamental(2), lambda: quadrep.solve_indefinite(-13, 4)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print('raised:', exc)\n"
        "for call in (lambda: quadrep.solve_indefinite(-69, 0),\n"
        "             lambda: quadrep.FormProblem(d=-69, n=0, modulus=6, ycoef=9),\n"
        "             lambda: quadrep.FormProblem(d=-7, n=9, modulus=6, ycoef=9),\n"
        "             lambda: quadrep.FormProblem(d=-7, n=3, modulus=6, ycoef=1, require_y_not_div3=True),\n"
        "             lambda: quadrep.FormProblem(d=-69, n=4, modulus=6, ycoef=9, require_y_not_div3=True)):\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError as exc:\n"
        "        print('raised:', exc)\n"
        "orig = quadrep._cycle_points\n"
        "quadrep._cycle_points = lambda dabs, nabs, limit: orig(dabs, nabs, limit) + ((1, 1, 1, 1 - dabs),)\n"
        "try:\n"
        "    quadrep.solve_indefinite(-7, 9)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
        "quadrep._cycle_points = orig\n"
        "quadrep.solve_indefinite = lambda d, n, limit: quadrep.PellCertificate(\n"
        "    quadrep.INDEFINITE, (7775, 936), ((3, 1),))\n"
        "try:\n"
        "    quadrep.solve_with_conditions(quadrep.FormProblem(d=-69, n=12, modulus=6, ycoef=9))\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
        "quadrep._principal_cycle(45).qs[2] -= 1\n"
        "try:\n"
        "    quadrep._located_roots(45, 9, quadrep.DEFAULT_TRIAL_DIVISION_LIMIT)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    assert out.splitlines() == [
        "raised: sqrt(2) has an odd period, which no |D| = 3*|delta| has",
        "raised: sqrt(13) has an odd period, which no |D| = 3*|delta| has",
        "raised: solve_indefinite needs d < 0, n != 0, got d = -69, n = 0",
        "raised: FormProblem needs d, n != 0, got d = -69, n = 0",
        "raised: FormProblem modulus 6 does not divide d + ycoef^2 = 74",
        "raised: FormProblem with 3 not dividing y needs 3 | d and 3 | n, got d = -7, n = 3",
        "raised: FormProblem with 3 not dividing y needs 3 | d and 3 | n, got d = -69, n = 4",
        "raised: (1, 1) does not solve x^2 - 7*y^2 = 9",
        "raised: (3, 1) does not solve x^2 - 69*y^2 = 12",
        "raised: Q = 4 at position 3 of the cycle of sqrt(45) has no P",
    ], out


class TestSolveIndefinite:
    def test_example_69(self):
        cert = solve_indefinite(-69, 12)
        assert cert.kind == INDEFINITE
        assert cert.fundamental == (7775, 936)
        assert (9, 1) in cert.representatives
        for x, y in cert.representatives:
            assert x * x - 69 * y * y == 12

    def test_example_405(self):
        cert = solve_indefinite(-405, 324)
        assert (27, 1) in cert.representatives
        assert (18, 0) in cert.representatives

    def test_zero_target_rejected(self):
        with pytest.raises(AssertionError):
            solve_indefinite(-69, 0)

    def test_automorph_closure(self):
        cert = solve_indefinite(-69, 12)
        t, u = cert.fundamental
        for x, y in cert.representatives:
            nx, ny = t * x + 69 * u * y, u * x + t * y
            assert nx * nx - 69 * ny * ny == 12

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(42)
        box = 2000
        problems = []
        while len(problems) < 60:
            d = rng.randint(2, 500)
            if isqrt(d) ** 2 == d:
                continue
            n = rng.randint(-(10**4), 10**4)
            if n == 0:
                continue
            problems.append((d, n))
        # sqrt(d) has an odd period for these d, so t^2 - d*u^2 = -1 is
        # solvable; such a d is refused, as no |D| = 3*|delta| has one
        problems += [(d, n) for d in (2, 5, 10, 13, 29, 61) for n in range(-50, 51) if n]
        for d, n in problems:
            if odd_period(d):
                assert_refused(lambda: solve_indefinite(-d, n), d)
                continue
            cert = solve_indefinite(-d, n)
            assert orbit_closure(cert, d, n, box) == brute_box(d, n, box), (d, n)

    @pytest.mark.slow
    def test_matches_full_walk_referee(self):
        # every nonsquare d < 100 with 1 <= |n| <= 60 (d = 2, 5, 10, 13, 29,
        # 61 among them have odd periods, and are refused), then seeded
        # larger problems
        problems = [(d, n) for d in range(2, 100) for n in range(-60, 61) if n and isqrt(d) ** 2 != d]
        rng = random.Random(2024)
        while len(problems) < 10800 + 120:
            d, n = rng.randint(2, 20000), rng.randint(-200000, 200000)
            if n and isqrt(d) ** 2 != d:
                problems.append((d, n))
        # each way a point is read off the cycle (see quadrep._cycle_points):
        # the hit from the transposed prefix P(L-1-c0)^T and its orbit point
        # from the inverted prefix P(c0)^-1; and the refusal of an odd period
        built = {"transposed": 0, "inverted": 0, "refused": 0}
        for d, n in problems:
            if odd_period(d):
                assert_refused(lambda: solve_indefinite(-d, n), d)
                built["refused"] += 1
                continue
            cert = solve_indefinite(-d, n)
            assert (cert.fundamental, set(cert.representatives)) == referee_representatives(d, n), (d, n)
            last = _principal_cycle(d).period - 1
            for *_, c0 in quadrep._located_roots(d, abs(n), LIMIT):
                built["transposed" if c0 >= last - c0 else "inverted"] += 1
        assert min(built.values()) >= 100, built

    def test_both_signs_share_one_cycle_unit_and_root_location(self, monkeypatch):
        # a NOT_FREE field solves x^2 + 3*delta*y^2 = +-N: |N| is factored,
        # the principal cycle walked (with the unit built in that walk) and
        # the roots located once, for both signs
        calls = {"factorize": [], "cycle": 0, "roots": 0}
        factorize = quadrep.factorize

        def counting_factorize(n, *args):
            calls["factorize"].append(abs(n))
            return factorize(n, *args)

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(quadrep, "factorize", counting_factorize)
        cycle = counting("cycle", quadrep._principal_cycle.__wrapped__)
        monkeypatch.setattr(quadrep, "_principal_cycle", lru_cache(maxsize=2)(cycle))
        # _located_roots has no cache of its own: the one of _cycle_points,
        # its one caller, shares it between the signs
        monkeypatch.setattr(quadrep, "_located_roots", counting("roots", quadrep._located_roots))
        # empty caches, so that no earlier test answers for the solver
        for name in ("_cycle_points", "_indefinite_certificate"):
            monkeypatch.setattr(quadrep, name, lru_cache(maxsize=2)(getattr(quadrep, name).__wrapped__))
        rep = decide_freeness(validate(-792, 209))
        assert rep.verdict == NOT_FREE
        (rhs, plus), (minus_rhs, minus) = rep.pell
        assert minus_rhs == -rhs and plus.kind == minus.kind == INDEFINITE
        assert calls == {"factorize": [abs(rhs)], "cycle": 1, "roots": 1}
        # one unit: a second product tree would make a second int object
        assert plus.fundamental[0] is minus.fundamental[0]

    def test_hits_need_no_product_past_the_half_period(self, monkeypatch):
        # from empty caches, the quotients multiplied one at a time (the
        # tree's leaves and the row steps) are those of the unit's half
        # period, each root's pre-period and at most one partial run of
        # _LEAF per root: a hit's prefix comes from the unit's tree, not from
        # a product over its own stretch.  A leaf steps the rows (1, 0) and
        # (0, 1) through the same run, and its quotients count once
        fed, roots, located, in_tree = [0], [], [], [False]
        tree, steps, locate = quadrep._cf_tree, quadrep._row_steps, quadrep._located_roots

        def marking_tree(quots):
            in_tree[0] = True
            try:
                return tree(quots)
            finally:
                in_tree[0] = False

        def counting_steps(row, quots):
            if not in_tree[0] or row == (1, 0):
                fed[0] += len(quots)
            return steps(row, quots)

        def recording(d, nabs, limit):
            found = locate(d, nabs, limit)
            located.append((d, nabs))
            roots.extend(found)
            return found

        monkeypatch.setattr(quadrep, "_cf_tree", marking_tree)
        monkeypatch.setattr(quadrep, "_row_steps", counting_steps)
        monkeypatch.setattr(quadrep, "_located_roots", recording)
        for a, b in ((-315, 471), (-672, -830)):
            for fn in list(vars(quadrep).values()):
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
            fed[0] = 0
            roots.clear()
            located.clear()
            decide_freeness(validate(a, b))
            # one root location for the one (|D|, |N|), whatever the signs solved
            ((d, _),) = located
            period = _principal_cycle(d).period
            bound = -(-period // 2) + sum(len(pre) + quadrep._LEAF for _, _, pre, _ in roots)
            assert 0 < fed[0] <= bound, (a, b, period, fed[0], bound)

    def test_factorization_limit_surfaces(self):
        # the roots z come from the factorization of the target, so a target
        # the default budget cannot split raises rather than answering
        with pytest.raises(FactorizationLimitError):
            solve_indefinite(-7, 1000000000039 * 1000000000061)

    def test_empty_certificate_means_empty(self):
        # x^2 - 7y^2 = 3 has no solutions (3 is not a QR pattern mod 7 orbits)
        cert = solve_indefinite(-7, 3)
        assert cert.representatives == ()
        assert brute_box(7, 3, 500) == set()


class TestSolveDegenerate:
    def test_example_k3(self):
        sols = solve_degenerate(-9, 27)
        assert (6, 1) in sols
        for x, y in sols:
            assert x * x - 9 * y * y == 27

    def test_example_k1(self):
        assert (3, 2) in solve_degenerate(-1, 5)

    def test_complete_via_enumeration(self):
        for d, n in [(-9, 27), (-1, 5), (-36, 720), (-4, -32), (-25, 100)]:
            k = isqrt(-d)
            got = set(solve_degenerate(d, n))
            want = set()
            for y in range(-abs(n) - 1, abs(n) + 2):
                r = n + k * k * y * y
                if r < 0:
                    continue
                x = isqrt(r)
                if x * x == r:
                    want |= {(x, y), (-x, y)}
            assert got == want, (d, n)

    def test_factorization_limit_surfaces(self):
        n = 1000003 * 1000033
        with pytest.raises(FactorizationLimitError) as exc:
            solve_degenerate(-1, n, limit=1000)
        assert exc.value.limit == 1000


def unit_pow(t, u, dabs, k):
    """(t + u*sqrt(dabs))^k by binary powering."""
    rt, ru = 1, 0
    bt, bu = t, u
    while k:
        if k & 1:
            rt, ru = rt * bt + dabs * ru * bu, rt * bu + ru * bt
        bt, bu = bt * bt + dabs * bu * bu, 2 * bt * bu
        k >>= 1
    return rt, ru


def referee_orbit_walk(problem, cert):
    """Referee for solve_with_conditions in the indefinite regime: every
    representative's orbit walked modulo the condition modulus until it
    cycles, and the first accepted state, in the order of the
    representatives and then of the power k of the unit, rebuilt exactly
    by powering the unit.  Returns that match (or None) and, for each
    representative, the verdicts of problem.accepts along its orbit."""
    dabs, n, m = -problem.d, problem.n, problem.modulus
    t, u = cert.fundamental
    tm, um, dm = t % m, u % m, dabs % m
    orbits, match = [], None
    for x0, y0 in cert.representatives:
        start = sx, sy = x0 % m, y0 % m
        verdicts = []
        while True:
            branch = problem.accepts(sx, sy)
            if branch is not None and match is None:
                tk, uk = unit_pow(t, u, dabs, len(verdicts))
                x, y = tk * x0 + dabs * uk * y0, uk * x0 + tk * y0
                assert x * x - dabs * y * y == n
                match = (x, y, branch)
            verdicts.append(branch)
            sx, sy = (tm * sx + dm * um * sy) % m, (um * sx + tm * sy) % m
            if (sx, sy) == start:
                break
            assert len(verdicts) <= m * m, "the automorph is a bijection mod m"
        orbits.append(verdicts)
    return match, orbits


def field_problems(fields):
    """The FormProblem of each sign of the target that decide_freeness poses
    for every valid field (a, b) of ``fields``."""
    for a, b in fields:
        try:
            k = validate(a, b)
        except ValidationError:
            continue
        major = classify(k).major
        base = _RHS_FACTOR[major] * a * k.g
        for n in (base, -base):
            yield FormProblem(
                d=3 * k.delta, n=n, modulus=6 * abs(a), ycoef=9 * b, require_y_not_div3=major == CASE1
            )


def freeness_problems(lo, hi):
    """field_problems of every (a, b) with lo <= a, b <= hi."""
    return field_problems((a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1))


class TestConditionConstantOnOrbits:
    def test_orbit_walk_referee_on_freeness_problems(self):
        # every indefinite problem of [-20,20]^2, both signs: the walk of
        # each orbit modulo 6|a| finds the solver's match, and acceptance,
        # with its branch, is the same at every state of every orbit
        seen = {"match": 0, "none": 0, "y3": 0, "orbit > 1": 0}
        for p in freeness_problems(-20, 20):
            if p.d > 0 or isqrt(-p.d) ** 2 == -p.d:
                continue
            match, cert = solve_with_conditions(p)
            want, orbits = referee_orbit_walk(p, cert)
            assert match == want, p
            for rep, verdicts in zip(cert.representatives, orbits):
                assert set(verdicts) == {p.accepts(*rep)}, (p, rep)
                seen["orbit > 1"] += len(verdicts) > 1
            seen["match" if match else "none"] += 1
            seen["y3"] += p.require_y_not_div3 and match is not None
        assert min(seen.values()) >= 100, seen

    def test_linear_form_identity_on_seeded_points(self):
        # l_s(A v) = (t + s*c*u) l_s(v) + s*u*(|D| - c^2)*y exactly, for
        # l_s(x, y) = c*y + s*x, c = 9b, |D| = 81b^2 - 12a^3 and the unit
        # (t, u) of |D|; 6|a| divides the last term, and the multiplier is a
        # unit modulo 6|a|
        rng = random.Random(14)
        done = 0
        while done < 200:
            a, b = rng.randint(-60, 60), rng.randint(-60, 60)
            dabs = 81 * b * b - 12 * a**3
            if a == 0 or dabs <= 0 or isqrt(dabs) ** 2 == dabs:
                continue
            t, u = pell_fundamental(dabs)
            m, c = 6 * abs(a), 9 * b
            for _ in range(5):
                x, y = rng.randint(-(10**9), 10**9), rng.randint(-(10**9), 10**9)
                ax, ay = t * x + dabs * u * y, u * x + t * y
                for s in (1, -1):
                    mult = t + s * c * u
                    rest = (c * ay + s * ax) - mult * (c * y + s * x)
                    assert rest == s * u * (dabs - c * c) * y, (a, b, x, y, s)
                    assert rest % m == 0, (a, b, x, y, s)
                    assert mult * (t - s * c * u) % m == 1, (a, b, s)
            done += 1

    def test_problem_outside_the_hypotheses_rejected(self):
        # each of these breaks one hypothesis of the lemma and meets the rest
        for kwargs in (
            dict(d=-69, n=12, modulus=18, ycoef=9),  # 18 does not divide -69 + 81
            dict(d=-7, n=3, modulus=6, ycoef=1, require_y_not_div3=True),  # 3 does not divide d
            dict(d=-69, n=4, modulus=6, ycoef=9, require_y_not_div3=True),  # 3 does not divide n
        ):
            with pytest.raises(AssertionError, match="FormProblem"):
                FormProblem(**kwargs)
            if kwargs.get("require_y_not_div3"):
                FormProblem(**{**kwargs, "require_y_not_div3": False})
        FormProblem(d=-69, n=12, modulus=6, ycoef=9, require_y_not_div3=True)


def sign_closure(points):
    return {(sx * x, sy * y) for x, y in points for sx in (1, -1) for sy in (1, -1)}


def indefinite_problems(problems):
    """The distinct (|D|, N) of the indefinite problems among ``problems``."""
    return sorted({(-p.d, p.n) for p in problems if p.d < 0 and isqrt(-p.d) ** 2 != -p.d})


class TestNagellBound:
    """The hits that Nagell's bound certifies minimal skip _normalize_rep;
    the descent stays the exact referee of every one of them."""

    @staticmethod
    def check(dabs, n, seen):
        # every hit read off the cycle: one that passes the bit test must be
        # its own descent, and the certificate must be the sign closure of
        # the descents of all of them
        t, u = pell_fundamental(dabs)
        room = _nagell_room(t, u, n)
        want = set()
        for f, x, y, v in quadrep._cycle_points(dabs, abs(n), LIMIT):
            if v != n // (f * f):
                continue
            point = (f * x, f * y)
            rep = _normalize_rep(dabs, t, u, *point)
            if 2 * point[1].bit_length() <= room:
                assert rep == point, (dabs, n, point, rep)
                seen["fast"] += 1
            else:
                seen["moved" if rep != point else "exact"] += 1
            want |= sign_closure([rep])
        assert set(solve_indefinite(-dabs, n).representatives) == want, (dabs, n)

    @staticmethod
    def planted(monkeypatch, dabs, n, points):
        """The representatives _indefinite_certificate gives when the cycle
        yields ``points`` (solutions of x^2 - dabs*y^2 = n), and the points
        that took the exact descent."""
        descended = []

        def recording(d, t, u, x, y):
            descended.append((x, y))
            return _normalize_rep(d, t, u, x, y)

        monkeypatch.setattr(quadrep, "_normalize_rep", recording)
        monkeypatch.setattr(
            quadrep, "_cycle_points", lambda d, nabs, limit: tuple((1, x, y, x * x - d * y * y) for x, y in points)
        )
        reps = quadrep._indefinite_certificate.__wrapped__(dabs, n, LIMIT).representatives
        monkeypatch.undo()
        return set(reps), descended

    def test_every_problem_of_the_square_40(self):
        seen = {"fast": 0, "exact": 0, "moved": 0}
        problems = indefinite_problems(freeness_problems(-40, 40))
        for dabs, n in problems:
            self.check(dabs, n, seen)
        assert len(problems) == 3902 and seen["fast"] > 5000 and seen["moved"] > 20, seen

    def test_every_problem_of_the_pell_pool(self):
        pool = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pell.json").read_text())
        fields = [tuple(row[:2]) for row in pool["rows"]] + [tuple(f) for f in pool["over_cap"]]
        seen = {"fast": 0, "exact": 0, "moved": 0}
        for dabs, n in indefinite_problems(field_problems(fields)):
            self.check(dabs, n, seen)
        assert seen["fast"] > 300 and seen["exact"] > 0, seen

    def test_seeded_large_d(self):
        # targets that have solutions: the value at a point near y*sqrt(dabs),
        # times a square
        rng = random.Random(2121)
        seen = {"fast": 0, "exact": 0, "moved": 0}
        done = 0
        while done < 200:
            dabs = 3 * rng.randint(10**4, 10**6)
            if isqrt(dabs) ** 2 == dabs:
                continue
            y = rng.randint(1, 40)
            x = isqrt(dabs * y * y) + rng.randint(-3, 3)
            n = (x * x - dabs * y * y) * rng.choice((1, 4, 9))
            if n:
                self.check(dabs, n, seen)
                done += 1
        assert min(seen.values()) > 0, seen

    def test_points_off_the_minimum_descend(self, monkeypatch):
        # the minimal point of an orbit and the points one and two automorph
        # steps from it, both ways, with their sign flips: only the minimal
        # ones may skip the descent, and the certificate is the same
        fast = 0
        for dabs, n in [(3, 13), (6, 10), (69, 12), (738072, -4212)] + indefinite_problems(freeness_problems(-12, 12)):
            t, u = pell_fundamental(dabs)
            hits = [(f * x, f * y) for f, x, y, v in quadrep._cycle_points(dabs, abs(n), LIMIT) if v == n // (f * f)]
            for x, y in {_normalize_rep(dabs, t, u, *p) for p in hits}:
                off = []
                for sign in (1, -1):
                    px, py = x, y
                    for _ in range(2):
                        px, py = t * px + sign * dabs * u * py, sign * u * px + t * py
                        off.append((px, py))
                points = [(x, y)] + sorted(sign_closure(off))
                reps, descended = self.planted(monkeypatch, dabs, n, points)
                assert reps == sign_closure([(x, y)]), (dabs, n, x, y)
                assert set(descended) >= sign_closure(off), (dabs, n, x, y)
                fast += (x, y) not in descended
        assert fast > 50, fast

    def test_points_at_and_next_to_the_bound(self, monkeypatch):
        # (t + 1, u) solves x^2 - dabs*y^2 = 2(t + 1) and (t - 1, u) solves
        # it for -2(t - 1); each is at the bound, 2(t +- 1)*u^2 = u^2*|N|,
        # where its orbit holds a second point of the same |y|.  Points next
        # to them, and their multiples, lie on either side of the bound and
        # of the bit test, which passes at 2*bits(y) = room and fails at
        # room + 1
        seen = {"fast": 0, "exact": 0, "at the bound": 0, "at the bit test's edge": 0}
        for dabs in (3, 6, 21, 69, 105, 3 * 4999, 3 * 99991):
            t, u = pell_fundamental(dabs)
            for c in (1, -1):
                for k in (1, 2, 3):
                    for dx in range(-3, 4):
                        for dy in (-1, 0, 1):
                            x, y = k * (t + c) + dx, k * u + dy
                            n = x * x - dabs * y * y
                            if n == 0:
                                continue
                            reps, descended = self.planted(monkeypatch, dabs, n, [(x, y)])
                            assert reps == sign_closure([_normalize_rep(dabs, t, u, x, y)]), (dabs, x, y)
                            seen["exact" if descended else "fast"] += 1
                            if 2 * y.bit_length() - _nagell_room(t, u, n) in (0, 1):
                                seen["at the bit test's edge"] += 1
                            if 2 * (t + 1 if n > 0 else t - 1) * y * y == u * u * abs(n):
                                assert descended, (dabs, x, y)
                                seen["at the bound"] += 1
        assert min(seen.values()) >= 20, seen


def test_forced_fast_path_caught_under_optimize(run_optimized):
    # (5, 2) is the hit of x^2 - 3y^2 = 13 that the cycle gives; its orbit's
    # minimal point is (4, -1).  Nagell's bound sends (5, 2) to the descent,
    # under -O too; a bound forced open keeps it, and the descent referee
    # sees the wrong representative
    out = run_optimized(
        "from cubicha import quadrep\n"
        "t, u = quadrep.pell_fundamental(3)\n"
        "limit = quadrep.DEFAULT_TRIAL_DIVISION_LIMIT\n"
        "want = {(sx * x, sy * y) for f, x0, y0, v in quadrep._cycle_points(3, 13, limit) if v == 13\n"
        "        for x, y in [quadrep._normalize_rep(3, t, u, f * x0, f * y0)] for sx in (1, -1) for sy in (1, -1)}\n"
        "for label in ('bound', 'forced'):\n"
        "    got = set(quadrep._indefinite_certificate.__wrapped__(3, 13, limit).representatives)\n"
        "    print(label, sorted(got), 'matches the descent' if got == want else 'differs from the descent')\n"
        "    quadrep._nagell_room = lambda t, u, n: 10**6\n"
    )
    assert out.splitlines() == [
        "bound [(-4, -1), (-4, 1), (4, -1), (4, 1)] matches the descent",
        "forced [(-5, -2), (-5, 2), (5, -2), (5, 2)] differs from the descent",
    ], out


class TestSolveWithConditions:
    def test_worked_instance_1_1(self):
        p = FormProblem(d=-69, n=12, modulus=6, ycoef=9, require_y_not_div3=True)
        match, cert = solve_with_conditions(p)
        assert match is not None
        x, y, branch = match
        assert x * x - 69 * y * y == 12
        assert y % 3 != 0
        assert (9 * y + branch * x) % 6 == 0
        # the hand example: (9, 1) satisfies 6 | 9 + 9
        assert (9 * 1 + 9) % 6 == 0

    def test_worked_instance_3_1(self):
        p = FormProblem(d=243, n=324, modulus=18, ycoef=9)
        match, cert = solve_with_conditions(p)
        assert cert.kind == DEFINITE
        assert match is not None
        x, y, branch = match
        assert x * x + 243 * y * y == 324
        assert (9 * y + branch * x) % 18 == 0
        # the hand example: (9, 1) gives 9 + 9 = 18, divisible by 18
        assert (9 * 1 + 9) % 18 == 0

    def test_worked_instance_6_1_none(self):
        # definite, both 648 and -648 unrepresentable by x^2 + 2511 y^2
        for n in (648, -648):
            p = FormProblem(d=2511, n=n, modulus=36, ycoef=9)
            match, cert = solve_with_conditions(p)
            assert match is None
            assert cert.representatives == ()

    def test_condition_y_not_div3_filters(self):
        # x^2 - 69y^2 = 12 has solutions with y = 0 mod 3 in other orbits;
        # the returned one must respect the filter
        p = FormProblem(d=-69, n=12, modulus=6, ycoef=9, require_y_not_div3=True)
        match, _ = solve_with_conditions(p)
        assert match is not None and match[1] % 3 != 0

    def test_none_reverified_by_exhaustion(self):
        # small indefinite problems reported NONE: check against the box
        # oracle; the problems meet FormProblem's hypotheses, so |d| is
        # drawn congruent to ycoef^2 modulo the modulus
        rng = random.Random(5)
        found = {"match": 0, "none": 0}
        while min(found.values()) < 10:
            modulus = rng.choice([6, 12, 18])
            ycoef = rng.choice([9, 18, 27])
            d = rng.randint(2, 200)
            if isqrt(d) ** 2 == d or (d - ycoef * ycoef) % modulus:
                continue
            n = rng.choice([12, -12, 24, -24, 36, -36])
            p = FormProblem(d=-d, n=n, modulus=modulus, ycoef=ycoef)
            match, cert = solve_with_conditions(p)
            if match is not None:
                x, y, branch = match
                assert x * x - d * y * y == n
                assert (ycoef * y + branch * x) % modulus == 0
            else:
                for x, y in brute_box(d, n, 3000):
                    assert (ycoef * y + x) % modulus != 0
                    assert (ycoef * y - x) % modulus != 0
            found["match" if match else "none"] += 1

    def test_degenerate_route(self):
        # 3*delta = -2916 = -(54^2) for (a, b) = (-6, 2); targets are -+1296
        p = FormProblem(d=-2916, n=1296, modulus=36, ycoef=18)
        match, cert = solve_with_conditions(p)
        assert cert.kind == DEGENERATE
        assert match is not None
        x, y, branch = match
        assert x * x - 2916 * y * y == 1296
        # the opposite sign has no divisor pair meeting the parity constraints
        p_neg = FormProblem(d=-2916, n=-1296, modulus=36, ycoef=18)
        match_neg, cert_neg = solve_with_conditions(p_neg)
        assert cert_neg.kind == DEGENERATE and match_neg is None

    def test_modulus_must_be_divisible_by_6(self):
        with pytest.raises(AssertionError):
            FormProblem(d=-69, n=12, modulus=5, ycoef=9)
