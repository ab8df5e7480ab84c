import random
from functools import lru_cache
from math import isqrt

import pytest

from cubicha import quadrep
from cubicha.arith import periodic_sqrt_cf
from cubicha.cubicfield import validate
from cubicha.errors import DegenerateFormError, FactorizationLimitError
from cubicha.freeness import NOT_FREE, decide_freeness
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
    _normalize_rep,
    _principal_cycle,
)


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


class TestPellFundamental:
    def test_frozen_values(self):
        assert pell_fundamental(69) == (7775, 936)
        assert pell_fundamental(405) == (161, 8)
        assert pell_fundamental(2) == (3, 2)

    def test_verifies(self):
        for d in (69, 405, 2, 61, 109):
            t, u = pell_fundamental(d)
            assert t * t - d * u * u == 1

    def test_minimality_small(self):
        for d in (2, 3, 5, 6, 7, 10, 13):
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
        # entries (up to 2s) do not fit the int64 arrays
        k = 2**70
        d = k * k - 1
        assert periodic_sqrt_cf(d) == (k - 1, (1, 2 * k - 2))
        assert pell_fundamental(d) == (k, 1)
        assert set(solve_indefinite(-d, 1).representatives) == {(1, 0), (-1, 0)}
        reps = set(solve_indefinite(-d, 2 - 2 * k).representatives)
        assert reps == {(k - 1, 1), (1 - k, 1), (k - 1, -1), (1 - k, -1)}

    def test_matches_period_end_convergent(self):
        # referee: the convergent of sqrt(d) at the end of its first period
        # solves t^2 - d*u^2 = (-1)^L for period length L; its square is the
        # least norm +1 solution when L is odd
        odd = 0
        for d in range(2, 2000):
            if isqrt(d) ** 2 == d:
                continue
            a0, period = periodic_sqrt_cf(d)
            h0, h1, k0, k1 = 1, a0, 0, 1
            for a in period[:-1]:
                h0, h1 = h1, a * h1 + h0
                k0, k1 = k1, a * k1 + k0
            if len(period) % 2:
                h1, k1 = h1 * h1 + d * k1 * k1, 2 * h1 * k1
                odd += 1
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


class TestPrincipalCycle:
    @staticmethod
    def mirrored(d):
        s, ps, qs, quots, _ = _principal_cycle(d)
        return s, list(ps), list(qs), list(quots)

    def test_small_d_both_parities(self):
        parities = set()
        for d in range(2, 20000):
            if isqrt(d) ** 2 != d:
                want = full_period_walk(d)
                assert self.mirrored(d) == want, d
                parities.add(len(want[3]) % 2)
        assert parities == {0, 1}

    def test_period_one(self):
        # sqrt(s^2 + 1) = [s; 2s], the last with list storage
        for s in (1, 2, 3, 10, 999, 2**31, 2**70):
            d = s * s + 1
            assert self.mirrored(d) == full_period_walk(d) == (s, [s], [1], [2 * s]), s

    def test_seeded_large_d(self):
        rng = random.Random(1108)
        done = 0
        while done < 300:
            d = rng.randint(10**8, 10**11)
            if isqrt(d) ** 2 != d:
                assert self.mirrored(d) == full_period_walk(d), d
                done += 1

    def test_list_storage(self):
        # 2s does not fit int64, so the arrays are lists
        d = 2**140 - 1
        assert isinstance(_principal_cycle(d)[1], list)
        assert self.mirrored(d) == full_period_walk(d)


def test_solution_certificates_raise_under_optimize(run_optimized):
    # a zero target, to the solver and to FormProblem; then a bogus convergent hit
    # (1, 1) for x^2 - 7y^2 = 9, then a bogus orbit representative (3, 1)
    # that the side condition accepts at once
    out = run_optimized(
        "from cubicha import quadrep\n"
        "for call in (lambda: quadrep.solve_indefinite(-69, 0),\n"
        "             lambda: quadrep.FormProblem(d=-7, n=0, modulus=6, ycoef=9)):\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError as exc:\n"
        "        print('raised:', exc)\n"
        "orig = quadrep._cf_hits\n"
        "quadrep._cf_hits = lambda dabs, z, q0, m, pre, c0: (\n"
        "    orig(dabs, z, q0, m, pre, c0) + ([(1, 1)] if q0 > 1 else []))\n"
        "try:\n"
        "    quadrep.solve_indefinite(-7, 9)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
        "quadrep._cf_hits = orig\n"
        "quadrep.solve_indefinite = lambda d, n: quadrep.PellCertificate(\n"
        "    quadrep.INDEFINITE, (8, 3), ((3, 1),))\n"
        "try:\n"
        "    quadrep.solve_with_conditions(quadrep.FormProblem(d=-7, n=9, modulus=6, ycoef=9))\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    assert out.splitlines() == [
        "raised: solve_indefinite needs d < 0, n != 0, got d = -69, n = 0",
        "raised: FormProblem needs d, n != 0, got d = -7, n = 0",
        "raised: (1, 1) does not solve x^2 - 7*y^2 = 9",
        "raised: (3, 1) does not solve x^2 - 7*y^2 = 9",
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
        # solvable and a PQa hit can carry the wrong sign of n
        problems += [(d, n) for d in (2, 5, 10, 13, 29, 61) for n in range(-50, 51) if n]
        for d, n in problems:
            cert = solve_indefinite(-d, n)
            assert orbit_closure(cert, d, n, box) == brute_box(d, n, box), (d, n)

    def test_matches_full_walk_referee(self):
        # every nonsquare d < 100 with 1 <= |n| <= 60 (d = 2, 5, 10, 13, 29,
        # 61 among them have odd periods), then seeded larger problems
        problems = [(d, n) for d in range(2, 100) for n in range(-60, 61) if n and isqrt(d) ** 2 != d]
        rng = random.Random(2024)
        while len(problems) < 10800 + 120:
            d, n = rng.randint(2, 20000), rng.randint(-200000, 200000)
            if n and isqrt(d) ** 2 != d:
                problems.append((d, n))
        for d, n in problems:
            cert = solve_indefinite(-d, n)
            assert (cert.fundamental, set(cert.representatives)) == referee_representatives(d, n), (d, n)

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
            return lru_cache(maxsize=2)(wrapped)

        monkeypatch.setattr(quadrep, "factorize", counting_factorize)
        monkeypatch.setattr(quadrep, "_principal_cycle", counting("cycle", quadrep._principal_cycle.__wrapped__))
        monkeypatch.setattr(quadrep, "_located_roots", counting("roots", quadrep._located_roots.__wrapped__))
        rep = decide_freeness(validate(-792, 209))
        assert rep.verdict == NOT_FREE
        (rhs, plus), (minus_rhs, minus) = rep.pell
        assert minus_rhs == -rhs and plus.kind == minus.kind == INDEFINITE
        assert calls == {"factorize": [abs(rhs)], "cycle": 1, "roots": 1}
        # one unit: a second product tree would make a second int object
        assert plus.fundamental[0] is minus.fundamental[0]

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
        # small indefinite problems reported NONE: check against the box oracle
        rng = random.Random(5)
        done = 0
        while done < 25:
            d = rng.randint(2, 200)
            if isqrt(d) ** 2 == d:
                continue
            n = rng.choice([12, -12, 24, -24, 36, -36])
            modulus = rng.choice([6, 12, 18])
            ycoef = rng.choice([9, 18, 27])
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
            done += 1

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
