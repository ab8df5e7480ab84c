import hashlib
import json
import random
from math import gcd
from pathlib import Path

import pytest

from cubicha import integrality
from cubicha.arith import factorize, is_prime
from cubicha.assocorder import CASE1, CASE2, CASE3, classify
from cubicha.cubicfield import validate
from cubicha.errors import ValidationError
from cubicha.freeness import FREE, NOT_FREE
from cubicha.integrality import (
    MAXIMAL,
    NOT_MAXIMAL,
    UNDECIDED_FACTORIZATION,
    combined_verdict,
    dedekind_check,
    is_maximal,
)
from cubicha.selfcheck import alaca_condition


def grid(bound):
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a == 0 or b == 0:
                continue
            try:
                yield validate(a, b)
            except ValidationError:
                continue


class TestAlacaCondition:
    def test_worked_rows(self):
        assert alaca_condition(validate(1, 1), 2) == (True, "2a")
        assert alaca_condition(validate(3, 1), 3) == (True, "3d")
        ok, label = alaca_condition(validate(17, 1), 5)
        assert not ok  # v5(delta) = 3 with v5(a) = v5(b) = 0

    def test_vacuous_primes_pass(self):
        for k in [validate(1, 1), validate(6, 1), validate(-5, 7)]:
            for p in (5, 7, 11, 13, 101):
                if k.delta % p != 0:
                    ok, _ = alaca_condition(k, p)
                    assert ok

    def test_non_prime_rejected(self):
        # the public table proves its prime, as the table behind it does not
        k = validate(17, 1)
        for p in (0, 1, 4, 9, 25, 35, -5):
            with pytest.raises(ValueError, match=rf"^alaca_condition requires a prime, got {p}$"):
                alaca_condition(k, p)

    def test_primes_proved_once(self, monkeypatch):
        # alaca_condition proves a p > 3 prime; the table behind it, which
        # is_maximal runs on the primes factorize returned, and validate, on
        # the primes of gcd(a, b), prove none of them again
        from cubicha import arith

        calls = []
        prove = arith.is_prime
        monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or prove(n))
        monkeypatch.setattr(integrality, "is_prime", arith.is_prime)

        def proved(call):
            calls.clear()
            call()
            return list(calls)

        for a, b in ((17, 1), (5**2 * 7**2 * 11, 5**2 * 7 * 13), (-(7**2) * 43**2, 7 * 43**2 * 2)):
            k = validate(a, b)
            assert proved(lambda: validate(a, b)) == proved(lambda: factorize(gcd(a, b))), (a, b)
            integrality._maximality.cache_clear()
            assert proved(lambda: is_maximal(k)) == proved(lambda: factorize(k.delta)), (a, b)
            for p in [2, 3] + [p for p in factorize(a * b * k.delta)[0] if p > 3]:
                assert proved(lambda: alaca_condition(k, p)) == ([p] if p > 3 else []), (a, b, p)
                assert proved(lambda: integrality._table(a, b, k.delta, p)) == [], (a, b, p)


class TestIsMaximal:
    def test_worked_instances(self):
        assert is_maximal(validate(1, 1)).status == MAXIMAL
        rep = is_maximal(validate(17, 1))
        assert rep.status == NOT_MAXIMAL and rep.failing_prime == 5
        assert is_maximal(validate(6, 1)).status == MAXIMAL

    def test_delta_factorization_recorded(self):
        rep = is_maximal(validate(17, 1))
        assert dict(rep.delta_factors) == {5: 3, 157: 1}
        assert rep.cofactor == 1

    def test_per_prime_rows(self):
        rep = is_maximal(validate(6, 1))  # delta = 837 = 3^3 * 31
        primes = [p for p, _, _ in rep.per_prime]
        assert primes == [2, 3]  # 31 has exponent 1, cannot fail

    def test_undecided_on_unfactorable_cofactor(self):
        rep = is_maximal(validate(17, 1), limit=3)
        assert rep.status == UNDECIDED_FACTORIZATION
        assert rep.cofactor == 19625

    def test_formerly_undecided_fields_decided(self):
        # every perfbench maximal-pool field that ended UNDECIDED_FACTORIZATION
        # under trial division to 10^7
        pairs = [
            (891108, 428342), (-525618, -354901), (824561, -388057), (656582, -566878),
            (246956, -306186), (-309472, -379718), (822143, 16991), (-624101, 974240),
            (235451, -982696), (533305, -160799), (-837639, -428331), (946372, 316577),
            (441976, 502333), (-216664, -960066), (-387884, -421511), (549981, -447745),
            (559874, -912719), (-420454, 326670),
        ]
        for a, b in pairs:
            k = validate(a, b)
            rep = is_maximal(k)
            assert rep.status != UNDECIDED_FACTORIZATION and rep.cofactor == 1, (a, b)
            primes = [2, 3] + [p for p, e in rep.delta_factors if p > 3 and e >= 2]
            assert [p for p, _, _ in rep.per_prime] == primes
            referee = [dedekind_check(k, p) for p in primes]
            assert [ok for _, _, ok in rep.per_prime] == referee, (a, b)
            assert rep.is_maximal == all(referee), (a, b)

    @pytest.mark.parametrize(
        "limit, want",
        [
            (10**7, "13de5661e64cf3f725980c184a0911774a09963d2ac4ff916503be1bc1cea2d7"),
            (10**5, "f746867209b6929263ff8f5c2db796b32f02b12e8df00b4db2044d0a47a4d673"),
            (14096, "1c08559d6f84af82766975eb21e27d463ce39f84040c605a068190031da60377"),
            (5000, "873288208ee43bf1a2c683b4d6da9a85d5ccd3f7f5257416cdb1846376500a1e"),
        ],
    )
    def test_maximal_pool_digest(self, limit, want):
        # one sha256 over the reports of every perfbench maximal-pool field,
        # as the program that proved primes with seven to twelve
        # Miller-Rabin bases and tried every prime exponent wrote them at
        # 10^7 and 10^5, and as the one-iteration-per-pass rho loops wrote
        # them at 14,096 and 5,000, where rho gets 1,000 and 90 iterations
        # and its walks are cut mid-advance and mid-batch
        pool = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data" / "maximal.json").read_text())
        digest = hashlib.sha256()
        undecided = 0
        for a, b, *_ in pool["rows"]:
            rep = is_maximal(validate(a, b), limit)
            undecided += rep.status == UNDECIDED_FACTORIZATION
            fields = (rep.status, rep.failing_prime, rep.per_prime, rep.delta_factors, rep.cofactor)
            digest.update(repr(fields).encode() + b"\n")
        assert undecided == {10**7: 0, 10**5: 12, 14096: 70, 5000: 145}[limit]
        assert digest.hexdigest() == want

    def test_mirror_field_reads_its_partners_report(self):
        # the report is kept under (a, |b|): the mirror (a, -b) of every
        # valid field of [-40,40]^2 reads, from the cache, the report of
        # (a, b) made with the cache empty, and that is the report the
        # table and the factorization give the mirror's own signed b
        for k in grid(40):
            integrality._maximality.cache_clear()
            cold = is_maximal(k)
            mirror = validate(k.a, -k.b)
            hits = integrality._maximality.cache_info().hits
            assert is_maximal(mirror) is cold, (k.a, k.b)
            assert integrality._maximality.cache_info().hits == hits + 1
            factors, cofactor = factorize(mirror.delta)
            assert (dict(cold.delta_factors), cold.cofactor) == (factors, cofactor), (k.a, k.b)
            rows = [(p, *reversed(alaca_condition(mirror, p))) for p, _, _ in cold.per_prime]
            assert tuple(rows) == cold.per_prime, (k.a, k.b)

    def test_definite_failure_beats_undecided(self):
        # (1, 4) fails at p = 2 regardless of what remains unfactored
        rep = is_maximal(validate(1, 4), limit=2)
        assert rep.status == NOT_MAXIMAL and rep.failing_prime == 2


class TestDedekind:
    def test_worked_instances(self):
        assert dedekind_check(validate(17, 1), 5) is False
        assert dedekind_check(validate(1, 1), 23) is True
        assert dedekind_check(validate(3, 1), 3) is True

    @pytest.mark.parametrize(
        "a, b, p, want",
        [
            (1, 2, 2, True),  # r = 1, f(1) = 2
            (1, 4, 2, False),  # r = 1, f(1) = 4
            (3, 1, 3, True),  # 3 | a: f = (x + 1)^3 mod 3, f(2) = 3
            (-6, 2, 3, False),  # 3 | a: f = (x - 1)^3 mod 3, f(1) = 9
            (-1, -1, 3, True),  # 3 !| a: f' = 1 mod 3, so squarefree, though f(2) = 9
            (-1, 1, 3, True),  # 3 !| a: f' = 1 mod 3, f(1) = 3
            (5, 5, 5, True),  # 5 | a: r = 0, f(0) = 5
            (5, 25, 5, False),  # 5 | a: r = 0, f(0) = 25
            (-2, 2, 7, True),  # 7 !| a: r = 3b/(2a) = 2, f(2) = 14
            (-8, 2, 7, False),  # 7 !| a: r = 3b/(2a) = 4, f(4) = 98
        ],
    )
    def test_each_branch_on_each_side_of_p_squared(self, a, b, p, want):
        # each way the repeated-root candidate is found, with f(r) = 0 mod p
        # and f(r) != 0 mod p^2 (p does not divide the index), and with
        # p^2 | f(r) (it does); for p = 3 with 3 !| a, f' = -a is a unit and
        # no root is repeated, whatever f(r) is mod 9
        k = validate(a, b)
        assert dedekind_check(k, p) is want
        assert alaca_condition(k, p)[0] is want

    def test_true_wherever_p_squared_does_not_divide_delta(self):
        # delta = index^2 * d_K, so a prime p with p^2 !| delta cannot
        # divide the index.  The primes below 60 include some with p !| a
        # and p^2 | b, where f has a simple root at 0 with p^2 | f(0): a
        # referee that skipped the f'(r) test would say False there
        rng = random.Random(29)
        small = [p for p in range(2, 60) if is_prime(p)]
        checked = simple_deep = 0
        for _ in range(300):
            a, b = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
            try:
                k = validate(a, b)
            except ValidationError:
                continue
            factors, cofactor = factorize(k.delta)
            assert cofactor == 1
            for p in sorted(set(small) | set(factors)):
                if factors.get(p, 0) <= 1:
                    assert dedekind_check(k, p), (a, b, p)
                    checked += 1
                    simple_deep += a % p != 0 and b % (p * p) == 0
        assert checked > 3000 and simple_deep > 10

    def test_planted_root_against_sympy_round_two(self):
        # an oracle outside the package: p divides the index iff it divides
        # delta / d_K = index^2, with d_K from sympy's round two
        round_two = pytest.importorskip("sympy.polys.numberfields.basis").round_two
        from sympy import Poly, Symbol, ZZ

        x = Symbol("x")
        rng = random.Random(2029)
        primes = [p for p in range(5, 3000) if is_prime(p)]
        fields = deep = 0
        while fields < 60:
            # (x - r)^2 (x + 2r) = x^3 - 3r^2 x + 2r^3 has r as a double root
            p = rng.choice(primes)
            r = rng.randint(-(p // 2), p // 2)
            a = 3 * r * r + p * rng.randint(-3, 3)
            b = 2 * r**3 + p * rng.randint(-3, 3)
            if rng.random() < 0.5:
                b -= (r**3 - a * r + b) % (p * p)  # now p^2 | f(r)
            try:
                k = validate(a, b)
            except ValidationError:
                continue
            fields += 1
            deep += (r**3 - a * r + b) % (p * p) == 0
            _, dk = round_two(Poly(x**3 - a * x + b, x, domain=ZZ))
            index_squared = k.delta // int(dk)
            for q in (2, 3, p):
                assert dedekind_check(k, q) == (index_squared % q != 0), (a, b, q)
        assert 0 < deep < fields

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            dedekind_check(validate(1, 1), 6)

    def test_squarefree_reduction_passes(self):
        # p coprime to delta: f stays squarefree mod p
        k = validate(1, 1)
        for p in (2, 3, 5, 7, 11, 13):
            if k.delta % p != 0:
                assert dedekind_check(k, p)

    def test_referee_agreement_grid(self):
        for k in grid(15):
            factors, cofactor = factorize(k.delta)
            assert cofactor == 1
            for p in sorted({2, 3} | {p for p, e in factors.items() if e >= 2}):
                table_ok, _ = alaca_condition(k, p)
                assert table_ok == dedekind_check(k, p), (k.a, k.b, p)

    def test_against_sympy_round_two(self):
        round_two = pytest.importorskip("sympy.polys.numberfields.basis").round_two
        from sympy import Poly, Symbol, ZZ

        x = Symbol("x")
        checked = 0
        for k in grid(6):
            _, dk = round_two(Poly(x**3 - k.a * x + k.b, x, domain=ZZ))
            assert (int(dk) == k.delta) == is_maximal(k).is_maximal, (k.a, k.b)
            checked += 1
        assert checked > 50


class TestCombinedVerdict:
    def test_worked_instances(self):
        v = combined_verdict(validate(1, 1))
        assert v.maximality.is_maximal and v.ring_of_integers_free == FREE
        v = combined_verdict(validate(6, 1))
        assert v.maximality.is_maximal and v.ring_of_integers_free == NOT_FREE
        v = combined_verdict(validate(17, 1))
        assert not v.maximality.is_maximal
        assert v.ring_of_integers_free is None
        assert v.freeness.verdict in (FREE, NOT_FREE)  # Z[alpha] verdict still given

    def test_case_consistency_when_maximal(self):
        from cubicha.arith import valuation

        for k in grid(12):
            if not is_maximal(k).is_maximal:
                continue
            case = classify(k)
            v3a, v3b = valuation(k.a, 3), valuation(k.b, 3)
            if case.major == CASE1:
                assert v3a == 0
            elif case.major == CASE2:
                assert v3a == v3b == 1, (k.a, k.b)
            else:
                assert case.major == CASE3 and v3a > v3b
