import random
from fractions import Fraction

import pytest

from cubicha.assocorder import (
    CASE1,
    CASE2,
    CASE3,
    V2GE,
    V2LT,
    AssociatedOrder,
    build,
    classify,
    closed_form_reduced,
    index_minors_gcd,
    index_of_case,
)
from cubicha.cubicfield import REDUCED_LOOSE, REDUCED_STRICT, HopfElement, gram_matrix, apply_hopf, hopf_mul, validate
from cubicha.errors import LatticeMismatchError, ValidationError
from cubicha.exactlinalg import adjugate_rows, det3, inverse3, lattice_equal3, reduce_tall
from cubicha.selfcheck import (
    basis_matrix,
    h_closed_form,
    in_order,
    minors_gcd,
    order_basis,
    referee_order_certificates,
)
from cubicha import assocorder, cubicfield


def pairs_in_grid(bound):
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a == 0 or b == 0:
                continue
            try:
                yield validate(a, b)
            except ValidationError:
                continue


class TestClassify:
    def test_examples(self):
        assert str(classify(validate(1, 1))) == "CASE1/V2GE"
        assert str(classify(validate(3, 3))) == "CASE2/V2GE"
        assert str(classify(validate(3, 1))) == "CASE3/V2GE"

    def test_case3_implies_3_divides_a(self):
        for k in pairs_in_grid(15):
            if classify(k).major == CASE3:
                assert k.a % 3 == 0

    def test_minor(self):
        assert classify(validate(1, 2)).minor == V2LT
        assert classify(validate(2, 2)).minor == V2GE


class TestHClosedForm:
    def test_examples(self):
        assert h_closed_form(validate(1, 1)) == 1
        assert h_closed_form(validate(1, 2)) == 2
        assert h_closed_form(validate(3, 3)) == 9

    def test_agrees_with_gcd_on_grid(self):
        # h_closed_form raises internally when the table disagrees with the gcd
        for k in pairs_in_grid(25):
            h = h_closed_form(k)
            case = classify(k)
            if case.major == CASE1:
                assert h in (k.g, 2 * k.g)
            else:
                assert h in (3 * k.g, 6 * k.g, 9 * k.g, 18 * k.g)


class TestClosedFormReduced:
    def test_examples(self):
        def closed(a, b):
            k = validate(a, b)
            return closed_form_reduced(k, classify(k))

        assert closed(1, 1) == ((1, 0, 0), (0, 1, 1), (0, 0, 2))
        assert closed(3, 1) == ((1, 0, 2), (0, 9, 3), (0, 0, 6))
        # g = 3 lands in the same literal matrix for (3, 3): 3g = 9
        assert closed(3, 3) == ((1, 0, 2), (0, 9, 3), (0, 0, 6))


class TestBuild:
    def test_worked_instance_1_1(self):
        order = build(validate(1, 1))
        assert order.index_iw == 2
        assert [v.coords for v in order_basis(order)] == [
            (1, 0, 0),
            (0, 1, 0),
            (0, Fraction(-1, 2), Fraction(1, 2)),
        ]

    def test_worked_instance_3_1(self):
        order = build(validate(3, 1))
        assert order.index_iw == 54
        assert [v.coords for v in order_basis(order)] == [
            (1, 0, 0),
            (0, Fraction(1, 9), 0),
            (Fraction(-1, 3), Fraction(-1, 18), Fraction(1, 6)),
        ]

    def test_worked_instance_3_3(self):
        # basis is derived mechanically from the reduced matrix inverse
        order = build(validate(3, 3))
        assert order.index_iw == 54
        inv = inverse3(order.reduced)
        for i, v in enumerate(order_basis(order)):
            assert v.coords == tuple(inv[r][i] for r in range(3))
        assert order_basis(order)[1].coords == (0, Fraction(1, 9), 0)
        assert order_basis(order)[2].coords == (
            Fraction(-1, 3),
            Fraction(-1, 18),
            Fraction(1, 6),
        )

    def test_case1_v2lt_basis_table_row(self):
        # (1, 2): basis {w1, w2/(2g), w3}
        order = build(validate(1, 2))
        assert [v.coords for v in order_basis(order)] == [
            (1, 0, 0),
            (0, Fraction(1, 2), 0),
            (0, 0, 1),
        ]

    def test_case2_v2lt_basis_table_row(self):
        # (3, 6): 3|a, v3(3) <= v3(6), v2(3) < v2(6): {w1, w2/(6g), (-2w1+w3)/3}
        k = validate(3, 6)
        order = build(k)
        assert classify(k).major == CASE2 and classify(k).minor == V2LT
        assert [v.coords for v in order_basis(order)] == [
            (1, 0, 0),
            (0, Fraction(1, 18), 0),
            (Fraction(-2, 3), 0, Fraction(1, 3)),
        ]

    def test_index_table_on_grid(self):
        for k in pairs_in_grid(10):
            order = build(k)
            case = classify(k)
            factor = {CASE1: 2, CASE2: 18, CASE3: 54}[case.major]
            assert order.index_iw == factor * k.g
            generic = reduce_tall(cubicfield.action_matrix(k))
            assert abs(det3(generic)) == order.index_iw

    def test_full_certificates_on_sample(self):
        rng = random.Random(12)
        pool = list(pairs_in_grid(8))
        for k in rng.sample(pool, 40):
            build(k)  # B-stability, ring closure, index

    def test_membership_agreement(self):
        rng = random.Random(13)
        for k in [validate(1, 1), validate(3, 3), validate(-4, 6)]:
            order = build(k)
            binv = inverse3(basis_matrix(order))
            for _ in range(40):
                h = HopfElement.of(
                    Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
                    Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
                    Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
                )
                direct = in_order(order.reduced, h)
                coeffs = [
                    sum(binv[i][j] * h.coords[j] for j in range(3))
                    for i in range(3)
                ]
                assert direct == all(c.denominator == 1 for c in coeffs)

    def test_basis_elements_are_members(self):
        for k in [validate(1, 1), validate(3, 1), validate(6, 1), validate(-5, 7)]:
            order = build(k)
            for v in order_basis(order):
                assert in_order(order.reduced, v)
            # and products of members stay members
            for v in order_basis(order):
                for w in order_basis(order):
                    assert in_order(order.reduced, hopf_mul(k, v, w))

    def test_b_stability(self):
        for k in [validate(1, 1), validate(3, 3), validate(7, -2)]:
            order = build(k)
            for v in order_basis(order):
                for gamma in gram_matrix(k)[0]:
                    image = apply_hopf(k, v, gamma)
                    assert all(x.denominator == 1 for x in image)

    def test_lattice_equality_closed_vs_generic(self):
        for k in pairs_in_grid(8):
            closed = closed_form_reduced(k, classify(k))
            generic = reduce_tall(cubicfield.action_matrix(k))
            assert lattice_equal3(closed, generic), (k.a, k.b)

    def test_index_of_case(self):
        assert index_of_case(classify(validate(1, 1)), 1) == 2
        assert index_of_case(classify(validate(3, 3)), 3) == 54
        assert index_of_case(classify(validate(3, 1)), 1) == 54

    def test_integer_certificates_agree_with_fraction_referee(self):
        # build certifies in integers; the Fraction routines re-check the
        # basis, B-stability, ring closure and the identity independently
        for k in pairs_in_grid(6):
            order = build(k)
            inv = inverse3(order.reduced)
            assert [v.coords for v in order_basis(order)] == [
                tuple(inv[r][i] for r in range(3)) for i in range(3)
            ]
            assert order_basis(order)[0].coords == (1, 0, 0)
            for v in order_basis(order):
                for gamma in gram_matrix(k)[0]:
                    assert all(x.denominator == 1 for x in apply_hopf(k, v, gamma))
                for w in order_basis(order):
                    assert in_order(order.reduced, hopf_mul(k, v, w))


class TestIndexMinors:
    """index_minors_gcd, the equality certificate of build, against the gcd
    of all the minors and the index table."""

    @staticmethod
    def check(k, seen):
        rows = cubicfield.action_matrix(k)
        case = classify(k)
        assert index_minors_gcd(rows) == minors_gcd(rows) == index_of_case(case, k.g), (k.a, k.b)
        seen.add((str(case), k.g > 1))

    # every label with g > 1, and with g = 1 all but CASE2, where 3 | g
    LABELS = {
        (f"{major}/{minor}", big)
        for major in (CASE1, CASE2, CASE3)
        for minor in (V2GE, V2LT)
        for big in (True, False)
        if big or major != CASE2
    }

    def test_every_field_of_the_square_60(self):
        seen = set()
        for k in pairs_in_grid(60):
            self.check(k, seen)
        assert seen == self.LABELS, seen

    def test_seeded_fields_up_to_a_million(self):
        # plain draws, then draws whose a and b carry powers of 2 and 3 and a
        # shared factor, so that every (case, minor) label meets g > 1; the
        # identity holds for all a, b != 0, so loosely reduced fields count too
        rng = random.Random(2121)
        seen, done = set(), 0
        while done < 4000:
            if done % 2:
                a, b = rng.randint(-(10**6), 10**6), rng.randint(-(10**6), 10**6)
            else:
                shared = rng.randint(1, 50)
                a = rng.choice((-1, 1)) * 2 ** rng.randint(0, 4) * 3 ** rng.randint(0, 5) * shared * rng.randint(1, 200)
                b = rng.choice((-1, 1)) * 2 ** rng.randint(0, 5) * 3 ** rng.randint(0, 6) * shared * rng.randint(1, 200)
            if not (0 < abs(a) <= 10**6 and 0 < abs(b) <= 10**6):
                continue
            try:
                k = validate(a, b, REDUCED_LOOSE if done % 5 == 0 else REDUCED_STRICT)
            except ValidationError:
                continue
            self.check(k, seen)
            done += 1
        assert seen == self.LABELS, seen

    def test_equality_evaluates_three_minors(self, monkeypatch):
        # each field of [-20,20]^2: the equality check of _verify_certificates
        # is the only caller of det3 there, and it takes three minors
        calls = [0]

        def counting(rows):
            calls[0] += 1
            return det3(rows)

        orders = [(k, build(k)) for k in pairs_in_grid(20)]
        monkeypatch.setattr(assocorder, "det3", counting)
        for k, order in orders:
            assocorder._verify_certificates(k, order)
        assert calls[0] == 3 * len(orders) and len(orders) > 1000, (calls[0], len(orders))


def certificate_outcome(route, k, order):
    """The (exception type, message) with which ``route`` rejects the
    order, or None when it accepts it."""
    try:
        route(k, order)
    except (AssertionError, LatticeMismatchError) as exc:
        return type(exc).__name__, str(exc)
    return None


def replaced(rows, i, j, value):
    return tuple(
        tuple(value if (r, c) == (i, j) else x for c, x in enumerate(row)) for r, row in enumerate(rows)
    )


def reversed_columns(order):
    # spans the same ring as the order, but the identity is not first
    return AssociatedOrder(order.case, order.index_iw, order.reduced, tuple(zip(*list(zip(*order.adj))[::-1])))


def scaled_pivot(order, i, num, den=1):
    # a consistent order (d = det R, adj = adj R) of another lattice
    reduced = replaced(order.reduced, i, i, order.reduced[i][i] * num // den)
    return AssociatedOrder(order.case, det3(reduced), reduced, adjugate_rows(reduced))


def moved_adj_entry(order, i, j):
    # adj no longer the adjugate of R
    d = order.index_iw
    return AssociatedOrder(order.case, d, order.reduced, replaced(order.adj, i, j, order.adj[i][j] + d // 2))


def moved_reduced_entry(order, i, j):
    # R no longer the adjugate's inverse up to d
    return AssociatedOrder(order.case, order.index_iw, replaced(order.reduced, i, j, order.reduced[i][j] + 1), order.adj)


class TestResidueClasses:
    """_verify_certificates proves containment, ring closure, the identity
    and R * adj = d * I once per residue class, through a bounded cache; the
    referee proves them per field on the field's own integers."""

    def test_every_field_of_the_square_40_agrees_with_the_referee(self):
        # the cache is warm from the fields before, as in a scan; each field
        # is checked honest and with four planted faults: the columns
        # reversed, the middle pivot halved (when even) or doubled, and an
        # entry of adj moved by d // 2 and one of R by 1, in turn each entry
        outcomes = set()
        for n, k in enumerate(pairs_in_grid(40)):
            order = build(k)
            assert referee_order_certificates(k, order) is None
            i, j = divmod(n % 9, 3)
            plants = (
                reversed_columns(order),
                scaled_pivot(order, 1, 2) if order.reduced[1][1] % 2 else scaled_pivot(order, 1, 1, 2),
                moved_adj_entry(order, i, j),
                moved_reduced_entry(order, i, j),
            )
            for plant in plants:
                got = certificate_outcome(assocorder._verify_certificates, k, plant)
                assert got == certificate_outcome(referee_order_certificates, k, plant), (k, plant)
                outcomes.add(got and got[1].split(" for ")[0])
        # every certificate rejects some plant, and no plant passes all five
        assert outcomes == {
            "a basis vector moves B out of Z[alpha]",
            "closed-form and generic reduced matrices disagree",
            "a product of basis vectors escapes the order",
            "the first basis vector is not the identity",
            "the adjugate does not invert the reduced matrix",
        }, outcomes

    def test_seeded_case2_and_case3_fields_up_to_a_million(self):
        # g carries 2, 3 and a prime above 4096, so that d = 18g or 54g is
        # far from the small moduli of a grid
        rng = random.Random(2727)
        seen, done = set(), 0
        while done < 600:
            p = rng.choice((4099, 4111, 5003, 7919, 10007))
            g = 2 ** rng.randint(1, 2) * 3 ** rng.randint(1, 2) * p
            a = rng.choice((-1, 1)) * g * rng.randint(1, 10**6 // g)
            b = rng.choice((-1, 1)) * g * rng.randint(1, 10**6 // g)
            try:
                k = validate(a, b)
            except ValidationError:
                continue
            order = build(k)
            assert referee_order_certificates(k, order) is None
            assert k.g % (6 * p) == 0 and order.index_iw in (18 * k.g, 54 * k.g), (a, b)
            seen.add(str(order.case))
            done += 1
        assert seen == {f"{major}/{minor}" for major in (CASE2, CASE3) for minor in (V2GE, V2LT)}, seen

    def test_planted_orders_raise_the_referees_message_past_a_warm_cache(self):
        # the honest order of each field is in the cache first; a planted
        # one is keyed by its own matrices, so it is checked as it stands
        for a, b in ((3, 3), (1, 2), (-6, 10), (12, -20), (-28, 30), (15, 9)):
            k = validate(a, b)
            order = build(k)
            misses = assocorder._congruence_failure.cache_info().misses
            assocorder._verify_certificates(k, order)
            assert assocorder._congruence_failure.cache_info().misses == misses
            plants = (
                ("the first basis vector is not the identity", reversed_columns(order)),
                ("a basis vector moves B out of Z[alpha]", scaled_pivot(order, 1, 2)),
                ("a basis vector moves B out of Z[alpha]", moved_adj_entry(order, 2, 1)),
            )
            for want, plant in plants:
                got = certificate_outcome(assocorder._verify_certificates, k, plant)
                assert got == certificate_outcome(referee_order_certificates, k, plant)
                assert got == ("AssertionError", f"{want} for {k}"), (a, b, got)

    def test_a_scan_proves_each_residue_class_once(self, capsys):
        # the rows a = 12 and a = 7 of a scan, one after the other; the key
        # is R, adj(R), d and a, b mod d and delta mod d^2, built here
        # without build.  Row 12 has d = 54g or 18g >= 54 > 40, so none of
        # its fields shares a class; row 7 has d = 2 or 14, and most do
        from cubicha.cli import main

        assocorder._congruence_failure.cache_clear()
        keys, fields, misses = set(), [], []
        for a in (12, 7):
            row = 0
            for b in range(-20, 21):
                try:
                    k = validate(a, b)
                except ValidationError:
                    continue
                reduced = closed_form_reduced(k, classify(k))
                d = det3(reduced)
                keys.add((reduced, adjugate_rows(reduced), d, a % d, b % d, k.delta % (d * d)))
                row += 1
            assert main(["scan", f"--a-range={a}:{a}", "--b-range=-20:20"]) == 0
            assert len(capsys.readouterr().out.splitlines()) == row + 1
            info = assocorder._congruence_failure.cache_info()
            assert (info.misses, info.hits + info.misses) == (len(keys), sum(fields) + row), info
            fields.append(row)
            misses.append(info.misses - sum(misses))
        assert misses[0] == fields[0] and misses[1] < fields[1] // 4, (misses, fields)


def test_certificates_raise_under_optimize(run_optimized):
    # reversed adj columns span the same B-stable ring, but the identity is
    # no longer the first basis vector
    out = run_optimized(
        "from cubicha.assocorder import AssociatedOrder, build, _verify_certificates\n"
        "from cubicha.cubicfield import validate\n"
        "k = validate(3, 3)\n"
        "order = build(k)\n"
        "cols = list(zip(*order.adj))[::-1]\n"
        "broken = AssociatedOrder(order.case, order.index_iw, order.reduced, tuple(zip(*cols)))\n"
        "try:\n"
        "    _verify_certificates(k, broken)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    assert out.startswith("raised: the first basis vector is not the identity"), out


def test_planted_suborder_caught_by_the_equality_check(run_optimized):
    # (1, 2) is CASE1/V2LT with R = diag(1, 2g, 1); diag(1, g, 1) cuts out a
    # proper suborder of index 2 that is B-stable, a ring and holds the
    # identity, so only the gcd of the action matrix's minors tells them
    # apart; the planted check answers the planted index, 1
    out = run_optimized(
        "from cubicha import assocorder\n"
        "from cubicha.cubicfield import validate\n"
        "from cubicha.errors import LatticeMismatchError\n"
        "k = validate(1, 2)\n"
        "case = assocorder.classify(k)\n"
        "print(case, assocorder.build(k).index_iw)\n"
        "assocorder._REDUCED[case.major, case.minor] = ((1, 0, 0), (0, 1, 0), (0, 0, 1))\n"
        "assocorder.index_of_case = lambda case, g: g\n"
        "try:\n"
        "    assocorder.build(k)\n"
        "except LatticeMismatchError as exc:\n"
        "    print('raised:', exc)\n"
        "assocorder.index_minors_gcd = lambda rows: 1\n"
        "print('without the equality check:', assocorder.build(k).index_iw)\n"
    )
    assert out.splitlines() == [
        "CASE1/V2LT 2",
        "raised: closed-form and generic reduced matrices disagree for (a, b) = (1, 2)",
        "without the equality check: 1",
    ], out
