"""Cross-module invariant suites, runnable from the CLI (``cubicha verify``).

Each suite stresses an identity that ties two independently implemented
routes together (closed form vs generic reduction, table vs referee, solver
vs exhaustive search).  A suite returns the number of checks it performed and
raises AssertionError with a pinpointed message on the first violation, via
``check`` rather than ``assert``, so that ``python -O`` still fails it.

The referee routines that no production path calls live here too: the
continued fraction of sqrt(d), multiplication and trace in Z[alpha] with
the square-root identity behind the Gram matrix, the gcd closed form of the
case table, the gcd of all the 3x3 minors of a tall matrix, the associated
order's certificates proved per field, its rational basis and Fraction
membership in it, the box search for a generator, and the maximality table
at one prime of the caller's choice.  ``cli`` loads this module only for
``verify``.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from . import arith, assocorder, cubicfield, exactlinalg, freeness, integrality, quadrep
from .errors import DegenerateFormError, LatticeMismatchError, ValidationError


def check(cond: bool, *detail) -> None:
    """Raise AssertionError(*detail) unless cond holds."""
    if not cond:
        raise AssertionError(*detail)


def periodic_sqrt_cf(d: int) -> tuple[int, tuple[int, ...]]:
    """Continued fraction of sqrt(d) as (a0, minimal period).

    Uses the integer (m, den, a) recurrence; the period closes at the first
    index with den == 1, where the partial quotient equals 2*a0.
    """
    if d <= 0:
        raise ValueError("periodic_sqrt_cf requires d > 0")
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise DegenerateFormError(f"{d} is a perfect square")
    m, den, a = 0, 1, a0
    period = []
    while True:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        period.append(a)
        if den == 1:
            if a != 2 * a0:
                raise AssertionError(f"period of sqrt({d}) closed at {a}, not {2 * a0}")
            return a0, tuple(period)


def _mul_coords(a: int, b: int, u: tuple, v: tuple) -> tuple:
    """Product of two elements in coordinates, reduced by alpha^3 = a*alpha - b.

    Works for int or Fraction coordinates alike.
    """
    u0, u1, u2 = u
    v0, v1, v2 = v
    e0 = u0 * v0
    e1 = u0 * v1 + u1 * v0
    e2 = u0 * v2 + u1 * v1 + u2 * v0
    e3 = u1 * v2 + u2 * v1
    e4 = u2 * v2
    # alpha^3 = a*alpha - b, alpha^4 = a*alpha^2 - b*alpha
    return (e0 - b * e3, e1 + a * e3 - b * e4, e2 + a * e4)


def trace(k: cubicfield.TrinomialCubic, u: cubicfield.OrderElement) -> int:
    # alpha has trace 0 and alpha^2 has trace 2a
    return 3 * u.c0 + 2 * k.a * u.c2


def verify_sqrt_identity(k: cubicfield.TrinomialCubic) -> bool:
    """The polynomial identity grounding the Gram matrix:

        (6a*alpha^2 + 9b*alpha - 4a^2)^2 = delta * (-3*alpha^2 + 4a)

    holds in Z[alpha] mod f.  Both sides are computed with _mul_coords and
    compared coordinate-wise.
    """
    a, b, d = k.a, k.b, k.delta
    s = (-4 * a * a, 9 * b, 6 * a)
    lhs = _mul_coords(a, b, s, s)
    rhs = (4 * a * d, 0, -3 * d)
    return lhs == rhs


def h_closed_form(k: cubicfield.TrinomialCubic) -> int:
    """gcd(2a, 9b) (CASE1) resp. gcd(6a, 9b) (3 | a), via the valuation table.

    The closed form is cross-checked against the directly computed gcd; a
    mismatch would mean the table is being applied outside its hypotheses.
    """
    case = assocorder.classify(k)
    g = k.g
    if case.major == assocorder.CASE1:
        h = g if case.minor == assocorder.V2GE else 2 * g
        direct = gcd(2 * k.a, 9 * k.b)
    else:
        v3_le = arith.valuation(k.a, 3) <= arith.valuation(k.b, 3)
        if case.minor == assocorder.V2GE:
            h = 3 * g if v3_le else 9 * g
        else:
            h = 6 * g if v3_le else 18 * g
        direct = gcd(6 * k.a, 9 * k.b)
    if h != direct:
        raise AssertionError(f"closed-form gcd {h} != direct gcd {direct} for {k}")
    return h


def minors_gcd(rows) -> int:
    """gcd of the 3x3 minors of integer rows of length 3: the index in Z^3 of
    the lattice they span, 0 below rank 3 (Cohen, GTM 138, section 2.4).
    The referee of the three minors that ``assocorder.build`` certifies the
    index with.  The scan ends once the gcd is 1."""
    g = 0
    for trio in itertools.combinations([r for r in rows if any(r)], 3):
        g = gcd(g, exactlinalg.det3(trio))
        if g == 1:
            break
    return g


def in_order(reduced, h: cubicfield.HopfElement) -> bool:
    """Membership test: h lies in the order cut out by the rows of the
    reduced matrix iff reduced * h is an integer vector."""
    for row in reduced:
        if sum(x * y for x, y in zip(row, h.coords)).denominator != 1:
            return False
    return True


def order_basis(order: assocorder.AssociatedOrder) -> tuple[cubicfield.HopfElement, ...]:
    """The basis vectors of the order, the columns of adj(R) / det R, as
    rational Hopf elements."""
    d = order.index_iw
    return tuple(cubicfield.HopfElement(*(Fraction(x, d) for x in col)) for col in zip(*order.adj))


def basis_matrix(order: assocorder.AssociatedOrder) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of the matrix with the basis vectors as columns (this is exactly
    reduced^-1)."""
    return tuple(zip(*(v.coords for v in order_basis(order))))


def referee_order_certificates(k: cubicfield.TrinomialCubic, order: assocorder.AssociatedOrder) -> None:
    """The certificates of ``assocorder._verify_certificates`` proved per
    field on the field's own action matrix and delta, with no residue
    class and no cache; raises as it does, in the same order."""
    d, adj = order.index_iw, order.adj
    cols = tuple(zip(*adj))
    rows = cubicfield.action_matrix(k)
    if not exactlinalg.divides_product(d, rows, cols):
        raise AssertionError(f"a basis vector moves B out of Z[alpha] for {k}")
    if assocorder.index_minors_gcd(rows) != d:
        raise LatticeMismatchError(
            f"closed-form and generic reduced matrices disagree for (a, b) = "
            f"({k.a}, {k.b})"
        )
    products = [cubicfield.hopf_mul_coords(k.delta, u, v) for i, u in enumerate(cols) for v in cols[i:]]
    if not exactlinalg.divides_product(d * d, order.reduced, products):
        raise AssertionError(f"a product of basis vectors escapes the order for {k}")
    if cols[0] != (d, 0, 0):
        raise AssertionError(f"the first basis vector is not the identity for {k}")
    identity = tuple(tuple(d * (i == j) for j in range(3)) for i in range(3))
    if tuple(tuple(sum(r * c for r, c in zip(row, col)) for col in cols) for row in order.reduced) != identity:
        raise AssertionError(f"the adjugate does not invert the reduced matrix for {k}")


def brute_force_generator(
    k: cubicfield.TrinomialCubic, bound: int
) -> cubicfield.OrderElement | None:
    """Box search for a generator with all coordinates in [-bound, bound].

    Exhaustive over the box: for each (b2, b3) the quadratic factor divides
    half the index or no b1 can work, and then b1 is pinned by a linear
    congruence, so the scan is quadratic rather than cubic in the bound.
    """
    if bound < 1:
        raise AssertionError(f"box bound must be >= 1, got {bound}")
    iw = assocorder.index_of_case(assocorder.classify(k), k.g)
    half = iw // 2
    a, b = k.a, k.b
    for b2 in range(-bound, bound + 1):
        for b3 in range(-bound, bound + 1):
            f2 = 3 * a * b2 * b2 - 9 * b * b2 * b3 + a * a * b3 * b3
            if f2 == 0 or half % abs(f2) != 0:
                continue
            target = half // abs(f2)
            for f1 in (target, -target):
                num = f1 - 2 * a * b3
                if num % 3 != 0:
                    continue
                b1 = num // 3
                if abs(b1) <= bound:
                    return cubicfield.OrderElement(b1, b2, b3)
    return None


def validated_pairs(bound: int):
    """All validated (a, b) with 1 <= |a|, |b| <= bound, a-major order."""
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a == 0 or b == 0:
                continue
            try:
                yield cubicfield.validate(a, b)
            except ValidationError:
                continue


def random_valid_field(rng: random.Random, coeff_bound: int) -> cubicfield.TrinomialCubic:
    while True:
        a = rng.randint(-coeff_bound, coeff_bound)
        b = rng.randint(-coeff_bound, coeff_bound)
        try:
            return cubicfield.validate(a, b)
        except (ValidationError, ValueError):
            continue


def refuses_odd_period(call, *args) -> bool:
    """Whether call(*args) raises the ValueError with which quadrep refuses
    a d whose square root has an odd period."""
    try:
        call(*args)
    except ValueError as exc:
        return "odd period" in str(exc)
    return False


def suite_sqrt_cf(rng: random.Random, grid: int) -> int:
    """pell_fundamental (from the middle convergent of the principal cycle,
    read off a product tree of top rows over its first half) vs the
    period-end convergent of sqrt(d), stepped one quotient at a time, for
    d = 3m, the solver's domain, whose period is even; d = 13, whose period
    is odd, must be refused."""
    check(len(periodic_sqrt_cf(13)[1]) % 2 == 1 and refuses_odd_period(quadrep.pell_fundamental, 13))
    checks = 1
    for _ in range(max(20, 5 * grid)):
        d = 3 * rng.randint(1, 10**6 // 3)
        if isqrt(d) ** 2 == d:
            continue
        a0, period = periodic_sqrt_cf(d)
        check(len(period) % 2 == 0, d, len(period))
        h0, h1, k0, k1 = 1, a0, 0, 1
        for a in period[:-1]:
            h0, h1 = h1, a * h1 + h0
            k0, k1 = k1, a * k1 + k0
        check(h1 * h1 - d * k1 * k1 == 1 and quadrep.pell_fundamental(d) == (h1, k1), d)
        checks += 1
    return checks


def suite_hopf(rng: random.Random, grid: int) -> int:
    """sqrt identity, module-algebra composition, trace identity."""
    checks = 0
    w = [cubicfield.HopfElement.of(*v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for _ in range(max(30, 5 * grid)):
        k = random_valid_field(rng, 10**6)
        check(verify_sqrt_identity(k), k)
        basis = cubicfield.gram_matrix(k)[0]
        for wi in w:
            for wj in w:
                prod = cubicfield.hopf_mul(k, wi, wj)
                for gamma in basis:
                    lhs = cubicfield.apply_hopf(k, wi, cubicfield.apply_hopf(k, wj, gamma))
                    rhs = cubicfield.apply_hopf(k, prod, gamma)
                    check(lhs == rhs, k, wi, wj, gamma)
        w1_plus_w3 = cubicfield.HopfElement.of(1, 0, 1)
        for gamma in basis:
            image = cubicfield.apply_hopf(k, w1_plus_w3, gamma)
            tr = trace(k, gamma)
            check(image == (Fraction(tr), Fraction(0), Fraction(0)), k, gamma)
        # action matrix rows match gram coordinates
        am = cubicfield.action_matrix(k)
        gm = cubicfield.gram_matrix(k)
        for j in range(3):
            for r in range(3):
                for i in range(3):
                    check(am[3 * j + r][i] == gm[i][j].coords[r])
        checks += 1
    return checks


def suite_index_table(rng: random.Random, grid: int) -> int:
    """Generic reduction vs closed form on the grid: |det|, lattice, gcd, and
    vs the gcd of all the 3x3 minors, which the three minors that build
    certifies the index with must match."""
    checks = 0
    for k in validated_pairs(grid):
        case = assocorder.classify(k)
        closed = assocorder.closed_form_reduced(k, case)
        action = cubicfield.action_matrix(k)
        generic = exactlinalg.reduce_tall(action)
        want = assocorder.index_of_case(case, k.g)
        check(abs(exactlinalg.det3(generic)) == want, k, case)
        check(minors_gcd(action) == abs(exactlinalg.det3(generic)), k)
        check(assocorder.index_minors_gcd(action) == minors_gcd(action), k)
        check(exactlinalg.lattice_equal3(closed, generic), k)
        h_closed_form(k)  # raises on closed form vs gcd mismatch
        checks += 1
    return checks


def suite_order_certificates(rng: random.Random, grid: int) -> int:
    """Full build() certificates, proved again per field by the referee,
    plus membership predicate agreement."""
    checks = 0
    for k in validated_pairs(min(grid, 12)):
        order = assocorder.build(k)  # internal certificates run here
        referee_order_certificates(k, order)
        basis_inv = exactlinalg.inverse3(basis_matrix(order))
        for _ in range(5):
            h = cubicfield.HopfElement.of(
                Fraction(rng.randint(-24, 24), rng.randint(1, 12)),
                Fraction(rng.randint(-24, 24), rng.randint(1, 12)),
                Fraction(rng.randint(-24, 24), rng.randint(1, 12)),
            )
            direct = in_order(order.reduced, h)
            # the same membership read as "integer combination of the basis"
            coeffs = exactlinalg.rat_matmul(basis_inv, [[c] for c in h.coords])
            check(direct == all(c.denominator == 1 for (c,) in coeffs), k, h)
            checks += 1
    return checks


def suite_pell_oracle(rng: random.Random, grid: int) -> int:
    """solve_indefinite / solve_definite vs exhaustive search at small scale,
    the indefinite d = 3m, the solver's domain, whose period is even;
    solve_indefinite must refuse d = 13, whose period is odd."""
    check(len(periodic_sqrt_cf(13)[1]) % 2 == 1 and refuses_odd_period(quadrep.solve_indefinite, -13, 3))
    checks = 1
    box = 2000
    for _ in range(max(10, grid)):
        d = 3 * rng.randint(1, 500 // 3)
        if isqrt(d) ** 2 == d:
            continue
        n = rng.randint(-(10**4), 10**4)
        if n == 0:
            continue
        check(len(periodic_sqrt_cf(d)[1]) % 2 == 0, d)
        cert = quadrep.solve_indefinite(-d, n)
        got = _orbit_closure_in_box(d, n, cert, box)
        want = set()
        for y in range(-box, box + 1):
            r = n + d * y * y
            if r < 0:
                continue
            x = isqrt(r)
            if x * x == r and x <= box:
                want.add((x, y))
                want.add((-x, y))
        check(got == want, d, n, sorted(want - got)[:4], sorted(got - want)[:4])
        checks += 1
    for _ in range(max(10, grid)):
        d = rng.randint(1, 500)
        n = rng.randint(-(10**4), 10**4)
        if n == 0:
            continue
        got = set(quadrep.solve_definite(d, n))
        want = set()
        y = 0
        while d * y * y <= max(n, 0):
            r = n - d * y * y
            if r >= 0:
                x = isqrt(r)
                if x * x == r:
                    want.update({(x, y), (-x, y), (x, -y), (-x, -y)})
            y += 1
        check(got == want, d, n)
        checks += 1
    return checks


def _orbit_closure_in_box(dabs, n, cert, box):
    t, u = cert.fundamental
    cap = (2 * t + 2 * dabs * u) * (box + 10) + abs(n)
    seen = set()
    stack = list(cert.representatives)
    out = set()
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


def suite_freeness_oracle(rng: random.Random, grid: int) -> int:
    """decide_freeness vs box search, both directions, plus d_beta == det."""
    checks = 0
    for k in validated_pairs(min(grid, 20)):
        order = assocorder.build(k)
        report = freeness.decide_freeness(k, order=order)
        found = brute_force_generator(k, 12)
        if found is not None:
            check(freeness.is_generator(k, found, order), k, found)
            check(report.verdict != freeness.NOT_FREE, k, found, report.verdict)
        if report.verdict == freeness.NOT_FREE:
            check(found is None, k, found)
        if report.verdict == freeness.FREE:
            check(freeness.is_generator(k, report.generator, order), k)
        checks += 1
    for _ in range(200):
        k = random_valid_field(rng, 50)
        beta = cubicfield.OrderElement(
            rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20)
        )
        check(freeness.d_beta(k, beta) == exactlinalg.det3(freeness.m_beta(k, beta)))
        checks += 1
    return checks


def alaca_condition(k: cubicfield.TrinomialCubic, p: int) -> tuple[bool, str]:
    """Evaluate the congruence table at p; returns (passed, matched label).
    ValueError unless p is prime."""
    if p != 2 and p != 3 and not arith.is_prime(p):
        raise ValueError(f"alaca_condition requires a prime, got {p}")
    return integrality._table(k.a, k.b, k.delta, p)


def suite_alaca_dedekind(rng: random.Random, grid: int) -> int:
    """Congruence table vs Dedekind referee on every relevant prime, over the
    grid and 20 random fields at 10^6, whose delta needs Brent's rho."""
    checks = 0
    randoms = (random_valid_field(rng, 10**6) for _ in range(20))
    for k in itertools.chain(validated_pairs(grid), randoms):
        factors, cofactor = arith.factorize(k.delta)
        check(cofactor == 1, k, cofactor)
        product = 1
        for p, e in factors.items():
            check(arith.is_prime(p), k, p)
            product *= p**e
        check(product == abs(k.delta), k, factors)
        primes = sorted({2, 3} | {p for p, e in factors.items() if e >= 2})
        for p in primes:
            table_ok, _ = alaca_condition(k, p)
            referee_ok = integrality.dedekind_check(k, p)
            check(table_ok == referee_ok, k, p, table_ok)
            checks += 1
        # primes not dividing delta pass vacuously
        for p in (5, 7, 11, 13):
            if k.delta % p != 0:
                ok, _ = alaca_condition(k, p)
                check(ok, k, p)
                checks += 1
        # when maximal, the freeness case matches the table's 3-adic row
        rep = integrality.is_maximal(k)
        if rep.is_maximal:
            case = assocorder.classify(k)
            v3a, v3b = arith.valuation(k.a, 3), arith.valuation(k.b, 3)
            if case.major == assocorder.CASE2:
                check(v3a == v3b == 1, k)
            elif case.major == assocorder.CASE1:
                check(v3a == 0, k)
            else:
                check(v3a > v3b, k)
            checks += 1
    return checks


SUITES = (
    ("sqrt-cf-pell", suite_sqrt_cf),
    ("hopf-identities", suite_hopf),
    ("index-table", suite_index_table),
    ("order-certificates", suite_order_certificates),
    ("pell-oracle", suite_pell_oracle),
    ("freeness-oracle", suite_freeness_oracle),
    ("alaca-dedekind", suite_alaca_dedekind),
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
    checks: int
    detail: str = ""


def run_all(grid: int = 20, seed: int = 0) -> list[SuiteResult]:
    results = []
    for name, fn in SUITES:
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        try:
            n = fn(rng, grid)
            results.append(SuiteResult(name, True, n))
        except AssertionError as exc:
            results.append(SuiteResult(name, False, 0, repr(exc)))
    return results
