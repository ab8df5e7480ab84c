"""A ledger of the identities that the fast paths rest on.

Each entry checks one identity: as a polynomial identity, with the
production closed forms run on sympy symbols wherever they accept them, or
as a finite case split over residues or valuations.  Its docstring opens
with the production function whose soundness it carries, as "Carries
``module.name``".  An identity that another test already checks on samples
is entered in SAMPLED with that test, and not checked twice.
"""

import ast
import importlib
import sys
from itertools import product
from math import gcd
from pathlib import Path

import pytest
import sympy as sp

from cubicha.arith import valuation
from cubicha.assocorder import CASE1, _INDEX_FACTOR, _INDEX_MINORS, classify, index_minors_gcd, index_of_case
from cubicha.cubicfield import OrderElement, TrinomialCubic, action_rows, hopf_mul_coords
from cubicha.exactlinalg import det3
from cubicha.freeness import _RHS_FACTOR, d_beta, m_beta

TESTS = Path(__file__).resolve().parent

a, b, x, y, t, u = sp.symbols("a b x y t u", integer=True)
DELTA = 4 * a**3 - 27 * b**2  # validate's delta
FIELD = TrinomialCubic(a, b, DELTA, sp.Symbol("g", integer=True))


def is_zero(expr) -> bool:
    return sp.expand(sp.cancel(expr)) == 0


def action(i: int) -> sp.Matrix:
    """The matrix of w_(i+1) on B read off action_rows: row block j holds
    the B-coordinates of w . alpha^j, so column j is w . alpha^j."""
    rows = action_rows(a, b)
    return sp.Matrix(3, 3, lambda r, j: rows[3 * j + r][i])


def lattice(primes=(2, 3, 5), top=(5, 5, 3)):
    """Fields (a, b) of both signs of a, with every pair of valuations below
    ``top`` at each prime: gcds, valuations and the case read a and b prime
    by prime, so this box is the case split of the 2-, 3- and 5-adic (any
    p >= 5) shapes.  The records are not validated: no check here needs it."""
    ranges = [range(n) for n in top]
    for va in product(*ranges):
        for vb in product(*ranges):
            aa = bb = 1
            for p, ea, eb in zip(primes, va, vb):
                aa, bb = aa * p**ea, bb * p**eb
            for sa in (aa, -aa):
                yield TrinomialCubic(sa, bb, 4 * sa**3 - 27 * bb**2, gcd(aa, bb))


def test_index_minors():
    """Carries ``assocorder.index_minors_gcd``: the rows _INDEX_MINORS of
    the action matrix have the minors -54b, -8a^3 and 18a."""
    rows = action_rows(a, b)
    minors = [sp.expand(det3([rows[i] for i in trio])) for trio in _INDEX_MINORS]
    assert minors == [-54 * b, -8 * a**3, 18 * a]


def test_index_gcd_case_split():
    """Carries ``assocorder._verify_certificates``: gcd(54b, 8a^3, 18a) is
    I_W = 2g, 18g or 54g.  Prime by prime, with v_p(g) = min(v_p(a),
    v_p(b)): at p >= 5 the gcd has valuation min(v_p(b), 3v_p(a), v_p(a)) =
    v_p(g); at 2, 1 + min(v2(b), 2 + 3v2(a), v2(a)) = 1 + v2(g); at 3,
    min(3 + v3(b), 3v3(a), 2 + v3(a)), which is 0 in CASE1 (v3(a) = 0),
    2 + v3(a) in CASE2 (1 <= v3(a) <= v3(b)) and 3 + v3(b) in CASE3
    (v3(a) > v3(b)), the valuations of 2g, 18g and 54g.  Run through the
    production minors and case table on the valuation box."""
    cases = set()
    for k in lattice():
        assert index_minors_gcd(action_rows(k.a, k.b)) == index_of_case(classify(k), k.g), k
        cases.add(classify(k).major)
    assert len(cases) == 3


def test_residue_key_is_exact():
    """Carries ``assocorder._congruence_failure``: every entry of the action
    matrix is an integer polynomial in a and b, and every coordinate of a
    product in W one in delta and the factors' coordinates.  So the
    certificates modulo d and d^2 read only a, b mod d and delta mod d^2,
    the residues the cache is keyed on."""
    for entry in (e for row in action_rows(a, b) for e in row):
        assert sp.Poly(entry, a, b).domain == sp.ZZ, entry
    delta = sp.Symbol("delta", integer=True)
    us, vs = sp.symbols("u1:4", integer=True), sp.symbols("v1:4", integer=True)
    for coord in hopf_mul_coords(delta, us, vs):
        assert sp.Poly(coord, delta, *us, *vs).domain == sp.ZZ, coord


def test_action_represents_the_multiplication_table():
    """Carries ``cubicfield.action_rows`` and ``cubicfield.hopf_mul_coords``,
    which the containment and ring-closure certificates of
    ``assocorder._congruence_failure`` read: w1 acts as the identity, and the
    matrix of w_i w_j, read off the table at delta = 4a^3 - 27b^2, is the
    product of the matrices of w_i and w_j."""
    assert action(0) == sp.eye(3)
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for i, j in product(range(3), repeat=2):
        coords = hopf_mul_coords(DELTA, unit[i], unit[j])
        table = sum((c * action(n) for n, c in enumerate(coords)), sp.zeros(3, 3))
        assert (action(i) * action(j) - table).expand() == sp.zeros(3, 3), (i, j)


def test_m_beta_is_the_action_on_beta():
    """Carries ``freeness.is_generator``, whose structural route reads
    m_beta: column i of m_beta is w_i . beta, the action matrix applied to
    the coordinates of beta."""
    beta = sp.symbols("b1:4", integer=True)
    m = m_beta(FIELD, OrderElement(*beta))
    rows = action_rows(a, b)
    for r, i in product(range(3), repeat=2):
        assert is_zero(m[r][i] - sum(beta[j] * rows[3 * j + r][i] for j in range(3))), (r, i)


def test_d_beta_is_det_m_beta():
    """Carries ``freeness.d_beta``, the primary route of is_generator:
    d_beta = det(m_beta) as polynomials."""
    beta = OrderElement(*sp.symbols("b1:4", integer=True))
    assert is_zero(det3(m_beta(FIELD, beta)) - d_beta(FIELD, beta))


def test_generator_from_solution():
    """Carries ``freeness.generator_from_solution``: with b3 = y and
    6a*b2 = 9by + s*x, s = +-1, d_beta = 2L(x^2 + 3*delta*y^2)/(12a) for the
    linear factor L = 3*b1 + 2a*y.  So a solution of x^2 + 3*delta*y^2 = N,
    N = F*a*g, gives |d_beta| = 2|L|F*g/12, which is I_W for the L the
    generator takes (+-1 in CASE1, 3 otherwise).  b1 = (L - 2ay)/3 is an
    integer: in CASE1 L = (2ay + 1) % 3 - 1 = 2ay mod 3, a unit when 3
    divides neither a nor y; otherwise 3 | a."""
    b1 = sp.Symbol("b1", integer=True)
    for s in (1, -1):
        beta = OrderElement(b1, (9 * b * y + s * x) / (6 * a), y)
        want = 2 * (3 * b1 + 2 * a * y) * (x**2 + 3 * DELTA * y**2) / (12 * a)
        assert is_zero(d_beta(FIELD, beta) - want), s
    for major, factor in _RHS_FACTOR.items():
        lin = 1 if major == CASE1 else 3
        assert 2 * lin * factor == 12 * _INDEX_FACTOR[major], major
    for ra, ry in product((1, 2), repeat=2):
        lin = (2 * ra * ry + 1) % 3 - 1
        assert lin in (1, -1) and (lin - 2 * ra * ry) % 3 == 0, (ra, ry)


def test_side_condition_constant_on_orbits():
    """Carries ``quadrep.FormProblem.accepts``, which the solver tests on
    one representative per orbit.  With D = 3*delta, |D| = -D, c = 9b,
    l_s(x, y) = c*y + s*x and the automorph A(x, y) = (t*x + |D|*u*y,
    u*x + t*y): D + c^2 = 12a^3, which 6|a| divides;
    l_s(A v) = (t + s*c*u)*l_s(v) + s*u*(|D| - c^2)*y; and
    (t + s*c*u)(t - s*c*u) = t^2 - |D|*u^2 + u^2(|D| - c^2), which is 1 mod
    6|a| on a unit.  u -> -u gives A^-1."""
    dabs, c = -3 * DELTA, 9 * b
    assert sp.expand(3 * DELTA + c**2) == 12 * a**3
    assert sp.Poly(sp.cancel(12 * a**3 / (6 * a)), a).domain == sp.ZZ
    ax, ay = t * x + dabs * u * y, u * x + t * y
    for s in (1, -1):
        mult = t + s * c * u
        assert is_zero((c * ay + s * ax) - mult * (c * y + s * x) - s * u * (dabs - c**2) * y), s
        assert is_zero(mult * (t - s * c * u) - (t**2 - dabs * u**2) - u**2 * (dabs - c**2)), s


def test_targets_divide_12a3():
    """Carries ``quadrep._root_sets``: each target has |N| = F|a|g, F = 12,
    36 or 108 by the case, and |N| divides 12a^3, so |D| = 81b^2 - 12a^3 =
    (9b)^2 mod |N| and a scan's fields share the key (|D| mod |N|, |N|).
    12a^3/(F|a|g) = a^2/(3^e g), e = 0, 1, 2: at p != 3, 2v_p(a) >= v_p(g);
    at 3, CASE1 has e = 0; CASE2 has v3(g) = v3(a) >= 1, so 2v3(a) >=
    1 + v3(g); CASE3 has v3(g) = v3(b) <= v3(a) - 1, so 2v3(a) >=
    2 + v3(g).  Run through the production factors on the valuation box."""
    for k in lattice():
        major = classify(k).major
        n = abs(_RHS_FACTOR[major] * k.a * k.g)
        assert 12 * k.a**3 % n == 0, k
        e = valuation(_RHS_FACTOR[major] // 12, 3)
        assert 2 * valuation(k.a, 3) >= e + valuation(k.g, 3), k


def test_dedekind_candidate():
    """Carries ``integrality.dedekind_check``: a common root of f and
    f' = 3x^2 - a is a root of x*f' - 3f = 2a*x - 3b, and with p | a,
    f' = 3x^2; a lift r + t*p moves f(r) by t*p*f'(r) modulo p^2."""
    f = x**3 - a * x + b
    fd = sp.diff(f, x)
    assert sp.expand(x * fd - 3 * f) == 2 * a * x - 3 * b
    assert fd.subs(a, 0) == 3 * x**2
    p = sp.Symbol("p", integer=True)
    rest = sp.expand(f.subs(x, x + t * p) - f - t * p * fd)
    assert sp.Poly(sp.cancel(rest / p**2), x, a, b, t, p).domain == sp.ZZ


def test_even_period():
    """Carries ``quadrep._principal_cycle``, which refuses an odd period:
    the period of sqrt(|D|) is odd exactly when t^2 - |D|u^2 = -1 has a
    solution, and 3 | |D| = 3|delta| would give t^2 = -1 mod 3, while the
    squares mod 3 are 0 and 1."""
    assert -1 % 3 not in {r * r % 3 for r in range(3)}


def test_case1_lemma():
    """Carries ``freeness.generator_from_solution`` and
    ``freeness.decide_freeness``: no solution of a CASE1 equation
    x^2 + 3*delta*y^2 = N, N = +-12ag, has 3 | y, so the paper's CASE1
    condition "3 does not divide y" is implied and no problem poses it.

    Proof: 3 divides neither a nor its divisor g, so v3(N) = 1.  3 divides
    3*delta and N, so 3 | x^2 and 3 | x.  If 3 | y too, 9 divides x^2 and
    27 divides 3*delta*y^2, so 9 | N, which is false.  Checked here mod 9
    over every residue of a*g prime to 3, both signs, every delta and x,
    and every y divisible by 3; the CASE1 target factor is 12, and CASE1
    is 3 not dividing a."""
    assert _RHS_FACTOR[CASE1] == 12 and valuation(12, 3) == 1
    assert all((classify(k).major == CASE1) == (k.a % 3 != 0) for k in lattice())
    for ag, sign, delta, x0, y0 in product((1, 2, 4, 5, 7, 8), (1, -1), range(9), range(9), (0, 3, 6)):
        assert (x0 * x0 + 3 * delta * y0 * y0 - sign * 12 * ag) % 9 != 0


# identities checked on samples by another test: the production function
# each carries, the identity, and the test
SAMPLED = (
    ("quadrep._segment", "the bottom row of a segment from its top row and its ends",
     "test_quadrep.py::TestProductTree::test_segment_identity"),
    ("quadrep._nagell_room", "Nagell's bound: a point within it is its orbit's minimum",
     "test_quadrep.py::TestNagellBound"),
    ("quadrep._located_roots", "content is constant on an expansion, and 1 on the cycle",
     "test_quadrep.py::TestContentSkip"),
    ("quadrep._indefinite_certificate", "a hit's sign is the parity of its step count",
     "test_quadrep.py::TestSignRule"),
    ("quadrep._principal_cycle", "every d = 3m has an even period",
     "test_quadrep.py::TestPrincipalCycle::test_multiples_of_3_have_even_periods"),
    ("quadrep.FormProblem.accepts", "the orbit multiplier on seeded points",
     "test_quadrep.py::TestConditionConstantOnOrbits::test_linear_form_identity_on_seeded_points"),
    ("freeness.generator_from_solution", "no CASE1 representative of [-60,60]^2 has 3 | y",
     "test_quadrep.py::TestSolveWithConditions::test_no_case1_solution_has_y_divisible_by_3"),
    ("integrality.dedekind_check", "the table and Dedekind's criterion agree",
     "test_integrality.py::TestDedekind::test_referee_agreement_grid"),
)


def resolve(dotted: str):
    """The object ``module.name[.attr]`` of the package, or AttributeError."""
    module, *names = dotted.split(".")
    obj = importlib.import_module(f"cubicha.{module}")
    for name in names:
        obj = getattr(obj, name)
    return obj


def defined_tests(path: Path) -> set[str]:
    """Every class and test function of a test file, as a node id."""
    ids = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            ids.add(f"{path.name}::{node.name}")
            ids |= {f"{path.name}::{node.name}::{fn.name}" for fn in node.body if isinstance(fn, ast.FunctionDef)}
        elif isinstance(node, ast.FunctionDef):
            ids.add(f"{path.name}::{node.name}")
    return ids


@pytest.mark.parametrize("carried, identity, test_id", SAMPLED, ids=[row[0] for row in SAMPLED])
def test_sampled_elsewhere(carried, identity, test_id):
    """Each pointer names a production function that exists and a test
    that still does."""
    resolve(carried)
    assert test_id in defined_tests(TESTS / test_id.split("::")[0]), (identity, test_id)


def test_every_entry_names_what_it_carries():
    entries = [
        fn for name, fn in vars(sys.modules[__name__]).items()
        if name.startswith("test_") and name not in ("test_sampled_elsewhere", "test_every_entry_names_what_it_carries")
    ]
    assert len(entries) == 12
    for fn in entries:
        doc = fn.__doc__ or ""
        assert doc.startswith("Carries ``"), fn.__name__
        carried = doc.split(":")[0].split("``")[1::2]
        for dotted in carried:
            resolve(dotted)
