"""Freeness of Z[alpha] over its associated order.

beta = b1 + b2*alpha + b3*alpha^2 is a free generator iff |d_beta| equals the
module index, where

    d_beta = 2 * (3*b1 + 2a*b3) * (3a*b2^2 - 9b*b2*b3 + a^2*b3^2)

is the determinant of the 3x3 coordinate matrix of the W-action on beta.
The decision procedure reduces generator existence to the representability
questions handled by quadrep:

    CASE1: x^2 + 3*delta*y^2 = +-12ag, 6a | 9by +- x
    CASE2: x^2 + 3*delta*y^2 = +-36ag, 6a | 9by +- x
    CASE3: x^2 + 3*delta*y^2 = +-108ag, 6a | 9by +- x

CASE1 also asks that 3 not divide y, and every solution meets that: 3
divides neither a nor g, so v3(12ag) = 1; 3 divides 3*delta and N, so
3 | x^2 and 3 | x; then 3 | y would put 9 into x^2 + 3*delta*y^2 = N.

The solver reports the branch sign it matched, so a match (x, y, branch)
fixes the one generator of the closed formulas (generator_from_solution),
which is verified through the determinant criterion before it is reported.
NOT_FREE is only reported with a completeness certificate from the Pell
layer for both signs of the target: every solution (definite, degenerate)
or one representative of every orbit of solutions (indefinite, where the
side condition is constant on each orbit) fails the side condition.
UNDECIDED records a hit factorization limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import DEFAULT_TRIAL_DIVISION_LIMIT
from .assocorder import AssociatedOrder, CASE1, build
from .cubicfield import OrderElement, TrinomialCubic
from .errors import FactorizationLimitError, NoIntegralCandidateError
from .exactlinalg import det3, divides_product
from .quadrep import FormProblem, PellCertificate, solve_with_conditions

FREE = "FREE"
NOT_FREE = "NOT_FREE"
UNDECIDED = "UNDECIDED"

_RHS_FACTOR = {"CASE1": 12, "CASE2": 36, "CASE3": 108}


@dataclass(frozen=True)
class FreenessReport:
    """The freeness verdict on the associated order of index ``index_iw``,
    with the verified generator when FREE and the Pell certificate of each
    right-hand side solved."""

    index_iw: int
    verdict: str
    generator: OrderElement | None
    pell: tuple[tuple[int, PellCertificate], ...]  # (rhs, certificate) per attempt
    checked_rhs: tuple[int, ...]
    matched: tuple[int, int, int] | None = None  # (x, y, branch)
    limit_hit: int | None = None


def m_beta(k: TrinomialCubic, beta: OrderElement) -> tuple[tuple[int, int, int], ...]:
    """Rows of the coordinate matrix of the W-action on beta: column i holds
    w_i . beta in B."""
    a, b = k.a, k.b
    b1, b2, b3 = beta.coords
    return (
        (b1, -4 * a * a * b2 + 6 * a * b * b3, 2 * b1 + 2 * a * b3),
        (b2, 9 * b * b2 - 2 * a * a * b3, -b2),
        (b3, 6 * a * b2 - 9 * b * b3, -b3),
    )


def d_beta(k: TrinomialCubic, beta: OrderElement) -> int:
    """Closed form of det(m_beta)."""
    a, b = k.a, k.b
    b1, b2, b3 = beta.coords
    return 2 * (3 * b1 + 2 * a * b3) * (3 * a * b2 * b2 - 9 * b * b2 * b3 + a * a * b3 * b3)


def is_generator(k: TrinomialCubic, beta: OrderElement, order: AssociatedOrder | None = None) -> bool:
    """Determinant criterion |d_beta| == I_W, cross-checked structurally.

    The images of beta under the associated-order basis are always integral;
    they form a Z-basis of Z[alpha] (coordinate determinant +-1) exactly when
    beta generates.  Both routes must agree.  In integers: the images under
    the adj(R) columns are m_beta * adj(R), each a multiple of d = det R,
    and their determinant det(m_beta) * det(adj R) is +-d^3 exactly when
    beta generates.
    """
    if order is None:
        order = build(k)
    d = order.index_iw
    primary = abs(d_beta(k, beta)) == d
    m = m_beta(k, beta)
    if not divides_product(d, m, tuple(zip(*order.adj))):
        raise AssertionError(
            f"an associated-order basis vector moves {beta} out of Z[alpha] for {k}"
        )
    structural = abs(det3(m) * det3(order.adj)) == d**3
    if primary != structural:
        raise AssertionError(
            f"determinant criterion says {primary} but the basis images say "
            f"{structural} for {beta} in {k}"
        )
    return primary


def generator_from_solution(
    k: TrinomialCubic, x: int, y: int, branch: int, order: AssociatedOrder
) -> OrderElement:
    """The verified generator b1 + b2*alpha + b3*alpha^2 of a matched solution.

    b3 = y and 6a*b2 = 9by + branch*x.  b1 sets the linear factor
    L = 3*b1 + 2a*y of d_beta: in CASE1, L is the one of +-1 congruent to
    2ay mod 3, which exists because no solution of a CASE1 equation has
    3 | y (see the module docstring); when 3 | a, L = 3.
    The quadratic factor of d_beta is then N/(12a), so
    |d_beta| = 2|L||N|/(12|a|), which is I_W (2g, 18g or 54g) in every case.
    The candidate is still verified through is_generator.  Raises
    NoIntegralCandidateError when 6a does not divide 9by + branch*x or no
    unit L exists.
    """
    a = k.a
    num = 9 * k.b * y + branch * x
    # in CASE1 3 does not divide a; (2ay + 1) % 3 - 1 is 0, 1 or -1 and
    # congruent to 2ay mod 3, and it is a unit, as no solution of a CASE1
    # equation has 3 | y (the module docstring's lemma)
    lin = (2 * a * y + 1) % 3 - 1 if order.case.major == CASE1 else 3
    if lin == 0 or num % (6 * a) != 0:
        raise NoIntegralCandidateError(
            f"branch {branch} of (x, y) = ({x}, {y}) yields no integral generator "
            f"for (a, b) = ({a}, {k.b})"
        )
    beta = OrderElement((lin - 2 * a * y) // 3, num // (6 * a), y)
    if not is_generator(k, beta, order):
        raise AssertionError(
            f"{beta} from (x, y, branch) = ({x}, {y}, {branch}) is not a generator "
            f"for (a, b) = ({a}, {k.b})"
        )
    return beta


def decide_freeness(
    k: TrinomialCubic,
    limit: int = DEFAULT_TRIAL_DIVISION_LIMIT,
    order: AssociatedOrder | None = None,
) -> FreenessReport:
    """Run the case's representability problems and emit a verified verdict.

    The targets +-N share |N| and the regime, and factorize is
    deterministic, so a budget that cannot factor what one target needs
    fails the other too: a hit limit makes the whole report UNDECIDED.
    """
    if order is None:
        order = build(k)
    base = _RHS_FACTOR[order.case.major] * k.a * k.g
    certs: list[tuple[int, PellCertificate]] = []
    try:
        for rhs in (base, -base):
            problem = FormProblem(d=3 * k.delta, n=rhs, modulus=6 * abs(k.a), ycoef=9 * k.b)
            match, cert = solve_with_conditions(problem, limit)
            certs.append((rhs, cert))
            if match is not None:
                break
    except FactorizationLimitError as exc:
        return FreenessReport(order.index_iw, UNDECIDED, None, (), (base, -base), limit_hit=exc.limit)
    checked = tuple(rhs for rhs, _ in certs)
    if match is not None:
        generator = generator_from_solution(k, *match, order)
        return FreenessReport(order.index_iw, FREE, generator, tuple(certs), checked, matched=match)
    return FreenessReport(order.index_iw, NOT_FREE, None, tuple(certs), checked)
