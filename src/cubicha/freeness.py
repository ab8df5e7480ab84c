"""Freeness of Z[alpha] over its associated order.

beta = b1 + b2*alpha + b3*alpha^2 is a free generator iff |d_beta| equals the
module index, where

    d_beta = 2 * (3*b1 + 2a*b3) * (3a*b2^2 - 9b*b2*b3 + a^2*b3^2)

is the determinant of the 3x3 coordinate matrix of the W-action on beta.
The decision procedure reduces generator existence to the representability
questions handled by quadrep:

    CASE1: x^2 + 3*delta*y^2 = +-12ag, 6a | 9by +- x, 3 not dividing y
    CASE2: x^2 + 3*delta*y^2 = +-36ag, 6a | 9by +- x
    CASE3: x^2 + 3*delta*y^2 = +-108ag, 6a | 9by +- x

A matching (x, y) is converted to candidate generators by the closed
formulas (all sign choices are enumerated and every candidate is verified
through the determinant criterion before being reported; the theorems'
implicit sign coupling never needs to be reconstructed).  NOT_FREE is only
reported with a completeness certificate from the Pell layer; UNDECIDED
records a hit factorization limit in the degenerate regime.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .arith import DEFAULT_TRIAL_DIVISION_LIMIT
from .assocorder import AssociatedOrder, CASE1, CaseLabel, build, classify, index_of_case
from .cubicfield import OrderElement, TrinomialCubic
from .errors import FactorizationLimitError, NoIntegralCandidateError
from .exactlinalg import det3, divides_product
from .quadrep import FormProblem, PellCertificate, solve_with_conditions

log = logging.getLogger(__name__)

FREE = "FREE"
NOT_FREE = "NOT_FREE"
UNDECIDED = "UNDECIDED"

_RHS_FACTOR = {"CASE1": 12, "CASE2": 36, "CASE3": 108}


@dataclass(frozen=True)
class FreenessReport:
    k: TrinomialCubic
    case: CaseLabel
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
    k: TrinomialCubic, x: int, y: int, order: AssociatedOrder | None = None
) -> list[OrderElement]:
    """Integral generator candidates built from a Pell solution (x, y).

    CASE1 enumerates the unit r in the linear factor and both +-x branches;
    the 3|a cases fix the linear factor at 1 - (2a/3)y and enumerate the
    branches.  Non-integral sign choices are dropped; surviving candidates
    are verified and any verification failure is logged as an anomaly.
    """
    if order is None:
        order = build(k)
    a, b = k.a, k.b
    candidates: list[OrderElement] = []
    first_factors: list[int] = []
    if order.case.major == CASE1:
        for r in (1, -1):
            if (r - 2 * a * y) % 3 == 0:
                first_factors.append((r - 2 * a * y) // 3)
    else:
        first_factors.append(1 - 2 * (a // 3) * y)
    for branch in (-1, 1):
        num = 9 * b * y + branch * x
        if num % (6 * a) != 0:
            continue
        b2 = num // (6 * a)
        for b1 in first_factors:
            cand = OrderElement(b1, b2, y)
            if cand not in candidates:
                candidates.append(cand)
    if not candidates:
        raise NoIntegralCandidateError(
            f"no sign choice yields an integral generator from (x, y) = ({x}, {y}) "
            f"for (a, b) = ({a}, {b})"
        )
    verified = []
    for cand in candidates:
        if is_generator(k, cand, order):
            verified.append(cand)
        else:
            log.warning(
                "candidate %s from (x, y) = (%s, %s) failed verification for "
                "(a, b) = (%s, %s)", cand, x, y, a, b,
            )
    return verified


def decide_freeness(
    k: TrinomialCubic,
    limit: int = DEFAULT_TRIAL_DIVISION_LIMIT,
    order: AssociatedOrder | None = None,
) -> FreenessReport:
    """Run the case's representability problems and emit a verified verdict."""
    if order is None:
        order = build(k)
    case = order.case
    base = _RHS_FACTOR[case.major] * k.a * k.g
    d = 3 * k.delta
    certs: list[tuple[int, PellCertificate]] = []
    checked: list[int] = []
    limit_hit = None
    for rhs in (base, -base):
        problem = FormProblem(
            d=d,
            n=rhs,
            modulus=6 * abs(k.a),
            ycoef=9 * k.b,
            require_y_not_div3=(case.major == CASE1),
        )
        try:
            match, cert = solve_with_conditions(problem, limit)
        except FactorizationLimitError as exc:
            limit_hit = exc.limit
            checked.append(rhs)
            continue
        checked.append(rhs)
        certs.append((rhs, cert))
        if match is not None:
            x, y, branch = match
            verified = generator_from_solution(k, x, y, order)
            if not verified:
                raise AssertionError(
                    f"matched solution ({x}, {y}) produced no verified generator "
                    f"for (a, b) = ({k.a}, {k.b})"
                )
            return FreenessReport(
                k, case, order.index_iw, FREE, verified[0],
                tuple(certs), tuple(checked), matched=match,
            )
    if limit_hit is not None:
        return FreenessReport(
            k, case, order.index_iw, UNDECIDED, None,
            tuple(certs), tuple(checked), limit_hit=limit_hit,
        )
    return FreenessReport(
        k, case, order.index_iw, NOT_FREE, None, tuple(certs), tuple(checked)
    )


def brute_force_generator(k: TrinomialCubic, bound: int) -> OrderElement | None:
    """Box search for a generator with all coordinates in [-bound, bound].

    Exhaustive over the box: for each (b2, b3) the quadratic factor divides
    half the index or no b1 can work, and then b1 is pinned by a linear
    congruence, so the scan is quadratic rather than cubic in the bound.
    """
    if bound < 1:
        raise AssertionError(f"box bound must be >= 1, got {bound}")
    iw = index_of_case(classify(k), k.g)
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
                    return OrderElement(b1, b2, b3)
    return None
