"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A field descriptor (a, b) was rejected; ``code`` names the failed check.

    Codes: ZERO_A, ZERO_B, REDUCIBLE, NOT_REDUCED, GCD_UNFACTORED.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class DegenerateFormError(ValueError):
    """A square root of a perfect square was requested where a quadratic surd
    is needed; the caller must use the factorization path instead."""


class RankError(ValueError):
    """Row reduction found a column without a pivot (rank-deficient input)."""


class SingularMatrixError(ValueError):
    """Matrix inversion of a singular matrix."""


class LatticeMismatchError(RuntimeError):
    """The closed-form reduced matrix and the generic reduction generate
    different lattices.  Indicates a bug or an unhandled case; never ignored."""


class FactorizationLimitError(RuntimeError):
    """The work budget ``limit`` of ``arith.factorize`` (trial division by
    the primes up to min(limit, TRIAL_DIVISION_BOUND), then
    (limit - TRIAL_DIVISION_BOUND) // RHO_ITERATION_COST Brent rho
    iterations) left a composite cofactor unsplit."""

    def __init__(self, n: int, limit: int, cofactor: int):
        super().__init__(
            f"cannot fully factor {n}: cofactor {cofactor} survives the "
            f"factorization budget {limit} (trial division, then rho)"
        )
        self.n = n
        self.limit = limit
        self.cofactor = cofactor


class NoIntegralCandidateError(RuntimeError):
    """The generator formulas give no integer vector for a solution (x, y)
    and branch: 6a does not divide 9by + branch*x, or in CASE1 3 divides y,
    so no linear factor 3*b1 + 2a*y is +-1.

    The solver only reports matches that meet the side conditions, so from
    decide_freeness this surfaces an inconsistency rather than being
    silently swallowed.
    """
