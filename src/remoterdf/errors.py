"""Exception types shared across the package.

Every structured rejection carries the offending number (residual,
eigenvalue, ...) so callers and the CLI can report exactly what failed.
"""

from __future__ import annotations


class RemoteRdfError(Exception):
    """Base class for all errors raised by this package."""


class NotSymmetricError(RemoteRdfError):
    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"matrix is not symmetric: asymmetry residual {residual:.3e} "
            f"exceeds tolerance {tol:.3e}"
        )


class NotPSDError(RemoteRdfError):
    def __init__(self, min_eigenvalue: float, tol: float, what: str = "matrix"):
        self.min_eigenvalue = min_eigenvalue
        self.tol = tol
        super().__init__(
            f"{what} is not positive semidefinite: smallest eigenvalue "
            f"{min_eigenvalue:.3e} is below -{tol:.3e}"
        )


class SingularYError(RemoteRdfError):
    def __init__(self, min_eigenvalue: float, tol: float):
        self.min_eigenvalue = min_eigenvalue
        self.tol = tol
        super().__init__(
            f"side-information covariance block is singular: smallest eigenvalue "
            f"{min_eigenvalue:.3e} <= {tol:.3e}"
        )


class InfeasibleSigmaError(RemoteRdfError):
    """Distortion covariance is malformed or outside [Q_{X|S,Y}, Q_{X|Y}]."""


class HypothesisViolatedError(RemoteRdfError):
    def __init__(self, hypothesis: str, value: float):
        self.hypothesis = hypothesis
        self.value = value
        super().__init__(f"hypothesis violated: {hypothesis} (offending value {value:.3e})")


class BelowRangeError(RemoteRdfError):
    """Requested distortion is at or below the finite-rate lower boundary."""

    def __init__(self, delta: float, delta_min: float):
        self.delta = delta
        self.delta_min = delta_min
        super().__init__(
            f"distortion {delta!r} is at or below the lower boundary {delta_min!r}; "
            "the rate is infinite there"
        )


class DimensionUnsupportedError(RemoteRdfError):
    """The brute-force oracle supports only n_x = n_s in {1, 2}."""


class ResolutionTooCoarseError(RemoteRdfError):
    def __init__(self, feasible_points: int):
        self.feasible_points = feasible_points
        super().__init__(
            f"search grid contains only {feasible_points} feasible points (< 10); "
            "increase the resolution"
        )


class SpecFileError(RemoteRdfError):
    """Source-spec document is malformed; the message names the offending field."""
