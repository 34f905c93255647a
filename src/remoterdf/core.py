"""Covariance algebra for jointly Gaussian source/measurement/side-information triples.

The problem instance is the joint covariance of the zero-mean Gaussian vector
(X, S, Y): X is the source (dimension n_x), S the measurement available to the
encoder (n_s), Y the side information (n_y).  Everything downstream is a
function of this matrix, so this module owns validation, the conditional
(Schur-complement) statistics given Y with their reduction, and the PSD
square root for simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HypothesisViolatedError, NotPSDError, NotSymmetricError, SingularYError

# Tolerances (double precision headroom at dimensions <= 64).
SYM_TOL_SCALE = 1e-9   # asymmetry allowance, relative to ||Q||_F
PSD_TOL_SCALE = 1e-9   # eigenvalue floor, relative to the largest eigenvalue
INV_TOL = 1e-10        # invertibility threshold, relative to the scale it is tested at
RANK_TOL = 1e-12       # singular values below RANK_TOL * sigma_max count as zero


def psd_tolerance(largest_eigenvalue: float) -> float:
    """Eigenvalue tolerance for PSD tests at the scale of this largest eigenvalue
    (of the matrix tested, or of Q_{X|Y} where that can be tiny next to it)."""
    return PSD_TOL_SCALE * largest_eigenvalue


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def unit_roots(variances: np.ndarray) -> np.ndarray:
    """Units of components with these variances: the root of each positive one, else 1."""
    return np.sqrt(np.where(variances > 0.0, variances, 1.0))


def _in_units(m: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """D^{-1/2} m D^{-1/2}, D^{1/2} = diag(`unit_roots(variances)`)."""
    r = unit_roots(variances)
    return m / np.outer(r, r)


@dataclass(frozen=True)
class GaussianSourceSpec:
    """Validated joint covariance of (X, S, Y) with its block dimensions.

    `q` is the symmetrized (n_x+n_s+n_y)-square covariance; `sym_residual`
    records how asymmetric the raw input was before symmetrization; `stats`
    is the analysed instance that `validate_spec` builds and every stage reads.
    """

    n_x: int
    n_s: int
    n_y: int
    q: np.ndarray
    sym_residual: float

    @property
    def n_total(self) -> int:
        return self.n_x + self.n_s + self.n_y

    @cached_property
    def stats(self) -> ConditionalStats:
        """`conditional_stats(self)`, built once and cached."""
        return conditional_stats(self)

    # Block slices, in (X, S, Y) order.
    @property
    def _sx(self) -> slice:
        return slice(0, self.n_x)

    @property
    def _ss(self) -> slice:
        return slice(self.n_x, self.n_x + self.n_s)

    @property
    def _sy(self) -> slice:
        return slice(self.n_x + self.n_s, self.n_total)

    @property
    def q_x(self) -> np.ndarray:
        return self.q[self._sx, self._sx]

    @property
    def q_s(self) -> np.ndarray:
        return self.q[self._ss, self._ss]

    @property
    def q_y(self) -> np.ndarray:
        return self.q[self._sy, self._sy]

    @property
    def q_xs(self) -> np.ndarray:
        return self.q[self._sx, self._ss]

    @property
    def q_xy(self) -> np.ndarray:
        return self.q[self._sx, self._sy]

    @property
    def q_sy(self) -> np.ndarray:
        return self.q[self._ss, self._sy]


@dataclass(frozen=True)
class ConditionalStats:
    """The analysed instance: the Schur complements given Y, Q_{X|Y}, Q_{S|Y}
    and Q_{X,S|Y}.  The cached properties hold the Cholesky factor of Q_{S|Y},
    the remote-source reduction F = V diag(s) U^T for any n_x, n_s and rank
    of Q_{X,S|Y}, its water-filling terms and the instance's PSD tolerance,
    each computed on first use and shared by every stage that reads them.
    """

    q_x_given_y: np.ndarray
    q_s_given_y: np.ndarray
    q_xs_given_y: np.ndarray

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor L of Q_{S|Y}.  A Q_{S|Y} with none is refused
        (HypothesisViolatedError "Q_{S|Y} > 0")."""
        try:
            return np.linalg.cholesky(self.q_s_given_y)
        except np.linalg.LinAlgError:
            low = float(np.linalg.eigvalsh(self.q_s_given_y)[0])
            raise HypothesisViolatedError("Q_{S|Y} > 0", low) from None

    @cached_property
    def f(self) -> np.ndarray:
        """F = L^{-1} Q_{X,S|Y}^T, so F^T F = B = Q_{X,S|Y} Q_{S|Y}^{-1} Q_{X,S|Y}^T."""
        return np.linalg.solve(self.chol, self.q_xs_given_y.T)

    @cached_property
    def s(self) -> np.ndarray:
        """F's singular values, descending, by the values-only SVD."""
        return np.linalg.svd(self.f, compute_uv=False)

    @cached_property
    def active(self) -> np.ndarray:
        """Indices of the s_i above RANK_TOL * s_max: the components S observes."""
        return np.flatnonzero(self.s > RANK_TOL * self.s[0])

    @cached_property
    def u(self) -> np.ndarray:
        """Right singular vectors of F, paired with `s`."""
        return np.linalg.svd(self.f, full_matrices=False)[2].T

    @cached_property
    def d_sq(self) -> np.ndarray:
        """d_i^2 = (1/s_i)^2 of the active components, ascending."""
        return (1.0 / self.s[self.active]) ** 2

    @cached_property
    def trace_xy(self) -> float:
        """trace(Q_{X|Y}) = delta_plus, the distortion that needs no coding."""
        return float(np.trace(self.q_x_given_y))

    @cached_property
    def delta_min(self) -> float:
        """trace(Q_{X|S,Y}): trace_xy less the capacity sum(1/d_sq), not sum(s^2)."""
        return self.trace_xy - float(np.sum(1.0 / self.d_sq))

    @cached_property
    def psd_tol(self) -> float:
        """`psd_tolerance` of Q_{X|Y}, the scale of every test on Sigma and Q_W."""
        return psd_tolerance(float(np.linalg.eigvalsh(self.q_x_given_y)[-1]))


def validate_spec(raw: np.ndarray, dims: tuple[int, int, int]) -> GaussianSourceSpec:
    """Validate a raw joint covariance and package it as a GaussianSourceSpec.

    The matrix is symmetrized via (Q + Q^T)/2 before the PSD tests and the
    asymmetry residual is recorded on the returned spec.  The joint is PSD
    exactly when Q_Y is positive definite and the covariance of (X, S) given
    Y is PSD, so those two are tested (building `spec.stats`) and the
    joint's own spectrum is not.  Each is tested as D^{-1/2} B D^{-1/2}, D
    the positive part of B's diagonal, so rescaling any component of X, S or
    Y moves no verdict; a conditional variance that is not positive is
    measured in its component's unconditional one.

    Parameters
    ----------
    raw : array-like of shape (n, n), n = n_x + n_s + n_y
    dims : (n_x, n_s, n_y), all positive

    Raises
    ------
    ValueError
        Wrong shape or non-positive dimensions.
    NotSymmetricError, NotPSDError, SingularYError, NotPSDError
        Structured rejections, in that precedence order (Q_Y, then (X, S)
        given Y), each for an eigenvalue of D^{-1/2} B D^{-1/2} below minus
        the PSD tolerance of its largest.
    """
    n_x, n_s, n_y = (int(d) for d in dims)
    if min(n_x, n_s, n_y) <= 0:
        raise ValueError(f"dimensions must be positive, got {dims}")
    n = n_x + n_s + n_y
    q_raw = np.asarray(raw, dtype=float)
    if q_raw.shape != (n, n):
        raise ValueError(f"covariance must have shape ({n}, {n}), got {q_raw.shape}")
    if not np.all(np.isfinite(q_raw)):
        raise ValueError("covariance contains non-finite entries")

    sym_residual = float(np.linalg.norm(q_raw - q_raw.T, "fro"))
    sym_tol = SYM_TOL_SCALE * float(np.linalg.norm(q_raw, "fro"))
    if sym_residual > sym_tol:
        raise NotSymmetricError(sym_residual, sym_tol)
    q = symmetrize(q_raw)

    q.setflags(write=False)
    spec = GaussianSourceSpec(n_x=n_x, n_s=n_s, n_y=n_y, q=q, sym_residual=sym_residual)

    y_eigs = np.linalg.eigvalsh(_in_units(spec.q_y, np.diagonal(spec.q_y)))
    y_tol = psd_tolerance(float(y_eigs[-1]))
    if float(y_eigs[0]) < -y_tol:
        raise NotPSDError(float(y_eigs[0]), y_tol, "side-information covariance block")
    if float(y_eigs[0]) <= INV_TOL * float(y_eigs[-1]):
        raise SingularYError(float(y_eigs[0]), INV_TOL * float(y_eigs[-1]))

    # With Q_Y > 0 the joint is PSD exactly when this Schur complement is; in
    # its own units, so neither a small-variance Y nor a large-variance S can
    # hide a negative eigenvalue.
    stats = spec.stats
    xs = np.block([[stats.q_x_given_y, stats.q_xs_given_y],
                   [stats.q_xs_given_y.T, stats.q_s_given_y]])
    given_y = np.diagonal(xs)
    xs_eigs = np.linalg.eigvalsh(
        _in_units(xs, np.where(given_y > 0.0, given_y, np.diagonal(q)[: n_x + n_s])))
    xs_tol = psd_tolerance(float(xs_eigs[-1]))
    if float(xs_eigs[0]) < -xs_tol:
        raise NotPSDError(float(xs_eigs[0]), xs_tol, "covariance of (X, S) given Y")
    return spec


def conditional_stats(spec: GaussianSourceSpec) -> ConditionalStats:
    """Build the conditional covariances Q_{X|Y}, Q_{S|Y} and Q_{X,S|Y} afresh;
    `spec.stats` holds the one build that the package's stages share.

    Each is the Schur complement of Q_Y, e.g.
    Q_{X,S|Y} = Q_{X,S} - Q_{X,Y} Q_Y^{-1} Q_{Y,S}; `validate_spec` has
    already refused a singular Q_Y.
    """
    q_y = spec.q_y
    gain_x = np.linalg.solve(q_y, spec.q_xy.T).T
    gain_s = np.linalg.solve(q_y, spec.q_sy.T).T

    q_x_given_y = symmetrize(spec.q_x - gain_x @ spec.q_xy.T)
    q_s_given_y = symmetrize(spec.q_s - gain_s @ spec.q_sy.T)
    q_xs_given_y = spec.q_xs - gain_x @ spec.q_sy.T
    return ConditionalStats(
        q_x_given_y=q_x_given_y,
        q_s_given_y=q_s_given_y,
        q_xs_given_y=q_xs_given_y,
    )


def symmetric_sqrt(m: np.ndarray) -> np.ndarray:
    """Unique symmetric PSD square root of a symmetric PSD matrix.

    Eigenvalues below the PSD tolerance are clamped to zero before rooting,
    so nearly singular inputs root cleanly.
    """
    eigvals, eigvecs = np.linalg.eigh(symmetrize(np.asarray(m, dtype=float)))
    tol = psd_tolerance(float(eigvals[-1])) if eigvals.size else 0.0
    if eigvals.size and float(eigvals[0]) < -tol:
        raise NotPSDError(float(eigvals[0]), tol)
    clamped = np.where(eigvals < tol, 0.0, eigvals)
    return symmetrize((eigvecs * np.sqrt(clamped)) @ eigvecs.T)
