"""Covariance algebra for jointly Gaussian source/measurement/side-information triples.

The problem instance is the joint covariance of the zero-mean Gaussian vector
(X, S, Y): X is the source (dimension n_x), S the measurement available to the
encoder (n_s), Y the side information (n_y).  Everything downstream is a
function of this matrix, so this module owns validation, the conditional
(Schur-complement) statistics given Y, PSD square roots, pseudoinverses, and
the closed-form Gaussian conditional mutual information.  All rates are in
nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotNestedError,
    NotPSDError,
    NotSymmetricError,
    SingularYError,
)

# Tolerances (double precision headroom at dimensions <= 64).
SYM_TOL_SCALE = 1e-9   # asymmetry allowance, relative to ||Q||_F
PSD_TOL_SCALE = 1e-9   # eigenvalue floor, relative to max(largest eigenvalue, 1)
INV_TOL = 1e-10        # strictly-positive-definite threshold
RANK_TOL = 1e-12       # singular values below RANK_TOL * sigma_max count as zero


def psd_tolerance(largest_eigenvalue: float) -> float:
    """Eigenvalue tolerance for PSD tests on a matrix with this largest eigenvalue.

    Scale-aware above 1, absolute below it.
    """
    return PSD_TOL_SCALE * max(largest_eigenvalue, 1.0)


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class GaussianSourceSpec:
    """Validated joint covariance of (X, S, Y) with its block dimensions.

    `q` is the symmetrized (n_x+n_s+n_y)-square covariance; `sym_residual`
    records how asymmetric the raw input was before symmetrization.
    """

    n_x: int
    n_s: int
    n_y: int
    q: np.ndarray
    sym_residual: float

    @property
    def n_total(self) -> int:
        return self.n_x + self.n_s + self.n_y

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
    """The Schur complements given Y: Q_{X|Y}, Q_{S|Y} and Q_{X,S|Y}.

    The paper's hypotheses and its water-filling solution are stated in
    these three.  Any other conditional covariance, such as Q_{X|S,Y}, comes
    from `conditional_covariance` on the joint.
    """

    q_x_given_y: np.ndarray
    q_s_given_y: np.ndarray
    q_xs_given_y: np.ndarray


def validate_spec(raw: np.ndarray, dims: tuple[int, int, int]) -> GaussianSourceSpec:
    """Validate a raw joint covariance and package it as a GaussianSourceSpec.

    The matrix is symmetrized via (Q + Q^T)/2 before the PSD test and the
    asymmetry residual is recorded on the returned spec.

    Parameters
    ----------
    raw : array-like of shape (n, n), n = n_x + n_s + n_y
    dims : (n_x, n_s, n_y), all positive

    Raises
    ------
    ValueError
        Wrong shape or non-positive dimensions.
    NotSymmetricError, NotPSDError, SingularYError
        Structured rejections, in that precedence order.
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

    eigs = np.linalg.eigvalsh(q)
    psd_tol = psd_tolerance(float(eigs[-1]))
    if float(eigs[0]) < -psd_tol:
        raise NotPSDError(float(eigs[0]), psd_tol)

    q.setflags(write=False)
    spec = GaussianSourceSpec(n_x=n_x, n_s=n_s, n_y=n_y, q=q, sym_residual=sym_residual)

    y_eigs = np.linalg.eigvalsh(spec.q_y)
    if float(y_eigs[0]) <= INV_TOL:
        raise SingularYError(float(y_eigs[0]), INV_TOL)
    return spec


def conditional_stats(spec: GaussianSourceSpec) -> ConditionalStats:
    """Compute the conditional covariances Q_{X|Y}, Q_{S|Y} and Q_{X,S|Y}.

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


def conditional_covariance(
    joint: np.ndarray, keep: np.ndarray | list[int], given: np.ndarray | list[int]
) -> np.ndarray:
    """Conditional covariance of the `keep` coordinates given the `given` ones.

    Generic Schur complement with a pseudoinverse, valid for singular
    conditioning blocks of a PSD joint covariance.
    """
    keep = np.asarray(keep, dtype=int)
    given = np.asarray(given, dtype=int)
    a = joint[np.ix_(keep, keep)]
    b = joint[np.ix_(keep, given)]
    c = joint[np.ix_(given, given)]
    return symmetrize(a - b @ pseudo_inverse(c) @ b.T)


def symmetric_sqrt(m: np.ndarray) -> np.ndarray:
    """Unique symmetric PSD square root of a symmetric PSD matrix.

    Eigenvalues below the PSD tolerance are clamped to zero before rooting,
    so nearly singular inputs root cleanly.
    """
    return sqrt_from_eigh(*np.linalg.eigh(symmetrize(np.asarray(m, dtype=float))))


def sqrt_from_eigh(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """`symmetric_sqrt(m)`, bit for bit, from `np.linalg.eigh(symmetrize(m))`."""
    tol = psd_tolerance(float(eigvals[-1])) if eigvals.size else 0.0
    if eigvals.size and float(eigvals[0]) < -tol:
        raise NotPSDError(float(eigvals[0]), tol)
    clamped = np.where(eigvals < tol, 0.0, eigvals)
    return symmetrize((eigvecs * np.sqrt(clamped)) @ eigvecs.T)


def pseudo_inverse(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below RANK_TOL * sigma_max are treated as exact zeros.
    """
    m = np.asarray(m, dtype=float)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros_like(m.T)
    inv_s = np.where(s > RANK_TOL * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return (vt.T * inv_s) @ u.T


def gaussian_cmi(q_prior: np.ndarray, q_posterior: np.ndarray) -> float:
    """Gaussian conditional mutual information from nested conditional covariances.

    Returns 0.5 * log(det(q_prior) / det(q_posterior)) in nats, with both
    matrices restricted to the range space of q_prior when it is singular
    (pseudo-determinant convention).  Returns ``inf`` when the posterior is
    singular on that range.

    Raises
    ------
    NotNestedError
        q_prior - q_posterior has a negative eigenvalue beyond tolerance.
    NotPSDError
        q_posterior has a negative eigenvalue beyond tolerance.
    """
    q_prior = symmetrize(np.asarray(q_prior, dtype=float))
    q_posterior = symmetrize(np.asarray(q_posterior, dtype=float))
    if q_prior.shape != q_posterior.shape:
        raise ValueError("prior and posterior covariances must have the same shape")

    prior_eigs, prior_vecs = np.linalg.eigh(q_prior)
    tol = psd_tolerance(float(prior_eigs[-1])) if prior_eigs.size else 0.0
    if prior_eigs.size and float(prior_eigs[0]) < -tol:
        raise NotPSDError(float(prior_eigs[0]), tol, what="prior covariance")

    post_min = float(np.min(np.linalg.eigvalsh(q_posterior))) if q_posterior.size else 0.0
    if post_min < -tol:
        raise NotPSDError(post_min, tol, what="posterior covariance")
    gap_min = float(np.min(np.linalg.eigvalsh(q_prior - q_posterior)))
    if gap_min < -tol:
        raise NotNestedError(gap_min)

    keep = prior_eigs > tol
    if not np.any(keep):
        return 0.0
    basis = prior_vecs[:, keep]
    log_det_prior = float(np.sum(np.log(prior_eigs[keep])))
    post_proj_eigs = np.linalg.eigvalsh(symmetrize(basis.T @ q_posterior @ basis))
    if float(np.min(post_proj_eigs)) <= tol:
        return float("inf")
    log_det_post = float(np.sum(np.log(post_proj_eigs)))
    return max(0.0, 0.5 * (log_det_prior - log_det_post))
