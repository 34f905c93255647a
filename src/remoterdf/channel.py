"""Optimal test-channel synthesis, structural verification, and simulation.

The reproduction is realized as X_hat = H S + G Y + W with W independent
Gaussian noise.  The optimal channel is a set of parallel scalar channels in
the coordinates of the reduction that `ConditionalStats` caches: Q_{S|Y} =
L L^T and F = L^{-1} Q_{X,S|Y}^T = V diag(s) U^T, with U_a, s_a and the
orthonormal V_a = F U_a diag(1/s_a) on the k active components.  A
reproduction covariance M = Q_{X_hat|Y} on range(B), B = F^T F, is given
whitened: N = W^T M W = R diag(nu) R^T, 0 <= nu <= 1, W = U_a diag(1/s_a)
(so B^+ = W W^T).  With T = U_a diag(s_a) R,

    M = T diag(nu) T^T,  Q_W = T diag(nu (1 - nu)) T^T = M - M B^+ M
    H = T diag(nu) (V_a R)^T L^{-1} = M B^+ Q_{X,S|Y} Q_{S|Y}^{-1}
    G = (Q_{X,Y} - H Q_{S,Y}) Q_Y^{-1}
    Q_{S|X_hat,Y} = L (I - V_a R diag(nu) R^T V_a^T) L^T

and the rate is -1/2 sum(log(1 - nu)).  One constructor builds them from
(R, nu, 1 - nu), so 1 - nu is never a difference when its source knows it.
`optimal_channel` feeds it a water-filling solution: R = I, nu = lambda d^2
and 1 - nu = min(1, d^2 / (2 xi)), with no eigendecomposition.
`build_channel` feeds it a distortion covariance Sigma, M = Q_{X|Y} - Sigma,
and decomposes only k x k matrices.

The same matrices also realize the decoder-only split X_hat = G Y + Z with
Z = H S + W, where Z is what an encoder without access to Y would transmit:
the channel's own `h`, `q_w` and `g`, regrouped.

Three structural properties of the optimal realization hold for any H, G and
Q_W, by construction.  W is independent of (X, S, Y), so Z is conditionally
independent of (X, Y) given S.  Since X_hat = Z + G Y, the pairs (Z, Y) and
(X_hat, Y) are invertible linear images of each other, so Q_{Z|Y} =
Q_{X_hat|Y} and Q_{S|Z,Y} = Q_{S|X_hat,Y}.  A fourth, X independent of Y
given X_hat, follows from the conditional-mean identity E(X|X_hat, Y) =
X_hat.  That identity is the only one that singles out the optimal gains, so
`verify_structure` checks it alone, analytically from second moments;
`simulate_channel` checks the distortion empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (SYM_TOL_SCALE, ConditionalStats, GaussianSourceSpec, in_units, symmetric_sqrt,
                   symmetrize)
from .errors import InfeasibleSigmaError
from .waterfill import WaterfillSolution

# Threshold for the structural residual, each of whose entries is divided by
# the standard deviations of its two variables: rescaling any component of X,
# S or Y moves neither.
STRUCT_TOL = 1e-8

# Rows per Monte Carlo chunk: keeps the simulation's memory independent of
# the sample count, at about 64 KiB per buffer column.
_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class TestChannel:
    """Realization matrices of the optimal reproduction channel.

    `q_xhat_given_y` and `q_s_given_xhat_y` are derived at construction and
    carried along because every consumer needs them.  `nu_complement` holds
    1 - nu, one entry per active component (see the module docstring), from
    which `rate_of_channel` reads the rate.
    """

    __test__ = False  # domain type, not a pytest class

    h: np.ndarray
    g: np.ndarray
    q_w: np.ndarray
    sigma_delta: np.ndarray
    q_xhat_given_y: np.ndarray
    q_s_given_xhat_y: np.ndarray
    nu_complement: np.ndarray


@dataclass(frozen=True)
class StructuralReport:
    """Frobenius residuals of the structural checks, zero when they hold; each
    passes under STRUCT_TOL."""

    residuals: dict[str, float]

    @property
    def passes(self) -> dict[str, bool]:
        return {name: value < STRUCT_TOL for name, value in self.residuals.items()}

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


@dataclass(frozen=True)
class ChannelRate:
    """Rate from the channel's factor, the measurement-side determinant ratio
    on its matrices (which must agree), and their absolute discrepancy."""

    rate: float
    rate_alt: float
    discrepancy: float


@dataclass(frozen=True)
class SimulationResult:
    empirical_distortion: float
    standard_error: float
    n_samples: int
    seed: int


def _channel(spec: GaussianSourceSpec, stats: ConditionalStats, sigma: np.ndarray,
             r: np.ndarray, nu: np.ndarray, nu_complement: np.ndarray) -> TestChannel:
    """The channel whose whitened reproduction covariance is R diag(nu) R^T,
    with 1 - nu given as `nu_complement` (formulas in the module docstring)."""
    # U_a is exactly 0 in the rows of F's zero columns (X_i = 0, or X_i uncorrelated
    # with S given Y), not SVD rounding that the residual reads in X_i's unit.
    u_a = np.where(np.any(stats.f, axis=0)[:, None], stats.u[:, stats.active], 0.0)
    s_a = stats.s[stats.active]
    t = (u_a * s_a) @ r
    v = (stats.f @ u_a / s_a) @ r  # V_a R
    h = (t * nu) @ np.linalg.solve(stats.chol.T, v).T
    g = np.linalg.solve(spec.q_y, (spec.q_xy - h @ spec.q_sy).T).T
    q_s_post = stats.chol @ (np.eye(v.shape[0]) - (v * nu) @ v.T) @ stats.chol.T
    return TestChannel(h=h, g=g, q_w=symmetrize((t * (nu * nu_complement)) @ t.T),
                       sigma_delta=sigma, q_xhat_given_y=symmetrize((t * nu) @ t.T),
                       q_s_given_xhat_y=symmetrize(q_s_post), nu_complement=nu_complement)


def optimal_channel(spec: GaussianSourceSpec, sol: WaterfillSolution) -> TestChannel:
    """The optimal channel of a water-filling solution `sol` of `spec`, built
    on `spec.stats`: R = I, nu = lambda d^2 and 1 - nu = min(1, d^2 / (2 xi))
    from the level, so no eigendecomposition is taken and the rate is the
    solver's down to delta_min.  The solver's allocation is feasible by
    construction, so nothing is tested or refused."""
    stats = spec.stats
    nu = sol.lam[stats.active] * stats.d_sq
    nu_complement = np.minimum(1.0, stats.d_sq / (2.0 * sol.xi))
    return _channel(spec, stats, sol.sigma_delta, np.eye(nu.size), nu, nu_complement)


def build_channel(
    spec: GaussianSourceSpec, stats: ConditionalStats, sigma_delta: np.ndarray
) -> TestChannel:
    """Synthesize the optimal channel achieving distortion covariance `sigma_delta`.

    A channel exists exactly for Q_{X|S,Y} <= Sigma <= Q_{X|Y}, that is
    0 <= M <= B.  Two tests decide it, at `stats.psd_tol`: M has no part
    outside range(B) = span(U_a), and Q_W = M - M B^+ M >= 0, which on
    range(B) holds exactly when 0 <= M <= B (off it, Q_W >= 0 alone would
    pass a Sigma below Q_{X|S,Y}).  Only k x k matrices are decomposed:
    N = R diag(nu) R^T, and diag(s_a) R diag(nu (1 - nu)) R^T diag(s_a),
    whose spectrum is Q_W's nonzero one.  nu is then clipped to [0, 1].

    Raises
    ------
    HypothesisViolatedError
        Q_{S|Y} has no Cholesky factor (from `stats`).
    InfeasibleSigmaError
        sigma_delta of the wrong shape, not finite or not symmetric, M with
        a part outside range(B), or Q_W with an eigenvalue below minus the
        tolerance.
    """
    sigma = np.asarray(sigma_delta, dtype=float)
    if sigma.shape != (spec.n_x, spec.n_x):
        raise InfeasibleSigmaError(
            f"distortion covariance must have shape ({spec.n_x}, {spec.n_x}), "
            f"got {sigma.shape}"
        )
    if not np.all(np.isfinite(sigma)):
        raise InfeasibleSigmaError("distortion covariance contains non-finite entries")
    if np.linalg.norm(sigma - sigma.T, "fro") > SYM_TOL_SCALE * np.linalg.norm(sigma, "fro"):
        raise InfeasibleSigmaError("distortion covariance is not symmetric")
    sigma = symmetrize(sigma)

    tol = stats.psd_tol
    m = symmetrize(stats.q_x_given_y - sigma)
    u_a = stats.u[:, stats.active]
    outside = float(np.linalg.norm(m - u_a @ (u_a.T @ m), "fro"))
    if outside > tol:
        raise InfeasibleSigmaError(
            f"Q_{{X|Y}} - Sigma has a part of norm {outside:.3e} outside the range of "
            "Q_{X|Y} - Q_{X|S,Y}: distortion covariance is outside [Q_{X|S,Y}, Q_{X|Y}]"
        )
    s_a = stats.s[stats.active]
    w = u_a / s_a
    nu, r = np.linalg.eigh(symmetrize(w.T @ m @ w))
    sr = s_a[:, None] * r
    w_eigs = np.linalg.eigvalsh(symmetrize((sr * (nu * (1.0 - nu))) @ sr.T))
    if w_eigs.size and float(w_eigs[0]) < -tol:
        raise InfeasibleSigmaError(
            f"reconstruction noise covariance has eigenvalue {float(w_eigs[0]):.3e} < 0: "
            "distortion covariance is outside [Q_{X|S,Y}, Q_{X|Y}]"
        )
    nu = np.clip(nu, 0.0, 1.0)
    return _channel(spec, stats, sigma, r, nu, 1.0 - nu)


def joint_with_reproduction(spec: GaussianSourceSpec, channel: TestChannel) -> np.ndarray:
    """Covariance of the stacked vector (X, S, Y, X_hat) under the channel."""
    gain = np.hstack([channel.h, channel.g])  # X_hat = [H G] (S, Y) + W
    cross = gain @ spec.q[spec.n_x :, :]  # Cov(X_hat, (X, S, Y))
    q_xhat = cross[:, spec.n_x :] @ gain.T + channel.q_w
    return symmetrize(np.block([[spec.q, cross.T], [cross, q_xhat]]))


def verify_structure(spec: GaussianSourceSpec, channel: TestChannel) -> StructuralReport:
    """Analytic residual of the conditional-mean identity E(X|X_hat, Y) = X_hat.

    The residual "cond_mean_identity" is the Frobenius norm of
    Cov(X - X_hat, V), V = (Y, X_hat), `in_units` of Var X (rows) and of
    Var Y, Var X (columns, Var X_j for X_hat_j), so the units of X, S and Y
    do not move it and a zero-variance X_i measures its entries in unit 1.
    It is read off the joint covariance induced by the channel matrices (no
    sampling).  For jointly Gaussian zero-mean variables it vanishes exactly
    when the identity holds (orthogonality principle): an uncorrelated error
    is independent of (X_hat, Y), so E(X|X_hat, Y) = X_hat, and a conditional
    mean always leaves such an error.  No inverse is taken, so zero-rate and
    barely active channels (Cov(X_hat|Y) nearly singular) stay exact.

    It is the only residual: the other structural properties hold for any
    channel either front-end builds, or follow from this identity (see the
    module docstring).

    Never raises; reports are for inspection and thresholding at STRUCT_TOL.
    """
    joint = joint_with_reproduction(spec, channel)
    tail = slice(spec.n_x + spec.n_s, None)  # the (Y, X_hat) columns
    error = joint[: spec.n_x, tail] - joint[spec.n_total :, tail]  # X rows less X_hat rows
    var_x = np.diagonal(spec.q_x)
    scaled = in_units(error, var_x, np.concatenate([np.diagonal(spec.q_y), var_x]))
    return StructuralReport(residuals={"cond_mean_identity": float(np.linalg.norm(scaled, "fro"))})


def _log_det(chol: np.ndarray) -> float:
    """log det L L^T from its Cholesky factor L."""
    return 2.0 * float(np.sum(np.log(np.diagonal(chol))))


def rate_of_channel(spec: GaussianSourceSpec, channel: TestChannel) -> ChannelRate:
    """Rate of the channel in nats, from its factor and, as a cross-check,
    from its matrices.

    `rate` is -1/2 sum(log(1 - nu)) over `nu_complement`, ``inf`` when some
    1 - nu is 0; for `optimal_channel` it is the water-filling rate to
    rounding, down to delta_min.  `rate_alt` is 0.5 log det Q_{S|Y} /
    det Q_{S|X_hat,Y} by Cholesky, on the stored posterior and the prior's
    factor in `spec.stats`; ``inf`` when the posterior is not positive
    definite.  Near delta_min that posterior is Q_{S|Y} less a term of nearly
    its size, so at e of the range above delta_min `rate_alt` has a relative
    error of about 1e-16 / e, and at e = 1e-14 it can be off by tenths of a
    nat or read ``inf``.
    """
    nu_c = channel.nu_complement
    rate = max(0.0, -0.5 * float(np.sum(np.log(nu_c)))) if np.all(nu_c > 0.0) else math.inf
    try:
        posterior = np.linalg.cholesky(channel.q_s_given_xhat_y)
        rate_alt = max(0.0, 0.5 * (_log_det(spec.stats.chol) - _log_det(posterior)))
    except np.linalg.LinAlgError:
        rate_alt = math.inf
    discrepancy = 0.0 if math.isinf(rate) and math.isinf(rate_alt) else abs(rate - rate_alt)
    return ChannelRate(rate=rate, rate_alt=rate_alt, discrepancy=discrepancy)


def _error_factor(spec: GaussianSourceSpec, channel: TestChannel) -> np.ndarray:
    """Upper-triangular n_x x n_x R with R^T R = K^T K = Cov(X - X_hat), from
    the QR of K = [Q^{1/2} [I; -H^T; -G^T]; Q_W^{1/2}]: X - X_hat is
    [X, S, Y] [I; -H^T; -G^T] - W.  The roots refuse a non-PSD Q or Q_W."""
    mix = symmetric_sqrt(spec.q) @ np.vstack([np.eye(spec.n_x), -channel.h.T, -channel.g.T])
    return np.linalg.qr(np.vstack([mix, symmetric_sqrt(channel.q_w)]), mode="r")


def simulate_channel(
    spec: GaussianSourceSpec, channel: TestChannel, n_samples: int, seed: int
) -> SimulationResult:
    """Monte Carlo estimate of the mean squared reproduction error.

    The error X - X_hat of the realization X_hat = H S + G Y + W is Gaussian
    with covariance R^T R, R the factor of the realization map from
    `_error_factor`, so each sample is one row of n_x normals times R: the
    whole n_samples x n_x draw of `default_rng(seed)`, and nothing else.
    Deterministic for a fixed seed.  The full simulation of (X, S, Y, W)
    stays in the tests as the reference it must agree with in law.

    The samples are drawn and reduced in chunks of `_CHUNK_ROWS` rows through
    reused buffers, so memory does not depend on `n_samples`.  The squared
    errors are reduced per chunk to a mean and a sum of squared deviations,
    and the chunks are combined with Chan's pairwise update.
    """
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError("at least 2 samples are needed to estimate a standard error")
    factor = _error_factor(spec, channel)
    rows = min(_CHUNK_ROWS, n_samples)
    z = np.empty((rows, spec.n_x))
    err = np.empty((rows, spec.n_x))
    sq = np.empty(rows)

    rng = np.random.default_rng(seed)
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n_samples, rows):
        m = min(rows, n_samples - start)
        rng.standard_normal(out=z[:m])
        np.matmul(z[:m], factor, out=err[:m])
        np.einsum("ij,ij->i", err[:m], err[:m], out=sq[:m])
        chunk_mean = float(np.mean(sq[:m]))
        sq[:m] -= chunk_mean
        chunk_m2 = float(sq[:m] @ sq[:m])
        total = count + m
        shift = chunk_mean - mean
        mean += shift * m / total
        m2 += chunk_m2 + shift * shift * count * m / total
        count = total
    return SimulationResult(
        empirical_distortion=mean,
        standard_error=math.sqrt(m2 / (n_samples - 1)) / math.sqrt(n_samples),
        n_samples=n_samples,
        seed=int(seed),
    )
