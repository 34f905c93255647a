"""Optimal test-channel synthesis, structural verification, and simulation.

The reproduction is realized as X_hat = H S + G Y + W with W independent
Gaussian noise.  Given a feasible distortion covariance Sigma (0 <= Sigma <=
Q_{X|Y}), the unique gains under an invertible conditional cross-covariance
are

    H = (Q_{X|Y} - Sigma) Q_{X,S|Y}^{-T}
    G = (Q_{X,Y} - H Q_{S,Y}) Q_Y^{-1}
    Q_W = Q_{X|Y} - Sigma - H Q_{S|Y} H^T

The same matrices also realize the decoder-only split X_hat = G Y + Z with
Z = H S + W, where Z is what an encoder without access to Y would transmit:
the channel's own `h`, `q_w` and `g`, regrouped.
`verify_structure` recomputes every claimed conditional-independence and
conditional-mean property of the construction analytically from second
moments and reports the residuals; `simulate_channel` checks the distortion
empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    INV_TOL,
    ConditionalStats,
    GaussianSourceSpec,
    conditional_covariance,
    gaussian_cmi,
    pseudo_inverse,
    psd_tolerance,
    symmetric_sqrt,
    symmetrize,
)
from .errors import (
    DimensionUnsupportedError,
    InfeasibleSigmaError,
    NegativeNoiseError,
    SingularCrossError,
)

# Absolute residual threshold for structural properties; assumes covariances
# normalized so the largest diagonal entry of the joint is O(1).
STRUCT_TOL = 1e-8

# Rows per Monte Carlo chunk: keeps each chunk's buffers near L2 size at
# n_total = 18 and the simulation's memory independent of the sample count.
_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class TestChannel:
    """Realization matrices of the optimal reproduction channel.

    `q_xhat_given_y` and `q_s_given_xhat_y` are derived at construction and
    carried along because every consumer needs them; `q_s_given_y` is the
    source's Q_{S|Y}, the prior the measurement-side rate is taken against.
    """

    __test__ = False  # domain type, not a pytest class

    h: np.ndarray
    g: np.ndarray
    q_w: np.ndarray
    sigma_delta: np.ndarray
    q_xhat_given_y: np.ndarray
    q_s_given_xhat_y: np.ndarray
    q_s_given_y: np.ndarray


@dataclass(frozen=True)
class StructuralReport:
    """Frobenius residuals of the structural properties, zero when they hold."""

    residuals: dict[str, float]
    tol: float = STRUCT_TOL

    @property
    def passes(self) -> dict[str, bool]:
        return {name: value < self.tol for name, value in self.residuals.items()}

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


@dataclass(frozen=True)
class ChannelRate:
    """Rate by the measurement-side ratio, the reproduction-side ratio (which
    must agree), and their absolute discrepancy."""

    rate: float
    rate_alt: float
    discrepancy: float


@dataclass(frozen=True)
class SimulationResult:
    empirical_distortion: float
    standard_error: float
    n_samples: int
    seed: int


def build_channel(
    spec: GaussianSourceSpec, stats: ConditionalStats, sigma_delta: np.ndarray
) -> TestChannel:
    """Synthesize the optimal channel achieving distortion covariance `sigma_delta`.

    Raises
    ------
    DimensionUnsupportedError
        n_x != n_s (the construction needs a square cross-covariance).
    InfeasibleSigmaError
        sigma_delta not finite, not symmetric, not PSD, or exceeding Q_{X|Y}.
    SingularCrossError
        Q_{X,S|Y} not invertible.
    NegativeNoiseError
        The implied noise covariance is negative definite beyond tolerance
        (sigma_delta below the remote-sensing noise floor); eigenvalues within
        tolerance of zero are clamped.
    """
    if spec.n_x != spec.n_s:
        raise DimensionUnsupportedError(
            f"channel synthesis requires n_x = n_s, got ({spec.n_x}, {spec.n_s})"
        )
    sigma = np.asarray(sigma_delta, dtype=float)
    if sigma.shape != (spec.n_x, spec.n_x):
        raise InfeasibleSigmaError(
            f"distortion covariance must have shape ({spec.n_x}, {spec.n_x}), "
            f"got {sigma.shape}"
        )
    if not np.all(np.isfinite(sigma)):
        raise InfeasibleSigmaError("distortion covariance contains non-finite entries")
    if np.linalg.norm(sigma - sigma.T, "fro") > 1e-9 * max(
        1.0, float(np.linalg.norm(sigma, "fro"))
    ):
        raise InfeasibleSigmaError("distortion covariance is not symmetric")
    sigma = symmetrize(sigma)

    q_xy = stats.q_x_given_y
    tol = psd_tolerance(float(np.max(np.linalg.eigvalsh(q_xy))))
    if float(np.min(np.linalg.eigvalsh(sigma))) < -tol:
        raise InfeasibleSigmaError("distortion covariance has a negative eigenvalue")
    if float(np.min(np.linalg.eigvalsh(q_xy - sigma))) < -tol:
        raise InfeasibleSigmaError("distortion covariance exceeds Q_{X|Y}")

    cross = stats.q_xs_given_y
    sv = np.linalg.svd(cross, compute_uv=False)
    if float(sv[-1]) <= INV_TOL:
        raise SingularCrossError(float(sv[-1]), INV_TOL)

    m = symmetrize(q_xy - sigma)  # = Q_{X_hat|Y}
    h = np.linalg.solve(cross, m.T).T
    q_w = symmetrize(m - h @ stats.q_s_given_y @ h.T)
    w_eigs, w_vecs = np.linalg.eigh(q_w)
    if float(w_eigs[0]) < -tol:
        raise NegativeNoiseError(float(w_eigs[0]))
    if float(w_eigs[0]) < 0.0:
        q_w = symmetrize((w_vecs * np.maximum(w_eigs, 0.0)) @ w_vecs.T)

    g = np.linalg.solve(spec.q_y, (spec.q_xy - h @ spec.q_sy).T).T
    q_s_post = symmetrize(
        stats.q_s_given_y
        - stats.q_s_given_y @ h.T @ pseudo_inverse(m) @ h @ stats.q_s_given_y
    )
    return TestChannel(
        h=h,
        g=g,
        q_w=q_w,
        sigma_delta=sigma,
        q_xhat_given_y=m,
        q_s_given_xhat_y=q_s_post,
        q_s_given_y=stats.q_s_given_y,
    )


def joint_with_reproduction(spec: GaussianSourceSpec, channel: TestChannel) -> np.ndarray:
    """Covariance of the stacked vector (X, S, Y, X_hat) under the channel."""
    ss = slice(spec.n_x, spec.n_x + spec.n_s)
    sy = slice(spec.n_x + spec.n_s, spec.n_total)
    cross = channel.h @ spec.q[ss, :] + channel.g @ spec.q[sy, :]
    q_xhat = (
        channel.h @ spec.q_s @ channel.h.T
        + channel.h @ spec.q_sy @ channel.g.T
        + channel.g @ spec.q_sy.T @ channel.h.T
        + channel.g @ spec.q_y @ channel.g.T
        + channel.q_w
    )
    return symmetrize(np.block([[spec.q, cross.T], [cross, symmetrize(q_xhat)]]))


def distortion_covariance(spec: GaussianSourceSpec, channel: TestChannel) -> np.ndarray:
    """Analytic E{(X - X_hat)(X - X_hat)^T}; equals sigma_delta for a valid channel."""
    joint = joint_with_reproduction(spec, channel)
    sx = slice(0, spec.n_x)
    sxh = slice(spec.n_total, spec.n_total + spec.n_x)
    c = joint[sx, sxh]
    return symmetrize(spec.q_x - c - c.T + joint[sxh, sxh])


def verify_structure(spec: GaussianSourceSpec, channel: TestChannel) -> StructuralReport:
    """Analytic residuals of the structural properties of the channel.

    All second moments come from the joint covariance induced by the channel
    matrices (no sampling).  Residuals are Frobenius norms that vanish
    exactly when the corresponding property holds for jointly Gaussian
    variables:

    - "x_indep_y_given_xhat": partial covariance of X and Y given X_hat.
    - "z_indep_xy_given_s": partial covariance of Z and (X, Y) given S.
    - "cond_mean_identity": E(X|X_hat, Y) = X_hat, measured as the covariance
      of the error X - X_hat with (X_hat, Y).  For jointly Gaussian zero-mean
      variables the two are equivalent (orthogonality principle): an
      uncorrelated error is independent of (X_hat, Y), so E(X|X_hat, Y) =
      X_hat, and a conditional mean always leaves such an error.  No inverse
      is taken, so zero-rate channels (Cov(X_hat|Y) pure round-off) stay exact.
    - "posterior_cov_match": Q_{S|Z,Y} versus Q_{S|X_hat,Y}.
    - "reproduction_cov_match": Q_{Z|Y} versus Q_{X_hat|Y}.

    Never raises; reports are for inspection and thresholding at `tol`.
    """
    joint = joint_with_reproduction(spec, channel)
    sx = slice(0, spec.n_x)
    ss = slice(spec.n_x, spec.n_x + spec.n_s)
    sy = slice(spec.n_x + spec.n_s, spec.n_total)
    sxh = slice(spec.n_total, spec.n_total + spec.n_x)
    q_y = spec.q_y

    # (i) X independent of Y given X_hat.
    q_xhat = joint[sxh, sxh]
    partial = joint[sx, sy] - joint[sx, sxh] @ pseudo_inverse(q_xhat) @ joint[sxh, sy]
    r_markov = float(np.linalg.norm(partial, "fro"))

    # (ii) Z = H S + W independent of (X, Y) given S.
    c_s_rest = np.hstack([joint[ss, sx], joint[ss, sy]])
    c_z_rest = channel.h @ c_s_rest
    c_z_s = channel.h @ spec.q_s
    partial_z = c_z_rest - c_z_s @ pseudo_inverse(spec.q_s) @ c_s_rest
    r_zgs = float(np.linalg.norm(partial_z, "fro"))

    # (iii) Conditional mean: Cov(X - X_hat, (Y, X_hat)), the joint's last columns.
    tail = slice(spec.n_x + spec.n_s, None)
    r_cond_mean = float(np.linalg.norm(joint[sx, tail] - joint[sxh, tail], "fro"))

    # (iv) Equality of the conditional covariances through Z and through X_hat.
    q_z = symmetrize(channel.h @ spec.q_s @ channel.h.T + channel.q_w)
    c_zy = channel.h @ spec.q_sy
    c_sz = spec.q_s @ channel.h.T
    joint_szy = np.block(
        [[spec.q_s, c_sz, spec.q_sy], [c_sz.T, q_z, c_zy], [spec.q_sy.T, c_zy.T, q_y]]
    )
    n_s = spec.n_s
    q_s_given_zy = conditional_covariance(joint_szy, np.r_[:n_s], np.r_[n_s : len(joint_szy)])
    q_s_given_xhy = conditional_covariance(joint, np.r_[ss], np.r_[sxh, sy])
    r_posterior = float(np.linalg.norm(q_s_given_zy - q_s_given_xhy, "fro"))

    q_z_given_y = q_z - c_zy @ np.linalg.solve(q_y, c_zy.T)
    q_xh_given_y = symmetrize(q_xhat - joint[sxh, sy] @ np.linalg.solve(q_y, joint[sy, sxh]))
    r_reproduction = float(np.linalg.norm(q_z_given_y - q_xh_given_y, "fro"))

    return StructuralReport(
        residuals={
            "x_indep_y_given_xhat": r_markov,
            "z_indep_xy_given_s": r_zgs,
            "cond_mean_identity": r_cond_mean,
            "posterior_cov_match": r_posterior,
            "reproduction_cov_match": r_reproduction,
        }
    )


def rate_of_channel(spec: GaussianSourceSpec, channel: TestChannel) -> ChannelRate:
    """Rate of the channel in nats, by both determinant-ratio formulas.

    The measurement-side ratio uses (Q_{S|Y}, Q_{S|X_hat,Y}); the
    reproduction-side ratio uses (Q_{X_hat|Y}, Q_W).  They agree for any
    channel built by `build_channel`; the discrepancy is returned so callers
    can surface disagreement.
    """
    rate = gaussian_cmi(channel.q_s_given_y, channel.q_s_given_xhat_y)
    rate_alt = gaussian_cmi(channel.q_xhat_given_y, channel.q_w)
    if math.isinf(rate) and math.isinf(rate_alt):
        discrepancy = 0.0
    else:
        discrepancy = abs(rate - rate_alt)
    return ChannelRate(rate=rate, rate_alt=rate_alt, discrepancy=discrepancy)


def simulate_channel(
    spec: GaussianSourceSpec, channel: TestChannel, n_samples: int, seed: int
) -> SimulationResult:
    """Monte Carlo estimate of the mean squared reproduction error.

    Draws (X, S, Y) through the symmetric square root of the joint covariance
    (which handles singular joints), W independently from Q_W, and forms the
    error X - X_hat with X_hat = H S + G Y + W.  Deterministic for a fixed
    seed.

    The samples are drawn and reduced in chunks of `_CHUNK_ROWS` rows through
    reused buffers, so memory does not depend on `n_samples`.  The stream is
    that of one draw of all n_samples x n_total (X, S, Y) normals followed by
    all n_samples x n_x W normals: a second generator with the same seed is
    first moved past the (X, S, Y) normals by drawing and discarding them
    (the ziggurat uses a variable number of raw draws per normal, so the
    bit generator cannot simply be advanced).  The squared errors are
    reduced per chunk to a mean and a sum of squared deviations, and the
    chunks are combined with Chan's pairwise update.
    """
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError("at least 2 samples are needed to estimate a standard error")
    n_x = spec.n_x
    # X - X_hat = [X, S, Y] [I; -H^T; -G^T] - W, one product per stream.
    mix = symmetric_sqrt(spec.q) @ np.vstack([np.eye(n_x), -channel.h.T, -channel.g.T])
    root_w = symmetric_sqrt(channel.q_w)
    rows = min(_CHUNK_ROWS, n_samples)
    sizes = [min(rows, n_samples - start) for start in range(0, n_samples, rows)]
    z = np.empty((rows, spec.n_total))
    z_w = np.empty((rows, n_x))
    err = np.empty((rows, n_x))
    noise = np.empty((rows, n_x))
    sq = np.empty(rows)

    rng_xsy = np.random.default_rng(seed)
    rng_w = np.random.default_rng(seed)
    for m in sizes:
        rng_w.standard_normal(out=z[:m])
    count, mean, m2 = 0, 0.0, 0.0
    for m in sizes:
        rng_xsy.standard_normal(out=z[:m])
        rng_w.standard_normal(out=z_w[:m])
        np.matmul(z[:m], mix, out=err[:m])
        np.matmul(z_w[:m], root_w, out=noise[:m])
        err[:m] -= noise[:m]
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
