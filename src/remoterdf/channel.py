"""Optimal test-channel synthesis, structural verification, and simulation.

The reproduction is realized as X_hat = H S + G Y + W with W independent
Gaussian noise.  Given a feasible distortion covariance Sigma
(Q_{X|S,Y} <= Sigma <= Q_{X|Y}), M = Q_{X|Y} - Sigma and B = Q_{X|Y} -
Q_{X|S,Y} = Q_{X,S|Y} Q_{S|Y}^{-1} Q_{X,S|Y}^T, the gains are, for any n_x,
n_s and rank of Q_{X,S|Y} (B^+ the pseudoinverse, from `ConditionalStats`)

    H = M B^+ Q_{X,S|Y} Q_{S|Y}^{-1}
    G = (Q_{X,Y} - H Q_{S,Y}) Q_Y^{-1}
    Q_W = M - H Q_{S|Y} H^T = M - M B^+ M

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

from .core import (
    SYM_TOL_SCALE,
    ConditionalStats,
    GaussianSourceSpec,
    psd_tolerance,
    symmetric_sqrt,
    symmetrize,
)
from .errors import InfeasibleSigmaError, NegativeNoiseError

# Threshold for the structural residual, which is divided by the largest
# diagonal entry of the joint covariance: rescaling an instance moves neither.
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
    """Frobenius residuals of the structural checks, zero when they hold."""

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

    A channel exists exactly for Q_{X|S,Y} <= Sigma <= Q_{X|Y}, that is
    0 <= M <= B.  Two tests decide it, at `psd_tolerance` of Q_{X|Y}: M has
    no part outside range(B), and Q_W = M - M B^+ M >= 0, which on range(B)
    holds exactly when 0 <= M <= B.  Off range(B), Q_W >= 0 alone would pass
    a Sigma below Q_{X|S,Y}.  With U_a the active right singular vectors of
    F, range(B) = span(U_a) and B^+ = W W^T, W = U_a diag(1/s_a).

    Raises
    ------
    HypothesisViolatedError
        Q_{S|Y} has no Cholesky factor (from `stats`).
    InfeasibleSigmaError
        sigma_delta of the wrong shape, not finite or not symmetric, or M
        with a part outside range(B).
    NegativeNoiseError
        Q_W has an eigenvalue below minus the tolerance: sigma_delta is outside
        [Q_{X|S,Y}, Q_{X|Y}] (an InfeasibleSigmaError).  Eigenvalues within
        the tolerance of zero are clamped.
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

    q_xy = stats.q_x_given_y
    tol = psd_tolerance(float(np.max(np.linalg.eigvalsh(q_xy))))
    m = symmetrize(q_xy - sigma)  # = Q_{X_hat|Y}
    u_a = stats.u[:, stats.active]
    outside = float(np.linalg.norm(m - u_a @ (u_a.T @ m), "fro"))
    if outside > tol:
        raise InfeasibleSigmaError(
            f"Q_{{X|Y}} - Sigma has a part of norm {outside:.3e} outside the range of "
            "Q_{X|Y} - Q_{X|S,Y}: distortion covariance is outside [Q_{X|S,Y}, Q_{X|Y}]"
        )
    w = u_a / stats.s[stats.active]
    m_w = m @ w
    q_w = symmetrize(m - m_w @ m_w.T)
    w_eigs, w_vecs = np.linalg.eigh(q_w)
    if float(w_eigs[0]) < -tol:
        raise NegativeNoiseError(float(w_eigs[0]))
    if float(w_eigs[0]) < 0.0:
        q_w = symmetrize((w_vecs * np.maximum(w_eigs, 0.0)) @ w_vecs.T)

    # C = Q_{X,S|Y}^T W, so H = M W C^T Q_{S|Y}^{-1}, and
    # Q_{S|X_hat,Y} = Q_{S|Y} - C (W^T M W) C^T, free of any inverse of M.
    c = stats.q_xs_given_y.T @ w
    h = m_w @ np.linalg.solve(stats.q_s_given_y, c).T
    g = np.linalg.solve(spec.q_y, (spec.q_xy - h @ spec.q_sy).T).T
    q_s_post = symmetrize(stats.q_s_given_y - c @ (w.T @ m_w) @ c.T)
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
    """Analytic residual of the conditional-mean identity E(X|X_hat, Y) = X_hat.

    The residual "cond_mean_identity" is ||Cov(X - X_hat, (Y, X_hat))||_F
    divided by the largest diagonal entry of the joint covariance of
    (X, S, Y), so rescaling the instance does not move it.  It is read off
    the joint covariance induced by the channel matrices (no sampling).  For
    jointly Gaussian zero-mean variables it vanishes exactly when the
    identity holds (orthogonality principle): an uncorrelated error
    is independent of (X_hat, Y), so E(X|X_hat, Y) = X_hat, and a conditional
    mean always leaves such an error.  No inverse is taken, so zero-rate and
    barely active channels (Cov(X_hat|Y) nearly singular) stay exact.

    It is the only residual.  The other structural properties hold for any
    channel `build_channel` can return, or follow from this identity (see
    the module docstring), so their residuals could flag nothing this one
    misses except round-off, which the pseudoinverses they needed amplified
    into false failures of correct channels.

    Never raises; reports are for inspection and thresholding at `tol`.
    """
    joint = joint_with_reproduction(spec, channel)
    sx = slice(0, spec.n_x)
    sxh = slice(spec.n_total, spec.n_total + spec.n_x)
    tail = slice(spec.n_x + spec.n_s, None)  # the (Y, X_hat) columns
    r_cond_mean = float(np.linalg.norm(joint[sx, tail] - joint[sxh, tail], "fro")) / spec.scale
    return StructuralReport(residuals={"cond_mean_identity": r_cond_mean})


def _log_det(m: np.ndarray) -> float:
    """log det of a positive definite matrix by Cholesky; LinAlgError otherwise."""
    return 2.0 * float(np.sum(np.log(np.diagonal(np.linalg.cholesky(m)))))


def _rate(log_det_prior: float, posterior: np.ndarray) -> float:
    """max(0, (log_det_prior - log det posterior) / 2), or ``inf`` for a
    posterior that is not positive definite."""
    try:
        return max(0.0, 0.5 * (log_det_prior - _log_det(posterior)))
    except np.linalg.LinAlgError:
        return math.inf


def rate_of_channel(spec: GaussianSourceSpec, channel: TestChannel) -> ChannelRate:
    """Rate of the channel in nats, by both determinant-ratio formulas.

    Measurement side: 0.5 log det Q_{S|Y} / det Q_{S|X_hat,Y}, by Cholesky;
    ``inf`` when the posterior is not positive definite.  A prior that is not
    raises numpy.linalg.LinAlgError (a ValueError); no channel from
    `build_channel` has one, as it refuses a Q_{S|Y} with no Cholesky factor.

    Reproduction side: 0.5 log det M / det Q_W with M = Q_{X_hat|Y}, on the
    eigenvectors of M whose eigenvalues exceed `psd_tolerance` of
    Q_{X|Y} = Sigma + M; ``inf`` when Q_W is not positive definite there, 0
    when there are none (empty determinants are 1).  The cut is measured
    against Q_{X|Y}, whose scale sets the round-off in M and Q_W: just below
    Delta+ M is tiny, and a cut at its own scale would keep directions where
    Q_W is only round-off.

    The two agree for any channel built by `build_channel`; the discrepancy
    is returned so callers can surface disagreement.
    """
    rate = _rate(_log_det(channel.q_s_given_y), channel.q_s_given_xhat_y)
    m_eigs, m_vecs = np.linalg.eigh(channel.q_xhat_given_y)
    q_x_given_y = channel.sigma_delta + channel.q_xhat_given_y
    keep = m_eigs > psd_tolerance(float(np.linalg.eigvalsh(q_x_given_y)[-1]))
    basis = m_vecs[:, keep]
    rate_alt = _rate(float(np.sum(np.log(m_eigs[keep]))), basis.T @ channel.q_w @ basis)
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
