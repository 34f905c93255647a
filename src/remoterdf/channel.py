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

from .core import SYM_TOL_SCALE, ConditionalStats, GaussianSourceSpec, symmetric_sqrt, symmetrize
from .errors import InfeasibleSigmaError
from .waterfill import WaterfillSolution

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
    carried along because every consumer needs them; `stats` is the instance
    it was built on, whose factor of Q_{S|Y} the measurement-side rate
    reuses.  `nu_complement` holds 1 - nu, one entry per active component
    (see the module docstring), from which `rate_of_channel` reads the rate.
    """

    __test__ = False  # domain type, not a pytest class

    h: np.ndarray
    g: np.ndarray
    q_w: np.ndarray
    sigma_delta: np.ndarray
    q_xhat_given_y: np.ndarray
    q_s_given_xhat_y: np.ndarray
    stats: ConditionalStats
    nu_complement: np.ndarray


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
    u_a, s_a = stats.u[:, stats.active], stats.s[stats.active]
    t = (u_a * s_a) @ r
    v = (stats.f @ u_a / s_a) @ r  # V_a R
    h = (t * nu) @ np.linalg.solve(stats.chol.T, v).T
    g = np.linalg.solve(spec.q_y, (spec.q_xy - h @ spec.q_sy).T).T
    q_s_post = stats.chol @ (np.eye(v.shape[0]) - (v * nu) @ v.T) @ stats.chol.T
    return TestChannel(h=h, g=g, q_w=symmetrize((t * (nu * nu_complement)) @ t.T),
                       sigma_delta=sigma, q_xhat_given_y=symmetrize((t * nu) @ t.T),
                       q_s_given_xhat_y=symmetrize(q_s_post), stats=stats,
                       nu_complement=nu_complement)


def optimal_channel(
    spec: GaussianSourceSpec, stats: ConditionalStats, sol: WaterfillSolution
) -> TestChannel:
    """The optimal channel of a water-filling solution `sol` on `stats`: R = I,
    nu = lambda d^2 and 1 - nu = min(1, d^2 / (2 xi)) from the level, so no
    eigendecomposition is taken and the rate is the solver's down to
    delta_min.  The solver's allocation is feasible by construction, so
    nothing is tested or refused."""
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
    factor in `channel.stats`; ``inf`` when the posterior is not positive
    definite.  Near delta_min that posterior is Q_{S|Y} less a term of nearly
    its size, so at e of the range above delta_min `rate_alt` has a relative
    error of about 1e-16 / e, and at e = 1e-14 it can be off by tenths of a
    nat or read ``inf``.
    """
    nu_c = channel.nu_complement
    rate = max(0.0, -0.5 * float(np.sum(np.log(nu_c)))) if np.all(nu_c > 0.0) else math.inf
    try:
        posterior = np.linalg.cholesky(channel.q_s_given_xhat_y)
        rate_alt = max(0.0, 0.5 * (_log_det(channel.stats.chol) - _log_det(posterior)))
    except np.linalg.LinAlgError:
        rate_alt = math.inf
    discrepancy = 0.0 if math.isinf(rate) and math.isinf(rate_alt) else abs(rate - rate_alt)
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
