"""Independent ground truth for the rate-distortion computations.

Three flavors: an exhaustive grid search over reproduction covariances at tiny
dimensions (the reference the water-filling solver is validated against),
closed-form scalar limits (Wyner side-information and classical rate-distortion),
and the demonstration table showing how the prior-work test channel diverges
from the correct one.

The grid search deliberately shares nothing with the water-filling module: it
re-derives the channel quantities inline from the conditional statistics and
minimizes by enumeration.  Its result is a pure function of the candidate
order: the first best candidate wins, in the order (angle, then the
eigenvalue grid row-major, then the trace-boundary slice for that angle).
The 2x2 search works through the grid in blocks of rows, each cropped per
angle to where the posterior can be positive definite, so its memory stays
bounded at any resolution without changing which candidate wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import INV_TOL, GaussianSourceSpec, in_units
from .errors import DimensionUnsupportedError, HypothesisViolatedError, ResolutionTooCoarseError

# A prior-work noise variance this many times the correct channel's output
# variance is reported as divergent.
DIVERGENCE_FACTOR = 1e3

_FEAS_TOL = 1e-12  # feasibility slack, relative to the instance's own scale

# Candidates per block of the 2x2 search: bounds its memory whatever the grid.
_BLOCK_CANDIDATES = 32768


@dataclass(frozen=True)
class OracleResolution:
    """Grid sizes for the brute-force search (defaults: ~1e-3 rate accuracy)."""

    eig_points: int = 400
    angle_points: int = 180


@dataclass(frozen=True)
class OracleResult:
    rate: float
    sigma_delta: np.ndarray | None
    method: str  # "grid" or "closed-form"
    params: dict[str, float] = field(default_factory=dict)
    feasible_points: int | None = None
    resolution: OracleResolution | None = None


def _check_variance(q_xy: float) -> None:
    if not math.isfinite(q_xy):
        raise ValueError(f"conditional variance must be finite, got {q_xy!r}")
    if q_xy <= 0:
        raise ValueError(f"conditional variance must be positive, got {q_xy!r}")


def _check_distortion(delta: float) -> None:
    if not math.isfinite(delta):
        raise ValueError(f"distortion must be finite, got {delta!r}")
    if delta <= 0:
        raise ValueError(f"distortion must be positive, got {delta!r}")


def wyner_scalar_rdf(q_xy: float, delta: float) -> OracleResult:
    """Scalar side-information rate-distortion limit (the X = S case).

    Rate max(0, 0.5*ln(q_xy/delta)) together with the channel parameters
    H = (q_xy - delta)/q_xy and Q_W = H*delta of the correct realization.
    """
    _check_variance(q_xy)
    _check_distortion(delta)
    h = max(0.0, (q_xy - delta) / q_xy)
    q_w = h * delta
    rate = max(0.0, 0.5 * math.log(q_xy / delta))
    return OracleResult(
        rate=rate, sigma_delta=None, method="closed-form", params={"h": h, "q_w": q_w}
    )


def classical_scalar_rdf(q_x: float, delta: float) -> OracleResult:
    """Classical scalar Gaussian rate-distortion: rate and reproduction variance."""
    if not math.isfinite(q_x):
        raise ValueError(f"source variance must be finite, got {q_x!r}")
    if q_x < 0:
        raise ValueError(f"source variance must be nonnegative, got {q_x!r}")
    _check_distortion(delta)
    rate = 0.5 * math.log(q_x / delta) if q_x > 0 else 0.0
    return OracleResult(
        rate=max(0.0, rate),
        sigma_delta=None,
        method="closed-form",
        params={"reproduction_variance": max(0.0, q_x - delta)},
    )


@dataclass(frozen=True)
class Remark3Row:
    """One distortion point of the prior-work vs correct-channel comparison."""

    delta: float
    prior_noise_variance: float
    prior_z_variance: float
    wyner_h: float
    wyner_q_w: float
    wyner_z_variance: float
    divergent: bool


def remark3_discrepancy(q_xy: float, deltas) -> list[Remark3Row]:
    """Compare the prior-work additive-noise channel against the correct one.

    The prior-work realization adds noise of variance delta/(q_xy - delta),
    which blows up as delta -> q_xy, while the correct channel's output
    variance H^2*q_xy + H*delta shrinks to zero.  Rows are flagged divergent
    once the prior-work variance exceeds DIVERGENCE_FACTOR times the correct
    output variance.
    """
    _check_variance(q_xy)
    rows = []
    for delta in deltas:
        delta = float(delta)
        if not 0.0 < delta <= q_xy:
            raise ValueError(f"distortion {delta!r} outside (0, {q_xy!r}]")
        if delta == q_xy:
            prior_noise = float("inf")
            prior_z = float("inf")
        else:
            prior_noise = delta / (q_xy - delta)
            prior_z = q_xy + prior_noise
        wyner = wyner_scalar_rdf(q_xy, delta)
        h = wyner.params["h"]
        q_w = wyner.params["q_w"]
        z_var = h * h * q_xy + q_w
        rows.append(
            Remark3Row(
                delta=delta,
                prior_noise_variance=prior_noise,
                prior_z_variance=prior_z,
                wyner_h=h,
                wyner_q_w=q_w,
                wyner_z_variance=z_var,
                divergent=prior_noise > DIVERGENCE_FACTOR * z_var,
            )
        )
    return rows


def require_grid_dimensions(spec: GaussianSourceSpec) -> None:
    """Raise DimensionUnsupportedError unless n_x = n_s in {1, 2}, as the grid needs."""
    if spec.n_x != spec.n_s or spec.n_x not in (1, 2):
        raise DimensionUnsupportedError(
            f"brute force supports n_x = n_s in {{1, 2}}, got ({spec.n_x}, {spec.n_s})"
        )


def brute_force_rdf(
    spec: GaussianSourceSpec, delta: float, resolution: OracleResolution | None = None
) -> OracleResult:
    """Minimize the determinant-ratio rate objective by exhaustive search.

    The reproduction covariance given Y is parametrized by its eigenvalues on
    grids over [0, max eigenvalue of Q_{X|Y}] (and a rotation angle grid for
    2x2).  Constraint-boundary candidates with trace exactly equal to
    trace(Q_{X|Y}) - delta are appended to each grid, since the optimum sits
    on that boundary.  Feasibility is the trace constraint and a positive
    definite posterior Q_{S|Y} - W^T M W, with W = Q_{X,S|Y}^{-T} Q_{S|Y};
    M >= 0 holds on the grid.  The posterior test holds exactly when
    M^{1/2} K M^{1/2} < I, K = W Q_{S|Y}^{-1} W^T, that is M < K^{-1}.  So it
    makes the reconstruction noise Q_W = M - M K M positive semidefinite, and
    since K^{-1} = Q_{X|Y} - Q_{X|S,Y} <= Q_{X|Y} it gives M <= Q_{X|Y};
    neither is tested on its own.

    Ties go to the first candidate in a fixed order: for 1x1, the grid
    ascending, then the trace-boundary candidate; for 2x2, by angle, then
    over the eigenvalue grid row-major (first eigenvalue outer), then over
    that angle's trace-boundary slice in ascending order of the first
    eigenvalue.  The 2x2 search visits the grid in blocks of about 32k
    candidates, which bounds its memory whatever the resolution.  Per angle
    it crops each block to the leading rows and columns where both diagonal
    entries of the posterior are positive, which the Sylvester test needs;
    the crop is exact in floating point, so `feasible_points` and the
    winner are as if every candidate were tested.

    Raises
    ------
    DimensionUnsupportedError
        n_x != n_s or n_x not in {1, 2}.
    ValueError
        delta not finite and positive, or a resolution below the minimum.
    HypothesisViolatedError
        Q_{X,S|Y} singular (the grid inverts it): its smallest singular value,
        `in_units` of Q_{X|Y} (rows) and Q_{S|Y} (columns), is at most INV_TOL.
    ResolutionTooCoarseError
        Fewer than 10 feasible candidates.
    """
    require_grid_dimensions(spec)
    _check_distortion(delta)
    res = resolution or OracleResolution()
    if res.eig_points < 2 or res.angle_points < 1:
        raise ValueError("resolution must have at least 2 eigenvalue and 1 angle point")
    stats = spec.stats
    cross = in_units(stats.q_xs_given_y, np.diagonal(stats.q_x_given_y),
                     np.diagonal(stats.q_s_given_y))
    cross_min = float(np.linalg.svd(cross, compute_uv=False)[-1])
    if cross_min <= INV_TOL:
        raise HypothesisViolatedError("Q_{X,S|Y} must be invertible", cross_min)

    target = float(np.trace(stats.q_x_given_y)) - float(delta)

    if spec.n_x == 1:
        return _brute_force_scalar(stats, target, res)
    return _brute_force_2x2(stats, target, res)


def _brute_force_scalar(stats, target: float, res: OracleResolution) -> OracleResult:
    q_x = float(stats.q_x_given_y[0, 0])
    q_s = float(stats.q_s_given_y[0, 0])
    q_xs = float(stats.q_xs_given_y[0, 0])

    # Candidates at or above q_xs^2/q_s have a nonpositive posterior, so the
    # grid stops at the feasible box rather than wasting points past it.
    a_max = min(q_x, q_xs * q_xs / q_s)
    a = np.linspace(0.0, a_max, res.eig_points)
    a = np.append(a, min(max(target, 0.0), a_max))  # trace-boundary candidate
    ftol = _FEAS_TOL * q_x

    post = q_s - (q_s * q_s / (q_xs * q_xs)) * a
    feasible = (a >= target - ftol) & (post > 0.0)
    n_feasible = int(np.count_nonzero(feasible))
    if n_feasible < 10:
        raise ResolutionTooCoarseError(n_feasible)

    # Minimizing 0.5*log(prior/post) is maximizing the posterior variance.
    best = int(np.argmax(np.where(feasible, post, -np.inf)))
    a_best = float(a[best])
    return OracleResult(
        rate=max(0.0, 0.5 * (math.log(q_s) - math.log(float(post[best])))),
        sigma_delta=np.array([[q_x - a_best]]),
        method="grid",
        params={"eig_a": a_best},
        feasible_points=n_feasible,
        resolution=res,
    )


def _brute_force_2x2(stats, target: float, res: OracleResolution) -> OracleResult:
    # Everything is expressed in the eigenbasis of the candidate
    # M = a r1 r1^T + b r2 r2^T, so the whole scan is scalar vector math:
    #   post = Q_{S|Y} - a u1 u1^T - b u2 u2^T,   u_i = W^T r_i
    # with W = Q_{X,S|Y}^{-T} Q_{S|Y}.
    q_x = stats.q_x_given_y
    q_s = stats.q_s_given_y
    binv = np.linalg.inv(stats.q_xs_given_y.T)
    w = binv @ q_s
    k = binv @ q_s @ binv.T
    logdet_prior = float(np.log(np.linalg.det(q_s)))
    # Eigenvalues of any feasible M are capped both by Q_{X|Y} and, since a
    # positive definite posterior gives M^{1/2} K M^{1/2} < I with
    # K = W Q_{S|Y}^{-1} W^T, by lambda_max(M) <= 1/lambda_min(K).  As K^{-1} =
    # Q_{X|Y} - Q_{X|S,Y}, only rounding (at Q_{X|S,Y} = 0) makes the first smaller.
    a_max = min(
        float(np.max(np.linalg.eigvalsh(q_x))),
        1.0 / float(np.min(np.linalg.eigvalsh(k))),
    )
    ftol = _FEAS_TOL * a_max

    thetas = np.linspace(0.0, np.pi, res.angle_points, endpoint=False)
    angles = []
    for theta in thetas:
        c, s = math.cos(theta), math.sin(theta)
        u1 = w.T @ np.array([c, s])
        u2 = w.T @ np.array([-s, c])
        angles.append((float(u1[0]), float(u1[1]), float(u2[0]), float(u2[1])))

    # Per angle, the best det(post) so far and its (a, b); blocks arrive in
    # candidate order and only a strictly larger value replaces the best.
    best_det = np.full(len(angles), -np.inf)
    best_ab = [(0.0, 0.0)] * len(angles)
    n_feasible = 0
    for aa, bb in _candidate_blocks(target, a_max, res.eig_points):
        # aa and bb broadcast against each other (a grid block's a is a column,
        # b a row); flattened, the block lists its candidates in order.  The
        # arithmetic below is per candidate, so terms that depend on a alone or
        # b alone are shared by a whole row or column without changing results.
        keep = aa + bb >= target - ftol
        for i, (u10, u11, u20, u21) in enumerate(angles):
            # Sylvester criterion: post is PD iff p00 > 0 and det > 0, and
            # then p11 > 0 too (det > 0 needs p00 * p11 > 0).
            t00, t11 = q_s[0, 0] - aa * u10 * u10, q_s[1, 1] - aa * u11 * u11
            v00, v11 = bb * u20 * u20, bb * u21 * u21
            r, c = ..., slice(None)  # the trace-boundary slice is not cropped
            if aa.ndim == 2:
                # p = t - v > 0 exactly when v < t, with v nondecreasing in b and
                # t nonincreasing in a: p00 and p11 are both positive only within
                # the leading cols[0] columns of the leading rows.
                cols = np.minimum(np.searchsorted(v00, t00[:, 0]), np.searchsorted(v11, t11[:, 0]))
                if cols[0] == 0:
                    continue
                r, c = slice(np.count_nonzero(cols)), slice(cols[0])
            a, b = aa[r], bb[c]
            p00 = t00[r] - v00[c]
            p01 = q_s[0, 1] - a * u10 * u11 - b * u20 * u21
            det_post = p00 * (t11[r] - v11[c]) - p01 * p01
            idx = np.flatnonzero(keep[r, c] & (p00 > 0.0) & (det_post > 0.0))
            if idx.size == 0:
                continue
            n_feasible += idx.size
            # Minimizing the log-det-ratio objective is maximizing det(post).
            dets = det_post.ravel()[idx]
            j = int(np.argmax(dets))
            if dets[j] > best_det[i]:
                best_det[i] = dets[j]
                pos = np.unravel_index(idx[j], det_post.shape)
                best_ab[i] = (float(a.ravel()[pos[0]]), float(b[pos[-1]]))

    if n_feasible < 10:
        raise ResolutionTooCoarseError(n_feasible)
    i = int(np.argmax(best_det))
    best_rate = 0.5 * (logdet_prior - math.log(best_det[i]))
    theta = float(thetas[i])
    a_best, b_best = best_ab[i]
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    m_best = rot @ np.diag([a_best, b_best]) @ rot.T
    return OracleResult(
        rate=max(0.0, best_rate),
        sigma_delta=0.5 * ((q_x - m_best) + (q_x - m_best).T),
        method="grid",
        params={"theta": theta, "eig_a": a_best, "eig_b": b_best},
        feasible_points=n_feasible,
        resolution=res,
    )


def _candidate_blocks(target: float, a_max: float, n: int):
    """Yield the (a, b) candidates as pairs of arrays that broadcast together.

    The n x n grid on [0, a_max]^2 comes first, row-major (a outer), in blocks
    of whole rows of about _BLOCK_CANDIDATES (a as a column, b as a row); the
    trace-boundary slice b = target - a (where 0 <= b <= a_max) comes last.
    """
    eig_grid = np.linspace(0.0, a_max, n)
    rows = max(1, _BLOCK_CANDIDATES // n)
    for start in range(0, n, rows):
        yield eig_grid[start : start + rows, None], eig_grid
    b_slice = target - eig_grid
    on_slice = (b_slice >= 0.0) & (b_slice <= a_max)
    yield eig_grid[on_slice], b_slice[on_slice]

