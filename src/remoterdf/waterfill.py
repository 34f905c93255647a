"""Spectral reduction and water-filling solution of the rate-distortion function.

The conditional covariances reduce the problem to parallel components: with
Q the product of the symmetric square root of Q_{S|Y} and the inverse of
Q_{X,S|Y}, and Q = V diag(d) U^T its SVD, the reproduction covariance given Y
is U diag(lambda) U^T and the rate is 0.5 * sum(log(1/(1 - lambda_i d_i^2))).
The allocations follow a water level xi:

    lambda_i = 1/d_i^2 - 1/(2 xi)   when xi > d_i^2 / 2, else 0

with xi chosen so the allocations sum to trace(Q_{X|Y}) - delta.  This is
reverse water-filling (Cover & Thomas, Elements of Information Theory, 2nd
ed., 10.3.3), so the level has a closed form: with the d_i ascending, the k
components with the largest 1/d_i^2 are active and 1/(2 xi) is the mean
excess of their 1/d_i^2 over the target.

Distortions at or below delta_min = trace(Q_{X|Y}) - sum(1/d_i^2) carry
infinite rate and are rejected; distortions above delta_plus = trace(Q_{X|Y})
need no coding and return a flagged zero-rate solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    INV_TOL,
    RANK_TOL,
    ConditionalStats,
    GaussianSourceSpec,
    conditional_stats,
    symmetric_sqrt,
    symmetrize,
)
from .errors import BelowRangeError, HypothesisViolatedError


@dataclass(frozen=True)
class SpectralSetup:
    """SVD of the reduction matrix with singular values sorted ascending.

    Columns of `u` are permuted with `d` and sign-fixed so the
    largest-magnitude entry of each is positive; `active` indexes the
    nonzero singular values.  `q_x_given_y` is carried so that solving at
    any distortion needs no further conditional statistics.
    """

    q_mat: np.ndarray
    u: np.ndarray
    d: np.ndarray
    active: np.ndarray
    q_x_given_y: np.ndarray


@dataclass(frozen=True)
class WaterfillSolution:
    """Allocations lambda (paired with d ascending, hence non-increasing),
    water level xi, rate in nats, and the reconstructed covariances."""

    delta: float
    rate: float
    xi: float
    lam: np.ndarray
    sigma_delta: np.ndarray
    q_xhat_given_y: np.ndarray
    above_range: bool
    water_error: float

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.lam > 0.0))


@dataclass(frozen=True)
class CurvePoint:
    delta: float
    rate: float | None
    xi: float | None
    active_count: int | None
    feasible: bool
    error: str


@dataclass(frozen=True)
class RdfCurve:
    points: list[CurvePoint]


def spectral_setup(spec: GaussianSourceSpec, stats: ConditionalStats) -> SpectralSetup:
    """Build the SVD reduction, enforcing the hypotheses it rests on.

    Requires n_x = n_s, invertible Q_{X,S|Y}, and strictly positive definite
    Q_{S|Y}, Q_{X|Y} and Q_{X|Y} - Q_{X|S,Y}.
    """
    if spec.n_x != spec.n_s:
        raise HypothesisViolatedError(
            f"source and measurement dimensions must match (n_x={spec.n_x}, n_s={spec.n_s})",
            float(spec.n_x - spec.n_s),
        )
    cross_sv = np.linalg.svd(stats.q_xs_given_y, compute_uv=False)
    if float(cross_sv[-1]) <= INV_TOL:
        raise HypothesisViolatedError("Q_{X,S|Y} invertible", float(cross_sv[-1]))
    for name, m in [
        ("Q_{S|Y} > 0", stats.q_s_given_y),
        ("Q_{X|Y} > 0", stats.q_x_given_y),
        ("Q_{X|Y} > Q_{X|S,Y}", stats.q_x_given_y - stats.q_x_given_sy),
    ]:
        low = float(np.min(np.linalg.eigvalsh(m)))
        if low <= INV_TOL:
            raise HypothesisViolatedError(name, low)

    root_s = symmetric_sqrt(stats.q_s_given_y)
    q_mat = np.linalg.solve(stats.q_xs_given_y.T, root_s).T

    _, d_desc, ut_desc = np.linalg.svd(q_mat)
    d = d_desc[::-1].copy()
    u = ut_desc[::-1, :].T.copy()
    for i in range(d.size):
        lead = int(np.argmax(np.abs(u[:, i])))
        if u[lead, i] < 0.0:
            u[:, i] = -u[:, i]
    active = np.flatnonzero(d > RANK_TOL * (d[-1] if d.size else 0.0))
    return SpectralSetup(
        q_mat=q_mat, u=u, d=d, active=active, q_x_given_y=stats.q_x_given_y
    )


def distortion_range(spec: GaussianSourceSpec, setup: SpectralSetup) -> tuple[float, float]:
    """Boundaries (delta_min, delta_plus) of the finite-rate distortion regime."""
    trace_xy = float(np.trace(setup.q_x_given_y))
    return _range_from_trace(trace_xy, setup), trace_xy


def _range_from_trace(trace_xy: float, setup: SpectralSetup) -> float:
    d_act = setup.d[setup.active]
    return trace_xy - float(np.sum(1.0 / d_act**2))


def _water_level(
    d_sq: np.ndarray, trace_xy: float, delta: float
) -> tuple[float, np.ndarray]:
    """Level xi and allocations for a total allocation of trace_xy - delta >= 0.

    `d_sq` is ascending, so c = 1/d_sq is descending.  With C_k the sum of
    the first k entries of c, the total allocation when 1/(2 xi) reaches c_k
    is the breakpoint total C_k - k c_k; the active count k is the number of
    breakpoint totals below the target, and then 1/(2 xi) = (C_k - target)/k.
    The rounding error of the target is recovered exactly (Fast2Sum, as
    delta <= trace_xy) and taken off C_k - target, so a delta far below
    trace_xy keeps its digits.

    Invariant: the returned allocations never sum to more than the target,
    so the rate is never above the true optimum and a grid-search oracle can
    never beat it.  Rounding can overshoot by a few ulps; xi is then stepped
    down, one ulp first and doubling the step each time (but never by more
    than half), until the sum fits.  The loop ends at the latest once xi is
    below d_sq[0] / 2, where every allocation is zero.  The excess is floored
    at k * tiny / min(1, d_sq[0]), tiny the smallest normal float, which keeps
    xi and 2 xi / d_sq finite when delta is subnormal or within rounding of
    trace_xy - C_k.
    """
    target = trace_xy - delta
    target_error = (trace_xy - target) - delta
    inv = 1.0 / d_sq
    cum = np.cumsum(inv)
    breakpoints = cum[1:] - np.arange(2, inv.size + 1) * inv[1:]
    k = int(np.searchsorted(breakpoints, target)) + 1
    floor = k * np.finfo(float).tiny / min(1.0, float(d_sq[0]))
    excess = max((float(cum[k - 1]) - target) - target_error, floor)
    xi = k / (2.0 * excess)
    ulps = 1.0
    while True:
        lam = np.maximum(0.0, inv - 1.0 / (2.0 * xi))
        if np.sum(lam) <= target:
            return xi, lam
        xi = max(xi - ulps * (xi - float(np.nextafter(xi, 0.0))), 0.5 * xi)
        ulps *= 2.0


def solve_waterfill(
    spec: GaussianSourceSpec, setup: SpectralSetup, delta: float
) -> WaterfillSolution:
    """Solve the allocation problem at distortion `delta`.

    Raises ValueError for a NaN or infinite delta and BelowRangeError for
    delta <= delta_min (infinite rate).  For delta > delta_plus no rate is
    needed: the solution is returned with all allocations zero and
    `above_range` set instead of raising.
    """
    delta = float(delta)
    if not math.isfinite(delta):
        raise ValueError(f"distortion must be finite, got {delta!r}")
    q_x_given_y = setup.q_x_given_y
    trace_xy = float(np.trace(q_x_given_y))
    delta_min = _range_from_trace(trace_xy, setup)
    if delta <= delta_min:
        raise BelowRangeError(delta, delta_min)

    d_act = setup.d[setup.active]
    d_sq = d_act**2
    lam = np.zeros_like(setup.d)

    if delta > trace_xy:
        xi = 0.5 * float(d_sq[0])
        rate = 0.0
        above_range = True
        water_error = 0.0
    else:
        xi, lam_act = _water_level(d_sq, trace_xy, delta)
        lam[setup.active] = lam_act
        on = lam_act > 0.0
        rate = 0.5 * float(np.sum(np.log(2.0 * xi / d_sq[on])))
        above_range = False
        water_error = abs(float(np.sum(lam_act)) - (trace_xy - delta))

    q_xhat = symmetrize((setup.u * lam) @ setup.u.T)
    sigma_delta = symmetrize(q_x_given_y - q_xhat)
    return WaterfillSolution(
        delta=delta,
        rate=rate,
        xi=xi,
        lam=lam,
        sigma_delta=sigma_delta,
        q_xhat_given_y=q_xhat,
        above_range=above_range,
        water_error=water_error,
    )


def _failed_point(delta: float, error: str) -> CurvePoint:
    return CurvePoint(
        delta=delta, rate=None, xi=None, active_count=None, feasible=False, error=error
    )


def rdf_curve(spec: GaussianSourceSpec, deltas) -> RdfCurve:
    """Sweep the rate-distortion curve over an ascending distortion grid.

    Points at or below delta_min are annotated (feasible=False,
    error="below_range"), as are NaN or infinite points (error="non_finite"),
    and the sweep continues; the finite points must be ascending.  Each point
    is solved independently, so results do not depend on evaluation order.
    """
    grid = [float(d) for d in deltas]
    if not grid:
        raise ValueError("distortion grid is empty")
    finite = [d for d in grid if math.isfinite(d)]
    if any(b < a for a, b in zip(finite, finite[1:])):
        raise ValueError("distortion grid must be sorted ascending")
    setup = spectral_setup(spec, conditional_stats(spec))
    points = []
    for delta in grid:
        if not math.isfinite(delta):
            points.append(_failed_point(delta, "non_finite"))
            continue
        try:
            sol = solve_waterfill(spec, setup, delta)
        except BelowRangeError:
            points.append(_failed_point(delta, "below_range"))
        else:
            points.append(
                CurvePoint(
                    delta=delta,
                    rate=sol.rate,
                    xi=sol.xi,
                    active_count=sol.active_count,
                    feasible=True,
                    error="",
                )
            )
    return RdfCurve(points=points)
