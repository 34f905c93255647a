"""Water-filling solution of the rate-distortion function.

The remote-source reduction, cached on `ConditionalStats`, gives parallel
components: with Q_{S|Y} = L L^T (Cholesky), F = L^{-1} Q_{X,S|Y}^T =
V diag(s) U^T and d_i = 1/s_i, the matrix B = F^T F =
Q_{X,S|Y} Q_{S|Y}^{-1} Q_{X,S|Y}^T is the covariance of E[X|S,Y] given Y,
the reproduction covariance given Y is U diag(lambda) U^T and the rate is
0.5 * sum(log(1/(1 - lambda_i d_i^2))), for any n_x, n_s and rank of
Q_{X,S|Y}.  The allocations of the active components (s_i above
RANK_TOL * s_max; the others S does not observe) follow a water level xi:

    lambda_i = 1/d_i^2 - 1/(2 xi)   when xi > d_i^2 / 2, else 0

with xi chosen so the allocations sum to trace(Q_{X|Y}) - delta.  This is
reverse water-filling (Cover & Thomas, Elements of Information Theory, 2nd
ed., 10.3.3) on the spectrum of B, so the level has a closed form: with the
d_i ascending, the k components with the largest 1/d_i^2 are active and
1/(2 xi) is the mean excess of their 1/d_i^2 over the target.

Distortions at or below delta_min = trace(Q_{X|Y}) - sum(1/d_i^2) =
trace(Q_{X|S,Y}) carry infinite rate and are rejected; distortions above
delta_plus = trace(Q_{X|Y}) need no coding and return a flagged zero-rate
one.  With no active component, delta_min = delta_plus, solved at rate 0.

One solver, `_water_levels`, finds the level for a whole array of
distortions at once.  `rdf_curve` hands it the grid in blocks of about
CURVE_BLOCK allocation entries, and `solve_waterfill` hands it a one-point
grid and then builds the covariances, so a curve point and a single solve at
the same distortion agree bit for bit.  At every point the allocations sum
to at most trace(Q_{X|Y}) - delta, and the rate is a sum of per-component
logarithms, which loses fewer digits near delta_plus (see `_water_levels`).
The blocks bound a curve's working memory whatever the grid length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ConditionalStats, GaussianSourceSpec, symmetrize
from .errors import BelowRangeError

# Allocation entries (points x active components) rdf_curve solves at once.
# The solver's working arrays are a few times this size, so a curve's memory
# beyond its output stays under a few MB for any grid length.
CURVE_BLOCK = 32768

# Step-downs `_water_levels` may take before it gives up.  The step doubles
# from one ulp until it is capped at half of xi (at most 53 steps), and xi then
# halves at most log2(2 xi / d_sq[0]) < 2099 times (the float format's range,
# subnormals included) before it falls under d_sq[0] / 2, where every
# allocation is zero.  Passing this bound is a bug, so it raises rather than
# looping on.
STEP_DOWN_LIMIT = 2200


@dataclass(frozen=True)
class WaterfillSolution:
    """Allocations lambda (paired with `stats.s` descending, hence
    non-increasing), water level xi, rate in nats, and the distortion
    covariance Sigma."""

    delta: float
    rate: float
    xi: float
    lam: np.ndarray
    sigma_delta: np.ndarray
    above_range: bool
    water_error: float

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self.lam > 0.0))


class CurvePoint(NamedTuple):
    """One curve point; an immutable named tuple, so it also equals the plain
    tuple of its fields.  Rate, xi and active_count are None when not feasible."""

    delta: float
    rate: float | None
    xi: float | None
    active_count: int | None
    feasible: bool
    error: str


@dataclass(frozen=True)
class RdfCurve:
    points: list[CurvePoint]


def spectral_setup(spec: GaussianSourceSpec, stats: ConditionalStats) -> ConditionalStats:
    """Return `stats` once their reduction is computed; a Q_{S|Y} with no
    Cholesky factor is refused (HypothesisViolatedError "Q_{S|Y} > 0")."""
    stats.delta_min  # computes the reduction, so a refusal is raised here
    return stats


def distortion_range(spec: GaussianSourceSpec, setup: ConditionalStats) -> tuple[float, float]:
    """Boundaries (delta_min, delta_plus) of the finite-rate distortion regime."""
    return setup.delta_min, setup.trace_xy


def _finite_rate(stats: ConditionalStats, deltas):
    """Which distortions have a finite rate: those above delta_min, and
    delta_plus when it equals delta_min (no active component)."""
    return (deltas > stats.delta_min) | (deltas >= stats.trace_xy)


def _water_levels(
    d_sq: np.ndarray, trace_xy: float, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Levels, allocations, rates and active counts for distortions above delta_min.

    `d_sq` is ascending, so c = 1/d_sq is descending.  Returns the level xi,
    the allocations (one row per distortion, paired with `d_sq`), the rate
    in nats and the number of active components, one entry per distortion.
    Each point is solved on its own, with the same arithmetic whatever the
    other points, so a point's results do not depend on the grid around it.

    With C_k the sum of the first k entries of c, the total allocation when
    1/(2 xi) reaches c_k is the breakpoint total C_k - k c_k; the active
    count k is the number of breakpoint totals below the target
    trace_xy - delta, and then 1/(2 xi) = (C_k - target)/k.  The rounding
    error of the target is recovered exactly (Fast2Sum, as delta <=
    trace_xy) and taken off C_k - target, so a delta far below trace_xy
    keeps its digits.  A delta above trace_xy needs no allocation: its level
    is d_sq[0] / 2 and its allocations are zero.  With `d_sq` empty, all are zero.

    Invariant: each row of allocations sums to at most its target, so the
    rate is never above the true optimum and a grid-search oracle can never
    beat it.  Rounding can overshoot by a few ulps (about one in five
    points of a typical curve does); each such xi is then stepped down, one
    ulp first and doubling the step each time (but never by more than
    half), and leaves the loop as soon as its row fits.  A point leaves at
    the latest once xi is below d_sq[0] / 2, where every allocation is zero;
    a loop that runs past STEP_DOWN_LIMIT steps raises RuntimeError.
    The excess is floored at k * tiny / min(1, d_sq[0]), tiny the smallest
    normal float, which keeps xi and 2 xi / d_sq finite when delta is
    subnormal or within rounding of trace_xy - C_k.

    The rate is 0.5 * sum(log(2 xi / d_i^2)) over the active components,
    summed per component with the inactive ones masked to log 1 = 0.  Near
    delta_plus each ratio is close to 1 and its log is small and rounded
    once; the shorter k log(2 xi) - sum(log d_i^2) subtracts two terms far
    larger than the rate and loses several times more of its digits there.
    """
    if not d_sq.size:  # no active component: only delta >= trace_xy gets here
        zeros = np.zeros(deltas.size)
        return zeros, np.zeros((deltas.size, 0)), zeros, zeros.astype(int)
    above = deltas > trace_xy
    deltas = np.minimum(deltas, trace_xy)
    target = trace_xy - deltas
    target_error = (trace_xy - target) - deltas
    inv = 1.0 / d_sq
    cum = np.cumsum(inv)
    breakpoints = cum[1:] - np.arange(2, inv.size + 1) * inv[1:]
    k = np.searchsorted(breakpoints, target) + 1
    floor = k * np.finfo(float).tiny / min(1.0, float(d_sq[0]))
    excess = np.maximum((cum[k - 1] - target) - target_error, floor)
    xi = np.where(above, 0.5 * d_sq[0], k / (2.0 * excess))
    lam = np.maximum(0.0, inv - 1.0 / (2.0 * xi[:, None]))
    over = np.flatnonzero(lam.sum(axis=1) > target)
    ulps = 1.0
    for _ in range(STEP_DOWN_LIMIT):
        if not over.size:
            break
        x = xi[over]
        x = np.maximum(x - ulps * (x - np.nextafter(x, 0.0)), 0.5 * x)
        xi[over] = x
        lam[over] = np.maximum(0.0, inv - 1.0 / (2.0 * x[:, None]))
        over = over[lam[over].sum(axis=1) > target[over]]
        ulps *= 2.0
    if over.size:
        raise RuntimeError(f"water level still overshoots after {STEP_DOWN_LIMIT} step-downs")
    on = lam > 0.0
    rate = 0.5 * np.log(np.where(on, 2.0 * xi[:, None] / d_sq, 1.0)).sum(axis=1)
    return xi, lam, rate, on.sum(axis=1)


def solve_waterfill(
    spec: GaussianSourceSpec, setup: ConditionalStats, delta: float
) -> WaterfillSolution:
    """Solve the allocation problem at distortion `delta`.

    Raises ValueError for a NaN or infinite delta and BelowRangeError for
    delta <= delta_min (infinite rate), unless delta_min = delta_plus (no
    active component) and delta is that.  For delta > delta_plus no rate is
    needed: the solution is returned with all allocations zero and
    `above_range` set instead of raising.  The level comes from the grid
    solver on a one-point grid; only the covariances are built here.
    """
    delta = float(delta)
    if not math.isfinite(delta):
        raise ValueError(f"distortion must be finite, got {delta!r}")
    if not _finite_rate(setup, delta):
        raise BelowRangeError(delta, setup.delta_min)

    xi, lam_act, rate, _ = _water_levels(setup.d_sq, setup.trace_xy, np.array([delta]))
    lam = np.zeros(setup.s.size)
    lam[setup.active] = lam_act[0]
    above_range = delta > setup.trace_xy
    water_error = 0.0
    if not above_range:
        water_error = abs(float(np.sum(lam_act[0])) - (setup.trace_xy - delta))

    q_xhat = symmetrize((setup.u * lam) @ setup.u.T)
    sigma_delta = symmetrize(setup.q_x_given_y - q_xhat)
    return WaterfillSolution(
        delta=delta,
        rate=float(rate[0]),
        xi=float(xi[0]),
        lam=lam,
        sigma_delta=sigma_delta,
        above_range=above_range,
        water_error=water_error,
    )


def rdf_curve(spec: GaussianSourceSpec, deltas) -> RdfCurve:
    """Sweep the rate-distortion curve over an ascending distortion grid.

    Points without a finite rate (as in `solve_waterfill`) are annotated (feasible=False,
    error="below_range"), as are NaN or infinite points (error="non_finite"),
    and the sweep continues; the finite points must be ascending.  The
    feasible points go to the grid solver in blocks of about CURVE_BLOCK
    allocation entries, which bounds the working memory for any grid length.
    No covariance is built.  Each point is solved independently, so results
    do not depend on evaluation order and equal `solve_waterfill` bit for bit.
    """
    grid = np.array([float(d) for d in deltas], dtype=float)
    if not grid.size:
        raise ValueError("distortion grid is empty")
    finite = np.isfinite(grid)
    ordered = grid[finite]
    if np.any(ordered[1:] < ordered[:-1]):
        raise ValueError("distortion grid must be sorted ascending")
    stats = spec.stats
    feasible = finite & _finite_rate(stats, grid)
    xi = np.zeros(grid.size)
    rate = np.zeros(grid.size)
    count = np.zeros(grid.size, dtype=int)
    solved = np.flatnonzero(feasible)
    step = max(1, CURVE_BLOCK // max(1, stats.d_sq.size))
    for start in range(0, solved.size, step):
        block = solved[start : start + step]
        xi[block], _, rate[block], count[block] = _water_levels(
            stats.d_sq, stats.trace_xy, grid[block]
        )
    columns = [col.tolist() for col in (grid, rate, xi, count, feasible)]
    columns.append([""] * grid.size)
    for i in np.flatnonzero(~feasible).tolist():
        columns[1][i] = columns[2][i] = columns[3][i] = None
        columns[5][i] = "below_range" if finite[i] else "non_finite"
    return RdfCurve(points=list(map(CurvePoint._make, zip(*columns))))
