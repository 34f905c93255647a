import ast
import math
from functools import cached_property
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import remoterdf.oracle
from remoterdf.core import ConditionalStats, conditional_stats, validate_spec
from remoterdf.errors import (
    DimensionUnsupportedError,
    HypothesisViolatedError,
    ResolutionTooCoarseError,
)
from remoterdf.oracle import (
    OracleResolution,
    brute_force_rdf,
    classical_scalar_rdf,
    remark3_discrepancy,
    wyner_scalar_rdf,
)
from remoterdf.waterfill import distortion_range, solve_waterfill, spectral_setup

from conftest import SCALAR_Q, generated_spec, random_feasible_spec, singular_cross_spec


class TestWynerScalar:
    def test_closed_form_quarter(self):
        res = wyner_scalar_rdf(1.0, 0.25)
        assert res.rate == pytest.approx(0.5 * math.log(4.0), abs=1e-15)
        assert res.params["h"] == pytest.approx(0.75)
        assert res.params["q_w"] == pytest.approx(0.1875)
        assert res.method == "closed-form"

    def test_zero_rate_channel_collapses(self):
        res = wyner_scalar_rdf(1.0, 1.0)
        assert res.rate == 0.0
        assert res.params["h"] == 0.0
        assert res.params["q_w"] == 0.0

    def test_distortion_above_variance_clamped(self):
        res = wyner_scalar_rdf(1.0, 3.0)
        assert res.rate == 0.0
        assert res.params["h"] == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wyner_scalar_rdf(0.0, 0.5)
        with pytest.raises(ValueError):
            wyner_scalar_rdf(1.0, 0.0)


class TestClassicalScalar:
    def test_closed_form_quarter(self):
        res = classical_scalar_rdf(1.0, 0.25)
        assert res.rate == pytest.approx(0.5 * math.log(4.0), abs=1e-15)
        assert res.params["reproduction_variance"] == pytest.approx(0.75)

    def test_distortion_at_or_above_variance(self):
        res = classical_scalar_rdf(1.0, 1.0)
        assert res.rate == 0.0
        assert res.params["reproduction_variance"] == 0.0
        res = classical_scalar_rdf(1.0, 2.0)
        assert res.rate == 0.0

    def test_half_variance(self):
        res = classical_scalar_rdf(2.0, 1.0)
        assert res.rate == pytest.approx(0.5 * math.log(2.0), abs=1e-15)

    def test_zero_variance_allowed(self):
        res = classical_scalar_rdf(0.0, 0.5)
        assert res.rate == 0.0
        assert res.params["reproduction_variance"] == 0.0


class TestRemark3:
    def test_midpoint_row(self):
        (row,) = remark3_discrepancy(1.0, [0.5])
        assert row.prior_noise_variance == pytest.approx(1.0, abs=1e-15)
        assert row.wyner_h == pytest.approx(0.5)
        assert row.wyner_z_variance == pytest.approx(0.5)
        assert not row.divergent

    def test_near_boundary_divergence(self):
        (row,) = remark3_discrepancy(1.0, [0.99])
        assert row.prior_noise_variance == pytest.approx(99.0, abs=1e-9)
        assert row.wyner_z_variance < 0.02

    def test_divergence_flag_threshold(self):
        (row,) = remark3_discrepancy(1.0, [0.999])
        # prior variance 999 vs correct output variance 0.001
        assert row.divergent
        (row,) = remark3_discrepancy(1.0, [0.5])
        assert not row.divergent

    def test_at_boundary_prior_variance_infinite(self):
        (row,) = remark3_discrepancy(1.0, [1.0])
        assert math.isinf(row.prior_noise_variance)
        assert row.wyner_z_variance == 0.0
        assert row.divergent

    def test_prior_reproduction_variance_is_wrong(self):
        # At delta = q/2 the prior-work output variance differs from the
        # correct max(0, q - delta).
        q = 1.0
        (row,) = remark3_discrepancy(q, [q / 2])
        correct = max(0.0, q - q / 2)
        assert abs(row.prior_z_variance - correct) > 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            remark3_discrepancy(1.0, [0.0])
        with pytest.raises(ValueError):
            remark3_discrepancy(1.0, [1.5])

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_rejects_non_finite_variance(self, q):
        with pytest.raises(ValueError, match="finite"):
            remark3_discrepancy(q, [0.5])
        with pytest.raises(ValueError, match="finite"):
            wyner_scalar_rdf(q, 0.5)
        with pytest.raises(ValueError, match="finite"):
            classical_scalar_rdf(q, 0.5)

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_rejects_non_finite_distortion(self, delta):
        with pytest.raises(ValueError, match="finite"):
            wyner_scalar_rdf(1.0, delta)
        with pytest.raises(ValueError, match="finite"):
            classical_scalar_rdf(1.0, delta)


class TestBruteForce:
    def test_scalar_example(self, scalar_spec):
        res = brute_force_rdf(scalar_spec, 0.375, OracleResolution(eig_points=5001))
        assert res.rate == pytest.approx(0.5 * math.log(2.0), abs=1e-6)
        assert res.sigma_delta[0, 0] == pytest.approx(0.375, abs=1e-9)
        assert res.method == "grid"

    def test_scalar_zero_rate_at_upper_boundary(self, scalar_spec):
        res = brute_force_rdf(scalar_spec, 0.5)
        assert res.rate == 0.0

    def test_two_dim_isotropic_matches_classical_vector_rate(self):
        # The vector classical RDF gives rate ln(2/delta) at distortion delta.
        res = brute_force_rdf(isotropic_spec(), 0.5)
        assert res.rate == pytest.approx(math.log(4.0), abs=1e-4)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9, 1e6])
    def test_grid_never_beats_the_optimum_at_any_scale(self, scale):
        # Candidates must meet the trace target to a tolerance relative to
        # the instance's scale: an absolute one let the README spec x1e-9
        # admit candidates short of it, 3.5e-3 nats under the optimum.
        spec = validate_spec(SCALAR_Q * scale, (1, 1, 1))
        setup = spectral_setup(spec, conditional_stats(spec))
        lo, hi = distortion_range(spec, setup)
        delta = lo + 0.55 * (hi - lo)
        optimum = solve_waterfill(spec, setup, delta).rate
        assert brute_force_rdf(spec, delta).rate >= optimum - 1e-12 * max(optimum, 1.0)

    @pytest.mark.parametrize("log10_c", [-6, -3, 3, 5, 6])
    @pytest.mark.parametrize("block", ["x", "s", "y"])
    def test_invertibility_test_free_of_units(self, scalar_spec, block, log10_c):
        # The rate does not depend on units.  With Y x 1e5, Q_{X,S|Y}'s
        # smallest singular value 0.5 is below INV_TOL times the largest
        # variance of the joint, so it must be measured in X's and S's units.
        c = np.ones(3)
        c["xsy".index(block)] = 10.0**log10_c
        spec = validate_spec(SCALAR_Q * np.outer(c, c), (1, 1, 1))
        res = OracleResolution(eig_points=1001)
        delta = 0.375 * c[0] ** 2
        assert brute_force_rdf(spec, delta, res).rate == pytest.approx(
            brute_force_rdf(scalar_spec, 0.375, res).rate, rel=1e-9)

    def test_dimension_guard(self):
        rng = np.random.default_rng(5)
        spec = random_feasible_spec(rng, 3, 1)
        with pytest.raises(DimensionUnsupportedError):
            brute_force_rdf(spec, 0.1)

    @pytest.mark.parametrize("cross", [[1e-11], [0.5, 0.0]], ids=["1x1", "2x2"])
    def test_singular_cross_covariance_refused(self, cross):
        # Q_{X,S|Y} = diag(cross) with Q_{X|Y} = I and Q_{S|Y} = 2 I: in units
        # of the conditional standard deviations it is diag(cross) / sqrt(2),
        # whose smallest singular value is at or below INV_TOL.
        with pytest.raises(HypothesisViolatedError) as refusal:
            brute_force_rdf(singular_cross_spec(cross), 0.5)
        assert refusal.value.hypothesis == "Q_{X,S|Y} must be invertible"
        assert refusal.value.value == pytest.approx(cross[-1] / math.sqrt(2.0), abs=1e-15)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_invalid_distortion_refused(self, scalar_spec, delta):
        with pytest.raises(ValueError, match="distortion must be"):
            brute_force_rdf(scalar_spec, delta)

    def test_resolution_too_coarse(self, scalar_spec):
        with pytest.raises(ResolutionTooCoarseError):
            brute_force_rdf(scalar_spec, 0.375, OracleResolution(eig_points=2))

    def test_deterministic(self, scalar_spec):
        r1 = brute_force_rdf(scalar_spec, 0.31)
        r2 = brute_force_rdf(scalar_spec, 0.31)
        assert r1.rate == r2.rate
        assert np.array_equal(r1.sigma_delta, r2.sigma_delta)

    def test_first_of_tied_candidates_wins(self, monkeypatch):
        # Isotropic case at angle 0: det(post) = (1 - a)(1 - b) exactly, so
        # the grid points (1/2, 17/32) and (17/32, 1/2) tie on the trace
        # boundary a + b = 33/32 (the target sits 2^-44 above it, within the
        # feasibility tolerance, so the off-grid slice candidates are worse).
        # The first in row-major order must win, also when every grid row is
        # a block of its own; above delta_plus every angle ties at M = 0.
        spec = isotropic_spec()
        for block in (remoterdf.oracle._BLOCK_CANDIDATES, 7):
            monkeypatch.setattr(remoterdf.oracle, "_BLOCK_CANDIDATES", block)
            res = brute_force_rdf(spec, 0.96875 - 2.0**-44, OracleResolution(33, 1))
            assert res.params == {"theta": 0.0, "eig_a": 0.5, "eig_b": 0.53125}
            res = brute_force_rdf(spec, 2.5, OracleResolution(33, 9))
            assert res.params == {"theta": 0.0, "eig_a": 0.0, "eig_b": 0.0}

    def test_block_size_does_not_change_the_result(self, monkeypatch):
        spec = random_feasible_spec(np.random.default_rng(6), 2, 1, min_margin=5e-3)
        whole = brute_force_rdf(spec, mid_range(spec), OracleResolution(41, 9))
        monkeypatch.setattr(remoterdf.oracle, "_BLOCK_CANDIDATES", 7)
        split = brute_force_rdf(spec, mid_range(spec), OracleResolution(41, 9))
        assert split.rate == whole.rate
        assert split.params == whole.params
        assert split.feasible_points == whole.feasible_points
        assert np.array_equal(split.sigma_delta, whole.sigma_delta)

    def test_memory_is_bounded_at_fine_grids(self):
        # 2000 x 2000 candidates per angle would take hundreds of MB at once;
        # the search works in blocks of rows instead.
        spec = random_feasible_spec(np.random.default_rng(3), 2, 1, min_margin=5e-3)
        tracemalloc.start()
        try:
            brute_force_rdf(spec, mid_range(spec), OracleResolution(2000, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


def low_noise_spec(seed: int, noise: float, cond: float):
    """X ~ N(0, P), S = A X + N_s with Var N_s = noise * I and cond(A) = cond,
    Y = b^T X + N_y: Q_{X|S,Y} shrinks with the noise, towards singular."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    p = (u * rng.uniform(0.3, 1.5, 2)) @ u.T
    mix = np.vstack([np.eye(2), (v * [1.0, 1.0 / cond]) @ u.T, rng.standard_normal((1, 2))])
    q = mix @ p @ mix.T + np.diag([0.0, 0.0, noise, noise, 0.5])
    return validate_spec(0.5 * (q + q.T), (2, 2, 1))


def dense_grid_search(spec, delta, res):
    """The 2x2 grid search written out densely: every candidate of every angle
    gets the whole feasibility conjunction (the trace, a Sylvester-positive
    posterior and M <= Q_{X|Y} up to the slack), and the first best wins.
    Returns the feasible count and the winner's rate and params."""
    stats = conditional_stats(spec)
    q_x, q_s = stats.q_x_given_y, stats.q_s_given_y
    binv = np.linalg.inv(stats.q_xs_given_y.T)
    w, k = binv @ q_s, binv @ q_s @ binv.T
    a_max = min(float(np.max(np.linalg.eigvalsh(q_x))), 1.0 / float(np.min(np.linalg.eigvalsh(k))))
    ftol = remoterdf.oracle._FEAS_TOL * a_max
    target = float(np.trace(q_x)) - float(delta)
    grid = np.linspace(0.0, a_max, res.eig_points)
    a_grid, b_grid = np.meshgrid(grid, grid, indexing="ij")
    on_slice = (target - grid >= 0.0) & (target - grid <= a_max)
    a = np.concatenate([a_grid.ravel(), grid[on_slice]])
    b = np.concatenate([b_grid.ravel(), (target - grid)[on_slice]])
    count, best_det, params = 0, -np.inf, None
    for theta in np.linspace(0.0, np.pi, res.angle_points, endpoint=False):
        c, s = math.cos(theta), math.sin(theta)
        u10, u11 = (float(x) for x in w.T @ np.array([c, s]))
        u20, u21 = (float(x) for x in w.T @ np.array([-s, c]))
        p00 = q_s[0, 0] - a * u10 * u10 - b * u20 * u20
        p01 = q_s[0, 1] - a * u10 * u11 - b * u20 * u21
        p11 = q_s[1, 1] - a * u11 * u11 - b * u21 * u21
        det = p00 * p11 - p01 * p01
        g00 = q_x[0, 0] - (a * c * c + b * s * s) + ftol
        g01 = q_x[0, 1] - (a - b) * c * s
        g11 = q_x[1, 1] - (a * s * s + b * c * c) + ftol
        feasible = ((a + b >= target - ftol) & (p00 > 0.0) & (det > 0.0)
                    & (g00 >= 0.0) & (g11 >= 0.0) & (g00 * g11 - g01 * g01 >= 0.0))
        count += int(np.count_nonzero(feasible))
        j = int(np.argmax(np.where(feasible, det, -np.inf)))
        if feasible[j] and det[j] > best_det:
            best_det = det[j]
            params = {"theta": float(theta), "eig_a": float(a[j]), "eig_b": float(b[j])}
    if params is None:
        return 0, None, None
    rate = max(0.0, 0.5 * (float(np.log(np.linalg.det(q_s))) - math.log(best_det)))
    return count, rate, params


EXACT_COUNT_SPECS = {
    "isotropic": lambda: isotropic_spec(),
    **{f"random-{seed}": (lambda seed=seed: random_feasible_spec(
        np.random.default_rng(seed), 2, 1, min_margin=5e-3)) for seed in (6, 7, 8)},
    **{f"generated-{seed}": (lambda seed=seed: generated_spec(
        np.random.default_rng(seed), 2, 1)) for seed in (0, 1)},
    "noise-1e-6": lambda: low_noise_spec(1, 1e-6, 1.0),
    "noise-1e-12": lambda: low_noise_spec(2, 1e-12, 1.0),
    "noise-1e-9-cond-1e3": lambda: low_noise_spec(3, 1e-9, 1e3),
    "noise-1e-12-cond-1e6": lambda: low_noise_spec(4, 1e-12, 1e6),
}


@pytest.mark.parametrize("grid", [(41, 9), (33, 7)], ids=["41x9", "33x7"])
@pytest.mark.parametrize("name", EXACT_COUNT_SPECS)
def test_grid_search_drops_no_feasible_candidate(monkeypatch, name, grid):
    # The search tests neither M <= Q_{X|Y} (the posterior test implies it)
    # nor any candidate outside its per-angle crop (where the posterior's
    # diagonal is not positive); the dense conjunction must count and pick
    # exactly as it does.
    spec = EXACT_COUNT_SPECS[name]()
    lo, hi = distortion_range(spec, spectral_setup(spec, conditional_stats(spec)))
    res = OracleResolution(*grid)
    for fraction in (0.05, 0.55, 0.97):
        delta = lo + fraction * (hi - lo)
        count, rate, params = dense_grid_search(spec, delta, res)
        for block in (remoterdf.oracle._BLOCK_CANDIDATES, 7):
            monkeypatch.setattr(remoterdf.oracle, "_BLOCK_CANDIDATES", block)
            if count < 10:
                with pytest.raises(ResolutionTooCoarseError):
                    brute_force_rdf(spec, delta, res)
                continue
            found = brute_force_rdf(spec, delta, res)
            assert (found.feasible_points, found.params, found.rate) == (count, params, rate)


def isotropic_spec():
    """X = S two-dimensional with unit covariance and trivial side info."""
    q = np.zeros((5, 5))
    q[:2, :2] = q[:2, 2:4] = q[2:4, :2] = q[2:4, 2:4] = np.eye(2)
    q[4, 4] = 1.0
    return validate_spec(q, (2, 2, 1))


def mid_range(spec) -> float:
    lo, hi = distortion_range(spec, spectral_setup(spec, conditional_stats(spec)))
    return 0.5 * (lo + hi)


def test_oracle_shares_no_code_with_the_solver():
    # The oracle is the independent check on water-filling and on the
    # channel synthesis, so it may not import either, nor read the
    # reduction that `ConditionalStats` caches for them.
    tree = ast.parse(Path(remoterdf.oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if "waterfill" in name or "channel" in name}
    reduction = {name for name, value in vars(ConditionalStats).items()
                 if isinstance(value, cached_property)}
    assert reduction >= {"f", "s", "active", "u"}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not read & reduction
