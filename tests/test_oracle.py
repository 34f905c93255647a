import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import remoterdf.oracle
from remoterdf.core import conditional_stats, validate_spec
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
from remoterdf.waterfill import distortion_range, spectral_setup

from conftest import random_feasible_spec


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

    def test_dimension_guard(self):
        rng = np.random.default_rng(5)
        spec = random_feasible_spec(rng, 3, 1)
        with pytest.raises(DimensionUnsupportedError):
            brute_force_rdf(spec, 0.1)

    @pytest.mark.parametrize("cross", [[1e-11], [0.5, 0.0]], ids=["1x1", "2x2"])
    def test_singular_cross_covariance_refused(self, cross):
        # Q_{S|Y} = 2 I and Q_{X|Y} = I, with Q_{X,S|Y} = diag(cross): its
        # smallest singular value is at or below INV_TOL.
        n = len(cross)
        q = np.eye(2 * n + 1)
        q[n : 2 * n, n : 2 * n] *= 2.0
        q[:n, n : 2 * n] = q[n : 2 * n, :n] = np.diag(cross)
        with pytest.raises(HypothesisViolatedError) as refusal:
            brute_force_rdf(validate_spec(q, (n, n, 1)), 0.5)
        assert refusal.value.hypothesis == "Q_{X,S|Y} must be invertible"
        assert refusal.value.value == pytest.approx(cross[-1], abs=1e-15)

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
    # channel synthesis, so it may not import either.
    tree = ast.parse(Path(remoterdf.oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if "waterfill" in name or "channel" in name}
