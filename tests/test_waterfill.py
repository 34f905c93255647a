import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import remoterdf.waterfill
from remoterdf.channel import build_channel, optimal_channel, rate_of_channel
from remoterdf.core import (
    INV_TOL,
    RANK_TOL,
    conditional_stats,
    psd_tolerance,
    symmetric_sqrt,
    symmetrize,
    validate_spec,
)
from remoterdf.errors import BelowRangeError, HypothesisViolatedError
from remoterdf.oracle import OracleResolution, brute_force_rdf
from remoterdf.waterfill import (
    CurvePoint,
    _water_levels,
    distortion_range,
    rdf_curve,
    solve_waterfill,
    spectral_setup,
)

from conftest import (
    generated_spec,
    q_x_given_sy,
    rectangular_spec,
    singular_cross_spec,
    ulps_from,
    wyner_spec,
)
from test_oracle import isotropic_spec


def make_setup(spec):
    return spectral_setup(spec, conditional_stats(spec))


def ascending_d(stats):
    """d_i = 1/s_i, ascending, infinite for a component S does not observe."""
    with np.errstate(divide="ignore"):
        return 1.0 / stats.s


def reduction_matrix(spec):
    """Q = Q_{S|Y}^{1/2} Q_{X,S|Y}^{-1}, whose SVD `spectral_setup` takes."""
    stats = conditional_stats(spec)
    return np.linalg.solve(stats.q_xs_given_y.T, symmetric_sqrt(stats.q_s_given_y)).T


def diag_block_spec():
    """Q_{S|Y} = I, Q_{X,S|Y} = diag(0.5, 0.25), Q_{X|Y} = diag(0.5, 0.5)."""
    q = np.zeros((5, 5))
    q[:2, :2] = np.diag([0.5, 0.5])
    q[2:4, 2:4] = np.eye(2)
    q[:2, 2:4] = q[2:4, :2] = np.diag([0.5, 0.25])
    q[4, 4] = 1.0
    return validate_spec(q, (2, 2, 1))


def blocks_spec(q_s, cross):
    """2x2 blocks with Q_{X|Y} = I, the given Q_{S|Y} and Q_{X,S|Y}, and Y
    independent of (X, S)."""
    q = np.zeros((5, 5))
    q[:2, :2] = np.eye(2)
    q[2:4, 2:4] = q_s
    q[:2, 2:4] = cross
    q[2:4, :2] = np.asarray(cross).T
    q[4, 4] = 1.0
    return validate_spec(q, (2, 2, 1))


def reference_reduction(stats):
    """(d, active, d_sq, delta_min) by a route independent of the Cholesky
    factor: `eigvalsh` for both positivity checks, a second `eigh` of Q_{S|Y}
    for its root (the clamp-and-root of `symmetric_sqrt`, written out) and
    the SVD of Q_{S|Y}^{1/2} Q_{X,S|Y}^{-1}, whose singular values are the d_i."""
    for name, m in [("Q_{S|Y} > 0", stats.q_s_given_y), ("Q_{X|Y} > 0", stats.q_x_given_y)]:
        low = float(np.min(np.linalg.eigvalsh(m)))
        if low <= INV_TOL:
            raise HypothesisViolatedError(name, low)
    eigvals, eigvecs = np.linalg.eigh(symmetrize(stats.q_s_given_y))
    clamped = np.where(eigvals < psd_tolerance(float(eigvals[-1])), 0.0, eigvals)
    root_s = symmetrize((eigvecs * np.sqrt(clamped)) @ eigvecs.T)
    d = np.linalg.svd(np.linalg.solve(stats.q_xs_given_y.T, root_s).T, compute_uv=False)[::-1]
    active = np.flatnonzero(d > RANK_TOL * d[-1])
    d_sq = d[active] ** 2
    return d, active, d_sq, float(np.trace(stats.q_x_given_y)) - float(np.sum(1.0 / d_sq))


def assert_matches_reference(spec):
    """The reduction agrees with `reference_reduction` to 1e-12 relative.

    The singular vectors are checked as a basis, by orthonormality and by
    F = V diag(s) U^T with V = F U diag(d), not entry by entry: equal
    singular values admit any basis of their subspace.
    """
    stats = conditional_stats(spec)
    setup = spectral_setup(spec, stats)
    d_ref, active, d_sq, delta_min = reference_reduction(stats)
    d = ascending_d(setup)
    assert np.array_equal(setup.active, active)
    assert setup.d_sq == pytest.approx(d_sq, rel=1e-12, abs=0.0)
    assert d**2 == pytest.approx(d_ref**2, rel=1e-12, abs=0.0)
    assert setup.delta_min == pytest.approx(delta_min, rel=1e-12, abs=0.0)
    n = d.size
    f, u = stats.f, stats.u
    v = f @ u * d
    scale = np.linalg.norm(f, "fro")
    assert np.linalg.norm(u.T @ u - np.eye(n), "fro") <= 1e-12 * n
    assert np.linalg.norm(v.T @ v - np.eye(n), "fro") <= 1e-12 * n
    assert np.linalg.norm((v / d) @ u.T - f, "fro") <= 1e-12 * n * scale
    return setup


class TestSpectralSetup:
    def test_scalar_example(self, scalar_spec):
        setup = make_setup(scalar_spec)
        assert reduction_matrix(scalar_spec) == pytest.approx(np.array([[2.0]]))
        assert ascending_d(setup) == pytest.approx([2.0])
        assert ascending_d(setup)[0] ** 2 == pytest.approx(4.0)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_equal_source_measurement(self, q):
        setup = make_setup(wyner_spec(q))
        assert ascending_d(setup)[0] ** 2 == pytest.approx(1.0 / q, rel=1e-12)

    def test_diag_block_example(self):
        setup = make_setup(diag_block_spec())
        assert ascending_d(setup) == pytest.approx([2.0, 4.0])

    def test_svd_reconstruction_and_orthogonality(self, make_spec):
        rng = np.random.default_rng(7)
        for n, n_y in [(1, 1), (2, 2), (3, 1)]:
            spec = make_spec(rng, n, n_y)
            setup = make_setup(spec)
            q_mat = reduction_matrix(spec)
            d = ascending_d(setup)
            assert np.all(np.diff(d) >= 0)
            # Left singular vectors follow from the right ones: V = Q U D^{-1}.
            u = setup.u
            v = q_mat @ u / d
            recon = (v * d) @ u.T
            assert np.linalg.norm(recon - q_mat, "fro") < 1e-10
            assert np.linalg.norm(u @ u.T - np.eye(n), "fro") < 1e-10
            assert np.linalg.norm(v @ v.T - np.eye(n), "fro") < 1e-10

    def test_dimension_hypothesis(self):
        # n_x = 2, n_s = 1: B = c c^T / q_s has rank one, so there is one
        # component, along c, with d^2 = q_s / |c|^2.
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.standard_normal((4, 6))
            q = a @ a.T / 6
            try:
                spec = validate_spec(q, (2, 1, 1))
                break
            except Exception:
                continue
        stats = make_setup(spec)
        c = stats.q_xs_given_y[:, 0]
        b = float(c @ c) / float(stats.q_s_given_y[0, 0])
        assert ascending_d(stats) ** 2 == pytest.approx([1.0 / b], rel=1e-12)
        assert stats.delta_min == pytest.approx(stats.trace_xy - b, rel=1e-12)
        assert np.abs(stats.u[:, 0]) == pytest.approx(np.abs(c) / np.linalg.norm(c), rel=1e-12)

    def test_singular_cross_hypothesis(self):
        # Q_{X,S|Y} = diag(1, 0), Q_{S|Y} = 2 I, Q_{X|Y} = I: B = diag(1/2, 0),
        # so delta_min = 1.5, the second component is never active, and the
        # rate is 0.5 ln(0.5 / (delta - 1.5)) on (1.5, 2).
        spec = singular_cross_spec([1.0, 0.0])
        setup = make_setup(spec)
        assert setup.active.tolist() == [0]
        assert ascending_d(setup)[0] ** 2 == pytest.approx(2.0, rel=1e-15)
        assert setup.delta_min == pytest.approx(1.5, rel=1e-15)
        deltas = [1.5, 1.6, 1.75, 1.9, 2.0]
        points = rdf_curve(spec, deltas).points
        assert [p.feasible for p in points] == [False, True, True, True, True]
        for delta, point in zip(deltas[1:], points[1:]):
            assert point.rate == pytest.approx(0.5 * math.log(0.5 / (delta - 1.5)), rel=1e-12,
                                               abs=1e-15)
            assert point.active_count == (delta < 2.0)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 8, 33, 64]), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_reference_reduction(self, n, seed):
        # The Cholesky route and the square-root route of
        # `reference_reduction` reach the same spectrum up to rounding.
        assert_matches_reference(generated_spec(np.random.default_rng(seed), n, max(1, n // 4)))

    @pytest.mark.parametrize(
        "make",
        [
            isotropic_spec,
            diag_block_spec,
            lambda: wyner_spec(1.0),
            # Right singular vectors (1, 1)/sqrt2 and (1, -1)/sqrt2, whose
            # entries tie in magnitude.
            lambda: blocks_spec(np.eye(2), [[0.5, 0.25], [0.25, 0.5]]),
        ],
        ids=["isotropic", "diag-block", "wyner", "tied-lead"],
    )
    def test_bitwise_equal_to_reference_on_fixed_specs(self, make):
        assert_matches_reference(make())

    def test_singular_vectors_only_when_a_covariance_is_built(self, monkeypatch):
        # The spec's analysed instance takes F's singular values once; the
        # full SVD waits for the first covariance, the channel shares it, and
        # a curve never asks for it.  A channel pipeline factors Q_{S|Y} once
        # and takes the spectrum of Q_{X|Y} (for its tolerance) once; matrices
        # within rounding of them count too, so Sigma + M counts as Q_{X|Y}.
        # The channel of a solution takes no eigendecomposition at all, and
        # the channel of a Sigma decomposes only k x k matrices besides that
        # spectrum (k = 2 < n_x on the rectangular spec).
        calls, svd = [], np.linalg.svd
        factored, spectra, decomposed = [], [], []
        cholesky, eigvalsh, eigh = np.linalg.cholesky, np.linalg.eigvalsh, np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(a, *args, **kwargs)

        def counted_cholesky(a, *args, **kwargs):
            factored.append(np.array(a))
            return cholesky(a, *args, **kwargs)

        def counted_eigvalsh(a, *args, **kwargs):
            spectra.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        def counted_eigh(a, *args, **kwargs):
            decomposed.append(np.array(a))
            return eigh(a, *args, **kwargs)

        def times_taken(matrices, m):
            return sum(a.shape == m.shape and np.linalg.norm(a - m) <= 1e-12 * np.linalg.norm(m)
                       for a in matrices)

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        for spec in (generated_spec(np.random.default_rng(3), 8, 2),
                     rectangular_spec(np.random.default_rng(3), 8, 2, 2)):
            calls.clear()
            factored.clear()
            spectra.clear()
            decomposed.clear()
            stats = spec.stats
            rdf_curve(spec, [stats.trace_xy])
            assert calls == [False] and "u" not in vars(stats)
            delta = 0.5 * (stats.delta_min + stats.trace_xy)
            sol = solve_waterfill(spec, stats, delta)
            ch = optimal_channel(spec, sol)
            rate_of_channel(spec, ch)
            assert times_taken(factored, stats.q_s_given_y) == 1
            assert spectra == [] and decomposed == []
            ch = build_channel(spec, stats, sol.sigma_delta)
            rate_of_channel(spec, ch)
            solve_waterfill(spec, stats, delta)
            rdf_curve(spec, [delta])
            assert calls == [False, True]
            assert times_taken(factored, stats.q_s_given_y) == 1
            assert times_taken(spectra, stats.q_x_given_y) == 1
            k = stats.active.size
            assert [a.shape for a in decomposed] == [(k, k)]
            assert sorted(a.shape for a in spectra) == sorted([(k, k), (spec.n_x, spec.n_x)])

    @pytest.mark.parametrize("low", [0.0, -1e-12])
    def test_q_s_given_y_at_or_below_inv_tol_refused(self, low):
        # Q_{X,S|Y} = diag(0.5, 1e-7) stays invertible, so the Q_{S|Y} check
        # is the one that refuses.  A Q_{S|Y} eigenvalue of -1e-12 is within
        # validate_spec's PSD tolerance of the joint, but it has no Cholesky
        # factor.
        spec = blocks_spec(np.diag([1.0, low]), np.diag([0.5, 1e-7]))
        with pytest.raises(HypothesisViolatedError) as exc:
            make_setup(spec)
        assert exc.value.hypothesis == "Q_{S|Y} > 0"
        assert exc.value.value == low

    @pytest.mark.parametrize("low", [1e-12, INV_TOL])
    def test_q_s_given_y_below_inv_tol_is_solved(self, low):
        # Q_{S|Y} = diag(1, low) factors, so the instance is solved: B =
        # diag(0.25, 1e-14 / low) and delta_min = 2 - trace(B).
        setup = make_setup(blocks_spec(np.diag([1.0, low]), np.diag([0.5, 1e-7])))
        assert setup.delta_min == pytest.approx(1.75 - 1e-14 / low, rel=1e-12)
        assert setup.active.tolist() == [0, 1]

    def test_eigenvalue_under_psd_tolerance_is_kept(self):
        # Q_{S|Y} has eigenvalues 1e3 and 1e-8 (the joint's smallest is
        # 9.9e-9): the small one is under psd_tolerance(1e3) = 1e-6, and a
        # clamped square root would drop the component S observes through
        # it, putting delta_min at 1.999.  A 50-digit evaluation of B's
        # eigenvalues (0.001 and 0.0100000013) gives 1.98899999867516.
        mpmath = pytest.importorskip("mpmath")
        c, s = math.cos(0.3), math.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        spec = blocks_spec((rot * [1e3, 1e-8]) @ rot.T, np.diag([1.0, 1e-5]) @ rot.T)
        eigvals = np.linalg.eigvalsh(conditional_stats(spec).q_s_given_y)
        assert INV_TOL < eigvals[0] < psd_tolerance(float(eigvals[-1]))
        with mpmath.workdps(50):
            q = mpmath.matrix(spec.q.tolist())
            q_s = q[2:4, 2:4] - q[2:4, 4] * q[4, 2:4] / q[4, 4]
            cross = q[0:2, 2:4] - q[0:2, 4] * q[4, 2:4] / q[4, 4]
            q_x = q[0:2, 0:2] - q[0:2, 4] * q[4, 0:2] / q[4, 4]
            b = cross * mpmath.inverse(q_s) * cross.T
            exact = float(q_x[0, 0] + q_x[1, 1] - b[0, 0] - b[1, 1])
            c_max = max(mpmath.eigsy(b, eigvals_only=True))
            # At 1.995 only the 0.0100000013 component is active.
            rate = float(mpmath.log(c_max / (c_max - (q_x[0, 0] + q_x[1, 1] - 1.995))) / 2)
        assert exact == pytest.approx(1.98899999867516, abs=1e-14)
        setup = make_setup(spec)
        assert setup.active.tolist() == [0, 1]
        assert setup.delta_min == pytest.approx(exact, abs=1e-8)
        point = rdf_curve(spec, [1.995]).points[0]
        assert point.feasible and point.active_count == 1
        # dR/dc_max = 0.5 (1/c_max - 1/(c_max - target)) is about -50 here,
        # so the 1e-8 allowed on delta_min allows 5e-7 on the rate.
        assert point.rate == pytest.approx(rate, abs=5e-7)


class TestDistortionRange:
    def test_scalar_example(self, scalar_spec):
        lo, hi = distortion_range(scalar_spec, make_setup(scalar_spec))
        assert lo == pytest.approx(0.25, abs=1e-12)
        assert hi == pytest.approx(0.5, abs=1e-12)

    def test_equal_source_measurement(self):
        spec = wyner_spec(1.0)
        lo, hi = distortion_range(spec, make_setup(spec))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_diag_block_example(self):
        spec = diag_block_spec()
        lo, hi = distortion_range(spec, make_setup(spec))
        assert hi == pytest.approx(1.0)
        assert lo == pytest.approx(1.0 - (0.25 + 0.0625), abs=1e-12)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 8, 33, 64]), seed=st.integers(0, 2**32 - 1))
    def test_lower_boundary_is_remote_noise_floor(self, n, seed):
        # The hypotheses Q_{X,S|Y} invertible and Q_{S|Y} > 0 imply
        # Q_{X|Y} > Q_{X|S,Y} through Q_{X|Y} - Q_{X|S,Y} = C Q_{S|Y}^{-1} C^T,
        # C = Q_{X,S|Y}, which is why `spectral_setup` does not test it; and
        # delta_min equals trace(Q_{X|S,Y}).
        spec = generated_spec(np.random.default_rng(seed), n, max(1, n // 4))
        stats = conditional_stats(spec)
        floor = q_x_given_sy(spec)
        cross = stats.q_xs_given_y
        gap = cross @ np.linalg.solve(stats.q_s_given_y, cross.T)
        err = np.linalg.norm(stats.q_x_given_y - floor - gap, "fro")
        assert err <= 1e-10 * np.linalg.norm(gap, "fro")
        lo, _ = distortion_range(spec, make_setup(spec))
        assert lo == pytest.approx(float(np.trace(floor)), abs=1e-9)


class TestSolveWaterfill:
    def test_scalar_example(self, scalar_spec):
        setup = make_setup(scalar_spec)
        sol = solve_waterfill(scalar_spec, setup, 0.375)
        # The water-mass tolerance is 1e-10 * trace(Q_{X|Y}) = 5e-11.
        assert sol.lam == pytest.approx([0.125], abs=1e-10)
        assert sol.lam[0] * ascending_d(setup)[0] ** 2 == pytest.approx(0.5, abs=1e-9)
        assert sol.rate == pytest.approx(0.5 * math.log(2.0), abs=1e-9)
        assert sol.xi == pytest.approx(4.0, rel=1e-8)
        assert sol.sigma_delta[0, 0] == pytest.approx(0.375, abs=1e-10)
        assert not sol.above_range

    def test_upper_boundary_zero_rate(self, scalar_spec):
        setup = make_setup(scalar_spec)
        _, hi = distortion_range(scalar_spec, setup)
        sol = solve_waterfill(scalar_spec, setup, hi)
        assert sol.rate == 0.0
        assert np.all(sol.lam == 0.0)
        assert sol.active_count == 0

    @pytest.mark.parametrize("dims", [(1, 1, 1), (3, 2, 1)])
    def test_empty_reduction_solves_delta_plus_only(self, dims):
        # S independent of X given Y: F = 0, no component is active and
        # delta_min = delta_plus = n_x.  Only delta >= n_x is reachable, at
        # zero rate, by the channel that transmits nothing.
        spec = validate_spec(np.eye(sum(dims)), dims)
        setup = make_setup(spec)
        n_x = float(dims[0])
        assert setup.active.size == 0 and np.all(ascending_d(setup) == math.inf)
        assert distortion_range(spec, setup) == (n_x, n_x)
        points = rdf_curve(spec, [n_x - 0.5, n_x, n_x + 0.5]).points
        assert points == [CurvePoint(n_x - 0.5, None, None, None, False, "below_range"),
                          CurvePoint(n_x, 0.0, 0.0, 0, True, ""),
                          CurvePoint(n_x + 0.5, 0.0, 0.0, 0, True, "")]
        with pytest.raises(BelowRangeError):
            solve_waterfill(spec, setup, n_x - 0.5)
        for delta in (n_x, n_x + 0.5):
            sol = solve_waterfill(spec, setup, delta)
            assert (sol.rate, sol.active_count, sol.above_range) == (0.0, 0, delta > n_x)
            assert np.array_equal(sol.sigma_delta, np.eye(dims[0]))
            ch = build_channel(spec, setup, sol.sigma_delta)
            assert not np.any(ch.h) and not np.any(ch.q_w)

    def test_wyner_quarter(self):
        spec = wyner_spec(1.0)
        sol = solve_waterfill(spec, make_setup(spec), 0.25)
        assert sol.rate == pytest.approx(0.5 * math.log(4.0), abs=1e-9)

    def test_below_range_signaled(self, scalar_spec):
        setup = make_setup(scalar_spec)
        lo, _ = distortion_range(scalar_spec, setup)
        with pytest.raises(BelowRangeError):
            solve_waterfill(scalar_spec, setup, lo)
        with pytest.raises(BelowRangeError):
            solve_waterfill(scalar_spec, setup, lo - 0.1)

    def test_above_range_flagged_not_raised(self, scalar_spec):
        setup = make_setup(scalar_spec)
        sol = solve_waterfill(scalar_spec, setup, 0.7)
        assert sol.above_range
        assert sol.rate == 0.0
        stats = conditional_stats(scalar_spec)
        assert sol.sigma_delta == pytest.approx(stats.q_x_given_y)

    def test_two_component_activation(self):
        spec = diag_block_spec()
        setup = make_setup(spec)
        # Deep water: both components active.
        sol = solve_waterfill(spec, setup, 0.8)
        assert sol.active_count == 2
        assert sol.xi == pytest.approx(1.0 / 0.1125, rel=1e-8)
        assert sol.rate == pytest.approx(
            0.5 * (math.log(2 * sol.xi / 4.0) + math.log(2 * sol.xi / 16.0)), abs=1e-12
        )
        # Shallow water: only the small-d component is active.
        sol = solve_waterfill(spec, setup, 0.9)
        assert sol.active_count == 1
        assert sol.lam[1] == 0.0

    def test_water_mass_and_activation_consistency(self, make_spec):
        rng = np.random.default_rng(10)
        for n, n_y in [(1, 1), (2, 1), (3, 2)]:
            spec = make_spec(rng, n, n_y)
            setup = make_setup(spec)
            lo, hi = distortion_range(spec, setup)
            for frac in (0.1, 0.5, 0.9):
                delta = lo + frac * (hi - lo) if lo > 0 else frac * hi
                sol = solve_waterfill(spec, setup, delta)
                trace_xy = float(np.trace(conditional_stats(spec).q_x_given_y))
                assert sol.water_error <= 1e-10 * trace_xy
                d = ascending_d(setup)
                for i, lam in enumerate(sol.lam):
                    active = sol.xi > d[i] ** 2 / 2.0
                    assert (lam > 0) == active
                assert np.min(np.linalg.eigvalsh(sol.sigma_delta)) > -1e-9
                assert float(np.trace(sol.sigma_delta)) == pytest.approx(delta, rel=1e-9)
                assert np.all(sol.lam * d**2 <= 1.0 + 1e-12)

    def test_matches_brute_force_scalar(self, make_spec):
        rng = np.random.default_rng(40)
        for _ in range(5):
            spec = make_spec(rng, 1, 1)
            setup = make_setup(spec)
            lo, hi = distortion_range(spec, setup)
            delta = lo + 0.5 * (hi - lo)
            wf = solve_waterfill(spec, setup, delta)
            oracle = brute_force_rdf(spec, delta)
            assert oracle.rate >= wf.rate - 1e-9
            assert abs(oracle.rate - wf.rate) < 1e-4

    def test_matches_brute_force_2x2(self, make_spec):
        rng = np.random.default_rng(41)
        for _ in range(3):
            spec = make_spec(rng, 2, 1, min_margin=5e-3)
            setup = make_setup(spec)
            lo, hi = distortion_range(spec, setup)
            delta = lo + 0.5 * (hi - lo)
            wf = solve_waterfill(spec, setup, delta)
            oracle = brute_force_rdf(spec, delta, OracleResolution(400, 720))
            assert oracle.rate >= wf.rate - 1e-9
            assert abs(oracle.rate - wf.rate) < 1e-4

    def test_diag_example_vs_oracle_default_resolution(self):
        spec = diag_block_spec()
        setup = make_setup(spec)
        lo, hi = distortion_range(spec, setup)
        delta = 0.5 * (lo + hi)
        wf = solve_waterfill(spec, setup, delta)
        oracle = brute_force_rdf(spec, delta)
        assert abs(oracle.rate - wf.rate) < 1e-3

    def test_deterministic(self, scalar_spec):
        setup = make_setup(scalar_spec)
        a = solve_waterfill(scalar_spec, setup, 0.3)
        b = solve_waterfill(scalar_spec, setup, 0.3)
        assert a.xi == b.xi and a.rate == b.rate
        assert np.array_equal(a.lam, b.lam)
        assert np.array_equal(a.sigma_delta, b.sigma_delta)


class TestRdfCurve:
    def test_scalar_sweep_monotone_to_zero(self, scalar_spec):
        curve = rdf_curve(scalar_spec, [0.3, 0.375, 0.45, 0.5])
        rates = [p.rate for p in curve.points]
        assert all(r2 < r1 for r1, r2 in zip(rates, rates[1:]))
        assert rates[-1] == 0.0

    def test_grid_with_upper_boundary_ends_at_zero(self, scalar_spec):
        curve = rdf_curve(scalar_spec, [0.4, 0.5])
        assert curve.points[-1].rate == 0.0

    def test_near_lower_boundary_blowup(self, scalar_spec):
        curve = rdf_curve(scalar_spec, [0.25 + 1e-6])
        assert curve.points[0].rate > 5.0

    def test_below_range_annotated_and_sweep_continues(self, scalar_spec):
        curve = rdf_curve(scalar_spec, [0.2, 0.375, 0.5])
        first = curve.points[0]
        assert not first.feasible and first.error == "below_range"
        assert first.rate is None
        assert curve.points[1].feasible and curve.points[2].feasible

    def test_convexity_second_differences(self, make_spec):
        rng = np.random.default_rng(13)
        for n, n_y in [(1, 1), (2, 2), (3, 1)]:
            spec = make_spec(rng, n, n_y)
            setup = make_setup(spec)
            lo, hi = distortion_range(spec, setup)
            grid = np.linspace(lo + 0.05 * (hi - lo), hi, 30)
            rates = [p.rate for p in rdf_curve(spec, grid).points]
            assert all(r2 <= r1 + 1e-12 for r1, r2 in zip(rates, rates[1:]))
            second = np.diff(rates, 2)
            assert np.min(second) >= -1e-8

    def test_point_contract(self, scalar_spec):
        # Six named fields in this order, read by name, immutable, with a
        # keyword repr; as a named tuple a point equals the tuple of its fields.
        below, point = rdf_curve(scalar_spec, [0.2, 0.375]).points
        assert CurvePoint._fields == ("delta", "rate", "xi", "active_count", "feasible", "error")
        assert isinstance(point, CurvePoint)
        assert (point.delta, point.active_count, point.feasible, point.error) == (
            0.375, 1, True, "")
        assert type(point.rate) is float and type(point.xi) is float
        assert type(point.active_count) is int
        assert point == (0.375, point.rate, point.xi, 1, True, "")
        assert below == (0.2, None, None, None, False, "below_range")
        with pytest.raises(AttributeError):
            point.rate = 0.0
        assert repr(below) == (
            "CurvePoint(delta=0.2, rate=None, xi=None, active_count=None, "
            "feasible=False, error='below_range')"
        )
        assert repr(point) == (
            f"CurvePoint(delta=0.375, rate={point.rate!r}, xi={point.xi!r}, "
            "active_count=1, feasible=True, error='')"
        )

    def test_input_validation(self, scalar_spec):
        with pytest.raises(ValueError):
            rdf_curve(scalar_spec, [])
        with pytest.raises(ValueError):
            rdf_curve(scalar_spec, [0.5, 0.3])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 8, 33, 64]),
        seed=st.integers(0, 2**32 - 1),
        finite=st.lists(
            st.one_of(st.floats(-0.5, 1.5), st.sampled_from(["lo", "hi"])),
            min_size=1,
            max_size=30,
        ),
        non_finite=st.lists(
            st.tuples(st.integers(0, 30), st.sampled_from([math.nan, math.inf, -math.inf])),
            max_size=4,
        ),
    )
    def test_points_bitwise_equal_to_individual_solves(self, n, seed, finite, non_finite):
        # Sweep results carry no cross-point state: each point matches an
        # independent solve bit for bit, whatever the points around it.
        spec = generated_spec(np.random.default_rng(seed), n, max(1, n // 4))
        setup = make_setup(spec)
        lo, hi = distortion_range(spec, setup)
        named = {"lo": lo, "hi": hi}
        grid = sorted(named[f] if isinstance(f, str) else lo + f * (hi - lo) for f in finite)
        for at, value in non_finite:
            grid.insert(at, value)
        curve = rdf_curve(spec, grid)
        assert len(curve.points) == len(grid)
        for delta, point in zip(grid, curve.points):
            assert point.delta == delta or math.isnan(point.delta)
            if not math.isfinite(delta):
                assert (point.feasible, point.error) == (False, "non_finite")
                continue
            if delta <= lo:
                assert (point.feasible, point.error) == (False, "below_range")
                continue
            sol = solve_waterfill(spec, setup, delta)
            assert point.rate == sol.rate
            assert point.xi == sol.xi
            assert point.active_count == sol.active_count
            if delta <= hi:
                assert np.sum(sol.lam) <= setup.trace_xy - delta

    def test_blocks_do_not_change_the_curve(self, monkeypatch):
        # Blocks of 1 to 3 points over four active components, from below
        # delta_min to above delta_plus: the curve must be the one-block
        # curve exactly, so no block may drop or repeat a point.
        spec = generated_spec(np.random.default_rng(7), 4, 1)
        stats = spec.stats
        assert stats.active.size == 4
        grid = np.linspace(0.9 * stats.delta_min, 1.1 * stats.trace_xy, 41)
        whole = rdf_curve(spec, grid)
        for block in (1, 5, 9, 13):
            monkeypatch.setattr(remoterdf.waterfill, "CURVE_BLOCK", block)
            assert rdf_curve(spec, grid) == whole

    def test_memory_is_bounded_for_long_grids(self):
        # The grid is solved in blocks, so the working arrays do not grow
        # with the number of points (unblocked, this curve peaks near 33 MB).
        spec = generated_spec(np.random.default_rng(15), 64, 16)
        setup = make_setup(spec)
        grid = np.linspace(setup.delta_min, 1.01 * setup.trace_xy, 20_000)
        tracemalloc.start()
        try:
            curve = rdf_curve(spec, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(p.feasible for p in curve.points) == grid.size - 1
        assert peak < 8 * 2**20


class TestExactWaterLevel:
    def test_allocation_never_exceeds_target(self, make_spec):
        # The invariant that keeps a grid-search oracle from beating the rate:
        # the allocations sum to at most trace(Q_{X|Y}) - delta, exactly.
        rng = np.random.default_rng(16)
        for n, n_y in [(1, 1), (2, 1), (3, 2), (5, 2), (8, 3), (12, 4)]:
            spec = make_spec(rng, n, n_y)
            setup = make_setup(spec)
            lo, hi = distortion_range(spec, setup)
            trace_xy = float(np.trace(conditional_stats(spec).q_x_given_y))
            grid = list(lo + rng.random(40) * (hi - lo))
            grid += ulps_from(lo, 4, hi) + ulps_from(hi, 4, lo) + [hi]
            for delta in grid:
                sol = solve_waterfill(spec, setup, delta)
                assert np.sum(sol.lam) <= trace_xy - delta

    def test_finite_rate_within_ulps_of_both_boundaries(self, make_spec):
        rng = np.random.default_rng(17)
        for n, n_y in [(1, 1), (2, 2), (4, 1), (8, 2), (16, 4)]:
            spec = make_spec(rng, n, n_y)
            setup = make_setup(spec)
            lo, hi = distortion_range(spec, setup)
            near = ulps_from(lo, 6, hi) + ulps_from(hi, 6, lo) + [hi]
            near += ulps_from(hi, 3, 2.0 * hi)
            for delta in near:
                sol = solve_waterfill(spec, setup, delta)
                assert math.isfinite(sol.rate) and sol.rate >= 0.0
                assert math.isfinite(sol.xi) and sol.xi > 0.0
            # Just above delta_min the rate is large but finite.
            assert solve_waterfill(spec, setup, near[0]).rate > 5.0

    @pytest.mark.parametrize("eps", [0.0, 1e-3, 1e-6])
    def test_finite_rate_when_lower_boundary_is_tiny(self, eps):
        # With X = S + noise of variance eps, delta_min is about eps; just
        # above it trace(Q_{X|Y}) - delta rounds to the full capacity
        # sum(1/d_i^2), and the level must still be finite.
        q = np.array([[1.0 + eps, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]])
        spec = validate_spec(q, (1, 1, 1))
        setup = make_setup(spec)
        lo, hi = distortion_range(spec, setup)
        trace_xy = float(np.trace(conditional_stats(spec).q_x_given_y))
        for delta in ulps_from(max(lo, 0.0), 8, hi):
            sol = solve_waterfill(spec, setup, delta)
            assert math.isfinite(sol.rate) and sol.rate > 10.0
            assert np.sum(sol.lam) <= trace_xy - delta

    @pytest.mark.parametrize("delta", [1e-6, 1e-12, 1e-20, 1e-300])
    def test_rate_keeps_the_digits_of_a_tiny_distortion(self, delta):
        # X = S with Q_{X|Y} = 1: delta_min = 0 and R = 0.5 ln(1/delta), while
        # trace(Q_{X|Y}) - delta rounds to 1 for the three smallest deltas.
        spec = wyner_spec(1.0)
        sol = solve_waterfill(spec, make_setup(spec), delta)
        assert sol.rate == pytest.approx(-0.5 * math.log(delta), rel=1e-12, abs=0.0)
        assert np.sum(sol.lam) <= 1.0 - delta

    @pytest.mark.parametrize("delta", [5e-324, 1e-310])
    def test_finite_rate_at_subnormal_distortion(self, delta):
        # d^2 = 0.1 here, so a level of 1/(2 * smallest normal) would put
        # 2 xi / d^2 past the largest float.
        spec = wyner_spec(10.0)
        sol = solve_waterfill(spec, make_setup(spec), delta)
        assert math.isfinite(sol.rate) and sol.rate > 350.0
        assert np.sum(sol.lam) <= 10.0 - delta

    def test_level_satisfies_the_water_filling_conditions(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            d_sq = np.sort(rng.uniform(0.05, 20.0, size=int(rng.integers(1, 30))))
            target = float(rng.uniform(0.0, 0.999) * np.sum(1.0 / d_sq))
            xi, lam, _, _ = _water_levels(d_sq, target, np.array([0.0]))
            xi, lam = float(xi[0]), lam[0]
            assert np.sum(lam) <= target
            assert np.sum(lam) == pytest.approx(target, rel=1e-12, abs=1e-15)
            on = lam > 0.0
            # Active components are those below the level; each sits on it.
            assert np.array_equal(on, d_sq < 2.0 * xi)
            assert 1.0 / d_sq[on] - lam[on] == pytest.approx(1.0 / (2.0 * xi), rel=1e-12)

    def test_repeated_singular_values(self):
        d_sq = np.array([1.0, 1.0, 4.0, 4.0])
        _, lam, _, _ = _water_levels(d_sq, 0.0, np.array([0.0]))
        assert np.all(lam[0] == 0.0)
        xi, lam, _, _ = _water_levels(d_sq, 1.0, np.array([0.0]))
        assert lam[0] == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-15)
        assert xi[0] == pytest.approx(1.0, rel=1e-15)

    def test_step_down_is_bounded(self, monkeypatch):
        # Search the golden levels, instance by instance, for a distortion
        # whose closed-form level overshoots its target, so that finding it
        # takes the step-down loop, and for one on the same instance whose
        # level fits at once.  With no step-downs allowed the first must
        # raise instead of looping, and the second is unaffected.
        golden = Path(__file__).parent / "golden"
        instances = json.loads((golden / "rates.json").read_text(encoding="utf-8"))
        all_levels = json.loads((golden / "levels.json").read_text(encoding="utf-8"))
        monkeypatch.setattr(remoterdf.waterfill, "STEP_DOWN_LIMIT", 0)
        for instance, levels in zip(instances, all_levels, strict=True):
            spec = validate_spec(instance["covariance"], instance["dims"])
            setup = make_setup(spec)
            found = {}
            for delta, xi in zip(levels["deltas"], levels["xi"]):
                if setup.delta_min < delta <= setup.trace_xy:
                    try:
                        rdf_curve(spec, [delta])
                        found.setdefault("fits", (delta, xi))
                    except RuntimeError:
                        found.setdefault("steps", delta)
            if found.keys() == {"fits", "steps"}:
                break
        assert found.keys() == {"fits", "steps"}, "no golden level takes a step-down"
        with pytest.raises(RuntimeError, match="step-downs"):
            rdf_curve(spec, [found["steps"]])
        with pytest.raises(RuntimeError, match="step-downs"):
            solve_waterfill(spec, setup, found["steps"])
        fits, xi = found["fits"]
        assert rdf_curve(spec, [fits]).points[0].xi == xi

    def test_rate_near_upper_boundary_matches_high_precision(self):
        # Q_{S|Y} = I, Q_{X,S|Y} = diag(1e12, 1e11, 1e10) and Q_{X|S,Y} = I
        # give d_i^2 = 1e-24, 1e-22, 1e-20, so |log d_i^2| > 46.  Within 1e-6
        # of delta_plus the rate is below 1e-6; summing it as
        # k log(2 xi) - sum(log d_i^2) loses about 3e-8 of it, relative, to
        # cancellation, and summed per component it loses under 1e-9.
        mpmath = pytest.importorskip("mpmath")
        cross = np.array([1e12, 1e11, 1e10])
        q = np.zeros((7, 7))
        q[:3, :3] = np.diag(cross**2 + 1.0)
        q[:3, 3:6] = q[3:6, :3] = np.diag(cross)
        q[3:6, 3:6] = np.eye(3)
        q[6, 6] = 1.0
        spec = validate_spec(q, (3, 3, 1))
        setup = make_setup(spec)
        lo, hi = distortion_range(spec, setup)
        with mpmath.workdps(50):
            inv = [1 / mpmath.mpf(float(x)) for x in setup.d_sq]
            for j in range(1, 11):
                delta = hi - j * 1e-7 * (hi - lo)
                target = mpmath.mpf(setup.trace_xy) - mpmath.mpf(delta)
                # Exact level: the first k whose 1/(2 xi) lies in [c_{k+1}, c_k].
                k = next(
                    k for k in range(1, len(inv) + 1)
                    if k == len(inv) or (sum(inv[:k]) - target) / k >= inv[k]
                )
                half_inv_xi = (sum(inv[:k]) - target) / k
                exact = sum(mpmath.log(c / half_inv_xi) for c in inv[:k]) / 2
                rate = solve_waterfill(spec, setup, delta).rate
                assert abs(rate - exact) <= 3e-9 * exact


class TestNonFiniteDistortion:
    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_solve_refuses(self, scalar_spec, delta):
        with pytest.raises(ValueError, match="distortion must be finite"):
            solve_waterfill(scalar_spec, make_setup(scalar_spec), delta)

    def test_curve_tags_point_and_continues(self, scalar_spec):
        curve = rdf_curve(scalar_spec, [0.3, math.nan, 0.4, math.inf])
        assert [p.error for p in curve.points] == ["", "non_finite", "", "non_finite"]
        assert [p.feasible for p in curve.points] == [True, False, True, False]
        assert curve.points[1].rate is None and curve.points[1].xi is None
        assert curve.points[2].rate == solve_waterfill(
            scalar_spec, make_setup(scalar_spec), 0.4
        ).rate

    def test_curve_order_check_sees_past_non_finite_points(self, scalar_spec):
        with pytest.raises(ValueError, match="ascending"):
            rdf_curve(scalar_spec, [0.4, math.nan, 0.3])
