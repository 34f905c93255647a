import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remoterdf.channel import (
    _CHUNK_ROWS,
    STRUCT_TOL,
    build_channel,
    distortion_covariance,
    joint_with_reproduction,
    rate_of_channel,
    simulate_channel,
    verify_structure,
)
from remoterdf.core import conditional_stats, validate_spec
from remoterdf.errors import (
    DimensionUnsupportedError,
    InfeasibleSigmaError,
    NegativeNoiseError,
    SingularCrossError,
)
from remoterdf.oracle import wyner_scalar_rdf
from remoterdf.waterfill import distortion_range, solve_waterfill, spectral_setup

from conftest import generated_spec, random_feasible_spec, simulate_whole_array, wyner_spec


def channel_at(spec, delta_or_sigma):
    stats = conditional_stats(spec)
    sigma = np.atleast_2d(delta_or_sigma)
    return build_channel(spec, stats, sigma)


def waterfill_channel(spec, frac, rng=None):
    stats = conditional_stats(spec)
    setup = spectral_setup(spec, stats)
    lo, hi = distortion_range(spec, setup)
    delta = lo + frac * (hi - lo)
    sol = solve_waterfill(spec, setup, delta)
    return build_channel(spec, stats, sol.sigma_delta), sol


class TestBuildChannel:
    def test_scalar_example_values(self, scalar_spec):
        ch = channel_at(scalar_spec, 0.375)
        assert ch.h[0, 0] == pytest.approx(0.25, abs=1e-14)
        assert ch.g[0, 0] == pytest.approx(0.375, abs=1e-14)
        assert ch.q_w[0, 0] == pytest.approx(0.0625, abs=1e-14)
        assert ch.q_xhat_given_y[0, 0] == pytest.approx(0.125, abs=1e-14)
        assert ch.q_s_given_xhat_y[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_full_distortion_boundary_zero_rate_channel(self, scalar_spec):
        stats = conditional_stats(scalar_spec)
        ch = channel_at(scalar_spec, stats.q_x_given_y)
        assert ch.h[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert ch.q_w[0, 0] == pytest.approx(0.0, abs=1e-14)
        # The reproduction collapses to the side-information predictor E(X|Y).
        gain_x = np.linalg.solve(scalar_spec.q_y, scalar_spec.q_xy.T).T
        assert ch.g == pytest.approx(gain_x, abs=1e-14)

    @pytest.mark.parametrize("q,delta", [(1.0, 0.5), (2.0, 0.4), (0.5, 0.5)])
    def test_equal_source_measurement_recovers_wyner_channel(self, q, delta):
        spec = wyner_spec(q)
        ch = channel_at(spec, delta)
        assert ch.h[0, 0] == pytest.approx((q - delta) / q, rel=1e-12)
        assert ch.q_w[0, 0] == pytest.approx((q - delta) / q * delta, rel=1e-12)

    def test_channel_identities_on_random_specs(self, make_spec):
        rng = np.random.default_rng(50)
        for n, n_y in [(1, 1), (2, 2), (3, 1)]:
            spec = make_spec(rng, n, n_y)
            ch, sol = waterfill_channel(spec, 0.5)
            stats = conditional_stats(spec)
            m = stats.q_x_given_y - sol.sigma_delta
            # H Q_{X,S|Y}^T equals Q_{X|Y} - Sigma and is symmetric PSD.
            lhs = ch.h @ stats.q_xs_given_y.T
            assert np.linalg.norm(lhs - m, "fro") < 1e-10
            assert np.linalg.norm(lhs - lhs.T, "fro") < 1e-10
            assert np.min(np.linalg.eigvalsh(0.5 * (lhs + lhs.T))) > -1e-9
            # Q_{X_hat|Y} = H Q_{S|Y} H^T + Q_W.
            recon = ch.h @ stats.q_s_given_y @ ch.h.T + ch.q_w
            assert np.linalg.norm(recon - ch.q_xhat_given_y, "fro") < 1e-10

    def test_infeasible_sigma_rejected(self, scalar_spec):
        with pytest.raises(InfeasibleSigmaError):
            channel_at(scalar_spec, -0.1)
        with pytest.raises(InfeasibleSigmaError):
            channel_at(scalar_spec, 0.6)  # exceeds Q_{X|Y} = 0.5
        rng = np.random.default_rng(51)
        spec2 = random_feasible_spec(rng, 2, 1)
        with pytest.raises(InfeasibleSigmaError):
            build_channel(spec2, conditional_stats(spec2), np.array([[0.1, 0.05], [0.0, 0.1]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, scalar_spec, bad):
        with pytest.raises(InfeasibleSigmaError, match="non-finite"):
            channel_at(scalar_spec, bad)
        spec2 = generated_spec(np.random.default_rng(55), 2, 1)
        sigma = np.diag([0.1, 0.1])
        sigma[1, 0] = sigma[0, 1] = bad
        with pytest.raises(InfeasibleSigmaError, match="non-finite"):
            build_channel(spec2, conditional_stats(spec2), sigma)

    def test_negative_noise_rejected(self, scalar_spec):
        # Sigma below the remote-sensing floor Q_{X|S,Y} = 0.25.
        with pytest.raises(NegativeNoiseError):
            channel_at(scalar_spec, 0.2)

    def test_singular_cross_rejected(self):
        spec = validate_spec(np.eye(3), (1, 1, 1))
        with pytest.raises(SingularCrossError):
            channel_at(spec, 0.5)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            a = rng.standard_normal((4, 6))
            try:
                spec = validate_spec(a @ a.T / 6, (2, 1, 1))
                break
            except Exception:
                continue
        with pytest.raises(DimensionUnsupportedError):
            build_channel(spec, conditional_stats(spec), np.eye(2) * 0.01)


class TestDecoderOnlyForm:
    """The decoder-only split X_hat = G Y + Z, Z = H S + W, read off the channel."""

    def test_same_matrices_regrouped(self, scalar_spec):
        ch = channel_at(scalar_spec, 0.375)
        assert ch.h[0, 0] == pytest.approx(0.25)
        assert ch.q_w[0, 0] == pytest.approx(0.0625)
        assert ch.g[0, 0] == pytest.approx(0.375)

    def test_zero_rate_channel_transmits_nothing(self, scalar_spec):
        stats = conditional_stats(scalar_spec)
        ch = channel_at(scalar_spec, stats.q_x_given_y)
        assert ch.h[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert ch.q_w[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_trivial_side_information_classical_shape(self):
        # X = S with Y independent: the decoder adds nothing, X_hat = Z.
        q = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        spec = validate_spec(q, (1, 1, 1))
        assert channel_at(spec, 0.5).g[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_split_reproduces_joint_second_moments(self, make_spec):
        rng = np.random.default_rng(53)
        spec = make_spec(rng, 2, 2)
        ch, _ = waterfill_channel(spec, 0.4)
        # Reassemble cov(X_hat, .) as G Y + (H S + W) and compare with the
        # joint form.
        joint = joint_with_reproduction(spec, ch)
        n = spec.n_total
        ss = slice(spec.n_x, spec.n_x + spec.n_s)
        sy = slice(spec.n_x + spec.n_s, n)
        cross = ch.h @ spec.q[ss, :] + ch.g @ spec.q[sy, :]
        assert np.linalg.norm(joint[n:, :n] - cross, "fro") < 1e-12


class TestVerifyStructure:
    def test_scalar_example_residuals_vanish(self, scalar_spec):
        report = verify_structure(scalar_spec, channel_at(scalar_spec, 0.375))
        assert set(report.residuals) == {
            "x_indep_y_given_xhat",
            "z_indep_xy_given_s",
            "cond_mean_identity",
            "posterior_cov_match",
            "reproduction_cov_match",
        }
        assert report.max_residual < 1e-12
        assert report.all_pass

    @pytest.mark.parametrize("gain", ["h", "g"])
    def test_perturbed_gain_detected(self, scalar_spec, gain):
        ch = channel_at(scalar_spec, 0.375)
        bad = dataclasses.replace(ch, **{gain: getattr(ch, gain) + 0.1})
        report = verify_structure(scalar_spec, bad)
        assert report.residuals["cond_mean_identity"] > 0.01
        assert not report.all_pass

    def test_zero_rate_channel_degenerate_properties_hold(self, scalar_spec):
        stats = conditional_stats(scalar_spec)
        report = verify_structure(scalar_spec, channel_at(scalar_spec, stats.q_x_given_y))
        assert report.max_residual < 1e-12

    def test_random_channels_within_tolerance(self, make_spec):
        rng = np.random.default_rng(54)
        for n, n_y in [(1, 2), (2, 1), (3, 2)]:
            spec = make_spec(rng, n, n_y)
            for frac in (0.2, 0.7):
                ch, _ = waterfill_channel(spec, frac)
                report = verify_structure(spec, ch)
                assert report.max_residual < 1e-8, report.residuals

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([2, 4, 8]),
        seed=st.integers(0, 2**32 - 1),
        frac=st.floats(1.05, 2.0),
    )
    def test_zero_rate_channels_pass(self, n, seed, frac):
        # Above delta_plus, Cov(X_hat|Y) is pure round-off; no residual may
        # depend on inverting it.
        spec = generated_spec(np.random.default_rng(seed), n, max(1, n // 4))
        ch, sol = waterfill_channel(spec, frac)
        assert sol.above_range
        report = verify_structure(spec, ch)
        assert report.all_pass, report.residuals
        assert all(value < STRUCT_TOL for value in report.residuals.values())

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(n=st.sampled_from([1, 2, 4, 8]), seed=st.integers(0, 2**32 - 1))
    def test_channels_pass_at_every_active_count(self, n, seed):
        # With c = 1/d^2 descending and C_k the sum of its first k entries,
        # k components are active for targets trace_xy - delta between the
        # breakpoint totals C_k - k c_k and C_{k+1} - (k+1) c_{k+1} (C_n for
        # k = n, the delta_min limit).  Solve just inside both ends of every
        # interval, and just above delta_plus for k = 0.
        spec = generated_spec(np.random.default_rng(seed), n, max(1, n // 4))
        stats = conditional_stats(spec)
        setup = spectral_setup(spec, stats)
        c = 1.0 / setup.d_sq
        cum = np.cumsum(c)
        totals = np.append(cum - np.arange(1, n + 1) * c, cum[-1])
        targets = [(1 - 1e-3) * a + 1e-3 * b for a, b in zip(totals[:-1], totals[1:])]
        targets += [1e-3 * a + (1 - 1e-3) * b for a, b in zip(totals[:-1], totals[1:])]
        deltas = [setup.trace_xy - t for t in targets] + [setup.trace_xy * (1 + 1e-9)]
        counts = set()
        for delta in deltas:
            sol = solve_waterfill(spec, setup, delta)
            report = verify_structure(spec, build_channel(spec, stats, sol.sigma_delta))
            assert report.all_pass, (sol.active_count, report.residuals)
            counts.add(sol.active_count)
        assert counts == set(range(n + 1))

    def test_weak_cross_covariance_is_solved(self):
        # Q_{X,S|Y} = c = 1e-6 is invertible and Q_{S|Y} = 1, so the paper's
        # hypotheses hold, although Q_{X|Y} - Q_{X|S,Y} = c^2 = 1e-12 is
        # under INV_TOL.  The rate at mid-range is 0.5 ln(c^2/(delta - 1 + c^2)).
        c = 1e-6
        spec = validate_spec(np.array([[1.0, c, 0.0], [c, 1.0, 0.0], [0.0, 0.0, 1.0]]), (1, 1, 1))
        ch, sol = waterfill_channel(spec, 0.5)
        expected = 0.5 * math.log(c * c / ((sol.delta - 1.0) + c * c))
        assert sol.rate == pytest.approx(expected, rel=1e-12)
        assert verify_structure(spec, ch).all_pass


class TestRateOfChannel:
    def test_scalar_example_both_formulas(self, scalar_spec):
        rates = rate_of_channel(scalar_spec, channel_at(scalar_spec, 0.375))
        assert rates.rate == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        assert rates.rate_alt == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        assert rates.discrepancy < 1e-12

    def test_zero_rate_channel(self, scalar_spec):
        stats = conditional_stats(scalar_spec)
        rates = rate_of_channel(scalar_spec, channel_at(scalar_spec, stats.q_x_given_y))
        assert rates.rate == 0.0
        assert rates.rate_alt == 0.0

    def test_wyner_oracle_agreement(self):
        q = 1.0
        spec = wyner_spec(q)
        rates = rate_of_channel(spec, channel_at(spec, q / 2))
        assert rates.rate == pytest.approx(wyner_scalar_rdf(q, q / 2).rate, abs=1e-12)
        assert rates.rate == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_formulas_agree_on_random_channels(self, make_spec):
        rng = np.random.default_rng(55)
        for n, n_y in [(1, 1), (2, 2), (3, 1)]:
            spec = make_spec(rng, n, n_y)
            for frac in (0.15, 0.5, 0.9):
                ch, _ = waterfill_channel(spec, frac)
                rates = rate_of_channel(spec, ch)
                assert rates.discrepancy < 1e-9


class TestDistortionCovariance:
    def test_matches_requested_sigma(self, make_spec):
        rng = np.random.default_rng(56)
        for n, n_y in [(1, 1), (2, 2), (3, 1)]:
            spec = make_spec(rng, n, n_y)
            ch, sol = waterfill_channel(spec, 0.35)
            achieved = distortion_covariance(spec, ch)
            assert np.linalg.norm(achieved - ch.sigma_delta, "fro") < 1e-9
            assert float(np.trace(achieved)) == pytest.approx(
                float(np.trace(ch.sigma_delta)), abs=1e-9
            )

    def test_waterfill_rate_matches_channel_rate(self, make_spec):
        rng = np.random.default_rng(57)
        for n, n_y in [(1, 1), (2, 1), (3, 2)]:
            spec = make_spec(rng, n, n_y)
            ch, sol = waterfill_channel(spec, 0.45)
            rates = rate_of_channel(spec, ch)
            assert abs(rates.rate - sol.rate) < 1e-8


class TestSimulateChannel:
    def test_scalar_example_concentrates(self, scalar_spec):
        ch = channel_at(scalar_spec, 0.375)
        sim = simulate_channel(scalar_spec, ch, n_samples=10**6, seed=7)
        assert abs(sim.empirical_distortion - 0.375) < 4 * sim.standard_error

    def test_zero_rate_channel_distortion(self, scalar_spec):
        stats = conditional_stats(scalar_spec)
        ch = channel_at(scalar_spec, stats.q_x_given_y)
        sim = simulate_channel(scalar_spec, ch, n_samples=200_000, seed=11)
        target = float(np.trace(stats.q_x_given_y))
        assert abs(sim.empirical_distortion - target) < 4 * sim.standard_error

    def test_single_sample_rejected(self, scalar_spec):
        ch = channel_at(scalar_spec, 0.375)
        with pytest.raises(ValueError):
            simulate_channel(scalar_spec, ch, n_samples=1, seed=0)

    def test_deterministic_for_fixed_seed(self, scalar_spec):
        ch = channel_at(scalar_spec, 0.375)
        a = simulate_channel(scalar_spec, ch, n_samples=10_000, seed=3)
        b = simulate_channel(scalar_spec, ch, n_samples=10_000, seed=3)
        assert a == b

    def test_degenerate_joint_sampled_cleanly(self):
        # X = S makes the joint covariance singular; the symmetric-root
        # factorization must still sample it.
        spec = wyner_spec(1.0)
        ch = channel_at(spec, 0.5)
        sim = simulate_channel(spec, ch, n_samples=200_000, seed=13)
        assert abs(sim.empirical_distortion - 0.5) < 4 * sim.standard_error

    @pytest.mark.parametrize(
        "n_samples", [2, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 5]
    )
    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("frac", [0.4, 1.2])
    def test_chunks_reproduce_whole_array_draws(self, n, n_samples, frac):
        # frac 1.2 puts the distortion above its upper end: H = 0 and Q_W = 0.
        spec = generated_spec(np.random.default_rng(40 + n), n, 2)
        ch, _ = waterfill_channel(spec, frac)
        if frac > 1:
            assert not ch.h.any() and not ch.q_w.any()
        self.assert_same_draws(spec, ch, n_samples, seed=n_samples)

    @pytest.mark.parametrize("n_samples", [2, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 5])
    def test_chunks_reproduce_whole_array_draws_singular_joint(self, n_samples):
        spec = wyner_spec(1.0)
        self.assert_same_draws(spec, channel_at(spec, 0.5), n_samples, seed=4)

    @staticmethod
    def assert_same_draws(spec, ch, n_samples, seed):
        sim = simulate_channel(spec, ch, n_samples=n_samples, seed=seed)
        mean, se = simulate_whole_array(spec, ch, n_samples, seed)
        assert sim.empirical_distortion == pytest.approx(mean, rel=1e-12, abs=0)
        assert sim.standard_error == pytest.approx(se, rel=1e-12, abs=0)

    def test_memory_is_bounded_for_large_sample_counts(self):
        # The samples are drawn and reduced in chunks, so the working arrays
        # do not grow with their number (drawn at once, this peaks near 328 MiB).
        spec = generated_spec(np.random.default_rng(48), 8, 2)
        ch, _ = waterfill_channel(spec, 0.4)
        tracemalloc.start()
        try:
            sim = simulate_channel(spec, ch, n_samples=10**6, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(sim.empirical_distortion - np.trace(ch.sigma_delta)) < 4 * sim.standard_error
        assert peak < 16 * 2**20
