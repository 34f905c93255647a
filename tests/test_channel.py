import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remoterdf.channel import (
    _CHUNK_ROWS,
    _error_factor,
    STRUCT_TOL,
    build_channel,
    joint_with_reproduction,
    optimal_channel,
    rate_of_channel,
    simulate_channel,
    verify_structure,
)
from remoterdf.core import conditional_stats, psd_tolerance, symmetric_sqrt, validate_spec
from remoterdf.errors import HypothesisViolatedError, InfeasibleSigmaError
from remoterdf.oracle import brute_force_rdf, wyner_scalar_rdf
from remoterdf.waterfill import distortion_range, solve_waterfill, spectral_setup

from conftest import (
    SCALAR_Q,
    conditional_covariance,
    distortion_covariance,
    gaussian_cmi,
    generated_spec,
    q_x_given_sy,
    random_feasible_spec,
    rectangular_spec,
    reverse_waterfill_rate,
    simulate_whole_array,
    singular_cross_spec,
    three_test_sigma_rule,
    wyner_spec,
)


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
        with pytest.raises(InfeasibleSigmaError, match="reconstruction noise covariance has eigenvalue"):
            channel_at(scalar_spec, 0.2)

    def test_singular_cross_solved(self):
        # S says nothing about X given Y: the only feasible Sigma is Q_{X|Y},
        # reached at zero rate by a channel that transmits nothing.
        spec = validate_spec(np.eye(3), (1, 1, 1))
        ch = channel_at(spec, 1.0)
        assert ch.h[0, 0] == 0.0 and ch.q_w[0, 0] == 0.0
        assert rate_of_channel(spec, ch).rate == 0.0
        assert verify_structure(spec, ch).all_pass
        with pytest.raises(InfeasibleSigmaError, match="outside the range"):
            channel_at(spec, 0.5)
        # Q_{X,S|Y} = diag(1, 0), Q_{S|Y} = 2 I, Q_{X|Y} = I: one component
        # with B's eigenvalue 1/2, so delta_min = 1.5 and the rate is
        # 0.5 ln(0.5 / (delta - 1.5)) on (1.5, 2).
        spec = singular_cross_spec([1.0, 0.0])
        for frac in (0.1, 0.5, 0.9):
            ch, sol = waterfill_channel(spec, frac)
            assert sol.delta == pytest.approx(1.5 + 0.5 * frac, rel=1e-15)
            expected = 0.5 * math.log(0.5 / (sol.delta - 1.5))
            rates = rate_of_channel(spec, ch)
            assert sol.rate == pytest.approx(expected, rel=1e-12)
            assert (rates.rate, rates.rate_alt) == pytest.approx((expected, expected), rel=1e-12)
            assert verify_structure(spec, ch).all_pass

    def test_dimension_mismatch_solved(self):
        # n_x = 2, n_s = 1: B = c c^T / q_s has one eigenvalue, |c|^2 / q_s,
        # so the rate is 0.5 ln(b / (delta - delta_min)).  The joint
        # covariance the channel induces gives the same I(S; X_hat | Y).
        rng = np.random.default_rng(52)
        for _ in range(50):
            a = rng.standard_normal((4, 6))
            try:
                spec = validate_spec(a @ a.T / 6, (2, 1, 1))
                break
            except Exception:
                continue
        stats = conditional_stats(spec)
        c = stats.q_xs_given_y[:, 0]
        b = float(c @ c) / float(stats.q_s_given_y[0, 0])
        lo, hi = distortion_range(spec, spectral_setup(spec, stats))
        assert lo == pytest.approx(hi - b, rel=1e-12)
        for frac in (0.1, 0.5, 0.9):
            ch, sol = waterfill_channel(spec, frac)
            expected = 0.5 * math.log(b / (sol.delta - lo))
            assert sol.rate == pytest.approx(expected, rel=1e-12)
            assert float(np.trace(ch.sigma_delta)) == pytest.approx(sol.delta, rel=1e-14)
            joint = joint_with_reproduction(spec, ch)
            prior = conditional_covariance(joint, [2], [3])
            posterior = conditional_covariance(joint, [2], [3, 4, 5])
            assert gaussian_cmi(prior, posterior) == pytest.approx(expected, rel=1e-9)
            assert rate_of_channel(spec, ch).rate == pytest.approx(expected, rel=1e-12)
            assert verify_structure(spec, ch).all_pass

    @pytest.mark.parametrize("c", [1.0, 1e-9])
    def test_asymmetric_sigma_refused_at_every_scale(self, c):
        # 0.3 max|Sigma| added to one off-diagonal entry leaves Sigma 37 %
        # asymmetric; the allowance is relative to ||Sigma||_F at any scale.
        spec = validate_spec(c * generated_spec(np.random.default_rng(55), 2, 1).q, (2, 2, 1))
        stats = conditional_stats(spec)
        setup = spectral_setup(spec, stats)
        lo, hi = distortion_range(spec, setup)
        sigma = solve_waterfill(spec, setup, 0.5 * (lo + hi)).sigma_delta.copy()
        sigma[0, 1] += 0.3 * np.max(np.abs(sigma))
        with pytest.raises(InfeasibleSigmaError, match="not symmetric"):
            build_channel(spec, stats, sigma)


def tiny_component_spec():
    """X = (X1, X2) with Var X1 = 1 and Var X2 = 1e-11, S = (X1 + N1, 100 X2 + N2)
    with Var N1 = 0.5 and Var N2 = 1e-8, and Y = X1 + N3 with Var N3 = 1.

    Q_{X|Y} = diag(0.5, 1e-11) has an eigenvalue under INV_TOL, while
    Q_{X,S|Y} = diag(0.5, 1e-9) and Q_{S|Y} = diag(1, 1.1e-7) pass it."""
    mix = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 100.0], [1.0, 0.0]])
    q = mix @ np.diag([1.0, 1e-11]) @ mix.T + np.diag([0.0, 0.0, 0.5, 1e-8, 1.0])
    return validate_spec(q, (2, 2, 1))


def generated_spec_3_1():
    """X of dimension 3 observed through one noisy measurement S = a^T X + N."""
    rng = np.random.default_rng(31)
    mix = np.vstack([np.eye(3), rng.uniform(0.5, 1.5, 3), rng.standard_normal(3) / 3])
    q = mix @ np.diag([1.0, 0.7, 0.4]) @ mix.T + np.diag([0.0, 0.0, 0.0, 0.3, 0.5])
    return validate_spec(q, (3, 1, 1))


def sigma_refused(check, *args) -> bool:
    try:
        check(*args)
    except InfeasibleSigmaError:
        return True
    return False


class TestRefusals:
    """Each refusal happens once: Q_W >= 0 and the range test decide Sigma,
    and only the grid oracle, which inverts Q_{X,S|Y}, tests it."""

    @staticmethod
    def assert_same_verdicts(spec, anchor, extra, rng):
        """`build_channel` and the three-test rule agree on the Sigma in `extra`
        and on anchor +- k tol v v^T, for v a random unit vector and the
        eigenvectors of Q_{X|Y} - anchor, k off the rounding tie at 1."""
        stats = conditional_stats(spec)
        tol = psd_tolerance(float(np.max(np.linalg.eigvalsh(stats.q_x_given_y))))
        _, vecs = np.linalg.eigh(stats.q_x_given_y - anchor)
        directions = [*vecs.T, rng.standard_normal(spec.n_x)]
        sigmas = list(extra)
        for v in directions:
            vvt = np.outer(v, v) / (v @ v)
            for k in (0.5, 0.9, 1.1, 2.0, 10.0, 1e3, 1e6):
                sigmas += [anchor + k * tol * vvt, anchor - k * tol * vvt]
        verdicts = [
            (sigma_refused(build_channel, spec, stats, sigma),
             sigma_refused(three_test_sigma_rule, stats, sigma))
            for sigma in sigmas
        ]
        assert all(new == old for new, old in verdicts), verdicts
        return verdicts

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 8]),
        scale=st.sampled_from([1.0, 1e-6, 1e6]),
        frac=st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_q_w_alone_refuses_as_the_three_test_rule(self, n, scale, frac, seed):
        # Anchors: the floor Q_{X|S,Y} (frac 0), the optimal Sigma inside the
        # range, and Q_{X|Y} (frac 1); plus Q_{X|Y}^{1/2} R Q_{X|Y}^{1/2}
        # with eig(R) in [-0.05, 1.05], on both sides of the feasible set.
        rng = np.random.default_rng(seed)
        n_y = max(1, n // 4)
        spec = validate_spec(scale * generated_spec(rng, n, n_y).q, (n, n, n_y))
        stats = conditional_stats(spec)
        if frac == 0.0:
            anchor = q_x_given_sy(spec)
        elif frac == 1.0:
            anchor = stats.q_x_given_y
        else:
            setup = spectral_setup(spec, stats)
            lo, hi = distortion_range(spec, setup)
            anchor = solve_waterfill(spec, setup, lo + frac * (hi - lo)).sigma_delta
        root = symmetric_sqrt(stats.q_x_given_y)
        randoms = []
        for _ in range(4):
            rot, _ = np.linalg.qr(rng.standard_normal((n, n)))
            r = (rot * rng.uniform(-0.05, 1.05, n)) @ rot.T
            randoms.append(root @ r @ root)
        self.assert_same_verdicts(spec, anchor, randoms, rng)

    @pytest.mark.parametrize("anchor", [0.0, 0.5, 1.0])
    def test_wyner_spec_same_verdicts(self, anchor):
        # X = S: Q_{X|S,Y} = 0, so the floor is Sigma = 0 and Q_{X|Y} = 1.
        verdicts = self.assert_same_verdicts(
            wyner_spec(1.0), np.array([[anchor]]), [], np.random.default_rng(7)
        )
        assert {new for new, _ in verdicts} == ({False} if anchor == 0.5 else {False, True})

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_tiny_source_component_is_solved(self, frac):
        spec = tiny_component_spec()
        c = np.array([0.25, 1e-18 / 1.1e-7])  # Q_{X,S|Y}^2 / Q_{S|Y}, per component
        stats = conditional_stats(spec)
        setup = spectral_setup(spec, stats)
        lo, hi = distortion_range(spec, setup)
        sol = solve_waterfill(spec, setup, lo + frac * (hi - lo))
        ch = build_channel(spec, stats, sol.sigma_delta)
        # Reverse water-filling over two components: level theta, rate
        # 0.5 sum(log(c_i / theta)) over the c_i above it.
        target = (1.0 - frac) * c.sum()
        theta = c[0] - target if target <= c[0] - c[1] else (c.sum() - target) / 2.0
        expected = 0.5 * float(np.sum(np.log(c[c > theta] / theta)))
        rates = rate_of_channel(spec, ch)
        assert rates.rate == pytest.approx(expected, rel=1e-12)
        assert rates.rate_alt == pytest.approx(expected, rel=1e-12)
        assert verify_structure(spec, ch).all_pass

    @pytest.mark.parametrize(
        "spec, delta_min, active",
        [(validate_spec(np.eye(3), (1, 1, 1)), 1.0, 0),
         (singular_cross_spec([1e-11]), 1.0 - 0.5e-22, 1),
         (singular_cross_spec([0.5, 0.0]), 1.875, 1)],
        ids=["identity", "1x1", "2x2"],
    )
    @pytest.mark.parametrize("stage", ["spectral_setup", "build_channel", "brute_force_rdf"])
    def test_one_gate_for_singular_cross(self, spec, delta_min, active, stage):
        # Only the grid oracle, whose parametrization inverts Q_{X,S|Y},
        # refuses a singular one.  The solver stages solve the instance:
        # B = diag(cross^2 / 2) here, and Sigma = Q_{X|Y} is its zero-rate
        # channel.
        stats = conditional_stats(spec)
        if stage == "brute_force_rdf":
            with pytest.raises(HypothesisViolatedError) as refusal:
                brute_force_rdf(spec, 0.5)
            assert refusal.value.hypothesis == "Q_{X,S|Y} must be invertible"
        elif stage == "spectral_setup":
            setup = spectral_setup(spec, stats)
            assert setup.delta_min == pytest.approx(delta_min, rel=1e-15)
            assert setup.active.size == active
        else:
            ch = build_channel(spec, stats, stats.q_x_given_y)
            assert np.all(ch.h == 0.0) and np.all(ch.q_w == 0.0)
            assert rate_of_channel(spec, ch).rate == 0.0
            assert verify_structure(spec, ch).all_pass

    @pytest.mark.parametrize("make", [lambda: singular_cross_spec([1.0, 0.0]), generated_spec_3_1],
                             ids=["singular-cross", "n_s-below-n_x"])
    def test_range_test_refuses_what_q_w_alone_passes(self, make):
        # Moving the optimal Sigma below Q_{X|S,Y} along a null vector v of
        # F by 10 tol leaves Q_W = M - M B^+ M >= 0 (B^+ v = 0), so only the
        # range test can refuse it.
        spec = make()
        stats = conditional_stats(spec)
        ch, sol = waterfill_channel(spec, 0.5)
        tol = psd_tolerance(float(np.max(np.linalg.eigvalsh(stats.q_x_given_y))))
        v = np.linalg.svd(stats.f)[2][-1]
        assert np.linalg.norm(stats.f @ v) <= 1e-15 * np.linalg.norm(stats.f)
        sigma = sol.sigma_delta - 10.0 * tol * np.outer(v, v)
        m = stats.q_x_given_y - sigma
        w = stats.u[:, stats.active] / stats.s[stats.active]
        b_pinv = w @ w.T
        assert np.min(np.linalg.eigvalsh(m - m @ b_pinv @ m)) >= -tol
        with pytest.raises(InfeasibleSigmaError, match="outside the range"):
            build_channel(spec, stats, sigma)


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
        assert set(report.residuals) == {"cond_mean_identity"}
        assert report.max_residual < 1e-12
        assert report.all_pass

    @pytest.mark.parametrize("gain", ["h", "g", "q_w"])
    def test_perturbed_gain_detected(self, scalar_spec, gain):
        ch = channel_at(scalar_spec, 0.375)
        bad = dataclasses.replace(ch, **{gain: getattr(ch, gain) + 0.1})
        report = verify_structure(scalar_spec, bad)
        assert report.residuals["cond_mean_identity"] > 0.01
        assert not report.all_pass

    @pytest.mark.parametrize("gain", ["h", "g", "q_w"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9, 1.2])
    def test_perturbed_channel_detected_on_generated_specs(self, n, gain, frac):
        # Gains moved by 0.1 N(0, 1) entries, the noise covariance by 0.1 p^T p
        # (still PSD): every such channel must fail the conditional mean,
        # including zero-rate ones above delta_plus (frac 1.2).
        rng = np.random.default_rng(60 + n)
        spec = generated_spec(rng, n, max(1, n // 4))
        ch, _ = waterfill_channel(spec, frac)
        m = getattr(ch, gain)
        p = rng.standard_normal(m.shape)
        bad = dataclasses.replace(ch, **{gain: m + 0.1 * (p.T @ p if gain == "q_w" else p)})
        report = verify_structure(spec, bad)
        assert not report.passes["cond_mean_identity"], report.residuals

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
        # interval, and just above delta_plus for k = 0.  At 1e-6 and 1e-9 of
        # the width above its lower end the newest component is barely
        # active, so Cov(X_hat|Y) is nearly singular in its direction.
        spec = generated_spec(np.random.default_rng(seed), n, max(1, n // 4))
        stats = conditional_stats(spec)
        setup = spectral_setup(spec, stats)
        c = 1.0 / setup.d_sq
        cum = np.cumsum(c)
        totals = np.append(cum - np.arange(1, n + 1) * c, cum[-1])
        targets = [(1 - eps) * a + eps * b for eps in (1e-3, 1e-6, 1e-9)
                   for a, b in zip(totals[:-1], totals[1:])]
        targets += [1e-3 * a + (1 - 1e-3) * b for a, b in zip(totals[:-1], totals[1:])]
        deltas = [setup.trace_xy - t for t in targets] + [setup.trace_xy * (1 + 1e-9)]
        counts = set()
        for delta in deltas:
            sol = solve_waterfill(spec, setup, delta)
            report = verify_structure(spec, build_channel(spec, stats, sol.sigma_delta))
            assert report.all_pass, (sol.active_count, report.residuals)
            counts.add(sol.active_count)
        assert counts == set(range(n + 1))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(1, 1), (2, 2), (8, 8), (3, 1), (2, 4)]),
        seed=st.integers(0, 2),
        units=st.tuples(*[st.sampled_from([1e-6, 1.0, 1e6])] * 3),
        frac=st.sampled_from([1e-6, 0.3, 0.9, 1.2]),
    )
    def test_verdict_free_of_units(self, shape, seed, units, frac):
        # X, S and Y each in units of 1e-6, 1 or 1e6.  Optimal channels pass
        # and channels with H or G shrunk by 1 % fail (H is zero above
        # delta_plus).  A residual measured in the largest variance of the
        # joint would let a large-unit Y shrink a wrong channel's below tol.
        spec = rectangular_spec(np.random.default_rng(seed), *shape, 2)
        scale = np.repeat(units, [spec.n_x, spec.n_s, spec.n_y])
        spec = validate_spec(spec.q * np.outer(scale, scale), (*shape, 2))
        stats = spec.stats
        sol = solve_waterfill(spec, stats, stats.delta_min + frac * (stats.trace_xy - stats.delta_min))
        ch = optimal_channel(spec, sol)
        assert verify_structure(spec, ch).all_pass
        wrong = [dataclasses.replace(ch, g=0.99 * ch.g)]
        if frac < 1.0:
            wrong.append(dataclasses.replace(ch, h=0.99 * ch.h))
        for bad in wrong:
            assert not verify_structure(spec, bad).all_pass

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


def scaled_outcome(q, dims, c, frac):
    """(rate, rate_alt, verdict) of the water-filling channel of c*q at fraction
    `frac` of its finite-rate range, which scales with c."""
    spec = validate_spec(c * np.asarray(q), dims)
    ch, _ = waterfill_channel(spec, frac)
    rates = rate_of_channel(spec, ch)
    return rates.rate, rates.rate_alt, verify_structure(spec, ch).all_pass


def fixed8_q():
    """The fixed n = 8, n_y = 2 instance that the channel-verify benchmark
    rescales (same draws, equal to rounding), with unit largest diagonal."""
    q = generated_spec(np.random.default_rng(20210830), 8, 2).q
    return q / np.max(np.diag(q))


class TestScaleInvariance:
    """Rescaling (Q, delta) to (cQ, c delta) moves no rate and no verdict."""

    @staticmethod
    def assert_invariant(q, dims, c, frac):
        rate, rate_alt, verdict = scaled_outcome(q, dims, 1.0, frac)
        scaled = scaled_outcome(q, dims, c, frac)
        assert scaled[:2] == pytest.approx((rate, rate_alt), rel=1e-9)
        assert verdict and scaled[2]

    @pytest.mark.parametrize("c", [1e8, 1e-8, 1e-9])
    def test_readme_spec(self, c):
        self.assert_invariant(SCALAR_Q, (1, 1, 1), c, 0.5)

    @pytest.mark.parametrize("c", [1e8, 1e-8])
    def test_fixed_n8_instance(self, c):
        self.assert_invariant(fixed8_q(), (8, 8, 2), c, 0.5)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 8]),
        seed=st.integers(0, 2**32 - 1),
        frac=st.floats(0.05, 0.95),
        log10_c=st.floats(-9.0, 8.0),
    )
    def test_generated_specs(self, n, seed, frac, log10_c):
        spec = generated_spec(np.random.default_rng(seed), n, max(1, n // 4))
        self.assert_invariant(spec.q, (n, n, max(1, n // 4)), 10.0**log10_c, frac)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from([(1, 1), (2, 2), (8, 8), (3, 1), (3, 2), (2, 4), (5, 3)]),
        seed=st.integers(0, 2**32 - 1),
        frac=st.floats(0.05, 0.95),
        log10_c=st.floats(-12.0, 12.0),
    )
    def test_any_shape_from_1e_minus_12_to_1e12(self, shape, seed, frac, log10_c):
        spec = rectangular_spec(np.random.default_rng(seed), *shape, 2)
        self.assert_invariant(spec.q, (*shape, 2), 10.0**log10_c, frac)


def with_measurement(spec, a, noise):
    """Spec of (X, (A S, N), Y), N independent of (X, S, Y) with covariance
    diag(noise): for A invertible, S' = (A S, N) tells as much about X as S."""
    n_x, n_s, n_y, k = spec.n_x, spec.n_s, spec.n_y, len(noise)
    joint = np.zeros((spec.n_total + k, spec.n_total + k))
    joint[: spec.n_total, : spec.n_total] = spec.q
    joint[spec.n_total :, spec.n_total :] = np.diag(noise)
    mix = np.zeros((spec.n_total + k, spec.n_total + k))  # (X, S, Y, N) -> (X, A S, N, Y)
    mix[:n_x, :n_x] = np.eye(n_x)
    mix[n_x : n_x + n_s, n_x : n_x + n_s] = a
    mix[n_x + n_s : n_x + n_s + k, spec.n_total :] = np.eye(k)
    mix[n_x + n_s + k :, n_x + n_s : spec.n_total] = np.eye(n_y)
    return validate_spec(mix @ joint @ mix.T, (n_x, n_s + k, n_y))


def with_maps(spec, x_map, y_map):
    """Spec of (x_map X, S, y_map Y)."""
    mix = np.eye(spec.n_total)
    mix[: spec.n_x, : spec.n_x] = x_map
    mix[spec.n_x + spec.n_s :, spec.n_x + spec.n_s :] = y_map
    return validate_spec(mix @ spec.q @ mix.T, (spec.n_x, spec.n_s, spec.n_y))


def random_invertible(rng, n):
    """An n x n matrix with singular values in [0.5, 2]."""
    left, _ = np.linalg.qr(rng.standard_normal((n, n)))
    right, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (left * rng.uniform(0.5, 2.0, n)) @ right


INVARIANCE_SHAPES = st.sampled_from([(1, 1), (2, 2), (8, 8), (3, 1), (2, 4)])


class TestReductionInvariance:
    """The reduction depends on S only through what it says about X, on Y
    only through the span of its components, and on X's basis only by
    rotating Sigma with it."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        shape=INVARIANCE_SHAPES,
        k=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        frac=st.floats(0.05, 0.95),
    )
    def test_invariant_under_invertible_map_and_independent_noise(self, shape, k, seed, frac):
        rng = np.random.default_rng(seed)
        spec = rectangular_spec(rng, *shape, 2)
        other = with_measurement(spec, random_invertible(rng, shape[1]), rng.uniform(0.1, 2.0, k))
        before = scaled_outcome(spec.q, (spec.n_x, spec.n_s, spec.n_y), 1.0, frac)
        after = scaled_outcome(other.q, (other.n_x, other.n_s, other.n_y), 1.0, frac)
        assert after[:2] == pytest.approx(before[:2], rel=1e-9)
        assert before[2] and after[2]

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(shape=INVARIANCE_SHAPES, seed=st.integers(0, 2**32 - 1), frac=st.floats(0.05, 0.95))
    def test_invariant_under_invertible_map_of_side_information(self, shape, seed, frac):
        rng = np.random.default_rng(seed)
        spec = rectangular_spec(rng, *shape, 2)
        other = with_maps(spec, np.eye(shape[0]), random_invertible(rng, 2))
        before = scaled_outcome(spec.q, (spec.n_x, spec.n_s, spec.n_y), 1.0, frac)
        after = scaled_outcome(other.q, (other.n_x, other.n_s, other.n_y), 1.0, frac)
        assert after[:2] == pytest.approx(before[:2], rel=1e-9)
        assert before[2] and after[2]

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(shape=INVARIANCE_SHAPES, seed=st.integers(0, 2**32 - 1), frac=st.floats(0.05, 0.95))
    def test_invariant_under_rotation_of_the_source(self, shape, seed, frac):
        # X -> O X maps the solver's Sigma to O Sigma O^T, and the channel
        # built on O Sigma O^T has the original's rates.
        rng = np.random.default_rng(seed)
        spec = rectangular_spec(rng, *shape, 2)
        o, _ = np.linalg.qr(rng.standard_normal((shape[0], shape[0])))
        other = with_maps(spec, o, np.eye(2))
        ch, sol = waterfill_channel(spec, frac)
        rates = rate_of_channel(spec, ch)
        assert verify_structure(spec, ch).all_pass
        ch_o, sol_o = waterfill_channel(other, frac)
        rotated = o @ sol.sigma_delta @ o.T
        assert np.linalg.norm(sol_o.sigma_delta - rotated) <= 1e-9 * np.linalg.norm(rotated)
        for channel in (ch_o, build_channel(other, conditional_stats(other), rotated)):
            after = rate_of_channel(other, channel)
            assert (after.rate, after.rate_alt) == pytest.approx(
                (rates.rate, rates.rate_alt), rel=1e-9)
            assert verify_structure(other, channel).all_pass

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from([(2, 1), (3, 1), (3, 2), (5, 3), (8, 2)]),
        seed=st.integers(0, 2**32 - 1),
        frac=st.floats(0.05, 0.95),
    )
    def test_fewer_measurements_water_fill_the_nonzero_spectrum(self, shape, seed, frac):
        # B = Q_{X,S|Y} Q_{S|Y}^{-1} Q_{X,S|Y}^T has n_s nonzero eigenvalues;
        # the rate is reverse water-filling on them alone.
        spec = rectangular_spec(np.random.default_rng(seed), *shape, 2)
        stats = conditional_stats(spec)
        cross = stats.q_xs_given_y
        b = np.linalg.eigvalsh(cross @ np.linalg.solve(stats.q_s_given_y, cross.T))[-shape[1]:]
        ch, sol = waterfill_channel(spec, frac)
        target = float(np.trace(stats.q_x_given_y)) - sol.delta
        expected = reverse_waterfill_rate(b, target)
        assert sol.rate == pytest.approx(expected, rel=1e-9)
        assert rate_of_channel(spec, ch).rate == pytest.approx(expected, rel=1e-9)
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

    @pytest.mark.parametrize("c", [1.0, 1e-6])
    def test_noise_floor_channel_is_infinite(self, c):
        # At Sigma = Q_{X|S,Y} the posterior Q_{S|X_hat,Y} and the noise Q_W
        # are both singular.
        spec = validate_spec(c * SCALAR_Q, (1, 1, 1))
        rates = rate_of_channel(spec, channel_at(spec, q_x_given_sy(spec)))
        assert rates.rate == math.inf
        assert rates.rate_alt == math.inf

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_rate_near_lower_boundary_is_finite(self, n):
        # At 1e-9 of the range above delta_min the rate is tens of nats and
        # the posterior's small eigenvalues are far below 1e-9; both formulas
        # must still match water-filling, not report a singular posterior.
        spec = generated_spec(np.random.default_rng(5), n, max(1, n // 4))
        ch, sol = waterfill_channel(spec, 1e-9)
        rates = rate_of_channel(spec, ch)
        assert rates.rate == pytest.approx(sol.rate, rel=1e-6)
        assert rates.rate_alt == pytest.approx(sol.rate, rel=1e-6)

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


NEAR_MIN_INSTANCES = [(8, 0), (8, 1), (32, 0), (64, 0)]


def near_min_solution(n, seed, e):
    """A generated spec, its stats and the water-filling solution at e of the
    finite-rate range above delta_min."""
    spec = generated_spec(np.random.default_rng(seed), n, max(1, n // 4))
    stats = conditional_stats(spec)
    sol = solve_waterfill(spec, stats, stats.delta_min + e * (stats.trace_xy - stats.delta_min))
    return spec, stats, sol


def exact_q_w(spec, delta, mpmath):
    """Q_W of the optimal channel of the float spec at the float delta, in
    mpmath's current precision: U diag(lambda theta / b) U^T over the
    eigenpairs (b, U) of B, with the reverse water level theta."""
    m = mpmath.matrix(spec.q.tolist())
    sx = range(spec.n_x)
    ss = range(spec.n_x, spec.n_x + spec.n_s)
    sy = range(spec.n_x + spec.n_s, spec.n_total)

    def given_y(rows, cols):
        def block(r, c):
            return mpmath.matrix([[m[i, j] for j in c] for i in r])
        return block(rows, cols) - block(rows, sy) * mpmath.inverse(block(sy, sy)) * block(sy, cols)

    cross = given_y(sx, ss)
    b, u = mpmath.eigsy(cross * mpmath.inverse(given_y(ss, ss)) * cross.T)
    b = [b[i] for i in sx]
    q_x = given_y(sx, sx)
    target = mpmath.fsum(q_x[i, i] for i in sx) - mpmath.mpf(delta)
    c = sorted(b, reverse=True)
    k = 1
    while k < len(c) and mpmath.fsum(c[:k]) - k * c[k] < target:
        k += 1
    theta = (mpmath.fsum(c[:k]) - target) / k
    q_w = u * mpmath.diag([(x - theta) * theta / x if x > theta else 0 for x in b]) * u.T
    return np.array(q_w.tolist(), dtype=float)


class TestFactorChannel:
    """Channels built on the reduction's factor: `optimal_channel` from a
    water-filling solution, `build_channel` from a distortion covariance."""

    @pytest.mark.parametrize("n, seed", NEAR_MIN_INSTANCES)
    def test_rate_exact_down_to_delta_min(self, n, seed):
        # At 1e-14 of the range above delta_min the rate is 127 to 1019 nats;
        # a channel built from Sigma read inf on (8, 0) and (64, 0).
        spec, stats, sol = near_min_solution(n, seed, 1e-14)
        ch = optimal_channel(spec, sol)
        assert rate_of_channel(spec, ch).rate == pytest.approx(sol.rate, rel=1e-12)
        assert verify_structure(spec, ch).all_pass

    @pytest.mark.parametrize("n, seed", NEAR_MIN_INSTANCES)
    def test_rate_alt_precision_limit(self, n, seed):
        # The measurement-side cross-check forms its posterior as a
        # difference, so its relative error grows like 1e-16 / e at e of the
        # range above delta_min (at most 5.1e-17 / e measured here).
        for e in (1e-12, 1e-9, 1e-6):
            spec, stats, sol = near_min_solution(n, seed, e)
            rates = rate_of_channel(spec, optimal_channel(spec, sol))
            assert rates.rate_alt == pytest.approx(sol.rate, rel=1e-15 / e)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_q_w_against_50_digits(self, seed):
        # At 1e-12 above delta_min a Q_W formed from Sigma is off by 2.5e-3
        # (seed 0) and 2.1e-3 (seed 1); from the level, by 7.6e-5 and 1.6e-4,
        # which comes from delta_min's own rounding.
        mpmath = pytest.importorskip("mpmath")
        spec, stats, sol = near_min_solution(8, seed, 1e-12)
        with mpmath.workdps(50):
            exact = exact_q_w(spec, sol.delta, mpmath)
        q_w = optimal_channel(spec, sol).q_w
        assert np.linalg.norm(q_w - exact) <= 2e-4 * np.linalg.norm(exact)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_barely_active_channels_give_both_rates(self, n):
        # 1e-6 and 1e-9 of each active-count interval above its breakpoint
        # total, where the newest component's reproduction variance is under
        # the PSD tolerance of Q_{X|Y}.  A reproduction-side rate dropped it
        # on seeds 11, 14, 15 and 16 at n = 8 (errors up to 8.7e-9).
        for seed in range(30):
            spec = generated_spec(np.random.default_rng(seed), n, max(1, n // 4))
            stats = conditional_stats(spec)
            c = 1.0 / stats.d_sq
            cum = np.cumsum(c)
            totals = np.append(cum - np.arange(1, n + 1) * c, cum[-1])
            for eps in (1e-6, 1e-9):
                for a, b in zip(totals[:-1], totals[1:]):
                    sol = solve_waterfill(spec, stats, stats.trace_xy - ((1 - eps) * a + eps * b))
                    tol = 1e-9 * max(1.0, sol.rate)
                    for ch in (optimal_channel(spec, sol),
                               build_channel(spec, stats, sol.sigma_delta)):
                        rates = rate_of_channel(spec, ch)
                        assert abs(rates.rate - sol.rate) <= tol, (seed, eps)
                        assert abs(rates.rate_alt - sol.rate) <= tol, (seed, eps)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(shape=INVARIANCE_SHAPES, seed=st.integers(0, 2**32 - 1), frac=st.floats(1e-3, 2.0))
    def test_front_ends_agree_on_the_solvers_sigma(self, shape, seed, frac):
        spec = rectangular_spec(np.random.default_rng(seed), *shape, 2)
        stats = conditional_stats(spec)
        sol = solve_waterfill(spec, stats, stats.delta_min + frac * (stats.trace_xy - stats.delta_min))
        ch = optimal_channel(spec, sol)
        other = build_channel(spec, stats, sol.sigma_delta)
        unit = np.max(np.diagonal(spec.q))
        for name in ("h", "g", "q_w"):
            gap = np.max(np.abs(getattr(ch, name) - getattr(other, name)))
            assert gap <= 1e-9 * unit, name
        assert rate_of_channel(spec, other).rate == pytest.approx(
            rate_of_channel(spec, ch).rate, rel=1e-9)


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


# Instances of the Monte Carlo law tests: generated specs at n and distortion
# fraction (1.2 is above the range's upper end), the singular joint and a
# non-square shape.
LAW_CASES = [(n, frac) for n in (1, 2, 8, 16) for frac in (0.1, 0.5, 0.9, 1.2)] + [
    "singular-joint", "non-square"]


def law_instance(case):
    if case == "singular-joint":
        spec = wyner_spec(1.0)
        return spec, channel_at(spec, 0.5)
    if case == "non-square":
        spec = rectangular_spec(np.random.default_rng(5), 3, 2, 2)
        return spec, waterfill_channel(spec, 0.5)[0]
    n, frac = case
    spec = generated_spec(np.random.default_rng(40 + n), n, 2)
    return spec, waterfill_channel(spec, frac)[0]


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

    @pytest.mark.parametrize("case", LAW_CASES, ids=str)
    def test_error_factor_has_the_errors_law(self, case):
        # R^T R is Cov(X - X_hat) of the full realization, read off the
        # joint covariance of (X, S, Y, X_hat): J_xx - J_xxh - J_xhx + J_xhxh.
        spec, ch = law_instance(case)
        r = _error_factor(spec, ch)
        assert r.shape == (spec.n_x, spec.n_x)
        unit = np.max(np.diagonal(spec.q))
        assert np.max(np.abs(r.T @ r - distortion_covariance(spec, ch))) <= 1e-12 * unit

    @pytest.mark.parametrize("case", LAW_CASES, ids=str)
    def test_sampler_agrees_in_law_with_the_full_realization(self, case):
        # The sampler and the reference that draws X, S, Y and W, on
        # different seeds: their means must agree within 4 standard errors
        # of the difference.
        spec, ch = law_instance(case)
        sim = simulate_channel(spec, ch, n_samples=200_000, seed=21)
        mean, se = simulate_whole_array(spec, ch, 200_000, seed=22)
        bound = 4.0 * math.hypot(sim.standard_error, se)
        assert abs(sim.empirical_distortion - mean) <= bound

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

    @pytest.mark.parametrize("n_samples", [2, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 5])
    def test_each_normal_is_drawn_once(self, monkeypatch, n_samples):
        # Every generator the simulation makes is wrapped and its normals are
        # kept: there is one, seeded with the seed itself (none is spawned),
        # and its n_samples * n_x normals are the whole draw of that seed.
        spec = generated_spec(np.random.default_rng(42), 8, 2)
        ch, _ = waterfill_channel(spec, 0.4)
        seed = 9
        make_rng = np.random.default_rng
        drawn = []

        class CountingGenerator:
            def __init__(self, source):
                self.rng, self.normals = make_rng(source), []
                drawn.append((source, self.normals))

            def standard_normal(self, *args, **kwargs):
                out = self.rng.standard_normal(*args, **kwargs)
                self.normals.append(np.array(out, copy=True).ravel())
                return out

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        simulate_channel(spec, ch, n_samples=n_samples, seed=seed)

        assert [source for source, _ in drawn] == [seed]
        normals = np.concatenate(drawn[0][1])
        assert normals.size == n_samples * spec.n_x
        whole = make_rng(seed).standard_normal((n_samples, spec.n_x)).ravel()
        assert np.array_equal(normals, whole)

    @staticmethod
    def assert_same_draws(spec, ch, n_samples, seed):
        # The chunked sampler against one whole-array draw through the factor.
        sim = simulate_channel(spec, ch, n_samples=n_samples, seed=seed)
        err = np.random.default_rng(seed).standard_normal((n_samples, spec.n_x))
        sq_err = np.sum((err @ _error_factor(spec, ch)) ** 2, axis=1)
        se = np.std(sq_err, ddof=1) / math.sqrt(n_samples)
        assert sim.empirical_distortion == pytest.approx(np.mean(sq_err), rel=1e-12, abs=0)
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
