import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remoterdf.core import (
    ConditionalStats,
    conditional_stats,
    symmetric_sqrt,
    validate_spec,
)
from remoterdf.errors import (
    NotPSDError,
    NotSymmetricError,
    SingularYError,
)

from conftest import (
    SCALAR_Q,
    NotNestedError,
    conditional_covariance,
    gaussian_cmi,
    generated_spec,
    pseudo_inverse,
    q_x_given_sy,
    random_feasible_spec,
)


def gain_from_y(spec, q_ay):
    """The predictor gain Q_{A,Y} Q_Y^{-1} computing E(A|Y)."""
    return np.linalg.solve(spec.q_y, q_ay.T).T


class TestValidateSpec:
    def test_identity_accepted(self):
        spec = validate_spec(np.eye(3), (1, 1, 1))
        assert spec.q_x == 1.0 and spec.q_s == 1.0 and spec.q_y == 1.0
        assert spec.q_xs == 0.0 and spec.q_xy == 0.0 and spec.q_sy == 0.0
        assert spec.sym_residual == 0.0

    def test_zero_side_info_block_rejected(self):
        with pytest.raises(SingularYError):
            validate_spec(np.diag([1.0, 1.0, 0.0]), (1, 1, 1))

    def test_scalar_example_accepted(self):
        # Independent eigensolver check: the matrix is positive definite.
        assert np.all(np.linalg.eigvalsh(SCALAR_Q) > 0)
        spec = validate_spec(SCALAR_Q, (1, 1, 1))
        assert spec.q_s == 1.5 and spec.q_y == 2.0

    def test_asymmetric_rejected(self):
        # Also 1e-8 ||m||_F, ten times the allowance SYM_TOL_SCALE ||m||_F.
        for asymmetry in (0.3, 1e-8 * math.sqrt(3.0)):
            m = np.eye(3)
            m[0, 1] = asymmetry
            with pytest.raises(NotSymmetricError):
                validate_spec(m, (1, 1, 1))

    def test_tiny_asymmetry_symmetrized_and_recorded(self):
        m = SCALAR_Q.copy()
        m[0, 1] += 1e-12
        spec = validate_spec(m, (1, 1, 1))
        assert 0.0 < spec.sym_residual < 1e-11
        assert np.array_equal(spec.q, spec.q.T)

    def test_indefinite_rejected(self):
        m = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NotPSDError):
            validate_spec(m, (1, 1, 1))

    @pytest.mark.parametrize(
        "q, low",
        [([[1.0, 0.5, 4e-5], [0.5, 1.0, 0.0], [4e-5, 0.0, 1e-9]], 0.2 - math.sqrt(0.89)),
         ([[1.0, 0.5, 1e-6], [0.5, 1.0, 0.0], [1e-6, 0.0, 1e-13]], -4.0 - math.sqrt(25.25)),
         ([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]], -1.0)],
        ids=["var-y-1e-9", "var-y-1e-13", "indefinite-joint"],
    )
    def test_indefinite_given_y_rejected(self, q, low):
        # The joint passes its own PSD test and Q_Y is invertible at its
        # scale, but the small-variance Y hides Q_{X|Y} = 1 - q_xy^2 / q_y
        # (-0.6, -9): the covariance of (X, S) given Y is indefinite, with
        # smallest eigenvalue -0.743 (-9.025).  With Q_Y > 0 the joint is PSD
        # exactly when that covariance is, so it also refuses an indefinite
        # joint (the last case), whose own spectrum is not taken.
        with pytest.raises(NotPSDError, match="given Y") as exc:
            validate_spec(np.array(q), (1, 1, 1))
        assert exc.value.min_eigenvalue == pytest.approx(low, rel=1e-6)

    @pytest.mark.parametrize(
        "q_y, error, what",
        [([[1.0, 0.0], [0.0, -0.5]], NotPSDError, "side-information"),
         ([[1.0, 0.0], [0.0, -1e-12]], SingularYError, "singular"),
         ([[1.0, 0.0], [0.0, 0.0]], SingularYError, "singular")],
        ids=["indefinite", "within-tolerance", "zero"],
    )
    def test_q_y_not_psd_refused_before_singular(self, q_y, error, what):
        # An indefinite Q_Y is also singular to INV_TOL; the PSD refusal, at
        # Q_Y's own scale, comes first.  An eigenvalue within that tolerance
        # of zero is a singular Q_Y.
        q = np.eye(4)
        q[2:, 2:] = q_y
        with pytest.raises(error, match=what):
            validate_spec(q, (1, 1, 2))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        units=st.tuples(*[st.sampled_from([1e-6, 1.0, 1e6])] * 3),
        spread=st.sampled_from([1.0, 1e-5, 1e5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_verdicts_free_of_units(self, units, spread, seed):
        # X, S and Y each in units of 1e-6, 1 or 1e6, and Y's two components
        # up to 1e5 apart.  Q_{X|Y} = -0.44 stays refused, though with S x 1e5
        # it is far inside a tolerance of 1e-9 times the block's largest
        # eigenvalue (10); the valid instance stays accepted, though Var Y of
        # 1 and 1e10 make Q_Y singular to INV_TOL at its own scale.
        scale = np.array(units)
        bad = np.array([[1.0, 0.0, 1.2], [0.0, 1.0, 0.0], [1.2, 0.0, 1.0]])
        with pytest.raises(NotPSDError, match="given Y") as exc:
            validate_spec(bad * np.outer(scale, scale), (1, 1, 1))
        assert exc.value.min_eigenvalue == pytest.approx(-0.44, rel=1e-9)
        spec = generated_spec(np.random.default_rng(seed), 2, 2)
        scale = np.repeat(scale, 2) * [1.0, 1.0, 1.0, 1.0, 1.0, spread]
        valid = validate_spec(spec.q * np.outer(scale, scale), (2, 2, 2))
        assert valid.stats.delta_min / scale[0] ** 2 == pytest.approx(spec.stats.delta_min,
                                                                      rel=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            validate_spec(np.eye(4), (1, 1, 1))
        with pytest.raises(ValueError):
            validate_spec(np.eye(3), (1, 0, 2))

    def test_blocks_of_multivariate_spec(self):
        rng = np.random.default_rng(3)
        spec = random_feasible_spec(rng, 2, 2)
        assert spec.q_x.shape == (2, 2)
        assert spec.q_xs.shape == (2, 2)
        assert spec.q_sy.shape == (2, 2)
        assert not spec.q.flags.writeable


class TestConditionalStats:
    def test_scalar_example_hand_values(self, scalar_spec):
        stats = conditional_stats(scalar_spec)
        # Hand Schur complements: 1 - 1*(1/2)*1 = 0.5, 1.5 - 1*(1/2)*1 = 1, etc.
        assert stats.q_x_given_y == pytest.approx(0.5, abs=1e-15)
        assert stats.q_s_given_y == pytest.approx(1.0, abs=1e-15)
        assert stats.q_xs_given_y == pytest.approx(0.5, abs=1e-15)
        assert gain_from_y(scalar_spec, scalar_spec.q_xy) == pytest.approx(0.5, abs=1e-15)
        assert gain_from_y(scalar_spec, scalar_spec.q_sy) == pytest.approx(0.5, abs=1e-15)
        assert q_x_given_sy(scalar_spec) == pytest.approx(0.25, abs=1e-12)

    def test_independent_blocks(self):
        spec = validate_spec(np.diag([2.0, 3.0, 4.0]), (1, 1, 1))
        stats = conditional_stats(spec)
        assert stats.q_x_given_y == pytest.approx(2.0)
        assert stats.q_s_given_y == pytest.approx(3.0)
        assert stats.q_xs_given_y == pytest.approx(0.0)

    def test_perfect_side_information(self):
        spec = validate_spec(np.ones((3, 3)), (1, 1, 1))
        stats = conditional_stats(spec)
        assert stats.q_x_given_y == pytest.approx(0.0, abs=1e-14)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(11)
        for n, n_y in [(1, 1), (2, 1), (3, 2)]:
            spec = random_feasible_spec(rng, n, n_y)
            stats = conditional_stats(spec)
            gain_x = gain_from_y(spec, spec.q_xy)
            recon = stats.q_x_given_y + gain_x @ spec.q_y @ gain_x.T
            assert np.linalg.norm(recon - spec.q_x, "fro") < 1e-10

    def test_conditioning_reduces_covariance(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            spec = random_feasible_spec(rng, 2, 2)
            stats = conditional_stats(spec)
            gap = stats.q_x_given_y - q_x_given_sy(spec)
            assert np.min(np.linalg.eigvalsh(gap)) > -1e-10

    def test_active_components_at_the_rank_cutoff(self):
        # F = diag(1, 1e-9, 1e-13): a component 1e-9 of s_max is observed,
        # one at 1e-13 is under RANK_TOL and is not.
        stats = ConditionalStats(q_x_given_y=np.eye(3), q_s_given_y=np.eye(3),
                                 q_xs_given_y=np.diag([1.0, 1e-9, 1e-13]))
        assert stats.active.tolist() == [0, 1]


class TestSymmetricSqrt:
    def test_identity(self):
        assert np.allclose(symmetric_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(symmetric_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_multiply_back(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = symmetric_sqrt(m)
        assert np.linalg.norm(r @ r - m, "fro") < 1e-12
        assert np.array_equal(r, r.T)

    def test_not_psd_rejected(self):
        with pytest.raises(NotPSDError):
            symmetric_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_random_psd_roundtrip(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            m = a @ a.T
            r = symmetric_sqrt(m)
            assert np.min(np.linalg.eigvalsh(r)) > -1e-12
            assert np.linalg.norm(r @ r - m, "fro") < 1e-10 * max(1.0, np.linalg.norm(m))

    def test_singular_input_clamped(self):
        m = np.outer([1.0, 1.0], [1.0, 1.0])  # rank one
        r = symmetric_sqrt(m)
        assert np.linalg.norm(r @ r - m, "fro") < 1e-10


class TestPseudoInverse:
    """The test-local reference pseudoinverse that `conditional_covariance` uses."""

    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_zero(self):
        assert np.array_equal(pseudo_inverse(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_rank_deficient_diagonal(self):
        assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    @pytest.mark.parametrize("shape,rank", [((3, 3), 3), ((3, 3), 2), ((4, 2), 2), ((2, 5), 1)])
    def test_penrose_identities(self, shape, rank):
        rng = np.random.default_rng(sum(shape) + rank)
        m = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        p = pseudo_inverse(m)
        assert np.linalg.norm(m @ p @ m - m) < 1e-10
        assert np.linalg.norm(p @ m @ p - p) < 1e-10
        assert np.linalg.norm((m @ p).T - m @ p) < 1e-10
        assert np.linalg.norm((p @ m).T - p @ m) < 1e-10


class TestGaussianCmi:
    """The test-local reference rate behind acceptance criterion 3."""

    def test_equal_covariances_zero_rate(self):
        assert gaussian_cmi(np.diag([1.0, 1.0]), np.diag([1.0, 1.0])) == 0.0

    def test_scalar_log_ratio(self):
        assert gaussian_cmi(np.array([[1.0]]), np.array([[0.5]])) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-12
        )

    def test_diagonal_product_of_scalars(self):
        rate = gaussian_cmi(np.diag([1.0, 2.0]), np.diag([0.5, 1.0]))
        assert rate == pytest.approx(math.log(2.0), abs=1e-12)

    def test_not_nested_rejected(self):
        with pytest.raises(NotNestedError):
            gaussian_cmi(np.diag([1.0, 1.0]), np.diag([2.0, 0.5]))

    def test_posterior_not_psd_rejected(self):
        with pytest.raises(NotPSDError):
            gaussian_cmi(np.diag([1.0, 1.0]), np.diag([0.5, -0.5]))

    def test_singular_prior_uses_range_restriction(self):
        rate = gaussian_cmi(np.diag([1.0, 0.0]), np.diag([0.5, 0.0]))
        assert rate == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_posterior_singular_on_range_is_infinite(self):
        assert gaussian_cmi(np.diag([1.0, 1.0]), np.diag([0.5, 0.0])) == float("inf")

    def test_zero_prior_zero_rate(self):
        assert gaussian_cmi(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0

    def test_monotone_in_posterior_shrinkage(self):
        # Shrinking the posterior in PSD order never decreases the rate.
        rng = np.random.default_rng(31)

        def shrink(m, rng):
            p = rng.standard_normal((3, 3))
            p = p @ p.T
            t = 0.5 * np.min(np.linalg.eigvalsh(m)) / np.max(np.linalg.eigvalsh(p))
            return m - t * p

        for _ in range(20):
            a = rng.standard_normal((3, 3))
            prior = a @ a.T + 0.1 * np.eye(3)
            post1 = shrink(prior, rng)
            post2 = shrink(post1, rng)
            r1 = gaussian_cmi(prior, post1)
            r2 = gaussian_cmi(prior, post2)
            assert r2 >= r1 - 1e-12


class TestConditionalCovariance:
    """The test-local reference Schur complement behind `q_x_given_sy`."""

    def test_matches_stats(self, scalar_spec):
        stats = conditional_stats(scalar_spec)
        got = conditional_covariance(scalar_spec.q, [0], [2])
        assert got == pytest.approx(stats.q_x_given_y, abs=1e-14)
        got_sy = conditional_covariance(scalar_spec.q, [0], [1, 2])
        # Hand Schur complement of the (S, Y) block: 1 - [1 1] [[1.5 1] [1 2]]^{-1} [1 1]^T.
        assert got_sy == pytest.approx(0.25, abs=1e-12)
