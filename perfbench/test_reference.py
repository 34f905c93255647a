"""Tests of the benchmark's reference and instance generator on hand-worked cases.

Run with: python3 -m pytest perfbench/test_reference.py
"""

import math

import numpy as np
import pytest

import instances
import reference


def _scalar():
    return reference.reference(instances.README_SCALAR, (1, 1, 1))


def _x_equals_s(q_xy, c=1.0, q_y=2.0):
    q0 = q_xy + c * c / q_y
    return reference.reference([[q0, q0, c], [q0, q0, c], [c, c, q_y]], (1, 1, 1))


def test_readme_scalar_range_and_rate():
    ref = _scalar()
    assert ref.delta_minus == pytest.approx(0.25, abs=1e-15)
    assert ref.delta_plus == pytest.approx(0.5, abs=1e-15)
    assert ref.rate(0.375) == pytest.approx(0.5 * math.log(2.0), rel=1e-15)
    assert ref.rate(0.25) == math.inf
    assert ref.rate(0.2) == math.inf
    assert ref.rate(0.5) == 0.0
    assert ref.rate(0.7) == 0.0


@pytest.mark.parametrize("q", [0.5, 0.8, 2.0])
def test_x_equals_s_is_the_wyner_limit(q):
    ref = _x_equals_s(q)
    assert ref.delta_minus == pytest.approx(0.0, abs=1e-12)
    for delta in np.linspace(0.1 * q, q, 7):
        assert ref.rate(delta) == pytest.approx(0.5 * math.log(q / delta), rel=1e-12, abs=1e-15)
        assert ref.rate(delta) == pytest.approx(reference.wyner_rate(q, delta), rel=1e-12)


def test_x_equals_s_with_independent_y_is_classical():
    ref = reference.reference([[1.5, 1.5, 0.0], [1.5, 1.5, 0.0], [0.0, 0.0, 1.0]], (1, 1, 1))
    for delta in (0.3, 0.6, 1.2):
        assert ref.rate(delta) == pytest.approx(reference.classical_rate(1.5, delta), rel=1e-12)


def test_reverse_water_filling_on_two_components():
    # X = S componentwise, Y independent: a = (1, 0.25) and delta_minus = 0.
    q = np.zeros((5, 5))
    q[:4, :4] = np.kron(np.ones((2, 2)), np.diag([1.0, 0.25]))
    q[4, 4] = 1.0
    ref = reference.reference(q, (2, 2, 1))
    np.testing.assert_allclose(ref.a_desc, [1.0, 0.25], rtol=1e-12)
    # Both active: theta = delta / 2.
    assert ref.rate(0.3) == pytest.approx(
        0.5 * math.log(1.0 / 0.15) + 0.5 * math.log(0.25 / 0.15), rel=1e-12)
    # One active: T = 0.5 = 1 - theta, so theta = 0.5.
    assert ref.rate(0.75) == pytest.approx(0.5 * math.log(2.0), rel=1e-12)
    np.testing.assert_allclose(ref.sigma(0.75), np.diag([0.5, 0.25]), atol=1e-12)


def test_sigma_meets_the_distortion_on_generated_instances():
    rng = np.random.default_rng(3)
    for n in (1, 2, 8):
        dims = (n, n, instances.side_dim(n))
        ref = reference.reference(instances.generate(rng, n, dims[2]), dims)
        assert np.all(np.diff(ref.breakpoints) >= -1e-15)
        for f in (0.1, 0.5, 0.9):
            delta = ref.delta_minus + f * (ref.delta_plus - ref.delta_minus)
            assert np.trace(ref.sigma(delta)) == pytest.approx(delta, rel=1e-12)


def test_mc_standard_error():
    assert reference.mc_standard_error(np.diag([1.0, 2.0]), 100) == pytest.approx(math.sqrt(0.1))


def test_remark3_row():
    prior, h = reference.remark3_row(2.0, 0.5)
    assert prior == pytest.approx(0.5 / 1.5)
    assert h == pytest.approx(0.75)
    assert reference.remark3_row(2.0, 2.0) == (math.inf, 0.0)


@pytest.mark.parametrize("n, n_y", [(1, 1), (8, 2), (64, 16)])
def test_generated_instances_meet_the_hypotheses(n, n_y):
    q = instances.generate(np.random.default_rng(n), n, n_y)
    np.testing.assert_array_equal(q, instances.generate(np.random.default_rng(n), n, n_y))
    assert np.max(np.diag(q)) == 1.0
    ref = reference.reference(q, (n, n, n_y))
    sx, ss, sy = slice(0, n), slice(n, 2 * n), slice(2 * n, 2 * n + n_y)
    sy_block = np.block([[q[ss, ss], q[ss, sy]], [q[sy, ss], q[sy, sy]]])
    cross = np.hstack([q[sx, ss], q[sx, sy]])
    q_x_given_sy = q[sx, sx] - cross @ np.linalg.solve(sy_block, cross.T)
    assert np.min(np.linalg.eigvalsh(q[sy, sy])) > 1e-3
    assert np.min(np.linalg.eigvalsh(ref.q_x_given_y)) > 1e-3
    assert np.min(np.linalg.eigvalsh(ref.q_s_given_y)) > 1e-3
    assert np.min(np.linalg.svd(ref.q_xs_given_y, compute_uv=False)) > 1e-3
    assert np.min(np.linalg.eigvalsh(ref.q_x_given_y - q_x_given_sy)) > 1e-4
    # delta_minus is the error of the best estimate of X from (S, Y).
    assert ref.delta_minus == pytest.approx(np.trace(q_x_given_sy), rel=1e-9)
