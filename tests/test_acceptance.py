"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.
"""

import math
import time

import numpy as np
import pytest

from remoterdf.channel import (
    build_channel,
    joint_with_reproduction,
    rate_of_channel,
    simulate_channel,
    verify_structure,
)
from remoterdf.core import conditional_stats
from remoterdf.errors import BelowRangeError
from remoterdf.oracle import brute_force_rdf, remark3_discrepancy
from remoterdf.waterfill import (
    distortion_range,
    rdf_curve,
    solve_waterfill,
    spectral_setup,
)

from remoterdf.core import validate_spec

from conftest import (
    SCALAR_Q,
    classical_spec,
    conditional_covariance,
    gaussian_cmi,
    random_feasible_spec,
    wyner_spec,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def _setup_for(spec):
    stats = conditional_stats(spec)
    return stats, spectral_setup(spec, stats)


def test_criterion_1_wyner_degeneracy():
    """X = S scalar: water-filling equals the closed-form 0.5*ln(q/delta)."""
    start = time.perf_counter()
    worst = 0.0
    for q in (0.5, 1.0, 2.0):
        spec = wyner_spec(q)
        stats, setup = _setup_for(spec)
        for delta in np.linspace(0.1 * q, q, 10):
            sol = solve_waterfill(spec, setup, float(delta))
            worst = max(worst, abs(sol.rate - 0.5 * math.log(q / delta)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, ok, f"Wyner degeneracy: max |rate error| {worst:.2e}, {elapsed:.3f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_classical_degeneracy():
    """X = S with independent Y: classical rate and reproduction variance."""
    worst_rate = 0.0
    worst_var = 0.0
    for q_x in (1.0, 2.0):
        spec = classical_spec(q_x)
        stats, setup = _setup_for(spec)
        deltas = list(np.linspace(0.1 * q_x, q_x, 8)) + [1.5 * q_x]
        for delta in deltas:
            sol = solve_waterfill(spec, setup, float(delta))
            expected_rate = max(0.0, 0.5 * math.log(q_x / delta))
            worst_rate = max(worst_rate, abs(sol.rate - expected_rate))
            ch = build_channel(spec, stats, sol.sigma_delta)
            joint = joint_with_reproduction(spec, ch)
            q_xhat = float(joint[spec.n_total, spec.n_total])
            worst_var = max(worst_var, abs(q_xhat - max(0.0, q_x - delta)))
    ok = worst_rate <= 1e-9 and worst_var <= 1e-9
    _report(
        2,
        ok,
        f"classical degeneracy: rate error {worst_rate:.2e}, "
        f"reproduction variance error {worst_var:.2e}",
    )
    assert worst_rate <= 1e-9
    assert worst_var <= 1e-9


def test_criterion_3_rdf_equality_and_structure():
    """Joint-realization rate equals the decoder-only split rate; residuals small."""
    rng = np.random.default_rng(2024)
    dims = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
    worst_gap = 0.0
    worst_residual = 0.0
    for i in range(100):
        n, n_y = dims[i % len(dims)]
        spec = random_feasible_spec(rng, n, n_y)
        stats, setup = _setup_for(spec)
        lo, hi = distortion_range(spec, setup)
        delta = lo + (0.15 + 0.75 * rng.random()) * (hi - lo)
        sol = solve_waterfill(spec, setup, delta)
        ch = build_channel(spec, stats, sol.sigma_delta)

        rate_joint = rate_of_channel(spec, ch).rate
        # Second moments of (S, Z, Y) under the decoder-only split Z = H S + W,
        # no reuse of the joint-realization posterior.
        q_z = ch.h @ spec.q_s @ ch.h.T + ch.q_w
        c_sz = spec.q_s @ ch.h.T
        c_zy = ch.h @ spec.q_sy
        j = np.block(
            [
                [spec.q_s, c_sz, spec.q_sy],
                [c_sz.T, q_z, c_zy],
                [spec.q_sy.T, c_zy.T, spec.q_y],
            ]
        )
        given = list(range(n, 2 * n + n_y))
        q_s_given_zy = conditional_covariance(j, list(range(n)), given)
        rate_split = gaussian_cmi(stats.q_s_given_y, q_s_given_zy)

        worst_gap = max(worst_gap, abs(rate_joint - rate_split))
        worst_residual = max(worst_residual, verify_structure(spec, ch).max_residual)
    ok = worst_gap <= 1e-9 and worst_residual <= 1e-8
    _report(
        3,
        ok,
        f"RDF equality on 100 specs: max rate gap {worst_gap:.2e}, "
        f"max structural residual {worst_residual:.2e}",
    )
    assert worst_gap <= 1e-9
    assert worst_residual <= 1e-8


def test_criterion_4_oracle_equivalence():
    """Water-filling matches the brute-force oracle at default resolution."""
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst = 0.0
    for i in range(25):
        n = 1 if i % 2 == 0 else 2
        spec = random_feasible_spec(rng, n, 1 + i % 2, min_margin=5e-3)
        stats, setup = _setup_for(spec)
        lo, hi = distortion_range(spec, setup)
        delta = lo + (0.3 + 0.4 * rng.random()) * (hi - lo)
        sol = solve_waterfill(spec, setup, delta)
        oracle = brute_force_rdf(spec, delta)
        assert oracle.rate >= sol.rate - 1e-9
        worst = max(worst, abs(oracle.rate - sol.rate))
    elapsed = time.perf_counter() - start
    ok = worst <= 2e-3 and elapsed < 60.0
    _report(4, ok, f"oracle equivalence on 25 specs: max gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 2e-3
    assert elapsed < 60.0


def test_criterion_5_distortion_achievability():
    """Monte Carlo distortion concentrates on trace(sigma_delta)."""
    rng = np.random.default_rng(5150)
    dims = [(1, 1), (2, 1), (2, 2), (3, 2), (1, 2)]
    worst_sigmas = 0.0
    for i in range(10):
        n, n_y = dims[i % len(dims)]
        spec = random_feasible_spec(rng, n, n_y)
        stats, setup = _setup_for(spec)
        lo, hi = distortion_range(spec, setup)
        delta = lo + (0.2 + 0.6 * rng.random()) * (hi - lo)
        sol = solve_waterfill(spec, setup, delta)
        ch = build_channel(spec, stats, sol.sigma_delta)
        sim = simulate_channel(spec, ch, n_samples=10**6, seed=1000 + i)
        deviation = abs(sim.empirical_distortion - float(np.trace(ch.sigma_delta)))
        worst_sigmas = max(worst_sigmas, deviation / sim.standard_error)
    ok = worst_sigmas <= 4.0
    _report(
        5, ok, f"distortion achievability: worst deviation {worst_sigmas:.2f} standard errors"
    )
    assert worst_sigmas <= 4.0


def test_criterion_6_boundary_behavior():
    """Rate blows up at delta_min, is exactly zero at delta_plus, and the
    lower boundary is signaled."""
    spec = validate_spec(SCALAR_Q, (1, 1, 1))
    stats, setup = _setup_for(spec)
    lo, hi = distortion_range(spec, setup)
    trace_xy = float(np.trace(stats.q_x_given_y))

    near = solve_waterfill(spec, setup, lo + 1e-8 * trace_xy)
    at_top = solve_waterfill(spec, setup, hi)
    below_signaled = False
    try:
        solve_waterfill(spec, setup, lo)
    except BelowRangeError:
        below_signaled = True

    ok = near.rate > 8.0 and at_top.rate == 0.0 and below_signaled
    _report(
        6,
        ok,
        f"boundary behavior: rate {near.rate:.3f} nats near delta_min, "
        f"rate {at_top.rate!r} at delta_plus, below-range signaled: {below_signaled}",
    )
    assert near.rate > 8.0
    assert at_top.rate == 0.0
    assert below_signaled


def test_criterion_7_curve_shape():
    """Every swept curve is non-increasing with convex second differences."""
    rng = np.random.default_rng(404)
    instances = [validate_spec(SCALAR_Q, (1, 1, 1))]
    for n, n_y in [(1, 1), (2, 2), (3, 1)]:
        instances.append(random_feasible_spec(rng, n, n_y))
    worst_second = np.inf
    monotone = True
    for spec in instances:
        stats, setup = _setup_for(spec)
        lo, hi = distortion_range(spec, setup)
        grid = np.linspace(lo + 0.02 * (hi - lo), hi, 40)
        rates = [p.rate for p in rdf_curve(spec, grid).points]
        monotone &= all(r2 <= r1 + 1e-12 for r1, r2 in zip(rates, rates[1:]))
        worst_second = min(worst_second, float(np.min(np.diff(rates, 2))))
    ok = monotone and worst_second >= -1e-8
    _report(
        7,
        ok,
        f"curve shape: monotone {monotone}, min second difference {worst_second:.2e}",
    )
    assert monotone
    assert worst_second >= -1e-8


def test_criterion_8_remark3_reproduction():
    """Prior-work noise variance diverges while the correct channel collapses."""
    (near,) = remark3_discrepancy(1.0, [0.99])
    (at,) = remark3_discrepancy(1.0, [1.0])
    ok = (
        abs(near.prior_noise_variance - 99.0) <= 1e-9
        and near.wyner_z_variance < 0.02
        and at.wyner_z_variance == 0.0
        and at.divergent
    )
    _report(
        8,
        ok,
        f"remark-3 reproduction: prior variance {near.prior_noise_variance:.12f}, "
        f"correct output variance {near.wyner_z_variance:.4f}, "
        f"divergent at boundary: {at.divergent}",
    )
    assert abs(near.prior_noise_variance - 99.0) <= 1e-9
    assert near.wyner_z_variance < 0.02
    assert at.wyner_z_variance == 0.0
    assert at.divergent
