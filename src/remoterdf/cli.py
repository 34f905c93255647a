"""Command-line surface: curves, channels, verification, and oracle comparisons.

Subcommands:

    curve    sweep the rate-distortion curve over a distortion grid
    channel  synthesize the optimal test channel at one distortion
    verify   analytic structural residuals plus a Monte Carlo distortion check
    oracle   compare the water-filling rate against the brute-force search
    remark3  table contrasting the prior-work test channel with the correct one

Outputs are CSV (default for curve/remark3) or JSON (default otherwise);
numeric CSV fields carry 17 significant digits so parsing the output recovers
the records exactly.  Exit codes: 0 success, 1 bad input or infeasible
request, 2 at least one curve point failed, 3 verification failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .channel import (
    build_channel,
    rate_of_channel,
    simulate_channel,
    verify_structure,
)
from .core import conditional_stats
from .errors import BelowRangeError, RemoteRdfError
from .oracle import OracleResolution, brute_force_rdf, remark3_discrepancy
from .specfile import load_spec_file
from .waterfill import distortion_range, rdf_curve, solve_waterfill, spectral_setup

LN2 = math.log(2.0)

CURVE_HEADER = "delta,rate_nats,rate_bits,xi,active_count,feasible,error"
REMARK3_HEADER = (
    "delta,prior_noise_variance,prior_z_variance,"
    "wyner_h,wyner_q_w,wyner_z_variance,divergent"
)


def _sig17(value) -> str:
    """17-significant-digit rendering; None becomes the empty field."""
    if value is None:
        return ""
    return format(float(value), ".17g")


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(doc: dict) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _parse_grid(args) -> list[float]:
    if args.deltas is not None:
        if args.delta_min is not None or args.delta_max is not None or args.points is not None:
            raise ValueError("give either --deltas or --delta-min/--delta-max/--points")
        grid = [float(tok) for tok in args.deltas.split(",") if tok.strip()]
        if not grid:
            raise ValueError("--deltas is empty")
        return grid
    if args.delta_min is None or args.delta_max is None or args.points is None:
        raise ValueError("need --deltas or all of --delta-min, --delta-max, --points")
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    if args.delta_max < args.delta_min:
        raise ValueError("--delta-max must be >= --delta-min")
    return [float(d) for d in np.linspace(args.delta_min, args.delta_max, args.points)]


def curve_records(points) -> list[dict]:
    """CLI record dicts for a sequence of curve points (rates in both units)."""
    records = []
    for p in points:
        records.append(
            {
                "delta": p.delta,
                "rate_nats": p.rate,
                "rate_bits": None if p.rate is None else p.rate / LN2,
                "xi": p.xi,
                "active_count": p.active_count,
                "feasible": p.feasible,
                "error": p.error,
            }
        )
    return records


def curve_csv(records) -> str:
    lines = [CURVE_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    _sig17(r["delta"]),
                    _sig17(r["rate_nats"]),
                    _sig17(r["rate_bits"]),
                    _sig17(r["xi"]),
                    "" if r["active_count"] is None else str(r["active_count"]),
                    "true" if r["feasible"] else "false",
                    r["error"],
                ]
            )
        )
    return "\n".join(lines) + "\n"


def parse_curve_csv(text: str) -> list[dict]:
    """Inverse of curve_csv; recovers the records exactly."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CURVE_HEADER:
        raise ValueError("not a curve CSV document")
    records = []
    for line in lines[1:]:
        delta, nats, bits, xi, active, feasible, error = line.split(",")
        records.append(
            {
                "delta": float(delta),
                "rate_nats": float(nats) if nats else None,
                "rate_bits": float(bits) if bits else None,
                "xi": float(xi) if xi else None,
                "active_count": int(active) if active else None,
                "feasible": feasible == "true",
                "error": error,
            }
        )
    return records


def cmd_curve(args) -> int:
    loaded = load_spec_file(args.spec)
    grid = _parse_grid(args)
    curve = rdf_curve(loaded.spec, grid)
    records = curve_records(curve.points)
    if args.format == "csv":
        _emit(curve_csv(records))
    else:
        _emit_json(
            {
                "label": loaded.label,
                "rate_unit": "bits" if args.bits else "nats",
                "records": records,
            }
        )
    return 0 if all(r["feasible"] for r in records) else 2


def _matrix(m: np.ndarray) -> list:
    return np.asarray(m, dtype=float).tolist()


def cmd_channel(args) -> int:
    loaded = load_spec_file(args.spec)
    spec = loaded.spec
    stats = conditional_stats(spec)
    setup = spectral_setup(spec, stats)
    lo, hi = distortion_range(spec, setup)
    try:
        sol = solve_waterfill(spec, setup, args.delta)
    except BelowRangeError:
        return _fail(
            f"infinite rate at lower boundary (delta {args.delta!r} <= delta_min {lo!r})"
        )
    ch = build_channel(spec, stats, sol.sigma_delta)
    rates = rate_of_channel(spec, ch)
    report = verify_structure(spec, ch)
    unit = "bits" if args.bits else "nats"
    headline = rates.rate / LN2 if args.bits else rates.rate

    if args.format == "csv":
        lines = ["field,row,col,value"]
        for name, value in [
            ("delta", sol.delta),
            ("delta_min", lo),
            ("delta_max", hi),
            ("rate_nats", rates.rate),
            ("rate_bits", rates.rate / LN2),
            ("rate_alt_nats", rates.rate_alt),
            ("rate_discrepancy", rates.discrepancy),
            ("xi", sol.xi),
            ("active_count", sol.active_count),
        ]:
            lines.append(f"{name},,,{_sig17(value)}")
        for name, m in [
            ("h", ch.h),
            ("g", ch.g),
            ("q_w", ch.q_w),
            ("sigma_delta", ch.sigma_delta),
            ("q_xhat_given_y", ch.q_xhat_given_y),
            ("q_s_given_xhat_y", ch.q_s_given_xhat_y),
        ]:
            for i in range(m.shape[0]):
                for j in range(m.shape[1]):
                    lines.append(f"{name},{i},{j},{_sig17(m[i, j])}")
        for name, value in report.residuals.items():
            lines.append(f"residual.{name},,,{_sig17(value)}")
        _emit("\n".join(lines))
    else:
        _emit_json(
            {
                "label": loaded.label,
                "delta": sol.delta,
                "delta_range": {"min": lo, "max": hi},
                "above_range": sol.above_range,
                "rate": headline,
                "rate_unit": unit,
                "rates": {
                    "nats": rates.rate,
                    "bits": rates.rate / LN2,
                    "alt_nats": rates.rate_alt,
                    "alt_bits": rates.rate_alt / LN2,
                    "discrepancy": rates.discrepancy,
                },
                "water": {
                    "xi": sol.xi,
                    "active_count": sol.active_count,
                    "allocations": _matrix(sol.lam),
                },
                "channel": {
                    "h": _matrix(ch.h),
                    "g": _matrix(ch.g),
                    "q_w": _matrix(ch.q_w),
                    "sigma_delta": _matrix(ch.sigma_delta),
                    "q_xhat_given_y": _matrix(ch.q_xhat_given_y),
                    "q_s_given_xhat_y": _matrix(ch.q_s_given_xhat_y),
                },
                "decoder_only": {
                    "h": _matrix(ch.h),
                    "q_w": _matrix(ch.q_w),
                    "g": _matrix(ch.g),
                },
                "structural_residuals": report.residuals,
                "structural_pass": report.all_pass,
            }
        )
    return 0


def cmd_verify(args) -> int:
    loaded = load_spec_file(args.spec)
    spec = loaded.spec
    stats = conditional_stats(spec)
    setup = spectral_setup(spec, stats)
    sol = solve_waterfill(spec, setup, args.delta)
    ch = build_channel(spec, stats, sol.sigma_delta)
    if args.inject_h_perturbation:
        ch = dataclasses.replace(ch, h=ch.h + args.inject_h_perturbation)
    report = verify_structure(spec, ch)
    sim = simulate_channel(spec, ch, n_samples=args.samples, seed=args.seed)
    trace_sigma = float(np.trace(ch.sigma_delta))
    deviation = abs(sim.empirical_distortion - trace_sigma)
    mc_pass = deviation <= 4.0 * sim.standard_error
    verdict = mc_pass and report.all_pass

    doc = {
        "label": loaded.label,
        "delta": sol.delta,
        "n_samples": sim.n_samples,
        "seed": sim.seed,
        "analytic": {
            "trace_sigma_delta": trace_sigma,
            "residuals": report.residuals,
            "residual_tol": report.tol,
            "residuals_pass": report.all_pass,
        },
        "monte_carlo": {
            "empirical_distortion": sim.empirical_distortion,
            "standard_error": sim.standard_error,
            "deviation": deviation,
            "bound_4se": 4.0 * sim.standard_error,
            "pass": mc_pass,
        },
        "verdict": "pass" if verdict else "fail",
    }
    if args.format == "csv":
        lines = ["field,value"]
        lines.append(f"delta,{_sig17(sol.delta)}")
        lines.append(f"n_samples,{sim.n_samples}")
        lines.append(f"seed,{sim.seed}")
        lines.append(f"trace_sigma_delta,{_sig17(trace_sigma)}")
        for name, value in report.residuals.items():
            lines.append(f"residual.{name},{_sig17(value)}")
        lines.append(f"empirical_distortion,{_sig17(sim.empirical_distortion)}")
        lines.append(f"standard_error,{_sig17(sim.standard_error)}")
        lines.append(f"verdict,{doc['verdict']}")
        _emit("\n".join(lines))
    else:
        _emit_json(doc)
    return 0 if verdict else 3


def cmd_oracle(args) -> int:
    loaded = load_spec_file(args.spec)
    spec = loaded.spec
    if spec.n_x != spec.n_s or spec.n_x > 2:
        return _fail(
            "brute force comparison supports n_x = n_s <= 2, "
            f"got ({spec.n_x}, {spec.n_s})"
        )
    stats = conditional_stats(spec)
    setup = spectral_setup(spec, stats)
    sol = solve_waterfill(spec, setup, args.delta)
    resolution = OracleResolution(
        eig_points=args.resolution, angle_points=args.angle_points
    )
    oracle = brute_force_rdf(spec, args.delta, resolution)

    # Resolution-derived tolerance: first-order in the eigenvalue step plus
    # second-order in the angle step (the search carries exact trace-boundary
    # candidates, so these dominate the grid error).
    eig_step = float(np.max(np.linalg.eigvalsh(stats.q_x_given_y))) / (
        resolution.eig_points - 1
    )
    angle_step = math.pi / resolution.angle_points if spec.n_x > 1 else 0.0
    tolerance = max(1e-9, 5.0 * eig_step + 5.0 * angle_step**2)

    gap = abs(oracle.rate - sol.rate)
    ok = gap <= tolerance
    unit = "bits" if args.bits else "nats"
    scale = LN2 if args.bits else 1.0
    doc = {
        "label": loaded.label,
        "delta": sol.delta,
        "rate_unit": unit,
        "rate_waterfill": sol.rate / scale,
        "rate_bruteforce": oracle.rate / scale,
        "rate_waterfill_nats": sol.rate,
        "rate_bruteforce_nats": oracle.rate,
        "gap_nats": gap,
        "tolerance_nats": tolerance,
        "feasible_points": oracle.feasible_points,
        "resolution": {
            "eig_points": resolution.eig_points,
            "angle_points": resolution.angle_points,
        },
        "pass": ok,
    }
    if args.format == "csv":
        lines = ["field,value"]
        for key in (
            "delta",
            "rate_waterfill_nats",
            "rate_bruteforce_nats",
            "gap_nats",
            "tolerance_nats",
        ):
            lines.append(f"{key},{_sig17(doc[key])}")
        lines.append(f"feasible_points,{oracle.feasible_points}")
        lines.append(f"pass,{'true' if ok else 'false'}")
        _emit("\n".join(lines))
    else:
        _emit_json(doc)
    return 0 if ok else 3


def cmd_remark3(args) -> int:
    rows = remark3_discrepancy(args.q, _parse_grid(args))
    if args.format == "csv":
        lines = [REMARK3_HEADER]
        for r in rows:
            lines.append(
                ",".join(
                    [
                        _sig17(r.delta),
                        _sig17(r.prior_noise_variance),
                        _sig17(r.prior_z_variance),
                        _sig17(r.wyner_h),
                        _sig17(r.wyner_q_w),
                        _sig17(r.wyner_z_variance),
                        "true" if r.divergent else "false",
                    ]
                )
            )
        _emit("\n".join(lines))
    else:
        _emit_json(
            {
                "q": args.q,
                "rows": [dataclasses.asdict(r) for r in rows],
            }
        )
    return 0


def _add_format(parser, default: str) -> None:
    parser.add_argument(
        "--format",
        choices=["csv", "json", "json-like"],
        default=default,
        help=f"output format (default: {default}); json-like is an alias for json",
    )
    parser.add_argument(
        "--bits",
        action="store_true",
        help="report headline rates in bits (both units always appear in the data)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remoterdf",
        description=(
            "Conditional rate-distortion for Gaussian remote sources with "
            "decoder side information."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="sweep the rate-distortion curve")
    curve.add_argument("spec", help="source-spec JSON file")
    curve.add_argument("--delta-min", type=float)
    curve.add_argument("--delta-max", type=float)
    curve.add_argument("--points", type=int)
    curve.add_argument("--deltas", help="comma-separated ascending distortion grid")
    _add_format(curve, default="csv")
    curve.set_defaults(handler=cmd_curve)

    channel = sub.add_parser("channel", help="optimal test channel at one distortion")
    channel.add_argument("spec", help="source-spec JSON file")
    channel.add_argument("--delta", type=float, required=True)
    _add_format(channel, default="json")
    channel.set_defaults(handler=cmd_channel)

    verify = sub.add_parser("verify", help="structural residuals + Monte Carlo check")
    verify.add_argument("spec", help="source-spec JSON file")
    verify.add_argument("--delta", type=float, required=True)
    verify.add_argument("--samples", type=int, default=100_000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--inject-h-perturbation", type=float, default=0.0, help=argparse.SUPPRESS
    )
    _add_format(verify, default="json")
    verify.set_defaults(handler=cmd_verify)

    oracle = sub.add_parser("oracle", help="water-filling vs brute-force comparison")
    oracle.add_argument("spec", help="source-spec JSON file")
    oracle.add_argument("--delta", type=float, required=True)
    oracle.add_argument(
        "--resolution", type=int, default=400, help="grid points per eigenvalue axis"
    )
    oracle.add_argument("--angle-points", type=int, default=180)
    _add_format(oracle, default="json")
    oracle.set_defaults(handler=cmd_oracle)

    remark3 = sub.add_parser(
        "remark3", help="prior-work vs correct test channel comparison table"
    )
    remark3.add_argument("--q", type=float, required=True, help="conditional variance")
    remark3.add_argument("--deltas", help="comma-separated distortion grid")
    remark3.add_argument("--delta-min", type=float)
    remark3.add_argument("--delta-max", type=float)
    remark3.add_argument("--points", type=int)
    _add_format(remark3, default="csv")
    remark3.set_defaults(handler=cmd_remark3)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    args.format = "json" if args.format == "json-like" else args.format
    try:
        return args.handler(args)
    except (RemoteRdfError, ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
