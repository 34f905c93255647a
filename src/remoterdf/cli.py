"""Command-line surface: curves, channels, verification, and oracle comparisons.

Subcommands:

    curve    sweep the rate-distortion curve over a distortion grid
    channel  synthesize the optimal test channel at one distortion
    verify   conditional-mean residual plus a Monte Carlo distortion check
    oracle   compare the water-filling rate against the brute-force search
    remark3  table contrasting the prior-work test channel with the correct one

Outputs are CSV (default for curve/remark3) or JSON (default otherwise);
numeric CSV fields carry 17 significant digits so parsing the output recovers
the records exactly.  `--bits` reports the headline rate of channel and
oracle in bits; on curve it only sets the JSON `rate_unit` label.  Exit
codes: 0 success, 1 bad input or infeasible request (usage errors,
non-finite grid bounds and `verify --samples` below MIN_SAMPLES included),
2 at least one curve point failed, 3 verification failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .channel import (STRUCT_TOL, optimal_channel, rate_of_channel, simulate_channel,
                      verify_structure)
from .errors import RemoteRdfError
from .oracle import OracleResolution, brute_force_rdf, remark3_discrepancy, require_grid_dimensions
from .specfile import load_spec_file
from .waterfill import rdf_curve, solve_waterfill

LN2 = math.log(2.0)
# Fewest Monte Carlo samples `verify` accepts.  Its check is judged against
# the standard error estimated from the same draw, which is itself noisy at
# small sample counts: at 2 samples correct channels fail about 30% of seeds.
MIN_SAMPLES = 1000

CURVE_HEADER = "delta,rate_nats,rate_bits,xi,active_count,feasible,error"
REMARK3_HEADER = (
    "delta,prior_noise_variance,prior_z_variance,"
    "wyner_h,wyner_q_w,wyner_z_variance,divergent"
)
# Test-channel matrices of `channel`, in the order its CSV lists them.
_CHANNEL_MATRICES = ("h", "g", "q_w", "sigma_delta", "q_xhat_given_y", "q_s_given_xhat_y")


def _cell(value) -> str:
    """One CSV field: None is empty, booleans are true/false, ints and strings
    are written as they are, and floats carry 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return format(value, ".17g")


def _render(args, doc: dict, header: str, rows) -> None:
    """Write `doc` as JSON, or `header` and `rows` as CSV, per --format."""
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True)
    else:
        text = "\n".join([header, *(",".join(map(_cell, row)) for row in rows)])
    sys.stdout.write(text + "\n")


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
    if not (math.isfinite(args.delta_min) and math.isfinite(args.delta_max)):
        raise ValueError("--delta-min and --delta-max must be finite")
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


def parse_curve_csv(text: str) -> list[dict]:
    """Inverse of `curve` CSV output; recovers the records exactly."""
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
    records = curve_records(rdf_curve(loaded.spec, _parse_grid(args)).points)
    doc = {
        "label": loaded.label,
        "rate_unit": "bits" if args.bits else "nats",
        "records": records,
    }
    _render(args, doc, CURVE_HEADER, [r.values() for r in records])
    return 0 if all(r["feasible"] for r in records) else 2


def _matrix(m: np.ndarray) -> list:
    return np.asarray(m, dtype=float).tolist()


def cmd_channel(args) -> int:
    loaded = load_spec_file(args.spec)
    spec = loaded.spec
    sol = solve_waterfill(spec, spec.stats, args.delta)
    lo, hi = spec.stats.delta_min, spec.stats.trace_xy
    ch = optimal_channel(spec, sol)
    rates = rate_of_channel(spec, ch)
    report = verify_structure(spec, ch)
    matrices = {name: _matrix(getattr(ch, name)) for name in _CHANNEL_MATRICES}
    doc = {
        "label": loaded.label,
        "delta": sol.delta,
        "delta_range": {"min": lo, "max": hi},
        "above_range": sol.above_range,
        "rate": rates.rate / LN2 if args.bits else rates.rate,
        "rate_unit": "bits" if args.bits else "nats",
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
        "channel": matrices,
        "decoder_only": {name: matrices[name] for name in ("h", "q_w", "g")},
        "structural_residuals": report.residuals,
        "structural_pass": report.all_pass,
    }
    rows = [
        ("delta", None, None, sol.delta),
        ("delta_min", None, None, lo),
        ("delta_max", None, None, hi),
        ("rate_nats", None, None, rates.rate),
        ("rate_bits", None, None, rates.rate / LN2),
        ("rate_alt_nats", None, None, rates.rate_alt),
        ("rate_discrepancy", None, None, rates.discrepancy),
        ("xi", None, None, sol.xi),
        ("active_count", None, None, sol.active_count),
        *((name, i, j, value) for name, m in matrices.items()
          for i, row in enumerate(m) for j, value in enumerate(row)),
        *((f"residual.{k}", None, None, v) for k, v in report.residuals.items()),
    ]
    _render(args, doc, "field,row,col,value", rows)
    return 0


def cmd_verify(args) -> int:
    if args.samples < MIN_SAMPLES:
        raise ValueError(f"--samples must be at least {MIN_SAMPLES}, got {args.samples}")
    loaded = load_spec_file(args.spec)
    spec = loaded.spec
    sol = solve_waterfill(spec, spec.stats, args.delta)
    ch = optimal_channel(spec, sol)
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
            "residual_tol": STRUCT_TOL,
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
    rows = [
        ("delta", sol.delta),
        ("n_samples", sim.n_samples),
        ("seed", sim.seed),
        ("trace_sigma_delta", trace_sigma),
        *((f"residual.{name}", value) for name, value in report.residuals.items()),
        ("empirical_distortion", sim.empirical_distortion),
        ("standard_error", sim.standard_error),
        ("verdict", doc["verdict"]),
    ]
    _render(args, doc, "field,value", rows)
    return 0 if verdict else 3


def cmd_oracle(args) -> int:
    loaded = load_spec_file(args.spec)
    spec = loaded.spec
    require_grid_dimensions(spec)  # before the solve, so its refusal is the one reported
    sol = solve_waterfill(spec, spec.stats, args.delta)
    resolution = OracleResolution(eig_points=args.resolution, angle_points=args.angle_points)
    oracle = brute_force_rdf(spec, args.delta, resolution)

    # Resolution-derived tolerance in nats: first-order in the eigenvalue
    # step, measured against the grid's span lambda_max(Q_{X|Y}) so that it is
    # free of the covariance's units, plus second-order in the angle step (the
    # search carries exact trace-boundary candidates, so these dominate the
    # grid error).
    angle_step = math.pi / resolution.angle_points if spec.n_x > 1 else 0.0
    tolerance = max(1e-9, 5.0 / (resolution.eig_points - 1) + 5.0 * angle_step**2)

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
    fields = ("delta", "rate_waterfill_nats", "rate_bruteforce_nats", "gap_nats",
              "tolerance_nats", "feasible_points", "pass")
    _render(args, doc, "field,value", [(key, doc[key]) for key in fields])
    return 0 if ok else 3


def cmd_remark3(args) -> int:
    rows = remark3_discrepancy(args.q, _parse_grid(args))
    doc = {"q": args.q, "rows": [dataclasses.asdict(r) for r in rows]}
    _render(args, doc, REMARK3_HEADER, [dataclasses.astuple(r) for r in rows])
    return 0


def _add_format(parser, default: str) -> None:
    parser.add_argument(
        "--format",
        choices=["csv", "json", "json-like"],
        default=default,
        help=f"output format (default: {default}); json-like is an alias for json",
    )


def non_negative_int(text: str) -> int:
    """argparse type of --seed, so a negative seed is a usage error naming the
    option rather than numpy's refusal inside the generator."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as bad input does: exit 2 means a curve point failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    verify = sub.add_parser("verify", help="conditional-mean residual + Monte Carlo check")
    verify.add_argument("spec", help="source-spec JSON file")
    verify.add_argument("--delta", type=float, required=True)
    verify.add_argument("--samples", type=int, default=100_000,
                        help=f"Monte Carlo samples, at least {MIN_SAMPLES} (default: 100000)")
    verify.add_argument("--seed", type=non_negative_int, default=0,
                        help="non-negative Monte Carlo seed (default: 0)")
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

    curve.add_argument(
        "--bits",
        action="store_true",
        help="label the JSON rate_unit as bits; records always carry both units",
    )
    for headline in (channel, oracle):
        headline.add_argument(
            "--bits",
            action="store_true",
            help="report headline rates in bits (both units always appear in the data)",
        )
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
