"""The four workloads: fixed operation lists built from a seed, and their checks.

`build` writes a workload's spec files and returns its manifest: the specs
and the operation list one pass runs.  The `check_*` functions compare one
operation's output with the reference of `reference.py`, or with a property
the method must have, and return the problems found (empty when the output
is right).  Nothing here imports remoterdf.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import instances
import reference

WORKLOADS = ("curve-sweep", "channel-verify", "oracle-grid", "cli")

CURVE_SIZES = (1, 2, 8, 32, 64)
CURVE_POINTS = 200
CURVE_REPEATS = 2
CHANNEL_SIZES = (1, 2, 4, 8, 16, 32, 64)
CHANNEL_FRACTIONS = (0.1, 0.5, 0.9)
# Above delta_plus the channel has zero rate.  verify_structure fails such
# channels at random for n >= 2 (see CHANGES.md), so only n = 1 goes there.
CHANNEL_ABOVE = 1.2
SCALES = (1e8, 1e-8)
FIXED_SEED = 20210830      # seed of the fixed, seed-independent instances
ORACLE_FRACTIONS = (0.55, 0.7, 0.85)
MC_SAMPLES = 1_000_000

RATE_RTOL = 1e-9           # rates vs the reference, relative to max(R, 1 nat)
DIST_RTOL = 1e-9           # distortions, relative to delta_plus
MC_SIGMAS = 5.0            # Monte Carlo deviation allowed, in analytic standard errors


def _fraction(ref: reference.Reference, f: float) -> float:
    return ref.delta_minus + f * (ref.delta_plus - ref.delta_minus)


def _sweep_grid(ref: reference.Reference, points: int) -> list[float]:
    """From 1.5 % of the range below delta_minus to 1.5 % above delta_plus.

    No point falls within 0.04 % of the range of either boundary, so the
    feasibility flag of every point is unambiguous.
    """
    width = ref.delta_plus - ref.delta_minus
    lo = ref.delta_minus - 0.015 * width
    hi = ref.delta_plus + 0.015 * width
    return [float(d) for d in np.linspace(lo, hi, points)]


class _Specs:
    """Writes spec files into one directory and names them in the manifest."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.entries: dict[str, dict] = {}
        self.refs: dict[str, reference.Reference] = {}

    def add(self, name: str, q, dims: tuple[int, int, int]) -> reference.Reference:
        q = np.asarray(q, dtype=float)
        self.entries[name] = instances.write_spec(self.outdir / f"{name}.json", q, dims, name)
        self.refs[name] = reference.reference(q, dims)
        return self.refs[name]

    def add_generated(self, name: str, rng: np.random.Generator, n: int) -> reference.Reference:
        dims = (n, n, instances.side_dim(n))
        return self.add(name, instances.generate(rng, n, dims[2]), dims)


def _curve_sweep(specs: _Specs, rng) -> list[dict]:
    ops = []
    for rep in range(CURVE_REPEATS):
        for n in CURVE_SIZES:
            name = f"n{n}-{rep}"
            ref = specs.add_generated(name, rng, n)
            ops.append({"kind": "curve", "spec": name, "deltas": _sweep_grid(ref, CURVE_POINTS)})
    return ops


def _wyner(q_xy: float, c: float = 1.0, q_y: float = 2.0) -> np.ndarray:
    """X = S almost surely with Q_{X|Y} = q_xy."""
    q0 = q_xy + c * c / q_y
    return np.array([[q0, q0, c], [q0, q0, c], [c, c, q_y]])


def _channel_verify(specs: _Specs, rng) -> list[dict]:
    ops = []
    for n in CHANNEL_SIZES:
        ref = specs.add_generated(f"n{n}", rng, n)
        fractions = CHANNEL_FRACTIONS + ((CHANNEL_ABOVE,) if n == 1 else ())
        for f in fractions:
            ops.append({"kind": "channel", "spec": f"n{n}", "delta": _fraction(ref, f)})
    # Degenerate limits with closed forms, independent of the seed.
    specs.add("wyner", _wyner(0.8), (1, 1, 1))
    ops.append({"kind": "channel", "spec": "wyner", "delta": 0.4, "closed_form": ["wyner", 0.8]})
    specs.add("classical", [[1.5, 1.5, 0.0], [1.5, 1.5, 0.0], [0.0, 0.0, 1.0]], (1, 1, 1))
    ops.append(
        {"kind": "channel", "spec": "classical", "delta": 0.6, "closed_form": ["classical", 1.5]}
    )
    # Fixed instances in large and small units.  They do not depend on the
    # seed: today they fail every time (absolute STRUCT_TOL at 1e8, the
    # eigenvalue floor of gaussian_cmi at 1e-8), and are counted as failed.
    fixed8 = instances.generate(np.random.default_rng(FIXED_SEED), 8, instances.side_dim(8))
    for scale in SCALES:
        tag = f"{scale:.0e}"
        ref = specs.add(f"readme-x{tag}", np.array(instances.README_SCALAR) * scale, (1, 1, 1))
        ops.append({"kind": "channel", "spec": f"readme-x{tag}", "delta": 0.375 * scale,
                    "fault": "scale"})
        ref = specs.add(f"fixed8-x{tag}", fixed8 * scale, (8, 8, instances.side_dim(8)))
        ops.append({"kind": "channel", "spec": f"fixed8-x{tag}", "delta": _fraction(ref, 0.5),
                    "fault": "scale"})
    return ops


def _oracle_grid(specs: _Specs, rng) -> list[dict]:
    ops = []
    for i, f in enumerate(ORACLE_FRACTIONS):
        ref = specs.add_generated(f"n2-{i}", rng, 2)
        ops.append({"kind": "oracle", "spec": f"n2-{i}", "delta": _fraction(ref, f)})
    return ops


def _cli(specs: _Specs, rng) -> list[dict]:
    def cmd(command, argv, **check):
        return {"kind": "cli", "command": command, "argv": [command, *argv], **check}

    scalar = specs.add("scalar", instances.README_SCALAR, (1, 1, 1))
    n2 = specs.add_generated("n2", rng, 2)
    n8 = specs.add_generated("n8", rng, 8)
    path = {name: entry["path"] for name, entry in specs.entries.items()}
    grid = _sweep_grid(scalar, 1000)
    width8 = n8.delta_plus - n8.delta_minus
    lo8, hi8 = n8.delta_minus + 0.05 * width8, n8.delta_plus + 0.05 * width8
    q = float(rng.uniform(0.5, 2.0))
    mc_seed = int(rng.integers(0, 2**31))
    remark_deltas = [q * k / 10 for k in range(1, 10)] + [q]
    return [
        cmd("curve", [path["scalar"], "--delta-min", repr(grid[0]), "--delta-max",
                      repr(grid[-1]), "--points", "1000"], spec="scalar"),
        cmd("curve", [path["n8"], "--delta-min", repr(lo8), "--delta-max", repr(hi8),
                      "--points", "200"], spec="n8"),
        cmd("channel", [path["n2"], "--delta", repr(_fraction(n2, 0.5))], spec="n2"),
        cmd("verify", [path["scalar"], "--delta", "0.375", "--samples", str(MC_SAMPLES),
                       "--seed", str(mc_seed)], spec="scalar"),
        cmd("verify", [path["n8"], "--delta", repr(_fraction(n8, 0.5)), "--samples",
                       str(MC_SAMPLES), "--seed", str(mc_seed)], spec="n8"),
        cmd("oracle", [path["scalar"], "--delta", "0.375"], spec="scalar"),
        cmd("remark3", ["--q", repr(q), "--deltas", ",".join(repr(d) for d in remark_deltas)],
            q=q),
    ]


_OPERATION_LISTS = {
    "curve-sweep": _curve_sweep,
    "channel-verify": _channel_verify,
    "oracle-grid": _oracle_grid,
    "cli": _cli,
}


def build(workload: str, seed: int, outdir: Path) -> dict:
    """Write the workload's spec files into `outdir` and return its manifest."""
    outdir.mkdir(parents=True, exist_ok=True)
    specs = _Specs(outdir)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _OPERATION_LISTS[workload](specs, rng)
    manifest = {"workload": workload, "seed": seed, "specs": specs.entries, "ops": ops}
    (outdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest


def references(manifest: dict) -> dict[str, reference.Reference]:
    """Reference of every spec in the manifest, read back from its file."""
    return {
        name: reference.reference(*instances.read_spec(entry))
        for name, entry in manifest["specs"].items()
    }


# ---------------------------------------------------------------- checks


def _rate_problem(what: str, got, want: float) -> list[str]:
    if got is None or not math.isfinite(got) or abs(got - want) > RATE_RTOL * max(want, 1.0):
        return [f"{what} {got!r} != reference {want!r}"]
    return []


def check_curve(ref: reference.Reference, deltas, rows) -> list[str]:
    """`rows` are (delta, rate or None, feasible) triples, one per grid point."""
    problems = []
    if len(rows) != len(deltas):
        return [f"{len(rows)} curve points for a grid of {len(deltas)}"]
    rates = []
    for want_delta, (delta, rate, feasible) in zip(deltas, rows):
        if delta != want_delta:
            problems.append(f"curve point at {delta!r}, expected {want_delta!r}")
        below = want_delta <= ref.delta_minus
        if feasible == below:
            problems.append(f"feasible={feasible} at {want_delta!r} (delta_minus {ref.delta_minus!r})")
            continue
        if below:
            continue
        if want_delta >= ref.delta_plus and rate != 0.0:
            problems.append(f"rate {rate!r} above delta_plus at {want_delta!r}")
        problems += _rate_problem(f"rate at {want_delta!r}", rate, ref.rate(want_delta))
        rates.append(rate)
    if problems:
        return problems[:5]
    # Monotone non-increasing and convex on the (uniform) feasible grid.
    r = np.array(rates)
    slack = RATE_RTOL * max(float(np.max(r, initial=0.0)), 1.0)
    if np.any(np.diff(r) > slack):
        problems.append("curve is not monotone non-increasing")
    if r.size > 2 and np.any(r[2:] - 2 * r[1:-1] + r[:-2] < -4 * slack):
        problems.append("curve is not convex")
    return problems


def check_channel(ref: reference.Reference, delta: float, rate: float, rate_alt: float,
                  h, g, q_w, structural_pass: bool, closed_form=None) -> list[str]:
    problems = []
    want = ref.rate(delta)
    problems += _rate_problem("rate", rate, want)
    problems += _rate_problem("alternative rate", rate_alt, want)
    if closed_form is not None:
        form, q = closed_form
        exact = (reference.wyner_rate if form == "wyner" else reference.classical_rate)(q, delta)
        problems += _rate_problem(f"{form} reference", want, exact)
    achieved = float(np.trace(ref.error_covariance(np.asarray(h), np.asarray(g), np.asarray(q_w))))
    target = min(delta, ref.delta_plus)
    if abs(achieved - target) > DIST_RTOL * ref.delta_plus:
        problems.append(f"channel distortion {achieved!r} != {target!r}")
    if not structural_pass:
        problems.append("structural verdict is fail")
    return problems


def check_oracle(ref: reference.Reference, delta: float, rate_waterfill: float,
                 rate_oracle: float, eig_points: int, angle_points: int) -> list[str]:
    """The grid search may not beat the optimum, and must come within cmd_oracle's tolerance."""
    want = ref.rate(delta)
    problems = _rate_problem("water-filling rate", rate_waterfill, want)
    eig_step = float(np.max(np.linalg.eigvalsh(ref.q_x_given_y))) / (eig_points - 1)
    angle_step = math.pi / angle_points if ref.n_x > 1 else 0.0
    tolerance = max(1e-9, 5.0 * eig_step + 5.0 * angle_step**2)
    if rate_oracle < want - RATE_RTOL * max(want, 1.0):
        problems.append(f"oracle rate {rate_oracle!r} beats the optimum {want!r}")
    if rate_oracle > want + tolerance:
        problems.append(f"oracle rate {rate_oracle!r} exceeds {want!r} by more than {tolerance!r}")
    return problems


def check_output(refs: dict, op: dict, out) -> list[str]:
    """Problems with the output of one operation, as the worker's executor returns it."""
    kind = op["kind"]
    if kind == "curve":
        rows = [(p.delta, p.rate, p.feasible) for p in out.points]
        return check_curve(refs[op["spec"]], op["deltas"], rows)
    if kind == "channel":
        ch, rates, report = out
        return check_channel(refs[op["spec"]], op["delta"], rates.rate, rates.rate_alt,
                             ch.h, ch.g, ch.q_w, report.all_pass, op.get("closed_form"))
    if kind == "oracle":
        result, sol = out
        res = result.resolution
        return check_oracle(refs[op["spec"]], op["delta"], sol.rate, result.rate,
                            res.eig_points, res.angle_points)
    code, stdout, stderr = out
    problems = check_cli(op, refs, code, stdout)
    if problems and stderr.strip():
        problems.append(f"stderr: {stderr.strip().splitlines()[-1]}")
    return problems


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _opt(field: str):
    return float(field) if field else None


def check_cli(op: dict, refs: dict, code: int, stdout: str) -> list[str]:
    """Exit code and parsed output of one CLI command."""
    command = op["command"]
    ref = refs.get(op.get("spec"))
    argv = op["argv"]

    def arg(flag):
        return float(argv[argv.index(flag) + 1])

    try:
        if command == "curve":
            rows = _csv_rows(stdout)
            deltas = [float(d) for d in np.linspace(arg("--delta-min"), arg("--delta-max"),
                                                    int(arg("--points")))]
            parsed = [(float(r["delta"]), _opt(r["rate_nats"]), r["feasible"] == "true")
                      for r in rows]
            want_code = 2 if any(d <= ref.delta_minus for d in deltas) else 0
            problems = [] if code == want_code else [f"exit {code}, expected {want_code}"]
            return problems + check_curve(ref, deltas, parsed)
        if code != 0:
            return [f"exit {code}, expected 0"]
        if command == "remark3":
            problems = []
            for r in _csv_rows(stdout):
                delta = float(r["delta"])
                prior, h = reference.remark3_row(op["q"], delta)
                got_prior = float(r["prior_noise_variance"])
                if not (got_prior == prior or abs(got_prior - prior) <= 1e-12 * prior):
                    problems.append(f"prior noise {got_prior!r} != {prior!r} at {delta!r}")
                if abs(float(r["wyner_h"]) - h) > 1e-12:
                    problems.append(f"h {r['wyner_h']} != {h!r} at {delta!r}")
                if abs(float(r["wyner_q_w"]) - h * delta) > 1e-12 * op["q"]:
                    problems.append(f"q_w {r['wyner_q_w']} != {h * delta!r} at {delta!r}")
            return problems
        doc = json.loads(stdout)
        delta = float(doc["delta"])
        if command == "channel":
            ch = doc["channel"]
            return check_channel(ref, delta, doc["rates"]["nats"], doc["rates"]["alt_nats"],
                                 ch["h"], ch["g"], ch["q_w"], doc["structural_pass"])
        if command == "verify":
            mc = doc["monte_carlo"]
            sigma = ref.sigma(delta)
            se = reference.mc_standard_error(sigma, doc["n_samples"])
            problems = [] if doc["verdict"] == "pass" else ["verdict is fail"]
            deviation = abs(mc["empirical_distortion"] - float(np.trace(sigma)))
            if deviation > MC_SIGMAS * se:
                problems.append(f"empirical distortion off by {deviation / se:.2f} standard errors")
            return problems
        if command == "oracle":
            res = doc["resolution"]
            problems = [] if doc["pass"] else ["oracle comparison is fail"]
            return problems + check_oracle(ref, delta, doc["rate_waterfill_nats"],
                                           doc["rate_bruteforce_nats"], res["eig_points"],
                                           res["angle_points"])
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unparsable {command} output: {exc!r}"]
    return [f"unknown command {command!r}"]
