"""One workload in a fresh process: set-up, one warm-up pass, then timed passes.

Usage:
    worker.py probe MANIFEST SPAWN_TIME
        Set up as a run would (import numpy and remoterdf, load and validate
        the workload's spec files) and print the seconds since SPAWN_TIME.
    worker.py run MANIFEST SECONDS TRACE TRACE_OUT
        Run whole passes of the manifest's operation list for about SECONDS,
        ending at the pass boundary nearest to it, check every output, and
        print one JSON result line.

SPAWN_TIME is the parent's time.monotonic() just before it started the
probe.  The parent pins BLAS to one thread in the environment.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
WARMUP = -2   # tracer phase of the untimed warm-up pass
CLI_TIMEOUT_S = 120


def setup(manifest: dict) -> dict:
    """Import remoterdf and load every spec file of the manifest through it."""
    import remoterdf  # noqa: F401  (the package import is part of set-up)
    from remoterdf import specfile

    if manifest["workload"] == "cli":
        import remoterdf.cli  # noqa: F401

    return {name: specfile.load_spec_file(e["path"]).spec
            for name, e in manifest["specs"].items()}


# ------------------------------------------------------------ operations
# Each executor is the timed part of one operation; its output is checked
# after the clock stops.  Calls go through module attributes so that the
# tracer's wrappers are the ones called.


def _run_curve(specs, op):
    from remoterdf import waterfill

    return waterfill.rdf_curve(specs[op["spec"]], op["deltas"])


def _run_channel(specs, op):
    from remoterdf import channel, core, waterfill

    spec = specs[op["spec"]]
    stats = core.conditional_stats(spec)
    setup_ = waterfill.spectral_setup(spec, stats)
    waterfill.distortion_range(spec, setup_)
    sol = waterfill.solve_waterfill(spec, setup_, op["delta"])
    ch = channel.build_channel(spec, stats, sol.sigma_delta)
    return ch, channel.rate_of_channel(spec, ch), channel.verify_structure(spec, ch)


def _run_oracle(specs, op):
    from remoterdf import core, oracle, waterfill

    spec = specs[op["spec"]]
    result = oracle.brute_force_rdf(spec, op["delta"])
    stats = core.conditional_stats(spec)
    sol = waterfill.solve_waterfill(spec, waterfill.spectral_setup(spec, stats), op["delta"])
    return result, sol


EXECUTORS = {"curve": _run_curve, "channel": _run_channel, "oracle": _run_oracle}


class CliRunner:
    """Runs each CLI command in a fresh interpreter; traced through tracelaunch.py."""

    def __init__(self, spans_path: Path | None):
        self.spans_path = spans_path

    def __call__(self, _specs, op):
        if self.spans_path is None:
            argv = [sys.executable, "-m", "remoterdf.cli", *op["argv"]]
        else:
            argv = [sys.executable, str(HERE / "tracelaunch.py"), repr(time.monotonic()),
                    str(self.spans_path), "--", *op["argv"]]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def take_spans(self) -> dict:
        """Spans and start-up time the last traced command wrote, if it got that far."""
        try:
            doc = json.loads(self.spans_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return {"spans": [], "absent": [], "startup_s": None}
        self.spans_path.unlink()
        return doc


# The worker imports `workloads`, and with it numpy, only when it first
# checks an output; see run() for why the CLI worker checks late.


def _references(manifest: dict) -> dict:
    import workloads

    return workloads.references(manifest)


def _problems(refs, op, out) -> list[str]:
    """Problems with one operation's output; an exception it raised is one."""
    import workloads

    if isinstance(out, Exception):
        return [f"raised {out!r}"]
    return workloads.check_output(refs, op, out)


def _peak_rss_mb(children: bool) -> float:
    """Peak resident memory of this process, or of its largest child.

    A process's ru_maxrss starts from the resident set of the process that
    forked it, so this process reads its own VmHWM instead, which counts only
    the program it runs.
    """
    if children:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0


def _trimmed_mean(values: list[float], cut: float = 0.2) -> float:
    """Mean of `values` without the `cut` share of them at each end."""
    k = int(cut * len(values))
    return statistics.fmean(sorted(values)[k:len(values) - k])


# ------------------------------------------------------------------ main


def probe(manifest_path: str, spawn_time: str) -> None:
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    setup(manifest)
    print(repr(time.monotonic() - float(spawn_time)))


def run(manifest_path: str, seconds: str, trace: str, trace_out: str) -> None:
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    ops = manifest["ops"]
    traced = trace == "1"
    tracer = runner = None
    if manifest["workload"] == "cli":
        specs = {}
        runner = CliRunner(Path(trace_out).with_suffix(".child.json") if traced else None)
        execute = runner
    else:
        import remoterdf  # noqa: F401  (the wrappers go in before the spec files are read)

        if traced:
            tracer = tracing.Tracer()
            tracer.install()
        specs = setup(manifest)
        execute = EXECUTORS[ops[0]["kind"]]
    # The CLI worker checks its commands' outputs only after the timed
    # passes.  Until then it does not import numpy, so it stays small, and
    # each child's ru_maxrss, which starts from this process's resident set,
    # measures the child.
    refs = None if runner else _references(manifest)

    def attempt(op):
        """Time one operation: (seconds, its output or the exception it raised)."""
        t0 = time.perf_counter()
        try:
            out = execute(specs, op)
        except Exception as exc:  # a refusal or crash of one operation is a failure
            out = exc
        return time.perf_counter() - t0, out

    if tracer:
        tracer.phase = WARMUP
    for op in ops:
        attempt(op)
        if runner and traced:
            runner.take_spans()

    op_times: list[float] = []
    passes = 0
    pass_s = 0.0   # wall time of the last pass
    by_command: dict[str, list[float]] = {}
    children: list[dict] = []
    outcomes: list[tuple] = []   # (op index, op, problems, or the output still to check)
    start = time.monotonic()
    # Whole passes, stopping at the pass boundary nearest to SECONDS.
    while not passes or time.monotonic() - start + pass_s / 2 < float(seconds):
        if tracer:
            tracer.phase = passes
        pass_start = time.monotonic()
        for i, op in enumerate(ops):
            dt, out = attempt(op)
            op_times.append(dt)
            if runner:
                by_command.setdefault(op["command"], []).append(dt)
                if traced:
                    children.append(runner.take_spans())
                outcomes.append((i, op, out))
            else:
                outcomes.append((i, op, _problems(refs, op, out)))
        passes += 1
        pass_s = time.monotonic() - pass_start
    peak_rss_mb = _peak_rss_mb(children=runner is not None)

    if runner:
        refs = _references(manifest)
        outcomes = [(i, op, _problems(refs, op, out)) for i, op, out in outcomes]
    failed = sum(1 for _, _, problems in outcomes if problems)
    unexpected = [f"op {i} ({op.get('command', op['kind'])}): {problems}"
                  for i, op, problems in outcomes if problems and op.get("fault") is None]

    # The host's speed switches between fast and slow spells of a few seconds.
    # Means over the run weigh each spell by its length, where a median of
    # single timings jumps from one spell's figures to the other's as their
    # shares cross one half.  So each operation of the list is timed by its
    # trimmed mean over the passes, which also drops a rare stall, and
    # op_p50_ms is the median of those.
    per_op_ms = [1e3 * _trimmed_mean(op_times[i::len(ops)]) for i in range(len(ops))]
    metrics = {
        "ops_per_s": len(op_times) / sum(op_times),
        "op_p50_ms": statistics.median(per_op_ms),
        "peak_rss_mb": peak_rss_mb,
    }
    result = {
        "correct": not unexpected,
        "attempted": len(op_times),
        "failed": failed,
        "passes": passes,
        "problems": unexpected[:10],
        "metrics": metrics,
        "op_times_ms": [round(1e3 * t, 4) for t in op_times],
    }
    if traced:
        if tracer:
            span_sets, absent = [tracer.spans], tracer.absent
        else:
            span_sets = [c["spans"] for c in children]
            absent = sorted({name for c in children for name in c["absent"]})
        layers = tracing.layer_metrics(span_sets, passes, len(ops))
        layers["cli.startup_ms"] = 1e3 * tracing.median_or_zero(
            [c["startup_s"] for c in children if c["startup_s"] is not None])
        for command in tracing.CLI_COMMANDS:
            walls = by_command.get(command, [])
            per_pass = len(walls) // passes   # invocations of the command in one pass
            layers[f"cli.{command}.wall_ms"] = 1e3 * tracing.median_or_zero(
                [sum(walls[k:k + per_pass]) for k in range(0, len(walls), per_pass or 1)])
        layers["trace.op_p50_ms"] = metrics["op_p50_ms"]
        result["layers"] = layers
        result["absent"] = absent
        Path(trace_out).write_text(
            json.dumps({"workload": manifest["workload"], "seed": manifest["seed"],
                        "passes": passes, "absent": absent, "spans": span_sets}),
            encoding="utf-8")
    print(json.dumps(result))


if __name__ == "__main__":
    mode, *args = sys.argv[1:]
    {"probe": probe, "run": run}[mode](*args)
