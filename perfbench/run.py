"""Benchmark of remoterdf: four closed-loop workloads, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One workload.  The last line of stdout is one JSON object with keys
        correct, attempted, failed and metrics: the end-to-end metrics with
        --trace 0, the per-layer metrics of a traced run with --trace 1.
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
        Every workload, printed as a table.  With --trace 1 each workload is
        also run traced and the tracing overhead is printed.

The workload's spec files are generated from the seed before any workload
process starts.  BLAS is pinned to one thread in this process and every
process it starts.  Results and traces go to perfbench/out/.
"""

from __future__ import annotations

import os

# Before numpy is imported, here and (through the environment) in every child.
PIN_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PIN_BLAS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4   # set-up probes before the workload process, and as many after
RUN_LIMIT_S = 170   # every run ends within this, set-up and warm-up included

END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("calls_per_op"):
        return "calls/op"
    if name.endswith("_per_s"):
        return "1/s"
    return "ms"


def _child_env() -> dict:
    env = dict(os.environ, **PIN_BLAS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: list[str], deadline: float) -> str:
    """Run a child to completion before `deadline` and return its stdout.

    The child leads its own process group, so a timeout also kills the CLI
    commands a workload process may have running.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("run time limit reached")
    with subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, preexec_fn=os.setpgrp) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchmarkError(f"{argv[2]} timed out") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{err}")
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Generate, probe set-up, run one worker; return the result line's object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    rundir = OUT / f"run-{workload}-{seed}-{os.getpid()}"
    worker = str(HERE / "worker.py")
    try:
        workloads.build(workload, seed, rundir)
        manifest = str(rundir / "manifest.json")
        setups = []

        def probe_setup():
            # Probes spread over the run, so a slow spell of the host weighs less.
            for _ in range(0 if trace else SETUP_PROBES):
                out = _spawn([sys.executable, worker, "probe", manifest, repr(time.monotonic())],
                             deadline)
                setups.append(float(out.split()[-1]))

        probe_setup()
        trace_out = OUT / f"trace-{workload}-{seed}.json"
        out = _spawn([sys.executable, worker, "run", manifest, str(seconds), str(int(trace)),
                      str(trace_out)], deadline)
        probe_setup()
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    raw = json.loads(out.strip().splitlines()[-1])
    if trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in raw["layers"].items()}
    else:
        values = dict(raw["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for problem in raw["problems"]:
        print(f"{workload}: unexpected failure: {problem}", file=sys.stderr)
    if raw.get("absent"):
        print(f"{workload}: absent functions: {', '.join(raw['absent'])}", file=sys.stderr)
    result = {key: raw[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    (OUT / f"result-{workload}-{seed}-t{int(trace)}.json").write_text(
        json.dumps(dict(raw, result=result, setup_samples_s=setups)), encoding="utf-8")
    return result


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    results = {}
    header = f"{'workload':<15}" + "".join(f"{n + ' (' + u + ')':>20}" for n, u in END_TO_END.items())
    print(header + f"{'attempted':>11}{'failed':>8}{'correct':>9}")
    for workload in workloads.WORKLOADS:
        res = run_workload(workload, seed, seconds, False)
        row = "".join(f"{res['metrics'][n]['value']:>20.6g}" for n in END_TO_END)
        print(f"{workload:<15}{row}{res['attempted']:>11}{res['failed']:>8}{str(res['correct']):>9}",
              flush=True)
        results[workload] = res
        if trace:
            traced = run_workload(workload, seed, seconds, True)
            plain = res["metrics"]["op_p50_ms"]["value"]
            with_trace = traced["metrics"]["trace.op_p50_ms"]["value"]
            print(f"{'':<15}traced op_p50_ms {with_trace:.6g}: tracing overhead "
                  f"{100.0 * (with_trace / plain - 1.0):+.1f} %", flush=True)
            results[workload + ":traced"] = traced
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "remoterdf" / "__init__.py").is_file():
        print(f"error: no remoterdf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
