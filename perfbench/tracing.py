"""Spans around remoterdf's public functions, installed from outside the package.

`Tracer.install` wraps each function in FUNCTIONS and puts the wrapper into
every loaded remoterdf module namespace that holds a reference to the
original, so calls between modules (waterfill calling
core.conditional_stats, say) are traced too.  A function that is missing is
reported as absent and left alone.  Spans are kept in memory as
[id, parent, name, phase, start, end, work] and written out at the end.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

FUNCTIONS = {
    "core": ("validate_spec", "conditional_stats", "symmetric_sqrt", "pseudo_inverse",
             "gaussian_cmi"),
    "specfile": ("load_spec_file",),
    "waterfill": ("spectral_setup", "distortion_range", "solve_waterfill", "rdf_curve"),
    "channel": ("build_channel", "joint_with_reproduction", "verify_structure",
                "rate_of_channel", "simulate_channel"),
    "oracle": ("brute_force_rdf",),
}
NAMES = tuple(f"{module}.{fn}" for module, fns in FUNCTIONS.items() for fn in fns)
CLI_COMMANDS = ("curve", "channel", "verify", "oracle", "remark3")

SETUP = -1   # phase of spans recorded before the first pass


def _samples(args, kwargs) -> int:
    return int(kwargs["n_samples"] if "n_samples" in kwargs else args[2])


def _candidates(args, kwargs) -> int:
    """Grid candidates one brute_force_rdf call examines, computed from its resolution."""
    spec = args[0]
    res = kwargs.get("resolution", args[2] if len(args) > 2 else None)
    res = res or sys.modules["remoterdf.oracle"].OracleResolution()
    return res.eig_points**2 * res.angle_points if spec.n_x == 2 else res.eig_points


WORK = {"channel.simulate_channel": _samples, "oracle.brute_force_rdf": _candidates}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.phase = SETUP
        self._stack: list[int] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "remoterdf" or name.startswith("remoterdf."))]
        for name in NAMES:
            module, fn = name.split(".")
            original = getattr(sys.modules.get(f"remoterdf.{module}"), fn, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, WORK.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, self.phase, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(span[0])
            span[4] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
                if work is not None:
                    span[6] = work(args, kwargs)

        return wrapper


def layer_metrics(span_sets, passes: int, ops_per_pass: int) -> dict[str, float]:
    """Per-function metrics from spans of one or more processes.

    `.calls` and `.self_ms` cover one set-up plus one pass: the set-up spans
    once, and the spans of the timed passes (phase >= 0) divided by `passes`.
    Self time is a span's duration minus the durations of its child spans.
    """
    calls = dict.fromkeys(NAMES, 0.0)
    self_s = dict.fromkeys(NAMES, 0.0)
    work = {name: [0, 0.0] for name in WORK}
    pass_calls = dict.fromkeys(NAMES, 0)
    for spans in span_sets:
        child_time = [0.0] * len(spans)
        for sid, parent, name, phase, start, end, amount in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, parent, name, phase, start, end, amount in spans:
            share = 1.0 if phase == SETUP else 1.0 / passes
            if phase == SETUP or phase >= 0:
                calls[name] += share
                self_s[name] += share * (end - start - child_time[sid])
            if phase >= 0:
                pass_calls[name] += 1
                if name in work:
                    work[name][0] += amount
                    work[name][1] += end - start
    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_ms"] = 1e3 * self_s[name]
    metrics["core.conditional_stats.calls_per_op"] = (
        pass_calls["core.conditional_stats"] / (passes * ops_per_pass)
    )
    for name, key in (("channel.simulate_channel", "samples_per_s"),
                      ("oracle.brute_force_rdf", "candidates_per_s")):
        amount, seconds = work[name]
        metrics[f"{name}.{key}"] = amount / seconds if seconds > 0 else 0.0
    return metrics


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0
