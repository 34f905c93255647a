"""Golden-output guard: recorded outputs the program must keep reproducing.

`golden/cli.json` holds every subcommand's stdout and exit code for fixed
inputs.  Non-float fields must match exactly; floats may differ by 1e-12
relative or 1e-12 absolute, which admits last-bit changes from refactoring
but nothing a reader of the output could notice.  `golden/rates.json` holds
water-filling rates on random instances (covariances stored in full), which
must agree to 1e-12 relative.  `golden/levels.json` holds the water level xi
and the active count of each `rdf_curve` point on those instances, at
distortions within 4 ulps of delta_min, delta_plus and every breakpoint
total, compared bit for bit; `test_levels_golden_against_50_digits` checks
those recorded levels against a 50-digit evaluation, so a re-recorded file
must earn its place.  Regenerate the files (after checking every difference)
with

    PYTHONPATH=src:tests python tests/test_golden.py [cli] [rates] [oracle] [levels]

which rewrites the named files, or all four when none is named.  Name only
the files meant to change: `rates` and `oracle` derive their distortions from
`distortion_range` and `cli` prints delta_min, so all three move whenever
delta_min moves in its last bits; `levels` is recorded on the instances of
the rates.json on disk.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from remoterdf.cli import main
from remoterdf.core import conditional_stats, validate_spec
from remoterdf.oracle import OracleResolution, brute_force_rdf
from remoterdf.waterfill import distortion_range, rdf_curve, solve_waterfill, spectral_setup

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
RATES = Path(__file__).parent / "golden" / "rates.json"
ORACLE = Path(__file__).parent / "golden" / "oracle.json"
LEVELS = Path(__file__).parent / "golden" / "levels.json"
RATE_DIMS = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 2), (6, 2),
             (8, 2), (8, 3)]
RATE_FRACTIONS = [0.001, 0.05, 0.3, 0.6, 0.9, 0.999]
FLOAT_TOL = 1e-12
# Oracle instances (grid, distortion fractions): eight on a coarse grid across
# the whole range, from below the default-resolution tolerance to above
# delta_plus, and two at the default resolution.
ORACLE_CASES = [((101, 45), [0.1, 0.3, 0.55, 0.85, 1.3])] * 8 + [((400, 180), [0.7])] * 2

SPECS = {
    # The README example: Q_{X|Y} = 0.5, Q_{S|Y} = 1, Q_{X,S|Y} = 0.5.
    "scalar": {
        "dims": {"n_x": 1, "n_s": 1, "n_y": 1},
        "covariance": [[1.0, 1.0, 1.0], [1.0, 1.5, 1.0], [1.0, 1.0, 2.0]],
        "label": "scalar-example",
    },
    # A fixed 2x2 instance; finite-rate range about (0.4354, 1.0827), with
    # both components active below about 0.523.
    "pair": {
        "dims": {"n_x": 2, "n_s": 2, "n_y": 1},
        "covariance": [
            [1.0, -0.2556, 0.0296, 0.582, 0.225],
            [-0.2556, 0.2499, -0.0887, -0.054, -0.2561],
            [0.0296, -0.0887, 0.2166, -0.2005, -0.053],
            [0.582, -0.054, -0.2005, 0.7988, 0.1242],
            [0.225, -0.2561, -0.053, 0.1242, 0.6949],
        ],
        "label": "pair-example",
    },
}

CASES = {
    "curve-scalar-csv": ["curve", "{scalar}", "--delta-min", "0.2", "--delta-max", "0.6",
                         "--points", "41"],
    "curve-scalar-json": ["curve", "{scalar}", "--deltas", "0.3,0.375,0.45,0.5",
                          "--format", "json"],
    # Below delta_min, NaN, inside the range and above delta_plus in one grid.
    "curve-scalar-mixed-csv": ["curve", "{scalar}", "--deltas", "0.2,0.3,nan,0.45,0.7"],
    "curve-scalar-mixed-json": ["curve", "{scalar}", "--deltas", "0.2,0.3,nan,0.45,0.7",
                                "--format", "json"],
    "curve-pair-csv": ["curve", "{pair}", "--delta-min", "0.4", "--delta-max", "1.1",
                       "--points", "15"],
    "curve-pair-json-bits": ["curve", "{pair}", "--delta-min", "0.4", "--delta-max", "1.1",
                             "--points", "8", "--format", "json", "--bits"],
    "channel-scalar-json": ["channel", "{scalar}", "--delta", "0.375"],
    "channel-scalar-csv": ["channel", "{scalar}", "--delta", "0.375", "--format", "csv"],
    "channel-scalar-upper": ["channel", "{scalar}", "--delta", "0.5"],
    "channel-scalar-lower": ["channel", "{scalar}", "--delta", "0.25"],
    "channel-scalar-above-csv": ["channel", "{scalar}", "--delta", "0.6", "--format", "csv"],
    "channel-pair-json": ["channel", "{pair}", "--delta", "0.48"],
    "channel-pair-csv": ["channel", "{pair}", "--delta", "0.8", "--format", "csv"],
    "verify-scalar-json": ["verify", "{scalar}", "--delta", "0.375", "--samples", "20000",
                           "--seed", "0"],
    "verify-scalar-csv": ["verify", "{scalar}", "--delta", "0.375", "--samples", "20000",
                          "--seed", "0", "--format", "csv"],
    "verify-pair-csv": ["verify", "{pair}", "--delta", "0.7", "--samples", "20000",
                        "--seed", "0", "--format", "csv"],
    "oracle-scalar-json": ["oracle", "{scalar}", "--delta", "0.375"],
    "oracle-scalar-csv": ["oracle", "{scalar}", "--delta", "0.3", "--format", "csv"],
    "oracle-pair-json": ["oracle", "{pair}", "--delta", "0.8", "--resolution", "101",
                         "--angle-points", "45"],
    "remark3-csv": ["remark3", "--q", "1.0", "--deltas", "0.5,0.9,0.99,1.0"],
    "remark3-json": ["remark3", "--q", "2.0", "--delta-min", "0.2", "--delta-max", "2.0",
                     "--points", "10", "--format", "json"],
}


def write_specs(directory: Path) -> dict:
    paths = {}
    for name, doc in SPECS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(path)
    return paths


def run_case(argv, paths) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([arg.format(**paths) for arg in argv])
    return code, out.getvalue()


def _token_mismatch(expected: str, actual: str) -> bool:
    try:
        return int(expected) != int(actual)
    except ValueError:
        pass
    try:
        return _float_mismatch(float(expected), float(actual))
    except ValueError:
        return expected != actual


def _float_mismatch(expected: float, actual: float) -> bool:
    if math.isnan(expected) or math.isnan(actual):
        return not (math.isnan(expected) and math.isnan(actual))
    return not math.isclose(expected, actual, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)


def json_mismatches(expected, actual, where="$") -> list[str]:
    if isinstance(expected, float) and isinstance(actual, float):
        return [where] if _float_mismatch(expected, actual) else []
    if type(expected) is not type(actual):
        return [where]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [where]
        return [m for k in expected for m in json_mismatches(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [where]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in json_mismatches(e, a, f"{where}[{i}]")]
    return [] if expected == actual else [where]


def csv_mismatches(expected: str, actual: str) -> list[str]:
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    if len(exp_lines) != len(act_lines):
        return ["line count"]
    found = []
    for row, (e, a) in enumerate(zip(exp_lines, act_lines)):
        e_tok, a_tok = e.split(","), a.split(",")
        if len(e_tok) != len(a_tok) or any(map(_token_mismatch, e_tok, a_tok)):
            found.append(f"line {row + 1}: expected {e!r}, got {a!r}")
    return found


def output_mismatches(expected: str, actual: str) -> list[str]:
    try:
        doc = json.loads(expected)
    except ValueError:
        return csv_mismatches(expected, actual)
    return json_mismatches(doc, json.loads(actual))


GOLDEN_DOC = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_golden_covers_every_case():
    assert sorted(GOLDEN_DOC) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    recorded = GOLDEN_DOC[name]
    assert recorded["argv"] == CASES[name]
    code, out = run_case(CASES[name], write_specs(tmp_path))
    assert code == recorded["code"]
    assert output_mismatches(recorded["stdout"], out) == []


def solve_rates(q, dims, deltas) -> list[float]:
    spec = validate_spec(np.array(q), tuple(dims))
    setup = spectral_setup(spec, conditional_stats(spec))
    return [solve_waterfill(spec, setup, delta).rate for delta in deltas]


RATES_DOC = json.loads(RATES.read_text(encoding="utf-8")) if RATES.exists() else []


@pytest.mark.parametrize("index", range(len(RATE_DIMS)))
def test_rates_match_golden(index):
    recorded = RATES_DOC[index]
    rates = solve_rates(recorded["covariance"], recorded["dims"], recorded["deltas"])
    for expected, actual in zip(recorded["rates"], rates, strict=True):
        assert actual == pytest.approx(expected, rel=FLOAT_TOL, abs=0.0)


def record_rates() -> list[dict]:
    from conftest import random_feasible_spec

    rng = np.random.default_rng(2108)
    instances = []
    for n, n_y in RATE_DIMS:
        spec = random_feasible_spec(rng, n, n_y)
        lo, hi = distortion_range(spec, spectral_setup(spec, conditional_stats(spec)))
        deltas = [lo + f * (hi - lo) for f in RATE_FRACTIONS]
        dims = [spec.n_x, spec.n_s, spec.n_y]
        instances.append({"dims": dims, "covariance": spec.q.tolist(), "deltas": deltas,
                          "rates": solve_rates(spec.q, dims, deltas)})
    return instances


def curve_levels(q, dims, deltas) -> dict:
    spec = validate_spec(np.array(q), tuple(dims))
    points = rdf_curve(spec, deltas).points
    return {"xi": [p.xi for p in points], "active_count": [p.active_count for p in points]}


LEVELS_DOC = json.loads(LEVELS.read_text(encoding="utf-8")) if LEVELS.exists() else []


@pytest.mark.parametrize("index", range(len(RATE_DIMS)))
def test_levels_match_golden_bitwise(index):
    recorded, instance = LEVELS_DOC[index], RATES_DOC[index]
    levels = curve_levels(instance["covariance"], instance["dims"], recorded["deltas"])
    assert levels == {"xi": recorded["xi"], "active_count": recorded["active_count"]}


def record_levels() -> list[dict]:
    """Levels on each rates.json instance near every point where the active set changes."""
    from conftest import ulps_from

    instances = []
    for rec in RATES_DOC:
        spec = validate_spec(np.array(rec["covariance"]), tuple(rec["dims"]))
        setup = spectral_setup(spec, conditional_stats(spec))
        lo, hi = distortion_range(spec, setup)
        inv = 1.0 / setup.d_sq
        totals = np.cumsum(inv)[1:] - np.arange(2, inv.size + 1) * inv[1:]
        anchors = [lo, hi, *(hi - totals).tolist()]
        deltas = list(rec["deltas"])
        for x in anchors:
            deltas += [x, *ulps_from(x, 4, -math.inf), *ulps_from(x, 4, math.inf)]
        deltas.sort()
        levels = curve_levels(rec["covariance"], rec["dims"], deltas)
        instances.append({"deltas": deltas, **levels})
    return instances


def exact_levels(q, dims, deltas, mpmath):
    """Water level and active count at each distortion, in mpmath's current precision.

    Also returns the distortions where the active set changes: delta_min
    and trace(Q_{X|Y}) minus each breakpoint total.
    """
    n_x, n_s, _ = dims
    m = mpmath.matrix([[mpmath.mpf(x) for x in row] for row in q])
    sx, ss, sy = range(n_x), range(n_x, n_x + n_s), range(n_x + n_s, m.rows)

    def block(rows, cols):
        return mpmath.matrix([[m[i, j] for j in cols] for i in rows])

    def given_y(rows, cols):
        return block(rows, cols) - block(rows, sy) * mpmath.inverse(block(sy, sy)) * block(sy, cols)

    cross = given_y(sx, ss)
    b = cross * mpmath.inverse(given_y(ss, ss)) * cross.T
    c = sorted(mpmath.eigsy((b + b.T) / 2, eigvals_only=True), reverse=True)
    q_x = given_y(sx, sx)
    trace = mpmath.fsum(q_x[i, i] for i in sx)
    totals = [mpmath.fsum(c[:k]) - k * c[k - 1] for k in range(1, n_x + 1)]
    xi, count = [], []
    for delta in deltas:
        target = max(trace - mpmath.mpf(delta), 0)
        if target >= mpmath.fsum(c):
            xi.append(None)
            count.append(None)
            continue
        active = sum(1 for t in totals if t < target)
        k = max(1, active)
        xi.append(k / (2 * (mpmath.fsum(c[:k]) - target)))
        count.append(active)
    return xi, count, [trace - mpmath.fsum(c), *(trace - t for t in totals)]


def test_levels_golden_against_50_digits():
    # Every recorded active count must be exact at points more than 4 ulps
    # from where the exact active set changes, and the recorded levels must
    # be accurate to a few ulps in the median.  Points less than
    # 1e-9 * delta_plus above delta_min, where xi is ill-conditioned, are
    # left out of the level error.
    mpmath = pytest.importorskip("mpmath")
    miscounted, errors = [], []
    with mpmath.workdps(50):
        for rec, instance in zip(LEVELS_DOC, RATES_DOC, strict=True):
            xi, count, changes = exact_levels(instance["covariance"], instance["dims"],
                                              rec["deltas"], mpmath)
            hi = float(changes[1])
            for j, delta in enumerate(rec["deltas"]):
                near = any(abs(mpmath.mpf(delta) - x) <= 4 * math.ulp(float(x)) for x in changes)
                if rec["active_count"][j] != count[j] and not near:
                    miscounted.append((delta, rec["active_count"][j], count[j]))
                if xi[j] is not None and delta > float(changes[0]) + 1e-9 * hi:
                    errors.append(float(abs(rec["xi"][j] - xi[j]) / xi[j]))
    assert miscounted == []
    assert float(np.median(errors)) <= 2e-15
    assert max(errors) <= 2e-11


def oracle_outputs(q, dims, delta, grid) -> dict:
    spec = validate_spec(np.array(q), tuple(dims))
    res = brute_force_rdf(spec, delta, OracleResolution(*grid))
    return {"rate": res.rate, "theta": res.params["theta"], "eig_a": res.params["eig_a"],
            "eig_b": res.params["eig_b"], "feasible_points": res.feasible_points,
            "sigma_delta": res.sigma_delta.tolist()}


ORACLE_DOC = json.loads(ORACLE.read_text(encoding="utf-8")) if ORACLE.exists() else []


def test_oracle_golden_covers_every_instance():
    assert [tuple(rec["grid"]) for rec in ORACLE_DOC] == [grid for grid, _ in ORACLE_CASES]


@pytest.mark.parametrize("index", range(len(ORACLE_CASES)))
def test_oracle_matches_golden_bitwise(index):
    rec = ORACLE_DOC[index]
    for delta, expected in zip(rec["deltas"], rec["results"], strict=True):
        assert oracle_outputs(rec["covariance"], rec["dims"], delta, rec["grid"]) == expected


def record_oracle() -> list[dict]:
    from conftest import random_feasible_spec

    rng = np.random.default_rng(2110)
    instances = []
    for grid, fractions in ORACLE_CASES:
        spec = random_feasible_spec(rng, 2, 1, min_margin=5e-3)
        lo, hi = distortion_range(spec, spectral_setup(spec, conditional_stats(spec)))
        deltas = [lo + f * (hi - lo) for f in fractions]
        q, dims = spec.q.tolist(), [spec.n_x, spec.n_s, spec.n_y]
        instances.append({"grid": list(grid), "dims": dims, "covariance": q, "deltas": deltas,
                          "results": [oracle_outputs(q, dims, d, grid) for d in deltas]})
    return instances


def test_comparison_rejects_changed_fields():
    assert csv_mismatches("a,1,0.5\n", "a,1,0.5000000000000001\n") == []
    assert csv_mismatches("a,1,0.5\n", "a,2,0.5\n")
    assert csv_mismatches("a,1,0.5\n", "a,1,0.5000001\n")
    assert csv_mismatches("a,true\n", "a,false\n")
    assert json_mismatches({"x": [0.5, 1]}, {"x": [0.5 + 1e-16, 1]}) == []
    assert json_mismatches({"x": [0.5, 1]}, {"x": [0.5, 2]})
    assert json_mismatches({"x": True}, {"x": 1})


def record_cli() -> dict:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        spec_paths = write_specs(Path(tmp))
        doc = {}
        for case, argv in CASES.items():
            code, out = run_case(argv, spec_paths)
            doc[case] = {"argv": argv, "code": code, "stdout": out}
    return doc


if __name__ == "__main__":
    # In this order, so that `levels` is recorded on a freshly written rates.json.
    RECORDERS = {"cli": (GOLDEN, record_cli, 1), "rates": (RATES, record_rates, None),
                 "oracle": (ORACLE, record_oracle, None), "levels": (LEVELS, record_levels, None)}
    names = sys.argv[1:] or list(RECORDERS)
    unknown = sorted(set(names) - set(RECORDERS))
    if unknown:
        sys.exit(f"unknown golden file(s) {unknown}; choose from {list(RECORDERS)}")
    for name, (path, record, indent) in RECORDERS.items():
        if name in names:
            path.write_text(json.dumps(record(), indent=indent, sort_keys=indent is not None)
                            + "\n", encoding="utf-8")
            RATES_DOC = json.loads(RATES.read_text(encoding="utf-8"))
            print(f"wrote {path}", file=sys.stderr)
