import dataclasses
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from remoterdf.channel import optimal_channel
from remoterdf.cli import CURVE_HEADER, MIN_SAMPLES, REMARK3_HEADER, main, parse_curve_csv
from remoterdf.core import ConditionalStats, conditional_stats, validate_spec
from remoterdf.oracle import OracleResolution, brute_force_rdf
from remoterdf.waterfill import distortion_range, solve_waterfill, spectral_setup

from conftest import (
    SCALAR_Q,
    generated_spec,
    random_feasible_spec,
    rectangular_spec,
    singular_cross_spec,
)


@pytest.fixture
def spec_path(tmp_path):
    doc = {
        "dims": {"n_x": 1, "n_s": 1, "n_y": 1},
        "covariance": SCALAR_Q.tolist(),
        "label": "scalar-example",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_spec(tmp_path, q, dims) -> str:
    path = tmp_path / "spec.json"
    doc = {"dims": dict(zip(("n_x", "n_s", "n_y"), dims)), "covariance": np.asarray(q).tolist()}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCurve:
    def test_csv_sweep(self, capsys, spec_path):
        code, out, _ = run(
            capsys,
            ["curve", spec_path, "--delta-min", "0.3", "--delta-max", "0.5", "--points", "5"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CURVE_HEADER
        records = parse_curve_csv(out)
        rates = [r["rate_nats"] for r in records]
        assert all(b < a for a, b in zip(rates, rates[1:]))
        assert rates[-1] == 0.0
        assert all(r["rate_bits"] == pytest.approx(r["rate_nats"] / math.log(2)) for r in records)

    def test_csv_round_trip_exact(self, capsys, spec_path):
        from remoterdf.cli import curve_records
        from remoterdf.specfile import load_spec_file
        from remoterdf.waterfill import rdf_curve

        grid = list(np.linspace(0.26, 0.5, 7))
        code, out, _ = run(
            capsys,
            ["curve", spec_path, "--delta-min", "0.26", "--delta-max", "0.5", "--points", "7"],
        )
        assert code == 0
        # The emitted CSV recovers the in-memory records exactly.
        spec = load_spec_file(spec_path).spec
        records = curve_records(rdf_curve(spec, grid).points)
        assert parse_curve_csv(out) == records
        # And repeated invocations are byte-identical.
        code2, out2, _ = run(
            capsys,
            ["curve", spec_path, "--delta-min", "0.26", "--delta-max", "0.5", "--points", "7"],
        )
        assert out2 == out

    def test_below_range_point_flags_and_exit_2(self, capsys, spec_path):
        code, out, _ = run(capsys, ["curve", spec_path, "--deltas", "0.2,0.375,0.5"])
        assert code == 2
        records = parse_curve_csv(out)
        assert records[0]["feasible"] is False
        assert records[0]["error"] == "below_range"
        assert records[0]["rate_nats"] is None
        assert records[1]["feasible"] is True

    def test_explicit_deltas_json(self, capsys, spec_path):
        code, out, _ = run(
            capsys, ["curve", spec_path, "--deltas", "0.3,0.4", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["records"]) == 2
        assert doc["records"][0]["delta"] == 0.3

    def test_json_like_alias(self, capsys, spec_path):
        code, out, _ = run(
            capsys, ["curve", spec_path, "--deltas", "0.4", "--format", "json-like"]
        )
        assert code == 0
        json.loads(out)

    def test_malformed_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "dims": {"n_x": 1, "n_s": 1, "n_y": 1},
                    "covariance": SCALAR_Q.tolist(),
                    "lable": "typo",
                }
            ),
            encoding="utf-8",
        )
        code, out, err = run(capsys, ["curve", str(path), "--deltas", "0.4"])
        assert code == 1
        assert "lable" in err

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, ["curve", str(tmp_path / "none.json"), "--deltas", "0.4"])
        assert code == 1
        assert err

    def test_unsorted_grid_exit_1(self, capsys, spec_path):
        code, _, err = run(capsys, ["curve", spec_path, "--deltas", "0.5,0.3"])
        assert code == 1
        assert "ascending" in err

    def test_non_finite_point_tagged_exit_2(self, capsys, spec_path):
        code, out, _ = run(capsys, ["curve", spec_path, "--deltas", "0.3,nan,0.4"])
        assert code == 2
        records = parse_curve_csv(out)
        assert [r["feasible"] for r in records] == [True, False, True]
        assert records[1]["error"] == "non_finite"
        assert records[1]["rate_nats"] is None
        assert math.isnan(records[1]["delta"])

    @pytest.mark.parametrize("command", ["curve", "remark3"])
    @pytest.mark.parametrize("lo, hi", [("0.3", "inf"), ("-inf", "0.5"), ("nan", "0.5"),
                                        ("0.3", "nan")])
    def test_non_finite_range_bound_exit_1(self, capsys, spec_path, command, lo, hi):
        source = [spec_path] if command == "curve" else ["--q", "1.0"]
        argv = [command, *source, f"--delta-min={lo}", f"--delta-max={hi}", "--points", "3"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "must be finite" in err

    def test_grid_argument_validation(self, capsys, spec_path):
        code, _, err = run(capsys, ["curve", spec_path])
        assert code == 1
        code, _, err = run(
            capsys, ["curve", spec_path, "--deltas", "0.4", "--delta-min", "0.3"]
        )
        assert code == 1


class TestChannel:
    def test_scalar_example_values(self, capsys, spec_path):
        code, out, _ = run(capsys, ["channel", spec_path, "--delta", "0.375"])
        assert code == 0
        doc = json.loads(out)
        assert doc["channel"]["h"][0][0] == pytest.approx(0.25, abs=1e-12)
        assert doc["channel"]["g"][0][0] == pytest.approx(0.375, abs=1e-12)
        assert doc["channel"]["q_w"][0][0] == pytest.approx(0.0625, abs=1e-12)
        assert doc["rates"]["nats"] == pytest.approx(0.5 * math.log(2), abs=1e-9)
        assert doc["rates"]["alt_nats"] == pytest.approx(0.5 * math.log(2), abs=1e-9)
        assert all(v < 1e-8 for v in doc["structural_residuals"].values())
        assert doc["decoder_only"]["h"][0][0] == pytest.approx(0.25, abs=1e-12)
        assert doc["decoder_only"] == {k: doc["channel"][k] for k in ("h", "q_w", "g")}

    @pytest.mark.parametrize("n, seed", [(8, 0), (8, 1), (32, 0), (64, 0)])
    def test_rate_exact_down_to_delta_min(self, capsys, tmp_path, n, seed):
        # At 1e-14 of the range above delta_min the command printed rate inf
        # on (8, 0) and (64, 0), for water-filling rates of 127 and 1019 nats.
        spec = generated_spec(np.random.default_rng(seed), n, max(1, n // 4))
        stats = conditional_stats(spec)
        delta = stats.delta_min + 1e-14 * (stats.trace_xy - stats.delta_min)
        expected = solve_waterfill(spec, stats, delta).rate
        path = write_spec(tmp_path, spec.q, (n, n, spec.n_y))
        code, out, _ = run(capsys, ["channel", path, "--delta", repr(delta)])
        assert code == 0
        assert json.loads(out)["rate"] == pytest.approx(expected, rel=1e-12)

    def test_weak_cross_covariance_cross_check(self, capsys, tmp_path):
        # Q_{X,S|Y} = 1e-6 and Q_{S|Y} = 1: half-way through the range
        # (1 - 1e-12, 1) the rate is 1/2 ln 2 up to delta's rounding, and the
        # cross-check read 0.0 when it was taken on Q_{X_hat|Y} = 5e-13.
        c = 1e-6
        path = write_spec(tmp_path, [[1.0, c, 0.0], [c, 1.0, 0.0], [0.0, 0.0, 1.0]], (1, 1, 1))
        code, out, _ = run(capsys, ["channel", path, "--delta", "0.9999999999995"])
        assert code == 0
        rates = json.loads(out)["rates"]
        expected = 0.5 * math.log(c * c / ((0.9999999999995 - 1.0) + c * c))
        assert rates["nats"] == pytest.approx(expected, rel=1e-9)
        assert rates["alt_nats"] == pytest.approx(expected, rel=1e-9)
        assert rates["alt_nats"] == pytest.approx(0.5 * math.log(2.0), rel=1e-3)

    def test_upper_boundary_zero_rate(self, capsys, spec_path):
        code, out, _ = run(capsys, ["channel", spec_path, "--delta", "0.5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["channel"]["h"][0][0] == pytest.approx(0.0, abs=1e-12)
        assert doc["rates"]["nats"] == 0.0

    def test_lower_boundary_exit_1(self, capsys, spec_path):
        code, _, err = run(capsys, ["channel", spec_path, "--delta", "0.25"])
        assert code == 1
        assert "distortion 0.25 is at or below the lower boundary 0.25" in err

    @pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
    def test_non_finite_delta_exit_1(self, capsys, spec_path, delta):
        code, out, err = run(capsys, ["channel", spec_path, f"--delta={delta}"])
        assert code == 1
        assert out == ""
        assert f"distortion must be finite, got {float(delta)!r}" in err

    def test_bits_flag(self, capsys, spec_path):
        code, out, _ = run(capsys, ["channel", spec_path, "--delta", "0.375", "--bits"])
        doc = json.loads(out)
        assert doc["rate_unit"] == "bits"
        assert doc["rate"] == pytest.approx(0.5, abs=1e-9)  # half ln 2 in bits

    def test_csv_format(self, capsys, spec_path):
        code, out, _ = run(
            capsys, ["channel", spec_path, "--delta", "0.375", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "field,row,col,value"
        fields = {ln.split(",")[0] for ln in lines[1:]}
        assert {"h", "g", "q_w", "sigma_delta", "rate_nats", "rate_bits"} <= fields


class TestVerify:
    def test_pass_and_determinism(self, capsys, spec_path):
        argv = ["verify", spec_path, "--delta", "0.375", "--samples", "200000", "--seed", "7"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical report
        doc = json.loads(out1)
        assert doc["verdict"] == "pass"
        assert doc["monte_carlo"]["pass"] is True
        assert doc["analytic"]["residuals_pass"] is True

    def test_corrupted_channel_exit_3(self, capsys, spec_path, monkeypatch):
        def corrupted(*args):
            ch = optimal_channel(*args)
            return dataclasses.replace(ch, h=ch.h + 0.1)

        monkeypatch.setattr("remoterdf.cli.optimal_channel", corrupted)
        code, out, _ = run(
            capsys,
            ["verify", spec_path, "--delta", "0.375", "--samples", "50000", "--seed", "1"],
        )
        assert code == 3
        assert json.loads(out)["verdict"] == "fail"

    def test_zero_rate_channel_passes(self, capsys, tmp_path):
        # Above delta_plus the channel sends nothing and X_hat = E(X|Y).
        spec = generated_spec(np.random.default_rng(1), 4, 1)
        path = tmp_path / "n4.json"
        path.write_text(
            json.dumps({"dims": {"n_x": 4, "n_s": 4, "n_y": 1}, "covariance": spec.q.tolist()}),
            encoding="utf-8",
        )
        delta = 1.5 * float(np.trace(conditional_stats(spec).q_x_given_y))
        argv = ["verify", str(path), "--delta", repr(delta), "--samples", "10000"]
        code, out, _ = run(capsys, argv)
        doc = json.loads(out)
        assert (code, doc["verdict"]) == (0, "pass"), doc["analytic"]["residuals"]

    def test_infeasible_delta_exit_1(self, capsys, spec_path):
        code, _, err = run(capsys, ["verify", spec_path, "--delta", "0.2"])
        assert code == 1

    def test_non_finite_delta_exit_1(self, capsys, spec_path):
        code, _, err = run(capsys, ["verify", spec_path, "--delta", "nan"])
        assert code == 1
        assert "distortion must be finite" in err

    def test_too_few_samples_exit_1(self, capsys, spec_path):
        code, _, err = run(capsys, ["verify", spec_path, "--delta", "0.375", "--samples", "1"])
        assert code == 1

    @pytest.mark.parametrize("samples", [2, MIN_SAMPLES - 1])
    def test_samples_below_minimum_refused_not_judged(self, capsys, spec_path, samples):
        # At 2 samples the estimated standard error is so noisy that this
        # correct channel fails its Monte Carlo check (exit 3) on about 30%
        # of seeds; such a count is refused as bad input instead.
        argv = ["verify", spec_path, "--delta", "0.375", "--samples", str(samples)]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "--samples" in err and str(MIN_SAMPLES) in err

    def test_minimum_samples_accepted(self, capsys, spec_path):
        argv = ["verify", spec_path, "--delta", "0.375", "--samples", str(MIN_SAMPLES)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["n_samples"] == MIN_SAMPLES

    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_is_a_usage_error_naming_the_option(self, capsys, spec_path, seed):
        with pytest.raises(SystemExit) as exc:
            main(["verify", spec_path, "--delta", "0.375", "--seed", seed])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed" in captured.err

    def test_csv_format(self, capsys, spec_path):
        code, out, _ = run(
            capsys,
            ["verify", spec_path, "--delta", "0.375", "--samples", "10000", "--format", "csv"],
        )
        assert code == 0
        assert out.splitlines()[0] == "field,value"
        assert "verdict,pass" in out


class TestOracle:
    def test_scalar_agreement(self, capsys, spec_path):
        code, out, _ = run(capsys, ["oracle", spec_path, "--delta", "0.375"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["gap_nats"] < doc["tolerance_nats"]
        assert doc["rate_waterfill_nats"] == pytest.approx(0.5 * math.log(2), abs=1e-9)

    @pytest.mark.parametrize(
        "make", [lambda: validate_spec(SCALAR_Q, (1, 1, 1)),
                 lambda: generated_spec(np.random.default_rng(0), 2, 1)],
        ids=["readme-scalar", "generated-2x2"])
    def test_tolerance_is_in_nats_at_any_scale(self, capsys, tmp_path, make):
        # The grid's gap to water-filling is free of the covariance's units,
        # so the tolerance it is held to must be too: a tolerance in
        # covariance units would pass any solver at x1e6.
        base = make()
        dims = (base.n_x, base.n_s, base.n_y)
        tolerances = []
        for scale in (1e-9, 1.0, 1e6):
            spec = validate_spec(base.q * scale, dims)
            setup = spectral_setup(spec, conditional_stats(spec))
            lo, hi = distortion_range(spec, setup)
            delta = lo + 0.55 * (hi - lo)
            code, out, _ = run(capsys, ["oracle", write_spec(tmp_path, spec.q, dims),
                                        "--delta", repr(delta), "--resolution", "201",
                                        "--angle-points", "90"])
            tolerance = json.loads(out)["tolerance_nats"]
            assert code == 0
            optimum = solve_waterfill(spec, setup, delta).rate
            grid = brute_force_rdf(spec, delta, OracleResolution(201, 90)).rate
            assert abs(grid - optimum) <= tolerance
            tolerances.append(tolerance)
        assert tolerances == [tolerances[0]] * 3

    def test_non_finite_delta_exit_1(self, capsys, spec_path):
        code, _, err = run(capsys, ["oracle", spec_path, "--delta", "nan"])
        assert code == 1
        assert "distortion must be finite" in err

    def test_unsupported_dimension_exit_1(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        spec = random_feasible_spec(rng, 3, 1)
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps(
                {
                    "dims": {"n_x": 3, "n_s": 3, "n_y": 1},
                    "covariance": spec.q.tolist(),
                }
            ),
            encoding="utf-8",
        )
        code, _, err = run(capsys, ["oracle", str(path), "--delta", "0.5"])
        assert code == 1
        assert "brute force" in err


class TestAnyShapeAndScale:
    """curve, channel and verify solve every instance the reduction covers."""

    @pytest.mark.parametrize("c", [1e-10, 1e-11])
    def test_tiny_unit_readme_spec_gives_the_unscaled_rate(self, capsys, tmp_path, c):
        # Refused at the unscaled thresholds once: x1e-10 as a singular
        # Q_{X,S|Y}, x1e-11 as a singular Q_Y.
        path = write_spec(tmp_path, c * SCALAR_Q, (1, 1, 1))
        code, out, _ = run(capsys, ["curve", path, "--deltas", f"{0.3 * c!r},{0.45 * c!r}",
                                    "--format", "json"])
        assert code == 0
        unscaled = [0.5 * math.log(0.25 / (d - 0.25)) for d in (0.3, 0.45)]
        rates = [r["rate_nats"] for r in json.loads(out)["records"]]
        assert rates == pytest.approx(unscaled, rel=1e-12)
        code, out, _ = run(capsys, ["channel", path, "--delta", repr(0.375 * c)])
        doc = json.loads(out)
        assert code == 0 and doc["structural_pass"]
        assert (doc["rates"]["nats"], doc["rates"]["alt_nats"]) == pytest.approx(
            (0.5 * math.log(2.0),) * 2, rel=1e-12)
        code, out, _ = run(capsys, ["verify", path, "--delta", repr(0.375 * c),
                                    "--samples", "20000"])
        assert (code, json.loads(out)["verdict"]) == (0, "pass")

    @pytest.mark.parametrize(
        "make", [lambda: rectangular_spec(np.random.default_rng(4), 3, 1, 1),
                 lambda: singular_cross_spec([1.0, 0.0])],
        ids=["n_s-below-n_x", "singular-cross"])
    def test_non_square_and_singular_cross_specs(self, capsys, tmp_path, make):
        spec = make()
        stats = conditional_stats(spec)
        cross = stats.q_xs_given_y
        b = float(np.max(np.linalg.eigvalsh(cross @ np.linalg.solve(stats.q_s_given_y, cross.T))))
        hi = float(np.trace(stats.q_x_given_y))
        delta = hi - 0.5 * b  # one component: rate 0.5 ln(b / (b - (hi - delta)))
        path = write_spec(tmp_path, spec.q, (spec.n_x, spec.n_s, spec.n_y))
        code, out, _ = run(capsys, ["channel", path, "--delta", repr(delta)])
        doc = json.loads(out)
        assert code == 0 and doc["structural_pass"]
        assert doc["delta_range"]["min"] == pytest.approx(hi - b, rel=1e-12)
        assert doc["rates"]["nats"] == pytest.approx(0.5 * math.log(2.0), rel=1e-12)
        code, out, _ = run(capsys, ["curve", path, "--deltas", repr(delta), "--format", "json"])
        assert code == 0
        assert json.loads(out)["records"][0]["rate_nats"] == pytest.approx(0.5 * math.log(2.0))
        code, out, _ = run(capsys, ["verify", path, "--delta", repr(delta), "--samples", "20000"])
        assert (code, json.loads(out)["verdict"]) == (0, "pass")


@pytest.mark.parametrize(
    "argv",
    [["curve", "--deltas", "0.3,0.375,0.45"], ["channel", "--delta", "0.375"],
     ["verify", "--delta", "0.375", "--samples", str(MIN_SAMPLES)], ["oracle", "--delta", "0.375"]],
    ids=lambda argv: argv[0])
def test_each_command_builds_the_statistics_once(capsys, monkeypatch, spec_path, argv):
    # Validation builds the analysed instance and every later stage reads it
    # from the spec.  Stages that built their own would make curve, channel
    # and verify build it twice, and oracle three times.
    built = []
    init = ConditionalStats.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ConditionalStats, "__init__", counted)
    code, out, _ = run(capsys, [argv[0], spec_path, *argv[1:]])
    assert code == 0 and out
    assert len(built) == 1


class TestRemark3:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, ["remark3", "--q", "1.0", "--deltas", "0.5,0.99"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == REMARK3_HEADER
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1.0)
        second = lines[2].split(",")
        assert float(second[1]) == pytest.approx(99.0, abs=1e-9)
        assert float(second[5]) < 0.02

    def test_divergence_flag_at_boundary(self, capsys):
        code, out, _ = run(capsys, ["remark3", "--q", "1.0", "--deltas", "1.0"])
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[1] == "inf"
        assert row[6] == "true"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, ["remark3", "--q", "1.0", "--deltas", "0.5", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["prior_noise_variance"] == pytest.approx(1.0)

    def test_zero_points_exit_1(self, capsys):
        code, out, err = run(
            capsys,
            ["remark3", "--q", "1.0", "--delta-min", "0.5", "--delta-max", "0.9", "--points", "0"],
        )
        assert code == 1
        assert out == ""
        assert "--points" in err

    def test_deltas_with_range_flag_exit_1(self, capsys):
        code, out, err = run(capsys, ["remark3", "--q", "1.0", "--deltas", "0.5", "--points", "3"])
        assert code == 1
        assert out == ""
        assert "either --deltas or" in err

    def test_out_of_range_exit_1(self, capsys):
        code, _, err = run(capsys, ["remark3", "--q", "1.0", "--deltas", "1.5"])
        assert code == 1

    @pytest.mark.parametrize("q", ["inf", "nan"])
    def test_non_finite_q_exit_1(self, capsys, q):
        code, out, err = run(capsys, ["remark3", f"--q={q}", "--deltas", "0.5,0.9"])
        assert code == 1
        assert out == ""
        assert "conditional variance must be finite" in err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["channel", "{spec}"],
            ["curve", "{spec}", "--points", "abc"],
            ["curve", "{spec}", "--deltas", "0.4", "--format", "xml"],
            ["verify", "{spec}", "--delta", "0.375", "--bits"],
            ["verify", "{spec}", "--delta", "0.375", "--inject-h-perturbation", "0.1"],
            ["remark3", "--q", "1.0", "--deltas", "0.5", "--bits"],
            [],
        ],
        ids=["channel-no-delta", "points-abc", "format-xml", "verify-bits",
             "verify-inject-h-perturbation", "remark3-bits", "no-command"],
    )
    def test_usage_error_exit_1(self, capsys, spec_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(spec=spec_path) for arg in argv])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["curve", "--help"], ["verify", "-h"]])
    def test_help_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: remoterdf" in capsys.readouterr().out


def readme_block(heading: str, fence: str) -> str:
    """The first ```fence code block after README's `## heading`."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"## {heading}", 1)[1].split(f"```{fence}", 1)[1].split("```", 1)[0]


def readme_cli_commands() -> list[list[str]]:
    """The `remoterdf ...` lines of README's ## CLI code block, split into argv."""
    block = readme_block("CLI", "sh")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("remoterdf ")]


def test_readme_cli_block_covers_every_command():
    commands = readme_cli_commands()
    assert {argv[0] for argv in commands} == {"curve", "channel", "verify", "oracle", "remark3"}


@pytest.mark.parametrize("argv", readme_cli_commands(), ids=" ".join)
def test_readme_cli_command_succeeds(capsys, spec_path, argv):
    code, out, _ = run(capsys, [spec_path if arg == "spec.json" else arg for arg in argv])
    assert code == 0
    assert out


def test_readme_library_quick_start():
    names = {}
    exec(readme_block("Library quick start", "python"), names)
    assert (names["lo"], names["hi"]) == pytest.approx((0.25, 0.5), rel=1e-14)
    assert names["sol"].rate == pytest.approx(0.5 * math.log(2.0), rel=1e-14)
    rates = names["rates"]
    assert rates.rate == pytest.approx(0.5 * math.log(2.0), rel=1e-14)
    assert rates.rate_alt == pytest.approx(rates.rate, rel=1e-12)
