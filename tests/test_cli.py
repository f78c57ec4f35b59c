import hashlib
import itertools
import json
import os
import re
import stat
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from kinloc import cli, model, montecarlo
from kinloc.model import SensorArray, TargetState
from kinloc.montecarlo import DEFAULT_SENSOR_POSITIONS

TRUTH = {
    "position": [40.0, 30.0],
    "velocity": [5.0, -3.0],
    "acceleration": [0.5, 1.0],
    "sigma_range": 0.0,
    "sigma_range_rate": 0.0,
    "sigma_drr": 0.0,
}


# README's truth state, synthesized from seed 7 at the default noise, and the
# explicit measurement lists of the CI's packaging job
ESTIMATE_SOURCES = {
    "truth": {"position": [40, 30], "velocity": [5, -3], "acceleration": [0.5, 1], "seed": 7},
    "measurements": {
        "ranges": [50.0, 92.195, 156.525, 143.178, 191.05, 92.195, 22.361, 120.416],
        "range_rates": [2.2, -0.976, 5.814, -4.819, 1.623, 5.532, 0.447, 1.744],
        "drrs": [1.583, -0.726, 0.001, 0.774, 1.211, 0.308, 0.394, 1.295]},
}
# sha256 of `kinloc estimate` stdout for each source, --weights and --format
ESTIMATE_SHA256 = {
    ("truth", "uniform", "text"):
        "82936bce02e17887f2192add7137a420895eb8d7fbc844a72da6158c6dba74f4",
    ("truth", "uniform", "json"):
        "b55d71c334ac5d6ba4476342bb1147a38d198970554e8dedaa3ee3641daec2cd",
    ("truth", "inverse-range", "text"):
        "90396c468fec27cfeb60bda4b9d56846c4b072b94aad4ecfa29b6d9c416349fd",
    ("truth", "inverse-range", "json"):
        "26ab97365f1e283cda5704eb2038c754a2014f212a389734d7b5735aa9fd1ed2",
    ("truth", "propagated", "text"):
        "01dd855ee3982088e03303d7b5ec6107719992ab89867b5c9843a76f29ed8e23",
    ("truth", "propagated", "json"):
        "127c54e9e300270e04a9d5185e9ad13b55a05fd016b3fcfd02e8cb14652228dd",
    ("measurements", "uniform", "text"):
        "5d65da2552c06c14a6059cc653cd65c8367d9b8f0baf884b10a955477f1992e2",
    ("measurements", "uniform", "json"):
        "3d9ec87d379ec858916294dd697704bdd4338bdd75513b0de86ba855bebdd356",
    ("measurements", "inverse-range", "text"):
        "20bfc90c78d6c459b4c51b350d0a91d7fefd9d04701ec76c6ad5a37380507a7e",
    ("measurements", "inverse-range", "json"):
        "10bd7cfdf40e020c643bfa95dbca62c59f842f589f47254ebbbdac29792bd541",
    ("measurements", "propagated", "text"):
        "ac3529ffb9cb9de986ffa248f8a3b28d029c82fa10959147c046ffa09ca24642",
    ("measurements", "propagated", "json"):
        "d10a4ffd75f10ea105dd68d5e630a49adb1b15ea88e054edffd3d7b89d59d75d",
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestEstimate:
    def test_noiseless_text_output_matches_truth(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRUTH)
        code, out, err = run(["estimate", "--config", cfg], capsys)
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert len(lines) == 5
        values = {line.split()[0]: [float(line.split()[1]), float(line.split()[2])]
                  for line in lines}
        np.testing.assert_allclose(values["position"], TRUTH["position"], atol=1e-6)
        np.testing.assert_allclose(values["velocity_ls"], TRUTH["velocity"], atol=1e-6)
        np.testing.assert_allclose(values["velocity_wls"], TRUTH["velocity"], atol=1e-6)
        np.testing.assert_allclose(values["accel_ls"], TRUTH["acceleration"], atol=1e-6)
        np.testing.assert_allclose(values["accel_wls"], TRUTH["acceleration"], atol=1e-6)

    def test_json_output_has_exactly_five_keys(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRUTH)
        code, out, err = run(["estimate", "--config", cfg, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"position", "velocity_ls", "velocity_wls",
                                "accel_ls", "accel_wls"}
        np.testing.assert_allclose(payload["position"], TRUTH["position"], atol=1e-6)
        np.testing.assert_allclose(payload["accel_wls"], TRUTH["acceleration"], atol=1e-6)

    def test_explicit_measurements(self, tmp_path, capsys):
        truth = TargetState(TRUTH["position"], TRUTH["velocity"], TRUTH["acceleration"])
        r, rdot, rddot = model.true_measurements(truth, SensorArray(DEFAULT_SENSOR_POSITIONS))
        cfg = write_config(tmp_path, {
            "ranges": list(r), "range_rates": list(rdot), "drrs": list(rddot)})
        code, out, _ = run(["estimate", "--config", cfg, "--format", "json"], capsys)
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["velocity_wls"], TRUTH["velocity"],
                                   atol=1e-6)

    def test_out_file_is_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRUTH)
        dest = tmp_path / "estimate.json"
        code, _, _ = run(["estimate", "--config", cfg, "--format", "json",
                          "--out", str(dest)], capsys)
        assert code == 0
        assert set(json.loads(dest.read_text())) == {
            "position", "velocity_ls", "velocity_wls", "accel_ls", "accel_wls"}

    @pytest.mark.parametrize("source, weights, fmt", list(itertools.product(
        ESTIMATE_SOURCES, ("uniform", "inverse-range", "propagated"), ("text", "json"))))
    def test_output_bytes_are_pinned(self, tmp_path, capsys, source, weights, fmt):
        # each renderer's layout and its 17 significant digits, byte for byte
        cfg = write_config(tmp_path, ESTIMATE_SOURCES[source])
        code, out, err = run(["estimate", "--config", cfg, "--weights", weights,
                              "--format", fmt], capsys)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == ESTIMATE_SHA256[source, weights, fmt]

    def test_new_out_file_gets_the_umask_mode(self, tmp_path, capsys):
        # mkstemp makes its temp file 0600; the renamed file must not keep that
        cfg = write_config(tmp_path, TRUTH)
        dest = tmp_path / "estimate.json"
        old = os.umask(0o027)
        try:
            code, _, _ = run(["estimate", "--config", cfg, "--out", str(dest)], capsys)
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(dest.stat().st_mode) == 0o640

    def test_existing_out_file_keeps_its_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRUTH)
        dest = tmp_path / "estimate.json"
        dest.write_text("old")
        dest.chmod(0o604)
        code, _, _ = run(["estimate", "--config", cfg, "--out", str(dest)], capsys)
        assert code == 0
        assert dest.read_text() != "old"
        assert stat.S_IMODE(dest.stat().st_mode) == 0o604

    def test_directory_as_out_rejected_before_the_estimate(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(cli, "estimate_all", None)      # must not run
        cfg = write_config(tmp_path, TRUTH)
        # an existing directory, and a new name that ends in a separator
        for directory in (str(tmp_path), str(tmp_path / "new") + os.sep):
            code, out, err = run(["estimate", "--config", cfg, "--out", directory], capsys)
            assert code == 2 and out == ""
            assert err == f"ConfigError: cannot write --out {directory}: it names a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("in_file", [False, True])
    def test_empty_out_rejected_before_the_estimate(self, tmp_path, capsys, monkeypatch,
                                                    in_file):
        # an empty path was read as no path: the estimate went to stdout, exit 0
        monkeypatch.setattr(cli, "estimate_all", None)      # must not run
        cfg = write_config(tmp_path, dict(TRUTH, out="") if in_file else TRUTH)
        code, out, err = run(["estimate", "--config", cfg]
                             + ([] if in_file else ["--out", ""]), capsys)
        assert (code, out) == (2, "")
        assert err == "ConfigError: cannot write --out: the path is empty\n"

    def test_degenerate_geometry_exits_2_with_error_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(
            TRUTH, sensors=[[0.0, 0.0], [50.0, 0.0], [100.0, 0.0]]))
        code, _, err = run(["estimate", "--config", cfg], capsys)
        assert code == 2
        assert err.startswith("DegenerateGeometry:")

    def test_truth_and_measurements_together_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TRUTH, ranges=[1.0] * 8,
                                          range_rates=[0.0] * 8, drrs=[0.0] * 8))
        code, _, err = run(["estimate", "--config", cfg], capsys)
        assert code == 2 and err.startswith("ConfigError:")

    def test_velocity_and_acceleration_beside_measurements_rejected(self, tmp_path, capsys):
        # a truth state without position is still a truth state: not silently dropped
        cfg = write_config(tmp_path, dict(ESTIMATE_SOURCES["measurements"],
                                          velocity=[5, -3], acceleration=[1, 1]))
        code, out, err = run(["estimate", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("ConfigError: estimate needs either a truth state")
        assert "not both" in err

    def test_truth_state_without_position_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"velocity": [5, -3]})
        code, out, err = run(["estimate", "--config", cfg], capsys)
        assert (code, out, err) == (2, "", "ConfigError: a truth state needs position; velocity "
                                           "and acceleration default to 0\n")

    def test_no_input_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 3})
        code, _, err = run(["estimate", "--config", cfg], capsys)
        assert code == 2 and err.startswith("ConfigError:")

    def test_measurement_length_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ranges": [1.0, 2.0], "range_rates": [0.0, 0.0],
                                      "drrs": [0.0, 0.0]})
        code, _, err = run(["estimate", "--config", cfg], capsys)
        assert (code, err) == (2, "ValueError: measurement count 2 does not match sensor "
                                  "count 8\n")


NAN, BIG = float("nan"), 10 ** 400     # JSON writes NaN, and BIG as its 401 digits


def _integer_rows(key, low):
    return [(key, label, value, f"{key} must be an integer, got {text}")
            for label, value, text in (("str", "3", "'3'"), ("true", True, "True"),
                                       ("nan", NAN, "nan"), ("float", 2.5, "2.5"),
                                       ("shape", [3], "[3]"))
            ] + [(key, "range", low - 1, f"{key} must be >= {low}, got {low - 1}")]


def _rows(key, cases):
    return [(key, label, value, message.format(key=key)) for label, value, message in cases]


BOX_CASES = [
    ("str", "x", "{key} must be real numbers, got 'x'"),
    ("true", True, "{key} must be real numbers, got True"),
    ("bool-entry", [[True, 3.0], [4.0, 5.0]], "{key} must be real numbers, got True"),
    ("nan", [[NAN, 0.0], [1.0, 1.0]], "{key} must be finite"),
    ("10**400", [[0.0, 0.0], [BIG, 1.0]], "{key} must be finite"),
    ("shape", [[0.0, 0.0]], "{key} must have shape (2, 2), got (1, 2)"),
    ("range", [[1.0, 1.0], [0.0, 0.0]], "{key} must have min <= max componentwise"),
]
SIGMA_CASES = [
    ("str", "x", "{key} must be a real number, got 'x'"),
    ("true", True, "{key} must be a real number, got True"),
    ("nan", NAN, "{key} must be >= 0 with a finite square, got nan"),
    ("10**400", BIG, "{key} must be >= 0 with a finite square, got inf"),
    ("shape", [1.0], "{key} must be a real number, got [1.0]"),
    ("range", -1.0, "{key} must be >= 0 with a finite square, got -1.0"),
]
VECTOR_CASES = [
    ("str", "x", "{key} must be real numbers, got 'x'"),
    ("true", True, "{key} must be real numbers, got True"),
    ("bool-entry", [True, 3.0], "{key} must be real numbers, got True"),
    ("nan", [NAN, 1.0], "{key} must be finite"),
    ("10**400", [BIG, 0.0], "{key} must be finite"),
    ("shape", [1.0, 2.0, 3.0], "{key} must have shape (2,), got (3,)"),
]
MEASUREMENT_CASES = [
    ("str", "x", "{key} must be real numbers, got 'x'"),
    ("true", True, "{key} must be real numbers, got True"),
    ("bool-entry", [True, 3.0], "{key} must be real numbers, got True"),
    ("nan", [NAN], "{key} must be finite"),
    ("10**400", [1.0, BIG], "{key} must be finite"),
    ("shape", [[1.0]], "{key} must have shape (N,), got (1, 1)"),
    ("range", [], "{key} must have shape (N,), got (0,)"),
]

# every numeric setting with a string, true, NaN, 10**400, a wrong shape and an
# out-of-range value, and [true, 3.0] where it takes an array, each with the text
# after "ConfigError: ".  An integer setting takes any integer from its low up,
# 10**400 too, so it gets a float in that place; the sensors and the truth
# vectors have no range but finiteness
REJECTIONS = [
    *_integer_rows("seed", 0), *_integer_rows("trials", 1), *_integer_rows("threads", 1),
    *_rows("grid", [
        ("str", "x", "grid values must be real numbers, got 'x'"),
        ("true", True, "grid must be a sequence of real numbers, got True"),
        ("bool-entry", [True, 3.0], "grid values must be real numbers, got True"),
        ("nan", [0.1, NAN], "grid values must be finite"),
        ("10**400", [0.1, BIG], "grid values must be finite"),
        ("shape", [[0.1, 0.3]], "grid values must be real numbers, got [0.1, 0.3]"),
        ("range", [0.3, 0.1], "grid must be strictly increasing"),
    ]),
    *_rows("sensors", [
        ("str", "x", "sensors must be real numbers, got 'x'"),
        ("true", True, "sensors must be real numbers, got True"),
        ("bool-entry", [[True, 3.0], [1.0, 2.0]], "sensors must be real numbers, got True"),
        ("nan", [[NAN, 0.0], [1.0, 2.0]], "sensors must be finite"),
        ("10**400", [[BIG, 0.0], [1.0, 2.0]], "sensors must be finite"),
        # the shape reported is the input's, as given
        ("shape", [[1.0, 2.0, 3.0]], "sensors must have shape (N, 2), got (1, 3)"),
        ("empty", [], "sensors must have shape (N, 2), got (0,)"),
        ("flat-triple", [1.0, 2.0, 3.0], "sensors must have shape (N, 2), got (3,)"),
        ("flat-pair", [1.0, 2.0], "sensors must have shape (N, 2), got (2,)"),
    ]),
    *[row for key in ("position_box", "velocity_box", "acceleration_box")
      for row in _rows(key, BOX_CASES)],
    *[row for key in ("sigma_range", "sigma_range_rate", "sigma_drr")
      for row in _rows(key, SIGMA_CASES)],
    *[row for key in ("position", "velocity", "acceleration")
      for row in _rows(key, VECTOR_CASES)],
    *[row for key in ("ranges", "range_rates", "drrs")
      for row in _rows(key, MEASUREMENT_CASES)],
]
ESTIMATE_INPUTS = ("position", "velocity", "acceleration", "ranges", "range_rates", "drrs")


class TestConfig:
    def test_rejection_table_covers_every_numeric_setting(self):
        numeric = {key for key, (validator, _, _) in cli._SETTINGS.items()
                   if validator.__qualname__.startswith("_read.")}
        assert {row[0] for row in REJECTIONS} == numeric

    @pytest.mark.parametrize("key, label, value, message", REJECTIONS,
                             ids=[f"{key}-{label}" for key, label, _, _ in REJECTIONS])
    def test_bad_numeric_setting_rejected_at_load(self, tmp_path, capsys, key, label, value,
                                                  message):
        # every setting is read at load, so verify, which reads none of these
        # but seed and trials, rejects each as the command that reads it does
        cfg = write_config(tmp_path, {key: value})
        dest = tmp_path / "o.out"
        command = "estimate" if key in ESTIMATE_INPUTS else "sweep"
        for argv in (["verify", "--config", cfg], [command, "--config", cfg, "--out", str(dest)]):
            assert run(argv, capsys) == (2, "", f"ConfigError: {message}\n")
        assert not dest.exists()

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TRUTH, tyop=1))
        code, _, err = run(["estimate", "--config", cfg], capsys)
        assert code == 2 and "unknown config keys: tyop" in err

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TRUTH, format="text"))
        code, out, _ = run(["estimate", "--config", cfg, "--format", "json"], capsys)
        assert code == 0
        json.loads(out)           # would raise on the text rendering

    def test_invalid_value_type_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TRUTH, trials="many"))
        code, _, err = run(["estimate", "--config", cfg], capsys)
        assert code == 2 and err.startswith("ConfigError:")
        # a pair is a 2-element list of numbers, not a string's characters or booleans
        for bad in ({"position": "34"}, {"velocity": [True, False]}):
            cfg = write_config(tmp_path, dict(TRUTH, **bad))
            code, _, err = run(["estimate", "--config", cfg], capsys)
            assert code == 2 and err.startswith("ConfigError:")
        cfg = write_config(tmp_path, {"sensors": ["00", "55", "09", "90"]})
        code, _, err = run(["sweep", "--config", cfg, "--trials", "1", "--grid", "1",
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2 and err.startswith("ConfigError:")

    def test_integer_past_the_float_range_rejected(self, tmp_path, capsys):
        # JSON reads a 401-digit number as an int, which float() cannot convert
        big = 10 ** 400
        cfg = write_config(tmp_path, {"sigma_range": big})
        code, _, err = run(["sweep", "--config", cfg, "--trials", "1", "--grid", "1",
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert err == "ConfigError: sigma_range must be >= 0 with a finite square, got inf\n"
        cfg = write_config(tmp_path, {"ranges": [1.0, big, 1.0], "range_rates": [0.0] * 3,
                                      "drrs": [0.0] * 3})
        code, _, err = run(["estimate", "--config", cfg], capsys)
        assert code == 2
        assert err == "ConfigError: ranges must be finite\n"

    def test_bad_grid_flag_rejected(self, tmp_path, capsys):
        code, _, err = run(["sweep", "--grid", "1,zap", "--out", "x.csv"], capsys)
        assert code == 2 and err.startswith("ConfigError:")

    def test_non_finite_grid_rejected(self, tmp_path, capsys):
        for grid in ("0.1,nan", "0.1,inf"):
            dest = tmp_path / "x.csv"
            code, _, err = run(["sweep", "--grid", grid, "--trials", "3",
                                "--out", str(dest)], capsys)
            assert code == 2
            assert err == "ConfigError: grid values must be finite\n"
            assert not dest.exists()


class TestSweep:
    ARGS = ["sweep", "--trials", "25", "--grid", "0.5,2", "--seed", "11"]

    def test_csv_schema(self, tmp_path, capsys):
        dest = tmp_path / "sweep.csv"
        code, out, _ = run(self.ARGS + ["--out", str(dest)], capsys)
        assert code == 0
        assert "mean per-trial runtime" in out
        lines = dest.read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert len(first) == 9
        assert float(first[0]) == 0.5
        assert first[6] == "0"                       # failures
        assert first[7] == "0" and first[8] == "0"   # timing off by default

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(self.ARGS + ["--out", str(a)], capsys)
        run(self.ARGS + ["--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_timing_flag_populates_time_columns(self, tmp_path, capsys):
        dest, plain = tmp_path / "timed.csv", tmp_path / "plain.csv"
        code, _, _ = run(self.ARGS + ["--out", str(dest), "--timing"], capsys)
        assert code == 0
        for line in dest.read_text().splitlines()[1:]:
            parts = line.split(",")
            assert float(parts[7]) > 0.0 and float(parts[8]) > 0.0
        # and only those: the sigma, RMSE and failure columns keep their bytes
        run(self.ARGS + ["--out", str(plain)], capsys)
        assert ([line.split(b",")[:7] for line in dest.read_bytes().splitlines()]
                == [line.split(b",")[:7] for line in plain.read_bytes().splitlines()])

    def test_svg_output_parses(self, tmp_path, capsys):
        dest, fig = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        code, _, _ = run(self.ARGS + ["--out", str(dest), "--svg", str(fig)], capsys)
        assert code == 0
        text = fig.read_text()
        assert text.startswith("<svg")
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")

    def test_acceleration_experiment(self, tmp_path, capsys):
        dest = tmp_path / "acc.csv"
        code, _, _ = run(["sweep", "--experiment", "acceleration", "--trials", "25",
                          "--grid", "0.1,0.5", "--out", str(dest)], capsys)
        assert code == 0
        assert len(dest.read_text().splitlines()) == 3

    def test_noise_with_overflowing_variance_rejected(self, tmp_path, capsys):
        # 1e200 squared overflows: rejected up front under every weight rule
        for weights in ("propagated", "inverse-range"):
            code, _, err = run(["sweep", "--experiment", "acceleration", "--trials", "3",
                                "--grid", "1e200", "--weights", weights,
                                "--out", str(tmp_path / "o.csv")], capsys)
            assert code == 2
            assert err.startswith("ValueError:") and err.count("\n") == 1

    def test_overflowing_noise_late_in_the_grid_runs_no_trial(self, tmp_path, capsys,
                                                              monkeypatch):
        # the three points before 1e200 are valid, but no truth is drawn and
        # no point is scored
        draws, points = [], []
        real_truth, real_score = montecarlo.sample_truth, montecarlo._score_point
        monkeypatch.setattr(montecarlo, "sample_truth",
                            lambda *a: draws.append(1) or real_truth(*a))
        monkeypatch.setattr(montecarlo, "_score_point",
                            lambda *a: points.append(1) or real_score(*a))
        code, _, err = run(["sweep", "--trials", "3", "--grid", "0.1,0.3,1,1e200",
                            "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 2
        assert err.startswith("ValueError:") and err.count("\n") == 1
        assert draws == [] and points == []
        # the spies see each trial drawn and each point scored in a valid sweep
        code, _, _ = run(["sweep", "--trials", "3", "--grid", "0.1,0.3,1",
                          "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 0 and (len(draws), len(points)) == (3, 3)

    def test_noise_with_tiny_weights_gives_finite_rmses(self, tmp_path, capsys):
        # 1e150 squared is finite, but the propagated weights 1/D near 1e-304
        # underflowed the stage-3 Gram determinant before it was rescaled
        dest = tmp_path / "o.csv"
        code, _, _ = run(["sweep", "--experiment", "acceleration", "--trials", "3",
                          "--grid", "1e150", "--out", str(dest)], capsys)
        assert code == 0
        values = [float(v) for v in dest.read_text().splitlines()[1].split(",")[1:6]]
        assert np.all(np.isfinite(values))

    def test_all_failed_point_keeps_the_other_rows(self, tmp_path, capsys):
        # every trial at range-rate noise 1e150 fails; its row records that
        single, both = tmp_path / "single.csv", tmp_path / "both.csv"
        fig = tmp_path / "both.svg"
        code, _, _ = run(["sweep", "--grid", "0.1", "--trials", "20",
                          "--out", str(single)], capsys)
        assert code == 0
        code, _, err = run(["sweep", "--grid", "0.1,1e150", "--trials", "20",
                            "--out", str(both), "--svg", str(fig)], capsys)
        assert code == 0 and err == ""
        header, first, second = both.read_text().splitlines()
        assert [header, first] == single.read_text().splitlines()
        assert second.split(",") == ["9.9999999999999998e+149", "nan", "nan", "nan", "nan",
                                     "nan", "20", "0", "0"]
        # the failed point is left out of the figure: one marker per series
        markers = [el for el in ET.fromstring(fig.read_text()).iter()
                   if el.tag.endswith("circle")]
        assert len(markers) == 2

    def test_grid_values_with_one_log10_are_plotted(self, tmp_path, capsys):
        # the figure's x axis had a log span of 0, and scaling a marker divided
        # by it after the CSV was written
        dest, fig = tmp_path / "g.csv", tmp_path / "g.svg"
        code, _, err = run(["sweep", "--trials", "5", "--grid", "100,100.00000000000003",
                            "--out", str(dest), "--svg", str(fig)], capsys)
        assert code == 0 and err == ""
        assert len(dest.read_text().splitlines()) == 3
        markers = [el for el in ET.fromstring(fig.read_text()).iter()
                   if el.tag.endswith("circle")]
        assert len(markers) == 4

    def test_smallest_subnormal_grid_value_is_plotted(self, tmp_path, capsys):
        # padding the one-value x axis by lo / 10 ** 0.5 underflowed to 0, and
        # its log10 raised "math domain error" after the whole sweep had run
        dest, fig = tmp_path / "g.csv", tmp_path / "g.svg"
        code, _, err = run(["sweep", "--grid", "5e-324", "--trials", "5",
                            "--out", str(dest), "--svg", str(fig)], capsys)
        assert code == 0 and err == ""
        assert len(dest.read_text().splitlines()) == 2
        markers = [el for el in ET.fromstring(fig.read_text()).iter()
                   if el.tag.endswith("circle")]
        assert len(markers) == 2

    def test_figure_without_a_finite_point_rejected(self, tmp_path, capsys):
        dest, fig = tmp_path / "o.csv", tmp_path / "o.svg"
        code, _, err = run(["sweep", "--grid", "1e150", "--trials", "5", "--out", str(dest),
                            "--svg", str(fig)], capsys)
        assert code == 2
        assert err.startswith("ValueError: no sweep point has a finite") and err.count("\n") == 1
        # the figure is rendered before either file is written
        assert not dest.exists() and not fig.exists()

    def test_rejected_figure_of_an_all_failed_sweep_leaves_no_file(self, tmp_path, capsys):
        # four collinear sensors: every trial's position stage fails
        cfg = write_config(tmp_path, {"sensors": [[0, 0], [1, 0], [2, 0], [3, 0]],
                                      "trials": 5})
        dest, fig = tmp_path / "v.csv", tmp_path / "v.svg"
        code, _, err = run(["sweep", "--config", cfg, "--out", str(dest), "--svg", str(fig)],
                           capsys)
        assert code == 2
        assert err == "ValueError: no sweep point has a finite velocity LS RMSE to plot\n"
        assert not dest.exists() and not fig.exists()

    def test_custom_sensors_and_boxes_give_the_library_sweep(self, tmp_path, capsys):
        settings = {"sensors": [[0.0, 0.0], [60.0, 5.0], [10.0, 70.0], [-40.0, 30.0]],
                    "position_box": [[10.0, 10.0], [30.0, 40.0]],
                    "velocity_box": [[-5.0, 0.0], [5.0, 8.0]],
                    "acceleration_box": [[-1.0, -2.0], [1.0, 0.0]],
                    "sigma_drr": 0.5, "trials": 30, "seed": 5}
        dest = tmp_path / "v.csv"
        code, _, err = run(["sweep", "--config", write_config(tmp_path, settings),
                            "--grid", "0.2,2", "--out", str(dest)], capsys)
        assert code == 0 and err == ""
        base = montecarlo.Scenario(
            SensorArray(settings["sensors"]), settings["position_box"],
            settings["velocity_box"], settings["acceleration_box"],
            model.NoiseSpec(sigma_drr=0.5), 30, 5, "constant_velocity")
        sweep = montecarlo.sweep_velocity_experiment(base, (0.2, 2.0))
        assert dest.read_text() == cli._sweep_csv(sweep, False)

    @pytest.mark.parametrize("experiment, sigmas", [
        ("velocity", {"sigma_range": 2}),
        ("acceleration", {"sigma_range": 2, "sigma_range_rate": 3}),
    ])
    def test_unswept_sigmas_reach_the_sweep(self, tmp_path, capsys, experiment, sigmas):
        # the sweep keeps the config's sigmas and replaces only the swept one
        dest, default = tmp_path / "s.csv", tmp_path / "default.csv"
        argv = ["sweep", "--experiment", experiment, "--trials", "30", "--grid", "0.2,2"]
        code, _, err = run([*argv, "--config", write_config(tmp_path, sigmas),
                            "--out", str(dest)], capsys)
        assert code == 0 and err == ""
        assert run([*argv, "--out", str(default)], capsys)[0] == 0
        base = montecarlo.default_scenario(trials=30, noise=model.NoiseSpec(**sigmas))
        sweep = {"velocity": montecarlo.sweep_velocity_experiment,
                 "acceleration": montecarlo.sweep_acceleration_experiment}[experiment]
        assert dest.read_text() == cli._sweep_csv(sweep(base, (0.2, 2.0)), False)
        assert dest.read_text() != default.read_text()

    def test_box_with_overflowing_extent_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"position_box": [[-1e308, -1e308], [1e308, 1e308]]})
        code, _, err = run(["sweep", "--config", cfg, "--trials", "3",
                            "--out", str(tmp_path / "o.csv")], capsys)
        assert code == 2
        assert err.startswith("ConfigError: position_box") and err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    def test_squared_inverse_range_weights_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--trials", "3", "--weights", "inverse-range-sq",
                 "--out", str(tmp_path / "o.csv")], capsys)
        assert exc.value.code == 2

    def test_flags_a_subcommand_does_not_read_rejected(self, capsys):
        for argv in (["verify", "--weights", "uniform"], ["estimate", "--threads", "2"]):
            with pytest.raises(SystemExit) as exc:
                run(argv, capsys)
            assert exc.value.code == 2

    def test_missing_out_rejected(self, capsys):
        code, _, err = run(["sweep", "--trials", "5"], capsys)
        assert code == 2 and err.startswith("ConfigError:")

    @pytest.mark.parametrize("in_file", [False, True])
    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_empty_output_path_rejected_before_the_sweep(self, tmp_path, capsys, monkeypatch,
                                                          flag, in_file):
        # an empty --svg was read as no figure, and the sweep exited 0
        monkeypatch.setattr(cli, "sweep_velocity_experiment", None)     # must not run
        paths = {"out": str(tmp_path / "o.csv"), "svg": str(tmp_path / "o.svg")}
        paths[flag[2:]] = ""
        args = ["--config", write_config(tmp_path, paths)] if in_file else [
            arg for key, path in paths.items() for arg in ("--" + key, path)]
        code, out, err = run(self.ARGS + args, capsys)
        assert (code, out) == (2, "")
        assert err == f"ConfigError: cannot write {flag}: the path is empty\n"
        assert [p.name for p in tmp_path.iterdir()] == (["config.json"] if in_file else [])

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_missing_output_directory_rejected_before_the_sweep(self, tmp_path, capsys,
                                                                 monkeypatch, flag):
        # the error used to come after the whole sweep, naming the hidden temp file
        monkeypatch.setattr(cli, "sweep_velocity_experiment", None)     # must not run
        missing = str(tmp_path / "missing_dir" / "x.out")
        paths = {"--out": str(tmp_path / "o.csv"), "--svg": str(tmp_path / "o.svg")}
        paths[flag] = missing
        code, out, err = run(self.ARGS + [arg for item in paths.items() for arg in item],
                             capsys)
        assert code == 2 and out == ""
        assert err == f"ConfigError: cannot write {flag} {missing}: its directory does not exist\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_directory_as_output_rejected_before_the_sweep(self, tmp_path, capsys,
                                                           monkeypatch, flag):
        # the error used to come after the whole sweep, naming the hidden temp file
        monkeypatch.setattr(cli, "sweep_velocity_experiment", None)     # must not run
        directory = tmp_path / "a_dir"
        directory.mkdir()
        paths = {"--out": str(tmp_path / "o.csv"), "--svg": str(tmp_path / "o.svg")}
        paths[flag] = str(directory)
        code, out, err = run(self.ARGS + [arg for item in paths.items() for arg in item],
                             capsys)
        assert code == 2 and out == ""
        assert err == f"ConfigError: cannot write {flag} {directory}: it names a directory\n"
        assert list(tmp_path.iterdir()) == [directory] and not list(directory.iterdir())

    def test_same_path_for_csv_and_svg_rejected_before_the_sweep(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the SVG used to replace the CSV, and the sweep exited 0
        monkeypatch.setattr(cli, "sweep_velocity_experiment", None)     # must not run
        same = str(tmp_path / "same.x")
        code, out, err = run(self.ARGS + ["--out", same, "--svg", same], capsys)
        assert code == 2 and out == ""
        assert err == f"ConfigError: cannot write --svg {same}: --out names the same file\n"
        assert not list(tmp_path.iterdir())


class TestSettingsTable:
    def test_every_flag_has_argparse_settings(self):
        for _, flags in cli._COMMANDS.values():
            for flag in flags:
                assert cli._SETTINGS[flag][2] is not None, flag

    def test_every_setting_with_argparse_settings_is_a_flag(self):
        flags = {flag for _, command_flags in cli._COMMANDS.values() for flag in command_flags}
        assert {key for key, (_, _, settings) in cli._SETTINGS.items()
                if settings is not None} == flags

    def test_readme_tables_list_the_commands_and_settings(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()

        def table(header):
            lines = readme.split(header + "\n", 1)[1].splitlines()[1:]
            return [line.split(" | ") for line in itertools.takewhile(
                lambda line: line.startswith("|"), lines)]

        commands = {re.findall(r"`([^`]+)`", cells[0])[0]:
                    tuple(re.findall(r"`--([^`]+)`", cells[1]))
                    for cells in table("| subcommand | flags |")}
        assert commands == {command: flags for command, (_, flags) in cli._COMMANDS.items()}
        keys = [key for cells in table("| key | meaning | default |")
                for key in re.findall(r"`([^`]+)`", cells[0])]
        assert sorted(keys) == sorted(cli._SETTINGS)


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(["verify", "--trials", "100"], capsys)
        assert code == 0
        assert "all checks passed" in out
        assert out.count(" pass") >= 3

    def test_broken_derivative_detected(self, capsys, monkeypatch):
        monkeypatch.setattr(model, "range_accel",
                            lambda target, sensor: -model.range_rate(target, sensor))
        code, out, _ = run(["verify", "--trials", "100"], capsys)
        assert code == 1
        assert "FAIL" in out and "oracle disagreement detected" in out

    def test_nan_derivative_detected(self, capsys, monkeypatch):
        # max(0.0, nan) is 0.0: a NaN deviation must not read as a perfect match
        monkeypatch.setattr(model, "range_rate", lambda target, sensor: float("nan"))
        code, out, _ = run(["verify", "--trials", "20"], capsys)
        assert code == 1
        assert "max deviation nan" in out and "oracle disagreement detected" in out
