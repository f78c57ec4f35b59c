import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from kinloc import cli, model
from kinloc.model import SensorArray, TargetState
from kinloc.montecarlo import DEFAULT_SENSOR_POSITIONS

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_velocity_sweep.csv")

TRUTH = {
    "position": [40.0, 30.0],
    "velocity": [5.0, -3.0],
    "acceleration": [0.5, 1.0],
    "sigma_range": 0.0,
    "sigma_range_rate": 0.0,
    "sigma_drr": 0.0,
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

    def test_no_input_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 3})
        code, _, err = run(["estimate", "--config", cfg], capsys)
        assert code == 2 and err.startswith("ConfigError:")

    def test_measurement_length_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"ranges": [1.0, 2.0], "range_rates": [0.0, 0.0],
                                      "drrs": [0.0, 0.0]})
        code, _, err = run(["estimate", "--config", cfg], capsys)
        assert code == 2 and "2 measurements" in err


class TestConfig:
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

    def test_bad_grid_flag_rejected(self, tmp_path, capsys):
        code, _, err = run(["sweep", "--grid", "1,zap", "--out", "x.csv"], capsys)
        assert code == 2 and err.startswith("ConfigError:")


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
        dest = tmp_path / "timed.csv"
        code, _, _ = run(self.ARGS + ["--out", str(dest), "--timing"], capsys)
        assert code == 0
        for line in dest.read_text().splitlines()[1:]:
            parts = line.split(",")
            assert float(parts[7]) > 0.0 and float(parts[8]) > 0.0

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

    def test_missing_out_rejected(self, capsys):
        code, _, err = run(["sweep", "--trials", "5"], capsys)
        assert code == 2 and err.startswith("ConfigError:")

    def test_golden_default_velocity_sweep(self, tmp_path, capsys):
        # full default run (seed 7, 1000 trials); pins every estimator output
        dest = tmp_path / "default.csv"
        code, _, _ = run(["sweep", "--out", str(dest)], capsys)
        assert code == 0
        with open(GOLDEN, "rb") as fh:
            assert dest.read_bytes() == fh.read()


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
