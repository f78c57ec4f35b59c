"""Tests of the benchmark's own machinery: python3 -m pytest perfbench -q"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import kinloc  # noqa: E402
from kinloc import _kernels, cli, estim, montecarlo  # noqa: E402
from spans import SpanTable, Tracer, layer_samples  # noqa: E402
from workloads import WORKLOADS, reference_pipeline  # noqa: E402


def traced_sweep(tmp_path, threads):
    argv = ["sweep", "--trials", "20", "--threads", str(threads),
            "--experiment", "acceleration", "--out", str(tmp_path / "out.csv")]
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return SpanTable(tracer.spans)


@pytest.mark.parametrize("threads", [1, 2])
def test_call_counts_repeat_exactly(tmp_path, threads):
    runs = []
    for _ in range(2):
        table = traced_sweep(tmp_path, threads)
        _, counts, trials = layer_samples(table, threads)
        runs.append((counts, len(table), trials))
    assert runs[0] == runs[1]
    counts, _, trials = runs[0]
    assert trials == 20 * len(cli.ACCELERATION_GRID)
    assert counts == {"_kernels.system_rows": 6.0, "_kernels.wls_solve2": 4.0}


def test_pool_trials_are_children_of_the_ensemble(tmp_path):
    table = traced_sweep(tmp_path, 2)
    ensembles = np.flatnonzero(table.names == "montecarlo.run_ensemble")
    trials = table.names == "montecarlo.run_trial"
    assert np.all(np.isin(table.parent[trials], ensembles))
    kernels = table.mask("_kernels.")
    assert np.all(table.trial[kernels] >= 0)


def test_uninstall_restores_every_function():
    before = (montecarlo.run_trial, estim.estimate_position, montecarlo.estimate_position,
              _kernels.system_rows, kinloc.estimate_all)
    with Tracer():
        assert montecarlo.estimate_position is not before[1]
        assert montecarlo.estimate_position is estim.estimate_position
    after = (montecarlo.run_trial, estim.estimate_position, montecarlo.estimate_position,
             _kernels.system_rows, kinloc.estimate_all)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_subtracts_direct_children():
    spans = [(0, "a", 0.0, 10.0, -1, 0), (1, "b", 1.0, 3.0, 0, 0),
             (2, "c", 4.0, 6.0, 0, 0), (3, "d", 4.5, 5.0, 2, 0)]
    table = SpanTable(spans)
    assert table.self_time.tolist() == [6.0, 2.0, 1.5, 0.5]


def test_stream_counts_and_reference(tmp_path):
    stream = WORKLOADS["estimate_stream"](ROOT, str(tmp_path), 3)
    stream.setup()
    with Tracer() as tracer:
        stream.invoke(0)
    _, counts, trials = layer_samples(SpanTable(tracer.spans), 1)
    assert trials == len(stream.sets)
    assert counts == {"_kernels.system_rows": 6.0, "_kernels.wls_solve2": 4.0}
    stream.check()
    assert stream.kept and not stream.failures


def test_reference_pipeline_detects_a_wrong_estimate():
    sensors = kinloc.SensorArray(montecarlo.DEFAULT_SENSOR_POSITIONS)
    truth = kinloc.TargetState((40, 30), (5, -3), (0.5, 1))
    ms = kinloc.synthesize_measurements(truth, sensors, kinloc.NoiseSpec(1, 0.1, 0.1), 7)
    ref = reference_pipeline(ms, sensors.positions)
    got = kinloc.estimate_all(ms, sensors)
    assert np.allclose(got.accel_wls.value, ref["accel_wls"], rtol=1e-9, atol=0)
    assert not np.allclose(got.accel_ls.value, ref["accel_wls"], rtol=1e-9, atol=0)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "estimate_stream",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_the_declared_metrics(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "estimate_stream",
                          "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
