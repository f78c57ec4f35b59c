"""The three benchmark workloads: inputs from a seed, one timed invocation,
and the output checks.

Each workload is a closed loop driven by one process: the next invocation
starts when the previous one has returned.  Only the generated config files
or measurement sets reach kinloc.

* ``sweep_velocity_default``: ``kinloc sweep --experiment velocity`` with the
  default config (5 grid points x 1000 trials, 8 sensors, 1 thread, no SVG).
  Invocations alternate between the golden seed 7, whose CSV must equal
  ``tests/data/golden_velocity_sweep.csv`` byte for byte, and a seed drawn
  from the benchmark seed.
* ``sweep_accel_wide``: ``kinloc sweep --experiment acceleration --svg`` with
  64 sensors on a 100 m ring and 1 thread: the per-sensor kernel loops and the
  SVG renderer.  Two threads contend for the GIL, and the CPU that hand-off
  costs varied by 15% between runs on a shared VM, against 4% at 1 thread.
* ``estimate_stream``: one caller runs ``estimate_all`` on measurement sets
  synthesised during setup, bypassing ``montecarlo`` entirely.
"""

import contextlib
import io
import json
import math
import os
import time

import numpy as np

import kinloc
from kinloc import cli, montecarlo
from kinloc.errors import KinlocError
from kinloc.oracle import dense_wls_solve

GOLDEN_SEED = 7
GOLDEN_CSV = os.path.join("tests", "data", "golden_velocity_sweep.csv")
RING_SENSORS = 64
RING_RADIUS = 100.0
ACCEL_TRIALS = 100
STREAM_SETS = 1000
STREAM_NOISE = (1.0, 0.1, 0.1)
STREAM_CHECK_STRIDE = 40        # every 40th call of the first pass is checked
REFERENCE_RTOL = 1e-9
RMSE_COLUMNS = slice(1, 6)      # rmse_pos .. rmse_acc_wls


def derived_seed(seed, stream):
    """A config seed for kinloc, drawn from the benchmark seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def parse_csv(data):
    """Rows of a sweep CSV as float arrays; raises ValueError on a malformed file."""
    lines = data.decode().splitlines()
    if not lines or lines[0] != cli.CSV_HEADER:
        raise ValueError("sweep CSV header mismatch")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != len(cli.CSV_HEADER.split(",")):
        raise ValueError("sweep CSV has malformed rows")
    return rows


class Sweep:
    """A ``kinloc sweep`` CLI call, run in-process with its stdout captured."""

    threads = 1
    item = ("montecarlo", "run_trial", "montecarlo.run_trial")     # timed per item

    def __init__(self, root, workdir, seed):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.failures = []          # messages of failed checks
        self.outputs = []           # (invocation, csv bytes, svg bytes or None)

    def _write_config(self, name, config):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(config, fh)
        return path

    def _argv(self, config_path, out_name, svg):
        argv = ["sweep", "--config", config_path, "--experiment", self.experiment,
                "--out", os.path.join(self.workdir, out_name + ".csv")]
        if svg:
            argv += ["--svg", os.path.join(self.workdir, out_name + ".svg")]
        return argv

    def invoke(self, k):
        """Run invocation ``k``; returns (wall seconds, trials attempted)."""
        argv = self.argv(k)
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        wall = time.perf_counter() - t0
        if code != 0:
            self.failures.append(f"invocation {k}: kinloc sweep exited {code}")
        return wall, self.trials_per_invocation

    def collect(self, k):
        """Read invocation ``k``'s output files (outside the timed region)."""
        argv = self.argv(k)
        csv_path = argv[argv.index("--out") + 1]
        svg_path = argv[argv.index("--svg") + 1] if "--svg" in argv else None
        with open(csv_path, "rb") as fh:
            csv = fh.read()
        svg = None
        if svg_path:
            with open(svg_path, "rb") as fh:
                svg = fh.read()
        self.outputs.append((k, csv, svg))
        return len(csv) + (len(svg) if svg else 0)

    def failed_items(self):
        return int(sum(parse_csv(csv)[:, 6].sum() for _, csv, _ in self.outputs))

    def _check_rows(self, k, rows, grid):
        if rows.shape[0] != len(grid) or not np.allclose(rows[:, 0], grid, rtol=0, atol=0):
            self.failures.append(f"invocation {k}: sigma column differs from the grid")
        rmse = rows[:, RMSE_COLUMNS]
        if not (np.all(np.isfinite(rmse)) and np.all(rmse > 0)):
            self.failures.append(f"invocation {k}: RMSEs not finite and positive")


class VelocityDefault(Sweep):
    experiment = "velocity"

    def setup(self):
        with open(os.path.join(self.root, GOLDEN_CSV), "rb") as fh:
            self.golden = fh.read()
        self.configs = [self._write_config("golden.json", {"seed": GOLDEN_SEED}),
                        self._write_config("seeded.json", {"seed": derived_seed(self.seed, 0)})]
        self.trials_per_invocation = montecarlo.DEFAULT_TRIALS * len(cli.VELOCITY_GRID)
        warm = self._argv(self.configs[0], "warm", False) + ["--trials", "20"]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(warm)

    def argv(self, k):
        return self._argv(self.configs[k % 2], f"out{k % 2}", False)

    def check(self):
        golden = parse_csv(self.golden)
        seeded = {csv for k, csv, _ in self.outputs if k % 2 == 1}
        if len(seeded) > 1:
            self.failures.append("seeded invocations wrote different CSV bytes")
        for k, csv, _ in self.outputs:
            if k % 2 == 0:
                if csv != self.golden:
                    self.failures.append(f"invocation {k}: CSV differs from {GOLDEN_CSV}")
                continue
            rows = parse_csv(csv)
            self._check_rows(k, rows, cli.VELOCITY_GRID)
            # another seed: every RMSE within Monte Carlo error of the golden run
            ratio = rows[:, RMSE_COLUMNS] / golden[:, RMSE_COLUMNS]
            if not np.all((ratio > 0.8) & (ratio < 1.25)):
                self.failures.append(f"invocation {k}: RMSEs far from the golden sweep")


class AccelWide(Sweep):
    experiment = "acceleration"
    threads = 1

    def setup(self):
        angles = 2.0 * math.pi * np.arange(RING_SENSORS) / RING_SENSORS
        ring = np.column_stack((RING_RADIUS * np.cos(angles), RING_RADIUS * np.sin(angles)))
        config = {"seed": derived_seed(self.seed, 1), "trials": ACCEL_TRIALS,
                  "threads": self.threads, "sensors": ring.tolist()}
        self.config = self._write_config("accel.json", config)
        self.trials_per_invocation = ACCEL_TRIALS * len(cli.ACCELERATION_GRID)
        warm = self._argv(self.config, "warm", True) + ["--trials", "10"]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(warm)

    def argv(self, k):
        return self._argv(self.config, "out", True)

    def check(self):
        if len({(csv, svg) for _, csv, svg in self.outputs}) > 1:
            self.failures.append("repeats wrote different CSV or SVG bytes")
        for k, csv, _ in self.outputs:
            self._check_rows(k, parse_csv(csv), cli.ACCELERATION_GRID)


def reference_pipeline(measurements, positions):
    """The five estimates of ``estimate_all`` rebuilt on the dense SVD solver."""
    sx, sy = positions[:, 0], positions[:, 1]
    ones = np.ones(len(sx))
    rows = np.column_stack((-2.0 * sx, -2.0 * sy, ones))
    theta = dense_wls_solve(rows, measurements.ranges ** 2 - sx ** 2 - sy ** 2, ones)
    p = theta[:2]
    diff = p[None, :] - positions
    rhat = np.hypot(diff[:, 0], diff[:, 1])
    out = {"position": p}
    for label, weights in (("ls", ones), ("wls", 1.0 / rhat)):
        v = dense_wls_solve(diff, measurements.range_rates * rhat, weights)
        k = measurements.drrs * rhat - v @ v + measurements.range_rates ** 2
        out["velocity_" + label] = v
        out["accel_" + label] = dense_wls_solve(diff, k, weights)
    return out


class EstimateStream:
    """``estimate_all`` over a fixed list of measurement sets, one call at a time."""

    threads = 1
    item = ("estim", "estimate_all", "estim.estimate_all")

    def __init__(self, root, workdir, seed):
        self.workdir = workdir
        self.seed = seed
        self.failures = []
        self.kept = {}              # set index -> EstimationResult, first pass
        self.failed = 0

    def setup(self):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2]))
        self.sensors = kinloc.SensorArray(montecarlo.DEFAULT_SENSOR_POSITIONS)
        noise = kinloc.NoiseSpec(*STREAM_NOISE)
        boxes = (montecarlo.DEFAULT_POSITION_BOX, montecarlo.DEFAULT_VELOCITY_BOX,
                 montecarlo.DEFAULT_ACCELERATION_BOX)
        self.sets = []
        for _ in range(STREAM_SETS):
            truth = kinloc.TargetState(*(rng.uniform(lo, hi) for lo, hi in boxes))
            self.sets.append(kinloc.synthesize_measurements(truth, self.sensors, noise, rng))
        self.rule = kinloc.WeightRule()
        for ms in self.sets[:50]:
            kinloc.estimate_all(ms, self.sensors, self.rule)

    def invoke(self, k):
        """One pass over the measurement sets; returns (wall seconds, calls)."""
        estimate_all = kinloc.estimate_all      # looked up per pass: may be traced
        sensors, rule = self.sensors, self.rule
        keep = k == 0
        t_pass = time.perf_counter()
        for i, ms in enumerate(self.sets):
            try:
                result = estimate_all(ms, sensors, rule)
            except KinlocError:
                self.failed += 1
                result = None
            if keep and i % STREAM_CHECK_STRIDE == 0:
                self.kept[i] = result
        wall = time.perf_counter() - t_pass
        return wall, len(self.sets)

    def collect(self, k):
        return 0

    def failed_items(self):
        return self.failed

    def check(self):
        positions = self.sensors.positions
        for i, result in sorted(self.kept.items()):
            if result is None:
                self.failures.append(f"set {i}: estimate_all raised")
                continue
            ref = reference_pipeline(self.sets[i], positions)
            got = {"position": result.position.position,
                   "velocity_ls": result.velocity_ls.value,
                   "velocity_wls": result.velocity_wls.value,
                   "accel_ls": result.accel_ls.value,
                   "accel_wls": result.accel_wls.value}
            for name, value in got.items():
                err = np.linalg.norm(value - ref[name]) / np.linalg.norm(ref[name])
                if not err <= REFERENCE_RTOL:
                    self.failures.append(f"set {i}: {name} differs from the dense "
                                         f"reference by {err:.3g} (relative)")


WORKLOADS = {
    "sweep_velocity_default": VelocityDefault,
    "sweep_accel_wide": AccelWide,
    "estimate_stream": EstimateStream,
}
