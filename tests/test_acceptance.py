"""Release gate: every shipped guarantee, one verdict line per criterion.

Each test prints ``[criterion N] ... pass|FAIL`` on the real stdout so the
verdicts survive pytest's capture, then asserts.  Numbers quoted in the
verdicts are measured in-run, not cached.
"""

import math
import os
from time import perf_counter

import numpy as np
import pytest

from kinloc import cli
from kinloc.errors import DegenerateGeometry, SingularGeometry
from kinloc.estim import estimate_position, solve_linear_stage
from kinloc.model import (MeasurementSet, NoiseSpec, SensorArray, TargetState,
                          range_accel, range_rate)
from kinloc.montecarlo import (METHODS, default_scenario, run_ensemble, run_trial,
                               sweep_acceleration_experiment,
                               sweep_velocity_experiment, timing_report)
from kinloc.oracle import dense_wls_solve, fd_range_accel, fd_range_rate, verification_suite

VELOCITY_GRID = (0.1, 0.3, 1.0, 3.0, 10.0)
ACCELERATION_GRID = (0.01, 0.03, 0.1, 0.3, 1.0)
TRIALS = 1000


def verdict(capsys, criterion, label, ok):
    line = f"[criterion {criterion}] {label}: {'pass' if ok else 'FAIL'}"
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def warm():
    # pull every kernel through its compile/caching path before timed regions
    run_trial(default_scenario(trials=1), 0)
    run_trial(default_scenario(trials=1, motion_mode="constant_acceleration"), 0)


@pytest.fixture(scope="module")
def exp1(warm):
    t0 = perf_counter()
    sweep = sweep_velocity_experiment(default_scenario(trials=TRIALS), VELOCITY_GRID)
    return sweep, perf_counter() - t0


@pytest.fixture(scope="module")
def exp2(warm):
    t0 = perf_counter()
    sweep = sweep_acceleration_experiment(default_scenario(trials=TRIALS),
                                          ACCELERATION_GRID)
    return sweep, perf_counter() - t0


def test_criterion_1_noiseless_consistency(warm, capsys):
    sc = default_scenario(trials=100, seed=3, noise=NoiseSpec(0.0, 0.0, 0.0),
                          motion_mode="constant_acceleration")
    t0 = perf_counter()
    records = run_ensemble(sc)
    elapsed = perf_counter() - t0
    assert all(r.ok for r in records)
    worst = math.sqrt(max(max(r.squared_errors) for r in records))
    verdict(capsys, 1, f"noiseless worst error {worst:.2e} <= 1e-6 in {elapsed:.2f}s < 1s",
            worst <= 1e-6 and elapsed < 1.0)


def test_criterion_2_solver_matches_dense_reference(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    produced = 0
    while produced < 1000:
        n = int(rng.integers(3, 11))
        rows = rng.uniform(-1.0, 1.0, (n, 2))
        if np.linalg.cond(rows) > 100.0:     # keep to well-conditioned instances
            continue
        rhs = rng.uniform(-5.0, 5.0, n)
        weights = rng.uniform(0.1, 10.0, n)
        closed = solve_linear_stage(rows, rhs, weights).value
        dense = dense_wls_solve(rows, rhs, weights)
        dev = np.linalg.norm(closed - dense) / max(1.0, np.linalg.norm(dense))
        worst = max(worst, dev)
        produced += 1
    verdict(capsys, 2, f"closed form vs dense solver, 1000 instances, max rel dev "
               f"{worst:.2e} <= 1e-9", worst <= 1e-9)


def test_criterion_3_derivatives_match_finite_differences(capsys):
    report = verification_suite(instances=1000, seed=11)
    rate = next(c for c in report.checks if c.name.startswith("range rate"))
    accel = next(c for c in report.checks if c.name.startswith("range accel"))

    state = TargetState((3.0, 4.0), (1.0, 1.0), (0.5, -0.3))
    sensor = np.zeros(2)
    orders = []
    for exact_fn, fd_fn, h in ((range_rate, fd_range_rate, 1e-3),
                               (range_accel, fd_range_accel, 1e-2)):
        exact = exact_fn(state, sensor)
        err_h = abs(fd_fn(state, sensor, step=h) - exact)
        err_h2 = abs(fd_fn(state, sensor, step=h / 2.0) - exact)
        orders.append(math.log2(err_h / err_h2))

    ok = (rate.passed and rate.tolerance == 1e-6
          and accel.passed and accel.tolerance == 1e-4
          and min(orders) >= 1.9)
    verdict(capsys, 3, f"fd agreement rate {rate.max_deviation:.2e}/accel "
               f"{accel.max_deviation:.2e}, order {min(orders):.2f} >= 1.9", ok)


def test_criterion_4a_velocity_rmse_grows_with_noise(exp1, capsys):
    sweep, _ = exp1
    first, last = sweep.points[0], sweep.points[-1]
    ok = (last.rmse_velocity_ls > first.rmse_velocity_ls
          and last.rmse_velocity_wls > first.rmse_velocity_wls)
    verdict(capsys, "4a", f"velocity RMSE at sigma=10 ({last.rmse_velocity_ls:.2f} LS / "
                  f"{last.rmse_velocity_wls:.2f} WLS) > at sigma=0.1 "
                  f"({first.rmse_velocity_ls:.3f} / {first.rmse_velocity_wls:.3f})", ok)


def test_criterion_4b_weighted_velocity_no_worse_than_2pct(exp1, capsys):
    sweep, _ = exp1
    ratios = [p.rmse_velocity_wls / p.rmse_velocity_ls for p in sweep.points]
    verdict(capsys, "4b", "velocity WLS/LS ratios "
                  + " ".join(f"{r:.3f}" for r in ratios) + " all <= 1.02",
            max(ratios) <= 1.02)


def test_criterion_4c_position_rmse_nearly_constant(exp1, capsys):
    sweep, elapsed = exp1
    pos = [p.rmse_position for p in sweep.points]
    spread = max(pos) / min(pos) - 1.0
    verdict(capsys, "4c", f"position RMSE spread {spread * 100:.2f}% < 5% across grid, "
                  f"sweep took {elapsed:.1f}s < 60s",
            spread < 0.05 and elapsed < 60.0)


def test_criterion_5a_acceleration_rmse_grows_end_to_end(exp2, capsys):
    sweep, elapsed = exp2
    first, last = sweep.points[0], sweep.points[-1]
    ok = (last.rmse_accel_ls > first.rmse_accel_ls
          and last.rmse_accel_wls > first.rmse_accel_wls
          and elapsed < 60.0)
    verdict(capsys, "5a", f"accel RMSE grows {first.rmse_accel_ls:.3f}->{last.rmse_accel_ls:.3f} "
                  f"LS, {first.rmse_accel_wls:.3f}->{last.rmse_accel_wls:.3f} WLS, "
                  f"sweep took {elapsed:.1f}s < 60s", ok)


def test_criterion_5b_weighted_acceleration_no_worse_than_2pct(exp2, capsys):
    # The sweep's default rule weights stage 3 by the first-order covariance of
    # its pseudo-measurements: per-row variances, whose range-free term
    # 2 * range_rate * rate_noise dominates at sigma_drr <= 0.1, plus the offset
    # that -||v_hat||^2 adds to every row.  A WLS weighted by the true error
    # covariance cannot lose to uniform LS beyond Monte Carlo noise, which the
    # 2% margin covers.
    sweep, _ = exp2
    ratios = [p.rmse_accel_wls / p.rmse_accel_ls for p in sweep.points]
    verdict(capsys, "5b", "accel WLS/LS ratios "
                  + " ".join(f"{r:.3f}" for r in ratios) + " all <= 1.02",
            max(ratios) <= 1.02)


def test_criterion_6_per_method_runtime_under_1ms(exp1, capsys):
    sweep, _ = exp1
    report = timing_report(sweep)
    ok = set(report) == set(METHODS) and all(0.0 < t < 1e-3 for t in report.values())
    shown = " ".join(f"{m}={report[m] * 1e6:.0f}us" for m in METHODS)
    verdict(capsys, 6, f"per-trial means {shown} all < 1ms", ok)


def test_criterion_7_sweeps_are_byte_deterministic(tmp_path, capsys):
    def emit(name, extra=()):
        out = tmp_path / name
        args = ["sweep", "--trials", "200", "--seed", "7", "--out", str(out)]
        assert cli.main(args + list(extra)) == 0
        return out.read_bytes()

    workers = max(os.cpu_count() or 1, 4)
    rerun_same = emit("a.csv") == emit("b.csv")
    threads_same = emit("c.csv", ("--threads", "1")) == emit(
        "d.csv", ("--threads", str(workers)))
    capsys.readouterr()
    verdict(capsys, 7, f"rerun byte-identical={rerun_same}, "
               f"1 vs {workers} threads byte-identical={threads_same}",
            rerun_same and threads_same)


def test_criterion_8_degeneracies_raise_named_errors(capsys):
    collinear = SensorArray([(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)])
    ranges = np.hypot([10.0 - 0.0, 10.0 - 50.0, 10.0 - 100.0], 20.0)
    measurements = MeasurementSet(ranges, np.zeros(3), np.zeros(3), NoiseSpec())
    got_collinear = False
    try:
        estimate_position(measurements, collinear)
    except DegenerateGeometry:
        got_collinear = True

    got_parallel = False
    try:
        solve_linear_stage(np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]]),
                           np.array([1.0, 2.0, -1.0]), np.ones(3))
    except SingularGeometry:
        got_parallel = True

    # the Monte Carlo layer records the same failures without emitting NaN
    sc = default_scenario(trials=3, sensors=[(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)])
    records = run_ensemble(sc)
    no_nan = all(r.estimates is None and r.failure == "DegenerateGeometry"
                 and not any(map(math.isnan, r.squared_errors))
                 for r in records)

    verdict(capsys, 8, f"collinear -> DegenerateGeometry={got_collinear}, parallel rows -> "
               f"SingularGeometry={got_parallel}, no NaN outputs={no_nan}",
            got_collinear and got_parallel and no_nan)
