import os

import numpy as np
import pytest

from kinloc import estim, montecarlo
from kinloc.errors import EmptyEnsemble, SingularGeometry
from kinloc.model import NoiseSpec, SensorArray, TargetState
from kinloc.montecarlo import (METHODS, Scenario, SweepPoint, SweepResult,
                               TrialRecord, default_scenario, rmse, run_ensemble,
                               run_trial, sweep_acceleration_experiment,
                               sweep_velocity_experiment, timing_report)

ZERO_NOISE = NoiseSpec(0.0, 0.0, 0.0)


def record_with_errors(sq, index=0, failure=None):
    truth = TargetState((0.0, 0.0), (0.0, 0.0))
    return TrialRecord(index, truth, None, sq,
                       {m: 0.0 for m in METHODS}, failure)


class TestScenario:
    def test_box_ordering_enforced(self):
        with pytest.raises(ValueError):
            default_scenario().__class__(
                sensors=SensorArray([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]),
                position_box=((10.0, 0.0), (0.0, 10.0)),
                velocity_box=((-1.0, -1.0), (1.0, 1.0)),
                acceleration_box=((-1.0, -1.0), (1.0, 1.0)),
                noise=NoiseSpec(), trials=10, seed=0,
                motion_mode="constant_velocity")

    def test_bad_motion_mode_rejected(self):
        with pytest.raises(ValueError):
            default_scenario(motion_mode="warp_drive")

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            default_scenario(trials=0)


class TestRunTrial:
    def test_noiseless_trial_is_consistent(self):
        sc = default_scenario(trials=1, noise=ZERO_NOISE,
                              motion_mode="constant_acceleration")
        rec = run_trial(sc, 0)
        assert rec.ok
        assert max(rec.squared_errors.values()) <= 1e-10

    def test_same_index_reproduces_bitwise(self):
        sc = default_scenario(trials=10)
        a, b = run_trial(sc, 3), run_trial(sc, 3)
        np.testing.assert_array_equal(a.truth.position, b.truth.position)
        np.testing.assert_array_equal(a.truth.velocity, b.truth.velocity)
        assert a.squared_errors == b.squared_errors

    def test_truth_inside_boxes(self):
        sc = default_scenario(trials=1, seed=1,
                              motion_mode="constant_acceleration")
        for idx in range(20):
            truth = run_trial(sc, idx).truth
            assert np.all(truth.position >= 0.0) and np.all(truth.position <= 100.0)
            assert np.all(np.abs(truth.velocity) <= 20.0)
            assert np.all(np.abs(truth.acceleration) <= 10.0)

    def test_constant_velocity_mode_zeroes_acceleration(self):
        sc = default_scenario(trials=1, motion_mode="constant_velocity")
        truth = run_trial(sc, 0).truth
        np.testing.assert_array_equal(truth.acceleration, [0.0, 0.0])

    def test_degenerate_geometry_recorded_not_raised(self):
        sc = Scenario(
            sensors=SensorArray([(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)]),
            position_box=((0.0, 10.0), (100.0, 100.0)),
            velocity_box=((-20.0, -20.0), (20.0, 20.0)),
            acceleration_box=((-10.0, -10.0), (10.0, 10.0)),
            noise=NoiseSpec(), trials=5, seed=7,
            motion_mode="constant_velocity")
        rec = run_trial(sc, 0)
        assert not rec.ok
        assert rec.failure == "DegenerateGeometry"
        assert rec.estimates is None and rec.squared_errors == {}

    def test_overflowing_stage_solution_recorded_not_raised(self):
        # range rates near 1e150 overflow the acceleration LS solve of trial 6
        sc = default_scenario(trials=7, noise=NoiseSpec(1.0, 1e150, 1.0))
        assert run_trial(sc, 6).failure == "SingularGeometry"

    def test_stage_times_come_from_the_shared_pipeline(self, monkeypatch):
        sc = default_scenario(trials=1)
        assert tuple(run_trial(sc, 0).stage_times) == METHODS

        # the trial runs estim's stage functions, so a failure in the last
        # stage fails the trial and leaves no partial stage times
        def singular(*args, **kwargs):
            raise SingularGeometry("stage Gram matrix singular")

        monkeypatch.setattr(estim, "estimate_acceleration", singular)
        rec = run_trial(sc, 0)
        assert rec.failure == "SingularGeometry" and rec.stage_times == {}


class TestRmse:
    def test_all_zero_errors(self):
        records = [record_with_errors({m: 0.0 for m in METHODS}, i)
                   for i in range(4)]
        assert rmse(records, "position") == 0.0

    def test_single_trial_3_4_error(self):
        rec = record_with_errors({m: 25.0 for m in METHODS})
        assert rmse([rec], "velocity_ls") == 5.0

    def test_two_unit_errors_average(self):
        records = [record_with_errors({m: 1.0 for m in METHODS}, i)
                   for i in range(2)]
        assert rmse(records, "accel_wls") == 1.0

    def test_failures_excluded(self):
        good = record_with_errors({m: 4.0 for m in METHODS}, 0)
        bad = record_with_errors({}, 1, failure="DegenerateGeometry")
        assert rmse([good, bad], "position") == 2.0

    def test_empty_ensemble_raises(self):
        bad = record_with_errors({}, 0, failure="SingularGeometry")
        with pytest.raises(EmptyEnsemble):
            rmse([bad], "position")

    def test_unknown_method_rejected(self):
        with pytest.raises(KeyError):
            rmse([record_with_errors({m: 0.0 for m in METHODS})], "warp")


class TestEnsemble:
    def test_thread_count_does_not_change_results(self):
        sc = default_scenario(trials=40)
        serial = run_ensemble(sc, threads=1)
        threaded = run_ensemble(sc, threads=4)
        assert [r.trial_index for r in threaded] == list(range(40))
        for a, b in zip(serial, threaded):
            assert a.squared_errors == b.squared_errors

    def test_thread_count_capped_at_cpus_and_trials(self, monkeypatch):
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
        run_ensemble(default_scenario(trials=50), threads=10 ** 6)
        assert all(w <= os.cpu_count() for w in requested)
        requested.clear()
        monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 3)
        for trials, threads in ((5, 10 ** 6), (5, 2), (2, 10 ** 6), (1, 10 ** 6)):
            run_ensemble(default_scenario(trials=trials), threads=threads)
        assert requested == [3, 2, 2]       # a single trial runs without a pool

    def test_failure_accounting(self):
        sc = Scenario(
            sensors=SensorArray([(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)]),
            position_box=((0.0, 10.0), (100.0, 100.0)),
            velocity_box=((-20.0, -20.0), (20.0, 20.0)),
            acceleration_box=((-10.0, -10.0), (10.0, 10.0)),
            noise=NoiseSpec(), trials=12, seed=7,
            motion_mode="constant_velocity")
        records = run_ensemble(sc)
        failures = sum(1 for r in records if not r.ok)
        assert failures + sum(1 for r in records if r.ok) == sc.trials
        assert failures == sc.trials     # collinear layout can never localize

    def test_doubling_trials_is_statistically_consistent(self):
        # mean squared errors from disjoint seeds must agree within 3 SE
        sc_a = default_scenario(trials=400, seed=100)
        sc_b = default_scenario(trials=800, seed=200)
        rec_a = [r for r in run_ensemble(sc_a) if r.ok]
        rec_b = [r for r in run_ensemble(sc_b) if r.ok]
        for method in METHODS:
            sq_a = np.array([r.squared_errors[method] for r in rec_a])
            sq_b = np.array([r.squared_errors[method] for r in rec_b])
            se = np.hypot(sq_a.std(ddof=1) / np.sqrt(sq_a.size),
                          sq_b.std(ddof=1) / np.sqrt(sq_b.size))
            assert abs(sq_a.mean() - sq_b.mean()) <= 3.0 * se, method


class TestSweeps:
    def test_velocity_sweep_shape_and_determinism(self):
        base = default_scenario(trials=50)
        grid = (0.5, 2.0)
        first = sweep_velocity_experiment(base, grid)
        second = sweep_velocity_experiment(base, grid)
        assert first.swept_parameter == "sigma_range_rate"
        assert first.grid == grid
        assert len(first.points) == 2
        for p1, p2 in zip(first.points, second.points):
            assert p1.rmse_velocity_ls == p2.rmse_velocity_ls
            assert p1.rmse_velocity_wls == p2.rmse_velocity_wls
            assert p1.failures + p1.successes == base.trials

    def test_velocity_sweep_pins_range_noise(self):
        # base sigma_range is overridden to 1 regardless of the base scenario
        base = default_scenario(trials=30, noise=NoiseSpec(5.0, 1.0, 1.0))
        pinned = sweep_velocity_experiment(base, (1.0,))
        reference = sweep_velocity_experiment(default_scenario(trials=30), (1.0,))
        assert pinned.points[0].rmse_position == reference.points[0].rmse_position

    def test_acceleration_sweep_mode_and_pinning(self):
        base = default_scenario(trials=30, noise=NoiseSpec(3.0, 3.0, 3.0))
        sweep = sweep_acceleration_experiment(base, (0.1,))
        assert sweep.swept_parameter == "sigma_drr"
        reference = sweep_acceleration_experiment(default_scenario(trials=30), (0.1,))
        assert sweep.points[0].rmse_accel_ls == reference.points[0].rmse_accel_ls

    def test_grid_validation(self):
        base = default_scenario(trials=5)
        with pytest.raises(ValueError):
            sweep_velocity_experiment(base, ())
        with pytest.raises(ValueError):
            sweep_velocity_experiment(base, (1.0, 0.5))
        with pytest.raises(ValueError):
            sweep_velocity_experiment(base, (0.0, 1.0))

    def test_threads_do_not_change_sweep(self):
        base = default_scenario(trials=40)
        serial = sweep_velocity_experiment(base, (0.5, 2.0), threads=1)
        threaded = sweep_velocity_experiment(base, (0.5, 2.0), threads=8)
        for p1, p2 in zip(serial.points, threaded.points):
            for field in ("rmse_position", "rmse_velocity_ls", "rmse_velocity_wls",
                          "rmse_accel_ls", "rmse_accel_wls", "failures"):
                assert getattr(p1, field) == getattr(p2, field)


class TestTimingReport:
    def test_schema_has_exactly_five_methods(self):
        sweep = sweep_velocity_experiment(default_scenario(trials=20), (1.0,))
        report = timing_report(sweep)
        assert set(report) == set(METHODS)
        assert all(v >= 0.0 for v in report.values())

    def test_all_zero_times_give_zeros(self):
        point = SweepPoint(sigma=1.0, rmse_position=1.0, rmse_velocity_ls=1.0,
                           rmse_velocity_wls=1.0, rmse_accel_ls=1.0,
                           rmse_accel_wls=1.0, failures=0, successes=10,
                           mean_stage_times={m: 0.0 for m in METHODS})
        sweep = SweepResult("sigma_range_rate", (1.0,), (point,))
        assert all(v == 0.0 for v in timing_report(sweep).values())
