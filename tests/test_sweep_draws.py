"""A sweep draws each trial once and noises the draws at every grid point.

Every point of a sweep reruns trial i on the same streams, sensors, boxes
and motion mode, so ``_sweep`` draws every trial's truth and noise-free,
unit-noise rows before its first point, into a table with one block of
draws, and noises that block at each point.  The table also keeps each
trial's position outcome, which later points with the same sigma_range
reuse.  These tests hold the shared sweep to a reference that runs
``run_ensemble`` per point outside any sweep, where every trial draws and
solves per call: the records and the aggregated points must agree bit for
bit.  They also pin the table's scope: it lives while one sweep runs, in
that sweep's context only.
"""

import math
import operator
import struct
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinloc import _kernels, model, montecarlo
from kinloc.errors import ZeroRange
from kinloc.estim import PROPAGATED, UNIFORM, WeightRule
from kinloc.model import NoiseSpec, SensorArray, TargetState
from kinloc.montecarlo import (DEFAULT_SENSOR_POSITIONS, Scenario, _aggregate_point,
                               default_scenario, run_ensemble, run_trial,
                               sweep_acceleration_experiment, sweep_velocity_experiment)

RULES = (UNIFORM, WeightRule(), PROPAGATED)
# sweep function, motion mode, and the noise of a point, as the sweeps document them
EXPERIMENTS = {
    "velocity": (sweep_velocity_experiment, "constant_velocity",
                 lambda base, s: NoiseSpec(1.0, s, base.noise.sigma_drr)),
    "acceleration": (sweep_acceleration_experiment, "constant_acceleration",
                     lambda base, s: NoiseSpec(1.0, 1.0, s)),
}
GRID = (0.1, 1.0, 10.0)
_ANGLES = 2.0 * math.pi * np.arange(64) / 64
RING64 = np.column_stack((100.0 * np.cos(_ANGLES), 100.0 * np.sin(_ANGLES)))


def _bits(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def record_key(rec) -> tuple:
    """Every number a trial record holds except its wall times, as bytes."""
    truth = rec.truth
    key = [rec.trial_index, rec.failure, truth.position.tobytes(), truth.velocity.tobytes(),
           truth.acceleration.tobytes(), sorted(rec.squared_errors.items()),
           sorted(rec.stage_times)]
    est = rec.estimates
    if est is not None:
        key += [est.position.position.tobytes(),
                _bits(est.position.theta3, est.position.residual_norm,
                      est.position.gram_condition)]
        for k in (est.velocity_ls, est.velocity_wls, est.accel_ls, est.accel_wls):
            key += [k.method, k.value.tobytes(), _bits(k.gram_condition),
                    k.pseudo_measurements.tobytes()]
    return tuple(key)


def point_key(point) -> tuple:
    """A sweep point's RMSEs (as bytes, so that NaN equals NaN), failures and successes."""
    return (point.sigma,
            _bits(point.rmse_position, point.rmse_velocity_ls, point.rmse_velocity_wls,
                  point.rmse_accel_ls, point.rmse_accel_wls),
            point.failures, point.successes)


def spy_ensembles(monkeypatch):
    """Patch ``montecarlo.run_ensemble`` with a wrapper; returns the list it
    fills with (records, number of trials in the sweep's table on entry)."""
    seen = []
    real = montecarlo.run_ensemble

    def spy(scenario, weight_rule, threads):
        table = montecarlo._SWEEP_DRAWS.get()
        entries = None if table is None else len(table.truths)
        records = real(scenario, weight_rule, threads)
        seen.append((records, entries))
        return records

    monkeypatch.setattr(montecarlo, "run_ensemble", spy)
    return seen


def count_truth_draws(monkeypatch) -> list:
    """Patch ``montecarlo.sample_truth`` to append 1 per call to the returned list."""
    draws = []
    real = montecarlo.sample_truth

    def counted(scenario, rng):
        draws.append(1)
        return real(scenario, rng)

    monkeypatch.setattr(montecarlo, "sample_truth", counted)
    return draws


def assert_sweep_matches_unshared(monkeypatch, base, experiment, rule, grid=GRID, threads=1):
    """The sweep equals, record for record and point for point, run_ensemble
    per point outside any sweep; returns the sweep's records per point."""
    sweep, mode, noise_for = EXPERIMENTS[experiment]
    return assert_matches_unshared(monkeypatch, base, mode, lambda s: noise_for(base, s), rule,
                                   grid, lambda: sweep(base, grid, rule, threads))


def assert_matches_unshared(monkeypatch, base, mode, noise_for, rule, grid, run):
    """``run()`` sweeps ``grid`` with the noise ``noise_for(sigma)`` and motion
    mode ``mode``; its records and points equal run_ensemble's per point."""
    reference = [run_ensemble(replace(base, noise=noise_for(s), motion_mode=mode), rule)
                 for s in grid]
    with monkeypatch.context() as patch:
        seen = spy_ensembles(patch)
        result = run()
    assert montecarlo._SWEEP_DRAWS.get() is None
    assert len(seen) == len(grid)
    for (records, _), want in zip(seen, reference):
        assert [record_key(r) for r in records] == [record_key(r) for r in want]
    assert [point_key(p) for p in result.points] == [
        point_key(_aggregate_point(s, want)) for s, want in zip(grid, reference)]
    return [records for records, _ in seen]


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.mode)
@pytest.mark.parametrize("experiment", tuple(EXPERIMENTS))
def test_sweep_equals_unshared_points(monkeypatch, experiment, rule):
    assert_sweep_matches_unshared(monkeypatch, default_scenario(trials=25, seed=11),
                                  experiment, rule)


@pytest.mark.parametrize("experiment", tuple(EXPERIMENTS))
def test_ring_of_64_sensors(monkeypatch, experiment):
    base = default_scenario(trials=8, seed=2 ** 40 + 3, sensors=RING64)
    assert_sweep_matches_unshared(monkeypatch, base, experiment, PROPAGATED)


@pytest.mark.parametrize("experiment", tuple(EXPERIMENTS))
def test_custom_boxes(monkeypatch, experiment):
    base = Scenario(sensors=SensorArray(DEFAULT_SENSOR_POSITIONS),
                    position_box=((-50.0, -20.0), (150.0, 30.0)),
                    velocity_box=((-5.0, 0.0), (5.0, 40.0)),
                    acceleration_box=((0.0, -3.0), (2.0, 3.0)),
                    noise=NoiseSpec(2.0, 0.5, 0.25), trials=25, seed=3,
                    motion_mode="constant_velocity")
    for rule in (WeightRule(), PROPAGATED):
        assert_sweep_matches_unshared(monkeypatch, base, experiment, rule)


def test_point_where_every_trial_fails(monkeypatch):
    # range-rate noise 1e150 makes every stage-2 solve overflow
    records = assert_sweep_matches_unshared(monkeypatch, default_scenario(trials=20),
                                            "velocity", PROPAGATED, grid=(0.5, 2.0, 1e150))
    assert all(r.ok for r in records[0]) and all(r.ok for r in records[1])
    assert {r.failure for r in records[2]} == {"SingularGeometry"}
    # and with drr noise 1e150 in the acceleration sweep, whatever fails there
    assert_sweep_matches_unshared(monkeypatch, default_scenario(trials=20),
                                  "acceleration", PROPAGATED, grid=(0.5, 1e150))


def test_position_box_on_a_sensor_fails_every_point(monkeypatch):
    # every truth sits on the sensor at the origin
    base = replace(default_scenario(trials=10), position_box=((0.0, 0.0), (0.0, 0.0)))
    records = assert_sweep_matches_unshared(monkeypatch, base, "velocity", PROPAGATED)
    for point in records:
        assert [r.failure for r in point] == ["ZeroRange"] * 10
    # each trial, ZeroRange ones too, is drawn once, before the first point
    draws = count_truth_draws(monkeypatch)
    seen = spy_ensembles(monkeypatch)
    sweep_velocity_experiment(base, GRID)
    assert [entries for _, entries in seen] == [10, 10, 10]
    assert len(draws) == 10


@pytest.mark.parametrize("box, column", [
    # a truth at 1e200 squares past the float range: every range is inf
    ("position_box", "ranges"),
    # a speed of 1e200 makes ||v||^2 - rdot^2 inf - inf: every drr is NaN
    ("velocity_box", "drrs"),
])
def test_non_finite_measurements_raise_the_constructors_error(box, column):
    base = replace(default_scenario(trials=4), **{box: ((1e200, 1e200), (1e200, 1e200))})
    for sweep in (sweep_velocity_experiment, sweep_acceleration_experiment):
        with pytest.raises(ValueError, match=f"^{column} must be finite$"):
            sweep(base, GRID)
        assert montecarlo._SWEEP_DRAWS.get() is None
    with pytest.raises(ValueError, match=f"^{column} must be finite$"):
        run_trial(base, 0)


@pytest.mark.parametrize("experiment", tuple(EXPERIMENTS))
def test_threads_1_and_2_agree(monkeypatch, experiment):
    base = default_scenario(trials=30, seed=5)
    serial = assert_sweep_matches_unshared(monkeypatch, base, experiment, PROPAGATED)
    # two workers even on a one-CPU machine
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
    threaded = assert_sweep_matches_unshared(monkeypatch, base, experiment, PROPAGATED,
                                             threads=2)
    assert ([[record_key(r) for r in point] for point in threaded]
            == [[record_key(r) for r in point] for point in serial])


def test_table_fills_at_the_first_point_and_is_read_after(monkeypatch):
    draws = count_truth_draws(monkeypatch)
    seen = spy_ensembles(monkeypatch)
    sweep_velocity_experiment(default_scenario(trials=12), GRID)
    assert [entries for _, entries in seen] == [12, 12, 12]
    assert len(draws) == 12
    # outside a sweep every call draws
    draws.clear()
    run_ensemble(default_scenario(trials=12))
    run_ensemble(default_scenario(trials=12))
    assert len(draws) == 24
    # a pool's workers start in an empty context and draw per call as well,
    # on top of the sweep's draw before its first point
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
    draws.clear()
    sweep_velocity_experiment(default_scenario(trials=12), GRID, threads=2)
    assert len(draws) == 12 + 36


def test_no_table_survives_a_sweep(monkeypatch):
    base = default_scenario(trials=5)
    sweep_acceleration_experiment(base, GRID)
    assert montecarlo._SWEEP_DRAWS.get() is None
    # the second point's noise level has no finite square: NoiseSpec raises
    # before any trial is drawn or run
    draws = count_truth_draws(monkeypatch)
    seen = spy_ensembles(monkeypatch)
    with pytest.raises(ValueError, match="finite square"):
        sweep_velocity_experiment(base, (0.5, 1e160))
    assert seen == []
    assert draws == []
    assert montecarlo._SWEEP_DRAWS.get() is None

    def broken(scenario, weight_rule, threads):
        raise RuntimeError("ensemble failed")

    monkeypatch.setattr(montecarlo, "run_ensemble", broken)
    with pytest.raises(RuntimeError):
        sweep_velocity_experiment(base, GRID)
    assert montecarlo._SWEEP_DRAWS.get() is None


def test_concurrent_sweeps_keep_their_own_tables(monkeypatch):
    # four sweeps of different seeds, more threads than cores, step through
    # their points in lockstep with a short switch interval, so each runs
    # while the others' tables are filled; a table shared between them would
    # hand one sweep another's trials
    bases = [default_scenario(trials=15, seed=seed) for seed in (1, 2, 3, 4)]
    want = [[point_key(p) for p in sweep_velocity_experiment(b, GRID).points] for b in bases]
    barrier = threading.Barrier(len(bases), timeout=60)
    real = montecarlo.run_ensemble
    got, errors = [None] * len(bases), []

    def lockstep(scenario, weight_rule, threads):
        barrier.wait()
        return real(scenario, weight_rule, threads)

    def run(k):
        try:
            got[k] = [point_key(p)
                      for p in sweep_velocity_experiment(bases[k], GRID).points]
        except Exception as exc:        # reported below, on the test's thread
            errors.append(exc)
            barrier.abort()

    monkeypatch.setattr(montecarlo, "run_ensemble", lockstep)
    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(bases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert got == want


def count_position_solves(monkeypatch) -> list:
    """Patch ``_kernels.position_solve`` to append 1 per call to the returned list."""
    calls = []
    real = _kernels.position_solve

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(_kernels, "position_solve", counted)
    return calls


@pytest.mark.parametrize("experiment", tuple(EXPERIMENTS))
def test_position_is_solved_once_per_trial_and_sweep(monkeypatch, experiment):
    sweep = EXPERIMENTS[experiment][0]
    base = default_scenario(trials=12, seed=4)
    calls = count_position_solves(monkeypatch)
    sweep(base, GRID)
    assert len(calls) == 12
    # outside a sweep every trial solves
    calls.clear()
    run_ensemble(base)
    assert len(calls) == 12
    # a pool's workers solve per call as well
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
    calls.clear()
    sweep(base, GRID, PROPAGATED, 2)
    assert len(calls) == 12 * len(GRID)


@pytest.mark.parametrize("ranges, solves", [
    ((0.5, 1.0, 2.0), 3),       # a new sigma_range at every point
    ((1.0, 1.0, 2.0), 2),       # the second point reuses the first's position
    ((1.0, 2.0, 1.0), 3),       # the table keeps the last sigma_range solved at
])
def test_sweep_of_sigma_range_equals_unshared_points(monkeypatch, ranges, solves):
    base = default_scenario(trials=15, seed=9)
    sigma_range = dict(zip(GRID, ranges))

    def noise_for(s):
        return NoiseSpec(sigma_range[s], s, 0.2)

    calls = count_position_solves(monkeypatch)
    for rule in RULES:
        assert_matches_unshared(
            monkeypatch, base, "constant_acceleration", noise_for, rule, GRID,
            lambda: montecarlo._sweep(base, "sigma_range", GRID, "constant_acceleration",
                                      noise_for, rule, 1))
    # per rule: the unshared reference solves every point, the sweep `solves` of them
    assert len(calls) == len(RULES) * 15 * (len(GRID) + solves)


def test_position_survives_a_later_stage_failing(monkeypatch):
    # range-rate noise 1e150 makes every stage-2 solve overflow at the first point
    base = default_scenario(trials=10, seed=6)

    def noise_for(s):
        return NoiseSpec(1.0, 1e150 if s == GRID[0] else s, 0.1)

    calls = count_position_solves(monkeypatch)
    records = assert_matches_unshared(
        monkeypatch, base, "constant_velocity", noise_for, PROPAGATED, GRID,
        lambda: montecarlo._sweep(base, "sigma_range_rate", GRID, "constant_velocity",
                                  noise_for, PROPAGATED, 1))
    assert {r.failure for r in records[0]} == {"SingularGeometry"}
    assert all(r.ok for r in records[1] + records[2])
    calls.clear()
    draws = count_truth_draws(monkeypatch)
    seen = spy_ensembles(monkeypatch)
    montecarlo._sweep(base, "sigma_range_rate", GRID, "constant_velocity", noise_for,
                      PROPAGATED, 1)
    assert len(calls) == 10
    assert [entries for _, entries in seen] == [10, 10, 10]
    assert len(draws) == 10


@pytest.mark.parametrize("experiment", tuple(EXPERIMENTS))
def test_degenerate_position_fails_alike_at_every_point(monkeypatch, experiment):
    # four sensors on the diagonal: the trilateration Gram matrix is rank-deficient
    line = [[-50.0, -50.0], [0.0, 0.0], [50.0, 50.0], [120.0, 120.0]]
    base = default_scenario(trials=10, seed=8, sensors=line)
    calls = count_position_solves(monkeypatch)
    records = assert_sweep_matches_unshared(monkeypatch, base, experiment, PROPAGATED)
    for point in records:
        assert [r.failure for r in point] == ["DegenerateGeometry"] * 10
        assert [record_key(r) for r in point] == [record_key(r) for r in records[0]]
    # the reference solves at every point, the sweep once per trial; the
    # failure is kept in the table like a solution
    assert len(calls) == 10 * (len(GRID) + 1)


@pytest.mark.parametrize("experiment", tuple(EXPERIMENTS))
def test_reused_points_carry_the_solved_position_time(monkeypatch, experiment):
    sweep = EXPERIMENTS[experiment][0]
    seen = spy_ensembles(monkeypatch)
    sweep(default_scenario(trials=20, seed=12), GRID)
    first = seen[0][0]
    assert all(r.ok for r in first)
    for records, _ in seen[1:]:
        for rec, solved in zip(records, first):
            assert sorted(rec.stage_times) == sorted(montecarlo.METHODS)
            assert rec.stage_times["position"] == solved.stage_times["position"]
            assert rec.estimates.position is solved.estimates.position


def test_overflowing_noise_anywhere_in_the_grid_runs_no_trial(monkeypatch):
    # 1e200 squared overflows: every point's NoiseSpec is built before the
    # table is drawn, so the three valid points before it run no trial either
    seen = spy_ensembles(monkeypatch)
    draws = count_truth_draws(monkeypatch)
    for sweep in (sweep_velocity_experiment, sweep_acceleration_experiment):
        with pytest.raises(ValueError, match="finite square"):
            sweep(default_scenario(trials=10), (0.1, 0.3, 1.0, 1e200))
        assert montecarlo._SWEEP_DRAWS.get() is None
    assert seen == []
    assert draws == []


@pytest.mark.parametrize("value", [True, "3", np.bool_(True), 1 + 0j],
                         ids=["bool", "str", "numpy-bool", "complex"])
def test_grid_value_that_is_no_real_number_runs_no_trial(monkeypatch, value):
    # grid values are sigmas: what NoiseSpec rejects with TypeError, the grid
    # does too, where float() would have read True as 1.0 and "3" as 3.0
    with pytest.raises(TypeError):
        NoiseSpec(1.0, value)
    seen = spy_ensembles(monkeypatch)
    draws = count_truth_draws(monkeypatch)
    for sweep in (sweep_velocity_experiment, sweep_acceleration_experiment):
        with pytest.raises(TypeError, match=r"^grid values must be real numbers, got "):
            sweep(default_scenario(trials=3), (0.5, value))
    assert seen == []
    assert draws == []


LAYOUTS = {"default": SensorArray(DEFAULT_SENSOR_POSITIONS), "ring64": SensorArray(RING64)}


@st.composite
def target_tables(draw):
    """A layout and 2 to 6 targets: ordinary ones, targets on a sensor (ZeroRange)
    and targets in boxes near +-8e307, whose squared offsets overflow, with
    speeds and accelerations up to 1e200, whose squares overflow too."""
    sensors = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))]
    ordinary = st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
    on_sensor = st.sampled_from([tuple(p) for p in sensors.positions.tolist()])
    far = st.builds(operator.mul, st.sampled_from((-8e307, 8e307)), st.floats(0.0, 1.0))
    position = st.one_of(ordinary, ordinary, on_sensor, st.tuples(far, far))
    component = st.one_of(st.floats(-50.0, 50.0), st.floats(-1e200, 1e200))
    pair = st.tuples(component, component)
    targets = st.lists(st.builds(TargetState, position, pair, pair), min_size=2, max_size=6)
    return sensors, draw(targets)


def _noisy_outcome(draws, noise):
    try:
        return model._noisy(draws, noise).tobytes()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(args=target_tables())
@example(args=(LAYOUTS["default"], [
    TargetState((0.0, 0.0), (1.0, 2.0)),                           # on a sensor
    TargetState((8e307, -8e307), (1e200, -1e200), (3.0, 4.0)),     # every range inf
    TargetState((30.0, 40.0), (1e200, 0.0)),                       # every drr NaN
]))
def test_table_rows_equal_the_list_path_bit_for_bit(args):
    # model._true_block against model._true_lists target by target, with the
    # same unit normals in rows 3-5; a ZeroRange target's whole row stays zero.
    # A NaN compares by position, not payload: every other value by its bits
    sensors, targets = args
    n = len(sensors)
    normals = np.random.default_rng(len(targets)).standard_normal((len(targets), 3, n))
    want = np.zeros((len(targets), 6, n))
    on_sensor = set()
    for t, target in enumerate(targets):
        try:
            want[t, :3] = model._true_lists(target, sensors)
        except ZeroRange:
            on_sensor.add(t)
            continue
        want[t, 3:] = normals[t]
    got = np.zeros_like(want)
    got[:, 3:] = normals
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no warning escapes the block
        assert model._true_block(targets, sensors, got) == on_sensor
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()
        for noise in (NoiseSpec(), NoiseSpec(0.0, 2.0, 1e150)):
            assert _noisy_outcome(got, noise) == _noisy_outcome(want, noise)


def test_trial_tables_take_no_trial_down_the_list_path(monkeypatch):
    calls = []
    real = model._true_lists
    monkeypatch.setattr(model, "_true_lists", lambda *a: calls.append(1) or real(*a))
    for sweep, _, _ in EXPERIMENTS.values():
        sweep(default_scenario(trials=12), GRID)
    sweep_velocity_experiment(default_scenario(trials=6, sensors=RING64), GRID)
    # a trial outside a sweep is a one-trial table
    run_trial(default_scenario(), 3)
    assert calls == []
