"""A sweep draws each trial once and noises the draws at every grid point.

Every point of a sweep reruns trial i on the same streams, sensors, boxes
and motion mode, so ``_sweep`` draws every trial's truth and noise-free,
unit-noise rows before its first point, into a table with one block of
draws, and noises that block at each point.  The table also keeps each
trial's one position outcome, which every point reuses: no sweep changes
sigma_range.  Each point is scored through one seam,
``montecarlo._score_point``, and these tests state what a point's scores
must be, not how they are made:

- equality: each point's squared-error columns and failure count equal
  those of lone ``run_trial`` calls on an unshared scenario, bit for bit,
  and ``run_trial`` of the point's own scenario gives the lone records;
- work: one ``sample_truth`` call and one ``_kernels.position_solve`` per
  trial per sweep (none for a truth on a sensor), the boxes checked once,
  and on one thread one call of the module's ``run_trial`` per trial per
  point, each record giving its five squared errors and five stage times as
  tuples in ``METHODS`` order (empty on failure);
- memory: at most one live ``TrialRecord`` during a one-thread sweep, and
  no table outlives its sweep;
- concurrency: sweeps run at once from user threads keep their own tables,
  and a trial run during a sweep equals a lone call;
- errors: a bad grid, noise or ``threads`` value draws no truth and scores
  no point.

The one spy wraps ``_score_point`` and captures each point's scenario,
columns and failure count; work is counted only at ``sample_truth``,
``_kernels.position_solve``, ``_as_box`` and ``run_trial``.
"""

import gc
import math
import operator
import re
import struct
import sys
import threading
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import record_columns, spy_points
from kinloc import _kernels, model, montecarlo
from kinloc.errors import ZeroRange
from kinloc.estim import PROPAGATED, UNIFORM, WeightRule
from kinloc.model import NoiseSpec, SensorArray, TargetState
from kinloc.montecarlo import (DEFAULT_SENSOR_POSITIONS, METHODS, Scenario, _aggregate_point,
                               default_scenario, rmse, run_ensemble, run_trial,
                               sweep_acceleration_experiment, sweep_velocity_experiment)

RULES = (UNIFORM, WeightRule(), PROPAGATED)
# sweep function, motion mode, and the swept NoiseSpec field, as the sweeps
# document them: a point's noise is the base's with that field set to its sigma
EXPERIMENTS = {
    "velocity": (sweep_velocity_experiment, "constant_velocity", "sigma_range_rate"),
    "acceleration": (sweep_acceleration_experiment, "constant_acceleration", "sigma_drr"),
}
GRID = (0.1, 1.0, 10.0)
_ANGLES = 2.0 * math.pi * np.arange(64) / 64
RING64 = np.column_stack((100.0 * np.cos(_ANGLES), 100.0 * np.sin(_ANGLES)))
# each point's columns: the squared errors, then the stage times, one per method
SQUARED, TIMES = slice(0, len(METHODS)), slice(len(METHODS), 2 * len(METHODS))


def point_noise(base, swept, sigma) -> NoiseSpec:
    """The noise of a sweep point: the base's, with the swept field set to sigma."""
    return replace(base.noise, **{swept: sigma})


def _bits(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def record_key(rec) -> tuple:
    """Every number a trial record holds except its wall times, as bytes."""
    truth = rec.truth
    key = [rec.trial_index, rec.failure, truth.position.tobytes(), truth.velocity.tobytes(),
           truth.acceleration.tobytes(), _bits(*rec.squared_errors), len(rec.stage_times)]
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


def count_truth_draws(monkeypatch) -> list:
    """Patch ``montecarlo.sample_truth`` to append 1 per call to the returned list."""
    draws = []
    real = montecarlo.sample_truth

    def counted(scenario, rng):
        draws.append(1)
        return real(scenario, rng)

    monkeypatch.setattr(montecarlo, "sample_truth", counted)
    return draws


def count_position_solves(monkeypatch) -> list:
    """Patch ``_kernels.position_solve`` to append 1 per call to the returned list."""
    calls = []
    real = _kernels.position_solve

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(_kernels, "position_solve", counted)
    return calls


def assert_sweep_matches_unshared(monkeypatch, base, experiment, rule, grid=GRID, threads=1):
    """The sweep's points equal lone trials on unshared scenarios (see below);
    returns the lone records per point."""
    sweep, mode, swept = EXPERIMENTS[experiment]
    return assert_matches_unshared(monkeypatch, base, mode, swept, rule, grid,
                                   lambda: sweep(base, grid, rule, threads))


def assert_matches_unshared(monkeypatch, base, mode, swept, rule, grid, run):
    """``run()`` sweeps the ``NoiseSpec`` field ``swept`` over ``grid`` in
    motion mode ``mode``.  Each point's squared-error columns and failure
    count equal, bit for bit, those of lone ``run_trial`` calls on an
    unshared copy of the point's scenario, whose fields are the base's with
    that mode and the base's noise with ``swept`` set to the point's sigma;
    ``run_trial`` of the point's own scenario gives the lone records, and the
    SweepPoint is the fold of the lone columns.  Returns the lone records per
    point."""
    with monkeypatch.context() as patch:
        seen = spy_points(patch)
        result = run()
    assert result.swept_parameter == swept
    assert len(seen) == len(grid) == len(result.points)
    lone_records = []
    for (point, columns, failures), sigma, got in zip(seen, grid, result.points):
        lone = replace(point)       # the same fields, and nothing the sweep shares
        want_scenario = replace(base, noise=point_noise(base, swept, sigma), motion_mode=mode)
        assert repr(lone) == repr(want_scenario)
        records = [run_trial(lone, i, rule) for i in range(base.trials)]
        assert ([record_key(run_trial(point, i, rule)) for i in range(base.trials)]
                == [record_key(rec) for rec in records])
        want, want_failures = record_columns(records)
        assert failures == want_failures
        assert [_bits(*c) for c in columns[SQUARED]] == [_bits(*c) for c in want[SQUARED]]
        assert [len(c) for c in columns] == [len(c) for c in want]
        assert point_key(got) == point_key(_aggregate_point(sigma, want, want_failures))
        lone_records.append(records)
    return lone_records


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
    # the unswept sigmas are the base's, none of them 1
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


def test_position_box_on_a_sensor_fails_every_point(monkeypatch, two_cpus):
    # every truth sits on the sensor at the origin
    base = replace(default_scenario(trials=10), position_box=((0.0, 0.0), (0.0, 0.0)))
    records = assert_sweep_matches_unshared(monkeypatch, base, "velocity", PROPAGATED)
    for point in records:
        assert [r.failure for r in point] == ["ZeroRange"] * 10
    # each trial, ZeroRange ones too, is drawn once, before the first point
    draws = count_truth_draws(monkeypatch)
    seen = spy_points(monkeypatch)
    solves = count_position_solves(monkeypatch)
    sweep_velocity_experiment(base, GRID)
    assert [(columns, failures) for _, columns, failures in seen] == [([], 10)] * len(GRID)
    assert len(draws) == 10
    # and no point of either sweep, at 1 or 2 threads, solves a position:
    # ZeroRange is each trial's outcome from the start
    for sweep, _, _ in EXPERIMENTS.values():
        for threads in (1, 2):
            sweep(base, GRID, PROPAGATED, threads)
    assert solves == []


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
    with pytest.raises(ValueError, match=f"^{column} must be finite$"):
        run_trial(base, 0)


@pytest.mark.parametrize("experiment", tuple(EXPERIMENTS))
def test_threads_1_and_2_agree(monkeypatch, two_cpus, experiment):
    base = default_scenario(trials=30, seed=5)
    assert_sweep_matches_unshared(monkeypatch, base, experiment, PROPAGATED)
    assert_sweep_matches_unshared(monkeypatch, base, experiment, PROPAGATED, threads=2)


def test_each_trial_is_drawn_once_per_sweep(monkeypatch, two_cpus):
    draws = count_truth_draws(monkeypatch)
    # a pool's workers read the draws a one-thread sweep reads
    for threads in (1, 2):
        draws.clear()
        sweep_velocity_experiment(default_scenario(trials=12), GRID, PROPAGATED, threads)
        assert len(draws) == 12
    # outside a sweep every call draws
    draws.clear()
    run_ensemble(default_scenario(trials=12))
    run_ensemble(default_scenario(trials=12))
    assert len(draws) == 24


def live_tables() -> int:
    """The number of sweep tables alive after a full collection."""
    gc.collect()
    return sum(isinstance(obj, montecarlo._Trials) for obj in gc.get_objects())


def assert_points_freed(seen, tables):
    """Every scenario ``seen`` captured is freed once the list lets go of it,
    and ``tables`` tables are alive, as before the sweep."""
    scenarios = [weakref.ref(scenario) for scenario, _, _ in seen]
    seen.clear()
    assert live_tables() == tables
    assert all(ref() is None for ref in scenarios)


def test_no_table_survives_a_sweep(monkeypatch):
    base = default_scenario(trials=5)
    tables = live_tables()
    seen = spy_points(monkeypatch)
    sweep_acceleration_experiment(base, GRID)
    assert len(seen) == len(GRID)
    assert_points_freed(seen, tables)
    # a sweep that raises while it scores its second point leaves none behind
    spy = montecarlo._score_point

    def broken(scenario, weight_rule, threads):
        if seen:
            raise RuntimeError("point failed")
        return spy(scenario, weight_rule, threads)

    monkeypatch.setattr(montecarlo, "_score_point", broken)
    with pytest.raises(RuntimeError):
        sweep_velocity_experiment(base, GRID)
    assert len(seen) == 1
    # the collection also frees the frames the exception's traceback held
    assert_points_freed(seen, tables)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("experiment", tuple(EXPERIMENTS))
def test_a_trial_run_during_a_sweep_equals_a_lone_call(monkeypatch, two_cpus, experiment,
                                                       threads):
    # while each point is scored, a user thread runs trials of its own:
    # another scenario's, an earlier point's, the point's own and one past
    # the point's trials.  The sweep's own thread runs them too, just before
    # and just after the point, where state kept per thread or per context
    # (a ContextVar, a threading.local) would still hold the sweep's table.
    # Each record equals the one a call on an unshared scenario returns, and
    # the sweep's points do not move
    base, other = default_scenario(trials=6, seed=4), default_scenario(trials=3, seed=99)
    sweep = EXPERIMENTS[experiment][0]
    want = [point_key(p) for p in sweep(base, GRID, PROPAGATED, threads).points]
    real = montecarlo._score_point
    points, calls = [], []

    def run_jobs(jobs):
        calls.extend((s, i, run_trial(s, i)) for s, i in jobs)

    def score_beside_a_user_thread(scenario, weight_rule, threads):
        points.append(scenario)
        jobs = ((other, 0), (points[0], 0), (scenario, 1), (scenario, 8))
        user = threading.Thread(target=run_jobs, args=(jobs,))
        user.start()
        try:
            run_jobs(jobs)
            scores = real(scenario, weight_rule, threads)
            run_jobs(jobs)
            return scores
        finally:
            user.join()

    monkeypatch.setattr(montecarlo, "_score_point", score_beside_a_user_thread)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = [point_key(p) for p in sweep(base, GRID, PROPAGATED, threads).points]
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert len(points) == len(GRID) and len(calls) == 3 * 4 * len(GRID)
    for scenario, trial_index, record in calls:
        lone = replace(scenario)       # the same fields, and nothing the sweep shares
        assert repr(lone) == repr(scenario)
        assert record_key(record) == record_key(run_trial(lone, trial_index))


@pytest.mark.parametrize("threads, error, message", [
    (2.7, TypeError, "must be an integer"), (True, TypeError, "must be an integer"),
    ("2", TypeError, "must be an integer"), (None, TypeError, "must be an integer"),
    (0, ValueError, "must be >= 1"), (-3, ValueError, "must be >= 1"),
])
def test_threads_that_is_no_count_of_workers_runs_no_trial(monkeypatch, threads, error,
                                                           message):
    # where a float was cut to a pool size and a bool, 0 or -3 ran serially
    draws = count_truth_draws(monkeypatch)
    seen = spy_points(monkeypatch)
    with pytest.raises(error, match=f"^threads {message}, got "):
        run_ensemble(default_scenario(trials=4), threads=threads)
    for sweep, _, _ in EXPERIMENTS.values():
        with pytest.raises(error, match=f"^threads {message}, got "):
            sweep(default_scenario(trials=4), GRID, PROPAGATED, threads)
    assert seen == []
    assert draws == []


def test_concurrent_sweeps_keep_their_own_tables(monkeypatch):
    # four sweeps of different seeds, more threads than cores, draw each truth
    # and start each point in lockstep with a short switch interval, so each
    # fills its table and scores its points while the others do; a table
    # shared between them would hand one sweep another's trials
    bases = [default_scenario(trials=15, seed=seed) for seed in (1, 2, 3, 4)]
    want = [[point_key(p) for p in sweep_velocity_experiment(b, GRID).points] for b in bases]
    barrier = threading.Barrier(len(bases), timeout=60)
    real_truth, real_score = montecarlo.sample_truth, montecarlo._score_point
    got, errors = [None] * len(bases), []

    def truth_in_lockstep(scenario, rng):
        barrier.wait()
        return real_truth(scenario, rng)

    def score_in_lockstep(scenario, weight_rule, threads):
        barrier.wait()
        return real_score(scenario, weight_rule, threads)

    def run(k):
        try:
            got[k] = [point_key(p)
                      for p in sweep_velocity_experiment(bases[k], GRID).points]
        except Exception as exc:        # reported below, on the test's thread
            errors.append(exc)
            barrier.abort()

    monkeypatch.setattr(montecarlo, "sample_truth", truth_in_lockstep)
    monkeypatch.setattr(montecarlo, "_score_point", score_in_lockstep)
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


@pytest.mark.parametrize("experiment", tuple(EXPERIMENTS))
def test_position_is_solved_once_per_trial_and_sweep(monkeypatch, two_cpus, experiment):
    sweep = EXPERIMENTS[experiment][0]
    base = default_scenario(trials=12, seed=4)
    calls = count_position_solves(monkeypatch)
    sweep(base, GRID)
    assert len(calls) == 12
    # outside a sweep every trial solves
    calls.clear()
    run_ensemble(base)
    assert len(calls) == 12
    # a pool's workers reuse the table's positions as well
    calls.clear()
    sweep(base, GRID, PROPAGATED, 2)
    assert len(calls) == 12


def counted_run(counters, run):
    """``run`` wrapped to clear each list in ``counters`` first; the returned
    list gets the lengths they reached during each call."""
    counts = []

    def counted():
        for counter in counters:
            counter.clear()
        result = run()
        counts.append([len(counter) for counter in counters])
        return result

    return counted, counts


def test_position_survives_a_later_stage_failing(monkeypatch):
    # range-rate noise 1e150 makes every stage-2 solve overflow at the last
    # point.  Right after it the first point's trials run again: they reuse
    # the positions the failing trials left in the table, and succeed
    base = default_scenario(trials=10, seed=6, noise=NoiseSpec(1.0, 1.0, 0.1))
    grid = (0.5, 2.0, 1e150)
    real, points, reruns = montecarlo._score_point, [], []

    def rerun_the_first_point_last(scenario, weight_rule, threads):
        points.append(scenario)
        scores = real(scenario, weight_rule, threads)
        if len(points) == len(grid):
            reruns.extend(run_trial(points[0], i, weight_rule) for i in range(base.trials))
        return scores

    monkeypatch.setattr(montecarlo, "_score_point", rerun_the_first_point_last)
    run, counts = counted_run(
        [count_position_solves(monkeypatch), count_truth_draws(monkeypatch)],
        lambda: sweep_velocity_experiment(base, grid))
    records = assert_matches_unshared(monkeypatch, base, "constant_velocity", "sigma_range_rate",
                                      PROPAGATED, grid, run)
    assert {r.failure for r in records[2]} == {"SingularGeometry"}
    assert all(r.ok for r in records[0] + records[1])
    assert [record_key(r) for r in reruns] == [record_key(r) for r in records[0]]
    # each trial drawn and its position solved once, the reruns included
    assert counts == [[10, 10]]


@pytest.mark.parametrize("experiment", tuple(EXPERIMENTS))
def test_degenerate_position_fails_alike_at_every_point(monkeypatch, experiment):
    # four sensors on the diagonal: the trilateration Gram matrix is rank-deficient
    line = [[-50.0, -50.0], [0.0, 0.0], [50.0, 50.0], [120.0, 120.0]]
    base = default_scenario(trials=10, seed=8, sensors=line)
    sweep, mode, swept = EXPERIMENTS[experiment]
    run, counts = counted_run([count_position_solves(monkeypatch)],
                              lambda: sweep(base, GRID, PROPAGATED))
    records = assert_matches_unshared(monkeypatch, base, mode, swept, PROPAGATED, GRID, run)
    for point in records:
        assert [r.failure for r in point] == ["DegenerateGeometry"] * 10
        assert [record_key(r) for r in point] == [record_key(r) for r in records[0]]
    # the sweep solves once per trial: the failure is kept like a solution
    assert counts == [[10]]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("experiment", tuple(EXPERIMENTS))
def test_reused_points_carry_the_solved_position_time(monkeypatch, two_cpus, experiment,
                                                      threads):
    # each later point's position-time column is the first point's, element by
    # element: the time measured when the trial's position was solved
    sweep = EXPERIMENTS[experiment][0]
    seen = spy_points(monkeypatch)
    sweep(default_scenario(trials=20, seed=12), GRID, PROPAGATED, threads)
    (_, first, failures), *later = seen
    assert failures == 0 and [len(c) for c in first] == [20] * 2 * len(METHODS)
    for _, columns, failures in later:
        assert failures == 0 and [len(c) for c in columns] == [20] * 2 * len(METHODS)
        assert _bits(*columns[TIMES][0]) == _bits(*first[TIMES][0])


@pytest.mark.parametrize("grid", [(0.1, 0.3, 1.0, 1e200), (0.5, 1e160)])
def test_overflowing_noise_anywhere_in_the_grid_runs_no_trial(monkeypatch, grid):
    # the last value squared overflows: every point's NoiseSpec is built before
    # the table is drawn, so the valid points before it run no trial either
    seen = spy_points(monkeypatch)
    draws = count_truth_draws(monkeypatch)
    for sweep in (sweep_velocity_experiment, sweep_acceleration_experiment):
        with pytest.raises(ValueError, match="finite square"):
            sweep(default_scenario(trials=10), grid)
    assert seen == []
    assert draws == []


@pytest.mark.parametrize("grid", [*[(0.5, value) for value in (True, "3", np.bool_(True), 1 + 0j)],
                                  5, None, 1.0],
                         ids=["bool", "str", "numpy-bool", "complex", "int", "None", "float"])
def test_grid_value_that_is_no_real_number_runs_no_trial(monkeypatch, grid):
    # grid values are sigmas: what NoiseSpec rejects with TypeError, the grid
    # does too, where float() would have read True as 1.0 and "3" as 3.0; a grid
    # that is not iterable is named, where iter()'s own message named only its type
    if isinstance(grid, tuple):
        with pytest.raises(TypeError):
            NoiseSpec(1.0, grid[1])
        message = f"^grid values must be real numbers, got {re.escape(repr(grid[1]))}$"
    else:
        message = f"^grid must be a sequence of real numbers, got {grid!r}$"
    seen = spy_points(monkeypatch)
    draws = count_truth_draws(monkeypatch)
    for sweep in (sweep_velocity_experiment, sweep_acceleration_experiment):
        with pytest.raises(TypeError, match=message):
            sweep(default_scenario(trials=3), grid)
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
    # model._true_block, given each target's six floats as a trial table
    # holds them, against model._true_lists target by target, with the
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
        floats = [(*t.position.tolist(), *t.velocity.tolist(), *t.acceleration.tolist())
                  for t in targets]
        assert model._true_block(floats, sensors, got) == on_sensor
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


@pytest.mark.parametrize("experiment, grid, successes", [
    ("velocity", (0.5, 2.0, 1e150), [15, 15, 0]),       # 1e150 fails every trial
    ("acceleration", GRID, [15, 15, 15]),
])
def test_one_thread_sweep_holds_one_trial_record_at_a_time(monkeypatch, experiment, grid,
                                                           successes):
    # each point folds its trials' floats into columns and drops each record,
    # failed ones too, before the next is made: whenever a record is made, no
    # other one is alive.  Every trial of every point makes one record, so
    # the count shows that the subclass sees the sweep's records
    sweep = EXPERIMENTS[experiment][0]
    made, alive = [], []

    class Tracked(montecarlo.TrialRecord):
        def __init__(self, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in made))
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(montecarlo, "TrialRecord", Tracked)
    result = sweep(default_scenario(trials=15), grid)
    assert [p.successes for p in result.points] == successes
    assert len(alive) == 15 * len(grid)
    assert max(alive) == 0


@pytest.mark.parametrize("experiment, grid, failures", [
    ("velocity", (0.5, 2.0, 1e150), [0, 0, 15]),        # 1e150 fails every trial
    ("acceleration", GRID, [0, 0, 0]),
])
def test_one_thread_sweep_calls_run_trial_once_per_trial_and_point(monkeypatch, experiment,
                                                                   grid, failures):
    # perfbench's per-item probe times each call of the module attribute
    # run_trial, so it must see every trial of every point; a sweep that made
    # its records another way would still pass the record count above.
    # _score_point joins a record's squared errors and stage times into one
    # row, so run_trial gives five floats of each; a failed trial gives neither
    sweep = EXPERIMENTS[experiment][0]
    real, calls = montecarlo.run_trial, []

    def counted(scenario, trial_index, weight_rule=PROPAGATED):
        rec = real(scenario, trial_index, weight_rule)
        want = len(METHODS) if rec.ok else 0
        assert len(rec.squared_errors) == len(rec.stage_times) == want
        assert all(type(v) is float for v in rec.squared_errors + rec.stage_times)
        calls.append((scenario, trial_index))
        return rec

    monkeypatch.setattr(montecarlo, "run_trial", counted)
    seen = spy_points(monkeypatch)
    sweep(default_scenario(trials=15), grid)
    assert len(seen) == len(grid)
    assert calls == [(scenario, i) for scenario, _, _ in seen for i in range(15)]
    assert [point_failures for _, _, point_failures in seen] == failures


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_rmses_equal_rmse_of_the_points_records_bit_for_bit(monkeypatch, two_cpus,
                                                                 threads):
    # at 6e76 some trials' stage-2 solves overflow, at 1e150 every one does.
    # np.mean's bits depend on the order of a column, so at either thread
    # count each point's columns must hold the lone trials' scores in trial
    # order, not only the same set of them
    base = default_scenario(trials=40, seed=7)
    grid = (0.5, 6e76, 1e150)
    assert_sweep_matches_unshared(monkeypatch, base, "velocity", PROPAGATED, grid, threads)
    result = sweep_velocity_experiment(base, grid, PROPAGATED, threads)
    for point, sigma in zip(result.points, grid):
        noise = point_noise(base, "sigma_range_rate", sigma)
        records = run_ensemble(replace(base, noise=noise, motion_mode="constant_velocity"))
        successes = sum(rec.ok for rec in records)
        assert (point.failures, point.successes) == (len(records) - successes, successes)
        for m in METHODS:
            got = getattr(point, f"rmse_{m}")
            if successes:
                assert got.hex() == rmse(records, m).hex()
            else:
                assert math.isnan(got) and point.mean_stage_times == (0.0,) * len(METHODS)
    assert 0 < result.points[1].failures < 40 and result.points[2].successes == 0


def test_point_scenarios_are_the_base_with_the_point_noise(monkeypatch):
    # each point's scenario holds the sweep base's sensors, boxes, trial count
    # and seed, the experiment's motion mode and the base's noise with the
    # swept sigma replaced
    for sweep, mode, swept in EXPERIMENTS.values():
        base = default_scenario(trials=3, noise=NoiseSpec(2.0, 3.0, 4.0))
        with monkeypatch.context() as patch:
            seen = spy_points(patch)
            sweep(base, GRID)
        assert len(seen) == len(GRID)
        for (scenario, _, _), sigma in zip(seen, GRID):
            assert scenario.motion_mode == mode
            assert scenario.noise == point_noise(base, swept, sigma)
            assert scenario.sensors is base.sensors
            for field in ("position_box", "velocity_box", "acceleration_box"):
                assert getattr(scenario, field).tobytes() == getattr(base, field).tobytes()
            assert (scenario.trials, scenario.seed) == (base.trials, base.seed)
