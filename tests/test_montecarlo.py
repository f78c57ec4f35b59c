import dataclasses
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from conftest import COPIERS, assert_cannot_unlock, record_columns
from kinloc import cli, estim, montecarlo
from kinloc.errors import EmptyEnsemble, SingularGeometry
from kinloc.model import NoiseSpec, SensorArray, TargetState
from kinloc.montecarlo import (DEFAULT_SENSOR_POSITIONS, METHODS, Scenario, SweepPoint,
                               SweepResult, TrialRecord, default_scenario, rmse,
                               run_ensemble, run_trial, sweep_acceleration_experiment,
                               sweep_velocity_experiment, timing_report)

ZERO_NOISE = NoiseSpec(0.0, 0.0, 0.0)


def record_with_errors(sq, index=0, failure=None):
    truth = TargetState((0.0, 0.0), (0.0, 0.0))
    return TrialRecord(index, truth, None, sq, (0.0,) * len(sq), failure)


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

    def test_box_with_overflowing_extent_rejected(self):
        # each corner is finite, but max - min is not: the draw would not be
        with pytest.raises(ValueError, match="position_box extent max - min must be finite"):
            Scenario(
                sensors=SensorArray(DEFAULT_SENSOR_POSITIONS),
                position_box=((-1e308, -1e308), (1e308, 1e308)),
                velocity_box=((-1.0, -1.0), (1.0, 1.0)),
                acceleration_box=((-1.0, -1.0), (1.0, 1.0)),
                noise=NoiseSpec(), trials=10, seed=0,
                motion_mode="constant_velocity")
        wide = replace(default_scenario(), position_box=((-8e307, 0.0), (8e307, 1.0)))
        truth = montecarlo.sample_truth(wide, np.random.default_rng(0))
        assert np.isfinite(truth.position).all()

    @pytest.mark.parametrize("corner", [float("nan"), 10 ** 400], ids=["nan", "10**400"])
    def test_non_finite_box_corner_rejected(self, corner):
        # an integer too large for a float is not finite either
        with pytest.raises(ValueError, match="^position_box must be finite$"):
            replace(default_scenario(), position_box=((0, 0), (corner, 1)))

    def test_bad_motion_mode_rejected(self):
        with pytest.raises(ValueError):
            default_scenario(motion_mode="warp_drive")

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            default_scenario(trials=0)

    def test_counts_must_be_integers(self):
        # int() truncated these: trials=2.9 ran 2 trials, seed=7.8 ran seed 7
        for bad in (dict(trials=2.9), dict(seed=7.8), dict(trials=True), dict(seed="7")):
            with pytest.raises(TypeError):
                default_scenario(**bad)
        sc = default_scenario(trials=np.int64(2), seed=np.uint8(7))
        assert (sc.trials, sc.seed) == (2, 7)
        assert type(sc.trials) is int and type(sc.seed) is int


def uniform_sample_truth(scenario, rng):
    """The reference draw: numpy's own Generator.uniform on the box arrays."""
    pos = rng.uniform(scenario.position_box[0], scenario.position_box[1])
    vel = rng.uniform(scenario.velocity_box[0], scenario.velocity_box[1])
    if scenario.motion_mode == "constant_acceleration":
        acc = rng.uniform(scenario.acceleration_box[0], scenario.acceleration_box[1])
    else:
        acc = np.zeros(2)
    return TargetState(pos, vel, acc)


class TestRandomStreams:
    BOXES = (
        ((0.0, 0.0), (100.0, 100.0)),
        ((-20.0, -20.0), (20.0, 20.0)),
        ((-1e3, 5.0), (-7.5, 3e4)),             # negative and asymmetric
        ((-0.1, -3e-7), (1e-3, -1e-7)),         # straddles zero, tiny extent
        ((3.25, -2.0), (3.25, -2.0)),           # zero width in both axes
        ((-4.0, 1.0), (-4.0, 1e6)),             # zero width in one axis
        ((-1e300, 1e300), (0.0, 1.5e300)),
    )

    def test_box_draw_matches_generator_uniform_bitwise(self):
        boxes = [np.array(box) for box in self.BOXES]
        ours, numpys = [], []
        for seed in range(10_000):
            rng_ours, rng_numpy = np.random.default_rng(seed), np.random.default_rng(seed)
            ours.extend(montecarlo._uniform_boxes(rng_ours, boxes))
            for box in boxes:
                numpys.append(rng_numpy.uniform(box[0], box[1]))
            # both consumed the same number of doubles
            assert rng_ours.random() == rng_numpy.random()
        np.testing.assert_array_equal(np.array(ours).view(np.uint64),
                                      np.array(numpys).view(np.uint64))

    def test_sample_truth_matches_uniform_reference(self):
        for mode in montecarlo.MOTION_MODES:
            sc = default_scenario(motion_mode=mode)
            for seed in range(2000):
                got = montecarlo.sample_truth(sc, np.random.default_rng(seed))
                want = uniform_sample_truth(sc, np.random.default_rng(seed))
                for field in ("position", "velocity", "acceleration"):
                    assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_stream_blocks_are_the_spawned_children(self):
        # known answers: numpy's own SeedSequence.spawn, at block edges, at the
        # 2**32 boundary of the index's word count and at the largest index
        for seed in (0, 7, 2 ** 32 + 5, 2 ** 63 - 1, 2 ** 70 + 5):
            for index in (0, 1, 1023, 1024, 2 ** 32 - 1, 2 ** 32, 2 ** 40, 2 ** 63 - 1):
                words = montecarlo._stream_block(seed, index // 1024)[index % 1024]
                spawned = np.random.SeedSequence((seed, index)).spawn(2)
                for k, child in enumerate(spawned):
                    want = np.random.default_rng(child)
                    got = np.random.Generator(np.random.PCG64(montecarlo._State(words[k])))
                    assert got.bit_generator.state == want.bit_generator.state
                    assert got.random(2).tobytes() == want.random(2).tobytes()
                    assert (got.standard_normal((3, 8)).tobytes()
                            == want.standard_normal((3, 8)).tobytes())

    def test_state_seeds_only_pcg64(self):
        state = montecarlo._State(montecarlo._stream_block(0, 0)[0, 0])
        for n_words, dtype in ((4, np.uint32), (8, np.uint32), (2, np.uint64)):
            with pytest.raises(ValueError, match="only seeds PCG64"):
                state.generate_state(n_words, dtype)

    def test_stream_block_covers_every_index_of_the_block(self):
        block = montecarlo._stream_block(2 ** 40 + 3, 4_194_305)   # indices from 2**32 + 1024
        assert block.shape == (1024, 2, 8) and not block.flags.writeable
        for j in range(1024):
            spawned = np.random.SeedSequence((2 ** 40 + 3, 2 ** 32 + 1024 + j)).spawn(2)
            for k, child in enumerate(spawned):
                np.testing.assert_array_equal(block[j, k], child.generate_state(8))


class TestRunTrial:
    def test_noiseless_trial_is_consistent(self):
        sc = default_scenario(trials=1, noise=ZERO_NOISE,
                              motion_mode="constant_acceleration")
        rec = run_trial(sc, 0)
        assert rec.ok
        assert max(rec.squared_errors) <= 1e-10

    def test_trial_index_must_be_an_integer(self):
        sc = default_scenario(trials=2)
        for bad in (1.7, True, "1"):
            with pytest.raises(TypeError):
                run_trial(sc, bad)
        rec = run_trial(sc, np.int64(1))
        assert type(rec.trial_index) is int and rec.trial_index == 1
        assert rec.squared_errors == run_trial(sc, 1).squared_errors

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
        assert rec.estimates is None and rec.squared_errors == ()

    def test_overflowing_stage_solution_recorded_not_raised(self):
        # range rates near 1e150 overflow the acceleration LS solve of trial 6
        sc = default_scenario(trials=7, noise=NoiseSpec(1.0, 1e150, 1.0))
        assert run_trial(sc, 6).failure == "SingularGeometry"

    def test_stage_times_come_from_the_shared_pipeline(self, monkeypatch):
        sc = default_scenario(trials=1)
        assert len(run_trial(sc, 0).stage_times) == len(METHODS)

        # the trial runs estim's private stage functions, so a failure in the
        # acceleration stage fails the trial and leaves no partial stage times
        def singular(*args, **kwargs):
            raise SingularGeometry("stage Gram matrix singular")

        monkeypatch.setattr(estim, "_acceleration", singular)
        rec = run_trial(sc, 0)
        assert rec.failure == "SingularGeometry" and rec.stage_times == ()


class TestTrialRecord:
    """TrialRecord writes its fields in a hand-written ``__init__`` and keeps the
    frozen dataclass contract of the generated one."""

    FIELDS = ["trial_index", "truth", "estimates", "squared_errors", "stage_times", "failure"]

    @pytest.fixture(params=["ok", "failed"])
    def record(self, request):
        sc = default_scenario(trials=4, motion_mode="constant_acceleration")
        if request.param == "failed":       # every truth on the sensor at the origin
            sc = replace(sc, position_box=((0.0, 0.0), (0.0, 0.0)))
        rec = run_trial(sc, 2)
        assert rec.ok == (request.param == "ok")
        return rec

    def test_fields_in_order_and_by_keyword(self, record):
        assert [f.name for f in dataclasses.fields(record)] == self.FIELDS
        # the instance dict holds the fields alone, in field order
        assert list(vars(record)) == self.FIELDS
        # by position and by keyword, as the generated __init__ took them
        values = [getattr(record, name) for name in self.FIELDS]
        assert TrialRecord(*values) == TrialRecord(**dict(zip(self.FIELDS, values))) == record

    def test_repr(self):
        truth = TargetState((1.0, 2.0), (0.5, 0.0))
        rec = TrialRecord(3, truth, None, (), (), "ZeroRange")
        assert repr(rec) == (f"TrialRecord(trial_index=3, truth={truth!r}, estimates=None, "
                             "squared_errors=(), stage_times=(), failure='ZeroRange')")

    def test_equality_and_replace_follow_the_fields(self, record):
        twin = replace(record)
        assert twin is not record and twin == record
        assert replace(record, trial_index=7) != record
        assert replace(record, failure="SingularGeometry").ok is False
        # TargetState compares by identity, so an equal-valued truth is another field
        truth = record.truth
        assert replace(record, truth=TargetState(truth.position, truth.velocity,
                                                 truth.acceleration)) != record

    def test_scores_are_tuples_and_the_record_hashes(self, record):
        # the scores are fixed once made: a record hashes, and its tuples take
        # no assignment
        assert type(record.squared_errors) is type(record.stage_times) is tuple
        assert hash(record) == hash(replace(record))
        for scores in (record.squared_errors, record.stage_times):
            with pytest.raises(TypeError):
                scores[0] = 0.0

    def test_assignment_and_deletion_raise(self, record):
        for name in self.FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)

    @pytest.mark.parametrize("how", tuple(COPIERS))
    def test_pickle_and_deepcopy_round_trip(self, record, how):
        twin = COPIERS[how](record)
        assert type(twin) is TrialRecord and list(vars(twin)) == self.FIELDS
        assert (twin.trial_index, twin.estimates, twin.failure) == (
            record.trial_index, record.estimates, record.failure)
        # the scores keep their values and their METHODS order
        assert (twin.squared_errors, twin.stage_times) == (record.squared_errors,
                                                           record.stage_times)
        arrays = [record.truth.position, record.truth.velocity, record.truth.acceleration]
        copied = [twin.truth.position, twin.truth.velocity, twin.truth.acceleration]
        assert [a.tobytes() for a in copied] == [a.tobytes() for a in arrays]
        assert_cannot_unlock(*copied)


class TestRmse:
    def test_all_zero_errors(self):
        records = [record_with_errors((0.0,) * 5, i)
                   for i in range(4)]
        assert rmse(records, "position") == 0.0

    def test_single_trial_3_4_error(self):
        rec = record_with_errors((25.0,) * 5)
        assert rmse([rec], "velocity_ls") == 5.0

    def test_two_unit_errors_average(self):
        records = [record_with_errors((1.0,) * 5, i)
                   for i in range(2)]
        assert rmse(records, "accel_wls") == 1.0

    def test_failures_excluded(self):
        good = record_with_errors((4.0,) * 5, 0)
        bad = record_with_errors((), 1, failure="DegenerateGeometry")
        assert rmse([good, bad], "position") == 2.0

    def test_empty_ensemble_raises(self):
        bad = record_with_errors((), 0, failure="SingularGeometry")
        with pytest.raises(EmptyEnsemble):
            rmse([bad], "position")

    def test_unknown_method_rejected(self):
        with pytest.raises(KeyError):
            rmse([record_with_errors((0.0,) * 5)], "warp")

    def test_sweep_point_aggregates_like_rmse_bitwise(self):
        # 258 successes over many magnitudes, so that the order of the sums shows
        gen = np.random.default_rng(5)
        truth = TargetState((0.0, 0.0), (0.0, 0.0))
        records = []
        for i in range(301):
            if i % 7 == 3:
                records.append(TrialRecord(i, truth, None, (), (), "SingularGeometry"))
                continue
            sq = gen.exponential(10.0 ** gen.integers(-6, 6), 5).tolist()
            times = gen.uniform(0.0, 1e-4, 5).tolist()
            records.append(TrialRecord(i, truth, None, tuple(sq), tuple(times), None))
        point = montecarlo._aggregate_point(0.5, *record_columns(records))
        assert (point.failures, point.successes) == (43, 258)
        for k, m in enumerate(METHODS):
            assert getattr(point, f"rmse_{m}").hex() == rmse(records, m).hex()
            want = float(np.mean([rec.stage_times[k] for rec in records if rec.ok]))
            assert point.mean_stage_times[k].hex() == want.hex()
        failed = montecarlo._aggregate_point(0.5, [], 43)
        assert (failed.failures, failed.successes) == (43, 0)
        assert all(math.isnan(getattr(failed, f"rmse_{m}")) for m in METHODS)
        assert failed.mean_stage_times == (0.0,) * len(METHODS)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_point_scores_are_its_records_floats_in_trial_order(self, two_cpus, threads):
        # on a scenario that carries no sweep table too: at range-rate noise
        # 6e76 some trials' stage-2 solves overflow
        sc = default_scenario(trials=40, seed=7, noise=NoiseSpec(1.0, 6e76, 0.1))
        want, want_failures = record_columns(run_ensemble(sc))
        columns, failures = montecarlo._score_point(sc, estim.PROPAGATED, threads)
        assert 0 < failures == want_failures < 40
        assert columns[:len(METHODS)] == want[:len(METHODS)]
        assert [len(column) for column in columns] == [len(column) for column in want]


class TestEnsemble:
    def test_thread_count_does_not_change_results(self):
        sc = default_scenario(trials=40)
        serial = run_ensemble(sc, threads=1)
        threaded = run_ensemble(sc, threads=4)
        assert [r.trial_index for r in threaded] == list(range(40))
        for a, b in zip(serial, threaded):
            assert a.squared_errors == b.squared_errors

    def test_threads_sharing_the_block_cache_reproduce_serial_trials(self):
        # more threads than cores, a short switch interval, and indices from
        # three blocks interleaved so the two-block cache evicts while in use
        sc = default_scenario(trials=1)
        indices = [b * 1024 + j for j in range(8) for b in (0, 1, 2)] * 2
        montecarlo._stream_block.cache_clear()
        serial = [run_trial(sc, i).squared_errors for i in indices]
        montecarlo._stream_block.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = [f.result(timeout=60)
                            for f in [pool.submit(run_trial, sc, i) for i in indices]]
        finally:
            sys.setswitchinterval(interval)
        assert [r.squared_errors for r in threaded] == serial

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
        for k, method in enumerate(METHODS):
            sq_a = np.array([r.squared_errors[k] for r in rec_a])
            sq_b = np.array([r.squared_errors[k] for r in rec_b])
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

    def test_velocity_sweep_takes_the_unswept_sigmas_from_the_base(self):
        # sigma_range and sigma_drr are the base's; only sigma_range_rate is swept
        base = default_scenario(trials=30, noise=NoiseSpec(5.0, 3.0, 2.0))
        point = sweep_velocity_experiment(base, (1.0,)).points[0]
        records = run_ensemble(replace(base, noise=NoiseSpec(5.0, 1.0, 2.0)))
        assert ([getattr(point, "rmse_" + m) for m in METHODS]
                == [rmse(records, m) for m in METHODS])
        reference = sweep_velocity_experiment(default_scenario(trials=30), (1.0,))
        assert point.rmse_position != reference.points[0].rmse_position

    def test_acceleration_sweep_mode_and_base_sigmas(self):
        # constant-acceleration targets, sigma_range and sigma_range_rate the base's
        base = default_scenario(trials=30, noise=NoiseSpec(3.0, 3.0, 3.0))
        sweep = sweep_acceleration_experiment(base, (0.1,))
        assert sweep.swept_parameter == "sigma_drr"
        records = run_ensemble(replace(base, noise=NoiseSpec(3.0, 3.0, 0.1),
                                       motion_mode="constant_acceleration"))
        assert ([getattr(sweep.points[0], "rmse_" + m) for m in METHODS]
                == [rmse(records, m) for m in METHODS])
        reference = sweep_acceleration_experiment(default_scenario(trials=30), (0.1,))
        assert sweep.points[0].rmse_accel_ls != reference.points[0].rmse_accel_ls

    def test_grid_validation(self):
        base = default_scenario(trials=5)
        with pytest.raises(ValueError):
            sweep_velocity_experiment(base, ())
        with pytest.raises(ValueError):
            sweep_velocity_experiment(base, (1.0, 0.5))
        with pytest.raises(ValueError):
            sweep_velocity_experiment(base, (0.0, 1.0))
        # NaN compares false with everything, so the order checks cannot catch it
        # and an integer too large for a float is rejected as infinite
        for bad in ((0.1, float("nan")), (0.1, float("inf")), (float("nan"),), (0.1, 10 ** 400)):
            with pytest.raises(ValueError, match="^grid values must be finite$"):
                sweep_velocity_experiment(base, bad)

    def test_all_failed_point_gives_nan_rmses(self):
        # range-rate noise 1e150 makes every stage-2 solve overflow
        sweep = sweep_velocity_experiment(default_scenario(trials=20), (0.5, 1e150))
        solved, failed = sweep.points
        assert solved.failures == 0 and np.isfinite(solved.rmse_velocity_wls)
        assert failed.failures == 20 and failed.successes == 0
        for field in ("rmse_position", "rmse_velocity_ls", "rmse_velocity_wls",
                      "rmse_accel_ls", "rmse_accel_wls"):
            assert np.isnan(getattr(failed, field))
        assert failed.mean_stage_times == (0.0,) * len(METHODS)
        assert all(np.isfinite(t) for t in timing_report(sweep).values())

    def test_points_and_sweep_hash_and_their_times_take_no_assignment(self):
        sweep = sweep_velocity_experiment(default_scenario(trials=20), (0.5, 1e150))
        assert hash(sweep) == hash(replace(sweep))
        for point in sweep.points:
            assert hash(point) == hash(replace(point))
            with pytest.raises(TypeError):
                point.mean_stage_times[0] = 1e9

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
                           mean_stage_times=(0.0,) * len(METHODS))
        sweep = SweepResult("sigma_range_rate", (1.0,), (point,))
        assert all(v == 0.0 for v in timing_report(sweep).values())

    def test_each_time_goes_to_its_method(self):
        # distinct times per method and unequal success counts, so that a swap
        # of two methods or an unweighted mean shows
        times = ((1e-6, 2e-6, 3e-6, 5e-6, 7e-6), (11e-6, 13e-6, 17e-6, 19e-6, 23e-6))
        points = tuple(SweepPoint(sigma, 1.0, 1.0, 1.0, 1.0, 1.0, 0, successes, t)
                       for sigma, successes, t in zip((0.5, 2.0), (3, 1), times))
        sweep = SweepResult("sigma_range_rate", (0.5, 2.0), points)
        want = {m: (a * 3 + b * 1) / 4 for m, a, b in zip(METHODS, *times)}
        assert {m: t.hex() for m, t in timing_report(sweep).items()} == {
            m: t.hex() for m, t in want.items()}
        for line, (position, velocity_ls, velocity_wls, accel_ls, accel_wls) in zip(
                cli._sweep_csv(sweep, True).splitlines()[1:], times):
            t_ls, t_wls = map(float, line.split(",")[7:])
            assert t_ls == (position + velocity_ls + accel_ls) * 1e6
            assert t_wls == (position + velocity_wls + accel_wls) * 1e6
