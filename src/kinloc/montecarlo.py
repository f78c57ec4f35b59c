"""Scenario sampling, trial execution, and RMSE/timing aggregation.

A Scenario fixes the sensor layout, the uniform boxes the ground truth is
drawn from, the noise levels, the trial count and the master seed.  Every
trial draws its truth and its noise from the two streams of numpy's
``SeedSequence((seed, trial_index)).spawn(2)``, whose seed words are derived
for 1024 trial indices at a time, so results are a pure function of the
scenario: execution order, thread count, and which other trials ran never
change any number.  A sweep draws every trial once, before its first grid
point, into one (trials, 6, N) block, and each point noises the whole block
with its sigmas in one numpy operation; each point's scenario carries the
table and its noisy block, so a pool's workers read them as a one-thread
sweep does.  Every point reuses the table's one position outcome per trial:
that stage reads only the ranges, and no sweep changes sigma_range.
``_score_point`` scores each point, the seam the sweep tests hold to lone
``run_trial`` calls: float columns, in ``METHODS`` order, of its successful
trials' squared errors and stage times, each column in trial order, and its
failure count, which ``_aggregate_point`` folds.  One thread holds one record
at a time; a pooled sweep scores a point's list from ``run_ensemble``.

The two sweep drivers reproduce the standard experiments: velocity RMSE
against the range-rate noise level (constant-velocity targets), and
acceleration RMSE against the drr noise level (constant-acceleration
targets).  Each point's noise is the base scenario's with the swept sigma
replaced, so the other two come from the base.  Trials, ensembles and sweeps
default to the ``propagated`` weight rule.
"""

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateGeometry, EmptyEnsemble, SingularGeometry,
                     TooFewSensors, ZeroRange)
from .estim import (METHODS, PROPAGATED, EstimationResult, WeightRule, _timed_kinematics,
                    _timed_position)
# not called here: perfbench's tracer test reads montecarlo.estimate_position
from .estim import estimate_position  # noqa: F401
from .model import (NoiseSpec, SensorArray, TargetState, _as_index, _by_constructor, _finite,
                    _frozen_array, _measurements, _noisy, _real, _target_state, _true_block)

# the reference eight-sensor layout used by the shipped experiments
DEFAULT_SENSOR_POSITIONS = _frozen_array(np.array([
    [0.0, 0.0],
    [100.0, 100.0],
    [-100.0, 100.0],
    [100.0, -100.0],
    [-100.0, -100.0],
    [-50.0, 50.0],
    [50.0, 50.0],
    [-50.0, -50.0],
]))

DEFAULT_POSITION_BOX = ((0.0, 0.0), (100.0, 100.0))
DEFAULT_VELOCITY_BOX = ((-20.0, -20.0), (20.0, 20.0))
DEFAULT_ACCELERATION_BOX = ((-10.0, -10.0), (10.0, 10.0))
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 7

MOTION_MODES = ("constant_velocity", "constant_acceleration")

_TRIAL_ERRORS = (ZeroRange, TooFewSensors, DegenerateGeometry, SingularGeometry)


def _as_box(value, name: str) -> np.ndarray:
    box = _finite(value, name, (2, 2))
    if np.any(box[0] > box[1]):
        raise ValueError(f"{name} must have min <= max componentwise")
    (x0, y0), (x1, y1) = box.tolist()
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        raise ValueError(f"{name} extent max - min must be finite, got {box.tolist()}")
    return _frozen_array(box)


@dataclass(frozen=True, eq=False)      # == is identity, as for model's array classes
class Scenario:
    sensors: SensorArray
    position_box: np.ndarray          # m; rows (xmin, ymin) and (xmax, ymax)
    velocity_box: np.ndarray          # m/s
    acceleration_box: np.ndarray      # m/s^2
    noise: NoiseSpec
    trials: int
    seed: int
    motion_mode: str
    # a sweep point's (_Trials table, noisy block), set on its scenario by _sweep;
    # not a field, so it takes no part in repr
    _point = None
    __reduce__ = _by_constructor

    def __post_init__(self):
        if not isinstance(self.sensors, SensorArray):
            object.__setattr__(self, "sensors", SensorArray(self.sensors))
        object.__setattr__(self, "position_box", _as_box(self.position_box, "position_box"))
        object.__setattr__(self, "velocity_box", _as_box(self.velocity_box, "velocity_box"))
        object.__setattr__(self, "acceleration_box",
                           _as_box(self.acceleration_box, "acceleration_box"))
        if not isinstance(self.noise, NoiseSpec):
            raise TypeError("noise must be a NoiseSpec")
        object.__setattr__(self, "trials", _as_index(self.trials, "trials", 1))
        object.__setattr__(self, "seed", _as_index(self.seed, "seed", 0))
        if self.motion_mode not in MOTION_MODES:
            raise ValueError(f"motion_mode must be one of {MOTION_MODES}, got {self.motion_mode!r}")

    @functools.cached_property
    def _boxes(self) -> tuple:      # (position, velocity, acceleration) boxes as floats
        return (self.position_box.tolist(), self.velocity_box.tolist(),
                self.acceleration_box.tolist())


def default_scenario(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
                     noise: NoiseSpec | None = None,
                     motion_mode: str = "constant_velocity",
                     sensors=None) -> Scenario:
    """Scenario with the reference layout and sampling boxes."""
    return Scenario(
        sensors=SensorArray(DEFAULT_SENSOR_POSITIONS if sensors is None else sensors),
        position_box=DEFAULT_POSITION_BOX,
        velocity_box=DEFAULT_VELOCITY_BOX,
        acceleration_box=DEFAULT_ACCELERATION_BOX,
        noise=noise if noise is not None else NoiseSpec(),
        trials=trials,
        seed=seed,
        motion_mode=motion_mode,
    )


# written once per field, as estim's result classes are: a sweep builds one
# record per trial and grid point
@dataclass(frozen=True, init=False)
class TrialRecord:
    trial_index: int
    truth: TargetState
    estimates: EstimationResult | None
    squared_errors: tuple           # squared Euclidean errors in METHODS order; () on failure
    stage_times: tuple              # wall seconds in METHODS order; () on failure
    failure: str | None             # error class name, or None on success

    def __init__(self, trial_index, truth, estimates, squared_errors, stage_times, failure):
        d = self.__dict__
        d["trial_index"] = trial_index
        d["truth"] = truth
        d["estimates"] = estimates
        d["squared_errors"] = squared_errors
        d["stage_times"] = stage_times
        d["failure"] = failure

    @property
    def ok(self) -> bool:
        return self.failure is None


def _uniform_boxes(rng: np.random.Generator, boxes) -> list:
    """``[rng.uniform(box[0], box[1]) for box in boxes]`` bit for bit, on the
    boxes' floats: one ``rng.random(2 * len(boxes))`` draw gives the same
    doubles u in the same order, each mapped as lo + (hi - lo) * u."""
    u = rng.random(2 * len(boxes)).tolist()
    out = []
    for i, ((lo0, lo1), (hi0, hi1)) in enumerate(boxes):
        out.append((lo0 + (hi0 - lo0) * u[2 * i], lo1 + (hi1 - lo1) * u[2 * i + 1]))
    return out


def sample_truth(scenario: Scenario, rng: np.random.Generator) -> TargetState:
    """Draw the ground-truth state from the scenario boxes (position, velocity,
    then acceleration; constant_velocity mode forces zero acceleration).  The
    boxes are read as floats, once per scenario, and the state is built from the
    drawn floats, finite because each box and its extent are."""
    position, velocity, acceleration = scenario._boxes
    if scenario.motion_mode == "constant_acceleration":
        return _target_state(*_uniform_boxes(rng, (position, velocity, acceleration)))
    return _target_state(*_uniform_boxes(rng, (position, velocity)), (0.0, 0.0))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_MASK32 = 0xFFFFFFFF
_BLOCK = 1024           # indices per derived block; divides 2**32


def _words32(n: int) -> list:
    """The uint32 words numpy makes of a nonnegative int, least significant first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """numpy's ``hashmix`` step on uint32 arrays, with its running constant."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


@functools.lru_cache(maxsize=2)
def _stream_block(seed: int, block: int) -> np.ndarray:
    """``SeedSequence((seed, i), spawn_key=(k,)).generate_state(8)`` for the 1024
    indices i of one block and k = 0, 1, as a read-only array of shape
    (1024, 2, 8) of little-endian uint32 words.

    numpy's pool hash and output hash, run once over the block as uint32 array
    arithmetic, which wraps like numpy's own.  The entropy is assembled as
    numpy does: the seed's words, the index's words, zeros up to the pool size
    of 4, then the spawn key.  Every index of a block has the same word count,
    because the block size divides 2**32 (index 0 is the one word [0]).
    """
    first = block * _BLOCK
    entropy = [np.full((1, 1), w, dtype=np.uint32) for w in _words32(seed)]
    entropy.append(np.arange(_BLOCK, dtype=np.uint32)[:, None] + (first & _MASK32))
    entropy += [np.full((1, 1), w, dtype=np.uint32) for w in _words32(first)[1:]]
    entropy += [np.zeros((1, 1), dtype=np.uint32)] * (4 - len(entropy))
    entropy.append(np.array([[0, 1]], dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    state = np.stack([output(pool[i % 4]) for i in range(8)], axis=-1)
    return _frozen_array(state.astype("<u4", copy=False))


class _State(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose ``generate_state`` returns precomputed words, so
    numpy's own bit-generator seeding runs on them."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if dtype is not np.uint64 or n_words != 4:
            raise ValueError("_State only seeds PCG64 (4 uint64 words)")
        return self.words.view("<u8")


class _Trials:
    """Trials drawn once: their truths, each truth's six floats
    ``(px, py, vx, vy, ax, ay)``, read once from the ``TargetState`` that
    ``sample_truth`` returned, the read-only (T, 6, N) block of their
    noise-free rows and unit normals, and each trial's position outcome.  Each
    trial's normals are drawn straight into the block; then the noise-free rows
    of all its trials are computed at once from the truth floats
    (``model._true_block``), which every point also scores against.
    ``positions[row]`` is None until solved, then a ``_timed_position`` pair or
    the error class name that fails the trial at every point: ``"ZeroRange"``
    from the start for a truth on a sensor, whose rows stay zero."""

    def __init__(self, scenario: Scenario, indices):
        sensors = scenario.sensors
        draws = np.zeros((len(indices), 6, len(sensors)))
        self.truths, self.truth_floats = [], []
        for row, i in enumerate(indices):
            # the truth and measurement streams of SeedSequence((seed, i)).spawn(2)
            block, j = _stream_block(scenario.seed, i // _BLOCK), i % _BLOCK
            truth = sample_truth(scenario, np.random.Generator(np.random.PCG64(_State(block[j, 0]))))
            gen = np.random.Generator(np.random.PCG64(_State(block[j, 1])))
            gen.standard_normal(out=draws[row, 3:])
            self.truths.append(truth)
            self.truth_floats.append((*truth.position.tolist(), *truth.velocity.tolist(),
                                      *truth.acceleration.tolist()))
        self.positions = [None] * len(indices)
        for row in _true_block(self.truth_floats, sensors, draws):
            self.positions[row] = ZeroRange.__name__
        self.draws = _frozen_array(draws)


def run_trial(scenario: Scenario, trial_index: int,
              weight_rule: WeightRule = PROPAGATED) -> TrialRecord:
    """Execute one trial: its truth and measurement set, then all five
    estimators.  On a sweep point's scenario the truth comes from the sweep's
    table of draws, the measurement set is cut from the point's noisy block,
    and the table's position outcome is reused once solved; on any other
    scenario, or past the table's trials, the trial is the one-trial case of
    such a table.  Either way the record depends only on the scenario and the
    index.  The five squared errors are formed from the estimates' floats and
    the table's truth floats; they and the five stage times are tuples in
    ``METHODS`` order.  Estimator failures are captured in the record, not
    raised."""
    trial_index = _as_index(trial_index, "trial_index")
    if not 0 <= trial_index < 2 ** 63:
        raise ValueError(f"trial_index out of range: {trial_index}")
    if scenario._point is not None and trial_index < scenario.trials:
        (trials, noisy), row = scenario._point, trial_index
    else:
        trials, row = _Trials(scenario, (trial_index,)), 0
        noisy = _noisy(trials.draws, scenario.noise)
    truth, measurements = trials.truths[row], _measurements(noisy, row, scenario.noise)
    position = trials.positions[row]
    failure = position if isinstance(position, str) else None
    try:
        if position is None:
            position = trials.positions[row] = _timed_position(measurements, scenario.sensors)
        if failure is None:
            estimates, stage_times = _timed_kinematics(measurements, scenario.sensors, position,
                                                       weight_rule)
    except _TRIAL_ERRORS as exc:
        failure = type(exc).__name__
        if position is None:        # the position stage failed, as it does at every point
            trials.positions[row] = failure
    if failure is not None:
        return TrialRecord(trial_index, truth, None, (), (), failure)

    px, py, vx, vy, ax, ay = trials.truth_floats[row]
    (p0, p1), (vl0, vl1), (vw0, vw1), (al0, al1), (aw0, aw1) = (
        estimates.position._xy, estimates.velocity_ls._xy, estimates.velocity_wls._xy,
        estimates.accel_ls._xy, estimates.accel_wls._xy)
    # np.sum((estimate - truth) ** 2) on floats, in the same order: a trial
    # makes no estimate array
    squared_errors = (
        (p0 - px) * (p0 - px) + (p1 - py) * (p1 - py),
        (vl0 - vx) * (vl0 - vx) + (vl1 - vy) * (vl1 - vy),
        (vw0 - vx) * (vw0 - vx) + (vw1 - vy) * (vw1 - vy),
        (al0 - ax) * (al0 - ax) + (al1 - ay) * (al1 - ay),
        (aw0 - ax) * (aw0 - ax) + (aw1 - ay) * (aw1 - ay),
    )
    return TrialRecord(trial_index, truth, estimates, squared_errors, stage_times, None)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


def run_ensemble(scenario: Scenario, weight_rule: WeightRule = PROPAGATED,
                 threads: int = 1) -> list:
    """All trials of a scenario, in trial-index order regardless of threading.

    The pool never gets more workers than there are trials or CPUs available
    to the process, whatever ``threads`` asks for.
    """
    indices = range(scenario.trials)
    workers = min(_as_index(threads, "threads", 1), _available_cpus(), scenario.trials)
    if workers <= 1:
        return [run_trial(scenario, i, weight_rule) for i in indices]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda i: run_trial(scenario, i, weight_rule), indices))


def rmse(records, method: str) -> float:
    """Root-mean-square Euclidean error over the successful trials.

    Failed trials are excluded; the caller accounts for them separately.
    Raises EmptyEnsemble when no trial succeeded.
    """
    if method not in METHODS:
        raise KeyError(f"unknown method {method!r}, expected one of {METHODS}")
    k = METHODS.index(method)
    sq = [rec.squared_errors[k] for rec in records if rec.ok]
    if not sq:
        raise EmptyEnsemble(f"no successful trials to aggregate for {method!r}")
    return _rms(sq)


def _rms(squared) -> float:
    """The root of the mean of a nonempty sequence of squared errors: every RMSE's formula."""
    return float(np.sqrt(np.mean(np.array(squared))))


@dataclass(frozen=True)
class SweepPoint:
    """One grid point; every RMSE is NaN when all of its trials failed, so one
    unsolvable noise level does not abort the sweep."""

    sigma: float
    rmse_position: float
    rmse_velocity_ls: float
    rmse_velocity_wls: float
    rmse_accel_ls: float
    rmse_accel_wls: float
    failures: int
    successes: int
    mean_stage_times: tuple         # mean wall seconds per successful trial, in METHODS order


@dataclass(frozen=True)
class SweepResult:
    swept_parameter: str
    grid: tuple
    points: tuple


def _check_grid(grid, name: str = "grid"):
    """The grid as floats, each value read as a ``NoiseSpec`` sigma is."""
    try:
        entries = iter(grid)
    except TypeError:
        raise TypeError(f"{name} must be a sequence of real numbers, got {grid!r}") from None
    values = tuple(_real(g, f"{name} values", "real numbers") for g in entries)
    if not values:
        raise ValueError(f"{name} must be nonempty")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} values must be finite")
    if any(v <= 0.0 for v in values):
        raise ValueError(f"{name} values must be positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    return values


def _score_point(scenario: Scenario, weight_rule: WeightRule, threads: int):
    """(columns, failures): the five squared-error columns, then the five
    stage-time columns, each in ``METHODS`` order, of the point's successful
    trials in trial order (empty when none succeeded), and the count of failed
    trials.  A record's row is its squared errors joined to its stage times,
    empty for a failed trial.  One thread forms each ``run_trial`` record's row
    and drops the record before the next trial runs."""
    if threads > 1:
        records = run_ensemble(scenario, weight_rule, threads)
    else:       # one record at a time, through the module's run_trial
        records = (run_trial(scenario, i, weight_rule) for i in range(scenario.trials))
    # map, not a comprehension, whose loop variable would keep each record
    # alive while run_trial makes the next one
    rows = list(map(lambda rec: rec.squared_errors + rec.stage_times, records))
    scored = [row for row in rows if row]
    return list(zip(*scored)), len(rows) - len(scored)


def _aggregate_point(sigma: float, columns, failures: int) -> SweepPoint:
    """Fold a point's ``_score_point`` columns and failure count into a grid point."""
    successes = len(columns[0]) if columns else 0
    if successes:
        rmses = [_rms(column) for column in columns[:len(METHODS)]]
        mean_times = tuple(float(np.mean(column)) for column in columns[len(METHODS):])
    else:
        rmses, mean_times = [float("nan")] * len(METHODS), (0.0,) * len(METHODS)
    return SweepPoint(sigma, *rmses, failures, successes, mean_times)


def _sweep(base: Scenario, swept_parameter: str, grid, motion_mode: str,
           weight_rule: WeightRule, threads: int) -> SweepResult:
    """Every grid point reruns trial i on the same streams, sensors, boxes and
    motion mode; only the ``swept_parameter`` sigma differs, sigma_range_rate
    or sigma_drr in the two callers: never sigma_range, which the position
    stage reads.  So every trial's truth and draw are made once, before the
    first point, into a table that also keeps its position outcome for every
    point; each point noises the whole draw block with its sigmas, and its
    scenario carries both to ``_score_point``."""
    threads = _as_index(threads, "threads", 1)
    values = _check_grid(grid)
    # every point's noise, checked before any trial is drawn or run
    noises = [replace(base.noise, **{swept_parameter: sigma}) for sigma in values]
    base = replace(base, motion_mode=motion_mode)
    trials = _Trials(base, range(base.trials))
    points = []
    for sigma, noise in zip(values, noises):
        point = replace(base, noise=noise)
        object.__setattr__(point, "_point", (trials, _noisy(trials.draws, noise)))
        points.append(_aggregate_point(sigma, *_score_point(point, weight_rule, threads)))
    return SweepResult(swept_parameter, values, tuple(points))


def sweep_velocity_experiment(base: Scenario, sigma_rr_grid,
                              weight_rule: WeightRule = PROPAGATED,
                              threads: int = 1) -> SweepResult:
    """Velocity RMSE versus range-rate noise: constant-velocity targets,
    sigma_range and sigma_drr taken from the base scenario."""
    return _sweep(base, "sigma_range_rate", sigma_rr_grid, "constant_velocity",
                  weight_rule, threads)


def sweep_acceleration_experiment(base: Scenario, sigma_drr_grid,
                                  weight_rule: WeightRule = PROPAGATED,
                                  threads: int = 1) -> SweepResult:
    """Acceleration RMSE versus drr noise: constant-acceleration targets,
    sigma_range and sigma_range_rate taken from the base scenario."""
    return _sweep(base, "sigma_drr", sigma_drr_grid, "constant_acceleration",
                  weight_rule, threads)


def timing_report(sweep: SweepResult) -> dict:
    """Mean per-trial wall time (seconds) for each method over the whole sweep."""
    totals, count = [0.0] * len(METHODS), 0
    for point in sweep.points:
        totals = [total + t * point.successes
                  for total, t in zip(totals, point.mean_stage_times)]
        count += point.successes
    if count == 0:
        return dict.fromkeys(METHODS, 0.0)
    return {method: total / count for method, total in zip(METHODS, totals)}
