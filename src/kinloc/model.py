"""Ground-truth kinematics and noisy measurement synthesis for a fixed 2D sensor array.

A target moves in the plane with instantaneous position p (m), velocity v (m/s)
and acceleration a (m/s^2).  Each fixed sensor at p_i observes three scalars:

* range              r_i  = ||p - p_i||
* range rate         rdot = v . (p - p_i) / r_i          (radial speed)
* range acceleration rddot = (a . (p - p_i) + ||v||^2 - rdot^2) / r_i

All three are exact time derivatives of r_i along the trajectory; the test
suite checks them against central finite differences.  Measurements add
independent zero-mean Gaussian noise per sensor and per quantity.
"""

import math
import numbers
import operator
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ZeroRange


@lru_cache(maxsize=64)
def _packer(n: int):
    return struct.Struct(f"{n}d").pack


def _frozen(floats) -> np.ndarray:
    """kinloc's one way to make a read-only array, here from floats: a fresh
    array over immutable ``bytes``, which numpy will not unlock, nor a ``reshape``
    view of it.  The input classes' arrays, the estimates' and a sweep's shared
    blocks are such arrays (``_frozen_array`` copies arrays, per-trial vectors are
    ``np.frombuffer(a.tobytes())``, the estimates' are made on first read), but
    ``true_measurements``, ``acceleration_pseudo_measurements`` and
    ``oracle.dense_wls_solve`` return fresh writable arrays."""
    return np.frombuffer(_packer(len(floats))(*floats))


def _frozen_array(arr: np.ndarray) -> np.ndarray:
    return np.ndarray(arr.shape, arr.dtype, arr.tobytes())     # one array object, C order


def _real(value, name: str, noun: str = "a real number") -> float:
    """``value`` as a float; TypeError "<name> must be <noun>, got <value!r>" for a bool
    or a non-real.  An integer past the float range reads as +-inf, for the caller's
    own range check.  Every real-number scalar input is read here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be {noun}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _as_index(value, name: str, low: int | None = None) -> int:
    """A Python or numpy integer as an int; a float, a string or a bool raises TypeError,
    and an integer below ``low`` ValueError."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    try:
        index = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and index < low:
        raise ValueError(f"{name} must be >= {low}, got {index}")
    return index


def _finite(value, name: str, shape=None, ndmin: int = 0) -> np.ndarray:
    """``value`` as a float64 array; every array input is read here, and each error
    names the input.  In order: ValueError "<name> must be a rectangular array" if
    ragged; ``_real``'s TypeError for an entry that is not a real number, each read
    unless ``value`` is an int or float ndarray; ValueError "<name> must be finite" for
    NaN, inf or an integer past the float range.  Then ``ndmin`` leading axes of length
    1 are added, as ``np.array(..., ndmin=)`` does, and the result must match ``shape``,
    each of whose entries is an exact length or None for any length >= 1 (printed as N,
    then M): ValueError otherwise, with the input's shape as given."""
    try:
        arr = np.asarray(value)
    except ValueError:          # numpy's message for a ragged list names no input
        raise ValueError(f"{name} must be a rectangular array") from None
    if arr.dtype.kind not in "iuf" or not isinstance(value, np.ndarray):
        for entry in np.asarray(value, dtype=object).flat:
            _real(entry, name, "real numbers")
    try:
        arr = arr.astype(np.float64, copy=False)
    except OverflowError:
        raise ValueError(f"{name} must be finite") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    given = arr.shape
    arr = arr.reshape((1,) * (ndmin - arr.ndim) + given)
    if shape is not None and (arr.ndim != len(shape) or any(
            n < 1 if want is None else n != want for n, want in zip(arr.shape, shape))):
        free = iter("NM")
        spec = str(tuple(next(free) if want is None else want for want in shape)).replace("'", "")
        raise ValueError(f"{name} must have shape {spec}, got {given}")
    return arr


def as_vec2(value, name: str = "vector") -> np.ndarray:
    """``_finite(value, name, (2,))`` as a fresh read-only array."""
    return np.frombuffer(_finite(value, name, (2,)).tobytes())


# eq=False, as on every class with array fields: == is identity; a generated one raises
@dataclass(frozen=True, eq=False)
class SensorArray:
    """Fixed sensor positions (m); row i belongs to measurement i everywhere."""

    positions: np.ndarray

    def __post_init__(self):
        # a lone [x, y] is one sensor
        pos = _finite(self.positions, "sensor positions", (None, 2), ndmin=2)
        object.__setattr__(self, "positions", _frozen_array(pos))

    def __len__(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def xs(self) -> tuple:      # as floats, the form the kernels take
        return tuple(self.positions[:, 0].tolist())

    @cached_property
    def ys(self) -> tuple:
        return tuple(self.positions[:, 1].tolist())


@dataclass(frozen=True, eq=False)
class TargetState:
    """Target kinematics at the measurement instant."""

    position: np.ndarray      # m
    velocity: np.ndarray      # m/s
    acceleration: np.ndarray = (0.0, 0.0)  # m/s^2

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec2(self.position, "position"))
        object.__setattr__(self, "velocity", as_vec2(self.velocity, "velocity"))
        object.__setattr__(self, "acceleration", as_vec2(self.acceleration, "acceleration"))


def _target_state(position, velocity, acceleration) -> TargetState:
    """The TargetState of three pairs of finite floats, with the arrays ``as_vec2``
    would make of them, past its conversion and checks."""
    state = object.__new__(TargetState)
    d = state.__dict__
    d["position"], d["velocity"], d["acceleration"] = (
        _frozen(position), _frozen(velocity), _frozen(acceleration))
    return state


def _sigma(value, name: str) -> float:
    """A noise sigma as a float: ``_real``, then ValueError unless >= 0 with a finite square."""
    value = _real(value, name)
    if not np.isfinite(value * value) or value < 0.0:
        raise ValueError(f"{name} must be >= 0 with a finite square, got {value}")
    return value


@dataclass(frozen=True)
class NoiseSpec:
    """Standard deviations of the additive Gaussian measurement noise.

    Each sigma must be a real number (not a bool or a string) >= 0 with a
    finite square: the propagated weight rule works with the variances, so a
    sigma near 1e154 or above is rejected here rather than overflowing there.
    """

    sigma_range: float = 1.0        # m
    sigma_range_rate: float = 1.0   # m/s
    sigma_drr: float = 1.0          # m/s^2

    def __post_init__(self):
        for name in ("sigma_range", "sigma_range_rate", "sigma_drr"):
            object.__setattr__(self, name, _sigma(getattr(self, name), name))

    @cached_property
    def _column(self) -> np.ndarray:    # the sigmas as the (3, 1) column ``_noisy`` scales by
        return _frozen((self.sigma_range, self.sigma_range_rate, self.sigma_drr)).reshape(3, 1)


def _measurement_vector(values, name: str):
    """(read-only float64 array, the same values as a list of floats); a scalar is
    one measurement."""
    arr = np.frombuffer(_finite(values, name, (None,), ndmin=1).tobytes())  # the only copy
    return arr, arr.tolist()


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Per-sensor noisy (range, range rate, derivative of range rate) triples.

    Besides each array field X it keeps the array's values as a list of
    floats, the private attribute ``_X``; the stages read those lists, as the
    kernels read ``SensorArray.xs``/``ys``, instead of converting the arrays
    again.
    """

    ranges: np.ndarray       # m
    range_rates: np.ndarray  # m/s
    drrs: np.ndarray         # m/s^2
    noise: NoiseSpec

    def __init__(self, ranges, range_rates, drrs, noise):
        ranges, _ranges = _measurement_vector(ranges, "ranges")
        range_rates, _range_rates = _measurement_vector(range_rates, "range_rates")
        drrs, _drrs = _measurement_vector(drrs, "drrs")
        n = len(_ranges)
        if len(_range_rates) != n or len(_drrs) != n:
            raise ValueError("ranges, range_rates and drrs must have identical length")
        if not isinstance(noise, NoiseSpec):
            raise TypeError("noise must be a NoiseSpec")
        self._fill((ranges, range_rates, drrs), noise, (_ranges, _range_rates, _drrs))

    def _fill(self, arrays, noise, lists):
        # past the frozen __setattr__, a call per field, and key by key: an update
        # of the empty instance dict would give it a key table of its own.  The
        # lists are not fields, so repr shows the arrays alone
        d = self.__dict__
        d["ranges"], d["range_rates"], d["drrs"], d["noise"] = *arrays, noise
        d["_ranges"], d["_range_rates"], d["_drrs"] = lists

    def __len__(self) -> int:
        return self.ranges.shape[0]


def range_to(target_pos, sensor_pos) -> float:
    """Euclidean distance (m) between a target position and a sensor position."""
    p = as_vec2(target_pos, "target_pos")
    s = as_vec2(sensor_pos, "sensor_pos")
    dx = p[0] - s[0]
    dy = p[1] - s[1]
    return float(np.sqrt(dx * dx + dy * dy))


def _at_sensor(target: TargetState, sensor_pos):
    """``true_measurements`` (range, range rate, drr) for the one sensor at sensor_pos."""
    r, rdot, rddot = true_measurements(target, SensorArray(as_vec2(sensor_pos, "sensor_pos")))
    return float(r[0]), float(rdot[0]), float(rddot[0])


def range_rate(target: TargetState, sensor_pos) -> float:
    """Radial speed (m/s): v . u / ||u|| with u = p - p_i.

    Raises ZeroRange when the target coincides with the sensor.
    """
    return _at_sensor(target, sensor_pos)[1]


def range_accel(target: TargetState, sensor_pos) -> float:
    """Second time derivative of range (m/s^2): (a . u + ||v||^2 - rdot^2) / ||u||."""
    return _at_sensor(target, sensor_pos)[2]


def propagate(target: TargetState, dt: float) -> TargetState:
    """Constant-acceleration propagation by dt seconds (used by the oracle and demos)."""
    dt = _real(dt, "dt")
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    pos = target.position + target.velocity * dt + 0.5 * target.acceleration * dt * dt
    vel = target.velocity + target.acceleration * dt
    return TargetState(pos, vel, target.acceleration)


def _true_lists(target: TargetState, sensors: SensorArray):
    """``true_measurements`` as three lists of floats."""
    px, py = target.position.tolist()
    v0, v1 = target.velocity.tolist()
    a0, a1 = target.acceleration.tolist()
    v2 = v0 * v0 + v1 * v1
    r, rdot, rddot = [], [], []
    for sx, sy in zip(sensors.xs, sensors.ys):
        x = px - sx
        y = py - sy
        ri = math.sqrt(x * x + y * y)
        if ri == 0.0:
            raise ZeroRange("target coincides with a sensor")
        rd = (x * v0 + y * v1) / ri
        r.append(ri)
        rdot.append(rd)
        rddot.append((x * a0 + y * a1 + v2 - rd * rd) / ri)
    return r, rdot, rddot


def true_measurements(target: TargetState, sensors: SensorArray):
    """Noise-free (ranges, range_rates, drrs) for every sensor, as float64 arrays."""
    return tuple(np.array(q) for q in _true_lists(target, sensors))


def _draw(target: TargetState, sensors: SensorArray, gen: np.random.Generator, out) -> None:
    """Write a trial's measurements before any sigma into ``out``, one (6, N) row of a
    draw block: ``true_measurements`` in rows 0-2, ``gen.standard_normal((3, N))`` in
    rows 3-5.  Raises ZeroRange, writing nothing, when the target is on a sensor."""
    out[:3] = _true_lists(target, sensors)
    gen.standard_normal(out=out[3:])


def _true_block(targets, sensors: SensorArray, out) -> set:
    """``_draw``'s rows 0-2 for T targets at once, written into ``out``, a (T, 6, N)
    draw block: one numpy expression per quantity over (T, N), each element by the
    IEEE operations of ``_true_lists`` in the same order, under ``np.errstate``
    because Python floats overflow silently.  A target on a sensor is ZeroRange:
    its whole (6, N) row is set to zero.  Returns the set of those rows."""
    p, v, a = (np.concatenate([getattr(t, name) for t in targets]).reshape(-1, 2)
               for name in ("position", "velocity", "acceleration"))
    px, py, v0, v1, a0, a1 = p[:, :1], p[:, 1:], v[:, :1], v[:, 1:], a[:, :1], a[:, 1:]
    sx, sy = sensors.positions[:, 0], sensors.positions[:, 1]
    with np.errstate(all="ignore"):
        v2 = v0 * v0 + v1 * v1
        x = px - sx
        y = py - sy
        r = np.sqrt(x * x + y * y, out=out[:, 0])
        rd = np.divide(x * v0 + y * v1, r, out=out[:, 1])
        np.divide(x * a0 + y * a1 + v2 - rd * rd, r, out=out[:, 2])
    on_sensor = (r == 0.0).any(axis=1)
    out[on_sensor] = 0.0
    return set(np.flatnonzero(on_sensor).tolist())


def _noisy(draws: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """A (T, 6, N) block of ``_draw`` rows noised as one read-only (T, 3, N) array of
    q + s * e, which numpy rounds as Python floats would.  One check covers the block:
    it raises MeasurementSet's ValueError for the first non-finite column of the first
    trial with one, in the order ranges, range_rates, drrs."""
    noisy = draws[:, :3] + noise._column * draws[:, 3:]
    finite = np.isfinite(noisy)
    if not finite.all():
        column = ("ranges", "range_rates", "drrs")[np.argwhere(~finite.all(axis=2))[0, 1]]
        raise ValueError(f"{column} must be finite")
    return _frozen_array(noisy)


def _measurements(noisy: np.ndarray, t: int, noise: NoiseSpec) -> MeasurementSet:
    """Trial t of a ``_noisy`` block as a MeasurementSet of its row views and one
    ``tolist``, past the public constructor's checks, which the block passed."""
    rows = noisy[t]
    ms = object.__new__(MeasurementSet)
    ms._fill(rows, noise, rows.tolist())
    return ms


def synthesize_measurements(target: TargetState, sensors: SensorArray,
                            noise: NoiseSpec, rng) -> MeasurementSet:
    """Draw one noisy MeasurementSet for the given state.

    ``rng`` is a seeded stream: an int seed, a numpy SeedSequence, or a
    Generator.  The three noise blocks are drawn in one documented order
    (ranges row, then range rates, then derivatives, sensors in index order),
    so a given stream always yields the same measurement set regardless of
    how the result is consumed afterwards: the one-trial case of a sweep's blocks.
    """
    draws = np.empty((1, 6, len(sensors)))
    _draw(target, sensors, np.random.default_rng(rng), draws[0])
    return _measurements(_noisy(draws, noise), 0, noise)
