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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ZeroRange


def _locked(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def as_vec2(value, name: str = "vector") -> np.ndarray:
    """Coerce to a read-only float64 array of shape (2,), rejecting NaN/Inf."""
    arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
    if arr.shape != (2,):
        raise ValueError(f"{name} must have exactly 2 components, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr}")
    return _locked(arr.copy())


@dataclass(frozen=True)
class SensorArray:
    """Fixed sensor positions (m); row i belongs to measurement i everywhere."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=np.float64))
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError(f"positions must have shape (N, 2) with N >= 1, got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("sensor positions must be finite")
        object.__setattr__(self, "positions", _locked(pos.copy()))

    def __len__(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def xs(self) -> np.ndarray:
        return _locked(np.ascontiguousarray(self.positions[:, 0]))

    @cached_property
    def ys(self) -> np.ndarray:
        return _locked(np.ascontiguousarray(self.positions[:, 1]))


@dataclass(frozen=True)
class TargetState:
    """Target kinematics at the measurement instant."""

    position: np.ndarray      # m
    velocity: np.ndarray      # m/s
    acceleration: np.ndarray = (0.0, 0.0)  # m/s^2

    def __post_init__(self):
        object.__setattr__(self, "position", as_vec2(self.position, "position"))
        object.__setattr__(self, "velocity", as_vec2(self.velocity, "velocity"))
        object.__setattr__(self, "acceleration", as_vec2(self.acceleration, "acceleration"))


@dataclass(frozen=True)
class NoiseSpec:
    """Standard deviations of the additive Gaussian measurement noise.

    Each sigma must be >= 0 with a finite square: the propagated weight rule
    works with the variances, so a sigma near 1e154 or above is rejected here
    rather than overflowing there.
    """

    sigma_range: float = 1.0        # m
    sigma_range_rate: float = 1.0   # m/s
    sigma_drr: float = 1.0          # m/s^2

    def __post_init__(self):
        for name in ("sigma_range", "sigma_range_rate", "sigma_drr"):
            value = float(getattr(self, name))
            if not np.isfinite(value * value) or value < 0.0:
                raise ValueError(f"{name} must be >= 0 with a finite square, got {value}")
            object.__setattr__(self, name, value)


def _measurement_vector(values, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return _locked(arr.copy())


@dataclass(frozen=True)
class MeasurementSet:
    """Per-sensor noisy (range, range rate, derivative of range rate) triples."""

    ranges: np.ndarray       # m
    range_rates: np.ndarray  # m/s
    drrs: np.ndarray         # m/s^2
    noise: NoiseSpec

    def __post_init__(self):
        object.__setattr__(self, "ranges", _measurement_vector(self.ranges, "ranges"))
        object.__setattr__(self, "range_rates", _measurement_vector(self.range_rates, "range_rates"))
        object.__setattr__(self, "drrs", _measurement_vector(self.drrs, "drrs"))
        n = len(self.ranges)
        if len(self.range_rates) != n or len(self.drrs) != n:
            raise ValueError("ranges, range_rates and drrs must have identical length")
        if not isinstance(self.noise, NoiseSpec):
            raise TypeError("noise must be a NoiseSpec")

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
    dt = float(dt)
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    pos = target.position + target.velocity * dt + 0.5 * target.acceleration * dt * dt
    vel = target.velocity + target.acceleration * dt
    return TargetState(pos, vel, target.acceleration)


def true_measurements(target: TargetState, sensors: SensorArray):
    """Noise-free (ranges, range_rates, drrs) for every sensor, as float64 arrays."""
    u = target.position[None, :] - sensors.positions
    r = np.sqrt(np.sum(u * u, axis=1))
    if np.any(r == 0.0):
        raise ZeroRange("target coincides with a sensor")
    rdot = (u @ target.velocity) / r
    v2 = float(target.velocity @ target.velocity)
    rddot = ((u @ target.acceleration) + v2 - rdot * rdot) / r
    return r, rdot, rddot


def synthesize_measurements(target: TargetState, sensors: SensorArray,
                            noise: NoiseSpec, rng) -> MeasurementSet:
    """Draw one noisy MeasurementSet for the given state.

    ``rng`` is a seeded stream: an int seed, a numpy SeedSequence, or a
    Generator.  The three noise blocks are drawn in one documented order
    (ranges row, then range rates, then derivatives, sensors in index order),
    so a given stream always yields the same measurement set regardless of
    how the result is consumed afterwards.
    """
    gen = np.random.default_rng(rng)
    r, rdot, rddot = true_measurements(target, sensors)
    eps = gen.standard_normal((3, len(sensors)))
    return MeasurementSet(
        ranges=r + noise.sigma_range * eps[0],
        range_rates=rdot + noise.sigma_range_rate * eps[1],
        drrs=rddot + noise.sigma_drr * eps[2],
        noise=noise,
    )
