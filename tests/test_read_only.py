"""Every array kinloc hands out or shares stays frozen.

kinloc builds each read-only array over an immutable bytes buffer, so
``setflags(write=True)`` raises instead of reopening it.  An array that could
be reopened and written would no longer match the float lists that the
stages read, and the arrays a sweep shares across its trials and grid points
(the stream words, each trial's draw) would change every later result.
"""

import math

import numpy as np
import pytest

from conftest import assert_cannot_unlock
from kinloc import montecarlo
from kinloc.estim import PROPAGATED, estimate_all
from kinloc.model import _noisy, as_vec2, synthesize_measurements
from kinloc.montecarlo import (DEFAULT_SENSOR_POSITIONS, default_scenario, run_trial,
                               sweep_velocity_experiment)

_ANGLES = 2.0 * math.pi * np.arange(64) / 64
LAYOUTS = {
    "default": DEFAULT_SENSOR_POSITIONS,
    "ring64": np.column_stack((100.0 * np.cos(_ANGLES), 100.0 * np.sin(_ANGLES))),
}


def result_arrays(result) -> list:
    stages = (result.velocity_ls, result.velocity_wls, result.accel_ls, result.accel_wls)
    return ([result.position.position] + [k.value for k in stages]
            + [k.pseudo_measurements for k in stages])


def sweep_draws(monkeypatch, scenario) -> list:
    """The ``model._draw`` arrays in a velocity sweep's table after its last point."""
    tables = []
    real = montecarlo.run_ensemble

    def spy(*args):
        records = real(*args)
        tables.append(dict(montecarlo._SWEEP_DRAWS.get()))
        return records

    monkeypatch.setattr(montecarlo, "run_ensemble", spy)
    sweep_velocity_experiment(scenario, (0.5, 2.0))
    return [draw for _, draw, _, _ in tables[-1].values()]


@pytest.mark.parametrize("layout", tuple(LAYOUTS))
def test_no_array_can_be_unlocked(monkeypatch, layout, rng):
    scenario = default_scenario(trials=4, seed=2 ** 40 + 3, sensors=LAYOUTS[layout],
                                motion_mode="constant_acceleration")
    sensors, noise = scenario.sensors, scenario.noise
    block = montecarlo._stream_block(scenario.seed, 0)
    record = run_trial(scenario, 1)
    truth = record.truth
    measurements = synthesize_measurements(truth, sensors, noise, rng)
    draws = sweep_draws(monkeypatch, scenario)
    assert len(draws) == scenario.trials
    noised = _noisy(draws[0], noise)
    arrays = [
        sensors.positions,
        scenario.position_box, scenario.velocity_box, scenario.acceleration_box,
        noise._column,
        block, block[1, 0], block[1, 1],
        truth.position, truth.velocity, truth.acceleration,
        as_vec2((3.0, -4.0)), as_vec2(np.array([1.0, 2.0])),
        measurements.ranges, measurements.range_rates, measurements.drrs,
        noised.ranges, noised.range_rates, noised.drrs,
        *draws,
        *result_arrays(record.estimates),
        *result_arrays(estimate_all(measurements, sensors, PROPAGATED)),
    ]
    assert_cannot_unlock(*arrays)
