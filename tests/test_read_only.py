"""Every array kinloc hands out or shares stays frozen.

kinloc builds each read-only array over an immutable bytes buffer, so
``setflags(write=True)`` raises instead of reopening it.  An array that could
be reopened and written would no longer match the float lists that the
stages read, and the arrays a sweep shares across its trials and grid points
(the stream words, the block of every trial's draw, each grid point's
noisy block and the measurement sets cut from it) would change every later result.
The estimate classes make their arrays on first read, once each, so a sweep,
which scores its trials from the estimates' floats, makes none.  Pickle and
``copy.deepcopy`` rebuild each instance through its constructor, so a copy's
arrays are frozen too.
"""

import math

import numpy as np
import pytest

from conftest import COPIERS, assert_cannot_unlock, spy_points
from kinloc import estim, montecarlo
from kinloc.estim import PROPAGATED, estimate_all
from kinloc.model import _measurements, _noisy, as_vec2, synthesize_measurements
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


def sweep_table(monkeypatch, scenario):
    """A velocity sweep's table as its last point left it, and the noisy block
    of each grid point, read from the (table, noisy block) that each point's
    scenario carries to ``montecarlo._score_point``."""
    seen = spy_points(monkeypatch)
    sweep_velocity_experiment(scenario, (0.5, 2.0))
    points = [point._point for point, _, _ in seen]
    return points[-1][0], [noisy for _, noisy in points]


def set_arrays(measurements) -> list:
    return [measurements.ranges, measurements.range_rates, measurements.drrs]


@pytest.mark.parametrize("layout", tuple(LAYOUTS))
def test_no_array_can_be_unlocked(monkeypatch, layout, rng):
    scenario = default_scenario(trials=4, seed=2 ** 40 + 3, sensors=LAYOUTS[layout],
                                motion_mode="constant_acceleration")
    sensors, noise = scenario.sensors, scenario.noise
    block = montecarlo._stream_block(scenario.seed, 0)
    record = run_trial(scenario, 1)
    truth = record.truth
    measurements = synthesize_measurements(truth, sensors, noise, rng)
    table, noisy = sweep_table(monkeypatch, scenario)
    assert table.draws.shape == (scenario.trials, 6, len(sensors))
    assert len(noisy) == 2 and all(b.shape == (scenario.trials, 3, len(sensors)) for b in noisy)
    arrays = [
        sensors.positions,
        scenario.position_box, scenario.velocity_box, scenario.acceleration_box,
        block, block[1, 0], block[1, 1],
        truth.position, truth.velocity, truth.acceleration,
        as_vec2((3.0, -4.0)), as_vec2(np.array([1.0, 2.0])),
        *set_arrays(measurements),
        table.draws, table.draws[1],
        *noisy,
        *[a for block_t in noisy for t in range(scenario.trials)
          for a in set_arrays(_measurements(block_t, t, noise))],
        *set_arrays(_measurements(_noisy(table.draws, noise), 0, noise)),
        *result_arrays(record.estimates),
        *result_arrays(estimate_all(measurements, sensors, PROPAGATED)),
    ]
    assert_cannot_unlock(*arrays)


def test_the_default_layout_cannot_be_unlocked():
    # a write into it would move the sensors of every later default_scenario
    # and of the CLI's default
    assert_cannot_unlock(DEFAULT_SENSOR_POSITIONS)


ESTIMATE_ARRAYS = ((estim.PositionSolution, "position"), (estim.KinematicEstimate, "value"),
                   (estim.KinematicEstimate, "pseudo_measurements"))


def count_array_builds(monkeypatch) -> list:
    """Wrap the builder of each estimate array; the list gets one entry per build."""
    built = []

    def counted(name, make):
        def build(obj):
            built.append(name)
            return make(obj)
        return build

    for cls, name in ESTIMATE_ARRAYS:
        attr = vars(cls)[name]
        monkeypatch.setattr(attr, "make", counted(name, attr.make))
    return built


@pytest.mark.parametrize("layout", tuple(LAYOUTS))
def test_estimate_arrays_are_made_on_first_read_once(layout, rng):
    scenario = default_scenario(sensors=LAYOUTS[layout], motion_mode="constant_acceleration")
    truth = run_trial(scenario, 0).truth
    measurements = synthesize_measurements(truth, scenario.sensors, scenario.noise, rng)
    result = estimate_all(measurements, scenario.sensors, PROPAGATED)
    first = result_arrays(result)
    assert all(a is b for a, b in zip(first, result_arrays(result)))
    assert_cannot_unlock(*first)
    # the arrays carry the bits the instances keep
    stages = (result.velocity_ls, result.velocity_wls, result.accel_ls, result.accel_wls)
    assert first[0].tolist() == list(result.position._xy)
    for k, value, pseudo in zip(stages, first[1:5], first[5:]):
        assert value.dtype == pseudo.dtype == np.float64
        assert value.tolist() == list(k._xy) and pseudo.tobytes() == k._k
        assert pseudo.shape == (len(scenario.sensors),)


def test_sweep_trials_make_no_estimate_array(monkeypatch):
    seen = spy_points(monkeypatch)
    built = count_array_builds(monkeypatch)
    sweep_velocity_experiment(default_scenario(trials=20), (0.5, 2.0))
    assert [(len(columns[0]), failures) for _, columns, failures in seen] == [(20, 0)] * 2
    assert built == []
    # the counter sees a build: one per attribute on first read, none on the second
    estimates = run_trial(seen[0][0], 0).estimates
    result_arrays(estimates)
    result_arrays(estimates)
    assert sorted(built) == sorted(["position"] + ["value", "pseudo_measurements"] * 4)


def frozen_arrays(scenario, truth, measurements, result) -> list:
    """Every array these objects keep or make, cached and first-read ones too."""
    return [scenario.sensors.positions, scenario.position_box, scenario.velocity_box,
            scenario.acceleration_box,
            truth.position, truth.velocity, truth.acceleration,
            *set_arrays(measurements), *result_arrays(result)]


def kept_floats(scenario, measurements, result) -> list:
    """The floats that the stages and a sweep read in place of those arrays."""
    stages = (result.position, result.velocity_ls, result.velocity_wls, result.accel_ls,
              result.accel_wls)
    return [scenario.sensors.xs, scenario.sensors.ys, scenario._boxes,
            measurements._ranges, measurements._range_rates, measurements._drrs,
            [k._xy for k in stages], [k._k for k in stages[1:]]]


@pytest.mark.parametrize("how", tuple(COPIERS))
def test_copies_stay_frozen_and_give_the_same_estimate(how, rng):
    # before, a copy's arrays were writable, and a write into a copied set's
    # ranges left the estimate where the float lists had it
    scenario = default_scenario(motion_mode="constant_acceleration")
    truth = run_trial(scenario, 0).truth
    measurements = synthesize_measurements(truth, scenario.sensors, scenario.noise, rng)
    result = estimate_all(measurements, scenario.sensors, PROPAGATED)
    # made before the copy, so that a copied instance dict would carry them
    arrays = frozen_arrays(scenario, truth, measurements, result)
    floats = kept_floats(scenario, measurements, result)
    twin = COPIERS[how]((scenario, truth, measurements, result))
    scenario2, truth2, measurements2, result2 = twin
    assert type(scenario2) is type(scenario) and scenario2 is not scenario
    copied = frozen_arrays(*twin)
    assert [a.tobytes() for a in copied] == [a.tobytes() for a in arrays]
    assert kept_floats(scenario2, measurements2, result2) == floats
    assert (scenario2.trials, scenario2.seed, scenario2.motion_mode, scenario2.noise) == (
        scenario.trials, scenario.seed, scenario.motion_mode, scenario.noise)
    assert result2 == result
    assert_cannot_unlock(*copied)
    again = estimate_all(measurements2, scenario2.sensors, PROPAGATED)
    assert again == result
    assert [a.tobytes() for a in result_arrays(again)] == [
        a.tobytes() for a in result_arrays(result)]
