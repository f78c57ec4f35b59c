"""Byte-level golden of the library path: ``estimate_all`` on fixed seeded sets.

The CLI golden (golden_velocity_sweep.csv) pins aggregated RMSEs only; this
file pins every scalar ``estimate_all`` returns, at 17 significant digits, on
the reference 8-sensor layout and a 64-sensor ring, under ``WeightRule()``,
``UNIFORM`` and ``PROPAGATED``.  Regenerate (only for a deliberate change of
the numbers) with

    PYTHONPATH=src python tests/test_golden_estimates.py
"""

import math
import os

import numpy as np

from kinloc.errors import KinlocError
from kinloc.estim import PROPAGATED, UNIFORM, WeightRule, estimate_all
from kinloc.model import NoiseSpec, SensorArray, TargetState, synthesize_measurements
from kinloc.montecarlo import (DEFAULT_ACCELERATION_BOX, DEFAULT_POSITION_BOX,
                               DEFAULT_SENSOR_POSITIONS, DEFAULT_VELOCITY_BOX)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_estimates.csv")

SETS_PER_LAYOUT = 12
NOISES = ((1.0, 1.0, 1.0), (1.0, 0.1, 0.01), (0.3, 3.0, 0.3), (0.0, 0.0, 0.0))
RULES = (("inverse_range", WeightRule()), ("uniform", UNIFORM), ("propagated", PROPAGATED))
STAGES = ("velocity_ls", "velocity_wls", "accel_ls", "accel_wls")


def _layouts():
    angles = 2.0 * math.pi * np.arange(64) / 64
    ring = np.column_stack((100.0 * np.cos(angles), 100.0 * np.sin(angles)))
    return (("ref8", SensorArray(DEFAULT_SENSOR_POSITIONS)), ("ring64", SensorArray(ring)))


def _golden_sets():
    """(layout, set index, sensors, measurement set) of every golden set, in file order."""
    boxes = (DEFAULT_POSITION_BOX, DEFAULT_VELOCITY_BOX, DEFAULT_ACCELERATION_BOX)
    for layout_id, (layout, sensors) in enumerate(_layouts()):
        for k in range(SETS_PER_LAYOUT):
            rng = np.random.default_rng(np.random.SeedSequence((layout_id, k)))
            truth = TargetState(*(rng.uniform(lo, hi) for lo, hi in boxes))
            ms = synthesize_measurements(truth, sensors, NoiseSpec(*NOISES[k % len(NOISES)]),
                                         rng)
            yield layout, k, sensors, ms


def _golden_lines(layout, k, sensors, ms) -> list:
    """The golden file's lines of one set, one per weight rule."""
    lines = []
    for name, rule in RULES:
        try:
            res = estimate_all(ms, sensors, rule)
        except KinlocError as exc:
            lines.append(f"{layout},{k},{name},{type(exc).__name__}")
            continue
        pos = res.position
        values = [*pos.position, pos.theta3, pos.residual_norm, pos.gram_condition]
        for stage in STAGES:
            est = getattr(res, stage)
            values += [*est.value, est.gram_condition]
        lines.append(",".join([layout, str(k), name] + [f"{float(v):.17g}" for v in values]))
    return lines


def golden_estimates_csv() -> str:
    header = ["layout", "set", "rule", "px", "py", "theta3", "residual", "cond_pos"]
    for stage in STAGES:
        header += [f"{stage}_x", f"{stage}_y", f"{stage}_cond"]
    lines = [",".join(header)]
    for golden_set in _golden_sets():
        lines += _golden_lines(*golden_set)
    return "\n".join(lines) + "\n"


def test_golden_estimates_bytes():
    with open(GOLDEN, "rb") as fh:
        assert golden_estimates_csv().encode() == fh.read()


def test_golden_rows_do_not_depend_on_the_calls_before():
    # _kernels.system_rows serves a repeat call from its last rows: run the
    # sets forward, where each set's later stages and rules hit, then in
    # reverse with a 64-sensor ring (equal values in new tuples) between
    # them, where each set's first call misses
    with open(GOLDEN) as fh:
        want = fh.read().splitlines()[1:]
    sets = list(_golden_sets())
    forward = [line for golden_set in sets for line in _golden_lines(*golden_set)]
    assert forward == want
    *_, ring_sensors, ring_ms = sets[-1]        # the last set is on the ring
    ring = SensorArray(ring_sensors.positions)     # equal values, new tuples
    backward = []
    for golden_set in reversed(sets):
        estimate_all(ring_ms, ring, PROPAGATED)
        backward[:0] = _golden_lines(*golden_set)
    assert backward == want


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        fh.write(golden_estimates_csv())
