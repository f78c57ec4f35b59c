"""The per-trial arithmetic rounds every product and every sum on its own.

numpy's ``@`` hands dot products to BLAS, which fuses multiply and add where
the CPU can: ``v @ v`` of a 2-vector then rounds as fma(v1, v1, v0 * v0), not
as v0 * v0 + v1 * v1, and the numbers depend on the CPU and the BLAS build.
These tests pick seeded vectors where the two forms differ and require the
plain form, bit for bit, from the two public functions that square v.
Python 3.11 has no ``math.fma``; ``Fraction`` forms the fused value exactly,
and its conversion to float rounds once.
"""

import math
from fractions import Fraction

import numpy as np

from kinloc.estim import estimate_acceleration
from kinloc.model import MeasurementSet, NoiseSpec, TargetState, true_measurements


def fused_square_norm(v0: float, v1: float) -> float:
    """fma(v1, v1, v0 * v0): the exact v1 * v1 plus the rounded v0 * v0, rounded once."""
    return float(Fraction(v1) * Fraction(v1) + Fraction(v0 * v0))


def fused_cases(count: int = 40):
    """Seeded (position, velocity, acceleration) triples whose velocity's fused
    squared norm differs from the plain one."""
    rng = np.random.default_rng(20261018)
    cases = []
    while len(cases) < count:
        p, v, a = (rng.uniform(lo, hi, 2).tolist()
                   for lo, hi in ((0.0, 100.0), (-20.0, 20.0), (-10.0, 10.0)))
        if fused_square_norm(*v) != v[0] * v[0] + v[1] * v[1]:
            cases.append((p, v, a))
    return cases


def _drrs(p, v, a, v2, sensors):
    """The exact drrs of ``true_measurements`` with ||v||^2 given as v2."""
    out = []
    for sx, sy in sensors.positions.tolist():
        x, y = p[0] - sx, p[1] - sy
        r = math.sqrt(x * x + y * y)
        rd = (x * v[0] + y * v[1]) / r
        out.append((x * a[0] + y * a[1] + v2 - rd * rd) / r)
    return out


def _pseudo(ms, p_hat, v2, sensors):
    """k_i = b_i * r_i - v2 + a_i^2 with r_i = |p_hat - p_i|, on floats."""
    out = []
    for (sx, sy), a, b in zip(sensors.positions.tolist(), ms.range_rates.tolist(),
                              ms.drrs.tolist()):
        x, y = p_hat[0] - sx, p_hat[1] - sy
        out.append(b * math.sqrt(x * x + y * y) - v2 + a * a)
    return out


def test_true_measurements_square_v_unfused(sensors8):
    differs = 0
    for p, v, a in fused_cases():
        plain = _drrs(p, v, a, v[0] * v[0] + v[1] * v[1], sensors8)
        fused = _drrs(p, v, a, fused_square_norm(*v), sensors8)
        assert true_measurements(TargetState(p, v, a), sensors8)[2].tolist() == plain
        differs += plain != fused
    assert differs > 0      # the cases can tell the two forms apart


def test_pseudo_measurements_square_v_hat_unfused(sensors8, rng):
    differs = 0
    for p, v, a in fused_cases():
        n = len(sensors8)
        ms = MeasurementSet(rng.uniform(10.0, 150.0, n), rng.uniform(-20.0, 20.0, n),
                            rng.uniform(-10.0, 10.0, n), NoiseSpec())
        plain = _pseudo(ms, p, v[0] * v[0] + v[1] * v[1], sensors8)
        fused = _pseudo(ms, p, fused_square_norm(*v), sensors8)
        got = estimate_acceleration(ms, sensors8, np.array(p), np.array(v))
        assert got.pseudo_measurements.tolist() == plain
        differs += plain != fused
    assert differs > 0
