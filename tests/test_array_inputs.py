"""One rule for every array kinloc takes from outside: an entry that is NaN,
inf, or an integer past the float range raises ValueError("<name> must be
finite"), an entry that is not a real number raises TypeError("<name> must be
real numbers, got <entry>"), and a ragged list raises ValueError, each naming
the input, at each of the five boundaries that read one."""

import re
from dataclasses import replace

import numpy as np
import pytest

from kinloc.estim import solve_linear_stage, solve_shared_error_stage
from kinloc.model import MeasurementSet, NoiseSpec, SensorArray
from kinloc.montecarlo import default_scenario
from kinloc.oracle import dense_wls_solve

B = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
ONES = [1.0, 1.0, 1.0]


def _measurement_set(field, v):
    fields = dict(ranges=[1.0, 2.0], range_rates=[0.0, 0.0], drrs=[0.0, 0.0])
    fields[field] = [fields[field][0], v]
    return MeasurementSet(**fields, noise=NoiseSpec())


def _box(field, v):
    return replace(default_scenario(trials=1), **{field: ((0.0, 0.0), (v, 1.0))})


# (boundary, the name its message carries, a valid input with the bad entry v)
BOUNDARIES = [
    ("SensorArray", "sensor positions",
     lambda v: SensorArray([[v, 0.0], [10.0, 0.0], [0.0, 10.0]])),
    *[("MeasurementSet", field, lambda v, field=field: _measurement_set(field, v))
      for field in ("ranges", "range_rates", "drrs")],
    *[("Scenario", field, lambda v, field=field: _box(field, v))
      for field in ("position_box", "velocity_box", "acceleration_box")],
    ("solve_linear_stage", "B", lambda v: solve_linear_stage([[v, 0.0]] + B[1:], ONES, ONES)),
    ("solve_linear_stage", "rhs", lambda v: solve_linear_stage(B, [1.0, v, 1.0], ONES)),
    ("solve_linear_stage", "weights", lambda v: solve_linear_stage(B, ONES, [1.0, 1.0, v])),
    ("solve_shared_error_stage", "B",
     lambda v: solve_shared_error_stage([[0.0, v]] + B[1:], ONES, ONES, 0.0)),
    ("solve_shared_error_stage", "rhs",
     lambda v: solve_shared_error_stage(B, [v, 1.0, 1.0], ONES, 0.0)),
    ("solve_shared_error_stage", "variances",
     lambda v: solve_shared_error_stage(B, ONES, [1.0, v, 1.0], 0.0)),
    ("dense_wls_solve", "rows", lambda v: dense_wls_solve([[v, 1.0], [0.0, 1.0]], [1.0, 2.0],
                                                          [1.0, 1.0])),
    ("dense_wls_solve", "rhs", lambda v: dense_wls_solve(B, [1.0, 1.0, v], ONES)),
    ("dense_wls_solve", "weights", lambda v: dense_wls_solve(B, ONES, [v, 1.0, 1.0])),
]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 10 ** 400],
                         ids=["nan", "inf", "10**400"])
@pytest.mark.parametrize("boundary, name, build", BOUNDARIES,
                         ids=[f"{b}-{n}" for b, n, _ in BOUNDARIES])
def test_non_finite_array_entry_is_a_value_error_naming_the_input(boundary, name, build, bad):
    build(1.0)      # the same input with a finite entry is accepted
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        build(bad)


# numpy read the strings as numbers, dropped the imaginary part, and gave None as NaN
@pytest.mark.parametrize("bad", ["3", b"3", None, 1 + 0j], ids=["str", "bytes", "None", "complex"])
@pytest.mark.parametrize("boundary, name, build", BOUNDARIES,
                         ids=[f"{b}-{n}" for b, n, _ in BOUNDARIES])
def test_entry_that_is_no_real_number_is_a_type_error_naming_the_input(boundary, name, build,
                                                                         bad):
    message = f"^{name} must be real numbers, got {re.escape(repr(bad))}$"
    with pytest.raises(TypeError, match=message):
        build(bad)


SENSORS = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]


# whole arrays of bools or complex numbers, which numpy read as 1.0/0.0 or real parts
@pytest.mark.parametrize("name, build", [
    ("sensor positions", lambda: SensorArray(np.array(SENSORS, dtype=bool))),
    ("sensor positions", lambda: SensorArray(np.array(SENSORS, dtype=complex))),
    ("ranges", lambda: MeasurementSet([True, True], [0.0, 0.0], [0.0, 0.0], NoiseSpec())),
    ("weights", lambda: solve_linear_stage(B, ONES, [True, True, True])),
    ("variances", lambda: solve_shared_error_stage(B, ONES, np.ones(3, dtype=complex), 0.0)),
], ids=["bool-sensors", "complex-sensors", "bool-ranges", "bool-weights", "complex-variances"])
def test_bool_or_complex_array_is_a_type_error_naming_the_input(name, build):
    with pytest.raises(TypeError, match=f"^{name} must be real numbers, got "):
        build()


def test_bool_among_floats_is_read_by_numpy_before_the_reader():
    # numpy makes a float array of [True, 0.0]; the reader never sees the bool
    assert SensorArray([[True, 0.0], *SENSORS[1:]]).positions[0, 0] == 1.0


@pytest.mark.parametrize("name, build", [
    ("sensor positions", lambda: SensorArray([[0.0, 0.0], [10.0], [0.0, 10.0]])),
    ("ranges", lambda: MeasurementSet([[1.0], [2.0, 3.0]], [0.0, 0.0], [0.0, 0.0],
                                      NoiseSpec())),
    ("position_box", lambda: replace(default_scenario(trials=1),
                                     position_box=((0.0, 0.0), (1.0,)))),
    ("B", lambda: solve_linear_stage([[1.0, 0.0], [0.0], [1.0, 1.0]], ONES, ONES)),
    ("rows", lambda: dense_wls_solve([[1.0, 0.0], [0.0], [1.0, 1.0]], ONES, ONES)),
], ids=["SensorArray", "MeasurementSet", "Scenario", "solve_linear_stage", "dense_wls_solve"])
def test_ragged_list_is_a_value_error_naming_the_input(name, build):
    # numpy's own message ("inhomogeneous shape") named no input
    with pytest.raises(ValueError, match=f"^{name} must be a rectangular array$"):
        build()
