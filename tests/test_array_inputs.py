"""One rule for every array kinloc takes from outside: an entry that is NaN,
inf, or an integer past the float range raises ValueError("<name> must be
finite"), an entry that is not a real number raises TypeError("<name> must be
real numbers, got <entry>"), and a ragged list raises ValueError, each naming
the input, at each of the five boundaries that read one; a bool among floats
is such an entry.  ``as_vec2`` rejects
such entries and ragged lists alike, and keeps its own shape and finiteness
messages."""

import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from kinloc.estim import estimate_velocity, solve_linear_stage, solve_shared_error_stage
from kinloc.model import (MeasurementSet, NoiseSpec, SensorArray, TargetState, as_vec2,
                          range_to, synthesize_measurements)
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


# numpy makes a float array of [True, 0.0], which was read as [1.0, 0.0]; the
# reader now reads the entries of every input that is not an ndarray
@pytest.mark.parametrize("boundary, name, build", [
    *BOUNDARIES, ("TargetState", "position", lambda v: TargetState((v, 3.0), (0.0, 0.0)))],
    ids=[f"{b}-{n}" for b, n, _ in BOUNDARIES] + ["TargetState-position"])
def test_bool_among_floats_is_a_type_error_naming_the_input(boundary, name, build):
    build(1.0)
    with pytest.raises(TypeError, match=f"^{name} must be real numbers, got True$"):
        build(True)


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


# as_vec2 reads the TargetState vectors, range_to's points and the stage functions'
# p_hat and v_hat; numpy read '3', b'0' and True as numbers, raised its own message
# for a complex tuple and dropped a complex array's imaginary part with a warning
VEC2_BOUNDARIES = [
    ("position", "'3'", lambda: TargetState(("3", True), (0, 0))),
    ("velocity", "True", lambda: TargetState((0.0, 0.0), (True, False))),
    ("acceleration", "(1+0j)", lambda: TargetState((0.0, 0.0), (0.0, 0.0), (1 + 0j, 0.0))),
    ("position", "(1+2j)", lambda: TargetState(np.array([1 + 2j, 0.0]), (0.0, 0.0))),
    ("target_pos", "'3'", lambda: range_to(("3", 0), (b"0", 0))),
    ("sensor_pos", "b'0'", lambda: range_to((3.0, 0.0), (b"0", 0))),
    ("p_hat", "None", lambda: estimate_velocity(*_velocity_inputs(), (None, 1.0))),
]


def _velocity_inputs():
    sensors = SensorArray(SENSORS)
    truth = TargetState((3.0, 4.0), (1.0, -1.0))
    return synthesize_measurements(truth, sensors, NoiseSpec(), 0), sensors


@pytest.mark.parametrize("name, entry, build", VEC2_BOUNDARIES,
                         ids=["str", "bool", "complex", "complex-array", "range_to-str",
                              "range_to-bytes", "stage-None"])
def test_vec2_entry_that_is_no_real_number_is_a_type_error_naming_the_input(name, entry,
                                                                            build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no ComplexWarning in place of the error
        with pytest.raises(TypeError, match=f"^{name} must be real numbers, got "
                                            f"{re.escape(entry)}$"):
            build()


def test_vec2_keeps_its_shape_and_finiteness_messages():
    for value, message in ((np.zeros(3), "must have exactly 2 components, got shape (3,)"),
                           ((np.nan, 0.0), "must be finite, got [nan  0.]"),
                           ((10 ** 400, 0.0),
                            "must be finite, got an integer too large for a float")):
        with pytest.raises(ValueError, match=f"^v {re.escape(message)}$"):
            as_vec2(value, "v")
    with pytest.raises(ValueError, match="^v must be a rectangular array$"):
        as_vec2(((1.0, 2.0), 3.0), "v")
    # integer, float32 and Fraction entries are real numbers, read as float64
    assert as_vec2((np.float32(0.5), Fraction(1, 4))).tolist() == [0.5, 0.25]
    assert as_vec2(np.array([3, -4])).tolist() == [3.0, -4.0]
