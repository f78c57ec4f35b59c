"""One rule for every array kinloc takes from outside, at each boundary that reads
one: a ragged list raises ValueError("<name> must be a rectangular array"), an entry
that is not a real number TypeError("<name> must be real numbers, got <entry>"), an
entry that is NaN, inf, or an integer past the float range ValueError("<name> must
be finite"), and a mis-shaped array ValueError("<name> must have shape <spec>, got
<the input's shape as given>"), each naming the input; a bool among floats is such
an entry.  The CLI reports the same text as a ConfigError."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kinloc import cli
from kinloc.errors import ConfigError
from kinloc.estim import estimate_velocity, solve_linear_stage, solve_shared_error_stage
from kinloc.model import (MeasurementSet, NoiseSpec, SensorArray, TargetState, range_to,
                          synthesize_measurements)
from kinloc.montecarlo import default_scenario
from kinloc.oracle import dense_wls_solve

B = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
ONES = [1.0, 1.0, 1.0]
SENSORS = [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]
MEASUREMENTS = dict(ranges=[1.0, 2.0], range_rates=[0.0, 0.0], drrs=[0.0, 0.0])


def _measurement_set(field, x):
    return MeasurementSet(**dict(MEASUREMENTS, **{field: x}), noise=NoiseSpec())


def _box(field, x):
    return replace(default_scenario(trials=1), **{field: x})


def _setting(key):
    return lambda x: cli._SETTINGS[key][0](key, x)


# (boundary, the name its message carries, the boundary called with x as that input,
#  a valid x, a mis-shaped x, the shape message after "must have shape ")
BOUNDARIES = [
    ("SensorArray", "sensor positions", SensorArray, SENSORS, [1.0, 2.0, 3.0],
     "(N, 2), got (3,)"),
    *[("MeasurementSet", field, lambda x, field=field: _measurement_set(field, x),
       MEASUREMENTS[field], np.ones((2, 1)), "(N,), got (2, 1)")
      for field in ("ranges", "range_rates", "drrs")],
    *[("Scenario", field, lambda x, field=field: _box(field, x), [[0.0, 0.0], [1.0, 1.0]],
       [[0.0, 0.0]], "(2, 2), got (1, 2)")
      for field in ("position_box", "velocity_box", "acceleration_box")],
    ("TargetState", "position", lambda x: TargetState(x, (0.0, 0.0)), [3.0, 4.0], 3.0,
     "(2,), got ()"),
    ("solve_linear_stage", "B", lambda x: solve_linear_stage(x, ONES, ONES), B,
     np.ones((3, 3)), "(N, 2), got (3, 3)"),
    ("solve_linear_stage", "rhs", lambda x: solve_linear_stage(B, x, ONES), ONES,
     [1.0, 1.0], "(3,), got (2,)"),
    ("solve_linear_stage", "weights", lambda x: solve_linear_stage(B, ONES, x), ONES,
     [ONES], "(3,), got (1, 3)"),
    ("solve_shared_error_stage", "B", lambda x: solve_shared_error_stage(x, ONES, ONES, 0.0),
     B, np.zeros((0, 2)), "(N, 2), got (0, 2)"),
    ("solve_shared_error_stage", "rhs", lambda x: solve_shared_error_stage(B, x, ONES, 0.0),
     ONES, 2.0, "(3,), got ()"),
    ("solve_shared_error_stage", "variances",
     lambda x: solve_shared_error_stage(B, ONES, x, 0.0), ONES, np.ones((3, 1)),
     "(3,), got (3, 1)"),
    ("dense_wls_solve", "rows", lambda x: dense_wls_solve(x, ONES, ONES), B, ONES,
     "(N, N), got (3,)"),
    ("dense_wls_solve", "rhs", lambda x: dense_wls_solve(B, x, ONES), ONES, np.ones((3, 1)),
     "(3,), got (3, 1)"),
    ("dense_wls_solve", "weights", lambda x: dense_wls_solve(B, ONES, x), ONES, 1.0,
     "(3,), got ()"),
    # the config format takes no lone [x, y] as one sensor and no scalar as one measurement
    ("cli", "sensors", _setting("sensors"), SENSORS, [1.0, 2.0], "(N, 2), got (2,)"),
    ("cli", "ranges", _setting("ranges"), [1.0, 2.0], 4.0, "(N,), got ()"),
]
IDS = [f"{b}-{n}" for b, n, *_ in BOUNDARIES]


def _with_first(good, v):
    """``good`` with its first entry in row-major order replaced by ``v``."""
    first, *rest = good
    return [_with_first(first, v) if isinstance(first, list) else v, *rest]


def _raises(boundary, cls, message):
    return pytest.raises(ConfigError if boundary == "cli" else cls, match=message)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 10 ** 400],
                         ids=["nan", "inf", "10**400"])
@pytest.mark.parametrize("boundary, name, build, good, misshaped, shape", BOUNDARIES, ids=IDS)
def test_non_finite_array_entry_is_a_value_error_naming_the_input(boundary, name, build, good,
                                                                  misshaped, shape, bad):
    build(_with_first(good, 1.0))      # the same input with a finite entry is accepted
    with _raises(boundary, ValueError, f"^{name} must be finite$"):
        build(_with_first(good, bad))


# numpy read the strings as numbers, dropped the imaginary part, and gave None as NaN
@pytest.mark.parametrize("bad", ["3", b"3", None, 1 + 0j], ids=["str", "bytes", "None", "complex"])
@pytest.mark.parametrize("boundary, name, build, good, misshaped, shape", BOUNDARIES, ids=IDS)
def test_entry_that_is_no_real_number_is_a_type_error_naming_the_input(boundary, name, build,
                                                                         good, misshaped, shape,
                                                                         bad):
    message = f"^{name} must be real numbers, got {re.escape(repr(bad))}$"
    with _raises(boundary, TypeError, message):
        build(_with_first(good, bad))


# numpy makes a float array of [True, 0.0], which was read as [1.0, 0.0]; the
# reader now reads the entries of every input that is not an ndarray
@pytest.mark.parametrize("boundary, name, build, good, misshaped, shape", BOUNDARIES, ids=IDS)
def test_bool_among_floats_is_a_type_error_naming_the_input(boundary, name, build, good,
                                                            misshaped, shape):
    with _raises(boundary, TypeError, f"^{name} must be real numbers, got True$"):
        build(_with_first(good, True))


# each boundary had its own shape message, or none: dense_wls_solve broadcast a
# mis-shaped rhs or weights and solved, and as_vec2 reported a scalar as shape (1,)
@pytest.mark.parametrize("boundary, name, build, good, misshaped, shape", [
    *BOUNDARIES,
    # no estimator takes an empty set, whose N is not that of any SensorArray
    ("MeasurementSet", "ranges", lambda x: MeasurementSet(x, x, x, NoiseSpec()), None, [],
     "(N,), got (0,)"),
], ids=IDS + ["MeasurementSet-empty"])
def test_mis_shaped_array_is_a_value_error_naming_the_input_and_its_shape(boundary, name,
                                                                          build, good,
                                                                          misshaped, shape):
    with _raises(boundary, ValueError, f"^{name} must have shape {re.escape(shape)}$"):
        build(misshaped)


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


@pytest.mark.parametrize("name, build", [
    ("sensor positions", lambda: SensorArray([[0.0, 0.0], [10.0], [0.0, 10.0]])),
    ("ranges", lambda: MeasurementSet([[1.0], [2.0, 3.0]], [0.0, 0.0], [0.0, 0.0],
                                      NoiseSpec())),
    ("position_box", lambda: replace(default_scenario(trials=1),
                                     position_box=((0.0, 0.0), (1.0,)))),
    ("B", lambda: solve_linear_stage([[1.0, 0.0], [0.0], [1.0, 1.0]], ONES, ONES)),
    ("rows", lambda: dense_wls_solve([[1.0, 0.0], [0.0], [1.0, 1.0]], ONES, ONES)),
    ("position", lambda: TargetState(((1.0, 2.0), 3.0), (0.0, 0.0))),
], ids=["SensorArray", "MeasurementSet", "Scenario", "solve_linear_stage", "dense_wls_solve",
        "TargetState"])
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
