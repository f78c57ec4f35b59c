"""One rule for every array kinloc takes from outside: an entry that is NaN,
inf, or an integer past the float range raises ValueError("<name> must be
finite"), naming the input, at each of the five boundaries that read one."""

from dataclasses import replace

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
