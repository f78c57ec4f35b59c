"""The goldens were regenerated once, when the per-trial dot products moved
from numpy's ``@`` (BLAS, which fuses multiply and add where the CPU can) to
plain float products.  ``data/blas_era`` keeps the files as the BLAS-rounded
code wrote them.  These tests show that regeneration moved numbers by
rounding only: the same rows, failures and error names, every sweep RMSE
within 1e-14 and every ``estimate_all`` output within 1e-13 of its old value,
relative.
"""

import csv
import math
import os

import pytest

DATA = os.path.join(os.path.dirname(__file__), "data")


def _rows(*path):
    with open(os.path.join(DATA, *path), newline="") as fh:
        return list(csv.reader(fh))


def _assert_agree(name, rel_tol):
    old, new = _rows("blas_era", name), _rows(name)
    assert len(new) == len(old) and new[0] == old[0]
    for before, after in zip(old[1:], new[1:]):
        assert len(after) == len(before)
        for a, b in zip(before, after):
            try:
                a, b = float(a), float(b)
            except ValueError:          # layout, rule or error class name
                assert b == a
                continue
            assert math.isclose(b, a, rel_tol=rel_tol, abs_tol=0.0), (name, before[:3], a, b)


@pytest.mark.parametrize("name", ["golden_velocity_sweep.csv", "golden_acceleration_sweep.csv"])
def test_sweep_rmses_agree_with_the_blas_era(name):
    _assert_agree(name, 1e-14)


def test_estimates_agree_with_the_blas_era():
    _assert_agree("golden_estimates.csv", 1e-13)
