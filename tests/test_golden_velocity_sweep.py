"""Byte-level golden of the default velocity sweep.

``kinloc sweep`` with every setting at its default (seed 7, 1000 trials per
point, the five-point range-rate grid, constant-velocity targets) pins every
estimator's RMSE at 17 significant digits.  perfbench's default sweep
workload compares its seed-7 output against the same file.  Regenerate (only
for a deliberate change of the numbers) with

    PYTHONPATH=src python tests/test_golden_velocity_sweep.py
"""

import os
import sys
import tempfile

from kinloc import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_velocity_sweep.csv")


def default_velocity_sweep_csv(directory: str) -> bytes:
    dest = os.path.join(directory, "velocity.csv")
    code = cli.main(["sweep", "--out", dest])
    assert code == 0
    with open(dest, "rb") as fh:
        return fh.read()


def test_golden_default_velocity_sweep(tmp_path, capsys):
    produced = default_velocity_sweep_csv(str(tmp_path))
    capsys.readouterr()
    with open(GOLDEN, "rb") as fh:
        assert produced == fh.read()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = default_velocity_sweep_csv(tmp)
    with open(GOLDEN, "wb") as fh:
        fh.write(data)
    sys.stdout.write(f"wrote {GOLDEN}\n")
