"""Byte-level golden of the default acceleration sweep.

The velocity golden (golden_velocity_sweep.csv) runs constant-velocity
targets, so it never draws an acceleration from the scenario box.  This file
pins ``kinloc sweep --experiment acceleration`` with every other setting at
its default (seed 7, 1000 trials per point, the five-point drr grid), which
covers the third truth draw and the acceleration-noise path.  Regenerate
(only for a deliberate change of the numbers) with

    PYTHONPATH=src python tests/test_golden_acceleration_sweep.py
"""

import os
import sys
import tempfile

from kinloc import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_acceleration_sweep.csv")


def default_acceleration_sweep_csv(directory: str) -> bytes:
    dest = os.path.join(directory, "acceleration.csv")
    code = cli.main(["sweep", "--experiment", "acceleration", "--out", dest])
    assert code == 0
    with open(dest, "rb") as fh:
        return fh.read()


def test_golden_default_acceleration_sweep(tmp_path, capsys):
    produced = default_acceleration_sweep_csv(str(tmp_path))
    capsys.readouterr()
    with open(GOLDEN, "rb") as fh:
        assert produced == fh.read()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = default_acceleration_sweep_csv(tmp)
    with open(GOLDEN, "wb") as fh:
        fh.write(data)
    sys.stdout.write(f"wrote {GOLDEN}\n")
