"""Byte identity of the Monte Carlo records, pinned by one sha256 digest.

The digest covers every number a trial produces except its wall times:
truth, squared errors, failure names, and every estimate with its theta3,
residual, condition numbers and pseudo-measurements.  It spans two layouts
(the reference eight sensors and 64 on a 100 m ring), three seeds (one of
them past 2**32, so the seed has two words), both motion modes and all three
weight rules.  A change that moves one bit of any of them changes the digest.
For a deliberate change of the numbers only, print the new digest with

    PYTHONPATH=src python tests/test_byte_identity.py
"""

import hashlib
import math
import struct

import numpy as np

from kinloc.estim import PROPAGATED, UNIFORM, WeightRule
from kinloc.montecarlo import MOTION_MODES, default_scenario, run_ensemble

TRIALS = 60
SEEDS = (0, 7, 2 ** 40 + 3)
RULES = (UNIFORM, WeightRule(), PROPAGATED)
_ANGLES = 2.0 * math.pi * np.arange(64) / 64
LAYOUTS = {"default": None,
           "ring64": np.column_stack((100.0 * np.cos(_ANGLES), 100.0 * np.sin(_ANGLES)))}

# computed once the propagated acceleration solve centred its columns on the
# row of smallest variance (that change moved the bits of some accel_wls values)
RECORDS_SHA256 = "9250806954b7c6d7817ce357b81a3779bf4249f20711ea41db7c22c85149480c"


def _feed(digest, record):
    def floats(*values):
        digest.update(struct.pack(f"<{len(values)}d", *values))

    def array(a):
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())

    digest.update(f"#{record.trial_index}:{record.failure}".encode())
    for vec in (record.truth.position, record.truth.velocity, record.truth.acceleration):
        array(vec)
    floats(*record.squared_errors)
    est = record.estimates
    if est is None:
        return
    array(est.position.position)
    floats(est.position.theta3, est.position.residual_norm, est.position.gram_condition)
    for k in (est.velocity_ls, est.velocity_wls, est.accel_ls, est.accel_wls):
        digest.update(k.method.encode())
        array(k.value)
        floats(k.gram_condition)
        array(k.pseudo_measurements)


def records_digest() -> str:
    digest = hashlib.sha256()
    for layout, sensors in LAYOUTS.items():
        for seed in SEEDS:
            for mode in MOTION_MODES:
                scenario = default_scenario(trials=TRIALS, seed=seed, motion_mode=mode,
                                            sensors=sensors)
                for rule in RULES:
                    digest.update(f"|{layout}|{seed}|{mode}|{rule.mode}|".encode())
                    for record in run_ensemble(scenario, rule):
                        _feed(digest, record)
    return digest.hexdigest()


def test_run_ensemble_records_are_byte_identical():
    assert records_digest() == RECORDS_SHA256


if __name__ == "__main__":
    print(records_digest())
