import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import settings

from kinloc import _kernels as K
from kinloc import montecarlo
from kinloc.errors import SingularGeometry
from kinloc.model import SensorArray
from kinloc.montecarlo import DEFAULT_SENSOR_POSITIONS, METHODS

# A falsifying example prints a @reproduce_failure blob, which replays it in
# any checkout; the example database under .hypothesis/ replays it only here.
settings.register_profile("kinloc", print_blob=True)
settings.load_profile("kinloc")


@pytest.fixture(scope="session")
def sensors8():
    """The reference eight-sensor layout used by the shipped experiments."""
    return SensorArray(DEFAULT_SENSOR_POSITIONS)


def assert_cannot_unlock(*arrays):
    """Each array is frozen for good: it is read-only and refuses to become writable."""
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.setflags(write=True)
        assert not arr.flags.writeable


# a copy by each pickle protocol and by copy.deepcopy
COPIERS = {f"pickle{protocol}": lambda obj, protocol=protocol: pickle.loads(
    pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)}
COPIERS["deepcopy"] = copy.deepcopy


def spy_points(monkeypatch) -> list:
    """Wrap ``montecarlo._score_point``, which a sweep calls once per grid point;
    returns the list it fills with one (scenario, columns, failures) per point."""
    seen = []
    real = montecarlo._score_point

    def spy(scenario, weight_rule, threads):
        columns, failures = real(scenario, weight_rule, threads)
        seen.append((scenario, columns, failures))
        return columns, failures

    monkeypatch.setattr(montecarlo, "_score_point", spy)
    return seen


def record_columns(records):
    """The (columns, failures) that ``montecarlo._score_point`` gives for these
    records: the squared errors, then the stage times, of the successful ones,
    one column per method in ``METHODS`` order."""
    ok = [rec for rec in records if rec.ok]
    methods = range(len(METHODS))
    columns = ([tuple(rec.squared_errors[k] for rec in ok) for k in methods]
               + [tuple(rec.stage_times[k] for rec in ok) for k in methods])
    return (columns if ok else []), len(records) - len(ok)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two pool workers for ``threads=2``, even on a one-CPU machine."""
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _wls_solve2_loop(bx, by, rhs, w):
    """``wls_solve2(*normal_sums(...))`` in its first loop form, every product
    written out, returning the Gram sums after the solution: the reference
    that ``normal_sums`` and the stage loops that form their own sums must
    match bit for bit."""
    g00 = g01 = g11 = h0 = h1 = 0.0
    for x, y, r, wi in zip(bx, by, rhs, w):
        g00 += wi * x * x
        g01 += wi * x * y
        g11 += wi * y * y
        h0 += wi * x * r
        h1 += wi * y * r
    tr = g00 + g11
    diff = g00 - g11
    disc = math.sqrt(diff * diff + 4.0 * g01 * g01)
    hi = 0.5 * (tr + disc)
    lo = 0.5 * (tr - disc)
    det = g00 * g11 - g01 * g01
    if not (lo > 0.0) or hi > lo * K.COND_CAP or det <= 0.0:
        cond = math.inf if not (lo > 0.0) else hi / lo
        raise SingularGeometry(
            f"stage Gram matrix singular or ill-conditioned (condition {cond:.3g})")
    x0 = (g11 * h0 - g01 * h1) / det
    x1 = (g00 * h1 - g01 * h0) / det
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise SingularGeometry(f"stage solution overflows (condition {hi / lo:.3g})")
    return x0, x1, hi / lo, g00, g01, g11
