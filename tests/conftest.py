import numpy as np
import pytest
from hypothesis import settings

from kinloc.model import SensorArray
from kinloc.montecarlo import DEFAULT_SENSOR_POSITIONS

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
