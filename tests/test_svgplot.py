import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

from kinloc.montecarlo import SweepPoint, SweepResult
from kinloc.svgplot import _log_ticks, sweep_figure

SVG_TEXT = "{http://www.w3.org/2000/svg}text"
SVG_CIRCLE = "{http://www.w3.org/2000/svg}circle"
SVG_LINE = "{http://www.w3.org/2000/svg}line"


def _sweep(grid, ls, wls, parameter="sigma_range_rate"):
    """A hand-built SweepResult whose plotted LS and WLS RMSEs are ``ls`` and
    ``wls``; the columns the figure does not plot hold 1e3."""
    quantity = "accel" if parameter == "sigma_drr" else "velocity"
    points = []
    for sigma, a, b in zip(grid, ls, wls):
        rmses = dict.fromkeys(("velocity_ls", "velocity_wls", "accel_ls", "accel_wls"), 1e3)
        rmses.update({f"{quantity}_ls": a, f"{quantity}_wls": b})
        points.append(SweepPoint(sigma, 1e3, *rmses.values(), failures=0, successes=1,
                                 mean_stage_times=(0.0,) * 5))
    return SweepResult(parameter, tuple(grid), tuple(points))


def _one(grid, rmse, parameter="sigma_range_rate"):
    """Both series equal to ``rmse``."""
    return sweep_figure(_sweep(grid, rmse, rmse, parameter))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("at", [0, 1])
def test_non_finite_grid_value_rejected(bad, at):
    # NaN was written as a "nan" pixel coordinate; inf died in the tick search
    grid = [1.0, 10.0]
    grid[at] = bad
    with pytest.raises(ValueError, match="non-finite"):
        _one(grid, (1.0, 2.0))


@pytest.mark.parametrize("grid, rmse", [((0.0, 1.0), (1.0, 2.0)), ((-math.inf, 1.0), (1.0, 2.0)),
                                        ((1.0, 10.0), (0.0, 2.0))])
def test_nonpositive_grid_value_or_rmse_rejected(grid, rmse):
    with pytest.raises(ValueError, match="nonpositive values; log axes need > 0"):
        _one(grid, rmse)


def test_series_without_a_finite_point_rejected():
    with pytest.raises(ValueError, match="no sweep point has a finite velocity WLS RMSE"):
        sweep_figure(_sweep((1.0, 10.0), (1.0, 2.0), (math.nan, math.inf)))


# distinct values whose log10 is the same float
CLOSE = (100.0, 100.00000000000003)


def _markers(svg):
    """(cx, cy) of every data marker, as floats."""
    return [(float(c.get("cx")), float(c.get("cy")))
            for c in ET.fromstring(svg).iter(SVG_CIRCLE)]


@pytest.mark.parametrize("axis", ("x", "y"))
def test_values_with_one_log10_get_a_padded_axis(axis):
    # the log span was 0 and scaling a coordinate divided by it
    assert CLOSE[0] != CLOSE[1] and math.log10(CLOSE[0]) == math.log10(CLOSE[1])
    other = (1.0, 10.0)
    svg = _one(CLOSE, other) if axis == "x" else _one(other, CLOSE)
    markers = _markers(svg)
    assert len(markers) == 4
    # the markers sit mid-axis, as a single value's would
    single = _one((CLOSE[0],) * 2, other) if axis == "x" else _one(other, (CLOSE[0],) * 2)
    k = 0 if axis == "x" else 1
    assert [m[k] for m in markers] == [m[k] for m in _markers(single)]
    assert ">100</text>" in svg


# sha256 of sweep_figure output for hand-built sweeps, as the figure was
# rendered before the generic log-log writer was folded into it
PINNED = {
    "velocity": (_sweep((0.1, 1.0, 10.0), (0.2, 0.9, 7.0), (0.15, 0.8, 6.0)),
                 "2cda71613f624c7c3e18d13c38857bde5b33732a2dff25db8a79250fb9a74297"),
    "acceleration": (_sweep((0.01, 0.1, 1.0), (0.15, 0.18, 0.95), (0.13, 0.16, 0.8),
                            "sigma_drr"),
                     "70ed3dc5edc5b881eec0d0117e28e402e72771ce2681ce6f35d5f8260198f47e"),
    "one point": (_sweep((3.0,), (0.5,), (0.4,)),
                  "506f9500ecfa5c04628fe979cc153fb972e1edd993282c73e72732b08c411eee"),
    "equal grid values": (_sweep((2.0, 2.0), (0.1, 40.0), (0.2, 30.0)),
                          "9e1ed8527eab366ed2c244d51fed1fc3363a216ba4e1bc3c05197f962219164d"),
    "failed point left out": (_sweep((0.1, 1.0, 10.0), (0.2, math.nan, 7.0),
                                     (0.15, math.nan, 6.0)),
                              "493dc79fca63f8226b481aa224cc8a35f6b9319f4288c94e8677a938864451d6"),
}


@pytest.mark.parametrize("name", tuple(PINNED))
def test_figures_keep_their_bytes(name):
    sweep, digest = PINNED[name]
    assert hashlib.sha256(sweep_figure(sweep).encode()).hexdigest() == digest


def _tick_labels(svg, anchor):
    """The text of the x ("middle") or y ("end") axis tick labels; the axis
    labels, which hold spaces, are left out."""
    return [t.text for t in ET.fromstring(svg).iter(SVG_TEXT)
            if t.get("text-anchor") == anchor and " " not in t.text]


@pytest.mark.parametrize("value, ticks", [
    # the padding lo / 10 ** 0.5 underflowed to 0: "math domain error"
    (5e-324, ["9.88e-324"]),
    # the ticks' 10 ** (log10 span) overflowed: OverflowError
    (1e308, ["1e+308"]),
    (1.7976931348623157e308, ["1e+308"]),
])
def test_one_value_at_the_ends_of_the_float_range_is_plotted(value, ticks):
    svg = _one((value,), (1.0,))
    # mid-axis, as any one value's markers
    assert _markers(svg) == _markers(_one((3.0,), (1.0,)))
    assert _tick_labels(svg, "middle") == ticks
    assert _tick_labels(svg, "end") == ["1"]


def test_ticks_are_powers_of_ten_that_are_floats():
    # log10 bounds past the float range keep only 1e-323 to 1e308
    ticks = _log_ticks(-330.0, 310.0)
    assert ticks == [float(f"1e{k}") for k in range(-323, 309)]
    # the widest figure has a tick per decade, each at a finite pixel
    svg = _one((5e-324, 1.7976931348623157e308), (1.0, 2.0))
    labels = _tick_labels(svg, "middle")
    assert len(labels) == 632 and labels[-1] == "1e+308"
    assert all(math.isfinite(float(c.get("x1"))) for c in ET.fromstring(svg).iter(SVG_LINE))
