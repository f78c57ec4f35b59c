import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

from kinloc.svgplot import _log_ticks, render_loglog

SVG_TEXT = "{http://www.w3.org/2000/svg}text"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_values_rejected(bad):
    # NaN was written as a "nan" pixel coordinate; inf died in the tick search
    for series in ({"s": ((1.0, 10.0), (1.0, bad))}, {"s": ((1.0, bad), (1.0, 10.0))}):
        with pytest.raises(ValueError, match="non-finite"):
            render_loglog(series, "x", "y")


def test_labels_are_escaped():
    svg = render_loglog({"a<b & c": ((1.0, 10.0), (2.0, 3.0))}, "x > 0", "<y>")
    texts = [node.text for node in ET.fromstring(svg).iter(SVG_TEXT)]
    assert {"a<b & c", "x > 0", "<y>"} <= set(texts)
    # a label that is not a string is still written as its str()
    assert ">1.5</text>" in render_loglog({1.5: ((1.0, 10.0), (2.0, 3.0))}, "x", "y")


SVG_CIRCLE = "{http://www.w3.org/2000/svg}circle"
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
    pair = (CLOSE, other) if axis == "x" else (other, CLOSE)
    svg = render_loglog({"s": pair}, "x", "y")
    markers = _markers(svg)
    assert len(markers) == 2
    # both markers sit mid-axis, as a single value's would
    single = render_loglog({"s": ((CLOSE[0],) * 2, other) if axis == "x"
                            else (other, (CLOSE[0],) * 2)}, "x", "y")
    k = 0 if axis == "x" else 1
    assert [m[k] for m in markers] == [m[k] for m in _markers(single)]
    assert ">100</text>" in svg


# sha256 of figures as rendered before the padding covered distinct values
# with one log10; the padding must leave every other figure as it was
PINNED = {
    "one point": ({"s": ((3.0,), (0.5,))},
                  "f11670a7532013819e6e384d7443c632dc9addd79494770164d1d591992963f2"),
    "equal x": ({"s": ((2.0, 2.0), (0.1, 40.0))},
                "7614ea9a6dc9bf346c2f5870cd05b24cb4d6ba175d640c69725e6358389e3c79"),
    "two series": ({"LS": ((0.1, 1.0, 10.0), (0.2, 0.9, 7.0)),
                    "WLS": ((0.1, 1.0, 10.0), (0.15, 0.8, 6.0))},
                   "92695dfccd7a326eb5a1fc5eab1fed29ce527c0f17b55f831825ed2832f7350f"),
}


@pytest.mark.parametrize("name", tuple(PINNED))
def test_other_figures_keep_their_bytes(name):
    series, digest = PINNED[name]
    assert hashlib.sha256(render_loglog(series, "x", "y").encode()).hexdigest() == digest


SVG_LINE = "{http://www.w3.org/2000/svg}line"


def _tick_labels(svg, anchor):
    """The text of the x ("middle") or y ("end") axis tick labels."""
    return [t.text for t in ET.fromstring(svg).iter(SVG_TEXT)
            if t.get("text-anchor") == anchor and t.text not in ("x", "y")]


@pytest.mark.parametrize("value, ticks", [
    # the padding lo / 10 ** 0.5 underflowed to 0: "math domain error"
    (5e-324, ["9.88e-324"]),
    # the ticks' 10 ** (log10 span) overflowed: OverflowError
    (1e308, ["1e+308"]),
    (1.7976931348623157e308, ["1e+308"]),
])
def test_one_value_at_the_ends_of_the_float_range_is_plotted(value, ticks):
    svg = render_loglog({"s": ((value,), (1.0,))}, "x", "y")
    # mid-axis, as any one value's marker
    assert _markers(svg) == _markers(render_loglog({"s": ((3.0,), (1.0,))}, "x", "y"))
    assert _tick_labels(svg, "middle") == ticks
    assert _tick_labels(svg, "end") == ["1"]


def test_ticks_are_powers_of_ten_that_are_floats():
    # log10 bounds past the float range keep only 1e-323 to 1e308
    ticks = _log_ticks(-330.0, 310.0)
    assert ticks == [float(f"1e{k}") for k in range(-323, 309)]
    # the widest figure has a tick per decade, each at a finite pixel
    svg = render_loglog({"s": ((5e-324, 1.7976931348623157e308), (1.0, 2.0))}, "x", "y")
    labels = _tick_labels(svg, "middle")
    assert len(labels) == 632 and labels[-1] == "1e+308"
    assert all(math.isfinite(float(c.get("x1"))) for c in ET.fromstring(svg).iter(SVG_LINE))
