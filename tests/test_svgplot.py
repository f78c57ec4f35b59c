import math
import xml.etree.ElementTree as ET

import pytest

from kinloc.svgplot import render_loglog

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
