"""Tiny deterministic SVG line-plot writer for sweep results.

Hand-rolled on purpose: the output must be byte-identical across runs and
machines, so no plotting library (font metrics, version strings, timestamps)
is acceptable.  Log-log axes, one polyline per series, fixed palette.
"""

import math

_WIDTH, _HEIGHT = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 55          # margins: left right top bottom
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    # fixed-precision pixel coordinates keep the file stable across platforms
    return f"{x:.2f}"


def _escape(text) -> str:
    # XML text content; xml.sax.saxutils.escape would import urllib and ssl
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _log_ticks(l0: float, l1: float):
    """The powers of ten 10^k with l0 <= k <= l1 (log10 bounds, to a hair) that
    are positive finite floats: 1e-324 underflows to 0 and 1e309 overflows."""
    ticks = (float(f"1e{k}") for k in range(math.floor(l0), math.ceil(l1) + 1)
             if l0 - 1e-12 <= k <= l1 + 1e-12)
    return [tick for tick in ticks if 0.0 < tick < math.inf]


def _tick_label(value: float) -> str:
    exp = math.log10(value)
    if abs(exp - round(exp)) < 1e-9:
        exp = round(exp)
        if -3 <= exp <= 3:
            return f"{value:.10g}"
        return f"1e{exp:+d}"
    return f"{value:.3g}"


def render_loglog(series: dict, xlabel: str, ylabel: str) -> str:
    """Render named (x, y) series to an SVG string with log-log axes.

    series maps a legend label to a pair of equal-length sequences.  Values
    <= 0 or not finite cannot be drawn on a log axis and raise ValueError.
    Labels are written as XML text, escaped.
    """
    if not series:
        raise ValueError("need at least one series")
    xs_all, ys_all = [], []
    for label, (xs, ys) in series.items():
        if len(xs) != len(ys) or len(xs) == 0:
            raise ValueError(f"series {label!r} must have equal nonzero lengths")
        if any(v <= 0 for v in xs) or any(v <= 0 for v in ys):
            raise ValueError(f"series {label!r} has nonpositive values; log axes need > 0")
        if not all(map(math.isfinite, (*xs, *ys))):
            raise ValueError(f"series {label!r} has non-finite values")
        xs_all.extend(xs)
        ys_all.extend(ys)

    def span(vals):
        # in log10 space, where padding cannot underflow or overflow
        lo, hi = math.log10(min(vals)), math.log10(max(vals))
        # degenerate span, also for distinct values whose log10 rounds alike:
        # pad a decade around it
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        return lo, hi

    lx0, lx1 = span(xs_all)
    ly0, ly1 = span(ys_all)
    px0, px1 = _ML, _WIDTH - _MR
    py0, py1 = _HEIGHT - _MB, _MT

    def sx(v):
        return px0 + (math.log10(v) - lx0) / (lx1 - lx0) * (px1 - px0)

    def sy(v):
        return py0 + (math.log10(v) - ly0) / (ly1 - ly0) * (py1 - py0)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        '<g font-family="sans-serif" font-size="12" fill="#222">',
    ]
    # frame
    out.append(f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" height="{py0 - py1}" '
               'fill="none" stroke="#222"/>')

    for tick in _log_ticks(lx0, lx1):
        x = sx(tick)
        out.append(f'<line x1="{_fmt(x)}" y1="{py0}" x2="{_fmt(x)}" y2="{py1}" '
                   'stroke="#ddd"/>')
        out.append(f'<text x="{_fmt(x)}" y="{py0 + 18}" text-anchor="middle">'
                   f'{_tick_label(tick)}</text>')
    for tick in _log_ticks(ly0, ly1):
        y = sy(tick)
        out.append(f'<line x1="{px0}" y1="{_fmt(y)}" x2="{px1}" y2="{_fmt(y)}" '
                   'stroke="#ddd"/>')
        out.append(f'<text x="{px0 - 6}" y="{_fmt(y + 4)}" text-anchor="end">'
                   f'{_tick_label(tick)}</text>')

    out.append(f'<text x="{(px0 + px1) / 2:.0f}" y="{_HEIGHT - 12}" '
               f'text-anchor="middle">{_escape(xlabel)}</text>')
    out.append(f'<text x="16" y="{(py0 + py1) / 2:.0f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {(py0 + py1) / 2:.0f})">{_escape(ylabel)}</text>')

    legend_y = py1 + 14
    for idx, (label, (xs, ys)) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" '
                       f'fill="{color}"/>')
        out.append(f'<line x1="{px1 - 150}" y1="{legend_y}" x2="{px1 - 120}" '
                   f'y2="{legend_y}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{px1 - 114}" y="{legend_y + 4}">{_escape(label)}</text>')
        legend_y += 16

    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def sweep_figure(sweep) -> str:
    """SVG for a SweepResult: both estimator variants of the swept quantity.

    A point whose RMSE is not finite (every trial failed) is left out; a
    series with no finite point raises ValueError.
    """
    if sweep.swept_parameter == "sigma_drr":
        columns = {"acceleration LS": "rmse_accel_ls", "acceleration WLS": "rmse_accel_wls"}
        ylabel = "acceleration RMSE (m/s^2)"
        xlabel = "drr noise sigma (m/s^2)"
    else:
        columns = {"velocity LS": "rmse_velocity_ls", "velocity WLS": "rmse_velocity_wls"}
        ylabel = "velocity RMSE (m/s)"
        xlabel = "range-rate noise sigma (m/s)"
    series = {}
    for label, field in columns.items():
        ys = (getattr(p, field) for p in sweep.points)
        pairs = [(x, y) for x, y in zip(sweep.grid, ys) if math.isfinite(y)]
        if not pairs:
            raise ValueError(f"no sweep point has a finite {label} RMSE to plot")
        series[label] = tuple(zip(*pairs))
    return render_loglog(series, xlabel, ylabel)
