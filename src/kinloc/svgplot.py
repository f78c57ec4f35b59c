"""Tiny deterministic SVG line-plot writer for sweep results.

Hand-rolled on purpose: the output must be byte-identical across runs and
machines, so no plotting library (font metrics, version strings, timestamps)
is acceptable.  Log-log axes, one polyline per estimator variant, fixed
palette; every label is a constant of ``sweep_figure``, so none needs escaping.
"""

import math

_WIDTH, _HEIGHT = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 55          # margins: left right top bottom
_PALETTE = ("#1f77b4", "#d62728")             # LS, WLS


def _fmt(x: float) -> str:
    # fixed-precision pixel coordinates keep the file stable across platforms
    return f"{x:.2f}"


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


def sweep_figure(sweep) -> str:
    """SVG for a SweepResult: the RMSE of both estimator variants of the swept
    quantity against the grid, on log-log axes.

    A point whose RMSE is not finite (every trial failed) is left out; a
    series with no finite point, or a plotted grid value or RMSE that is not
    positive and finite, raises ValueError.
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
        # a log axis cannot draw a value <= 0, nor a NaN or inf grid value
        if any(v <= 0 for pair in pairs for v in pair):
            raise ValueError(f"series {label!r} has nonpositive values; log axes need > 0")
        if not all(math.isfinite(x) for x, _ in pairs):
            raise ValueError(f"series {label!r} has non-finite values")
        series[label] = pairs

    def span(vals):
        # in log10 space, where padding cannot underflow or overflow
        lo, hi = math.log10(min(vals)), math.log10(max(vals))
        # degenerate span, also for distinct values whose log10 rounds alike:
        # pad a decade around it
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        return lo, hi

    lx0, lx1 = span([x for pairs in series.values() for x, _ in pairs])
    ly0, ly1 = span([y for pairs in series.values() for _, y in pairs])
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
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="16" y="{(py0 + py1) / 2:.0f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {(py0 + py1) / 2:.0f})">{ylabel}</text>')

    legend_y = py1 + 14
    for color, (label, pairs) in zip(_PALETTE, series.items()):
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pairs)
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        for x, y in pairs:
            out.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" '
                       f'fill="{color}"/>')
        out.append(f'<line x1="{px1 - 150}" y1="{legend_y}" x2="{px1 - 120}" '
                   f'y2="{legend_y}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{px1 - 114}" y="{legend_y + 4}">{label}</text>')
        legend_y += 16

    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


