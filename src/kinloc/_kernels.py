"""Hot numeric kernels: the closed-form solves executed once per Monte Carlo trial.

Every reduction is an explicit loop over the sensors, in index order, rather
than np.sum/np.dot: numpy's pairwise summation rounds differently, and the
17-digit sweep CSVs (and the golden files in the test suite) depend on this
fixed summation order.  The loops read each input array once with
``.tolist()`` and run on Python floats: these round every operation exactly
as numpy scalars do, in the same order, at a fraction of the per-operation
cost.  A Python float raises ZeroDivisionError where a numpy scalar returned
inf or NaN, so every denominator that can underflow to 0 is guarded, and it
overflows to inf silently, so the solutions are checked to be finite.

A kernel that cannot solve raises the named error itself, never returns NaN:
``position_solve`` raises DegenerateGeometry and ``wls_solve2``
SingularGeometry, each with the Gram condition number in its message, and
``system_rows`` raises ZeroRange.  The kernels know no weighting policy:
estim.py turns a WeightRule into the weights that ``wls_solve2`` takes.
"""

import math

import numpy as np

from .errors import DegenerateGeometry, SingularGeometry, ZeroRange

COND_CAP_DEFAULT = 1e12

_RANK_DEFICIENT = "sensor layout is rank-deficient for trilateration (gram condition {:.3g})"


def _sym3_eig_extremes(g00, g01, g02, g11, g12, g22):
    """Largest and smallest eigenvalue of a symmetric 3x3 matrix (trigonometric form)."""
    p1 = g01 * g01 + g02 * g02 + g12 * g12
    q = (g00 + g11 + g22) / 3.0
    p2 = (g00 - q) * (g00 - q) + (g11 - q) * (g11 - q) + (g22 - q) * (g22 - q) + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    if p1 == 0.0 or p == 0.0:
        # diagonal, or off-diagonal entries (and spread of the diagonal) so small
        # that p underflows: the diagonal extremes are the eigenvalues to rounding
        lo = min(g00, min(g11, g22))
        hi = max(g00, max(g11, g22))
        return hi, lo
    b00 = (g00 - q) / p
    b01 = g01 / p
    b02 = g02 / p
    b11 = (g11 - q) / p
    b12 = g12 / p
    b22 = (g22 - q) / p
    detb = (b00 * (b11 * b22 - b12 * b12)
            - b01 * (b01 * b22 - b12 * b02)
            + b02 * (b01 * b12 - b11 * b02))
    r = detb / 2.0
    if r < -1.0:
        r = -1.0
    elif r > 1.0:
        r = 1.0
    phi = math.acos(r) / 3.0
    hi = q + 2.0 * p * math.cos(phi)
    lo = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return hi, lo


def position_solve(sx, sy, rbar, cond_cap):
    """Linearized trilateration from measured ranges.

    Rows [-2 x_i, -2 y_i, 1] against rhs rbar_i^2 - x_i^2 - y_i^2, solved via
    column-equilibrated normal equations.  Returns
    (x, y, theta3, residual_norm, gram_cond); raises DegenerateGeometry when
    the layout is rank-deficient, the condition number exceeds cond_cap, or
    the position overflows.
    """
    sx, sy, rbar = sx.tolist(), sy.tolist(), rbar.tolist()
    g00 = 0.0
    g01 = 0.0
    g02 = 0.0
    g11 = 0.0
    g12 = 0.0
    h0 = 0.0
    h1 = 0.0
    h2 = 0.0
    for x, y, r in zip(sx, sy, rbar):
        a0 = -2.0 * x
        a1 = -2.0 * y
        f = r * r - x * x - y * y
        g00 += a0 * a0
        g01 += a0 * a1
        g02 += a0
        g11 += a1 * a1
        g12 += a1
        h0 += a0 * f
        h1 += a1 * f
        h2 += f
    g22 = float(len(sx))

    if g00 <= 0.0 or g11 <= 0.0:
        # a zero column: all sensors share one coordinate (collinear axis-aligned)
        raise DegenerateGeometry(_RANK_DEFICIENT.format(np.inf))
    s0 = math.sqrt(g00)
    s1 = math.sqrt(g11)
    s2 = math.sqrt(g22)
    t01 = g01 / (s0 * s1)
    t02 = g02 / (s0 * s2)
    t12 = g12 / (s1 * s2)
    u0 = h0 / s0
    u1 = h1 / s1
    u2 = h2 / s2

    hi, lo = _sym3_eig_extremes(1.0, t01, t02, 1.0, t12, 1.0)
    if not (lo > 0.0) or hi > lo * cond_cap:
        raise DegenerateGeometry(_RANK_DEFICIENT.format(np.inf if not (lo > 0.0) else hi / lo))
    cond = hi / lo

    c00 = 1.0 - t12 * t12
    c01 = t02 * t12 - t01
    c02 = t01 * t12 - t02
    c11 = 1.0 - t02 * t02
    c12 = t01 * t02 - t12
    c22 = 1.0 - t01 * t01
    det = c00 + t01 * c01 + t02 * c02
    if det <= 0.0:
        raise DegenerateGeometry(_RANK_DEFICIENT.format(np.inf))
    z0 = (c00 * u0 + c01 * u1 + c02 * u2) / det
    z1 = (c01 * u0 + c11 * u1 + c12 * u2) / det
    z2 = (c02 * u0 + c12 * u1 + c22 * u2) / det
    th0 = z0 / s0
    th1 = z1 / s1
    th2 = z2 / s2
    if not (math.isfinite(th0) and math.isfinite(th1)):
        raise DegenerateGeometry(f"trilateration overflows (gram condition {cond:.3g})")

    ss = 0.0
    for x, y, r in zip(sx, sy, rbar):
        f = r * r - x * x - y * y
        e = -2.0 * x * th0 - 2.0 * y * th1 + th2 - f
        ss += e * e
    return th0, th1, th2, math.sqrt(ss), cond


def system_rows(sx, sy, px, py):
    """Stage rows (p_hat - p_i) and the ranges r_i = |p_hat - p_i|.

    Returns (bx, by, rhat) as float64 arrays; raises ZeroRange when p_hat
    coincides with a sensor.
    """
    bx = [px - x for x in sx.tolist()]
    by = [py - y for y in sy.tolist()]
    rhat = [math.sqrt(dx * dx + dy * dy) for dx, dy in zip(bx, by)]
    if 0.0 in rhat:
        raise ZeroRange("estimated position coincides with a sensor")
    return np.array(bx), np.array(by), np.array(rhat)


def wls_solve2(bx, by, rhs, w, cond_cap):
    """Minimizer of sum_i w_i (rhs_i - bx_i*x0 - by_i*x1)^2 via 2x2 normal equations.

    Returns (x0, x1, gram_cond); raises SingularGeometry when the Gram matrix
    is singular, its condition number exceeds cond_cap, its determinant
    underflows to 0, or the solution overflows.
    """
    g00 = 0.0
    g01 = 0.0
    g11 = 0.0
    h0 = 0.0
    h1 = 0.0
    for x, y, r, wi in zip(bx.tolist(), by.tolist(), rhs.tolist(), w.tolist()):
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
    if not (lo > 0.0) or hi > lo * cond_cap or det <= 0.0:
        cond = np.inf if not (lo > 0.0) else hi / lo
        raise SingularGeometry(
            f"stage Gram matrix singular or ill-conditioned (condition {cond:.3g})")
    x0 = (g11 * h0 - g01 * h1) / det
    x1 = (g00 * h1 - g01 * h0) / det
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise SingularGeometry(f"stage solution overflows (condition {hi / lo:.3g})")
    return x0, x1, hi / lo
