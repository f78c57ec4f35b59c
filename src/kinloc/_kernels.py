"""Hot numeric kernels: the closed-form solves executed once per Monte Carlo trial.

Every reduction is an explicit loop over the sensors, in index order, rather
than np.sum/np.dot: numpy's pairwise summation rounds differently, and the
17-digit sweep CSVs (and the golden file in the test suite) depend on this
fixed summation order.

Status codes returned by every kernel: 0 ok, 1 zero range, 2 singular or
degenerate geometry.  On a non-zero status all numeric outputs are zeros (or
inf for condition numbers), never NaN; the wrapper layer in estim.py raises
the matching exception.
"""

import math

import numpy as np

OK = 0
ZERO_RANGE = 1
SINGULAR = 2

WEIGHT_UNIFORM = 0
WEIGHT_INV_RANGE = 1
WEIGHT_INV_RANGE_SQ = 2

COND_CAP_DEFAULT = 1e12


def _sym3_eig_extremes(g00, g01, g02, g11, g12, g22):
    """Largest and smallest eigenvalue of a symmetric 3x3 matrix (trigonometric form)."""
    p1 = g01 * g01 + g02 * g02 + g12 * g12
    q = (g00 + g11 + g22) / 3.0
    if p1 == 0.0:
        lo = min(g00, min(g11, g22))
        hi = max(g00, max(g11, g22))
        return hi, lo
    p2 = (g00 - q) * (g00 - q) + (g11 - q) * (g11 - q) + (g22 - q) * (g22 - q) + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
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
    (x, y, theta3, residual_norm, gram_cond, status).
    """
    n = sx.shape[0]
    g00 = 0.0
    g01 = 0.0
    g02 = 0.0
    g11 = 0.0
    g12 = 0.0
    h0 = 0.0
    h1 = 0.0
    h2 = 0.0
    for i in range(n):
        a0 = -2.0 * sx[i]
        a1 = -2.0 * sy[i]
        f = rbar[i] * rbar[i] - sx[i] * sx[i] - sy[i] * sy[i]
        g00 += a0 * a0
        g01 += a0 * a1
        g02 += a0
        g11 += a1 * a1
        g12 += a1
        h0 += a0 * f
        h1 += a1 * f
        h2 += f
    g22 = float(n)

    if g00 <= 0.0 or g11 <= 0.0:
        # a zero column: all sensors share one coordinate (collinear axis-aligned)
        return 0.0, 0.0, 0.0, 0.0, np.inf, SINGULAR
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
        cond = np.inf if not (lo > 0.0) else hi / lo
        return 0.0, 0.0, 0.0, 0.0, cond, SINGULAR
    cond = hi / lo

    c00 = 1.0 - t12 * t12
    c01 = t02 * t12 - t01
    c02 = t01 * t12 - t02
    c11 = 1.0 - t02 * t02
    c12 = t01 * t02 - t12
    c22 = 1.0 - t01 * t01
    det = c00 + t01 * c01 + t02 * c02
    if det <= 0.0:
        return 0.0, 0.0, 0.0, 0.0, np.inf, SINGULAR
    z0 = (c00 * u0 + c01 * u1 + c02 * u2) / det
    z1 = (c01 * u0 + c11 * u1 + c12 * u2) / det
    z2 = (c02 * u0 + c12 * u1 + c22 * u2) / det
    th0 = z0 / s0
    th1 = z1 / s1
    th2 = z2 / s2

    ss = 0.0
    for i in range(n):
        f = rbar[i] * rbar[i] - sx[i] * sx[i] - sy[i] * sy[i]
        e = -2.0 * sx[i] * th0 - 2.0 * sy[i] * th1 + th2 - f
        ss += e * e
    return th0, th1, th2, math.sqrt(ss), cond, OK


def system_rows(sx, sy, px, py, weight_mode):
    """Stage rows (p_hat - p_i), ranges from p_hat, and per-row weights.

    weight_mode: 0 uniform, 1 inverse range, 2 inverse squared range.
    Returns (bx, by, rhat, w, status).
    """
    n = sx.shape[0]
    bx = np.zeros(n)
    by = np.zeros(n)
    rhat = np.zeros(n)
    w = np.zeros(n)
    for i in range(n):
        dx = px - sx[i]
        dy = py - sy[i]
        r = math.sqrt(dx * dx + dy * dy)
        if r == 0.0:
            return bx, by, rhat, w, ZERO_RANGE
        bx[i] = dx
        by[i] = dy
        rhat[i] = r
        if weight_mode == WEIGHT_UNIFORM:
            w[i] = 1.0
        elif weight_mode == WEIGHT_INV_RANGE:
            w[i] = 1.0 / r
        else:
            w[i] = 1.0 / (r * r)
    return bx, by, rhat, w, OK


def wls_solve2(bx, by, rhs, w, cond_cap):
    """Minimizer of sum_i w_i (rhs_i - bx_i*x0 - by_i*x1)^2 via 2x2 normal equations.

    Returns (x0, x1, gram_cond, status).
    """
    n = bx.shape[0]
    g00 = 0.0
    g01 = 0.0
    g11 = 0.0
    h0 = 0.0
    h1 = 0.0
    for i in range(n):
        wi = w[i]
        g00 += wi * bx[i] * bx[i]
        g01 += wi * bx[i] * by[i]
        g11 += wi * by[i] * by[i]
        h0 += wi * bx[i] * rhs[i]
        h1 += wi * by[i] * rhs[i]
    tr = g00 + g11
    diff = g00 - g11
    disc = math.sqrt(diff * diff + 4.0 * g01 * g01)
    hi = 0.5 * (tr + disc)
    lo = 0.5 * (tr - disc)
    if not (lo > 0.0) or hi > lo * cond_cap:
        cond = np.inf if not (lo > 0.0) else hi / lo
        return 0.0, 0.0, cond, SINGULAR
    det = g00 * g11 - g01 * g01
    x0 = (g11 * h0 - g01 * h1) / det
    x1 = (g00 * h1 - g01 * h0) / det
    return x0, x1, hi / lo, OK
