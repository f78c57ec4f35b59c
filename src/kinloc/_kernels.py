"""Hot numeric kernels: the closed-form solves executed once per Monte Carlo trial.

The kernels take sequences of Python floats, return lists and floats, and
import no numpy.  Every reduction is an explicit loop over the sensors, in
index order, rather than np.sum/np.dot: numpy's pairwise summation rounds
differently, and the 17-digit sweep CSVs (and the golden files in the test
suite) depend on this fixed summation order.  Python floats round every
operation exactly as numpy scalars do, at a fraction of the per-operation
cost, but raise ZeroDivisionError where a numpy scalar returned inf or NaN,
so every denominator that can underflow to 0 is guarded; they overflow to inf
silently, so the solutions are checked to be finite.

Each kernel that walks the sensors does so once per call, in one ``for``
loop that forms every per-sensor value and appends it to its output list,
except where a pass needs the result of the one before (``position_solve``'s
residual needs the position).  One comprehension per output list would do
the same operations in the same order, but it walks the sensors once per
list, and before Python 3.12 (PEP 709) each comprehension runs as a function
call of its own, which at 8 sensors costs more than the loop body.  From 3.12
on, comprehensions are inlined, and the loop is a few percent faster at 8
sensors but up to 10% slower at 64 (BENCH_pr18.json).

A kernel that cannot solve raises the named error itself, never returns NaN:
``position_solve`` raises DegenerateGeometry and ``wls_solve2``
SingularGeometry (as when the Gram condition number exceeds ``COND_CAP``),
each with that number in its message, and ``system_rows`` raises ZeroRange.
The kernels know no weighting policy: estim.py turns a WeightRule into weights.
``wls_solve2`` solves from the five weighted sums of the normal equations and
walks no rows: a stage that already walks its rows (estim's velocity stage
and its propagated GLS centring) forms the sums in that loop, and the others
hand their lists to ``normal_sums``.  ``normal_sums`` returns the Gram sums
with the right-hand-side ones and takes them back, for a later solve on the
same rows and weights, which then forms only the right-hand-side sums.
``position_solve`` computes the half of its work that depends only on the
sensors once per layout and keeps it for the last 16 layouts.

``system_rows`` keeps the rows of its last call in a one-entry memo, and a
call with the same key returns fresh copies of them.  Each estimate asks for
the same rows six times, once in each velocity stage and twice in each
acceleration stage, because the stage functions take the position, not the
rows; the memo turns five of those builds into list copies.  A hit returns
what a build would, bit for bit and type for type, so the memo keeps a call
only when nothing about its key can change or compare equal with other
bits: the sensors are tuples, matched by identity (a list can change in
place), and px, py are non-zero Python floats (0.0 == -0.0, but the two
give different rows).  A ZeroRange call is never kept, so each such call
raises.  The memo is replaced by one assignment, so concurrent callers at
worst miss.  It is a bridge: once the stages take rows computed once per
estimate (ROADMAP item 4), it goes.
"""

import functools
import math

from .errors import DegenerateGeometry, SingularGeometry, ZeroRange

COND_CAP = 1e12

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


@functools.lru_cache(maxsize=16)
def _layout(sx, sy):
    """The part of ``position_solve`` that depends on the sensors alone.

    Returns the per-sensor columns (-2x, -2y, x*x, y*y), the column scales
    s0..s2, the extreme eigenvalues (hi, lo) of the equilibrated Gram matrix,
    its cofactors and its determinant, computed by the same operations in the
    same order as a single pass would.  Raises DegenerateGeometry for a zero
    column (not cached, so every call raises); the COND_CAP and determinant
    checks stay with the caller, which makes them on every call.
    """
    a0s = tuple(-2.0 * x for x in sx)
    a1s = tuple(-2.0 * y for y in sy)
    g00 = g01 = g02 = g11 = g12 = 0.0
    for a0, a1 in zip(a0s, a1s):
        g00 += a0 * a0
        g01 += a0 * a1
        g02 += a0
        g11 += a1 * a1
        g12 += a1
    g22 = float(len(sx))

    if g00 <= 0.0 or g11 <= 0.0:
        # a zero column: all sensors share one coordinate (collinear axis-aligned)
        raise DegenerateGeometry(_RANK_DEFICIENT.format(math.inf))
    s0, s1, s2 = math.sqrt(g00), math.sqrt(g11), math.sqrt(g22)
    t01 = g01 / (s0 * s1)
    t02 = g02 / (s0 * s2)
    t12 = g12 / (s1 * s2)
    hi, lo = _sym3_eig_extremes(1.0, t01, t02, 1.0, t12, 1.0)
    c00 = 1.0 - t12 * t12
    c01 = t02 * t12 - t01
    c02 = t01 * t12 - t02
    c11 = 1.0 - t02 * t02
    c12 = t01 * t02 - t12
    c22 = 1.0 - t01 * t01
    det = c00 + t01 * c01 + t02 * c02
    columns = (a0s, a1s, tuple(x * x for x in sx), tuple(y * y for y in sy))
    return columns, (s0, s1, s2), (hi, lo), (c00, c01, c02, c11, c12, c22), det


def position_solve(sx, sy, rbar):
    """Linearized trilateration from measured ranges.

    Rows [-2 x_i, -2 y_i, 1] against rhs rbar_i^2 - x_i^2 - y_i^2, solved via
    column-equilibrated normal equations.  Returns
    (x, y, theta3, residual_norm, gram_cond); raises DegenerateGeometry when
    the layout is rank-deficient, the condition number exceeds COND_CAP, or
    the position overflows.
    """
    (a0s, a1s, xxs, yys), (s0, s1, s2), (hi, lo), c, det = _layout(tuple(sx), tuple(sy))
    h0 = h1 = h2 = 0.0
    fs = []
    for a0, a1, xx, yy, r in zip(a0s, a1s, xxs, yys, rbar):
        f = r * r - xx - yy
        fs.append(f)
        h0 += a0 * f
        h1 += a1 * f
        h2 += f
    u0, u1, u2 = h0 / s0, h1 / s1, h2 / s2

    if not (lo > 0.0) or hi > lo * COND_CAP:
        raise DegenerateGeometry(_RANK_DEFICIENT.format(math.inf if not (lo > 0.0) else hi / lo))
    cond = hi / lo

    if det <= 0.0:
        raise DegenerateGeometry(_RANK_DEFICIENT.format(math.inf))
    c00, c01, c02, c11, c12, c22 = c
    z0 = (c00 * u0 + c01 * u1 + c02 * u2) / det
    z1 = (c01 * u0 + c11 * u1 + c12 * u2) / det
    z2 = (c02 * u0 + c12 * u1 + c22 * u2) / det
    th0, th1, th2 = z0 / s0, z1 / s1, z2 / s2
    if not (math.isfinite(th0) and math.isfinite(th1)):
        raise DegenerateGeometry(f"trilateration overflows (gram condition {cond:.3g})")

    ss = 0.0
    for a0, a1, f in zip(a0s, a1s, fs):
        # -2x*th0 - 2y*th1 rounds as a0*th0 + a1*th1: negation is exact
        e = a0 * th0 + a1 * th1 + th2 - f
        ss += e * e
    return th0, th1, th2, math.sqrt(ss), cond


# (sx, sy, px, py, bx, by, rhat) of the last rows system_rows stored; a NaN
# key equals nothing, so the first call misses
_rows_memo = (None, None, math.nan, math.nan, None, None, None)


def system_rows(sx, sy, px, py):
    """Stage rows (p_hat - p_i) and the ranges r_i = |p_hat - p_i|.

    Returns (bx, by, rhat) as fresh lists; raises ZeroRange when p_hat
    coincides with a sensor.  A call with the sensor tuples and the float
    position of the last stored call returns copies of its rows.
    """
    global _rows_memo
    memo = _rows_memo
    if (memo[0] is sx and memo[1] is sy and type(px) is float and type(py) is float
            and memo[2] == px and memo[3] == py):
        return memo[4][:], memo[5][:], memo[6][:]
    bx = []
    by = []
    rhat = []
    for x, y in zip(sx, sy):
        dx = px - x
        dy = py - y
        bx.append(dx)
        by.append(dy)
        rhat.append(math.sqrt(dx * dx + dy * dy))
    if 0.0 in rhat:
        raise ZeroRange("estimated position coincides with a sensor")
    # a tuple cannot change between calls, while a list can; 0.0 == -0.0,
    # but the two give different bits in bx or by
    if (type(sx) is tuple and type(sy) is tuple and type(px) is float
            and type(py) is float and px != 0.0 and py != 0.0):
        # one assignment: a concurrent call sees the old entry or the new one
        _rows_memo = (sx, sy, px, py, bx, by, rhat)
        return bx[:], by[:], rhat[:]
    return bx, by, rhat


def normal_sums(bx, by, rhs, w, gram=None):
    """The five sums of the 2x2 weighted normal equations of rows (bx_i, by_i).

    Returns (g00, g01, g11, h0, h1): the Gram sums sum_i w_i bx_i^2,
    w_i bx_i by_i and w_i by_i^2, and the right-hand-side sums
    sum_i w_i bx_i rhs_i and w_i by_i rhs_i, as ``wls_solve2`` takes them.
    ``gram`` is the three Gram sums of the same rows and weights, as an
    earlier call returned them: given it, the loop forms only the
    right-hand-side sums, with the same bits.  With ``gram``, ``w`` may be
    None for unit weights, as the LS solves pass it: 1.0 * x is x exactly,
    so the products leave the weight out and the bits are those of
    ``[1.0] * n``.
    """
    if gram is None:
        g00 = g01 = g11 = h0 = h1 = 0.0
        for x, y, r, wi in zip(bx, by, rhs, w):
            # Python evaluates wi * x * y as (wi * x) * y: forming wi * x once changes no bit
            wx = wi * x
            wy = wi * y
            g00 += wx * x
            g01 += wx * y
            g11 += wy * y
            h0 += wx * r
            h1 += wy * r
    else:
        g00, g01, g11 = gram
        h0 = h1 = 0.0
        if w is None:
            for x, y, r in zip(bx, by, rhs):
                h0 += x * r
                h1 += y * r
        else:
            for x, y, r, wi in zip(bx, by, rhs, w):
                h0 += wi * x * r
                h1 += wi * y * r
    return g00, g01, g11, h0, h1


def wls_solve2(g00, g01, g11, h0, h1):
    """Solution of the 2x2 normal equations [[g00, g01], [g01, g11]] x = (h0, h1).

    Returns (x0, x1, gram_cond); raises SingularGeometry when the Gram matrix
    is singular, its condition number exceeds COND_CAP, its determinant
    underflows to 0, or the solution overflows.
    """
    tr = g00 + g11
    diff = g00 - g11
    disc = math.sqrt(diff * diff + 4.0 * g01 * g01)
    hi = 0.5 * (tr + disc)
    lo = 0.5 * (tr - disc)
    det = g00 * g11 - g01 * g01
    if not (lo > 0.0) or hi > lo * COND_CAP or det <= 0.0:
        cond = math.inf if not (lo > 0.0) else hi / lo
        raise SingularGeometry(
            f"stage Gram matrix singular or ill-conditioned (condition {cond:.3g})")
    x0 = (g11 * h0 - g01 * h1) / det
    x1 = (g00 * h1 - g01 * h0) / det
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise SingularGeometry(f"stage solution overflows (condition {hi / lo:.3g})")
    return x0, x1, hi / lo
