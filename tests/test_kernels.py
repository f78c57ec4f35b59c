"""Solver kernels: correctness against numpy and the named errors they raise.

The kernels take lists of floats, as estim.py hands them over; the tests keep
numpy arrays for their references and pass ``.tolist()`` copies."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _wls_solve2_loop
from kinloc import _kernels as K
from kinloc.errors import DegenerateGeometry, SingularGeometry, ZeroRange
from kinloc.estim import PROPAGATED, UNIFORM, WeightRule, _velocity
from kinloc.model import MeasurementSet, NoiseSpec, SensorArray
from kinloc.oracle import dense_wls_solve

# off-diagonal Gram entry t01 of this layout squares to the smallest subnormal,
# so the eigenvalue spread p of the equilibrated 3x3 Gram matrix underflows to 0
UNDERFLOW_LAYOUT = np.array([(100.0, 0.0), (-100.0, 0.0), (0.0, 100.0), (0.0, -100.0),
                             (1.0, 2e-158), (-1.0, -2e-158)])


def _lists(*arrays):
    return [a.tolist() for a in arrays]


def _random_instance(rng, n=8):
    sx = rng.uniform(-100.0, 100.0, n)
    sy = rng.uniform(-100.0, 100.0, n)
    px, py = rng.uniform(0.0, 100.0, 2)
    rbar = np.hypot(px - sx, py - sy) + rng.normal(0.0, 1.0, n)
    return sx, sy, px, py, np.abs(rbar) + 1e-3


class TestPositionSolve:
    def test_noiseless_recovery(self, rng):
        for _ in range(50):
            sx, sy, px, py, _ = _random_instance(rng)
            r = np.hypot(px - sx, py - sy)
            x, y, theta3, resid, cond = K.position_solve(*_lists(sx, sy, r))
            assert (x, y) == pytest.approx((px, py), abs=1e-8)
            assert theta3 == pytest.approx(px * px + py * py, rel=1e-9)
            assert resid < 1e-7
            assert cond >= 1.0

    def test_matches_numpy_lstsq(self, rng):
        for _ in range(200):
            sx, sy, px, py, rbar = _random_instance(rng)
            x, y, theta3, resid, _ = K.position_solve(*_lists(sx, sy, rbar))
            a = np.column_stack([-2.0 * sx, -2.0 * sy, np.ones_like(sx)])
            f = rbar ** 2 - sx ** 2 - sy ** 2
            ref, *_ = np.linalg.lstsq(a, f, rcond=None)
            scale = max(1.0, np.abs(ref).max())
            assert np.allclose([x, y, theta3], ref, rtol=0, atol=1e-9 * scale)
            assert resid == pytest.approx(np.linalg.norm(a @ ref - f),
                                          rel=1e-6, abs=1e-9)

    def test_collinear_sensors_flagged_singular(self):
        with pytest.raises(DegenerateGeometry, match="gram condition inf"):
            K.position_solve([0.0, 50.0, 100.0], [0.0, 0.0, 0.0], [50.0, 10.0, 50.0])

    def test_cond_cap_triggers_singular(self, rng, monkeypatch):
        sx, sy, _, _, rbar = _random_instance(rng)
        monkeypatch.setattr(K, "COND_CAP", 1.0 + 1e-9)
        with pytest.raises(DegenerateGeometry, match="gram condition"):
            K.position_solve(*_lists(sx, sy, rbar))

    def test_overflowing_ranges_raise(self, rng):
        # ranges near 1e200 overflow when squared: a named error, not a NaN position
        sx, sy, *_ = _random_instance(rng)
        with pytest.raises(DegenerateGeometry, match="overflows"):
            K.position_solve(*_lists(sx, sy), [1e200] * 8)


def _single_pass_position(sx, sy, rbar):
    """``position_solve`` as one pass over sensors and ranges, with nothing
    cached: the reference its per-layout cache must match bit for bit."""
    g00 = g01 = g02 = g11 = g12 = h0 = h1 = h2 = 0.0
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
    s0, s1, s2 = math.sqrt(g00), math.sqrt(g11), math.sqrt(len(sx))
    t01, t02, t12 = g01 / (s0 * s1), g02 / (s0 * s2), g12 / (s1 * s2)
    u0, u1, u2 = h0 / s0, h1 / s1, h2 / s2
    hi, lo = K._sym3_eig_extremes(1.0, t01, t02, 1.0, t12, 1.0)
    c00 = 1.0 - t12 * t12
    c01 = t02 * t12 - t01
    c02 = t01 * t12 - t02
    c11 = 1.0 - t02 * t02
    c12 = t01 * t02 - t12
    c22 = 1.0 - t01 * t01
    det = c00 + t01 * c01 + t02 * c02
    th0 = (c00 * u0 + c01 * u1 + c02 * u2) / det / s0
    th1 = (c01 * u0 + c11 * u1 + c12 * u2) / det / s1
    th2 = (c02 * u0 + c12 * u1 + c22 * u2) / det / s2
    ss = 0.0
    for x, y, r in zip(sx, sy, rbar):
        e = -2.0 * x * th0 - 2.0 * y * th1 + th2 - (r * r - x * x - y * y)
        ss += e * e
    return th0, th1, th2, math.sqrt(ss), hi / lo


def _bits(values):
    return [float(v).hex() for v in values]


class TestLayoutCache:
    """``position_solve`` computes the sensor-only half once per layout."""

    def test_matches_single_pass_reference_bit_for_bit(self, rng):
        for _ in range(40):
            n = int(rng.integers(3, 65))
            layouts = [tuple(map(tuple, rng.uniform(-100.0, 100.0, (2, n)).tolist()))
                       for _ in range(2)]
            for k in range(6):          # alternate: a stale cache entry would show
                sx, sy = layouts[k % 2]
                px, py = rng.uniform(0.0, 100.0, 2)
                rbar = (np.hypot(px - np.array(sx), py - np.array(sy))
                        + rng.normal(0.0, 1.0, n)).tolist()
                got = K.position_solve(sx, sy, rbar)
                assert _bits(got) == _bits(_single_pass_position(sx, sy, rbar))
                # lists are read like the tuples SensorArray hands over
                assert _bits(K.position_solve(list(sx), list(sy), rbar)) == _bits(got)

    def test_degenerate_layouts_raise_on_every_call(self, rng):
        good = tuple(rng.uniform(-100.0, 100.0, 8).tolist()), tuple(
            rng.uniform(-100.0, 100.0, 8).tolist())
        axis = (0.0, 50.0, 100.0), (0.0, 0.0, 0.0)          # a zero column
        diagonal = (0.0, 50.0, 100.0), (0.0, 50.0, 100.0)   # rank 2 of 3
        for _ in range(3):
            for sx, sy in (axis, diagonal):
                with pytest.raises(DegenerateGeometry, match="rank-deficient"):
                    K.position_solve(sx, sy, [50.0, 10.0, 50.0])
            K.position_solve(*good, [50.0] * 8)

    def test_cond_cap_is_compared_on_every_call(self, rng, monkeypatch):
        sx, sy, _, _, rbar = _random_instance(rng)
        sx, sy, rbar = _lists(sx, sy, rbar)
        cond = K.position_solve(sx, sy, rbar)[-1]   # the layout is cached now
        monkeypatch.setattr(K, "COND_CAP", 1.0 + 1e-9)
        for _ in range(2):
            with pytest.raises(DegenerateGeometry, match=f"gram condition {cond:.3g}"):
                K.position_solve(sx, sy, rbar)
        monkeypatch.undo()
        assert K.position_solve(sx, sy, rbar)[-1] == cond


class TestSystemRows:
    def test_rows_and_ranges(self):
        bx, by, rhat = K.system_rows([1.0, 0.0], [0.0, 1.0], 0.0, 0.0)
        # rows are (p_hat - p_i): [[-1, 0], [0, -1]]
        assert (bx, by, rhat) == ([-1.0, 0.0], [0.0, -1.0], [1.0, 1.0])

    def test_weight_modes(self):
        # the weights each 1/r rule puts on a row come from the kernel's range:
        # every sensor here lies 5 from (3, 4); uniform hands on None,
        # normal_sums' unit weights
        sensors = SensorArray([(0.0, 0.0), (6.0, 8.0), (3.0, -1.0)])
        ms = MeasurementSet([1.0] * 3, [0.0] * 3, [0.0] * 3, NoiseSpec())
        assert _velocity(ms, sensors, 3.0, 4.0, UNIFORM)[1] is None
        for rule in (WeightRule(), PROPAGATED):
            w = _velocity(ms, sensors, 3.0, 4.0, rule)[1]
            assert w == pytest.approx([0.2] * 3, rel=1e-15)

    def test_zero_range_status(self):
        with pytest.raises(ZeroRange):
            K.system_rows([3.0], [4.0], 3.0, 4.0)

    def test_zero_range_on_last_sensor(self):
        with pytest.raises(ZeroRange):
            K.system_rows([0.0, 1.0, 3.0], [0.0, 1.0, 4.0], 3.0, 4.0)


class TestWlsSolve2:
    def test_exact_square_system(self):
        x0, x1, cond, *gram = _normal_solve([1.0, 0.0], [0.0, 1.0], [4.0, 7.0], [1.0, 1.0])
        assert (x0, x1) == (4.0, 7.0)
        assert cond == pytest.approx(1.0)
        assert gram == [1.0, 0.0, 1.0]

    def test_matches_weighted_lstsq(self, rng):
        for _ in range(200):
            n = rng.integers(3, 12)
            b = rng.normal(0, 50, (n, 2))
            rhs = rng.normal(0, 30, n)
            w = rng.uniform(0.1, 3.0, n)
            try:
                x0, x1, *_ = _normal_solve(*_lists(b[:, 0], b[:, 1], rhs, w))
            except SingularGeometry:
                continue
            sq = np.sqrt(w)
            ref, *_ = np.linalg.lstsq(b * sq[:, None], rhs * sq, rcond=None)
            assert np.allclose([x0, x1], ref, rtol=1e-9,
                               atol=1e-9 * max(1.0, np.abs(ref).max()))

    def test_parallel_rows_singular(self):
        col = [1.0, 2.0, 3.0]
        with pytest.raises(SingularGeometry, match="condition"):
            _normal_solve(col, col, col, [1.0] * 3)

    def test_overflowing_solution_singular(self):
        # a well-posed system whose exact solution, 2e308, is not a float
        with pytest.raises(SingularGeometry, match="overflows"):
            _normal_solve([0.5, 0.0], [0.0, 0.5], [1e308] * 2, [1.0] * 2)

    def test_determinant_underflow_singular(self):
        # a well-conditioned Gram matrix whose entries (1e-310) have a product
        # that underflows to 0: the named error, not a division by zero
        with pytest.raises(SingularGeometry, match="condition"):
            _normal_solve([1e-155, 0.0], [0.0, 1e-155], [1.0] * 2, [1.0] * 2)


def _normal_solve(bx, by, rhs, w, gram=None):
    """``wls_solve2(*normal_sums(...))`` with the Gram sums after the solution:
    the six floats of one solve on the rows, as ``_wls_solve2_loop`` returns them."""
    sums = K.normal_sums(bx, by, rhs, w, gram)
    return K.wls_solve2(*sums) + sums[:3]


def _outcome(fn, *args):
    """The hex bits of fn's floats, or its named error's class and message."""
    try:
        return _bits(fn(*args))
    except SingularGeometry as exc:
        return type(exc), str(exc)


def _near(k, signed=True):
    """Floats near 2^k: a mantissa in [-1, 1] (or [0, 1]) times 2^(k + 0..3)."""
    return st.builds(math.ldexp, st.floats(-1.0 if signed else 0.0, 1.0),
                     st.integers(k, k + 3))


@st.composite
def wide_rows(draw):
    """Rows, rhs and weights whose scales span 2^-360 to 2^386, so that
    products underflow to subnormals or overflow in some draws; the two
    columns share a scale (up to 2^6) so that most Gram matrices are
    well enough conditioned to solve."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(-360, 380))
    bx = draw(st.lists(_near(k + draw(st.integers(-3, 3))), min_size=n, max_size=n))
    by = draw(st.lists(_near(k + draw(st.integers(-3, 3))), min_size=n, max_size=n))
    rhs = draw(st.lists(_near(draw(st.integers(-360, 380))), min_size=n, max_size=n))
    w = draw(st.lists(_near(draw(st.integers(-360, 380)), signed=False),
                      min_size=n, max_size=n))
    return bx, by, rhs, w


@settings(max_examples=300, deadline=None)
@given(rows=wide_rows())
def test_wls_solve2_matches_its_loop_form_bit_for_bit(rows):
    assert _outcome(_normal_solve, *rows) == _outcome(_wls_solve2_loop, *rows)


def _gram_sums(bx, by, w):
    """The Gram sums of ``_wls_solve2_loop``, every product written out."""
    g00 = g01 = g11 = 0.0
    for x, y, wi in zip(bx, by, w):
        g00 += wi * x * x
        g01 += wi * x * y
        g11 += wi * y * y
    return g00, g01, g11


@settings(max_examples=300, deadline=None)
@given(rows=wide_rows())
def test_wls_solve2_given_its_own_gram_sums_is_unchanged(rows):
    # the six floats bit for bit, or the same SingularGeometry and message
    gram = _gram_sums(rows[0], rows[1], rows[3])
    given_gram = _outcome(lambda *a: _normal_solve(*a, gram=gram), *rows)
    assert given_gram == _outcome(_normal_solve, *rows)


# finite floats with signed zeros and subnormals, and values whose products
# are subnormal or underflow to a signed zero
_EDGE_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                         _near(-1060), _near(-520))


@settings(max_examples=300, deadline=None)
@given(columns=st.integers(1, 12).flatmap(
    lambda n: st.lists(st.lists(_EDGE_FLOATS, min_size=n, max_size=n), min_size=3, max_size=3)),
       gram=st.tuples(_EDGE_FLOATS, _EDGE_FLOATS, _EDGE_FLOATS))
def test_normal_sums_reads_no_weights_as_unit_weights_bit_for_bit(columns, gram):
    # the LS solves pass w=None: 1.0 * x is x exactly, so leaving the weight
    # out of the products moves no bit
    bx, by, rhs = columns
    ones = K.normal_sums(bx, by, rhs, [1.0] * len(rhs), gram)
    assert _bits(K.normal_sums(bx, by, rhs, None, gram)) == _bits(ones)


def _system_rows_comprehension(sx, sy, px, py):
    """``system_rows`` in its first form, one comprehension per output list:
    the reference its single loop must match bit for bit."""
    bx = [px - x for x in sx]
    by = [py - y for y in sy]
    rhat = [math.sqrt(dx * dx + dy * dy) for dx, dy in zip(bx, by)]
    if 0.0 in rhat:
        raise ZeroRange("estimated position coincides with a sensor")
    return bx, by, rhat


def _rows_outcome(sx, sy, px, py, fn):
    """The hex bits of fn's three lists, or its ZeroRange message."""
    try:
        return [_bits(column) for column in fn(sx, sy, px, py)]
    except ZeroRange as exc:
        return str(exc)


@st.composite
def wide_positions(draw):
    """Sensors and p_hat near one scale from 2^-540 to 2^515, so that dx * dx
    underflows to a subnormal or to 0 in some draws and overflows to inf in
    others; signed zeros anywhere, and in some draws a sensor at p_hat."""
    n = draw(st.integers(1, 12))
    # half the draws at the ends of the range, where the squares leave it
    k = draw(st.one_of(st.integers(-540, 512), st.integers(-540, -505), st.integers(480, 512)))
    near = _near(k + draw(st.integers(-3, 3)))
    coordinate = st.one_of(near, near, near, st.sampled_from([0.0, -0.0]))
    sx = draw(st.lists(coordinate, min_size=n, max_size=n))
    sy = draw(st.lists(coordinate, min_size=n, max_size=n))
    px, py = draw(coordinate), draw(coordinate)
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, n - 1))
        sx[i], sy[i] = px, py
    return sx, sy, px, py


@settings(max_examples=300, deadline=None)
@given(args=wide_positions())
@example(args=([0.0, 1.0], [2.0, 3.0], 0.0, 5.0))       # a sensor at px = 0.0
@example(args=([2.0, 3.0], [-0.0, 1.0], 5.0, -0.0))     # and at py = -0.0
@example(args=([1.0, 3.0], [2.0, 4.0], 3.0, 4.0))       # a sensor on p_hat
def test_system_rows_matches_its_comprehension_form_bit_for_bit(args):
    sx, sy, px, py = args
    want = _rows_outcome(*args, _system_rows_comprehension)
    assert _rows_outcome(*args, K.system_rows) == want
    # as tuples, the form SensorArray hands over, the second call is a memo
    # hit whenever the first was kept; ZeroRange must come on every call
    layout = tuple(sx), tuple(sy)
    for _ in range(2):
        assert _rows_outcome(*layout, px, py, K.system_rows) == want
    if px != 0.0 and py != 0.0 and not isinstance(want, str):
        assert K._rows_memo[0] is layout[0]
    # 0.0 == -0.0: the other signed zero must get its own bits
    flips = ([(-px, py)] if px == 0.0 else []) + ([(px, -py)] if py == 0.0 else [])
    for qx, qy in flips:
        assert (_rows_outcome(*layout, qx, qy, K.system_rows)
                == _rows_outcome(sx, sy, qx, qy, _system_rows_comprehension))


def _ring(n=64):
    angles = 2.0 * math.pi * np.arange(n) / n
    return 100.0 * np.cos(angles), 100.0 * np.sin(angles)


def _ring_tuples(n=64):
    """``_ring`` as the tuples of floats that SensorArray hands the kernels."""
    sx, sy = _ring(n)
    return tuple(sx.tolist()), tuple(sy.tolist())


class TestRowsMemo:
    """``system_rows`` serves a repeat call from copies of its last rows: no
    call may see another's state."""

    def test_mutating_returned_rows_leaves_the_next_hit_intact(self):
        sx, sy = _ring_tuples()
        want = _rows_outcome(sx, sy, 30.0, 40.0, _system_rows_comprehension)
        for _ in range(3):
            rows = K.system_rows(sx, sy, 30.0, 40.0)
            assert [_bits(column) for column in rows] == want
            assert K._rows_memo[0] is sx        # the next call is a hit
            for column in rows:
                column[0] = 1e300
                column.append(7.0)

    def test_list_layout_changed_in_place_gives_the_new_rows(self):
        sx, sy = (list(c) for c in _ring_tuples(8))
        for k in range(3):
            sx[k] += 0.5
            sy[-1] = -float(k)
            assert (_rows_outcome(sx, sy, 30.0, 40.0, K.system_rows)
                    == _rows_outcome(sx, sy, 30.0, 40.0, _system_rows_comprehension))

    def test_numpy_scalar_position_gets_the_types_of_a_fresh_call(self):
        sx, sy = _ring_tuples(8)
        calls = [(30.0, 40.0), (np.float64(30.0), np.float64(40.0)), (30.0, 40.0),
                 (30.0, np.float64(40.0))]
        for px, py in calls + calls[::-1]:
            got = K.system_rows(sx, sy, px, py)
            want = _system_rows_comprehension(sx, sy, px, py)
            assert [[type(v) for v in c] for c in got] == [[type(v) for v in c] for c in want]
            assert [_bits(c) for c in got] == [_bits(c) for c in want]

    def test_threads_with_their_own_layouts_get_their_own_rows(self):
        def run(layout, positions, errors):
            want = [_system_rows_comprehension(*layout, px, py) for px, py in positions]
            for _ in range(100):
                for (px, py), rows in zip(positions, want):
                    for _ in range(2):
                        if K.system_rows(*layout, px, py) != rows:
                            errors.append((layout[0][0], px, py))

        rng = np.random.default_rng(19)
        errors = []
        # more threads than the 2 cores of the benchmark VM
        threads = [threading.Thread(target=run, args=(
            _ring_tuples(n), [tuple(rng.uniform(-50.0, 50.0, 2).tolist()) for _ in range(5)],
            errors)) for n in (64, 8, 16, 3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # switch threads often, inside the kernel too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestSym3Eig:
    def test_against_numpy(self, rng):
        for _ in range(300):
            m = rng.normal(0, 10, (3, 3))
            g = m @ m.T            # symmetric PSD with spread eigenvalues
            hi, lo = K._sym3_eig_extremes(g[0, 0], g[0, 1], g[0, 2],
                                          g[1, 1], g[1, 2], g[2, 2])
            ev = np.linalg.eigvalsh(g)
            scale = max(1.0, abs(ev).max())
            assert hi == pytest.approx(ev[-1], rel=1e-9, abs=1e-9 * scale)
            assert lo == pytest.approx(ev[0], rel=1e-7, abs=1e-9 * scale)

    def test_diagonal_matrix(self):
        hi, lo = K._sym3_eig_extremes(3.0, 0.0, 0.0, 7.0, 0.0, 1.0)
        assert (hi, lo) == pytest.approx((7.0, 1.0), abs=1e-12)

    def test_spread_underflowing_to_zero(self):
        # p1 is the smallest subnormal, so p = sqrt(p2 / 6) is exactly 0
        assert K._sym3_eig_extremes(1.0, 2.3e-162, 0.0, 1.0, 0.0, 1.0) == (1.0, 1.0)
        sx, sy = UNDERFLOW_LAYOUT.T
        r = np.hypot(30.0 - sx, 40.0 - sy)
        x, y, *_, cond = K.position_solve(*_lists(sx, sy, r))
        assert (x, y) == pytest.approx((30.0, 40.0), abs=1e-9)
        assert cond == 1.0


def test_kernels_return_lists_of_floats(rng):
    # `type(...) is float`: a numpy float64 would pass an isinstance check
    sx, sy = _ring()
    sx, sy, rbar = _lists(sx, sy, np.hypot(30.0 - sx, 40.0 - sy) + rng.normal(0.0, 1.0, 64))
    for value in K.position_solve(sx, sy, rbar):
        assert type(value) is float
    rows = K.system_rows(sx, sy, 30.0, 40.0)
    for column in rows:
        assert type(column) is list and len(column) == 64
        assert all(type(value) is float for value in column)
    bx, by, rhat = rows
    for value in _normal_solve(bx, by, rbar, [1.0 / r for r in rhat]):
        assert type(value) is float


def test_kernels_agree_with_dense_oracle_on_64_ring(rng):
    sx, sy = _ring()
    for _ in range(20):
        px, py = rng.uniform(-50.0, 50.0, 2)
        rbar = np.hypot(px - sx, py - sy) + rng.normal(0.0, 1.0, 64)
        x, y, theta3, *_ = K.position_solve(*_lists(sx, sy, rbar))
        rows3 = np.column_stack((-2.0 * sx, -2.0 * sy, np.ones(64)))
        ref = dense_wls_solve(rows3, rbar ** 2 - sx ** 2 - sy ** 2, np.ones(64))
        np.testing.assert_allclose([x, y, theta3], ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())

        bx, by, rhat = K.system_rows(*_lists(sx, sy), x, y)
        rhs = rng.normal(0.0, 100.0, 64)
        w = rng.uniform(0.1, 3.0, 64) / rhat
        x0, x1, *_ = _normal_solve(bx, by, *_lists(rhs, w))
        ref = dense_wls_solve(np.column_stack((bx, by)), rhs, w)
        np.testing.assert_allclose([x0, x1], ref, rtol=0, atol=1e-12 * np.abs(ref).max())

