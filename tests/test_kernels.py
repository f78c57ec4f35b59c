"""Solver kernels: correctness against numpy and the named errors they raise."""

import numpy as np
import pytest

from kinloc import _kernels as K
from kinloc.errors import DegenerateGeometry, SingularGeometry, ZeroRange
from kinloc.estim import PROPAGATED, UNIFORM, WeightRule, row_weights


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
            x, y, theta3, resid, cond = K.position_solve(sx, sy, r, K.COND_CAP_DEFAULT)
            assert (x, y) == pytest.approx((px, py), abs=1e-8)
            assert theta3 == pytest.approx(px * px + py * py, rel=1e-9)
            assert resid < 1e-7
            assert cond >= 1.0

    def test_matches_numpy_lstsq(self, rng):
        for _ in range(200):
            sx, sy, px, py, rbar = _random_instance(rng)
            x, y, theta3, resid, _ = K.position_solve(sx, sy, rbar, K.COND_CAP_DEFAULT)
            a = np.column_stack([-2.0 * sx, -2.0 * sy, np.ones_like(sx)])
            f = rbar ** 2 - sx ** 2 - sy ** 2
            ref, *_ = np.linalg.lstsq(a, f, rcond=None)
            scale = max(1.0, np.abs(ref).max())
            assert np.allclose([x, y, theta3], ref, rtol=0, atol=1e-9 * scale)
            assert resid == pytest.approx(np.linalg.norm(a @ ref - f),
                                          rel=1e-6, abs=1e-9)

    def test_collinear_sensors_flagged_singular(self):
        sx = np.array([0.0, 50.0, 100.0])
        sy = np.array([0.0, 0.0, 0.0])
        rbar = np.array([50.0, 10.0, 50.0])
        with pytest.raises(DegenerateGeometry, match="gram condition inf"):
            K.position_solve(sx, sy, rbar, K.COND_CAP_DEFAULT)

    def test_cond_cap_triggers_singular(self, rng):
        sx, sy, _, _, rbar = _random_instance(rng)
        with pytest.raises(DegenerateGeometry, match="gram condition"):
            K.position_solve(sx, sy, rbar, 1.0 + 1e-9)


class TestSystemRows:
    def test_rows_and_ranges(self):
        sx = np.array([1.0, 0.0])
        sy = np.array([0.0, 1.0])
        bx, by, rhat = K.system_rows(sx, sy, 0.0, 0.0)
        # rows are (p_hat - p_i): [[-1, 0], [0, -1]]
        np.testing.assert_array_equal(bx, [-1.0, 0.0])
        np.testing.assert_array_equal(by, [0.0, -1.0])
        np.testing.assert_array_equal(rhat, [1.0, 1.0])

    def test_weight_modes(self):
        # the weights each rule puts on a row come from the kernel's range
        sx, sy = np.array([0.0]), np.array([0.0])
        for rule, expect in [(UNIFORM, 1.0), (WeightRule(), 0.2), (PROPAGATED, 0.2)]:
            *_, rhat = K.system_rows(sx, sy, 3.0, 4.0)
            assert row_weights(rhat, rule)[0] == pytest.approx(expect, rel=1e-15)

    def test_zero_range_status(self):
        sx, sy = np.array([3.0]), np.array([4.0])
        with pytest.raises(ZeroRange):
            K.system_rows(sx, sy, 3.0, 4.0)


class TestWlsSolve2:
    def test_exact_square_system(self):
        bx = np.array([1.0, 0.0])
        by = np.array([0.0, 1.0])
        rhs = np.array([4.0, 7.0])
        w = np.ones(2)
        x0, x1, cond = K.wls_solve2(bx, by, rhs, w, K.COND_CAP_DEFAULT)
        assert (x0, x1) == (4.0, 7.0)
        assert cond == pytest.approx(1.0)

    def test_matches_weighted_lstsq(self, rng):
        for _ in range(200):
            n = rng.integers(3, 12)
            b = rng.normal(0, 50, (n, 2))
            rhs = rng.normal(0, 30, n)
            w = rng.uniform(0.1, 3.0, n)
            try:
                x0, x1, _ = K.wls_solve2(
                    np.ascontiguousarray(b[:, 0]), np.ascontiguousarray(b[:, 1]),
                    rhs, w, K.COND_CAP_DEFAULT)
            except SingularGeometry:
                continue
            sq = np.sqrt(w)
            ref, *_ = np.linalg.lstsq(b * sq[:, None], rhs * sq, rcond=None)
            assert np.allclose([x0, x1], ref, rtol=1e-9,
                               atol=1e-9 * max(1.0, np.abs(ref).max()))

    def test_parallel_rows_singular(self):
        bx = np.array([1.0, 2.0, 3.0])
        by = np.array([1.0, 2.0, 3.0])
        rhs = np.array([1.0, 2.0, 3.0])
        with pytest.raises(SingularGeometry, match="condition"):
            K.wls_solve2(bx, by, rhs, np.ones(3), K.COND_CAP_DEFAULT)


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

