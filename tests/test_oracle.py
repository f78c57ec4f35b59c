import re

import numpy as np
import pytest

from kinloc.errors import SingularGeometry, ZeroRange
from kinloc.estim import solve_linear_stage, solve_shared_error_stage
from kinloc.model import TargetState, range_accel, range_rate
from kinloc.oracle import (FdConfig, dense_wls_solve, fd_range_accel,
                           fd_range_rate, verification_suite)


class TestFdRangeRate:
    def test_radial_case(self):
        t = TargetState((3.0, 4.0), (6.0, 8.0))
        assert fd_range_rate(t, (0.0, 0.0)) == pytest.approx(10.0, abs=1e-6)

    def test_static_target(self):
        t = TargetState((3.0, 4.0), (0.0, 0.0))
        assert fd_range_rate(t, (0.0, 0.0)) == 0.0

    def test_second_order_convergence(self):
        # truncation-dominated steps: halving h must shrink error ~4x
        t = TargetState((3.0, 4.0), (1.0, 1.0), (0.5, -0.3))
        exact = range_rate(t, (0.0, 0.0))
        err_h = abs(fd_range_rate(t, (0.0, 0.0), FdConfig(step=1e-3)) - exact)
        err_h2 = abs(fd_range_rate(t, (0.0, 0.0), FdConfig(step=5e-4)) - exact)
        assert err_h / err_h2 >= 3.5

    def test_zero_range_raises(self):
        with pytest.raises(ZeroRange):
            fd_range_rate(TargetState((0.0, 0.0), (1.0, 0.0)), (0.0, 0.0))

    def test_step_that_is_no_real_number_rejected(self):
        # True was a 1 s step; "0.1" failed in the range check with a bare '<' message
        for bad in (True, np.True_, "0.1", None):
            message = f"^step must be a real number, got {re.escape(repr(bad))}$"
            with pytest.raises(TypeError, match=message):
                FdConfig(step=bad)
        step = FdConfig(step=np.float32(0.5)).step
        assert step == 0.5 and type(step) is float


class TestFdRangeAccel:
    def test_circular_case(self):
        t = TargetState((5.0, 0.0), (0.0, 2.0), (-0.8, 0.0))
        assert fd_range_accel(t, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-5)

    def test_radial_case(self):
        t = TargetState((5.0, 0.0), (3.0, 0.0), (1.0, 0.0))
        assert fd_range_accel(t, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-5)

    def test_second_order_convergence(self):
        t = TargetState((5.0, 0.0), (0.0, 2.0), (0.3, 0.7))
        exact = range_accel(t, (0.0, 0.0))
        err_h = abs(fd_range_accel(t, (0.0, 0.0), FdConfig(step=1e-2)) - exact)
        err_h2 = abs(fd_range_accel(t, (0.0, 0.0), FdConfig(step=5e-3)) - exact)
        assert err_h / err_h2 >= 3.5

    def test_random_states_within_tolerance(self, rng):
        worst = 0.0
        for _ in range(1000):
            t = TargetState(rng.uniform(0, 100, 2), rng.uniform(-20, 20, 2),
                            rng.uniform(-10, 10, 2))
            sensor = rng.uniform(-100, 100, 2)
            if np.hypot(*(t.position - sensor)) < 15.0:
                continue
            dev = abs(fd_range_accel(t, sensor, FdConfig(step=1e-3))
                      - range_accel(t, sensor))
            worst = max(worst, dev)
        assert worst <= 1e-4


class TestDenseWlsSolve:
    def test_identity_rows(self):
        x = dense_wls_solve(np.eye(2), np.array([4.0, 7.0]), np.ones(2))
        np.testing.assert_allclose(x, [4.0, 7.0], rtol=0, atol=1e-12)

    def test_overdetermined_consistent(self, rng):
        rows = rng.normal(0, 10, (9, 3))
        x_true = rng.normal(0, 5, 3)
        x = dense_wls_solve(rows, rows @ x_true, rng.uniform(0.5, 2.0, 9))
        np.testing.assert_allclose(x, x_true, rtol=0, atol=1e-12 * 10)

    def test_rank_deficient_raises(self):
        rows = np.outer(np.arange(1.0, 5.0), [1.0, 2.0])
        with pytest.raises(SingularGeometry):
            dense_wls_solve(rows, np.ones(4), np.ones(4))

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            dense_wls_solve(np.eye(2), np.ones(2), np.array([1.0, 0.0]))

    def test_non_finite_input_rejected(self):
        # NaN weights reached LAPACK (LinAlgError after a DLASCL complaint), an
        # inf weight raised RuntimeWarning, and a NaN in rhs returned [nan, nan];
        # an integer past the float range raised a bare OverflowError
        rows, rhs, w = np.eye(3)[:, :2], np.ones(3), np.ones(3)
        for label, bad in (("weights", (rows, rhs, [1.0, np.nan, 1.0])),
                           ("weights", (rows, rhs, [1.0, np.inf, 1.0])),
                           ("rhs", (rows, [1.0, np.nan, 1.0], w)),
                           ("rows", (np.where(rows == 1.0, np.inf, rows), rhs, w)),
                           ("rows", ([[10 ** 400, 1.0], [0.0, 1.0]], [1.0, 2.0], [1.0, 1.0])),
                           ("rhs", (rows, [1.0, 10 ** 400, 1.0], w)),
                           ("weights", (rows, rhs, [1.0, 1.0, -10 ** 400]))):
            with pytest.raises(ValueError, match=f"^{label} must be finite$"):
                dense_wls_solve(*bad)

    # numpy broadcast each of these: an (N, 1) rhs gave a (2, N) "solution", a
    # length-1 or scalar rhs or weights was solved, a (1, 2) row with 3 weights
    # became 3 equal rows (SingularGeometry), and scalar weights raised IndexError
    @pytest.mark.parametrize("rows, rhs, weights, message", [
        (np.eye(3)[:, :2], np.ones((3, 1)), np.ones(3), "rhs must have shape (3,), got (3, 1)"),
        (np.eye(3)[:, :2], [1.0], np.ones(3), "rhs must have shape (3,), got (1,)"),
        (np.eye(3)[:, :2], 1.0, np.ones(3), "rhs must have shape (3,), got ()"),
        (np.eye(3)[:, :2], np.ones(3), [1.0], "weights must have shape (3,), got (1,)"),
        (np.eye(3)[:, :2], np.ones(3), 1.0, "weights must have shape (3,), got ()"),
        ([[1.0, 0.0]], [1.0], np.ones(3), "weights must have shape (1,), got (3,)"),
        (np.ones(3), np.ones(3), np.ones(3), "rows must have shape (N, M), got (3,)"),
    ], ids=["rhs-column", "rhs-length-1", "rhs-scalar", "weights-length-1", "weights-scalar",
            "one-row-three-weights", "rows-vector"])
    def test_mis_shaped_input_rejected(self, rows, rhs, weights, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dense_wls_solve(rows, rhs, weights)

    def test_cross_solver_agreement(self, rng):
        # the normal-equations production path vs the orthogonal-factorization
        # reference, on well-conditioned random stage systems
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(3, 12))
            rows = rng.normal(0, 40, (n, 2))
            rhs = rng.normal(0, 60, n)
            w = rng.uniform(0.2, 2.0, n)
            sq = np.sqrt(w)
            if np.linalg.cond(rows * sq[:, None]) > 1e3:
                continue
            ours = solve_linear_stage(rows, rhs, w).value
            ref = dense_wls_solve(rows, rhs, w)
            worst = max(worst, np.linalg.norm(ours - ref)
                        / max(1.0, np.linalg.norm(ref)))
        assert worst <= 1e-9

    def test_shared_error_solve_matches_augmented_system(self, rng):
        # GLS with covariance diag(D) + s2 * 1 1^T is WLS on the unknown (x, c):
        # rows [B_i, 1] of weight 1/D_i plus the prior row [0, 0, 1] = 0 of weight 1/s2
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(3, 12))
            p_hat = rng.uniform(0.0, 100.0, 2)
            rows = p_hat - rng.uniform(-100.0, 100.0, (n, 2))
            rhs = rows @ rng.uniform(-10.0, 10.0, 2) + rng.normal(0, 30, n)
            var = rng.uniform(0.1, 100.0, n)
            s2 = 10.0 ** rng.uniform(-3.0, 3.0)
            ours = solve_shared_error_stage(rows, rhs, var, s2).value
            aug = np.vstack((np.column_stack((rows, np.ones(n))), [0.0, 0.0, 1.0]))
            ref = dense_wls_solve(aug, np.append(rhs, 0.0), np.append(1.0 / var, 1.0 / s2))[:2]
            worst = max(worst, np.linalg.norm(ours - ref) / np.linalg.norm(ref))
        assert worst <= 1e-9


class TestVerificationSuite:
    def test_default_run_passes(self):
        report = verification_suite(instances=300, seed=11)
        assert report.all_passed
        names = [c.name for c in report.checks]
        assert len(names) == 3 and len(set(names)) == 3

    def test_instance_count_below_one_rejected(self):
        # zero instances compared nothing and reported three passing checks
        for bad in (0, -3):
            with pytest.raises(ValueError, match=f"^instances must be >= 1, got {bad}$"):
                verification_suite(instances=bad)
        for bad in (True, 2.0, "5"):
            with pytest.raises(TypeError, match="^instances must be an integer, got "):
                verification_suite(instances=bad)
        assert verification_suite(instances=np.int64(1)).all_passed

    def test_detects_wrong_derivative(self):
        def broken_accel(target, sensor_pos):
            return -range_accel(target, sensor_pos)

        report = verification_suite(instances=50, seed=11,
                                    range_accel_fn=broken_accel)
        assert not report.all_passed

    def test_detects_biased_rate(self):
        def biased_rate(target, sensor_pos):
            return range_rate(target, sensor_pos) + 1e-3

        report = verification_suite(instances=50, seed=11,
                                    range_rate_fn=biased_rate)
        assert not report.all_passed

    def test_detects_nan_rate(self):
        # max(0.0, nan) keeps 0.0; a NaN anywhere must fail the check, not pass it
        calls = []

        def nan_once(target, sensor_pos):
            calls.append(None)
            return float("nan") if len(calls) == 3 else range_rate(target, sensor_pos)

        report = verification_suite(instances=50, seed=11, range_rate_fn=nan_once)
        rate, accel, solver = report.checks
        assert np.isnan(rate.max_deviation) and not rate.passed
        assert accel.passed and solver.passed
        assert not report.all_passed
