"""Homotopy continuation, the linear BVP kernel, and its stability bound."""

import math

import numpy as np
import pytest

from conveyor import homotopy
from conveyor.errors import ContinuationStall, EmptyAudit, NoConvergence
from conveyor.homotopy import (
    BetaBoundReport,
    ContinuationTrace,
    beta_bound_check,
    continue_to_one,
    linear_bvp,
    piecewise_linear_l1,
    solve_at_lambda,
)
from conveyor.model import default_params


class TestSolveAtLambda:
    def test_pure_decay_has_origin(self, lorentzian_params):
        # at lam = 0 the problem is z' = -z: unique periodic solution z == 0
        for guess in (-2.0, 0.0, 3.0):
            z0, _, traj = solve_at_lambda(lorentzian_params, 0.0, guess)
            assert abs(z0) < 1e-12
            assert traj.sup_norm() < 1e-12

    def test_endpoint_matches_shooting(self, lorentzian_params, lorentzian_orbit):
        z0, _, _ = solve_at_lambda(lorentzian_params, 1.0, 0.5)
        assert abs(z0 - lorentzian_orbit.z_star) < 1e-8

    def test_midpoint_certified_and_continuous(self, lorentzian_params):
        z_half, _, traj = solve_at_lambda(lorentzian_params, 0.5, 0.2)
        assert abs(traj.knots[1][-1] - z_half) < 1e-9
        z_next, _, _ = solve_at_lambda(lorentzian_params, 0.501, z_half)
        assert abs(z_next - z_half) < 1e-2

    def test_lambda_range_checked(self, lorentzian_params):
        with pytest.raises(ValueError):
            solve_at_lambda(lorentzian_params, -0.1, 0.0)
        with pytest.raises(ValueError):
            solve_at_lambda(lorentzian_params, 1.1, 0.0)


class TestContinueToOne:
    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    def test_branch_reaches_one(self, kind):
        p = default_params(kind)
        trace = continue_to_one(p)
        assert trace.converged
        lams = [s.lambda_h for s in trace.steps]
        assert lams[0] == pytest.approx(0.01)
        assert lams[-1] == 1.0
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert len(trace.steps) <= 60
        assert all(s.residual < 1e-9 for s in trace.steps)

    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    def test_residual_is_the_returned_seam_gap(self, kind, monkeypatch):
        # each step's residual and sup-norm are read off the one tight run
        # over 2*pi/b that solve_at_lambda returns, with no second
        # integration: the residual is (1 + mu_h) times its seam gap
        solve, runs = homotopy.solve_at_lambda, []

        def spy(*args, **kwargs):
            z0, mu_h, traj = solve(*args, **kwargs)
            runs.append((mu_h, traj))
            return z0, mu_h, traj

        monkeypatch.setattr(homotopy, "solve_at_lambda", spy)
        p = default_params(kind)
        trace = continue_to_one(p)
        assert len(runs) == len(trace.steps)
        for s, (mu_h, traj) in zip(trace.steps, runs):
            assert traj.t1 == pytest.approx(0.5 * p.period, rel=1e-15)
            assert s.residual == (1.0 + mu_h) * abs(traj.interp(traj.t1) - s.z0)
            assert s.sup_norm == traj.sup_norm()

    def test_endpoint_equivalence(self, lorentzian_params, lorentzian_orbit,
                                  gaussian_params, gaussian_orbit):
        t_l = continue_to_one(lorentzian_params)
        assert abs(t_l.final.z0 - lorentzian_orbit.z_star) < 1e-8
        t_g = continue_to_one(gaussian_params)
        assert abs(t_g.final.z0 - gaussian_orbit.z_star) < 1e-8

    def test_reference_branch_bounded(self, lorentzian_params):
        trace = continue_to_one(lorentzian_params)
        rho = max(s.sup_norm for s in trace.steps)
        assert math.isfinite(rho)
        assert rho < 10.0
        # the family's amplitudes grow monotonically toward the full problem
        assert rho == pytest.approx(trace.final.sup_norm, rel=1e-6)

    def test_empty_trace_has_no_final(self):
        with pytest.raises(EmptyAudit):
            ContinuationTrace((), False).final

    def test_zero_drive_branch_is_origin(self):
        p = default_params("lorentzian", f0=0.0)
        trace = continue_to_one(p)
        assert trace.converged
        assert all(abs(s.z0) < 1e-12 for s in trace.steps)

    def test_driven_plane_fails_before_any_solve(self, monkeypatch):
        # a driven plane envelope has no periodic orbit at lambda = 1; the
        # branch used to creep toward it for ~370 steps before stalling
        solve, calls = homotopy.solve_at_lambda, []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(homotopy, "solve_at_lambda", counting)
        with pytest.raises(NoConvergence, match="plane drive has no periodic orbit"):
            continue_to_one(default_params("plane"))
        assert calls == []

    def test_undriven_plane_branch_is_origin(self):
        trace = continue_to_one(default_params("plane", f0=0.0))
        assert trace.converged
        assert len(trace.steps) == 12
        assert trace.final.lambda_h == 1.0
        assert all(s.z0 == 0.0 for s in trace.steps)

    def test_stall_reports_partial_trace(self, lorentzian_params, monkeypatch):
        real = homotopy.solve_at_lambda

        def flaky(p, lam, guess, cfg=None):
            if lam > 0.5:
                raise NoConvergence(50, 1.0)
            return real(p, lam, guess, cfg)

        monkeypatch.setattr(homotopy, "solve_at_lambda", flaky)
        with pytest.raises(ContinuationStall) as info:
            continue_to_one(lorentzian_params)
        trace = info.value.trace
        assert isinstance(trace, ContinuationTrace)
        assert not trace.converged
        assert trace.steps and trace.steps[-1].lambda_h <= 0.5


class TestLinearBvp:
    def test_zero_everything_gives_zero(self):
        t = np.linspace(0.0, 0.5, 64)
        y = linear_bvp(t, np.zeros_like(t), 0.0)
        assert np.abs(y).max() == 0.0

    def test_constant_source_steady_state(self):
        t = np.linspace(0.0, 0.5, 64)
        y = linear_bvp(t, np.full_like(t, 2.5), 0.0)
        assert np.abs(y - 2.5).max() < 1e-12

    def test_boundary_condition_exact(self):
        rng = np.random.default_rng(3)
        t = np.linspace(0.0, 0.12566370614359172, 512)
        for _ in range(20):
            q = rng.normal(size=t.size)
            c0 = float(rng.normal())
            y = linear_bvp(t, q, c0)
            assert abs((y[0] - y[-1]) - c0) < 1e-12

    def test_satisfies_the_ode(self):
        t = np.linspace(0.0, 0.5, 4001)
        q = np.cos(40.0 * t) + 0.3 * np.sin(7.0 * t)
        y = linear_bvp(t, q, 0.7)
        dy = np.gradient(y, t)
        resid = dy - (-y + q)
        assert np.abs(resid[5:-5]).max() < 1e-4 * np.abs(q).max()

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_bvp([0.0, 1.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            linear_bvp([0.1, 1.0], [1.0, 1.0], 0.0)
        with pytest.raises(ValueError):
            linear_bvp([0.0, 0.0], [1.0, 1.0], 0.0)
        # a non-finite input used to come back as nan or inf samples
        for t, q, c0 in [([0.0, math.inf], [1.0, 1.0], 0.0), ([0.0, 1.0], [1.0, math.nan], 0.0),
                         ([0.0, 1.0], [-math.inf, 1.0], 0.0), ([0.0, 1.0], [1.0, 1.0], math.inf),
                         ([0.0, 1.0], [1.0, 1.0], math.nan)]:
            with pytest.raises(ValueError, match="finite"):
                linear_bvp(t, q, c0)

    def test_bits_match_the_numpy_loop(self):
        # the loop linear_bvp ran before its recurrence moved onto lists,
        # kept verbatim as the reference; both share np.exp, whose last bit
        # depends on the CPU's SIMD path, so only a same-machine reference
        # can demand equal bits
        def numpy_loop(t, q, c0):
            conv = np.empty_like(q)
            conv[0] = 0.0
            acc = 0.0
            for j, h in enumerate(np.diff(t)):
                eh = math.exp(-h)
                slope = (q[j + 1] - q[j]) / h
                acc = acc * eh + q[j] * (-math.expm1(-h)) + slope * (h + math.expm1(-h))
                conv[j + 1] = acc
            T = float(t[-1])
            y_T = (math.exp(-T) * c0 + conv[-1]) / (-math.expm1(-T))
            return np.exp(-t) * (y_T + c0) + conv

        rng = np.random.default_rng(20260810)
        t = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, 511))])
        q = rng.normal(size=t.size)
        c0 = float(rng.normal())
        assert linear_bvp(t, q, c0).tobytes() == numpy_loop(t, q, c0).tobytes()


class TestBetaBound:
    def test_l1_norm_handles_sign_changes(self):
        t = np.array([0.0, 1.0, 2.0])
        q = np.array([1.0, -1.0, 1.0])  # two symmetric triangles per segment
        assert piecewise_linear_l1(t, q) == pytest.approx(1.0, rel=1e-12)

    def test_boundary_exactness_inside_audit_grid(self, lorentzian_params):
        T = lorentzian_params.period
        beta = 1.0 + 1.0 / (1.0 - math.exp(-T))
        # pure boundary jump: the analytic worst case gives ratio beta - 1
        t = np.linspace(0.0, T, 256)
        y = linear_bvp(t, np.zeros_like(t), 1.0)
        assert np.abs(y).max() == pytest.approx(beta - 1.0, rel=1e-12)

    def test_period_validated(self):
        # an infinite period used to fail the check with max_ratio nan
        for period in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="period"):
                beta_bound_check(period)

    def test_check_attains_the_sharp_constant(self, lorentzian_params):
        T = lorentzian_params.period
        report = beta_bound_check(T)
        assert isinstance(report, BetaBoundReport)
        assert report.passed is True
        assert report.n_cases == 13
        assert report.beta == 1.0 + 1.0 / (-math.expm1(-T))
        # the worst case is q = 0, c0 = 1, which attains 1/(1 - exp(-T))
        assert report.max_ratio == pytest.approx(1.0 / (1.0 - math.exp(-T)), rel=1e-12)
        assert report.max_ratio == pytest.approx(8.468216375029098, rel=1e-12)
        assert type(report.max_ratio) is float

    def test_check_fails_without_the_decay(self, lorentzian_params, monkeypatch):
        def no_decay(t, q, c0):
            conv, acc = [0.0], 0.0
            for j in range(len(t) - 1):
                h = t[j + 1] - t[j]
                em = math.expm1(-h)
                acc = acc + q[j] * -em + (q[j + 1] - q[j]) / h * (h + em)
                conv.append(acc)
            T = t[-1]
            return conv, (math.exp(-T) * c0 + acc) / (-math.expm1(-T)) + c0

        monkeypatch.setattr(homotopy, "_bvp_recurrence", no_decay)
        assert beta_bound_check(lorentzian_params.period).passed is False

    def test_check_fails_without_the_boundary_jump(self, lorentzian_params, monkeypatch):
        recurrence = homotopy._bvp_recurrence

        def periodic_only(t, q, c0):
            conv, y_0 = recurrence(t, q, c0)
            return conv, y_0 - c0  # y(0) = y(T) in place of y(0) - y(T) = c0

        monkeypatch.setattr(homotopy, "_bvp_recurrence", periodic_only)
        assert beta_bound_check(lorentzian_params.period).passed is False
