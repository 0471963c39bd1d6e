"""Homotopy continuation, the linear BVP kernel, and its stability bound."""

import math
import sys

import numpy as np
import pytest

from conveyor import homotopy, periodic
from conveyor.errors import ContinuationStall, NoConvergence
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
            o = solve_at_lambda(lorentzian_params, 0.0, guess)
            assert abs(o.z_star) < 1e-12
            assert o.trajectory.sup_norm() < 1e-12

    def test_endpoint_matches_shooting(self, lorentzian_params, lorentzian_orbit):
        o = solve_at_lambda(lorentzian_params, 1.0, 0.5)
        assert abs(o.z_star - lorentzian_orbit.z_star) < 1e-8

    def test_midpoint_certified_and_continuous(self, lorentzian_params):
        half = solve_at_lambda(lorentzian_params, 0.5, 0.2)
        assert abs(half.trajectory.knots[1][-1] - half.z_star) < 1e-9
        nxt = solve_at_lambda(lorentzian_params, 0.501, half.z_star)
        assert abs(nxt.z_star - half.z_star) < 1e-2

    def test_lambda_range_checked(self, lorentzian_params):
        with pytest.raises(ValueError):
            solve_at_lambda(lorentzian_params, -0.1, 0.0)
        with pytest.raises(ValueError):
            solve_at_lambda(lorentzian_params, 1.1, 0.0)

    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    def test_lambda_one_is_find_periodic(self, kind):
        # the blend -0 z + 1 F is F bit for bit, and at lambda = 1 the solve
        # runs through find_periodic's own lines
        p = default_params(kind)
        o, ref = solve_at_lambda(p, 1.0, 0.3), periodic.find_periodic(p, 0.3)
        assert (o.z_star, o.multiplier, o.residual, o.sup_norm) == (
            ref.z_star, ref.multiplier, ref.residual, ref.sup_norm)

    def test_undriven_endpoint_is_parked(self):
        # with f0 = 0 the lambda = 1 map is the identity: the step parks the
        # guess as find_periodic does, and the neutral rule never sees it
        o = solve_at_lambda(default_params("plane", f0=0.0), 1.0, 0.0)
        assert o.force_free and o.z_star == 0.0 and o.multiplier == 1.0


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
        # over 2*pi/b stored in the orbit solve_at_lambda returns, with no
        # second integration: the residual is (1 + mu_h) times its seam gap
        build, runs = periodic._build_orbit, []

        def spy(p, z_star, mu_h, *args, **kwargs):
            orbit = build(p, z_star, mu_h, *args, **kwargs)
            runs.append((mu_h, orbit.trajectory))
            return orbit

        monkeypatch.setattr(periodic, "_build_orbit", spy)
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
        y = np.asarray(linear_bvp(t, np.full_like(t, 2.5), 0.0))
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
        y = np.asarray(linear_bvp(t, q, 0.7))
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
        # the loop linear_bvp ran on numpy arrays, kept verbatim on lists of
        # floats with math.exp in place of np.exp as the reference
        def list_loop(t, q, c0):
            conv = [0.0] * len(q)
            acc = 0.0
            for j in range(len(t) - 1):
                h = t[j + 1] - t[j]
                eh = math.exp(-h)
                slope = (q[j + 1] - q[j]) / h
                acc = acc * eh + q[j] * (-math.expm1(-h)) + slope * (h + math.expm1(-h))
                conv[j + 1] = acc
            T = float(t[-1])
            y_T = (math.exp(-T) * c0 + conv[-1]) / (-math.expm1(-T))
            return [math.exp(-s) * (y_T + c0) + c for s, c in zip(t, conv)]

        rng = np.random.default_rng(20260810)
        t = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, 511))]).tolist()
        q = rng.normal(size=len(t)).tolist()
        c0 = float(rng.normal())
        y = linear_bvp(t, q, c0)
        assert type(y) is list and all(type(v) is float for v in y)
        assert np.array(y).tobytes() == np.array(list_loop(t, q, c0)).tobytes()


def public_beta_bound_check(period):
    """``beta_bound_check`` as it ran through the public, validating
    ``linear_bvp`` and ``piecewise_linear_l1`` on every case."""
    sharp = 1.0 / (-math.expm1(-period))
    beta = 1.0 + sharp
    n = homotopy._BVP_GRID
    step = period / (n - 1)
    ts = [j * step for j in range(n - 1)] + [period]
    w = 2.0 * math.pi / period
    cases = [([0.0] * n, 1.0, None), ([1.0] * n, 0.0, [1.0] * n)]
    cases += [([math.cos(m * w * t) for t in ts], 0.0, None) for m in range(1, 6)]
    cases += [([math.sin(m * w * t) for t in ts], 0.0, None) for m in range(1, 6)]
    cases.append((ts, -period, [t - 1.0 for t in ts]))
    ratios = []
    exact = True
    for q, c0, closed in cases:
        y = linear_bvp(ts, q, c0)
        ratios.append(max(abs(v) for v in y) / (abs(c0) + piecewise_linear_l1(ts, q)))
        if closed is not None:
            gap = max(abs(a - b) for a, b in zip(y, closed))
            exact = exact and gap <= 1e-12 * max(abs(v) for v in closed)
    passed = max(ratios) <= beta and abs(ratios[0] - sharp) <= 1e-12 * sharp and exact
    return BetaBoundReport(beta, max(ratios), len(cases), passed)


class TestBetaBound:
    def test_l1_norm_handles_sign_changes(self):
        t = np.array([0.0, 1.0, 2.0])
        q = np.array([1.0, -1.0, 1.0])  # two symmetric triangles per segment
        assert piecewise_linear_l1(t, q) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("t, q", [
        ([1.0, 0.0], [1.0, 1.0]),  # used to return -1.0, a negative norm
        ([0.0, math.nan], [1.0, 1.0]),  # used to return nan
        ([0.0, 1.0], [1.0]),  # used to raise IndexError
        ([0.0, 1.0], [1.0, 1.0, 5.0]),  # used to drop the third sample
        ([0.0], [3.0]),  # used to return 0.0
    ])
    def test_l1_norm_rejects_bad_samples(self, t, q):
        with pytest.raises(ValueError):
            piecewise_linear_l1(t, q)

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

    @pytest.mark.parametrize("b", [8e307, 5e307])
    def test_period_with_no_normal_grid_step_rejected(self, b):
        # at 8e307 the fifth harmonic's rate 10 pi / T overflowed and cos(inf)
        # raised; at 5e307 the grid step T / 511 was subnormal and a bound that
        # holds read as failed
        with pytest.raises(ValueError, match="normal grid step"):
            beta_bound_check(4.0 * math.pi / b)

    def test_shortest_period_with_a_normal_grid_step_runs(self):
        period = 511.0 * sys.float_info.min
        assert period / 511.0 == sys.float_info.min
        assert math.isfinite(beta_bound_check(period).max_ratio)
        with pytest.raises(ValueError, match="normal grid step"):
            beta_bound_check(math.nextafter(period, 0.0))

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

    @pytest.mark.parametrize("period", [4.0 * math.pi / 100.0, 4.0 * math.pi / 61.559,
                                        4.0 * math.pi / 94.705, 1e-3, 50.0])
    def test_grid_checked_once_with_the_same_report(self, monkeypatch, period):
        # the check builds a valid grid and calls the solver's core directly,
        # so it validates nothing per case, and reports what the public,
        # validating entry points would
        want = repr(public_beta_bound_check(period))
        checked = []
        samples = homotopy._samples
        monkeypatch.setattr(homotopy, "_samples", lambda t, q: checked.append(1) or samples(t, q))
        assert repr(beta_bound_check(period)) == want
        assert checked == []

    def test_check_fails_without_the_decay(self, lorentzian_params, monkeypatch):
        def no_decay(t, q, c0):
            conv, acc = [0.0], 0.0
            for j in range(len(t) - 1):
                h = t[j + 1] - t[j]
                em = math.expm1(-h)
                acc = acc + q[j] * -em + (q[j + 1] - q[j]) / h * (h + em)
                conv.append(acc)
            T = t[-1]
            y_0 = (math.exp(-T) * c0 + acc) / (-math.expm1(-T)) + c0
            return [math.exp(-s) * y_0 + c for s, c in zip(t, conv)]

        monkeypatch.setattr(homotopy, "_bvp", no_decay)
        assert beta_bound_check(lorentzian_params.period).passed is False

    def test_check_fails_without_the_boundary_jump(self, lorentzian_params, monkeypatch):
        solve = homotopy._bvp

        def periodic_only(t, q, c0):
            return solve(t, q, 0.0)  # y(0) = y(T) in place of y(0) - y(T) = c0

        monkeypatch.setattr(homotopy, "_bvp", periodic_only)
        assert beta_bound_check(lorentzian_params.period).passed is False
