"""Integrator tests: closed-form oracle, convergence, reversal, sensitivity."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conveyor
from conveyor.analytic import PlaneSolution, plane_solution, taylor_small_f0
from conveyor.errors import StepSizeUnderflow
from conveyor.integrate import (
    MAX_STEPS,
    IntegratorConfig,
    _half_map,
    flow_T,
    flow_T_with_sensitivity,
    integrate,
    propagate,
    tight_period,
)
from conveyor.model import default_params, force_closure, force_dz_closure
from tests.conftest import Z_STAR_LORENTZIAN


class TestConfig:
    def test_defaults_resolve_from_period(self):
        cfg = IntegratorConfig()
        rtol, atol, max_step, h0 = cfg.resolved(2.0)
        assert (rtol, atol) == (1e-10, 1e-12)
        assert max_step == pytest.approx(0.1)
        assert h0 == pytest.approx(0.002)

    def test_max_step_capped_at_quarter_period(self):
        with pytest.raises(ValueError):
            IntegratorConfig(max_step=0.6).resolved(2.0)
        IntegratorConfig(max_step=0.5).resolved(2.0)  # exactly period/4 is fine

    def test_initial_step_within_max(self):
        with pytest.raises(ValueError):
            IntegratorConfig(max_step=0.1, initial_step=0.2).resolved(2.0)

    def test_positive_tolerances(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(atol=-1e-12)

    def test_infinite_rtol_rejected(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=math.inf)
        with pytest.raises(ValueError):
            IntegratorConfig(atol=math.nan)


class TestIntegrate:
    def test_zero_drive_is_constant(self):
        p = default_params("plane", f0=0.0)
        traj = integrate(p, force_closure(p), 0.7, 0.0, 1.0)
        assert all(z == 0.7 for z in traj.states)
        assert traj.interp(0.4321) == 0.7

    def test_matches_plane_closed_form(self, plane_params):
        # closed-form oracle over 1.5 s at reference parameters
        sol = PlaneSolution(0.0, plane_params)
        traj = integrate(plane_params, force_closure(plane_params), 0.0, 0.0, 1.5)
        ts = np.linspace(0.0, 1.5, 1501)
        gap = max(abs(traj.interp(float(t)) - plane_solution(sol, float(t))) for t in ts)
        assert gap < 1e-6

    def test_weak_drive_matches_taylor_to_second_order(self):
        # error against the first-order formula must shrink ~4x per halving
        z_i = 0.2
        errs = []
        for f0 in (1e-3, 5e-4):
            p = default_params("plane", f0=f0)
            traj = integrate(p, force_closure(p), z_i, 0.0, p.period)
            ts = np.linspace(0.0, p.period, 400)
            errs.append(
                max(abs(traj.interp(float(t)) - taylor_small_f0(p, z_i, float(t))) for t in ts)
            )
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)

    def test_tolerance_convergence(self, plane_params):
        # a 5th-order pair gives global error ~ tol^(4/5): a single halving
        # yields ~1.74x, so the certification asserts >= 1.4x per halving and
        # >= 4x over three halvings (the controller earns its keep)
        sol = PlaneSolution(0.0, plane_params)
        rhs = force_closure(plane_params)
        ts = np.linspace(0.0, 1.5, 500)

        def sup_err(rtol):
            cfg = IntegratorConfig(rtol=rtol, atol=rtol * 1e-2)
            traj = integrate(plane_params, rhs, 0.0, 0.0, 1.5, cfg)
            return max(abs(traj.interp(float(t)) - plane_solution(sol, float(t))) for t in ts)

        errs = [sup_err(1e-6 * 0.5 ** i) for i in range(4)]
        for a, b in zip(errs, errs[1:]):
            assert a / b > 1.4
        assert errs[0] / errs[3] > 4.0

    def test_time_reversal(self, lorentzian_params):
        rhs = force_closure(lorentzian_params)
        z_i = 0.3
        z_fwd = propagate(lorentzian_params, rhs, z_i, 0.0, 1.5)
        z_back = propagate(lorentzian_params, rhs, z_fwd, 1.5, 0.0)
        assert abs(z_back - z_i) < 100.0 * (1e-10 * abs(z_i) + 1e-12)

    def test_dense_output_consistency(self, lorentzian_params):
        rhs = force_closure(lorentzian_params)
        traj = integrate(lorentzian_params, rhs, 0.3, 0.0, 1.5)
        t_mid = 0.7512345
        fresh = propagate(lorentzian_params, rhs, 0.3, 0.0, t_mid)
        budget = 10.0 * (1e-10 * abs(fresh) + 1e-12)
        assert abs(traj.interp(t_mid) - fresh) < budget

    def test_step_size_underflow_on_blowup(self, plane_params):
        # dz/dt = 1000 (1 + z^2) blows up at t = pi/2000 < 0.01
        with pytest.raises(StepSizeUnderflow):
            integrate(plane_params, lambda t, z: 1e3 * (1.0 + z * z), 0.0, 0.0, 0.01)

    def test_non_finite_state_rejected(self, lorentzian_params):
        p = lorentzian_params
        rhs = force_closure(p)
        with pytest.raises(ValueError):
            flow_T(p, math.nan)
        with pytest.raises(ValueError):
            flow_T_with_sensitivity(p, -math.inf)
        with pytest.raises(ValueError):
            integrate(p, rhs, math.nan, 0.0, 1.0)
        with pytest.raises(ValueError):
            propagate(p, rhs, math.inf, 0.0, 0.0)

    # k*z or b*t/2 overflows to inf, on which math.cos in the force would raise
    # a bare "math domain error"; the stepper's entry names the phase instead
    @pytest.mark.parametrize("call", [
        lambda p, rhs: integrate(p, rhs, 1e308, 0.0, 1.0),
        lambda p, rhs: propagate(p, rhs, 1e308, 0.0, 1.0),
        lambda p, rhs: propagate(p, rhs, 0.0, 0.0, 1e308),
        lambda p, rhs: flow_T(p, 1e308),
        lambda p, rhs: flow_T_with_sensitivity(p, -1e308),
        lambda p, rhs: tight_period(p, 1e308),
    ], ids=["integrate", "propagate", "propagate-end", "flow_T", "flow_T_with_sensitivity",
            "tight_period"])
    def test_unrepresentable_drive_phase_rejected(self, lorentzian_params, call):
        with pytest.raises(ValueError, match="drive phase"):
            call(lorentzian_params, force_closure(lorentzian_params))

    def test_empty_span_rejected(self, plane_params):
        with pytest.raises(ValueError):
            integrate(plane_params, force_closure(plane_params), 0.0, 1.0, 1.0)


class TestStepBudget:
    def test_span_fits_edge(self):
        cfg = IntegratorConfig()
        period = default_params("lorentzian").period
        edge = MAX_STEPS * period / 20.0
        assert cfg.span_fits(period, 0.0, edge) and cfg.span_fits(period, edge, 0.0)
        assert not cfg.span_fits(period, 0.0, 1.001 * edge)
        assert not cfg.span_fits(period, 1.001 * edge, 0.0)
        # a quarter-period ceiling stretches the same budget five times
        assert IntegratorConfig(max_step=period / 4.0).span_fits(period, 0.0, 4.0 * edge)

    def test_library_horizons_raise_at_once(self):
        # without the budget each call runs ~1.6e11 steps while its knots grow;
        # a subprocess with a timeout turns that hang into a failure
        script = (
            "from conveyor.integrate import integrate, propagate\n"
            "from conveyor.model import default_params, force_closure\n"
            "from conveyor.periodic import basin_probe\n"
            "p = default_params('lorentzian'); rhs = force_closure(p)\n"
            "for call in (lambda: integrate(p, rhs, 0.0, 0.0, 1e9),\n"
            "             lambda: propagate(p, rhs, 0.0, 0.0, 1e9),\n"
            "             lambda: basin_probe(p, [0.0], 1e9)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as exc:\n"
            "        assert 'steps' in str(exc), exc\n"
            "    else:\n"
            "        raise AssertionError('a 1e9 s horizon was accepted')\n"
        )
        src = str(Path(conveyor.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=10)


class TestTrajectory:
    def test_knot_interpolation_is_exact(self, lorentzian_params):
        traj = integrate(lorentzian_params, force_closure(lorentzian_params), 0.2, 0.0, 0.5)
        for j in (0, 7, len(traj.times) - 1):
            assert traj.interp(float(traj.times[j])) == float(traj.states[j])

    def test_samples_are_ordered_pairs(self, lorentzian_params):
        traj = integrate(lorentzian_params, force_closure(lorentzian_params), 0.2, 0.0, 0.5)
        s = traj.samples
        assert s.shape[1] == 2
        assert (np.diff(s[:, 0]) > 0).all()
        assert s[0, 0] == 0.0 and s[-1, 0] == 0.5

    def test_backward_run_normalised_ascending(self, lorentzian_params):
        rhs = force_closure(lorentzian_params)
        traj = integrate(lorentzian_params, rhs, 0.2, 0.5, 0.0)
        assert traj.t0 == 0.0 and traj.t1 == 0.5
        assert (np.diff(traj.times) > 0).all()
        # the value at the start of integration sits at the right end
        assert traj.interp(0.5) == 0.2
        # dense output agrees with the forward run through the same state
        fwd = integrate(lorentzian_params, rhs, traj.interp(0.0), 0.0, 0.5)
        for t in (0.1, 0.25, 0.4):
            assert traj.interp(t) == pytest.approx(fwd.interp(t), abs=1e-8)

    def test_array_getters_return_arrays(self, lorentzian_params):
        traj = integrate(lorentzian_params, force_closure(lorentzian_params), 0.2, 0.0, 0.5)
        n = len(traj.knots[0])
        for arr, shape in ((traj.times, (n,)), (traj.states, (n,)), (traj.samples, (n, 2)),
                           (traj.sample([0.1, 0.2, 0.3]), (3,))):
            assert isinstance(arr, np.ndarray)
            assert arr.dtype == np.float64 and arr.shape == shape

    def test_knots_are_fresh_float_lists(self, lorentzian_params):
        traj = integrate(lorentzian_params, force_closure(lorentzian_params), 0.2, 0.0, 0.5)
        kt, kz = traj.knots
        assert kt == traj.times.tolist() and kz == traj.states.tolist()
        kt.clear()
        assert len(traj.knots[0]) == len(kz) > 0

    @pytest.mark.parametrize("z_i, t0, t1", [(1, 0, 1), (np.float64(0.5), np.float64(0.0), 1),
                                             (np.int64(2), 1, np.float32(0.25))])
    def test_int_and_numpy_inputs_give_floats(self, lorentzian_params, z_i, t0, t1):
        traj = integrate(lorentzian_params, force_closure(lorentzian_params), z_i, t0, t1)
        for v in (traj.t0, traj.t1, traj.interp(float(t0)), traj.interp(float(t1)),
                  traj.sup_norm(), *traj.knots[0], *traj.knots[1]):
            assert type(v) is float

    def test_out_of_span_rejected(self, lorentzian_params):
        traj = integrate(lorentzian_params, force_closure(lorentzian_params), 0.2, 0.0, 0.5)
        with pytest.raises(ValueError):
            traj.interp(0.5001)
        with pytest.raises(ValueError):
            traj.interp(-0.1)
        with pytest.raises(ValueError, match="outside trajectory span"):
            traj.interp(math.nan)

    def test_sup_norm_sees_interior_peaks(self, plane_params):
        # z(t) = sin(10 t) via rhs = 10 cos(10 t): knots alone could miss the crest
        traj = integrate(plane_params, lambda t, z: 10.0 * math.cos(10.0 * t), 0.0, 0.0, 1.0)
        assert traj.sup_norm() == pytest.approx(1.0, abs=1e-4)


class TestPeriodMap:
    def test_zero_drive_identity(self):
        p = default_params("plane", f0=0.0)
        for z0 in (-2.0, 0.0, 0.37, 5.5):
            assert flow_T(p, z0) == z0
            assert flow_T_with_sensitivity(p, z0) == (z0, 1.0)

    @pytest.mark.parametrize("kind", ["plane", "lorentzian", "gaussian"])
    @pytest.mark.parametrize("f0", [0.8, 4.0])
    def test_sensitivity_pass_is_flow_T_and_increasing(self, kind, f0):
        # the log-multiplier is summed along the same steps, outside error
        # control; trajectories of a scalar ODE cannot cross, so P' > 0
        # even where strong drive contracts hard
        p = default_params(kind, f0=f0)
        for z0 in (-1.3, -0.5, 0.0, 0.2246, 0.6387, 2.5):
            z1, w = flow_T_with_sensitivity(p, z0)
            assert z1 == flow_T(p, z0)
            assert w > 0.0

    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    def test_overflowing_state_keeps_a_unit_multiplier(self, kind):
        # z*z overflows: the field and its z-derivative are 0 there, not NaN
        for z0 in (1e200, -1e200):
            assert flow_T_with_sensitivity(default_params(kind), z0) == (z0, 1.0)

    def test_fixed_point_anchor(self, lorentzian_params):
        # independently derived orbit point: P(z*) = z* within certification
        assert abs(flow_T(lorentzian_params, Z_STAR_LORENTZIAN) - Z_STAR_LORENTZIAN) < 1e-9

    def test_continuity_in_initial_condition(self, lorentzian_params):
        base = flow_T(lorentzian_params, 0.25)
        d4 = abs(flow_T(lorentzian_params, 0.25 + 1e-4) - base)
        d6 = abs(flow_T(lorentzian_params, 0.25 + 1e-6) - base)
        assert d6 < d4 < 1e-2
        assert d6 < 1e-4

    @pytest.mark.parametrize("kind,z0", [("lorentzian", 0.3), ("gaussian", 0.1), ("plane", 0.0)])
    def test_sensitivity_matches_finite_difference(self, kind, z0):
        p = default_params(kind)
        h = 1e-6
        _, w = flow_T_with_sensitivity(p, z0)
        fd = (flow_T(p, z0 + h) - flow_T(p, z0 - h)) / (2.0 * h)
        assert w == pytest.approx(fd, rel=1e-4)

    @pytest.mark.parametrize("kind,zs", [("lorentzian", np.linspace(-4.5, 4.5, 19)),
                                         ("gaussian", np.linspace(-1.0, 1.0, 21))])
    def test_two_half_maps_make_the_period_map(self, kind, zs):
        # F has period 2 pi / b, so P = P_h o P_h with both half maps run
        # from t = 0; the two sides differ by the integrator's error only
        p = default_params(kind)
        rhs = force_closure(p)
        for z0 in map(float, zs):
            twice = _half_map(p, _half_map(p, z0, None, rhs)[0], None, rhs)[0]
            assert twice == pytest.approx(flow_T(p, z0), abs=1e-9)

    def test_half_map_derivative_rides_along(self, lorentzian_params):
        # the derivative is summed on the same steps, so P_h is bitwise the
        # same with or without it; without it the slope reads 1.0
        p = lorentzian_params
        z1, w = _half_map(p, 0.3, None, force_closure(p))
        z1_sens, w_sens = _half_map(p, 0.3, None, force_closure(p), force_dz_closure(p))
        assert w == 1.0
        assert z1_sens == z1
        assert w_sens > 0.0 and w_sens != 1.0

    def test_weak_drive_sensitivity_near_unity(self):
        p = default_params("plane", f0=1e-3)
        _, w = flow_T_with_sensitivity(p, 0.2)
        assert abs(w - 1.0) < 10.0 * 1e-3
