"""Integrator tests: closed-form oracle, convergence, dense output, sensitivity."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conveyor
from conveyor import homotopy, periodic
from conveyor import integrate as integrate_module
from conveyor.analytic import PlaneSolution, plane_solution, taylor_small_f0
from conveyor.errors import StepSizeUnderflow
from conveyor.integrate import (
    MAX_STEPS,
    IntegratorConfig,
    Trajectory,
    _check_run,
    _half_map,
    _tight_config,
    integrate,
    propagate,
)
from conveyor.model import default_params, field, force_closure
from tests.conftest import Z_STAR_LORENTZIAN


def sensitivity_map(p, z0):
    """(P_h(z0), dP_h/dz0) of the force field: the map every solver builds."""
    return _half_map(p, z0, None, force_closure(p), field(p).force_and_dz)


def period_map(p, z0):
    """P(z0) over the full period 4 pi / b, on the plain force field."""
    return propagate(p, force_closure(p), z0, 0.0, p.period)


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

    @pytest.mark.parametrize("name", ["rtol", "atol"])
    def test_hundredth_must_be_a_positive_normal_double(self, name):
        # an orbit's stored run divides each tolerance by 100; a subnormal
        # hundredth lost its digits there, and 5e-324 became 0
        edge = 100.0 * sys.float_info.min
        assert getattr(_tight_config(IntegratorConfig(**{name: edge})), name) == sys.float_info.min
        for tol in (math.nextafter(edge, 0.0), 1e-307, 5e-324):
            with pytest.raises(ValueError, match="positive normal double"):
                IntegratorConfig(**{name: tol})

    def test_infinite_rtol_rejected(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=math.inf)
        with pytest.raises(ValueError):
            IntegratorConfig(atol=math.nan)


class TestIntegrate:
    def test_zero_drive_is_constant(self):
        p = default_params("plane", f0=0.0)
        traj = integrate(p, force_closure(p), 0.7, 0.0, 1.0)
        assert all(z == 0.7 for z in traj.knots[1])
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
            period_map(p, math.nan)
        with pytest.raises(ValueError):
            sensitivity_map(p, -math.inf)
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
        lambda p, rhs: period_map(p, 1e308),
        lambda p, rhs: sensitivity_map(p, -1e308),
        # the orbit's tight run over one period, which periodic._build_orbit makes
        lambda p, rhs: periodic._build_orbit(p, 1e308, 1.0, None, rhs),
    ], ids=["integrate", "propagate", "propagate-end", "period-map", "_half_map", "tight_period"])
    def test_unrepresentable_drive_phase_rejected(self, lorentzian_params, call):
        with pytest.raises(ValueError, match="drive phase"):
            call(lorentzian_params, force_closure(lorentzian_params))

    def test_empty_span_rejected(self, plane_params):
        for run in (integrate, propagate):
            with pytest.raises(ValueError, match="forward only"):
                run(plane_params, force_closure(plane_params), 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("run", [integrate, propagate])
    def test_backward_span_rejected(self, plane_params, run):
        with pytest.raises(ValueError, match="forward only"):
            run(plane_params, force_closure(plane_params), 0.2, 1.0, 0.5)


class TestStepBudget:
    def test_span_fits_edge(self):
        # the stepper's run check, which the command line applies at flag time
        cfg = IntegratorConfig()
        p = default_params("lorentzian")
        period = p.period
        edge = MAX_STEPS * period / 20.0
        assert _check_run(p, cfg, 0.0, 0.0, edge) == cfg.resolved(period)
        with pytest.raises(ValueError, match="forward only"):
            _check_run(p, cfg, 0.0, edge, 0.0)
        with pytest.raises(ValueError, match="steps"):
            _check_run(p, cfg, 0.0, 0.0, 1.001 * edge)
        # the budget is checked before the direction
        with pytest.raises(ValueError, match="steps"):
            _check_run(p, cfg, 0.0, 1.001 * edge, 0.0)
        # a quarter-period ceiling stretches the same budget five times
        assert _check_run(p, IntegratorConfig(max_step=period / 4.0), 0.0, 0.0, 4.0 * edge)

    def test_first_step_at_the_floor(self):
        # the run check and the stepper share one floor, so a first trial
        # step one ulp below it is rejected before the stepper would raise
        p, floor = default_params("lorentzian"), integrate_module._step_floor(0.0, 5.0)
        assert _check_run(p, IntegratorConfig(initial_step=floor), 0.5, 0.0, 5.0)
        with pytest.raises(ValueError, match="first trial step"):
            _check_run(p, IntegratorConfig(initial_step=math.nextafter(floor, 0.0)), 0.5, 0.0, 5.0)

    def test_overflowing_slope_is_infinite(self, lorentzian_params):
        # log w = 1e6 * 2*pi/b = 6.3e4 is beyond log(DBL_MAX) = 709.8, where
        # math.exp raises OverflowError
        z1, mu_h = _half_map(lorentzian_params, 0.25, None, lambda t, z: 0.0,
                             lambda t, z: (0.0, 1e6))
        assert (z1, mu_h) == (0.25, math.inf)

    def test_late_start_cannot_hang(self):
        # at t ~ 1e17 doubles are 16 s apart, so no step of the 6.3e-3 s
        # ceiling moves t; at 1e13 they are 2e-3 s apart, below the ceiling
        # but above the first trial step.  The run check rejects both, as the
        # stepper's floor would end the run at once.  Without it each call
        # loops without moving t; the timeout fails it
        script = (
            "from conveyor.integrate import propagate\n"
            "from conveyor.model import default_params, force_closure\n"
            "p = default_params('lorentzian'); rhs = force_closure(p)\n"
            "for t0, error, words in ((1e17, ValueError, 'first trial step'),\n"
            "                         (-1e17 - 100.0, ValueError, 'first trial step'),\n"
            "                         (1e13, ValueError, 'first trial step')):\n"
            "    try:\n"
            "        propagate(p, rhs, 0.0, t0, t0 + 100.0)\n"
            "    except error as exc:\n"
            "        assert words in str(exc), exc\n"
            "    else:\n"
            "        raise AssertionError(f'a start at t={t0} was accepted')\n"
        )
        src = str(Path(conveyor.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=10)

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
            "             lambda: basin_probe(p, [0.0], 1e9, [])):\n"
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
        kt, kz = traj.knots
        for j in (0, 7, len(kt) - 1):
            assert traj.interp(kt[j]) == kz[j]

    def test_samples_are_ordered_pairs(self, lorentzian_params):
        traj = integrate(lorentzian_params, force_closure(lorentzian_params), 0.2, 0.0, 0.5)
        kt, kz = traj.knots
        assert len(kt) == len(kz)
        assert all(a < b for a, b in zip(kt, kt[1:]))
        assert kt[0] == 0.0 and kt[-1] == 0.5

    def test_array_getters_return_arrays(self, lorentzian_params):
        traj = integrate(lorentzian_params, force_closure(lorentzian_params), 0.2, 0.0, 0.5)
        n = len(traj.knots[0])
        for arr, shape in ((traj.times, (n,)), (traj.sample([0.1, 0.2, 0.3]), (3,))):
            assert isinstance(arr, np.ndarray)
            assert arr.dtype == np.float64 and arr.shape == shape

    def test_knots_are_fresh_float_lists(self, lorentzian_params):
        traj = integrate(lorentzian_params, force_closure(lorentzian_params), 0.2, 0.0, 0.5)
        kt, kz = traj.knots
        assert kt == traj.times.tolist() and kz == [traj.interp(t) for t in kt]
        kt.clear()
        assert len(traj.knots[0]) == len(kz) > 0

    @pytest.mark.parametrize("z_i, t0, t1", [(1, 0, 1), (np.float64(0.5), np.float64(0.0), 1),
                                             (np.int64(2), 1, np.float32(1.25))])
    def test_int_and_numpy_inputs_give_floats(self, lorentzian_params, z_i, t0, t1):
        traj = integrate(lorentzian_params, force_closure(lorentzian_params), z_i, t0, t1)
        for v in (traj.knots[0][0], traj.t1, traj.interp(float(t0)), traj.interp(float(t1)),
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

    @pytest.mark.parametrize("t0,t1", [(0.0, 1.0), (0.5, 1.5)])
    def test_sup_norm_is_polished_to_the_crest(self, plane_params, t0, t1):
        # Newton on the crest's step leaves only the interpolation error, where
        # the equal-part samples alone sit up to ~1e-3 below it
        traj = integrate(plane_params, lambda t, z: 10.0 * math.cos(10.0 * t),
                         math.sin(10.0 * t0), t0, t1)
        assert traj.sup_norm() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("crest", [0.97, 1.03])
    def test_sup_norm_finds_a_crest_beside_the_largest_knot(self, plane_params, crest):
        # z = 1 - (t - crest)^2 on two steps with knots at 0, 1, 2: the knot at
        # t = 1 beats every equal-part sample, while the crest lies in one of
        # the two steps that knot bounds
        knots = [0.0, 1.0, 2.0]
        seg_h, seg_c = [], []
        for ta, tb in zip(knots, knots[1:]):
            h, d = tb - ta, ta - crest
            # c1 + th * (c2 + (1 - th) * c3) = 1 - (d + h th)^2
            seg_h.append(h)
            seg_c.append((1.0 - d * d, -2.0 * d * h - h * h, h * h, 0.0, 0.0))
        traj = Trajectory(plane_params, IntegratorConfig(), knots,
                          [1.0 - (t - crest) ** 2 for t in knots], seg_h, seg_c)
        assert traj.interp(crest) == pytest.approx(1.0, abs=1e-15)
        assert traj.sup_norm() == pytest.approx(1.0, abs=1e-15)

    def test_integral_exact_for_polynomials_in_t(self, lorentzian_params):
        # the 4-point Gauss-Legendre rule on each step has degree 7
        traj = integrate(lorentzian_params, force_closure(lorentzian_params), 0.2, 0.1, 0.6)
        for n in range(8):
            exact = (0.6 ** (n + 1) - 0.1 ** (n + 1)) / (n + 1)
            assert traj.integral(lambda t, z, n=n: (t ** n,)) == pytest.approx([exact], rel=1e-13)

    def test_integral_keeps_the_sign_of_zero(self, lorentzian_params):
        # verify's f0 = 0 report prints the sign of its zero identity sides
        traj = integrate(lorentzian_params, force_closure(lorentzian_params), 0.2, 0.0, 0.5)
        got = traj.integral(lambda t, z: (-0.0, 0.0))
        assert [math.copysign(1.0, v) for v in got] == [-1.0, 1.0]

    def test_integral_entries_are_independent(self, lorentzian_params):
        # one pass integrates each entry of the tuple exactly as a pass over
        # that entry alone
        p = lorentzian_params
        traj = integrate(p, force_closure(p), 0.2, 0.0, 0.5)
        force = force_closure(p)
        both = traj.integral(lambda t, z: (force(t, z), t * z))
        alone = [traj.integral(lambda t, z: (force(t, z),))[0],
                 traj.integral(lambda t, z: (t * z,))[0]]
        assert [v.hex() for v in both] == [v.hex() for v in alone]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_integral_of_non_finite_integrand(self, lorentzian_params, value):
        # a fixed rule: four calls on each step, whatever the integrand returns
        traj = integrate(lorentzian_params, force_closure(lorentzian_params), 0.2, 0.0, 0.5)
        calls = []
        [got] = traj.integral(lambda t, z: calls.append(t) or (value,))
        assert math.isnan(got) if math.isnan(value) else got == value
        assert len(calls) == 4 * (len(traj.knots[0]) - 1)


def unpruned_sup_norm(traj):
    """``Trajectory.sup_norm`` as it was before it skipped steps, verbatim."""
    seg_c, kz = traj._seg_c, traj._kz
    k = max(range(len(kz)), key=lambda i: abs(kz[i]))
    best, starts = abs(kz[k]), [(k, 0.0), (k - 1, 1.0)]
    for j, (c1, c2, c3, c4, c5) in enumerate(seg_c):
        for i in range(1, integrate_module._SUP_REFINE):
            th = i / integrate_module._SUP_REFINE
            th1 = 1.0 - th
            v = abs(c1 + th * (c2 + th1 * (c3 + th * (c4 + th1 * c5))))
            if v > best:
                best, starts = v, [(j, th)]
    for j, th in (s for s in starts if 0 <= s[0] < len(seg_c)):
        c1, c2, c3, c4, c5 = seg_c[j]
        a1, a2, a3 = c2 + c3, c4 + c5 - c3, -c4 - 2.0 * c5  # c1 + a1 th + ... + c5 th^4
        for _ in range(3):
            curv = 2.0 * a2 + th * (6.0 * a3 + 12.0 * c5 * th)
            slope = a1 + th * (2.0 * a2 + th * (3.0 * a3 + 4.0 * c5 * th))
            th = min(1.0, max(0.0, th - slope / curv)) if curv else th
        best = max(best, abs(c1 + th * (a1 + th * (a2 + th * (a3 + c5 * th)))))
    return best


class TestSupNormSkipsSteps:
    """``sup_norm`` skips a step whose coefficient sum |c1| + ... + |c5|, a
    bound on its quartic, is below the running maximum; the result must be
    bit for bit that of the scan over every step."""

    @staticmethod
    def assert_unpruned(traj):
        assert traj.sup_norm().hex() == unpruned_sup_norm(traj).hex()

    @pytest.mark.parametrize("orbit", ["lorentzian_orbit", "gaussian_orbit"])
    def test_reference_orbits(self, orbit, request):
        self.assert_unpruned(request.getfixturevalue(orbit).trajectory)

    def test_force_free_parked_orbit(self):
        orbit = periodic.find_periodic(default_params("lorentzian", f0=0.0), 0.3)
        assert orbit.force_free and set(orbit.trajectory.knots[1]) == {0.3}
        self.assert_unpruned(orbit.trajectory)

    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    def test_continuation_runs(self, monkeypatch, kind):
        runs = []
        sup_norm = Trajectory.sup_norm

        def spy(traj):
            runs.append(traj)
            return sup_norm(traj)

        monkeypatch.setattr(Trajectory, "sup_norm", spy)
        trace = homotopy.continue_to_one(default_params(kind))
        monkeypatch.undo()
        assert trace.converged and len(runs) == len(trace.steps)
        for traj in runs:
            self.assert_unpruned(traj)

    def test_crest_in_a_later_step(self, plane_params):
        # z = sin(10 t) climbs over several steps: each later step can beat
        # the running maximum, and the scan keeps every such step
        traj = integrate(plane_params, lambda t, z: 10.0 * math.cos(10.0 * t), 0.0, 0.0, 1.0)
        self.assert_unpruned(traj)

    @pytest.mark.parametrize("start,bulge,top", [(0.9, 0.4, 0.95), (0.9995, 0.004, 0.9999)])
    def test_crest_away_from_the_largest_knot(self, plane_params, start, bulge, top):
        # step 0 rises from ``start`` to start + bulge/4 at its middle and back;
        # the largest knot, ``top``, ends step 1, so only step 0's own samples
        # see the crest; its coefficient sum start + bulge lies above ``top``,
        # by 1e-2 relative or less in the second case
        knots, kz = [0.0, 1.0, 2.0, 3.0], [start, start, top, top]
        seg_c = [(start, 0.0, bulge, 0.0, 0.0), (start, top - start, 0.0, 0.0, 0.0),
                 (top, 0.0, 0.0, 0.0, 0.0)]
        traj = Trajectory(plane_params, IntegratorConfig(), knots, kz, [1.0, 1.0, 1.0], seg_c)
        assert traj.sup_norm() == pytest.approx(start + 0.25 * bulge, abs=1e-15)
        self.assert_unpruned(traj)


class TestPeriodMap:
    def test_zero_drive_identity(self):
        p = default_params("plane", f0=0.0)
        for z0 in (-2.0, 0.0, 0.37, 5.5):
            assert period_map(p, z0) == z0
            assert sensitivity_map(p, z0) == (z0, 1.0)

    @pytest.mark.parametrize("kind", ["plane", "lorentzian", "gaussian"])
    @pytest.mark.parametrize("f0", [0.8, 4.0])
    def test_sensitivity_pass_is_flow_T_and_increasing(self, kind, f0):
        # the log-multiplier is summed along the same steps, outside error
        # control; trajectories of a scalar ODE cannot cross, so P' > 0
        # even where strong drive contracts hard
        p = default_params(kind, f0=f0)
        for z0 in (-1.3, -0.5, 0.0, 0.2246, 0.6387, 2.5):
            z1, w = sensitivity_map(p, z0)
            assert z1 == _half_map(p, z0, None, force_closure(p))[0]
            assert w > 0.0

    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    def test_overflowing_state_keeps_a_unit_multiplier(self, kind):
        # z*z overflows: the field and its z-derivative are 0 there, not NaN
        for z0 in (1e200, -1e200):
            assert sensitivity_map(default_params(kind), z0) == (z0, 1.0)

    def test_fixed_point_anchor(self, lorentzian_params):
        # independently derived orbit point: P(z*) = z* within certification
        assert abs(period_map(lorentzian_params, Z_STAR_LORENTZIAN) - Z_STAR_LORENTZIAN) < 1e-9

    def test_continuity_in_initial_condition(self, lorentzian_params):
        base = period_map(lorentzian_params, 0.25)
        d4 = abs(period_map(lorentzian_params, 0.25 + 1e-4) - base)
        d6 = abs(period_map(lorentzian_params, 0.25 + 1e-6) - base)
        assert d6 < d4 < 1e-2
        assert d6 < 1e-4

    @pytest.mark.parametrize("kind,z0", [("lorentzian", 0.3), ("gaussian", 0.1), ("plane", 0.0)])
    def test_sensitivity_matches_finite_difference(self, kind, z0):
        p = default_params(kind)
        h = 1e-6
        rhs = force_closure(p)
        _, w = sensitivity_map(p, z0)
        fd = (_half_map(p, z0 + h, None, rhs)[0] - _half_map(p, z0 - h, None, rhs)[0]) / (2.0 * h)
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
            assert twice == pytest.approx(period_map(p, z0), abs=1e-9)

    def test_half_map_derivative_rides_along(self, lorentzian_params):
        # the derivative is summed on the same steps, so P_h is bitwise the
        # same with or without it; without it the slope reads 1.0
        p = lorentzian_params
        z1, w = _half_map(p, 0.3, None, force_closure(p))
        z1_sens, w_sens = _half_map(p, 0.3, None, force_closure(p), field(p).force_and_dz)
        assert w == 1.0
        assert z1_sens == z1
        assert w_sens > 0.0 and w_sens != 1.0

    def test_weak_drive_sensitivity_near_unity(self):
        p = default_params("plane", f0=1e-3)
        _, w = sensitivity_map(p, 0.2)
        assert abs(w - 1.0) < 10.0 * 1e-3
