"""Closed-form plane-wave solution tests, cross-validated against the RK engine."""

import math

import numpy as np
import pytest

from conveyor.analytic import PlaneSolution, drift_velocity, plane_solution, taylor_small_f0
from conveyor.errors import WrongEnvelope
from conveyor.integrate import IntegratorConfig, integrate
from conveyor.model import DEGENERATE, OSCILLATORY, RECTILINEAR, default_params, force_closure

Z1500_REFERENCE = 8974.83648718715  # v_c * 1500 + locked phase offset
V_ASYM_B200 = 2.0415861476953083


def params_for(regime: str):
    p = default_params("plane")
    if regime == RECTILINEAR:
        return p  # b = 100 < 2 f0 k^2 = 111.73
    if regime == OSCILLATORY:
        return default_params("plane", b=200.0)
    return default_params("plane", b=2.0 * p.f0 * p.k * p.k)


class TestPlaneSolution:
    @pytest.mark.parametrize("regime", [RECTILINEAR, OSCILLATORY, DEGENERATE])
    @pytest.mark.parametrize("z_i", [0.0, 0.3, -1.7, 5.0, 123.456])
    def test_initial_condition_exact(self, regime, z_i):
        sol = PlaneSolution(z_i, params_for(regime))
        assert plane_solution(sol, 0.0) == pytest.approx(z_i, abs=1e-12)

    def test_regime_and_discriminant_consistent(self):
        for regime in (RECTILINEAR, OSCILLATORY, DEGENERATE):
            sol = PlaneSolution(0.0, params_for(regime))
            assert sol.regime == regime
            if regime == RECTILINEAR:
                assert sol.discriminant < 0.0
            elif regime == OSCILLATORY:
                assert sol.discriminant > 0.0
            else:
                assert abs(sol.discriminant) < 1e-6 * sol.params.b ** 2

    def test_wrong_envelope_rejected(self, lorentzian_params):
        with pytest.raises(WrongEnvelope):
            PlaneSolution(0.0, lorentzian_params)

    def test_reference_drift_value(self):
        # rectilinear limit: z(1500)/wavelength ~ 9000 (within 1 percent)
        sol = PlaneSolution(0.0, params_for(RECTILINEAR))
        z = plane_solution(sol, 1500.0)
        assert 8910.0 <= z <= 9090.0
        assert z == pytest.approx(Z1500_REFERENCE, rel=1e-12)

    @pytest.mark.parametrize("regime", [RECTILINEAR, OSCILLATORY, DEGENERATE])
    @pytest.mark.parametrize("z_i", [0.0, -1.7, 5.0])
    def test_cross_validates_against_integrator(self, regime, z_i):
        p = params_for(regime)
        sol = PlaneSolution(z_i, p)
        horizon = 10.0 * p.period
        traj = integrate(p, force_closure(p), z_i, 0.0, horizon)
        ts = np.linspace(0.0, horizon, 800)
        gap = max(abs(traj.interp(float(t)) - plane_solution(sol, float(t))) for t in ts)
        assert gap < 1e-6

    def test_oscillatory_long_horizon_branch_tracking(self):
        # ~2600 fringe slips by t = 100 s; a single branch slip would show as
        # an O(pi/k) jump.  The residual gap is RK error (neutral phase
        # direction accumulates ~linearly in t and scales with rtol).
        p = params_for(OSCILLATORY)
        sol = PlaneSolution(-0.7, p)
        cfg = IntegratorConfig(rtol=1e-12, atol=1e-14, max_step=p.period / 4.0)
        traj = integrate(p, force_closure(p), -0.7, 0.0, 100.0, cfg)
        ts = np.linspace(90.0, 100.0, 300)
        gap = max(abs(traj.interp(float(t)) - plane_solution(sol, float(t))) for t in ts)
        assert gap < 1e-5

    @pytest.mark.parametrize("regime", [RECTILINEAR, OSCILLATORY])
    def test_satisfies_the_ode(self, regime):
        # centered difference of z(t) against the plane force k f0 sin term
        p = params_for(regime)
        k, f0, b = p.k, p.f0, p.b
        sol = PlaneSolution(0.4, p)
        h = 1e-6
        for t in np.linspace(0.01, 2.0, 150):
            t = float(t)
            dz = (plane_solution(sol, t + h) - plane_solution(sol, t - h)) / (2.0 * h)
            z = plane_solution(sol, t)
            rhs = -k * f0 * math.sin(2.0 * k * z - b * t)
            assert dz == pytest.approx(rhs, rel=1e-6, abs=1e-4)

    @pytest.mark.parametrize("regime", [RECTILINEAR, OSCILLATORY, DEGENERATE])
    def test_continuity_across_branch_seams(self, regime):
        # |z'| <= k f0 < 7, so increments over h = 1e-6 stay below 10 h
        sol = PlaneSolution(0.2, params_for(regime))
        h = 1e-6
        for t in np.linspace(0.0, 3.0, 3000):
            t = float(t)
            assert abs(plane_solution(sol, t + h) - plane_solution(sol, t)) <= 10.0 * h + 1e-12

    def test_rectilinear_stays_near_drift_line(self):
        p = params_for(RECTILINEAR)
        v_c = p.b / (2.0 * p.k)
        sol = PlaneSolution(0.0, p)
        resid = [
            abs(plane_solution(sol, float(t)) - v_c * float(t))
            for t in np.linspace(0.0, 10.0, 2000)
        ]
        assert max(resid) < 1.0 / p.k  # bounded phase offset, under a radian of kz

    def test_rectilinear_mean_velocity_approaches_conveyor_speed(self):
        # mean velocity over [0, nT] tends to v_c with O(1/n) error
        p = params_for(RECTILINEAR)
        v_c = p.b / (2.0 * p.k)
        sol = PlaneSolution(0.0, p)
        errs = []
        for n in (10, 20, 40):
            t = n * p.period
            errs.append(abs(plane_solution(sol, t) / t - v_c))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)


class TestDriftVelocity:
    def test_reference_conveyor_speed(self, plane_params):
        v_c, v_asym = drift_velocity(plane_params)
        assert v_c == pytest.approx(5.9832685372892983, rel=1e-14)
        assert f"{v_c:.3g}" == "5.98"
        assert v_asym == v_c  # rectilinear: bounded oscillation absorbed

    def test_oscillatory_value_and_slope_fit(self):
        p = default_params("plane", b=200.0)
        v_c, v_asym = drift_velocity(p)
        assert v_asym == pytest.approx(V_ASYM_B200, rel=1e-12)
        # least-squares slope of the integrated path over 100 periods
        horizon = 100.0 * p.period
        traj = integrate(p, force_closure(p), 0.0, 0.0, horizon)
        ts = np.linspace(0.0, horizon, 4000)
        zs = np.array([traj.interp(float(t)) for t in ts])
        slope = np.polyfit(ts, zs, 1)[0]
        assert slope == pytest.approx(v_asym, rel=0.01)

    def test_vanishing_drive_limit(self):
        _, v_asym = drift_velocity(default_params("plane", b=200.0, f0=1e-8))
        assert abs(v_asym) < 1e-10

    def test_wrong_envelope(self, gaussian_params):
        with pytest.raises(WrongEnvelope):
            drift_velocity(gaussian_params)


class TestTaylorSmallF0:
    def test_zero_drive_returns_release_point(self, plane_params):
        p = default_params("plane", f0=0.0)
        assert taylor_small_f0(p, 0.7, 1.234) == 0.7

    def test_periodic_returns(self, plane_params):
        # the formula's own period is 2 pi / b
        for n in (1, 2, 5):
            t = 2.0 * math.pi * n / plane_params.b
            assert taylor_small_f0(plane_params, 0.3, t) == pytest.approx(0.3, abs=1e-12)

    def test_peak_to_peak_bound(self):
        p = default_params("plane", f0=1e-3)
        zs = [taylor_small_f0(p, 0.2, float(t)) for t in np.linspace(0, p.period, 1000)]
        assert max(zs) - min(zs) <= 2.0 * p.f0 * p.k / p.b + 1e-15


# each entry point names the argument that is not finite, or whose phase
# 2k*z_i, b*t or 2k*z_i - b*t overflows (the +-1e308 cases), instead of
# failing later as "cannot convert float NaN to integer", OverflowError or
# "math domain error", or returning inf or nan
@pytest.mark.parametrize("regime", [RECTILINEAR, OSCILLATORY, DEGENERATE])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e308, -1e308],
                         ids=["inf", "-inf", "nan", "1e308", "-1e308"])
@pytest.mark.parametrize("arg,call", [
    ("z_i", lambda p, v: PlaneSolution(v, p)),
    ("t", lambda p, v: plane_solution(PlaneSolution(0.2, p), v)),
    ("z_i", lambda p, v: taylor_small_f0(p, v, 1.0)),
    ("t", lambda p, v: taylor_small_f0(p, 0.2, v)),
], ids=["PlaneSolution-z_i", "plane_solution-t", "taylor_small_f0-z_i", "taylor_small_f0-t"])
def test_non_finite_input_rejected(regime, bad, arg, call):
    with pytest.raises(ValueError, match=f"^{arg} must be finite"):
        call(params_for(regime), bad)
