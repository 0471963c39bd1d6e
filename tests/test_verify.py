"""Quadrature unit tests and integral-identity certificates on orbits."""

import math
import re

import pytest

from conveyor.errors import ConveyorError
from conveyor.integrate import _half_map, flow_T, integrate
from conveyor.model import (
    ConveyorParams,
    EnvelopeSpec,
    default_params,
    field,
    force_closure,
    force_dz_closure,
)
from conveyor.periodic import PeriodicOrbit, find_periodic
from conveyor.verify import (
    _force_squared_integral,
    fixed_point_scan,
    gauss_lobatto,
    identity_energy,
    identity_force,
    multiplier_cross_check,
)


class TestGaussLobatto:
    def test_polynomials_exact(self):
        # the 7-point extension has degree 9
        for n in range(10):
            got = gauss_lobatto(lambda x, n=n: x ** n, 0.0, 1.0)
            assert got == pytest.approx(1.0 / (n + 1), rel=1e-13)

    def test_sine_reference(self):
        assert gauss_lobatto(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)

    def test_oscillatory_with_tolerance(self):
        got = gauss_lobatto(lambda t: math.cos(100.0 * t), 0.0, 1.0)
        assert got == pytest.approx(math.sin(100.0) / 100.0, abs=1e-10)

    def test_empty_interval(self):
        assert gauss_lobatto(math.sin, 1.0, 1.0) == 0.0

    @pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan),
                                     (math.nan, 1.0), (math.inf, math.inf), (-1e308, 1e308)])
    def test_non_finite_bounds_rejected(self, a, b):
        with pytest.raises(ValueError, match="finite bounds"):
            gauss_lobatto(_capped(math.sin), a, b)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_returns_at_once(self, value):
        # an estimate that is not finite used to be bisected to depth 48
        # everywhere, about 2**48 intervals
        fn = _capped(lambda t: value)
        assert not math.isfinite(gauss_lobatto(fn, 0.0, 1.0))
        assert fn.calls == 7


def _capped(fn):
    """fn, raising after 1,000 calls, so that a quadrature that keeps
    bisecting fails instead of hanging."""
    def capped(t):
        capped.calls += 1
        if capped.calls > 1000:
            raise RuntimeError("gauss_lobatto kept bisecting a non-finite estimate")
        return fn(t)

    capped.calls = 0
    return capped


class TestIdentities:
    def test_energy_identity_lorentzian(self, lorentzian_orbit):
        res = identity_energy(lorentzian_orbit)
        assert res.lhs > 1e-12  # non-degenerate orbit moves
        assert res.rel_residual < 1e-6

    def test_energy_identity_gaussian(self, gaussian_orbit):
        res = identity_energy(gaussian_orbit)
        assert res.lhs > 1e-12
        assert res.rel_residual < 1e-6

    def test_force_identity_lorentzian(self, lorentzian_orbit):
        res = identity_force(lorentzian_orbit)
        assert res.rel_residual < 1e-6
        assert res.rhs > 0.0  # the orbit sits where f' < 0 on average

    def test_force_identity_gaussian(self, gaussian_orbit):
        res = identity_force(gaussian_orbit)
        assert res.rel_residual < 1e-6
        assert res.rhs > 0.0

    def test_orbit_average_slope_is_negative(self, lorentzian_params, lorentzian_orbit):
        # the positive right side of the force identity means the weighted
        # envelope slope integral is negative along the orbit's stored run
        envelope = field(lorentzian_params).envelope
        traj = lorentzian_orbit.trajectory
        k, b = lorentzian_params.k, lorentzian_params.b
        val = gauss_lobatto(
            lambda t: math.cos(k * traj.interp(t) - 0.5 * b * t) ** 2
            * envelope(traj.interp(t))[1],
            traj.t0,
            traj.t1,
        )
        assert val < 0.0

    def test_zero_drive_orbit_is_degenerate(self):
        p = default_params("plane", f0=0.0)
        orbit = find_periodic(p, 0.3)
        res = identity_energy(orbit)
        assert res.lhs == 0.0 and res.rhs == 0.0 and res.rel_residual == 0.0
        res = identity_force(orbit)
        assert res.lhs == 0.0 and res.rhs == 0.0 and res.rel_residual == 0.0

    @pytest.mark.parametrize("orbit", ["lorentzian_orbit", "gaussian_orbit"])
    def test_both_identities_share_one_left_side(self, orbit, request):
        o = request.getfixturevalue(orbit)
        traj = o.trajectory
        rhs = force_closure(traj.params)
        direct = gauss_lobatto(lambda t: rhs(t, traj.interp(t)) ** 2, traj.t0, traj.t1)
        assert identity_energy(o).lhs == identity_force(o).lhs == direct

    def test_interleaved_orbits_give_fresh_values(self, lorentzian_orbit, gaussian_orbit):
        a, b = lorentzian_orbit, gaussian_orbit
        calls = [(identity_force, a), (identity_energy, b), (identity_energy, a)]
        fresh = []
        for fn, o in calls:
            _force_squared_integral.cache_clear()
            fresh.append(fn(o))
        _force_squared_integral.cache_clear()
        assert [fn(o) for fn, o in calls] == fresh

    def test_uncertified_orbit_rejected(self, lorentzian_orbit):
        import dataclasses

        bad = dataclasses.replace(lorentzian_orbit, residual=1e-3)
        with pytest.raises(ConveyorError):
            identity_energy(bad)

    def test_residuals_scale_with_certification(self, lorentzian_params, lorentzian_orbit):
        # perturbing the initial point by eps gives a pseudo-orbit whose
        # identity residual must shrink linearly (or better) with eps
        p = lorentzian_params
        z_star = lorentzian_orbit.z_star
        rels = []
        for eps in (2e-5, 2e-6, 2e-7):
            z0 = z_star + eps
            traj = integrate(p, force_closure(p), z0, 0.0, p.period)
            residual = abs(traj.interp(traj.t1) - z0)
            pseudo = PeriodicOrbit(
                z_star=z0,
                period=p.period,
                multiplier=lorentzian_orbit.multiplier,
                residual=residual,
                sup_norm=traj.sup_norm(),
                trajectory=traj,
            )
            rels.append(identity_energy(pseudo).rel_residual)
        assert rels[0] / rels[1] > 5.0
        assert rels[1] / rels[2] > 5.0


class TestFixedPointScan:
    @pytest.mark.parametrize("kind", ["plane", "lorentzian", "gaussian"])
    def test_wide_grids_are_empty(self, kind):
        p = default_params(kind)
        assert fixed_point_scan(p, -100.0, 100.0, 1001) == []

    @pytest.mark.parametrize("kind", ["plane", "lorentzian", "gaussian"])
    def test_drive_free_flags_every_point(self, kind):
        # with f0 = 0 every point is at rest: P(z) - z is exactly 0
        p = default_params(kind, f0=0.0)
        assert flow_T(p, 0.5) == 0.5
        grid = [-25.0 + 50.0 * i / 1000 for i in range(1001)]
        assert fixed_point_scan(p, -25.0, 25.0, 1001) == grid

    def test_gaussian_underflow_region_excluded(self, gaussian_params):
        # |z| <= 25 spans deep underflow for z0 = 0.37, still no flags
        assert fixed_point_scan(gaussian_params, -25.0, 25.0, 2001) == []

    def test_validation(self, gaussian_params):
        with pytest.raises(ValueError):
            fixed_point_scan(gaussian_params, 1.0, -1.0, 11)
        with pytest.raises(ValueError):
            fixed_point_scan(gaussian_params, -1.0, 1.0, 1)

    @pytest.mark.parametrize("z_lo,z_hi", [(-1.0, math.inf), (-math.inf, 1.0),
                                           (math.nan, 1.0), (-1.0, math.nan),
                                           (-1e308, 1e308), (-5e307, 5e307)])
    def test_non_finite_window_rejected(self, gaussian_params, z_lo, z_hi):
        # an infinite end, or a width whose grid offsets (z_hi - z_lo) * i
        # overflow, would put "rest points" at inf or nan on the grid
        with pytest.raises(ValueError, match=r"finite window.*\[" + re.escape(f"{z_lo!r}, {z_hi!r}")):
            fixed_point_scan(gaussian_params, z_lo, z_hi, 5)

    def test_window_checked_before_f0(self):
        # with f0 = 0 the scan returns its grid, which must not hold inf or nan
        p = default_params("gaussian", f0=0.0)
        for z_lo, z_hi, n in ((-1e308, 1e308, 3), (-5e307, 5e307, 3), (-1.0, math.inf, 5)):
            with pytest.raises(ValueError, match="finite window"):
                fixed_point_scan(p, z_lo, z_hi, n)
        with pytest.raises(ValueError, match="grid points"):
            fixed_point_scan(p, -1.0, 1.0, 1)


class TestMultiplierCrossCheck:
    def test_lorentzian(self, lorentzian_params, lorentzian_orbit):
        chk = multiplier_cross_check(lorentzian_params, lorentzian_orbit)
        assert chk.rel_error < 1e-4
        assert chk.variational == lorentzian_orbit.multiplier

    def test_gaussian(self, gaussian_params, gaussian_orbit):
        chk = multiplier_cross_check(gaussian_params, gaussian_orbit)
        assert chk.rel_error < 1e-4

    def test_default_step_clears_integrator_noise(self):
        # ~1e-10 of noise in P divided by a step of 1e-6 reads 3e-4 on this
        # correct orbit, above the battery's 1e-4 pass mark
        p = ConveyorParams(0.7804996596207963, 91.93408187863491, 2.66 * math.pi,
                           EnvelopeSpec("gaussian", 0.4074262440839057))
        orbit = find_periodic(p, 0.0)
        assert multiplier_cross_check(p, orbit).rel_error < 1e-5


class TestAgainstIndependentIntegrator:
    """Cross-checks with scipy's Dormand-Prince implementation."""

    scipy_integrate = pytest.importorskip("scipy.integrate")

    def test_period_map_matches_scipy(self, lorentzian_params):
        p = lorentzian_params
        rhs = force_closure(p)
        sol = self.scipy_integrate.solve_ivp(
            lambda t, y: [rhs(t, y[0])],
            (0.0, p.period),
            [0.3],
            rtol=1e-12,
            atol=1e-14,
            max_step=p.period / 4.0,
        )
        assert flow_T(p, 0.3) == pytest.approx(sol.y[0, -1], abs=1e-9)

    def test_sensitivity_matches_scipy_fd(self, gaussian_params):
        # the solvers' map: P_h over the drive's minimal period 2 pi / b
        p = gaussian_params
        rhs = force_closure(p)
        _, w = _half_map(p, 0.1, None, rhs, force_dz_closure(p))

        def final(z0):
            sol = self.scipy_integrate.solve_ivp(
                lambda t, y: [rhs(t, y[0])],
                (0.0, p.period / 2),
                [z0],
                rtol=1e-12,
                atol=1e-14,
                max_step=p.period / 4.0,
            )
            return sol.y[0, -1]

        fd = (final(0.1 + 1e-6) - final(0.1 - 1e-6)) / 2e-6
        assert w == pytest.approx(fd, rel=1e-5)
