"""Integral-identity, rest-point and multiplier certificates on orbits."""

import dataclasses
import math
import re

import pytest

from conveyor.errors import ConveyorError
from conveyor.integrate import (
    IntegratorConfig,
    Trajectory,
    _half_map,
    _tight_config,
    integrate,
    propagate,
)
from conveyor.model import (
    ConveyorParams,
    EnvelopeSpec,
    default_params,
    field,
    force_closure,
)
from conveyor.periodic import PeriodicOrbit, find_periodic
from conveyor.verify import (
    fixed_point_scan,
    identity_energy,
    identity_force,
    multiplier_cross_check,
)


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
        k, b = lorentzian_params.k, lorentzian_params.b
        [val] = lorentzian_orbit.trajectory.integral(
            lambda t, z: (math.cos(k * z - 0.5 * b * t) ** 2 * envelope(z)[1],))
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
        rhs = force_closure(o.trajectory.params)
        [direct] = o.trajectory.integral(lambda t, z: (rhs(t, z) ** 2,))
        assert identity_energy(o).lhs == identity_force(o).lhs == direct

    @pytest.mark.parametrize("orbit", ["lorentzian_orbit", "gaussian_orbit"])
    def test_shifted_start_fails_both_identities(self, orbit, request):
        # the orbit's tight run restarted 1e-5 off z* is no periodic solution;
        # its certified residual is kept, so only the identities can tell
        o = request.getfixturevalue(orbit)
        z0 = o.z_star + 1e-5
        p = o.trajectory.params
        traj = integrate(p, force_closure(p), z0, 0.0, 0.5 * p.period, _tight_config(None))
        shifted = dataclasses.replace(o, z_star=z0, trajectory=traj)
        assert identity_energy(shifted).rel_residual > 1e-6
        assert identity_force(shifted).rel_residual > 1e-6

    def test_uncertified_orbit_rejected(self, lorentzian_orbit):
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


class TestIdentityPassIsShared:
    """Both identities read one cached pass of ``Trajectory.integral`` over
    the orbit's stored run.  ``dataclasses.replace`` gives an equal orbit
    with an empty cache, so each test starts from a fresh one."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        integral = Trajectory.integral

        def counted(traj, fn):
            calls.append(traj)
            return integral(traj, fn)

        monkeypatch.setattr(Trajectory, "integral", counted)
        return calls

    @pytest.mark.parametrize("orbit", ["lorentzian_orbit", "gaussian_orbit"])
    def test_one_pass_per_orbit(self, orbit, request, monkeypatch):
        o = dataclasses.replace(request.getfixturevalue(orbit))
        calls = self.spy(monkeypatch)
        identity_energy(o), identity_force(o)
        assert calls == [o.trajectory]
        identity_energy(o), identity_force(o)
        assert len(calls) == 1

    @pytest.mark.parametrize("orbit", ["lorentzian_orbit", "gaussian_orbit"])
    def test_bits_match_an_uncached_pass(self, orbit, request):
        o = dataclasses.replace(request.getfixturevalue(orbit))
        p = o.trajectory.params
        f2, dvdt, slope = o.trajectory.integral(field(p).identity_terms)
        want = {"energy": (f2, -1.0 * dvdt), "force": (f2, -(p.b * p.f0) / (2.0 * p.k) * slope)}
        for name, got in (("energy", identity_energy(o)), ("force", identity_force(o))):
            lhs, rhs = want[name]
            rel = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-30)
            assert [x.hex() for x in got] == [x.hex() for x in (lhs, rhs, rel)], name

    def test_cache_is_not_a_field(self, lorentzian_orbit):
        o = dataclasses.replace(lorentzian_orbit)
        before = repr(o), hash(o)
        identity_energy(o)
        assert (repr(o), hash(o)) == before and o == dataclasses.replace(o)
        assert "_identity_sums" not in vars(dataclasses.replace(o))

    def test_uncertified_orbit_integrates_nothing(self, lorentzian_orbit, monkeypatch):
        bad = dataclasses.replace(lorentzian_orbit, residual=2e-6)
        calls = self.spy(monkeypatch)
        for identity in (identity_energy, identity_force):
            with pytest.raises(ConveyorError, match="not certified"):
                identity(bad)
        assert calls == []


class TestFixedPointScan:
    @pytest.mark.parametrize("kind", ["plane", "lorentzian", "gaussian"])
    def test_wide_grids_are_empty(self, kind):
        p = default_params(kind)
        assert fixed_point_scan(p, -100.0, 100.0, 1001) == []

    @pytest.mark.parametrize("kind", ["plane", "lorentzian", "gaussian"])
    def test_drive_free_flags_every_point(self, kind):
        # with f0 = 0 every point is at rest: P(z) - z is exactly 0
        p = default_params(kind, f0=0.0)
        assert propagate(p, force_closure(p), 0.5, 0.0, p.period) == 0.5
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

    @pytest.mark.parametrize("n", [2.5, 11.0, "11", None])
    def test_non_integer_grid_rejected(self, gaussian_params, n):
        with pytest.raises(ValueError, match=r"integer number n of grid points, got " + re.escape(repr(n))):
            fixed_point_scan(gaussian_params, -1.0, 1.0, n)

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

    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    @pytest.mark.parametrize("f0", [0.04, 0.8, 2.0, 5.0, 10.0])
    def test_matches_a_tight_liouville_multiplier(self, kind, f0):
        # the squared difference of P_h against mu_h**2 summed at rtol 1e-13;
        # at Gaussian f0 = 10 (mu = 8.2e-6) a full-period difference read 1.3e-5
        p = default_params(kind, f0=f0)
        orbit = find_periodic(p, 0.0)
        tight = IntegratorConfig(rtol=1e-13, atol=1e-15)
        _, mu_h = _half_map(p, orbit.z_star, tight, force_closure(p), field(p).force_and_dz)
        fd = multiplier_cross_check(p, orbit).finite_difference
        assert fd == pytest.approx(mu_h * mu_h, rel=1e-5)

    @pytest.mark.parametrize("orbit", ["lorentzian_orbit", "gaussian_orbit"])
    def test_fails_on_a_wrong_multiplier(self, orbit, request):
        o = request.getfixturevalue(orbit)
        wrong = dataclasses.replace(o, multiplier=1.01 * o.multiplier)
        assert multiplier_cross_check(o.trajectory.params, wrong).rel_error > 1e-4

    def test_params_must_be_the_orbits(self, lorentzian_orbit, gaussian_params):
        # the Gaussian set against the Lorentzian orbit read rel_error 0.085,
        # a failed certificate for a correct orbit
        with pytest.raises(ValueError, match="parameter set"):
            multiplier_cross_check(gaussian_params, lorentzian_orbit)

    def test_equal_params_by_value(self, lorentzian_orbit):
        p = dataclasses.replace(lorentzian_orbit.trajectory.params)
        assert p is not lorentzian_orbit.trajectory.params
        assert multiplier_cross_check(p, lorentzian_orbit) == multiplier_cross_check(
            lorentzian_orbit.trajectory.params, lorentzian_orbit)


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
        assert propagate(p, rhs, 0.3, 0.0, p.period) == pytest.approx(sol.y[0, -1], abs=1e-9)

    def test_sensitivity_matches_scipy_fd(self, gaussian_params):
        # the solvers' map: P_h over the drive's minimal period 2 pi / b
        p = gaussian_params
        rhs = force_closure(p)
        _, w = _half_map(p, 0.1, None, rhs, field(p).force_and_dz)

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

    @pytest.mark.parametrize("orbit", ["lorentzian_orbit", "gaussian_orbit"])
    def test_identities_match_quadpack(self, orbit, request):
        # both sides of each identity against adaptive QUADPACK over the same
        # interpolant, with the interior knots as breakpoints
        o = request.getfixturevalue(orbit)
        traj = o.trajectory
        p = traj.params
        fld = field(p)
        kt = traj.knots[0]

        def quad(fn):
            return self.scipy_integrate.quad(lambda t: fn(t, traj.interp(t)), traj.t0, traj.t1,
                                             points=kt[1:-1], limit=4 * len(kt),
                                             epsabs=0.0, epsrel=1e-13)[0]

        lhs = quad(lambda t, z: fld.force(t, z) ** 2)
        energy = -quad(lambda t, z: fld.identity_terms(t, z)[1])
        force = -(p.b * p.f0) / (2.0 * p.k) * quad(
            lambda t, z: math.cos(p.k * z - 0.5 * p.b * t) ** 2 * fld.envelope(z)[1])
        e, f = identity_energy(o), identity_force(o)
        for got, want in ((e.lhs, lhs), (f.lhs, lhs), (e.rhs, energy), (f.rhs, force)):
            assert got == pytest.approx(want, rel=1e-10)
