"""Periodic-orbit shooting, scanning, basin probing and audits."""

import dataclasses
import math
import re

import numpy as np
import pytest

from conveyor import integrate as integrator
from conveyor import periodic
from conveyor.errors import EmptyAudit, NoConvergence
from conveyor.integrate import IntegratorConfig, flow_T, integrate
from conveyor.model import (
    ConveyorParams,
    EnvelopeSpec,
    default_params,
    drive_bound,
    field,
    force_closure,
    force_dz_closure,
)
from conveyor.periodic import (
    BasinPoint,
    _hidden_pair_seeds,
    basin_probe,
    boundedness_audit,
    find_periodic,
    scan_orbits,
)
from tests.conftest import (
    MU_GAUSSIAN,
    MU_LORENTZIAN,
    Z_STAR_GAUSSIAN,
    Z_STAR_LORENTZIAN,
)


def count_map_evaluations(monkeypatch) -> list:
    """A list that grows by one entry per period-map evaluation made in
    ``periodic``: "sensitivity" for a map that also sums its derivative,
    "map" for one that does not, "loose" for a scan grid's sign-only map.
    The solves build every map in ``integrate._half_map``, the scan grid
    runs the stepper itself, and the plane drive's gap runs the public
    ``flow_T``."""
    calls = []
    half_map, full_map, stepper = periodic._half_map, periodic.flow_T, periodic._dp45_scalar

    def counted_half_map(p, z, cfg, rhs, rhs_dz=None):
        calls.append("map" if rhs_dz is None else "sensitivity")
        return half_map(p, z, cfg, rhs, rhs_dz)

    def counted_full_map(*args, **kwargs):
        calls.append("map")
        return full_map(*args, **kwargs)

    def counted_stepper(p, rhs, z0, t0, t1, cfg, collect, rhs_dz=None):
        calls.append("loose" if cfg.rtol >= periodic.GRID_RTOL else "map")
        return stepper(p, rhs, z0, t0, t1, cfg, collect, rhs_dz)

    monkeypatch.setattr(periodic, "_half_map", counted_half_map)
    monkeypatch.setattr(periodic, "flow_T", counted_full_map)
    monkeypatch.setattr(periodic, "_dp45_scalar", counted_stepper)
    return calls


def solve_tolerance_grid(monkeypatch) -> None:
    """Make ``scan_orbits`` run its grid at the solve's own config, not the
    loose one; its orbits must not change by a bit."""
    monkeypatch.setattr(periodic, "_grid_config", lambda cfg, period: cfg or IntegratorConfig())


def certified(orbits) -> list[str]:
    return [repr((o.z_star, o.multiplier, o.residual)) for o in orbits]


class TestFindPeriodic:
    def test_lorentzian_orbit_certified(self, lorentzian_params, lorentzian_orbit):
        o = lorentzian_orbit
        assert o.residual < 1e-9
        assert abs(o.z_star - Z_STAR_LORENTZIAN) < 1e-6
        assert 0.0 < o.multiplier < 1.0
        assert o.multiplier == pytest.approx(MU_LORENTZIAN, abs=1e-5)
        assert not o.force_free
        assert o.period == lorentzian_params.period
        # certificate: the period map really fixes z_star
        assert abs(flow_T(lorentzian_params, o.z_star) - o.z_star) < 1e-9

    def test_gaussian_orbit_certified(self, gaussian_orbit):
        o = gaussian_orbit
        assert o.residual < 1e-9
        assert abs(o.z_star - Z_STAR_GAUSSIAN) < 1e-6
        assert o.multiplier == pytest.approx(MU_GAUSSIAN, abs=1e-5)
        assert o.attracting

    def test_orbit_samples_close_up(self, lorentzian_orbit):
        # the stored run spans the drive's minimal period 2*pi/b = period/2
        kt, kz = lorentzian_orbit.trajectory.knots
        assert kt[0] == 0.0
        assert kt[-1] == pytest.approx(0.5 * lorentzian_orbit.period, rel=1e-15)
        assert abs(kz[-1] - kz[0]) <= lorentzian_orbit.residual * (1.0 + 1e-9)

    def test_periodic_extension_seam(self, lorentzian_params, lorentzian_orbit):
        # the right-hand side is continuous across t = T when z(T) ~ z(0)
        o = lorentzian_orbit
        force = field(lorentzian_params).force
        kz = o.trajectory.knots[1]
        f_end = force(o.period, kz[-1])
        f_start = force(0.0, kz[0])
        assert abs(f_end - f_start) < 1e-6

    def test_periodic_extension_resample(self, lorentzian_params, lorentzian_orbit):
        # fresh integration over the next minimal period [T/2, T] reproduces
        # the stored run over [0, T/2]
        o = lorentzian_orbit
        half = o.trajectory.t1
        assert half == pytest.approx(0.5 * o.period, rel=1e-15)
        shifted = integrate(lorentzian_params, force_closure(lorentzian_params),
                            o.z_star, half, 2.0 * half)
        ts = np.linspace(0.0, half, 200)
        gap = max(abs(shifted.interp(float(t) + half) - o.trajectory.interp(float(t)))
                  for t in ts)
        # budget: restated periodicity error plus two integrations' tolerance
        assert gap < 10.0 * o.residual + 100.0 * (1e-10 * abs(o.z_star) + 1e-12)

    def test_guesses_agree_lorentzian(self, monkeypatch, lorentzian_params):
        # the capture march reaches the orbit from the far tail in few maps
        calls = count_map_evaluations(monkeypatch)
        stars, cost = [], []
        for g in (-4.5, -2.0, 0.0, 2.0, 4.5):
            stars.append(find_periodic(lorentzian_params, g).z_star)
            cost.append(len(calls) - sum(cost))
        assert max(stars) - min(stars) < 1e-6
        assert max(cost) <= 20, cost

    def test_guesses_agree_gaussian(self, monkeypatch, gaussian_params):
        calls = count_map_evaluations(monkeypatch)
        stars, cost = [], []
        for g in (-1.0, -0.5, 0.0, 0.5, 1.0):
            stars.append(find_periodic(gaussian_params, g).z_star)
            cost.append(len(calls) - sum(cost))
        assert max(stars) - min(stars) < 1e-6
        assert max(cost) <= 12, cost

    def test_zero_drive_returns_guess(self):
        p = default_params("plane", f0=0.0)
        o = find_periodic(p, 1.2345)
        assert o.z_star == 1.2345
        assert o.residual == 0.0
        assert o.multiplier == 1.0
        assert o.force_free  # every point is fixed; flagged, not certified

    def test_far_gaussian_guess_parks(self, gaussian_params):
        # 20 wavelengths out the drive has underflowed and no bracket reaches back
        o = find_periodic(gaussian_params, 20.0)
        assert o.force_free
        assert o.z_star == 20.0

    def test_far_lorentzian_guess_does_not_park(self, lorentzian_params):
        # the Lorentzian only decays like (z0/z)^2: 20 wavelengths out the
        # drive bound is 4.57e-3, far above FORCE_FREE_SUP, so the guess is
        # solved, and no orbit captures it
        assert drive_bound(lorentzian_params, 20.0) == pytest.approx(4.5745e-3, rel=1e-4)
        with pytest.raises(NoConvergence):
            find_periodic(lorentzian_params, 20.0)

    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    def test_overflowing_guess_parks(self, kind):
        # z*z overflows at 1e200; the drive bound reads 0.0 there, not nan
        o = find_periodic(default_params(kind), 1e200)
        assert o.force_free
        assert o.z_star == 1e200
        assert o.multiplier == 1.0

    def test_underflowed_gaussian_guess_parks(self):
        # at z0 = 1e-50 and z = 1e250, exp underflows to 0 while c1*z overflows;
        # f' is a signed 0 there, not inf * 0 = nan
        o = find_periodic(default_params("gaussian", z0=1e-50), 1e250)
        assert o.force_free
        assert o.z_star == 1e250
        assert o.multiplier == 1.0

    def test_unrepresentable_drive_phase_rejected(self, lorentzian_params):
        # the guess parks as force-free, but k*z overflows before the period runs
        with pytest.raises(ValueError, match="drive phase"):
            find_periodic(lorentzian_params, 1e308)

    def test_no_orbit_for_plane_drive(self, plane_params):
        # locked transport: P(z) - z ~ 2 pi / k > 0 everywhere, no fixed points
        with pytest.raises(NoConvergence) as info:
            find_periodic(plane_params, 0.0)
        assert info.value.iterations > 0
        assert info.value.last_residual > 0.0

    @pytest.mark.parametrize("b", [100.0, 200.0])
    def test_plane_drive_costs_one_map(self, monkeypatch, b):
        # f' == 0 makes int F^2 dt vanish over any period, so no orbit exists
        # in either plane regime, and one map evaluation reports the gap
        calls = count_map_evaluations(monkeypatch)
        p = default_params("plane", b=b)
        with pytest.raises(NoConvergence) as info:
            find_periodic(p, 0.3)
        assert len(calls) == 1
        assert info.value.iterations == 1
        assert info.value.last_residual == abs(flow_T(p, 0.3) - 0.3)


class TestScanOrbits:
    def test_lorentzian_window_has_exactly_one(self, lorentzian_params):
        orbits = scan_orbits(lorentzian_params, -4.5, 4.5, 33)
        assert len(orbits) == 1
        assert abs(orbits[0].z_star - Z_STAR_LORENTZIAN) < 1e-6
        assert 0.0 < orbits[0].multiplier < 1.0

    def test_gaussian_window_has_one(self, gaussian_params):
        orbits = scan_orbits(gaussian_params, -1.0, 1.0, 21)
        assert len(orbits) >= 1
        assert any(abs(o.z_star - Z_STAR_GAUSSIAN) < 1e-6 for o in orbits)

    def test_gaussian_far_window_empty(self, gaussian_params):
        # the parked far-field candidates are degenerate, never certified
        assert scan_orbits(gaussian_params, 5.0, 10.0, 11) == []

    def test_plane_window_empty(self, plane_params):
        assert scan_orbits(plane_params, -1.0, 1.0, 9) == []

    def test_sorted_and_in_window(self, gaussian_params):
        orbits = scan_orbits(gaussian_params, -1.0, 1.0, 21)
        stars = [o.z_star for o in orbits]
        assert stars == sorted(stars)
        assert all(-1.0 - 1e-9 <= z <= 1.0 + 1e-9 for z in stars)

    def test_argument_validation(self, gaussian_params):
        with pytest.raises(ValueError):
            scan_orbits(gaussian_params, 1.0, -1.0, 5)
        with pytest.raises(ValueError):
            scan_orbits(gaussian_params, -1.0, 1.0, 1)

    @pytest.mark.parametrize("n", [2.5, 21.0, "21", None])
    def test_non_integer_grid_rejected(self, gaussian_params, n):
        with pytest.raises(ValueError, match=r"integer number n of grid points, got " + re.escape(repr(n))):
            scan_orbits(gaussian_params, -1.0, 1.0, n)

    @pytest.mark.parametrize("z_lo,z_hi", [(-1.0, math.inf), (-math.inf, 1.0),
                                           (math.nan, 1.0), (-1.0, math.nan),
                                           (-1e308, 1e308), (-5e307, 5e307)])
    def test_non_finite_window_rejected(self, gaussian_params, z_lo, z_hi):
        # named as the window, not as the stepper's "initial state z=nan";
        # the last two are finite, but their width, or its grid offsets
        # (z_hi - z_lo) * i, overflow
        with pytest.raises(ValueError, match=r"finite window.*\[" + re.escape(f"{z_lo!r}, {z_hi!r}")):
            scan_orbits(gaussian_params, z_lo, z_hi, 5)

    @pytest.mark.parametrize("kind,window,limit", [
        ("lorentzian", (-4.5, 4.5, 64), 80),
        ("gaussian", (-1.0, 1.0, 21), 30),
    ])
    def test_reference_scan_work(self, monkeypatch, kind, window, limit):
        # the grid costs one loose map per point; each sign-change cell two
        # maps at the solve tolerance for its ends, and each sign read within
        # the margin one more; the single orbit's solve, seeded from its cell,
        # only a few more.  Newton takes mu_h, the slope of the half-period
        # map, as its derivative: handed mu_h**2 it would spend 18 and 15
        # sensitivity maps here
        calls = count_map_evaluations(monkeypatch)
        stepper, loose = periodic._dp45_scalar, []

        def spy(p, rhs, z0, t0, t1, cfg, collect, rhs_dz=None):
            out = stepper(p, rhs, z0, t0, t1, cfg, collect, rhs_dz)
            loose.append((out[0] - z0, out[2]))
            return out

        monkeypatch.setattr(periodic, "_dp45_scalar", spy)
        orbits = scan_orbits(default_params(kind), *window)
        assert len(orbits) == 1
        resid = [r for r, _ in loose]
        margin = sum(abs(r) <= periodic.SIGN_MARGIN * e for r, e in loose)
        cells = sum(periodic._changes_sign(a, b) for a, b in zip(resid, resid[1:]))
        assert cells == 1
        assert calls.count("loose") == window[2]
        assert calls.count("map") <= 2 * cells + margin
        assert calls.count("sensitivity") <= 6, calls
        assert len(calls) <= limit

    @pytest.mark.parametrize("kind,window", [("lorentzian", (-4.5, 4.5, 64)),
                                             ("gaussian", (-1.0, 1.0, 21))])
    def test_residual_is_the_stored_seam_gap(self, monkeypatch, kind, window):
        # the minimal period each orbit stores is the tight-tolerance run
        # itself; (1 + mu_h) times its own seam gap, mu_h the solve's slope of
        # the half-period map, is the certificate, bit for bit
        build, slopes = periodic._build_orbit, {}

        def spy(p, z_star, mu_h, cfg, force_free=False):
            slopes[z_star] = mu_h
            return build(p, z_star, mu_h, cfg, force_free)

        monkeypatch.setattr(periodic, "_build_orbit", spy)
        p = default_params(kind)
        orbits = [find_periodic(p, 0.0), *scan_orbits(p, *window)]
        for o in orbits:
            mu_h = slopes[o.z_star]
            assert o.multiplier == mu_h * mu_h
            traj = o.trajectory
            assert o.residual == (1.0 + mu_h) * abs(traj.interp(traj.t1) - o.z_star)
            assert 0.0 < o.residual < periodic.CERTIFICATION_TOL

    @pytest.mark.parametrize("n_grid", [9, 33])
    @pytest.mark.parametrize("kind,f0,b,z0,window,z_star", [
        ("lorentzian", 3.0, 100.0, 0.37, (-4.5, 4.5), 2.398240339),
        ("lorentzian", 1.2, 60.0, 0.5, (-4.5, 4.5), 2.915273740),
        ("lorentzian", 2.0, 140.0, 0.5, (-4.5, 4.5), 2.087431625),
        ("gaussian", 3.0, 60.0, 0.5, (-1.5, 1.5), 0.545885295),
    ])
    def test_off_reference_windows(self, monkeypatch, n_grid, kind, f0, b, z0, window, z_star):
        p = ConveyorParams(f0, b, 2.66 * math.pi, EnvelopeSpec(kind, z0))
        orbits = scan_orbits(p, *window, n_grid)
        assert [round(o.z_star, 6) for o in orbits] == [round(z_star, 6)]
        solve_tolerance_grid(monkeypatch)
        assert certified(scan_orbits(p, *window, n_grid)) == certified(orbits)


class TestHiddenPairSeeds:
    def test_dipping_parabola_gives_its_vertex(self):
        # R = (z - 0.2)(z - 0.4) hides both orbits between grid points -1, 0, 1
        grid = [-1.0, 0.0, 1.0]
        resid = [(z - 0.2) * (z - 0.4) for z in grid]
        assert all(r > 0.0 for r in resid)
        assert _hidden_pair_seeds(grid, resid) == pytest.approx([0.3])

    def test_negative_side_is_mirrored(self):
        grid = [-1.0, 0.0, 1.0]
        resid = [-(z - 0.2) * (z - 0.4) for z in grid]
        assert _hidden_pair_seeds(grid, resid) == pytest.approx([0.3])

    def test_shallow_minimum_gives_none(self):
        assert _hidden_pair_seeds([0.0, 1.0, 2.0], [1.0, 0.5, 1.0]) == []
        assert _hidden_pair_seeds([0.0, 1.0, 2.0], [1.68, 0.3, 0.48]) == []

    def test_sign_changes_and_non_minima_give_none(self):
        # a sign change is the cells' business, and a monotone run has no dip
        assert _hidden_pair_seeds([0.0, 1.0, 2.0], [1.0, 0.01, -1.0]) == []
        assert _hidden_pair_seeds([0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.5]) == []


class TestHalfPeriodMap:
    """The solves run on P_h over 2 pi / b; P = P_h o P_h, so a certified
    orbit is a fixed point of both maps and its multiplier is mu_h**2."""

    @pytest.mark.parametrize("kind,window", [("lorentzian", (-4.5, 4.5, 64)),
                                             ("gaussian", (-1.0, 1.0, 21))])
    def test_certified_orbit_fixes_both_maps(self, kind, window):
        p = default_params(kind)
        rhs, rhs_dz = force_closure(p), force_dz_closure(p)
        for o in [find_periodic(p, 0.0), *scan_orbits(p, *window)]:
            z_half, mu_half = integrator._half_map(p, o.z_star, None, rhs, rhs_dz)
            z_full, log_w, *_ = integrator._dp45_scalar(p, rhs, o.z_star, 0.0, p.period, None,
                                                        False, rhs_dz)
            mu_full = math.exp(log_w)
            assert abs(z_half - o.z_star) < periodic.CERTIFICATION_TOL
            assert abs(z_full - o.z_star) < periodic.CERTIFICATION_TOL
            # the reported multiplier is mu_h**2; the full-period Liouville
            # sum runs on other steps and agrees within 1e-9 relative
            assert o.multiplier == mu_half * mu_half
            assert o.multiplier == pytest.approx(mu_full, rel=1e-9)


# near-neutral Lorentzian set (mu ~ 0.9975) whose orbit's residual exceeds
# CERTIFICATION_TOL: the solving tolerance's own error in P shows there
NEAR_NEUTRAL = ConveyorParams(0.9728814597310971, 72.01116691909888, 2.66 * math.pi,
                              EnvelopeSpec("lorentzian", 0.4991817149262152))


@pytest.fixture(scope="module")
def near_neutral_orbit():
    return find_periodic(NEAR_NEUTRAL, 1.96)


class TestStoredMinimalPeriod:
    """Each orbit stores one tight run over the drive's minimal period 2 pi / b.
    What is read off it must say what a tight run over 4 pi / b says."""

    @pytest.fixture(params=["lorentzian_orbit", "gaussian_orbit", "near_neutral_orbit"])
    def orbit(self, request):
        return request.getfixturevalue(request.param)

    @staticmethod
    def full_run(o):
        p = o.trajectory.params
        return integrate(p, force_closure(p), o.z_star, 0.0, p.period,
                         integrator._tight_config(None))

    def test_residual_is_the_full_period_gap(self, orbit):
        full = self.full_run(orbit)
        gap = abs(full.interp(full.t1) - orbit.z_star)
        assert abs(orbit.residual - gap) <= 0.1 * gap

    def test_near_neutral_residual_still_exceeds_the_tolerance(self, near_neutral_orbit):
        # the half-period gap alone (~1.2e-9 here) would read close to the
        # tolerance; (1 + mu_h) times it keeps the full-period size
        assert near_neutral_orbit.residual > periodic.CERTIFICATION_TOL

    def test_identities_are_half_the_full_period_ones(self, orbit):
        # a pseudo-orbit carrying the 4 pi / b run works in the identities too,
        # which integrate over each trajectory's own span
        from conveyor.verify import identity_energy, identity_force

        whole = dataclasses.replace(orbit, trajectory=self.full_run(orbit))
        for identity in (identity_energy, identity_force):
            half, full = identity(orbit), identity(whole)
            assert half.lhs == pytest.approx(0.5 * full.lhs, rel=1e-8)
            assert half.rhs == pytest.approx(0.5 * full.rhs, rel=1e-8)
            assert full.rel_residual < 1e-6

    def test_sup_norm_matches_the_full_period(self, orbit):
        assert orbit.sup_norm == pytest.approx(self.full_run(orbit).sup_norm(), rel=1e-6)


class TestScanFindsEveryOrbit:
    """Scans of an autonomous field g(z) = c (z - r_1)...(z - r_n) put in
    place of the drive: the period map's fixed points are exactly the r_i,
    with multipliers exp(g'(r_i) T), repelling where g'(r_i) > 0."""

    @staticmethod
    def use_field(monkeypatch, c, roots):
        def g(t, z):
            return c * math.prod(z - r for r in roots)

        def g_dz(t, z):
            return c * sum(math.prod(z - s for s in roots[:i] + roots[i + 1:])
                           for i in range(len(roots)))

        # periodic builds the solves' right-hand sides; integrate's default
        # field is the one each orbit's stored run integrates
        for module in (periodic, integrator):
            monkeypatch.setattr(module, "force_closure", lambda p: g)
        monkeypatch.setattr(periodic, "force_dz_closure", lambda p: g_dz)
        return g_dz

    @pytest.mark.parametrize("c,roots,n_grid", [
        (3.0, (0.2, 0.4), 5),          # a hidden pair: R > 0 at every grid point
        (3.0, (0.25, 0.3), 5),
        (3.0, (-0.5, 0.1, 0.6), 9),    # -0.5 and 0.6 repel, -0.5 on the grid, where R = 0
        (-3.0, (-0.5, 0.1, 0.6), 9),   # 0.1 repels
    ], ids=["hidden-pair", "close-hidden-pair", "cubic", "reversed-cubic"])
    def test_roots_and_multipliers(self, monkeypatch, lorentzian_params, c, roots, n_grid):
        g_dz = self.use_field(monkeypatch, c, roots)
        orbits = scan_orbits(lorentzian_params, -1.0, 1.0, n_grid)
        assert [o.z_star for o in orbits] == pytest.approx(list(roots), abs=1e-9)
        T = lorentzian_params.period
        for o, r in zip(orbits, roots):
            assert o.multiplier == pytest.approx(math.exp(g_dz(0.0, r) * T), abs=1e-6)
        assert any(o.multiplier > 1.0 for o in orbits)
        solve_tolerance_grid(monkeypatch)
        assert certified(scan_orbits(lorentzian_params, -1.0, 1.0, n_grid)) == certified(orbits)


class TestLooseGrid:
    """``scan_orbits`` reads its grid's signs from a loose run and evaluates
    at the solve tolerance only what the cells, the margin and the
    hidden-pair probes need: every orbit is bit for bit that of a grid run
    entirely at the solve tolerance (also checked off the reference, in
    ``TestScanOrbits``, and on the fields of ``TestScanFindsEveryOrbit``)."""

    @pytest.mark.parametrize("kind,window", [("lorentzian", (-4.5, 4.5, 64)),
                                             ("gaussian", (-1.0, 1.0, 21))])
    def test_reference_windows(self, monkeypatch, kind, window):
        p = default_params(kind)
        orbits = scan_orbits(p, *window)
        solve_tolerance_grid(monkeypatch)
        assert len(orbits) == 1 and certified(scan_orbits(p, *window)) == certified(orbits)

    def test_margin_rereads_a_wrong_sign(self, monkeypatch, lorentzian_params):
        # a loose run that reports R at grid point 10, far from the orbit,
        # with the wrong sign but within the margin is read again at the solve
        # tolerance: the orbit and every other map are as before
        window = (-4.5, 4.5, 64)
        z_bad = periodic._grid(*window)[10]

        def rereads():
            half_map, reread = periodic._half_map, []

            def spy(p, z, cfg, rhs, rhs_dz=None):
                if rhs_dz is None:
                    reread.append(z)
                return half_map(p, z, cfg, rhs, rhs_dz)

            with monkeypatch.context() as m:
                m.setattr(periodic, "_half_map", spy)
                orbits = scan_orbits(lorentzian_params, *window)
            return orbits, reread

        stepper = periodic._dp45_scalar

        def wrong_sign(p, rhs, z0, t0, t1, cfg, collect, rhs_dz=None):
            z1, log_w, err_sum, *path = stepper(p, rhs, z0, t0, t1, cfg, collect, rhs_dz)
            if z0 == z_bad:
                assert 0.0 < err_sum < abs(z1 - z0)
                z1 = z0 - math.copysign(err_sum, z1 - z0)
            return z1, log_w, err_sum, *path

        orbits, reread = rereads()
        monkeypatch.setattr(periodic, "_dp45_scalar", wrong_sign)
        patched_orbits, patched_reread = rereads()
        assert z_bad not in reread
        assert sorted(patched_reread) == sorted([*reread, z_bad])
        assert len(orbits) == 1 and certified(patched_orbits) == certified(orbits)


class TestBasinProbe:
    def test_horizon_validation(self, lorentzian_params):
        with pytest.raises(ValueError):
            basin_probe(lorentzian_params, [0.0], 5.0 * lorentzian_params.period, [])

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, lorentzian_params, horizon):
        with pytest.raises(ValueError, match="horizon must be finite"):
            basin_probe(lorentzian_params, [0.0], horizon, [])

    def test_release_on_orbit_converges(self, lorentzian_params, lorentzian_orbit):
        T = lorentzian_params.period
        pts = basin_probe(lorentzian_params, [lorentzian_orbit.z_star], 10.0 * T,
                          orbits=[lorentzian_orbit])
        assert pts[0].converged
        assert abs(pts[0].z_final - lorentzian_orbit.z_star) < 1e-6

    def test_attraction_from_nearby(self, lorentzian_params, lorentzian_orbit):
        # multiplier 0.954 per period: +-0.01 contracts below 1e-3 within ~50 T
        assert 0.0 < lorentzian_orbit.multiplier < 1.0
        T = lorentzian_params.period
        pts = basin_probe(
            lorentzian_params,
            [lorentzian_orbit.z_star - 0.01, lorentzian_orbit.z_star + 0.01],
            60.0 * T,
            orbits=[lorentzian_orbit],
        )
        assert all(p.converged for p in pts)

    def test_gaussian_dead_zone_stays_put(self, gaussian_params, gaussian_orbit):
        T = gaussian_params.period
        pts = basin_probe(gaussian_params, [3.0], 10.0 * T, orbits=[gaussian_orbit])
        assert isinstance(pts[0], BasinPoint)
        assert abs(pts[0].z_final - 3.0) < 1e-3
        assert not pts[0].converged

    def test_horizon_snaps_to_whole_periods(self, gaussian_params, gaussian_orbit):
        # 10.5 periods is probed at 11 T so the comparison is phase-aligned
        T = gaussian_params.period
        pts = basin_probe(gaussian_params, [gaussian_orbit.z_star], 10.5 * T,
                          orbits=[gaussian_orbit])
        assert pts[0].converged


class TestOffReferenceParameters:
    """The solver chain must not be tuned to the default constant set."""

    def test_lorentzian_near_locking_boundary(self):
        # b = 150 against 2 f0 k^2 = 153.6: weakly attracting orbit
        p = default_params("lorentzian", b=150.0, z0=0.5, f0=1.1)
        orbit = find_periodic(p, 0.0)
        assert orbit.residual < 1e-9
        assert 0.0 < orbit.multiplier < 1.0
        assert not orbit.force_free
        orbits = scan_orbits(p, -3.0, 3.0, 17)
        assert len(orbits) == 1
        assert abs(orbits[0].z_star - orbit.z_star) < 1e-6

    def test_gaussian_slow_drive(self):
        from conveyor.homotopy import continue_to_one
        from conveyor.verify import identity_energy, identity_force

        p = default_params("gaussian", b=80.0, z0=0.6)
        orbit = find_periodic(p, 0.0)
        assert orbit.residual < 1e-9 and orbit.attracting
        trace = continue_to_one(p)
        assert abs(trace.final.z0 - orbit.z_star) < 1e-8
        assert identity_energy(orbit).rel_residual < 1e-6
        assert identity_force(orbit).rel_residual < 1e-6


class TestResidualAgainstScipy:
    """The reported residual must cover the period-map gap that an
    independent integrator measures at z_star, which is the solving
    tolerance's own error in P, not the solver's roundoff-level certificate."""

    scipy_integrate = pytest.importorskip("scipy.integrate")

    def reference_gap(self, p, z_star):
        rhs = force_closure(p)
        sol = self.scipy_integrate.solve_ivp(
            lambda t, y: [rhs(t, y[0])],
            (0.0, p.period),
            [z_star],
            rtol=1e-12,
            atol=1e-14,
            max_step=p.period / 4.0,
        )
        return abs(sol.y[0, -1] - z_star)

    def test_lorentzian(self, lorentzian_params, lorentzian_orbit):
        o = lorentzian_orbit
        assert self.reference_gap(lorentzian_params, o.z_star) <= 2.0 * o.residual

    def test_gaussian(self, gaussian_params, gaussian_orbit):
        o = gaussian_orbit
        assert self.reference_gap(gaussian_params, o.z_star) <= 2.0 * o.residual

    def test_near_neutral_multiplier(self, near_neutral_orbit):
        # mu ~ 0.9975: the integration error in P is ~1.8e-9, so a residual
        # read off the solving stepper alone (~1e-16) would hide it
        o = near_neutral_orbit
        assert o.multiplier == pytest.approx(0.99749, abs=1e-5)
        assert self.reference_gap(NEAR_NEUTRAL, o.z_star) <= 2.0 * o.residual


class TestBoundednessAudit:
    def test_single_orbit(self, lorentzian_orbit):
        assert boundedness_audit([lorentzian_orbit]) == lorentzian_orbit.sup_norm

    def test_reference_scan_is_small(self, lorentzian_params):
        orbits = scan_orbits(lorentzian_params, -4.5, 4.5, 17)
        assert boundedness_audit(orbits) < 10.0  # the trap sits well inside 10 wavelengths

    def test_empty_is_an_error(self):
        with pytest.raises(EmptyAudit):
            boundedness_audit([])
