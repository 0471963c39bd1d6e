"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen; plain ``pytest`` shows them for failing criteria only.

Criteria 4a and 5a are implemented exactly as stated and are expected to
FAIL at the reference parameters: the drive in the envelope tails moves
particles at ~1e-3 wavelengths/s (Lorentzian edge) and ~1e-5 wavelengths/s
(Gaussian at one wavelength), so reaching the trap needs thousands of
seconds, not the stated horizons.  The failure messages carry the measured
distances; see the package README for the timescale analysis.
"""

import time

import numpy as np
import pytest

from conveyor.analytic import PlaneSolution, drift_velocity, plane_solution, taylor_small_f0
from conveyor.homotopy import beta_bound_check, continue_to_one, linear_bvp, piecewise_linear_l1
from conveyor.integrate import IntegratorConfig, integrate, propagate
from conveyor.model import default_params, force_closure
from conveyor.periodic import basin_probe, find_periodic, scan_orbits
from conveyor.verify import (
    fixed_point_scan,
    identity_energy,
    identity_force,
    multiplier_cross_check,
)


def report(criterion: str, passed: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}"
    print(line)
    return line


# --- shared, timed, full-fidelity computations ------------------------------


@pytest.fixture(scope="module")
def lorentzian_scan():
    p = default_params("lorentzian")
    t0 = time.perf_counter()
    orbits = scan_orbits(p, -4.5, 4.5, 64)
    return {"params": p, "orbits": orbits, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def lorentzian_basin(lorentzian_scan):
    p = lorentzian_scan["params"]
    ics = np.linspace(-4.5, 4.5, 19)
    t0 = time.perf_counter()
    points = basin_probe(p, [float(z) for z in ics], 5.0, orbits=lorentzian_scan["orbits"])
    return {"points": points, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def gaussian_scan():
    p = default_params("gaussian")
    orbits = scan_orbits(p, -1.0, 1.0, 21)
    return {"params": p, "orbits": orbits}


def test_criterion_01_plane_wave_oracle():
    cases = {"rectilinear": default_params("plane"),
             "oscillatory": default_params("plane", b=200.0)}
    details = []
    for name, p in cases.items():
        sol = PlaneSolution(0.0, p)
        t0 = time.perf_counter()
        traj = integrate(p, force_closure(p), 0.0, 0.0, 1.0)
        seconds = time.perf_counter() - t0
        ts = np.linspace(0.0, 1.0, 2001)
        gap = max(abs(traj.interp(float(t)) - plane_solution(sol, float(t))) for t in ts)
        details.append(f"{name}: sup gap {gap:.2e}, {seconds:.2f} s")
        assert gap < 1e-6, f"{name}: sup gap {gap:.3e} >= 1e-6"
        assert seconds < 1.0, f"{name}: integration took {seconds:.2f} s >= 1 s"
    report("1", True, "RK vs closed form over [0,1 s]; " + "; ".join(details))


def test_criterion_02_drift_claim():
    p = default_params("plane")
    sol = PlaneSolution(0.0, p)
    z_analytic = plane_solution(sol, 1500.0)
    cfg = IntegratorConfig(max_step=p.period / 4.0)
    z_numeric = propagate(p, force_closure(p), 0.0, 0.0, 1500.0, cfg)
    ok = 8910.0 <= z_analytic <= 9090.0 and 8910.0 <= z_numeric <= 9090.0
    gap = abs(z_analytic - z_numeric)
    report("2", ok and gap < 1e-6,
           f"z(1500) analytic {z_analytic:.4f}, numeric {z_numeric:.4f}, gap {gap:.1e}")
    assert ok, f"z(1500) outside [8910, 9090]: analytic {z_analytic}, numeric {z_numeric}"
    assert gap < 1e-6, f"analytic and numeric paths disagree by {gap:.3e}"


def test_criterion_03_conveyor_speed():
    v_c, _ = drift_velocity(default_params("plane"))
    ok = f"{v_c:.3g}" == "5.98"
    report("3", ok, f"v_c = b/(2k) = {v_c:.10f} wavelengths/s")
    assert ok, f"v_c = {v_c!r} does not print as 5.98 at 3 significant figures"


def test_criterion_04a_basin_convergence_at_5s(lorentzian_scan, lorentzian_basin):
    z_star = lorentzian_scan["orbits"][0].z_star
    points = lorentzian_basin["points"]
    worst = max(abs(pt.z_final - z_star) for pt in points)
    n_conv = sum(pt.converged for pt in points)
    ok = n_conv == len(points)
    report("4a", ok,
           f"{n_conv}/19 release points within 1e-3 of the orbit after 5 s "
           f"(worst distance {worst:.3f})")
    assert ok, (
        f"only {n_conv}/19 initial conditions reach the certified orbit within "
        f"1e-3 wavelengths by t = 5 s (worst final distance {worst:.3f}). "
        "The drive at the window edge moves particles at ~1e-3 wavelengths/s, "
        "so the approach from |z_i| = 4.5 takes ~4e3 s; no implementation can "
        "converge there in 5 s at these parameters."
    )


def test_criterion_04b_single_orbit_and_runtime(lorentzian_scan, lorentzian_basin):
    orbits = lorentzian_scan["orbits"]
    assert len(orbits) == 1, f"expected exactly one certified orbit, got {len(orbits)}"
    orbit = orbits[0]
    assert 0.0 < orbit.multiplier < 1.0
    assert orbit.residual < 1e-9
    total = lorentzian_scan["seconds"] + lorentzian_basin["seconds"]
    assert total < 30.0, f"scan + basin probe took {total:.1f} s >= 30 s"
    report("4b", True,
           f"scan_orbits(64) found exactly one orbit: z* = {orbit.z_star:.9f}, "
           f"multiplier {orbit.multiplier:.6f}, residual {orbit.residual:.1e}; "
           f"scan + 19-point probe ran in {total:.1f} s")


def test_criterion_05a_gaussian_central_basin(gaussian_scan):
    p = gaussian_scan["params"]
    orbits = gaussian_scan["orbits"]
    assert len(orbits) >= 1
    horizon = 200.0 * p.period  # ~25 s, far beyond the stated 10 T floor
    ics = [float(z) for z in np.linspace(-1.0, 1.0, 9)]
    points = basin_probe(p, ics, horizon, orbits=orbits)
    n_conv = sum(pt.converged for pt in points)
    stuck = [f"{pt.z_i:+.2f}->{pt.z_final:+.3f}" for pt in points if not pt.converged]
    ok = n_conv == len(points)
    report("5a", ok,
           f"{n_conv}/9 release points in [-1, 1] reach the orbit by t = {horizon:.1f} s"
           + ("" if ok else f"; stuck: {', '.join(stuck)}"))
    assert ok, (
        f"only {n_conv}/9 initial conditions in [-1, 1] reach the certified "
        f"orbit within 1e-3 by t = {horizon:.1f} s (stuck: {', '.join(stuck)}). "
        "The Gaussian envelope at |z| = 1 is exp(-14.6) ~ 5e-7, giving a mean "
        "drift of ~5e-6 wavelengths/s: the approach from the interval edge "
        "takes ~7e3 s, beyond any feasible test horizon."
    )


def test_criterion_05b_dead_zone_immobility(gaussian_scan):
    p = gaussian_scan["params"]
    horizon = 10.0 * p.period
    points = basin_probe(p, [-4.0, -3.0, 3.0, 4.0], horizon, orbits=gaussian_scan["orbits"])
    moves = [abs(pt.z_final - pt.z_i) for pt in points]
    ok = all(m < 1e-3 for m in moves)
    report("5b", ok,
           f"releases at |z_i| in {{3, 4}} moved at most {max(moves):.1e} over 10 T")
    assert ok, f"dead-zone releases moved {moves}"


def test_criterion_06_homotopy_matches_shooting():
    details = []
    for kind in ("lorentzian", "gaussian"):
        p = default_params(kind)
        trace = continue_to_one(p)
        orbit = find_periodic(p, 0.0)
        gap = abs(trace.final.z0 - orbit.z_star)
        n = len(trace.steps)
        assert trace.converged and trace.final.lambda_h == 1.0
        assert gap < 1e-8, f"{kind}: endpoint gap {gap:.3e} >= 1e-8"
        assert n <= 60, f"{kind}: {n} continuation steps > 60"
        details.append(f"{kind}: gap {gap:.1e} in {n} steps")
    report("6", True, "; ".join(details))


def test_criterion_07_integral_identities(lorentzian_scan, gaussian_scan):
    details = []
    for name, scan in (("lorentzian", lorentzian_scan), ("gaussian", gaussian_scan)):
        for orbit in scan["orbits"]:
            e = identity_energy(orbit)
            f = identity_force(orbit)
            assert e.rel_residual < 1e-6, f"{name}: energy residual {e.rel_residual:.2e}"
            assert f.rel_residual < 1e-6, f"{name}: force residual {f.rel_residual:.2e}"
            details.append(f"{name}: {e.rel_residual:.1e}/{f.rel_residual:.1e}")
    report("7", True, "energy/force identity residuals " + "; ".join(details))


def test_criterion_08_linear_bvp_bound():
    p = default_params("lorentzian")
    check = beta_bound_check(p.period)
    assert check.passed, f"beta bound check failed: max ratio {check.max_ratio} > {check.beta}"
    beta = check.beta
    rng = np.random.default_rng(42)
    ts = np.linspace(0.0, p.period, 400)
    worst_ratio = worst_bc = 0.0
    for _ in range(100):
        q = rng.normal(size=ts.size)
        c0 = float(rng.normal())
        y = linear_bvp(ts, q, c0)
        ratio = float(np.abs(y).max()) / (abs(c0) + piecewise_linear_l1(ts, q))
        assert ratio <= beta, f"beta bound violated: ratio {ratio} > {beta}"
        worst_ratio = max(worst_ratio, ratio)
        worst_bc = max(worst_bc, abs((y[0] - y[-1]) - c0))
    assert worst_bc < 1e-12, f"boundary condition off by {worst_bc:.2e}"
    report("8", True,
           f"100 cases: max ||y||/(|c0|+||q||_L1) = {worst_ratio:.4f} <= "
           f"beta = {beta:.4f}; worst |y(0)-y(T)-c0| = {worst_bc:.1e}")


def test_criterion_09_weak_drive_taylor_order():
    z_i = 0.2
    errs = []
    for f0 in (1e-3, 5e-4, 2.5e-4):
        p = default_params("plane", f0=f0)
        traj = integrate(p, force_closure(p), z_i, 0.0, p.period)
        ts = np.linspace(0.0, p.period, 800)
        errs.append(max(abs(traj.interp(float(t)) - taylor_small_f0(p, z_i, float(t)))
                        for t in ts))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    ok = 3.2 <= r1 <= 4.8 and 3.2 <= r2 <= 4.8
    report("9", ok, f"halving-F0 error ratios {r1:.2f}, {r2:.2f} (target 4 +- 20%)")
    assert ok, f"second-order scaling violated: ratios {r1:.3f}, {r2:.3f}"


def test_criterion_10_multiplier_cross_check(lorentzian_scan, gaussian_scan):
    details = []
    for name, scan in (("lorentzian", lorentzian_scan), ("gaussian", gaussian_scan)):
        for orbit in scan["orbits"]:
            chk = multiplier_cross_check(scan["params"], orbit)
            assert chk.rel_error < 1e-4, f"{name}: multiplier mismatch {chk.rel_error:.2e}"
            details.append(f"{name}: {chk.rel_error:.1e}")
    report("10", True, "variational vs finite-difference multiplier " + "; ".join(details))


def test_criterion_11_no_fixed_points():
    for kind in ("plane", "lorentzian", "gaussian"):
        p = default_params(kind)
        flagged = fixed_point_scan(p, -25.0, 25.0, 1001)
        assert flagged == [], f"{kind}: spurious rest points {flagged}"
    report("11", True, "no rest points flagged on |z| <= 25 for any envelope")
