"""Location, refinement and certification of drive-periodic orbits.

A periodic solution is a fixed point of the period map P(z0) = z(T; 0, z0).
The equation is scalar, so P is strictly increasing and hyperbolic orbits
sit at sign changes of R = P - z.  Solves run on P_h, the increasing map
over the drive's minimal period 2*pi/b: P = P_h o P_h, so P_h - z has the
sign of R and the fixed points of P, and mu = mu_h**2.  ``find_periodic``
certifies the orbit that captures a guess by Newton shooting with exact
sensitivity, or parks a guess where the drive bound ``model.drive_bound``
is below ``FORCE_FREE_SUP`` (flagged ``force_free``: every point looks
fixed); ``scan_orbits`` solves in every grid cell where R changes sign,
repelling orbits included, reading the grid's signs from loose runs and
evaluating at the solve's tolerance only the values its seeds, brackets
and probes are built from; and ``basin_probe`` measures which initial
conditions have reached one of a given list of orbits by a given horizon.
``_solve`` solves and certifies every orbit, the homotopy's too, on one
run over 2*pi/b at a hundredth of the tolerances that the orbit stores.
The thresholds are module constants, not parameters: a solve certifies at
|P_h(z) - z| < ``CERTIFICATION_TOL``, a scan merges orbits closer than
``DEDUPE_TOL``, and its grid runs at ``GRID_RTOL`` and ``GRID_ATOL`` and
trusts a sign only beyond ``SIGN_MARGIN`` times the run's error gauge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from conveyor._newton import NEUTRAL, solve_fixed_point
from conveyor.errors import NoConvergence
from conveyor.integrate import (
    IntegratorConfig,
    Trajectory,
    _dp45_scalar,
    _grid,
    _half_map,
    _tight_config,
    integrate,
    propagate,
)
from conveyor.model import ConveyorParams, drive_bound, field, force_closure

CERTIFICATION_TOL = 1e-9
DEDUPE_TOL = 1e-6
BASIN_TOL = 1e-3
# a guess is force-free when ``drive_bound`` there, a bound on |F| over all
# t, is below this; 1e-9 lies some 300 decades inside the double range
FORCE_FREE_SUP = 1e-9
# ``scan_orbits`` reads its grid's signs at these tolerances, and trusts a sign
# where |R| exceeds SIGN_MARGIN times the run's summed step error estimates
GRID_RTOL = 1e-6
GRID_ATOL = 1e-8
SIGN_MARGIN = 100.0


@dataclass(frozen=True)
class PeriodicOrbit:
    """A certified fixed point of the period map, stored over 2*pi/b = period/2;
    ``residual`` is (1 + mu_h) times that run's seam gap, ~ |P(z*) - z*|."""

    z_star: float
    period: float
    multiplier: float
    residual: float
    sup_norm: float
    trajectory: Trajectory
    force_free: bool = False

    @cached_property
    def _identity_sums(self) -> tuple[float, ...]:
        # both of ``verify``'s identities read this; not a field, so replace() drops it
        return tuple(self.trajectory.integral(field(self.trajectory.params).identity_terms))


class BasinPoint(NamedTuple):
    z_i: float
    z_final: float
    converged: bool


def _build_orbit(p: ConveyorParams, z_star: float, mu_h: float, cfg: IntegratorConfig | None,
                 rhs: Callable[[float, float], float], force_free: bool = False) -> PeriodicOrbit:
    # the run over 2*pi/b at a hundredth of the solve's tolerances shows, in its
    # seam gap e, the error that the solve, reading its own stepper, cannot see;
    # the certificate is P(z*) - z* = P_h(z* + e) - z* = (1 + mu_h) e + O(e^2)
    traj = integrate(p, rhs, z_star, 0.0, 0.5 * p.period, _tight_config(cfg))
    return PeriodicOrbit(
        z_star=z_star,
        period=p.period,
        multiplier=mu_h * mu_h,
        residual=(1.0 + mu_h) * abs(traj.interp(traj.t1) - z_star),
        sup_norm=traj.sup_norm(),
        trajectory=traj,
        force_free=force_free,
    )


def find_periodic(p: ConveyorParams, z_guess: float,
                  cfg: IntegratorConfig | None = None) -> PeriodicOrbit:
    """Certified periodic orbit that captures one guess.

    The iterates of P move from the guess to the first fixed point in the
    direction of sign R, R = P(z0) - z0; Newton shooting with the
    variational derivative marches that way to a sign change of R and stays
    inside it, so a repelling orbit is never captured.  The solve stops at
    |P_h(z) - z| < ``CERTIFICATION_TOL``.  Raises NoConvergence when nothing
    certifies within ``_newton.SPAN`` of the guess or the only candidate is
    neutral (|mu - 1| < 1e-6: in the envelope's slow tails |P(z) - z| dips
    below the tolerance with no zero nearby), and at once for a driven
    plane envelope, which has no periodic orbit at all (see
    ``verify.identity_force``).

    Inspect ``force_free`` on the result before trusting it as a trap: a
    guess where ``model.drive_bound`` puts the drive below
    ``FORCE_FREE_SUP`` (every guess when f0 = 0) is not solved but returned
    as it stands, parked, with multiplier 1.
    """
    return _certify(p, z_guess, cfg)


def _certify(p: ConveyorParams, z_guess: float, cfg: IntegratorConfig | None,
             bracket: Sequence[tuple[float, float]] = ()) -> PeriodicOrbit:
    """``find_periodic`` with known (z, R) points for ``solve_fixed_point``."""
    rhs = force_closure(p)
    if drive_bound(p, z_guess) < FORCE_FREE_SUP:
        return _build_orbit(p, z_guess, 1.0, cfg, rhs, force_free=True)
    if p.envelope.kind == "plane":
        # f' == 0 turns the force identity into int F^2 dt = 0 over a period
        raise NoConvergence(0, math.nan, "a plane drive has no periodic orbit")
    return _solve(p, rhs, field(p).force_and_dz, z_guess, CERTIFICATION_TOL, cfg, bracket)


def _solve(p: ConveyorParams, rhs: Callable[[float, float], float],
           rhs_and_dz: Callable[[float, float], tuple[float, float]], z_guess: float,
           tol: float, cfg: IntegratorConfig | None,
           bracket: Sequence[tuple[float, float]] = ()) -> PeriodicOrbit:
    """The orbit of dz/dt = rhs(t, z), F's or a homotopy blend's, that captures
    z_guess: |P_h(z) - z| < tol, then ``_build_orbit``.  NoConvergence, with
    the solve's map count, when the solve fails or its slope is neutral."""
    res = solve_fixed_point(lambda z: _half_map(p, z, cfg, rhs, rhs_and_dz), z_guess, tol, bracket)
    if abs(res.derivative * res.derivative - 1.0) < NEUTRAL:
        raise NoConvergence(res.iterations, res.residual,
                            f"only a neutral-multiplier candidate near z={res.z_star:.6g} "
                            "(period map is locally indistinguishable from the identity)")
    return _build_orbit(p, res.z_star, res.derivative, cfg, rhs)


def _hidden_pair_seeds(grid: Sequence[float], resid: Sequence[float]) -> list[float]:
    """Probes for a close pair of orbits that no sign change of the grid shows.

    Such a pair leaves an interior local minimum of |R| between same-sign
    neighbours.  The parabola through the three grid values there is the
    local model of R; where it reaches zero, its vertex is the probe.
    """
    seeds = []
    for i in range(1, len(grid) - 1):
        left, mid, right = resid[i - 1], resid[i], resid[i + 1]
        # R ~ mid + slope*s + curv*s^2 with s in grid steps from grid[i]
        slope, curv = 0.5 * (right - left), 0.5 * (right + left) - mid
        if (mid * left > 0.0 and mid * right > 0.0 and abs(mid) <= min(abs(left), abs(right))
                and curv != 0.0 and slope * slope - 4.0 * mid * curv >= 0.0):
            seeds.append(grid[i] - slope / (2.0 * curv) * (grid[i + 1] - grid[i]))
    return seeds


def _grid_config(cfg: IntegratorConfig | None, period: float) -> IntegratorConfig:
    """The scan grid's sign-only config: ``cfg`` with rtol ``GRID_RTOL``,
    atol ``GRID_ATOL`` and max_step period/8, each never tighter than its own."""
    cfg = cfg or IntegratorConfig()
    return replace(cfg, rtol=max(cfg.rtol, GRID_RTOL), atol=max(cfg.atol, GRID_ATOL),
                   max_step=max(cfg.resolved(period)[2], period / 8.0))


def _changes_sign(a: float, b: float) -> bool:
    """Whether a cell with end values a and b holds a root: a grid value of
    exactly 0 seeds itself; a cell with two is idle."""
    return a * b < 0.0 or (a == 0.0) != (b == 0.0)


def scan_orbits(p: ConveyorParams, z_lo: float, z_hi: float, n_grid: int,
                cfg: IntegratorConfig | None = None) -> list[PeriodicOrbit]:
    """All certified orbits found in [z_lo, z_hi], sorted by z_star.

    R = P_h - z is evaluated on the grid and at ``_hidden_pair_seeds``'
    probes, which split a dip of R through zero into two sign changes.
    Every hyperbolic orbit, repelling ones too, sits at one, and Newton
    shooting runs inside each such cell, seeded where its chord crosses
    zero, to ``CERTIFICATION_TOL``.  Duplicates within ``DEDUPE_TOL``
    collapse to the lowest-residual representative; force-free candidates
    are dropped.  Returns an empty list when nothing in the window certifies.

    The grid is read for signs only, so each point runs first on one loose
    config: rtol ``GRID_RTOL`` = 1e-6, atol ``GRID_ATOL`` = 1e-8 and
    max_step period/8, none tighter than ``cfg``'s.  Over the 4,165 grid
    points of the benchmark's orbit sets and the two reference windows, the
    loose tolerances at the default ceiling of period/20 take 2.35 times
    fewer F evaluations than ``cfg``'s, and the ceiling of period/8 3.3
    times; period/4 would save little more and cut the smallest |R| over its
    loose error from 591 to 119.  A loose value's error is gauged by the
    run's summed step error estimates, err_sum, which bound it within 5.7
    times on those points.  These points are then evaluated again at ``cfg``:

    - every point with |R| <= ``SIGN_MARGIN`` * err_sum = 100 err_sum, so
      each sign read from a loose value is R's own;
    - both ends of every cell whose signs change;
    - all three points of every triple that could, with each loose value
      anywhere within its margin, meet ``_hidden_pair_seeds``' test.

    Chord seeds, brackets and probes thus come from values at ``cfg``, and
    the orbits are bit for bit those of a grid run entirely at ``cfg``.
    """
    grid = _grid(z_lo, z_hi, n_grid)
    rhs = force_closure(p)
    loose = _grid_config(cfg, p.period)
    resid, slack = [], []
    for g in grid:
        z1, _, err_sum, *_ = _dp45_scalar(p, rhs, g, 0.0, 0.5 * p.period, loose, False)
        resid.append(z1 - g)
        slack.append(SIGN_MARGIN * err_sum)
    settled = [False] * len(grid)

    def settle(*points: int) -> None:
        for i in points:
            if not settled[i]:
                settled[i] = True
                resid[i], slack[i] = _half_map(p, grid[i], cfg, rhs)[0] - grid[i], 0.0

    for i in range(len(grid)):
        if abs(resid[i]) <= slack[i]:
            settle(i)
    for i in range(len(grid) - 1):
        if _changes_sign(resid[i], resid[i + 1]):
            settle(i, i + 1)
    for i in range(1, len(grid) - 1):
        # _hidden_pair_seeds' test as some values within the slacks could pass
        # it: same signs, |mid| at most its neighbours', and a parabola that
        # reaches zero, (c - a)^2 >= 8 |mid| (a + c) with a, c = |left|,
        # |right| - |mid| >= 0, so neighbours that differ by 8 |mid| or more
        left, mid, right = (abs(v) for v in resid[i - 1:i + 2])
        e_left, e_mid, e_right = slack[i - 1:i + 2]
        if (resid[i] * resid[i - 1] > 0.0 and resid[i] * resid[i + 1] > 0.0
                and mid - e_mid <= min(left + e_left, right + e_right)
                and abs(right - left) + e_left + e_right >= 8.0 * (mid - e_mid)):
            settle(i - 1, i, i + 1)

    probes = [(v, _half_map(p, v, cfg, rhs)[0] - v) for v in _hidden_pair_seeds(grid, resid)]
    cells = sorted([*zip(grid, resid), *probes])

    found: list[PeriodicOrbit] = []
    for (za, a), (zb, b) in zip(cells, cells[1:]):
        if not _changes_sign(a, b):
            continue
        try:
            orbit = _certify(p, za + (zb - za) * a / (a - b), cfg, ((za, a), (zb, b)))
        except NoConvergence:
            continue
        if not orbit.force_free and z_lo - 1e-9 <= orbit.z_star <= z_hi + 1e-9:
            found.append(orbit)

    found.sort(key=lambda o: o.z_star)
    distinct: list[PeriodicOrbit] = []
    for orbit in found:
        if distinct and abs(orbit.z_star - distinct[-1].z_star) < DEDUPE_TOL:
            if orbit.residual < distinct[-1].residual:
                distinct[-1] = orbit
        else:
            distinct.append(orbit)
    return distinct


def basin_probe(p: ConveyorParams, initial_conditions: Sequence[float], horizon: float,
                orbits: Sequence[PeriodicOrbit],
                cfg: IntegratorConfig | None = None) -> list[BasinPoint]:
    """Where each initial condition ends up after ~horizon, and whether that
    is within ``BASIN_TOL`` of one of ``orbits`` (force-free ones ignored),
    e.g. the list ``scan_orbits`` returns.

    The horizon is snapped up to a whole number of drive periods so the
    final state is phase-aligned with the orbits' z_star (comparing
    mid-phase values against a fixed point would fold the orbit's own
    oscillation amplitude into the distance).
    """
    T = p.period
    if not 10.0 * T <= horizon < math.inf:
        raise ValueError(f"horizon must be finite and >= 10 periods ({10 * T:.6g}), "
                         f"got {horizon!r}")
    n_periods = math.ceil(horizon / T - 1e-9)
    targets = [o.z_star for o in orbits if not o.force_free]
    rhs = force_closure(p)
    out: list[BasinPoint] = []
    for z_i in initial_conditions:
        z_final = propagate(p, rhs, float(z_i), 0.0, n_periods * T, cfg)
        converged = any(abs(z_final - zs) < BASIN_TOL for zs in targets)
        out.append(BasinPoint(float(z_i), z_final, converged))
    return out

