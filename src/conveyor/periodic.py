"""Location, refinement and certification of drive-periodic orbits.

A periodic solution is a fixed point of the period map P(z0) = z(T; 0, z0).
``find_periodic`` certifies one from a single guess (Newton shooting with
exact sensitivity, bisection fallback on any sign change of P(z) - z);
``scan_orbits`` sweeps a window and deduplicates; ``basin_probe`` measures
which initial conditions have reached an orbit by a given horizon; and
``boundedness_audit`` reports the largest amplitude over a set of certified
orbits, the empirical stand-in for the theoretical amplitude bound.

Candidates found where the drive has numerically underflowed to zero (far
tails of a decaying envelope) are flagged ``force_free`` rather than
treated as robust orbits: there the period map is the identity to machine
precision and every point looks fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from conveyor._newton import solve_fixed_point, solve_fixed_point_bracketed
from conveyor.errors import EmptyAudit, NoConvergence
from conveyor.integrate import (
    IntegratorConfig,
    Trajectory,
    flow_T,
    flow_T_with_sensitivity,
    integrate,
    period_gap,
    propagate,
)
from conveyor.model import ConveyorParams, force_closure, force_dz_closure

CERTIFICATION_TOL = 1e-9
DEDUPE_TOL = 1e-6
BASIN_TOL = 1e-3
# an orbit candidate is force-free when the drive along it stays below
# FORCE_FREE_SUP and the multiplier is neutral to FORCE_FREE_NEUTRAL
FORCE_FREE_SUP = 1e-9
FORCE_FREE_NEUTRAL = 1e-6


@dataclass(frozen=True)
class PeriodicOrbit:
    """A certified fixed point of the period map with one period of samples."""

    z_star: float
    period: float
    multiplier: float
    residual: float
    sup_norm: float
    trajectory: Trajectory
    force_free: bool = False

    @property
    def samples(self):
        """One period of (t, z) samples, endpoints matching within residual."""
        return self.trajectory.samples

    @property
    def attracting(self) -> bool:
        return 0.0 < self.multiplier < 1.0


class BasinPoint(NamedTuple):
    z_i: float
    z_final: float
    converged: bool


def _force_sup_along(p: ConveyorParams, traj: Trajectory, refine: int = 8) -> float:
    """max |F(t, z(t))| along a trajectory, sampling each dense segment."""
    rhs = force_closure(p)
    ts = traj.times
    best = 0.0
    for j in range(len(ts) - 1):
        t0, t1 = float(ts[j]), float(ts[j + 1])
        for i in range(refine):
            t = t0 + (t1 - t0) * i / refine
            v = abs(rhs(t, traj.interp(t)))
            if v > best:
                best = v
    v = abs(rhs(float(ts[-1]), float(traj.states[-1])))
    return max(best, v)


def _build_orbit(p: ConveyorParams, z_star: float, multiplier: float, residual: float,
                 cfg: IntegratorConfig | None) -> PeriodicOrbit:
    traj = integrate(p, force_closure(p), z_star, 0.0, p.period, cfg)
    # the solver's certificate is the stored samples' own seam gap; the
    # tighter re-measure adds the integration error the solve cannot see
    residual = max(residual, period_gap(p, z_star, cfg))
    sup = traj.sup_norm()
    force_free = (
        abs(multiplier - 1.0) < FORCE_FREE_NEUTRAL
        and _force_sup_along(p, traj) < FORCE_FREE_SUP
    )
    return PeriodicOrbit(
        z_star=z_star,
        period=p.period,
        multiplier=multiplier,
        residual=residual,
        sup_norm=sup,
        trajectory=traj,
        force_free=force_free,
    )


def find_periodic(p: ConveyorParams, z_guess: float,
                  cfg: IntegratorConfig | None = None,
                  tol: float = CERTIFICATION_TOL) -> PeriodicOrbit:
    """Certified periodic orbit from one guess.

    Newton iteration on R(z0) = P(z0) - z0 with the variational derivative,
    damped by step halving; any sign change of R seen along the way (or
    found by an expanding probe) is refined by bisection.  Raises
    NoConvergence when neither route certifies a fixed point: there is no
    nearby orbit, or its multiplier is neutral.

    Inspect ``force_free`` on the result before trusting it as a trap:
    candidates in regions of vanishing drive are fixed to machine precision
    but physically just parked.

    A candidate whose multiplier is neutral (|mu - 1| < 1e-6) cannot be a
    robust fixed point: in the envelope's slow tails the period map is so
    close to the identity that |P(z) - z| dips below any tolerance without
    a genuine zero nearby.  Such candidates trigger one bracket search
    around the guess for a non-neutral orbit; if the drive along them has
    underflowed outright they are returned flagged ``force_free``,
    otherwise NoConvergence is raised.
    """
    rhs = force_closure(p)
    rhs_dz = force_dz_closure(p)
    with_sens = lambda z: flow_T_with_sensitivity(p, z, cfg, rhs=rhs, rhs_dz=rhs_dz)
    value = lambda z: flow_T(p, z, cfg, rhs=rhs)

    res = solve_fixed_point(with_sens, value, z_guess, tol)
    orbit = _build_orbit(p, res.z_star, res.derivative, res.residual, cfg)
    if abs(orbit.multiplier - 1.0) >= FORCE_FREE_NEUTRAL:
        return orbit
    try:
        rescue = solve_fixed_point_bracketed(with_sens, value, z_guess, tol)
        candidate = _build_orbit(p, rescue.z_star, rescue.derivative, rescue.residual, cfg)
        if abs(candidate.multiplier - 1.0) >= FORCE_FREE_NEUTRAL:
            return candidate
    except NoConvergence:
        pass
    if orbit.force_free:
        return orbit
    raise NoConvergence(res.iterations, res.residual,
                        f"only a neutral-multiplier candidate near z={orbit.z_star:.6g} "
                        "(period map is locally indistinguishable from the identity)")


def scan_orbits(p: ConveyorParams, z_lo: float, z_hi: float, n_grid: int,
                cfg: IntegratorConfig | None = None,
                tol: float = CERTIFICATION_TOL,
                dedupe_tol: float = DEDUPE_TOL) -> list[PeriodicOrbit]:
    """All certified orbits found in [z_lo, z_hi], sorted by z_star.

    The period-map residual R is evaluated on the grid; every sign change
    is refined, and Newton shooting additionally runs from each local
    minimum of |R| (grid ends included) so tangential fixed points are not
    missed.  Duplicates within ``dedupe_tol`` collapse to the
    lowest-residual representative; force-free candidates are dropped.
    Returns an empty list when nothing in the window certifies.
    """
    if not z_lo < z_hi:
        raise ValueError(f"need z_lo < z_hi, got [{z_lo!r}, {z_hi!r}]")
    if n_grid < 2:
        raise ValueError(f"n_grid must be >= 2, got {n_grid!r}")

    rhs = force_closure(p)
    grid = [z_lo + (z_hi - z_lo) * i / (n_grid - 1) for i in range(n_grid)]
    resid = [flow_T(p, g, cfg, rhs=rhs) - g for g in grid]

    seeds: list[float] = []
    for i, g in enumerate(grid):
        left = abs(resid[i - 1]) if i > 0 else math.inf
        right = abs(resid[i + 1]) if i < n_grid - 1 else math.inf
        if abs(resid[i]) <= left and abs(resid[i]) <= right:
            seeds.append(g)
    for i in range(n_grid - 1):
        if resid[i] == 0.0 or resid[i] * resid[i + 1] < 0.0:
            seeds.append(0.5 * (grid[i] + grid[i + 1]))

    found: list[PeriodicOrbit] = []
    for seed in seeds:
        try:
            orbit = find_periodic(p, seed, cfg, tol)
        except NoConvergence:
            continue
        if orbit.force_free:
            continue
        if not z_lo - 1e-9 <= orbit.z_star <= z_hi + 1e-9:
            continue
        found.append(orbit)

    found.sort(key=lambda o: o.z_star)
    distinct: list[PeriodicOrbit] = []
    for orbit in found:
        if distinct and abs(orbit.z_star - distinct[-1].z_star) < dedupe_tol:
            if orbit.residual < distinct[-1].residual:
                distinct[-1] = orbit
        else:
            distinct.append(orbit)
    return distinct


def basin_probe(p: ConveyorParams, initial_conditions: Sequence[float], horizon: float,
                cfg: IntegratorConfig | None = None,
                orbits: Sequence[PeriodicOrbit] | None = None) -> list[BasinPoint]:
    """Where each initial condition ends up after ~horizon, and whether that
    is within 1e-3 of a certified orbit.

    The horizon is snapped up to a whole number of drive periods so the
    final state is phase-aligned with the orbits' z_star (comparing
    mid-phase values against a fixed point would fold the orbit's own
    oscillation amplitude into the distance).  When no orbit list is
    supplied, one is sought from z = 0 and then from each initial
    condition.
    """
    T = p.period
    if horizon < 10.0 * T:
        raise ValueError(f"horizon must be >= 10 periods ({10 * T:.6g}), got {horizon!r}")
    n_periods = math.ceil(horizon / T - 1e-9)

    if orbits is None:
        orbits = []
        for guess in [0.0, *initial_conditions]:
            try:
                orbit = find_periodic(p, guess, cfg)
            except NoConvergence:
                continue
            if orbit.force_free:
                continue
            if all(abs(orbit.z_star - o.z_star) >= DEDUPE_TOL for o in orbits):
                orbits.append(orbit)
            break  # one certified orbit is enough for the default probe

    targets = [o.z_star for o in orbits if not o.force_free]
    rhs = force_closure(p)
    out: list[BasinPoint] = []
    for z_i in initial_conditions:
        z_final = propagate(p, rhs, float(z_i), 0.0, n_periods * T, cfg)
        converged = any(abs(z_final - zs) < BASIN_TOL for zs in targets)
        out.append(BasinPoint(float(z_i), z_final, converged))
    return out


def boundedness_audit(orbits: Iterable[PeriodicOrbit]) -> float:
    """Largest sup-norm over the given certified orbits.

    Empirical counterpart of the theoretical statement that the set of
    periodic solutions is bounded; the theory's constant is not
    constructive, so the audit reports the observed maximum.
    """
    sups = [o.sup_norm for o in orbits]
    if not sups:
        raise EmptyAudit("boundedness audit needs at least one orbit")
    return max(sups)
