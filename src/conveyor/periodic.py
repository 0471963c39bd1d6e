"""Location, refinement and certification of drive-periodic orbits.

A periodic solution is a fixed point of the period map P(z0) = z(T; 0, z0).
The equation is scalar, so P is strictly increasing and hyperbolic orbits
sit at sign changes of R = P - z.  Solves run on P_h, the increasing map
over the drive's minimal period 2*pi/b: P = P_h o P_h, so P_h - z has the
sign of R and the fixed points of P, and mu = mu_h**2.  ``find_periodic``
certifies the orbit that captures a guess by Newton shooting with exact
sensitivity, or parks a guess where the drive bound
``model.log_drive_bound`` is below ``FORCE_FREE_SUP`` (flagged
``force_free``: every point looks fixed); ``scan_orbits`` solves in every
grid cell where R changes sign, repelling orbits included; ``basin_probe``
measures which initial conditions have reached an orbit by a given
horizon; and ``boundedness_audit`` reports the largest amplitude over a
set of certified orbits, the empirical stand-in for the theoretical bound.
The thresholds are module constants, not parameters: a solve certifies at
|P_h(z) - z| < ``CERTIFICATION_TOL`` and a scan merges orbits closer than
``DEDUPE_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from conveyor._newton import NEUTRAL, solve_fixed_point
from conveyor.errors import EmptyAudit, NoConvergence
from conveyor.integrate import (
    IntegratorConfig,
    Trajectory,
    _half_map,
    flow_T,
    propagate,
    tight_period,
)
from conveyor.model import ConveyorParams, force_closure, force_dz_closure, log_drive_bound

CERTIFICATION_TOL = 1e-9
DEDUPE_TOL = 1e-6
BASIN_TOL = 1e-3
# a guess is force-free when ``log_drive_bound`` there is below
# log(FORCE_FREE_SUP)
FORCE_FREE_SUP = 1e-9


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


def _build_orbit(p: ConveyorParams, z_star: float, multiplier: float,
                 cfg: IntegratorConfig | None, force_free: bool = False) -> PeriodicOrbit:
    traj = tight_period(p, z_star, cfg)
    # the certificate is the stored period's own seam gap; that period runs at
    # a hundredth of the solve's tolerances, so the gap shows the integration
    # error that the solve, which reads its own stepper, cannot see
    return PeriodicOrbit(
        z_star=z_star,
        period=p.period,
        multiplier=multiplier,
        residual=abs(traj.interp(p.period) - z_star),
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
    guess where ``model.log_drive_bound`` puts the drive below
    ``FORCE_FREE_SUP`` (every guess when f0 = 0) is not solved but returned
    as it stands, parked, with multiplier 1.
    """
    return _certify(p, z_guess, cfg)


def _certify(p: ConveyorParams, z_guess: float, cfg: IntegratorConfig | None,
             bracket: Sequence[tuple[float, float]] = ()) -> PeriodicOrbit:
    """``find_periodic`` with known (z, R) points for ``solve_fixed_point``."""
    if log_drive_bound(p, z_guess) < math.log(FORCE_FREE_SUP):
        return _build_orbit(p, z_guess, 1.0, cfg, force_free=True)
    if p.envelope.kind == "plane":
        # f' == 0 turns the force identity into int F^2 dt = 0 over a period
        gap = abs(flow_T(p, z_guess, cfg) - z_guess)
        raise NoConvergence(1, gap, "a plane drive has no periodic orbit")
    rhs, rhs_dz = force_closure(p), force_dz_closure(p)
    res = solve_fixed_point(lambda z: _half_map(p, z, cfg, rhs, rhs_dz),
                            z_guess, CERTIFICATION_TOL, bracket)
    mu = res.derivative * res.derivative
    if abs(mu - 1.0) < NEUTRAL:
        raise NoConvergence(res.iterations, res.residual,
                            f"only a neutral-multiplier candidate near z={res.z_star:.6g} "
                            "(period map is locally indistinguishable from the identity)")
    return _build_orbit(p, res.z_star, mu, cfg)


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


def scan_orbits(p: ConveyorParams, z_lo: float, z_hi: float, n_grid: int,
                cfg: IntegratorConfig | None = None) -> list[PeriodicOrbit]:
    """All certified orbits found in [z_lo, z_hi], sorted by z_star.

    R is evaluated on the grid and at ``_hidden_pair_seeds``' probes, which
    split a dip of R through zero into two sign changes.  Every hyperbolic
    orbit, repelling ones too, sits at one, and Newton shooting runs inside
    each such cell, seeded where its chord crosses zero, to
    ``CERTIFICATION_TOL``.  Duplicates within ``DEDUPE_TOL`` collapse to the
    lowest-residual representative; force-free candidates are dropped.
    Returns an empty list when nothing in the window certifies.
    """
    if not z_lo < z_hi:
        raise ValueError(f"need z_lo < z_hi, got [{z_lo!r}, {z_hi!r}]")
    if n_grid < 2:
        raise ValueError(f"n_grid must be >= 2, got {n_grid!r}")

    rhs = force_closure(p)
    grid = [z_lo + (z_hi - z_lo) * i / (n_grid - 1) for i in range(n_grid)]
    resid = [_half_map(p, g, cfg, rhs)[0] - g for g in grid]
    probes = [(v, _half_map(p, v, cfg, rhs)[0] - v) for v in _hidden_pair_seeds(grid, resid)]
    cells = sorted([*zip(grid, resid), *probes])

    found: list[PeriodicOrbit] = []
    for (za, a), (zb, b) in zip(cells, cells[1:]):
        # a grid value of exactly 0 seeds itself; a cell with two is idle
        if not (a * b < 0.0 or (a == 0.0) != (b == 0.0)):
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
    if not 10.0 * T <= horizon < math.inf:
        raise ValueError(f"horizon must be finite and >= 10 periods ({10 * T:.6g}), "
                         f"got {horizon!r}")
    n_periods = math.ceil(horizon / T - 1e-9)

    if orbits is None:
        orbits = []
        for guess in [0.0, *initial_conditions]:
            try:
                orbit = find_periodic(p, guess, cfg)
            except NoConvergence:
                continue
            if not orbit.force_free:
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
