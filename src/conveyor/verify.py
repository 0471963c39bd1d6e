"""Numerical certificates for computed orbits.

Any true drive-periodic solution z(t) satisfies two integral identities
over any of its periods, obtained by multiplying the equation of motion by
z' and integrating, then by eliminating the drive's time derivative:

    energy:  int |F(t, z)|^2 dt  =  - int dV/dt (t, z) dt
    force:   int |F(t, z)|^2 dt  =  -(b f0 / 2k) int cos^2(kz - bt/2) f'(z) dt

Both sides are integrals over the orbit's stored run, 2*pi/b for a solved
orbit, taken in one pass of ``Trajectory.integral`` over ``identity_terms``
of the field, which the orbit caches and both identities read: a 4-point
Gauss-Legendre rule on every accepted step of the run, z read off that
step's quartic, so the rule sees a smooth integrand on each step; small
relative residuals certify that a computed orbit behaves like a genuine
periodic solution rather than a numerical coincidence.
``multiplier_cross_check`` compares the Liouville multiplier mu = mu_h**2
with the square of a central difference of the half-period map P_h, run at
the tolerances of the orbit's stored run, at the fixed step 1e-4.  The fixed-point
scan certifies that the flow has no rest points, points where F(t, z) = 0
for every t: since no envelope vanishes, it flags every grid point when
f0 = 0 and none otherwise.
"""

from __future__ import annotations

from typing import NamedTuple

from conveyor.errors import ConveyorError
from conveyor.integrate import IntegratorConfig, _grid, _half_map, _tight_config
from conveyor.model import ConveyorParams, force_closure
from conveyor.periodic import PeriodicOrbit

_FD_STEP = 1e-4
_RESIDUAL_EPS = 1e-30


class IdentityResult(NamedTuple):
    lhs: float
    rhs: float
    rel_residual: float


class MultiplierCheck(NamedTuple):
    variational: float
    finite_difference: float
    rel_error: float


def _identity(orbit: PeriodicOrbit, factor: float, term: int) -> IdentityResult:
    """int |F|^2 dt against factor * int of ``Field.identity_terms``' entry
    ``term`` over the stored run, from the orbit's one cached pass: over
    2*pi/b for a solved orbit, half of each full-period integral."""
    if orbit.residual > 1e-6:
        raise ConveyorError(
            f"orbit is not certified (residual {orbit.residual:.3e}); "
            "identities only hold on periodic solutions"
        )
    sums = orbit._identity_sums
    lhs, rhs_val = sums[0], factor * sums[term]
    rel = abs(lhs - rhs_val) / (abs(lhs) + abs(rhs_val) + _RESIDUAL_EPS)
    return IdentityResult(lhs, rhs_val, rel)


def identity_energy(orbit: PeriodicOrbit) -> IdentityResult:
    """Energy-balance certificate: int |F|^2 dt vs -int dV/dt dt."""
    return _identity(orbit, -1.0, 1)


def identity_force(orbit: PeriodicOrbit) -> IdentityResult:
    """Drive-elimination certificate:

    int |F|^2 dt vs -(b f0 / 2k) int cos^2(kz - bt/2) f'(z) dt.

    With a plane envelope the right side vanishes identically, so plane
    waves admit no non-trivial periodic solutions; for decaying envelopes
    a positive right side forces the orbit to sit where f' < 0 on average.
    """
    p = orbit.trajectory.params
    return _identity(orbit, -(p.b * p.f0) / (2.0 * p.k), 2)


def fixed_point_scan(p: ConveyorParams, z_lo: float, z_hi: float, n: int) -> list[float]:
    """Grid points where the flow is at rest: F(t, z) = 0 for every t.

    F = f0 (f cos^2)' and no envelope vanishes, so that happens exactly when
    f0 = 0: the list holds every grid point then and is empty otherwise,
    however far the envelope has underflowed.  The window is checked first,
    as ``periodic.scan_orbits`` checks it.
    """
    grid = _grid(z_lo, z_hi, n)
    return grid if p.f0 == 0.0 else []


def multiplier_cross_check(p: ConveyorParams, orbit: PeriodicOrbit,
                           cfg: IntegratorConfig | None = None) -> MultiplierCheck:
    """Liouville multiplier vs the squared central finite difference of the
    half-period map P_h, mu = mu_h**2.

    P_h runs over 2*pi/b at a hundredth of ``cfg``'s tolerances, as the
    orbit's stored run does, so its noise over the fixed step ``_FD_STEP`` =
    1e-4 stays below 1e-4 of a multiplier as small as the 8e-6 of f0 = 10.
    Squared, the half-period difference carries, relative to mu, at most the
    noise of a full-period one where mu <= 1, and far less where mu is small.
    ``p`` must be the orbit's own parameter set, else ValueError.
    """
    if p != orbit.trajectory.params:
        raise ValueError("p is not the parameter set of the orbit")
    h, tight, rhs = _FD_STEP, _tight_config(cfg), force_closure(p)
    plus = _half_map(p, orbit.z_star + h, tight, rhs)[0]
    minus = _half_map(p, orbit.z_star - h, tight, rhs)[0]
    fd_h = (plus - minus) / (2.0 * h)
    fd = fd_h * fd_h
    rel = abs(orbit.multiplier - fd) / max(abs(fd), 1e-300)
    return MultiplierCheck(orbit.multiplier, fd, rel)
