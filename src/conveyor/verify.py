"""Numerical certificates for computed orbits.

Any true drive-periodic solution z(t) satisfies two integral identities
over one period, obtained by multiplying the equation of motion by z' and
integrating, then by eliminating the drive's time derivative:

    energy:  int |F(t, z)|^2 dt  =  - int dV/dt (t, z) dt
    force:   int |F(t, z)|^2 dt  =  -(b f0 / 2k) int cos^2(kz - bt/2) f'(z) dt

Both sides are evaluated here by adaptive Gauss-Lobatto quadrature to the
fixed absolute tolerance ``QUAD_TOL`` on the orbit's dense output, the
shared int |F|^2 dt once per orbit; small relative residuals certify that
a computed orbit behaves like a genuine periodic solution rather than a
numerical coincidence.  ``multiplier_cross_check`` compares the Liouville
multiplier with a central difference of the full-period map, run at
``tight_period``'s tolerances, at the fixed step 1e-4.  The fixed-point
scan certifies that the flow has no rest points: it flags a grid point where
``model.log_drive_bound`` is -inf, that is where F(t, z) = 0 for every t,
which happens exactly when f0 = 0, since no envelope vanishes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

from conveyor.errors import ConveyorError
from conveyor.integrate import IntegratorConfig, Trajectory, _tight_config, flow_T
from conveyor.model import ConveyorParams, field, force_closure, log_drive_bound
from conveyor.periodic import PeriodicOrbit

QUAD_TOL = 1e-10
_FD_STEP = 1e-4
_RESIDUAL_EPS = 1e-30
# Gauss-Lobatto 4-point nodes/weights on [-1, 1] and their 7-point
# Kronrod extension (shared end and 1/sqrt(5) nodes)
_X2 = math.sqrt(2.0 / 3.0)
_X3 = 1.0 / math.sqrt(5.0)
_GL4_W = (1.0 / 6.0, 5.0 / 6.0)
_GK7_W = (11.0 / 210.0, 72.0 / 245.0, 125.0 / 294.0, 16.0 / 35.0)
_MAX_DEPTH = 48


class IdentityResult(NamedTuple):
    lhs: float
    rhs: float
    rel_residual: float


class MultiplierCheck(NamedTuple):
    variational: float
    finite_difference: float
    rel_error: float


def gauss_lobatto(fn: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive Gauss-Lobatto integral of fn over [a, b].

    Each interval is accepted when the 7-point Kronrod extension agrees
    with the embedded 4-point rule to the interval's share of ``QUAD_TOL``,
    otherwise it is bisected; the absolute error budget is conserved
    across splits.
    """
    if a == b:
        return 0.0
    fa, fb = fn(a), fn(b)

    def recurse(lo: float, hi: float, flo: float, fhi: float,
                budget: float, depth: int) -> float:
        c = 0.5 * (lo + hi)
        hw = 0.5 * (hi - lo)
        f_m2, f_p2 = fn(c - _X2 * hw), fn(c + _X2 * hw)
        f_m3, f_p3 = fn(c - _X3 * hw), fn(c + _X3 * hw)
        f_c = fn(c)
        i4 = hw * (_GL4_W[0] * (flo + fhi) + _GL4_W[1] * (f_m3 + f_p3))
        i7 = hw * (
            _GK7_W[0] * (flo + fhi)
            + _GK7_W[1] * (f_m2 + f_p2)
            + _GK7_W[2] * (f_m3 + f_p3)
            + _GK7_W[3] * f_c
        )
        if abs(i7 - i4) <= budget or depth >= _MAX_DEPTH:
            return i7
        return recurse(lo, c, flo, f_c, 0.5 * budget, depth + 1) + recurse(
            c, hi, f_c, fhi, 0.5 * budget, depth + 1
        )

    return recurse(a, b, fa, fb, QUAD_TOL, 0)


@lru_cache(maxsize=1)
def _force_squared_integral(traj: Trajectory, period: float) -> float:
    """int_0^period |F(t, z(t))|^2 dt, the left side both identities share."""
    rhs = force_closure(traj.params)
    return gauss_lobatto(lambda t: rhs(t, traj.interp(t)) ** 2, 0.0, period)


def _identity(orbit: PeriodicOrbit, factor: float,
              integrand: Callable[[float, float], float]) -> IdentityResult:
    """int |F|^2 dt against factor * int integrand(t, z(t)) dt over the orbit."""
    if orbit.residual > 1e-6:
        raise ConveyorError(
            f"orbit is not certified (residual {orbit.residual:.3e}); "
            "identities only hold on periodic solutions"
        )
    traj = orbit.trajectory
    lhs = _force_squared_integral(traj, orbit.period)
    rhs_val = factor * gauss_lobatto(lambda t: integrand(t, traj.interp(t)), 0.0, orbit.period)
    rel = abs(lhs - rhs_val) / (abs(lhs) + abs(rhs_val) + _RESIDUAL_EPS)
    return IdentityResult(lhs, rhs_val, rel)


def identity_energy(orbit: PeriodicOrbit) -> IdentityResult:
    """Energy-balance certificate: int |F|^2 dt vs -int dV/dt dt."""
    return _identity(orbit, -1.0, field(orbit.trajectory.params).potential_dt)


def identity_force(orbit: PeriodicOrbit) -> IdentityResult:
    """Drive-elimination certificate:

    int |F|^2 dt vs -(b f0 / 2k) int cos^2(kz - bt/2) f'(z) dt.

    With a plane envelope the right side vanishes identically, so plane
    waves admit no non-trivial periodic solutions; for decaying envelopes
    a positive right side forces the orbit to sit where f' < 0 on average.
    """
    p = orbit.trajectory.params
    envelope = field(p).envelope
    half_b = 0.5 * p.b
    k = p.k

    def weighted_slope(t: float, z: float) -> float:
        c = math.cos(k * z - half_b * t)
        return c * c * envelope(z)[1]

    return _identity(orbit, -(p.b * p.f0) / (2.0 * p.k), weighted_slope)


def fixed_point_scan(p: ConveyorParams, z_lo: float, z_hi: float, n: int) -> list[float]:
    """Grid points where the flow is at rest: F(t, z) = 0 for every t.

    A point is flagged where ``log_drive_bound`` is -inf.  The bound works
    in log space, so a point where the envelope merely underflows double
    precision is not flagged; for f0 > 0 the list is empty, and for f0 = 0
    it holds every grid point.
    """
    if not z_lo < z_hi:
        raise ValueError(f"need z_lo < z_hi, got [{z_lo!r}, {z_hi!r}]")
    if n < 2:
        raise ValueError(f"need n >= 2 grid points, got {n!r}")
    grid = (z_lo + (z_hi - z_lo) * i / (n - 1) for i in range(n))
    return [z for z in grid if log_drive_bound(p, z) == -math.inf]


def multiplier_cross_check(p: ConveyorParams, orbit: PeriodicOrbit,
                           cfg: IntegratorConfig | None = None) -> MultiplierCheck:
    """Liouville multiplier vs central finite difference of the period map.

    P runs over the full period at a hundredth of ``cfg``'s tolerances, as
    ``tight_period`` does, so its noise over the fixed step ``_FD_STEP`` =
    1e-4 stays below 1e-4 of a multiplier as small as the 8e-6 of f0 = 10.
    """
    h = _FD_STEP
    rhs = force_closure(p)
    tight = _tight_config(cfg)
    plus = flow_T(p, orbit.z_star + h, tight, rhs=rhs)
    minus = flow_T(p, orbit.z_star - h, tight, rhs=rhs)
    fd = (plus - minus) / (2.0 * h)
    rel = abs(orbit.multiplier - fd) / max(abs(fd), 1e-300)
    return MultiplierCheck(orbit.multiplier, fd, rel)
