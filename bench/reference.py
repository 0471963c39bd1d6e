"""Independent reference solutions of the conveyor equation.

Written from the equation of motion alone, without importing the package
under test:

    dz/dt = F(t, z) = dV/dz,   V(t, z) = f0 * f(z) * cos^2(k z - b t / 2),

with f(z) = 1 (plane), z0^2 / (z0^2 + z^2) (Lorentzian) or
exp(-2 z^2 / z0^2) (Gaussian).  Every solve uses scipy's DOP853 at
rtol = 1e-12, a hundred times tighter than the package default, with the
step capped at a tenth of the drive period so the forcing is always
resolved.  Several initial conditions with the same parameters are solved
as independent lanes of one vector ODE; so are releases with different
parameters, each lane carrying its own.

scipy is imported on first use so that a process which never checks
anything never pays for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RTOL = 1e-12
ATOL = 1e-14
FD_STEP = 1e-5


@dataclass(frozen=True)
class Field:
    """F(t, z) and V(t, z), vectorised over z; the parameters may be arrays
    of the same length as z, one value per lane."""

    kind: str
    f0: float
    b: float
    k: float
    z0: float = 1.0

    @property
    def period(self) -> float:
        return 4.0 * math.pi / self.b

    def envelope(self, z):
        z = np.asarray(z, dtype=float)
        if self.kind == "plane":
            return np.ones_like(z), np.zeros_like(z)
        s = self.z0 * self.z0
        if self.kind == "lorentzian":
            den = s + z * z
            return s / den, -2.0 * s * z / (den * den)
        f = np.exp(-2.0 * z * z / s)
        return f, -4.0 * z / s * f

    def force(self, t, z):
        z = np.asarray(z, dtype=float)
        f, df = self.envelope(z)
        ph = self.k * z - 0.5 * self.b * t
        c, s = np.cos(ph), np.sin(ph)
        return -self.k * self.f0 * f * np.sin(2.0 * ph) + self.f0 * c * c * df

    def potential(self, t, z):
        z = np.asarray(z, dtype=float)
        f, _ = self.envelope(z)
        c = np.cos(self.k * z - 0.5 * self.b * t)
        return self.f0 * f * c * c


def _solve(rhs, z_init, t_end, max_step, dense=False):
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, (0.0, t_end), np.asarray(z_init, dtype=float), method="DOP853",
                    rtol=RTOL, atol=ATOL, max_step=max_step, dense_output=dense)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol


def period_map(field: Field, z, lam=None) -> np.ndarray:
    """P(z) = z(T; 0, z) for each lane; with ``lam`` (one value per lane)
    the homotopy flow dz/dt = -(1 - lam) z + lam F(t, z) is used instead."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if lam is None:
        rhs = field.force
    else:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        rhs = lambda t, y: -(1.0 - lam) * y + lam * field.force(t, y)
    return _solve(rhs, z, field.period, field.period / 10.0).y[:, -1]


def fixed_point_data(field: Field, z_star: float) -> tuple[float, float]:
    """(|P(z*) - z*|, central-difference dP/dz at z*) from one 3-lane solve."""
    h = FD_STEP
    pz, pp, pm = period_map(field, [z_star, z_star + h, z_star - h])
    return abs(pz - z_star), (pp - pm) / (2.0 * h)


def residual_signs(field: Field, grid) -> np.ndarray:
    """sign(P(z) - z) on a grid, one lane per grid point."""
    grid = np.asarray(grid, dtype=float)
    return np.sign(period_map(field, grid) - grid)


def trajectories(fields: list[Field], z_init, t_end: float):
    """Dense reference solution for several releases of one envelope kind,
    each lane with its own parameters: call the result with a time array to
    get an array of shape (lanes, times)."""
    lanes = Field(fields[0].kind, *(np.array([getattr(f, name) for f in fields])
                                    for name in ("f0", "b", "k", "z0")))
    max_step = min(f.period for f in fields) / 10.0
    return _solve(lanes.force, z_init, t_end, max_step, dense=True).sol


def plane_phase_limit(field: Field, z_i: float, t: float) -> float:
    """Plane-envelope z(t) through the phase u = 2kz - bt, which obeys
    du/dt = -(b + a sin u) with a = 2 f0 k^2; valid in every regime."""
    a = 2.0 * field.f0 * field.k * field.k
    b = field.b
    rhs = lambda _t, u: -(b + a * np.sin(u))
    # autonomous, so no step cap is needed
    sol = _solve(rhs, [2.0 * field.k * z_i], t, math.inf)
    return float((sol.y[0, -1] + b * t) / (2.0 * field.k))
