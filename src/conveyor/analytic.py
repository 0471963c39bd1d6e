"""Closed-form plane-wave solutions, drift velocities, and the weak-drive limit.

With a flat envelope (f == 1) the equation of motion reduces to the phase
equation u' = -(b + a sin u), u = 2kz - bt, a = 2*f0*k**2, which integrates
in closed form.  Three regimes follow from the sign of the discriminant
b**2 - a**2:

* oscillatory (b > a): fringes slip past the particle; z oscillates around
  a drift line of slope b/(2k) - sqrt(b**2 - a**2)/(2k);
* rectilinear (b < a): the particle locks to the fringes and translates at
  the conveyor speed b/(2k);
* degenerate (b == a to 1e-12 relative): the borderline, where the trigono-
  metric solution collapses to its tangent-linearisation limit.

All branch bookkeeping is done on the phase u so that z(t) is continuous
and z(0) = z_i holds exactly, which is the usual "pick the arctan branch
with arctan(tan(x)) = x" rule made algorithmic.  The rectilinear branch is
evaluated with explicitly real exponential formulas rather than complex
arithmetic, so no spurious imaginary residue enters at roundoff level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from conveyor.errors import WrongEnvelope
from conveyor.model import (
    DEGENERATE,
    OSCILLATORY,
    ConveyorParams,
    plane_regime,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PlaneSolution:
    """Closed-form solution of the plane-wave problem from z(0) = z_i."""

    z_i: float
    params: ConveyorParams

    def __post_init__(self):
        if self.params.envelope.kind != "plane":
            raise WrongEnvelope(
                f"plane-wave solution requires the plane envelope, got "
                f"{self.params.envelope.kind!r}"
            )
        # the phase 2k z_i must be a finite double, or the branch index overflows
        if not math.isfinite(2.0 * self.params.k * self.z_i):
            raise ValueError(f"z_i must be finite with a finite phase 2k*z_i, got {self.z_i!r}")

    @property
    def regime(self) -> str:
        return plane_regime(self.params)

    @property
    def discriminant(self) -> float:
        p = self.params
        a = 2.0 * p.f0 * p.k * p.k
        return p.b * p.b - a * a

    def __call__(self, t: float) -> float:
        return plane_solution(self, t)


def plane_solution(s: PlaneSolution, t: float) -> float:
    """z(t) for the plane-wave conveyor, continuous across all branch seams."""
    p = s.params
    b, k = p.b, p.k
    a = 2.0 * p.f0 * k * k
    u_i = 2.0 * k * s.z_i
    # u_i is finite (checked by PlaneSolution), so this also makes b t finite
    if not math.isfinite(u_i - b * t):
        raise ValueError(f"t must be finite with a finite phase 2k*z_i - b*t, got {t!r}")
    regime = s.regime

    if regime == DEGENERATE:
        # single stable phase -pi/2 (mod 2*pi); tangent-linearised branch
        m0 = math.floor((u_i + 0.5 * math.pi) / _TWO_PI)
        u_red = u_i - _TWO_PI * m0
        if u_red == -0.5 * math.pi:
            u = u_i  # released exactly at the rest phase
        else:
            theta = math.tan(0.5 * u_red - 0.25 * math.pi) - b * t
            u = 0.5 * math.pi + 2.0 * math.atan(theta) + _TWO_PI * m0
    elif regime == OSCILLATORY:
        # continuous lift of the phase antiderivative: one period of u maps
        # to pi, so floor-indexed branches glue into an increasing bijection
        sq = math.sqrt(s.discriminant)
        n = math.floor((u_i + math.pi) / _TWO_PI)
        u_red = u_i - _TWO_PI * n
        g = math.atan2(
            b * math.sin(0.5 * u_red) + a * math.cos(0.5 * u_red),
            sq * math.cos(0.5 * u_red),
        ) + n * math.pi
        y = g - 0.5 * sq * t
        m = math.floor((y + 0.5 * math.pi) / math.pi)
        y_red = y - m * math.pi
        u = 2.0 * math.atan2(
            sq * math.sin(y_red) - a * math.cos(y_red),
            b * math.cos(y_red),
        ) + _TWO_PI * m
    else:
        # rectilinear: the phase relaxes exponentially toward the locked
        # value u* inside its basin; real exponential form of the hyperbolic
        # continuation tan(ix) = i tanh(x)
        sq = math.sqrt(-s.discriminant)
        u_star = 2.0 * math.atan((sq - a) / b)
        n0 = math.floor((u_i + math.pi + u_star) / _TWO_PI)
        u_red = u_i - _TWO_PI * n0
        num = b * math.sin(0.5 * u_red) + (a - sq) * math.cos(0.5 * u_red)
        den = b * math.sin(0.5 * u_red) + (a + sq) * math.cos(0.5 * u_red)
        if den == 0.0:
            u = u_i  # released exactly at the unstable rest phase
        else:
            r = (num / den) * math.exp(-sq * t)
            u = 2.0 * math.atan2(r * (a + sq) - (a - sq), b * (1.0 - r)) + _TWO_PI * n0

    return (u + b * t) / (2.0 * k)


def drift_velocity(p: ConveyorParams) -> tuple[float, float]:
    """(v_c, v_asym): conveyor fringe speed b/(2k) and the asymptotic mean
    particle speed.

    In the oscillatory regime the particle trails the fringes,
    v_asym = v_c - sqrt(b**2 - 4 f0**2 k**4)/(2k); in the rectilinear and
    degenerate regimes the bounded phase offset is absorbed and
    v_asym = v_c.
    """
    if p.envelope.kind != "plane":
        raise WrongEnvelope(
            f"drift velocities are defined for the plane envelope, got "
            f"{p.envelope.kind!r}"
        )
    v_c = p.b / (2.0 * p.k)
    regime = plane_regime(p)
    if regime == OSCILLATORY:
        a = 2.0 * p.f0 * p.k * p.k
        v_asym = v_c - math.sqrt(p.b * p.b - a * a) / (2.0 * p.k)
    else:
        v_asym = v_c
    return v_c, v_asym


def taylor_small_f0(p: ConveyorParams, z_i: float, t: float) -> float:
    """First-order weak-drive approximation for the plane-wave problem:

        z(t) ~ z_i + f0 * k * (cos(2 z_i k) - cos(2 z_i k - b t)) / b.

    Exact evaluation of the formula; the neglected terms are O(f0**2), so
    the particle wobbles periodically around its release point.
    """
    two_zik = 2.0 * z_i * p.k
    if not math.isfinite(two_zik):
        raise ValueError(f"z_i must be finite with a finite phase 2k*z_i, got {z_i!r}")
    if not math.isfinite(two_zik - p.b * t):
        raise ValueError(f"t must be finite with a finite phase 2k*z_i - b*t, got {t!r}")
    return z_i + p.f0 * p.k * (math.cos(two_zik) - math.cos(two_zik - p.b * t)) / p.b
