"""Fixed points of a strictly increasing scalar map by a capture march and
bracketed Newton.

Solves R(z) = P(z) - z = 0 for the period map P of a scalar periodic ODE,
strictly increasing because trajectories cannot cross, so its iterates
move monotonically, in the direction of sign R, to the first fixed point
that way.  The march follows them to a sign change of R, by the Newton
step where it points that way and by a doubled step otherwise; it cannot
reach a repelling fixed point, whose sign change a caller hands in as the
bracket.  Inside the bracket each iterate takes the Newton step where it
lands inside and the midpoint where not.  A neutral candidate
(|P' - 1| < NEUTRAL) never ends the search: in a near-identity tail |R|
dips below any tolerance with no zero nearby.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from conveyor.errors import NoConvergence

MAX_ITER = 50
NEUTRAL = 1e-6
SPAN = 8.0


@dataclass(frozen=True)
class FixedPointResult:
    z_star: float
    derivative: float        # dP/dz at z_star
    residual: float          # |P(z_star) - z_star|
    iterations: int          # total map evaluations spent


def solve_fixed_point(
    map_with_sens: Callable[[float], tuple[float, float]],
    z_guess: float,
    tol: float,
    bracket: Sequence[tuple[float, float]] = (),
) -> FixedPointResult:
    """Fixed point captured from z_guess with |P(z) - z| < tol, or NoConvergence.

    ``map_with_sens(z)`` returns (P(z), dP/dz).  ``bracket`` holds known
    (z, R(z)) points, such as a grid cell's ends around z_guess.  The march
    gives up SPAN from the guess.  A neutral candidate is returned only when
    it finds no sign change; the identity map, for one, returns the guess.
    """
    evals = 0
    neg = pos = None  # latest (z, P, P', R) with R < 0 / R > 0
    direction = 0.0   # sign of R at the guess, once known

    def record(point):
        nonlocal neg, pos
        # R = 0 where P is the identity in floating point, as where the drive
        # underflows, ends the march: its fixed point lies no further
        side = point[3] or -direction
        if side < 0.0:
            neg = point
        elif side > 0.0:
            pos = point
        return point

    def evaluate(z: float):
        nonlocal evals
        pz, dp = map_with_sens(z)
        evals += 1
        return record((z, pz, dp, pz - z))

    def done(point) -> FixedPointResult:
        # one Newton step past the tolerance: quadratic convergence makes
        # independently certified solves agree far tighter than tol/|P' - 1|
        z, _, dp, r = point
        if r != 0.0 and abs(dp - 1.0) >= NEUTRAL:
            extra = evaluate(z - r / (dp - 1.0))
            if abs(extra[3]) < abs(r):
                point = extra
        return FixedPointResult(point[0], point[2], abs(point[3]), evals)

    def neutral(point) -> bool:
        return abs(point[2] - 1.0) < NEUTRAL

    def bracketed() -> FixedPointResult:
        point = min(neg, pos, key=lambda q: abs(q[3]))
        for _ in range(MAX_ITER):
            z, _, dp, r = point
            if abs(r) < tol and not neutral(point):
                return done(point)
            lo, hi = sorted((neg[0], pos[0]))
            z_new = z - r / (dp - 1.0) if dp != 1.0 else math.nan
            if r == 0.0 or not lo < z_new < hi:
                z_new = 0.5 * (lo + hi)
                if z_new in (lo, hi):
                    break  # bracket at floating-point resolution
            point = evaluate(z_new)
        best = min(neg, pos, point, key=lambda q: abs(q[3]))
        if abs(best[3]) < tol:
            return done(best)
        raise NoConvergence(evals, abs(best[3]))

    for z, r in bracket:
        # slope unknown: neutral, so never a Newton start nor the answer
        record((z, z + r, 1.0, r))
    point = evaluate(z_guess)
    direction = math.copysign(1.0, point[3])
    edge = z_guess + direction * SPAN
    step = 0.0
    for _ in range(MAX_ITER):  # the capture march
        if neg and pos:
            return bracketed()
        z, _, dp, r = point
        if abs(r) < tol and not neutral(point):
            return done(point)
        if z == edge or not abs(r) > 0.0:
            break  # at the span, or no direction to march in
        newton = -r / (dp - 1.0) if dp != 1.0 else r
        if newton * direction > 0.0:
            step = newton
        else:  # doubled; the first reflected, over which R's linear model moves by R
            step = 2.0 * step or -newton
        point = evaluate(min(z + step, edge) if direction > 0.0 else max(z + step, edge))
    if abs(point[3]) < tol:
        return done(point)  # neutral, with no sign change within reach
    raise NoConvergence(evals, abs(point[3]))
