"""Fixed points of a strictly increasing scalar map by safeguarded Newton.

Solves R(z) = P(z) - z = 0 for the period map P of a scalar periodic ODE.
Trajectories of such an equation cannot cross, so P is strictly increasing
and every hyperbolic fixed point sits at a sign change of R.  Damped Newton
runs from the guess until R changes sign; from then on every iterate stays
inside the sign bracket, taking the Newton step where it lands inside and
the midpoint where it would not.  A candidate whose derivative is neutral
(|P' - 1| < NEUTRAL) does not end the search, because in a near-identity
tail |R| dips below any tolerance without a zero nearby: it, like a stalled
Newton, hands over to an expanding probe around the guess for a sign change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from conveyor.errors import NoConvergence

MAX_ITER = 50
MAX_HALVINGS = 20
NEUTRAL = 1e-6
_PROBE_FIRST = 0.1
_PROBE_GROWTH = 1.6


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
    bracket_span: float = 8.0,
) -> FixedPointResult:
    """Fixed point of P near z_guess with |P(z) - z| < tol, or NoConvergence.

    ``map_with_sens(z)`` returns (P(z), dP/dz).  Iterates stay within
    ``bracket_span`` of the guess until a sign change of R is found, and
    inside that sign bracket afterwards.  A neutral candidate is returned
    only when the probe finds no sign change within ``bracket_span``; the
    identity map, for one, returns the guess.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")

    evals = 0
    neg = pos = None  # latest evaluated (z, P, P', R) with R < 0 / R > 0

    def evaluate(z: float):
        nonlocal evals, neg, pos
        pz, dp = map_with_sens(z)
        evals += 1
        point = (z, pz, dp, pz - z)
        if point[3] < 0.0:
            neg = point
        elif point[3] > 0.0:
            pos = point
        return point

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

    point = evaluate(z_guess)
    step_cap = bracket_span / 8.0  # keeps Newton from vaulting into regions
    # where the map is near-identity and |R| < tol for spurious reasons
    for _ in range(MAX_ITER):  # damped Newton until R changes sign
        if neg and pos:
            return bracketed()
        z, _, dp, r = point
        if abs(r) < tol:
            if not neutral(point):
                return done(point)
            break  # neutral candidate: probe for a genuine sign change
        if dp == 1.0 or dp != dp:
            break  # flat or NaN derivative: Newton cannot proceed
        step = -r / (dp - 1.0)
        step = math.copysign(min(abs(step), step_cap), step)
        for _ in range(MAX_HALVINGS + 1):
            if abs(z + step - z_guess) <= bracket_span:
                trial = evaluate(z + step)
                if (neg and pos) or abs(trial[3]) < abs(r):
                    point = trial
                    break
            step *= 0.5
        else:
            break  # stalled

    delta = _PROBE_FIRST
    while not (neg and pos) and delta <= bracket_span:
        for z in (z_guess + delta, z_guess - delta):
            evaluate(z)
            if neg and pos:
                break
        delta *= _PROBE_GROWTH
    if neg and pos:
        return bracketed()
    if abs(point[3]) < tol:
        return done(point)  # neutral, with no sign change within reach
    raise NoConvergence(evals, abs(point[3]))
