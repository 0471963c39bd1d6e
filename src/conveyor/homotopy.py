"""Homotopy continuation from a linear decay problem to the full conveyor.

The auxiliary family blends a trivially solvable linear problem into the
equation of motion:

    dz/dt = -(1 - lam) * z + lam * F(t, z),     z(0) = z(T),

for lam in (0, 1].  At lam -> 0 the unique periodic solution is z == 0; the
branch z0(lam) of periodic initial conditions is followed with adaptive
steps up to lam = 1, where it must land on a fixed point of the plain
period map.  The blend, like F, repeats after T/2 = 2*pi/b, so each branch
point solves |z(T/2) - z(0)| < ``BVP_TOL`` on the map over that period; this
module builds the blend, and ``periodic._solve`` solves and certifies it as
it does F.  This realises constructively the existence argument that the
shooting solver certifies independently, so the two endpoints agreeing is a
meaningful cross-check, not a tautology.

Also here: ``linear_bvp``, the closed-form solver on plain floats for the
linear boundary-value problem dy/dt = -y + q(t), y(0) - y(T) = c0 that
anchors the homotopy argument, and ``beta_bound_check``, which ``conveyor
verify`` runs: the one check, on ``linear_bvp``'s samples for fixed cases,
of its stability bound ||y||_C <= (1 + 1/(1 - exp(-T))) * (|c0| + ||q||_L1).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from conveyor.errors import ContinuationStall, NoConvergence
from conveyor.integrate import IntegratorConfig
from conveyor.model import ConveyorParams, field, force_closure
from conveyor.periodic import PeriodicOrbit, _certify, _solve

LAMBDA_START = 0.01
LAMBDA_STEP_INIT = 0.05
LAMBDA_STEP_MAX = 0.1
LAMBDA_STEP_MIN = 1e-6
BVP_TOL = 1e-9
# grid of the beta-bound check
_BVP_GRID = 512


class ContinuationStep(NamedTuple):
    lambda_h: float
    z0: float
    residual: float
    sup_norm: float


@dataclass(frozen=True)
class ContinuationTrace:
    """Accepted (lambda, z0) branch points with per-step certificates."""

    steps: tuple[ContinuationStep, ...]
    converged: bool

    @property
    def final(self) -> ContinuationStep:
        return self.steps[-1]   # ``continue_to_one`` accepts at least one step


def solve_at_lambda(p: ConveyorParams, lambda_h: float, z_guess: float,
                    cfg: IntegratorConfig | None = None) -> PeriodicOrbit:
    """Periodic orbit of the blended problem at one lambda, solved to
    |z(T/2) - z(0)| < ``BVP_TOL`` and certified as ``periodic.find_periodic``
    certifies one.  The orbit belongs to the blend: its multiplier, residual,
    sup-norm and stored run are the lambda-flow's, so ``verify``'s identities
    apply to it only at lambda = 1, where the blend is F bit for bit and the
    solve is ``find_periodic``'s own, force-free parking included.  Raises
    NoConvergence like it, ValueError for lambda outside [0, 1].
    """
    if not 0.0 <= lambda_h <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lambda_h!r}")
    if lambda_h == 1.0:
        return _certify(p, z_guess, cfg)
    force, force_and_dz = force_closure(p), field(p).force_and_dz
    decay = 1.0 - lambda_h

    def rhs(t: float, z: float) -> float:
        return -decay * z + lambda_h * force(t, z)

    def rhs_and_dz(t: float, z: float) -> tuple[float, float]:
        f, f_dz = force_and_dz(t, z)
        return -decay * z + lambda_h * f, -decay + lambda_h * f_dz

    return _solve(p, rhs, rhs_and_dz, z_guess, BVP_TOL, cfg)


def continue_to_one(p: ConveyorParams, cfg: IntegratorConfig | None = None) -> ContinuationTrace:
    """Follow the branch of periodic solutions from lambda ~ 0 to lambda = 1.

    Starts at lambda = 0.01 seeded with z = 0 (the analytic solution of the
    pure-decay endpoint); each step solves to ``BVP_TOL`` and steps adapt by
    halving on failure and growing 1.5x on success, capped at 0.1; each
    step's z0, residual and sup-norm are ``solve_at_lambda``'s orbit's.  Raises
    ContinuationStall, carrying the partial trace, if the step underflows
    below 1e-6 before reaching 1, and NoConvergence before any solve for a
    driven plane envelope, which has no periodic orbit at lambda = 1 (see
    ``periodic.find_periodic``).
    """
    if p.envelope.kind == "plane" and p.f0 > 0.0:
        raise NoConvergence(0, math.nan, "a plane drive has no periodic orbit")
    steps: list[ContinuationStep] = []
    lam = LAMBDA_START
    dlam = LAMBDA_STEP_INIT
    z_prev = 0.0

    while True:
        try:
            orbit = solve_at_lambda(p, lam, z_prev, cfg)
        except NoConvergence:
            if not steps:
                raise  # could not even start the branch
            dlam *= 0.5
            if dlam < LAMBDA_STEP_MIN:
                raise ContinuationStall(ContinuationTrace(tuple(steps), False))
            lam = min(steps[-1].lambda_h + dlam, 1.0)
            continue
        steps.append(ContinuationStep(lam, orbit.z_star, orbit.residual, orbit.sup_norm))
        z_prev = orbit.z_star
        if lam >= 1.0:
            return ContinuationTrace(tuple(steps), True)
        dlam = min(dlam * 1.5, LAMBDA_STEP_MAX)
        lam = min(lam + dlam, 1.0)


# ---------------------------------------------------------------------------
# linear boundary-value kernel


def _samples(t: Sequence[float], q: Sequence[float]) -> tuple[list[float], list[float]]:
    """(t, q) as lists of floats, or ValueError unless they have equal
    lengths, at least 2 samples, finite values and strictly increasing t."""
    t, q = list(map(float, t)), list(map(float, q))
    if len(t) != len(q) or len(t) < 2:
        raise ValueError("t and q must have equal lengths and at least 2 samples")
    if not all(map(math.isfinite, t + q)):
        raise ValueError("t and q must be finite")
    if not all(map(operator.lt, t, t[1:])):
        raise ValueError("grid must be strictly increasing")
    return t, q


def linear_bvp(t: Sequence[float], q: Sequence[float], c0: float) -> list[float]:
    """Solve dy/dt = -y + q(t) with y(0) - y(T) = c0 in closed form.

    ``q`` is sampled on the grid ``t`` (t[0] = 0, strictly increasing) and
    interpreted piecewise-linearly; a recurrence exact per segment gives
    conv_j = int_0^{t_j} exp(s - t_j) q(s) ds, and the returned list
    y_j = exp(-t_j) * y(0) + conv_j meets the boundary condition to roundoff
    and the ODE to the interpolation error of q.  ValueError unless t, q
    and c0 are finite and t and q have an equal length of at least 2.
    """
    t, q = _samples(t, q)
    if t[0] != 0.0:
        raise ValueError(f"grid must start at 0, got t[0] = {t[0]!r}")
    c0 = float(c0)
    if not math.isfinite(c0):
        raise ValueError(f"c0 must be finite, got {c0!r}")
    return _bvp(t, q, c0)


def _bvp(t: list[float], q: list[float], c0: float) -> list[float]:  # on checked samples
    conv = [0.0]
    acc = 0.0
    for j in range(len(t) - 1):
        h = t[j + 1] - t[j]
        em = math.expm1(-h)
        slope = (q[j + 1] - q[j]) / h
        acc = acc * math.exp(-h) + q[j] * -em + slope * (h + em)
        conv.append(acc)
    T = t[-1]
    y_0 = (math.exp(-T) * c0 + acc) / (-math.expm1(-T)) + c0
    return [math.exp(-s) * y_0 + c for s, c in zip(t, conv)]


def piecewise_linear_l1(t: Sequence[float], q: Sequence[float]) -> float:
    """Exact L1 norm of the piecewise-linear interpolant of (t, q); the same
    ValueError as ``linear_bvp`` for a bad grid or samples."""
    return _l1(*_samples(t, q))


def _l1(t: list[float], q: list[float]) -> float:  # on checked samples
    total = 0.0
    for j in range(len(t) - 1):
        h = t[j + 1] - t[j]
        a, b = q[j], q[j + 1]
        if a * b >= 0.0:
            total += 0.5 * h * (abs(a) + abs(b))
        else:
            total += 0.5 * h * (a * a + b * b) / (abs(a) + abs(b))
    return total


class BetaBoundReport(NamedTuple):
    beta: float
    max_ratio: float
    n_cases: int
    passed: bool


def _beta_grid_fits(period: float) -> bool:
    """Whether T = ``period`` is finite and > 0 with a normal grid step T / 511,
    at least 2**-1022, which also keeps the fifth harmonic's rate 10 pi / T finite."""
    return 0.0 < period < math.inf and period / (_BVP_GRID - 1) >= 2.0 ** -1022


def beta_bound_check(period: float) -> BetaBoundReport:
    """Deterministic check of ||y||_C <= beta * (|c0| + ||q||_L1).

    Runs ``linear_bvp``'s solver on a ``_BVP_GRID``-point grid over [0, T]
    for the sharp case q = 0, c0 = 1, whose ratio max|y| / (|c0| + ||q||_L1)
    is exactly 1/(1 - exp(-T)); for q = cos(2 pi m t/T), m = 0..5, and
    q = sin(2 pi m t/T), m = 1..5, with c0 = 0; and for the ramp q = t with
    c0 = -T, whose solution is y = t - 1.  Passes when every ratio is at
    most beta, the sharp ratio is within 1e-12 relative of 1/(1 - exp(-T)),
    and the constant (y = 1) and ramp cases match their closed forms to
    1e-12 relative.  The recurrence is exact for piecewise-linear q, so only
    roundoff separates those two from their closed forms; the other trig
    cases also carry the interpolation error of q and are bounded by beta
    only.  ValueError for a period that ``_beta_grid_fits`` rejects.
    """
    if not _beta_grid_fits(period):
        raise ValueError(f"period must be finite, > 0 and give a normal grid step, got {period!r}")
    sharp = 1.0 / (-math.expm1(-period))
    beta = 1.0 + sharp
    n = _BVP_GRID
    step = period / (n - 1)
    ts = [j * step for j in range(n - 1)] + [period]
    w = 2.0 * math.pi / period
    # (q, c0, closed-form y or None)
    cases = [([0.0] * n, 1.0, None), ([1.0] * n, 0.0, [1.0] * n)]
    cases += [([math.cos(m * w * t) for t in ts], 0.0, None) for m in range(1, 6)]
    cases += [([math.sin(m * w * t) for t in ts], 0.0, None) for m in range(1, 6)]
    cases.append((ts, -period, [t - 1.0 for t in ts]))

    ratios = []
    exact = True
    for q, c0, closed in cases:
        y = _bvp(ts, q, c0)   # the grid and cases are valid by construction
        ratios.append(max(abs(v) for v in y) / (abs(c0) + _l1(ts, q)))
        if closed is not None:
            gap = max(abs(a - b) for a, b in zip(y, closed))
            exact = exact and gap <= 1e-12 * max(abs(v) for v in closed)
    passed = max(ratios) <= beta and abs(ratios[0] - sharp) <= 1e-12 * sharp and exact
    return BetaBoundReport(beta, max(ratios), len(cases), passed)
