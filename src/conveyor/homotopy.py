"""Homotopy continuation from a linear decay problem to the full conveyor.

The auxiliary family blends a trivially solvable linear problem into the
equation of motion:

    dz/dt = -(1 - lam) * z + lam * F(t, z),     z(0) = z(T),

for lam in (0, 1].  At lam -> 0 the unique periodic solution is z == 0; the
branch z0(lam) of periodic initial conditions is followed with adaptive
steps up to lam = 1, where it must land on a fixed point of the plain
period map.  The blend, like F, repeats after T/2 = 2*pi/b, so each branch
point solves |z(T/2) - z(0)| < ``BVP_TOL`` on the map over that period.
This realises constructively the existence argument that the shooting
solver certifies independently, so the two endpoints agreeing is a
meaningful cross-check, not a tautology.

Also here: the closed-form solver for the linear boundary-value problem
dy/dt = -y + q(t), y(0) - y(T) = c0 that anchors the homotopy argument,
and two checks of its stability bound
||y||_C <= (1 + 1/(1 - exp(-T))) * (|c0| + ||q||_L1): a randomized audit
that draws its cases from numpy's seeded generator, and the deterministic
check that ``conveyor verify`` runs, which needs no numpy.  Both rest on
one list-based recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

from conveyor._newton import solve_fixed_point
from conveyor.errors import ContinuationStall, EmptyAudit, NoConvergence
from conveyor.integrate import IntegratorConfig, Trajectory, _half_map, tight_period
from conveyor.model import ConveyorParams, force_closure, force_dz_closure

if TYPE_CHECKING:
    import numpy as np

LAMBDA_START = 0.01
LAMBDA_STEP_INIT = 0.05
LAMBDA_STEP_MAX = 0.1
LAMBDA_STEP_MIN = 1e-6
BVP_TOL = 1e-9
# grid of the beta-bound checks and the generator seed of the randomized audit
_BVP_GRID = 512
_AUDIT_SEED = 20260810


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
        if not self.steps:
            raise EmptyAudit("continuation trace has no accepted steps")
        return self.steps[-1]


def solve_at_lambda(p: ConveyorParams, lambda_h: float, z_guess: float,
                    cfg: IntegratorConfig | None = None) -> tuple[float, float, Trajectory]:
    """Periodic initial condition of the blended problem at one lambda.

    Newton shooting on the lambda-flow's map P_h over 2*pi/b, certified to
    |z(T/2) - z(0)| < ``BVP_TOL``; returns the fixed point, P_h's slope mu_h
    there and the lambda-flow from it over [0, 2*pi/b] at a hundredth of the
    tolerances, whose seam gap e makes the step's residual (1 + mu_h) * e.  Raises
    NoConvergence like the plain orbit solver, ValueError for lambda outside
    [0, 1].
    """
    if not 0.0 <= lambda_h <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lambda_h!r}")
    force, force_dz = force_closure(p), force_dz_closure(p)
    decay = 1.0 - lambda_h

    def rhs(t: float, z: float) -> float:
        return -decay * z + lambda_h * force(t, z)

    def rhs_dz(t: float, z: float) -> float:
        return -decay + lambda_h * force_dz(t, z)

    res = solve_fixed_point(lambda z: _half_map(p, z, cfg, rhs, rhs_dz), z_guess, BVP_TOL)
    return res.z_star, res.derivative, tight_period(p, res.z_star, cfg, rhs)


def continue_to_one(p: ConveyorParams, cfg: IntegratorConfig | None = None) -> ContinuationTrace:
    """Follow the branch of periodic solutions from lambda ~ 0 to lambda = 1.

    Starts at lambda = 0.01 seeded with z = 0 (the analytic solution of the
    pure-decay endpoint); each step solves to ``BVP_TOL`` and steps adapt by
    halving on failure and growing 1.5x on success, capped at 0.1; residual
    and sup-norm come from ``solve_at_lambda``'s run over 2*pi/b.  Raises
    ContinuationStall, carrying the partial trace, if the step underflows
    below 1e-6 before reaching 1.
    """
    steps: list[ContinuationStep] = []
    lam = LAMBDA_START
    dlam = LAMBDA_STEP_INIT
    z_prev = 0.0

    while True:
        try:
            z0, mu_h, traj = solve_at_lambda(p, lam, z_prev, cfg)
        except NoConvergence:
            if not steps:
                raise  # could not even start the branch
            dlam *= 0.5
            if dlam < LAMBDA_STEP_MIN:
                raise ContinuationStall(ContinuationTrace(tuple(steps), False))
            lam = min(steps[-1].lambda_h + dlam, 1.0)
            continue
        residual = (1.0 + mu_h) * abs(traj.interp(traj.t1) - z0)
        steps.append(ContinuationStep(lam, z0, residual, traj.sup_norm()))
        z_prev = z0
        if lam >= 1.0:
            return ContinuationTrace(tuple(steps), True)
        dlam = min(dlam * 1.5, LAMBDA_STEP_MAX)
        lam = min(lam + dlam, 1.0)


# ---------------------------------------------------------------------------
# linear boundary-value kernel


def linear_bvp(t: Sequence[float], q: Sequence[float], c0: float) -> np.ndarray:
    """Solve dy/dt = -y + q(t) with y(0) - y(T) = c0 in closed form.

    ``q`` is sampled on the grid ``t`` (t[0] = 0, strictly increasing) and
    interpreted piecewise-linearly; the convolution integral
    int_0^t exp(s - t) q(s) ds is then exact per segment, so the returned
    samples satisfy the boundary condition to roundoff and the ODE to the
    interpolation error of q.  Non-finite t, q or c0 raise ValueError.
    """
    import numpy as np
    t = np.asarray(t, dtype=float)
    q = np.asarray(q, dtype=float)
    if t.ndim != 1 or t.shape != q.shape or t.size < 2:
        raise ValueError("t and q must be equal-length 1-d arrays with at least 2 samples")
    if t[0] != 0.0:
        raise ValueError(f"grid must start at 0, got t[0] = {t[0]!r}")
    dt = np.diff(t)
    if not (dt > 0.0).all():
        raise ValueError("grid must be strictly increasing")
    if not (np.isfinite(t).all() and np.isfinite(q).all() and math.isfinite(c0)):
        raise ValueError("t, q and c0 must be finite")
    conv, y_0 = _bvp_recurrence(t.tolist(), q.tolist(), c0)
    return np.exp(-t) * y_0 + np.array(conv)


def _bvp_recurrence(t: list[float], q: list[float], c0: float) -> tuple[list[float], float]:
    """Convolution samples and y(0) of the linear BVP, on plain floats.

    conv[j] = int_0^{t_j} exp(s - t_j) q(s) ds for the piecewise-linear q,
    by a recurrence exact per segment; y(t_j) = exp(-t_j) * y(0) + conv[j].
    """
    conv = [0.0]
    acc = 0.0
    for j in range(len(t) - 1):
        h = t[j + 1] - t[j]
        em = math.expm1(-h)
        slope = (q[j + 1] - q[j]) / h
        acc = acc * math.exp(-h) + q[j] * -em + slope * (h + em)
        conv.append(acc)
    T = t[-1]
    y_T = (math.exp(-T) * c0 + acc) / (-math.expm1(-T))
    return conv, y_T + c0


def piecewise_linear_l1(t: Sequence[float], q: Sequence[float]) -> float:
    """Exact L1 norm of the piecewise-linear interpolant of (t, q)."""
    t = [float(x) for x in t]
    q = [float(x) for x in q]
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


def beta_bound_audit(period: float, n_cases: int = 100) -> BetaBoundReport:
    """Randomized audit of ||y||_C <= beta * (|c0| + ||q||_L1).

    beta = 1 + 1/(1 - exp(-T)) follows from chaining |y(T)| through the
    boundary condition and the convolution bound; each case draws a smooth
    random trig polynomial q and a random c0, from numpy's generator seeded
    with ``_AUDIT_SEED``, and checks the solved y on a ``_BVP_GRID``-point
    grid.  Reports the worst observed ratio; with no case the audit would
    pass vacuously, so ``n_cases`` must be >= 1.
    """
    import numpy as np
    if not 0.0 < period < math.inf:
        raise ValueError(f"period must be finite and > 0, got {period!r}")
    if n_cases < 1:
        raise ValueError(f"n_cases must be >= 1, got {n_cases!r}")
    beta = 1.0 + 1.0 / (-math.expm1(-period))
    rng = np.random.default_rng(_AUDIT_SEED)
    ts = np.linspace(0.0, period, _BVP_GRID)
    max_ratio = 0.0
    for _ in range(n_cases):
        n_modes = int(rng.integers(1, 6))
        q = np.zeros_like(ts)
        for m in range(n_modes + 1):
            w = 2.0 * math.pi * m / period
            q += rng.normal() / (m + 1.0) * np.cos(w * ts)
            q += rng.normal() / (m + 1.0) * np.sin(w * ts)
        c0 = float(rng.normal()) * 2.0
        y = linear_bvp(ts, q, c0)
        ratio = float(np.abs(y).max()) / (abs(c0) + piecewise_linear_l1(ts, q) + 1e-300)
        if ratio > max_ratio:
            max_ratio = ratio
    return BetaBoundReport(beta, max_ratio, n_cases, max_ratio <= beta)


def beta_bound_check(period: float) -> BetaBoundReport:
    """Deterministic, numpy-free check of ||y||_C <= beta * (|c0| + ||q||_L1).

    Runs linear_bvp's recurrence on a ``_BVP_GRID``-point grid over [0, T]
    for the sharp case q = 0, c0 = 1, whose ratio max|y| / (|c0| + ||q||_L1)
    is exactly 1/(1 - exp(-T)); for q = cos(2 pi m t/T), m = 0..5, and
    q = sin(2 pi m t/T), m = 1..5, with c0 = 0; and for the ramp q = t with
    c0 = -T, whose solution is y = t - 1.  Passes when every ratio is at
    most beta, the sharp ratio is within 1e-12 relative of 1/(1 - exp(-T)),
    and the constant (y = 1) and ramp cases match their closed forms to
    1e-12 relative.  The recurrence is exact for piecewise-linear q, so only
    roundoff separates those two from their closed forms; the other trig
    cases also carry the interpolation error of q and are bounded by beta
    only.
    """
    if not 0.0 < period < math.inf:
        raise ValueError(f"period must be finite and > 0, got {period!r}")
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
        conv, y_0 = _bvp_recurrence(ts, q, c0)
        y = [math.exp(-t) * y_0 + c for t, c in zip(ts, conv)]
        ratios.append(max(abs(v) for v in y) / (abs(c0) + piecewise_linear_l1(ts, q)))
        if closed is not None:
            gap = max(abs(a - b) for a, b in zip(y, closed))
            exact = exact and gap <= 1e-12 * max(abs(v) for v in closed)
    passed = max(ratios) <= beta and abs(ratios[0] - sharp) <= 1e-12 * sharp and exact
    return BetaBoundReport(beta, max(ratios), len(cases), passed)
