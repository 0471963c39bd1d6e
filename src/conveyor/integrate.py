"""Adaptive Dormand-Prince 5(4) integration with dense output.

The drive oscillates at angular rate b, so the default step ceiling is a
twentieth of the drive period and the ceiling is never allowed past a
quarter period: a controller that skated over the fast phase factor while
the solution is nearly constant would silently lose the forcing.

One scalar stepper, run forward in time only, serves every caller; its
rules for a run, ``_check_run``, and for a scan window, ``_check_window``,
are also those the command line checks its flags with.

For a scalar ODE the variational equation dw/dt = dF/dz(t, z(t)) * w has the
closed-form solution w(T) = exp(int_0^T dF/dz(t, z(t)) dt) (Liouville's
formula), so the derivative of the period map needs no second
integrator: the stepper sums the integral along its own accepted steps,
outside error control, from one fused (F, dF/dz) call per stage.  Every
period map, the multiplier cross-check's too, is built in ``_half_map``,
over the drive's minimal period 2*pi/b, half of ``ConveyorParams.period``.
The right-hand side is always a caller-supplied (t, z) callable so the
homotopy solver can reuse the engine with its own blend of force and decay.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_right
from copy import copy
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Callable

from conveyor.errors import StepSizeUnderflow
from conveyor.model import ConveyorParams

if TYPE_CHECKING:
    import numpy as np

# Dormand-Prince 5(4) tableau
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
# y5 - y4 error weights
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
# quartic dense-output weights
_D1 = -12715105075.0 / 11282082432.0
_D3 = 87487479700.0 / 32700410799.0
_D4 = -10690763975.0 / 1880347072.0
_D5 = 701980252875.0 / 199316789632.0
_D6 = -1453857185.0 / 822651844.0
_D7 = 69997945.0 / 29380423.0

# PI controller constants (classic choices for this pair)
_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - 0.75 * _BETA
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0

_STEP_FLOOR_REL = 1e-14
_TIGHT = 100.0   # an orbit's stored run is this much tighter than its solve
# a span costs at least |t1 - t0| / max_step accepted steps, each kept as a
# knot by a dense run; 10^5 allows 628 s at the reference ceiling of period/20
MAX_STEPS = 100_000
# ``Trajectory.sup_norm`` reads each step's interpolant at this many equal parts
_SUP_REFINE = 8
# ``Trajectory.integral``'s 4-point Gauss-Legendre rule on [0, 1], exact to degree 7,
# as (theta, 1 - theta, weight): theta = (1 +- x) / 2 at x = sqrt(3/7 -+ (2/7) sqrt(6/5)),
# weighted (18 +- sqrt(30)) / 72
_GL4 = tuple((0.5 + 0.5 * sx, 0.5 - 0.5 * sx, w) for x, w in (
    (math.sqrt(3.0 / 7.0 - 2.0 / 7.0 * math.sqrt(1.2)), (18.0 + math.sqrt(30.0)) / 72.0),
    (math.sqrt(3.0 / 7.0 + 2.0 / 7.0 * math.sqrt(1.2)), (18.0 - math.sqrt(30.0)) / 72.0),
) for sx in (-x, x))


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step bounds for the adaptive integrator.

    ``max_step`` and ``initial_step`` default to period/20 and period/1000
    when left as None; a ``max_step`` beyond period/4 is rejected because
    the drive would then go unresolved on near-constant stretches.  Each
    tolerance's hundredth (``_tight_config``) must be a positive normal double.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float | None = None
    initial_step: float | None = None

    def __post_init__(self):
        for name, tol in (("rtol", self.rtol), ("atol", self.atol)):
            if not sys.float_info.min <= tol / _TIGHT < math.inf:
                raise ValueError(f"{name} must be finite with {name}/{_TIGHT:g} a positive "
                                 f"normal double, got {tol!r}")

    def resolved(self, period: float) -> tuple[float, float, float, float]:
        """Concrete (rtol, atol, max_step, initial_step) for a drive period."""
        max_step = period / 20.0 if self.max_step is None else self.max_step
        if not 0.0 < max_step <= period / 4.0:
            raise ValueError(
                f"max_step must lie in (0, period/4] = (0, {period / 4.0:.6g}], got {max_step!r}"
            )
        h0 = period / 1000.0 if self.initial_step is None else self.initial_step
        if not 0.0 < h0 <= max_step:
            raise ValueError(f"initial_step must lie in (0, max_step], got {h0!r}")
        return self.rtol, self.atol, max_step, h0


class Trajectory:
    """Densely sampled solution path with quartic interpolation.

    Knot times are the integrator's accepted steps; interpolation at a knot
    returns the stored knot value exactly, and queries anywhere between the
    endpoints evaluate the per-step dense polynomial.  Knots are lists of
    floats (``knots``), ascending in t, so interpolation needs no numpy;
    only the array getters ``times`` and ``sample`` import it.  The run's
    ``params`` and ``cfg`` are kept.
    """

    __slots__ = ("params", "cfg", "_kt", "_kz", "_seg_h", "_seg_c", "_lo", "_hi")

    def __init__(self, params: ConveyorParams, cfg: IntegratorConfig, knot_t: list[float],
                 knot_z: list[float], seg_h: list[float], seg_c: list[tuple]):
        self.params = params
        self.cfg = cfg
        self._kt = knot_t
        self._kz = knot_z
        self._seg_h = seg_h
        self._seg_c = seg_c
        self._lo = knot_t[0]
        self._hi = knot_t[-1]

    @property
    def t1(self) -> float:
        return self._hi

    @property
    def knots(self) -> tuple[list[float], list[float]]:
        """Accepted knot times and states as fresh lists, ascending in t."""
        return list(self._kt), list(self._kz)

    @property
    def times(self) -> np.ndarray:
        import numpy as np
        return np.array(self.knots[0])

    def interp(self, t: float) -> float:
        """z(t) for t between the trajectory endpoints."""
        slack = 1e-12 * (self._hi - self._lo)
        if not self._lo - slack <= t <= self._hi + slack:   # NaN included
            raise ValueError(f"t={t!r} outside trajectory span [{self._lo!r}, {self._hi!r}]")
        kt = self._kt
        j = bisect_right(kt, t) - 1
        if j < 0:
            j = 0
        elif j >= len(self._seg_h):
            j = len(self._seg_h) - 1
        if t == kt[j]:
            return self._kz[j]
        if t == kt[j + 1]:
            return self._kz[j + 1]
        c1, c2, c3, c4, c5 = self._seg_c[j]
        th = (t - kt[j]) / self._seg_h[j]
        th1 = 1.0 - th
        return c1 + th * (c2 + th1 * (c3 + th * (c4 + th1 * c5)))

    def sample(self, ts) -> np.ndarray:
        """Vector of interpolated values at the given times."""
        import numpy as np
        return np.array([self.interp(float(t)) for t in np.asarray(ts, dtype=float).ravel()])

    def sup_norm(self) -> float:
        """max |z| over the span: the largest of the knots and of each step's
        interpolant at the points splitting it into ``_SUP_REFINE`` equal parts,
        polished by Newton's method on dz/dtheta = 0 in its step (both, at a knot)."""
        seg_c, kz = self._seg_c, self._kz
        k = max(range(len(kz)), key=lambda i: abs(kz[i]))
        best, starts = abs(kz[k]), [(k, 0.0), (k - 1, 1.0)]
        thetas = [(i / _SUP_REFINE, 1.0 - i / _SUP_REFINE) for i in range(1, _SUP_REFINE)]
        for j, (c1, c2, c3, c4, c5) in enumerate(seg_c):
            # theta, 1 - theta in [0, 1]: the sum bounds the step's quartic
            if abs(c1) + abs(c2) + abs(c3) + abs(c4) + abs(c5) < best * (1.0 - 1e-12):
                continue
            for th, th1 in thetas:
                v = abs(c1 + th * (c2 + th1 * (c3 + th * (c4 + th1 * c5))))
                if v > best:
                    best, starts = v, [(j, th)]
        for j, th in (s for s in starts if 0 <= s[0] < len(seg_c)):
            c1, c2, c3, c4, c5 = seg_c[j]
            a1, a2, a3 = c2 + c3, c4 + c5 - c3, -c4 - 2.0 * c5  # c1 + a1 th + ... + c5 th^4
            for _ in range(3):
                curv = 2.0 * a2 + th * (6.0 * a3 + 12.0 * c5 * th)
                slope = a1 + th * (2.0 * a2 + th * (3.0 * a3 + 4.0 * c5 * th))
                th = min(1.0, max(0.0, th - slope / curv)) if curv else th
            best = max(best, abs(c1 + th * (a1 + th * (a2 + th * (a3 + c5 * th)))))
        return best

    def integral(self, fn: Callable[[float, float], tuple[float, ...]]) -> list[float]:
        """int fn(t, z(t)) dt over the span for each entry of fn's tuples, one
        fn call per node of the 4-point Gauss-Legendre rule on each accepted
        step, z read off that step's quartic.  The sums start at -0.0, so an
        entry of negative zeros integrates to -0.0."""
        (ta, ua, wa), (tb, ub, wb), (tc, uc, wc), (td, ud, wd) = _GL4
        totals = repeat(-0.0)
        for t, h, (c1, c2, c3, c4, c5) in zip(self._kt, self._seg_h, self._seg_c):
            fa = fn(t + ta * h, c1 + ta * (c2 + ua * (c3 + ta * (c4 + ua * c5))))
            fb = fn(t + tb * h, c1 + tb * (c2 + ub * (c3 + tb * (c4 + ub * c5))))
            fc = fn(t + tc * h, c1 + tc * (c2 + uc * (c3 + tc * (c4 + uc * c5))))
            fd = fn(t + td * h, c1 + td * (c2 + ud * (c3 + td * (c4 + ud * c5))))
            totals = [total + h * (wa * a + wb * b + wc * c + wd * d)
                      for total, a, b, c, d in zip(totals, fa, fb, fc, fd)]
        return totals


def _check_run(p: ConveyorParams, cfg: IntegratorConfig, z0: float, t0: float,
               t1: float) -> tuple[float, float, float, float]:
    """The stepper's rules for a run from (t0, z0) to t1, which the command
    line applies at flag time to each command's longest run: ValueError
    unless the drive phase at z0 is finite at t0 and t1, the span needs at
    most MAX_STEPS steps of the step ceiling, t1 > t0, and the first trial
    step, min(initial_step, t1 - t0), not below ``_step_floor``, which no
    ceiling too fine to move t at the span's far end can meet.
    Returns ``cfg.resolved(p.period)``: (rtol, atol, max_step, initial_step)."""
    resolved = cfg.resolved(p.period)
    max_step = resolved[2]
    if not (p.phase_is_finite(z0, t0) and p.phase_is_finite(z0, t1)):
        raise ValueError(f"initial state z={z0!r} must be finite with a finite drive phase "
                         f"k*z - b*t/2 at t={t0!r} and t={t1!r}")
    if not abs(t1 - t0) / max_step <= MAX_STEPS:
        raise ValueError(f"span t={t0!r} to t={t1!r} needs more than {MAX_STEPS} steps "
                         f"of at most {max_step:.6g} s")
    if not t1 > t0:
        raise ValueError(f"integration runs forward only: need t1 > t0, got t0={t0!r}, t1={t1!r}")
    h_first, h_floor = min(resolved[3], t1 - t0), _step_floor(t0, t1)
    if h_first < h_floor:
        raise ValueError(f"first trial step {h_first:.6g} s below the step floor {h_floor:.6g} s")
    return resolved


def _step_floor(t0: float, t1: float) -> float:
    """The stepper's least step on [t0, t1]: 1e-14 of it, at least ulp(far end)."""
    return max(_STEP_FLOOR_REL * (t1 - t0), math.ulp(max(abs(t0), abs(t1))))


def _check_window(z_lo: float, z_hi: float, n: int) -> None:
    """ValueError unless n is an integer, at least 2, and z_lo < z_hi with
    every grid offset (z_hi - z_lo) * i finite, the largest checked alone:
    a finite window whose width overflows is rejected, and no grid is built."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"need an integer number n of grid points, got {n!r}") from None
    if not (z_lo < z_hi and (z_hi - z_lo) * (n - 1) < math.inf):
        raise ValueError(f"need a finite window z_lo < z_hi with finite grid offsets "
                         f"(z_hi - z_lo) * i, got [{z_lo!r}, {z_hi!r}]")
    if n < 2:
        raise ValueError(f"need n >= 2 grid points, got {n!r}")


def _grid(z_lo: float, z_hi: float, n: int) -> list[float]:
    """The n evenly spaced points from z_lo to z_hi, once ``_check_window``
    accepts them, that ``periodic.scan_orbits`` and ``verify.fixed_point_scan`` read."""
    _check_window(z_lo, z_hi, n)
    return [z_lo + (z_hi - z_lo) * i / (n - 1) for i in range(n)]


def _dp45_scalar(p: ConveyorParams, rhs: Callable[[float, float], float], z0: float,
                 t0: float, t1: float, cfg: IntegratorConfig | None, collect: bool,
                 rhs_and_dz: Callable[[float, float], tuple[float, float]] | None = None):
    """The one entry into the stepper.
    Returns (z1, log_w, err_sum, knots_t, knots_z, seg_h, seg_c).

    ``cfg`` defaults to ``IntegratorConfig()``; ``_check_run`` checks the run
    and resolves it against the period of ``p``.  A step below ``_step_floor``
    raises StepSizeUnderflow.

    With ``rhs_and_dz``, (t, z) -> (rhs, g = d rhs/dz), given, log_w is the
    integral of g along z(t) over the span (0.0 otherwise): stages 1 and 3-7
    read k_i and g_i from one call (stage 2, of weight 0, calls ``rhs``); each
    accepted step adds h * sum(b_i * g_i), g_1 carried over from the previous
    endpoint, its own solution of d(log w)/dt = g, outside error control.

    err_sum, beside it, adds up |err|, the step's own DP5(4) error estimate
    y5 - y4, over the accepted steps: a gauge of the run's error in z1 that
    ``periodic.scan_orbits`` reads its loose grid's signs against.
    """
    z0, t0, t1 = float(z0), float(t0), float(t1)
    rtol, atol, max_step, h0 = _check_run(p, cfg or IntegratorConfig(), z0, t0, t1)
    h_floor = _step_floor(t0, t1)
    h = min(h0, t1 - t0)   # h0 <= max_step, as ``cfg.resolved`` checks

    t, y = t0, z0
    k1, g1 = (rhs(t, y), 0.0) if rhs_and_dz is None else rhs_and_dz(t, y)
    log_w = err_sum = 0.0
    facold = 1e-4
    rejected = False

    knots_t = [t0]
    knots_z = [z0]
    seg_h: list[float] = []
    seg_c: list[tuple] = []

    while t < t1:
        if h < h_floor:
            raise StepSizeUnderflow(t, h)
        if t + h > t1:
            h = t1 - t

        k2 = rhs(t + _C2 * h, y + h * (_A21 * k1))
        y3 = y + h * (_A31 * k1 + _A32 * k2)
        if rhs_and_dz is None:
            k3 = rhs(t + _C3 * h, y3)
            y4 = y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3)
            k4 = rhs(t + _C4 * h, y4)
            y5 = y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
            k5 = rhs(t + _C5 * h, y5)
            y6 = y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
            k6 = rhs(t + h, y6)
            y1 = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
            k7 = rhs(t + h, y1)
        else:   # the same stages with their g_i, apart so plain runs unpack no pairs
            k3, g3 = rhs_and_dz(t + _C3 * h, y3)
            y4 = y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3)
            k4, g4 = rhs_and_dz(t + _C4 * h, y4)
            y5 = y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
            k5, g5 = rhs_and_dz(t + _C5 * h, y5)
            y6 = y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
            k6, g6 = rhs_and_dz(t + h, y6)
            y1 = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
            k7, g7 = rhs_and_dz(t + h, y1)

        err = abs(h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7))
        ay, ay1 = abs(y), abs(y1)   # comparisons, not max/min calls, with the same picks
        err_norm = err / (atol + rtol * (ay1 if ay1 > ay else ay))

        if err_norm <= 1.0:
            err_sum += err
            if rhs_and_dz is not None:
                log_w += h * (_B1 * g1 + _B3 * g3 + _B4 * g4 + _B5 * g5 + _B6 * g6)
                g1 = g7  # FSAL
            if collect:
                dy = y1 - y
                bspl = h * k1 - dy
                c4_ = dy - h * k7 - bspl
                c5_ = h * (_D1 * k1 + _D3 * k3 + _D4 * k4 + _D5 * k5 + _D6 * k6 + _D7 * k7)
                seg_h.append(h)
                seg_c.append((y, dy, bspl, c4_, c5_))
                knots_t.append(t + h)
                knots_z.append(y1)
            t += h
            y = y1
            k1 = k7  # FSAL

            fac11 = (1e-10 if 1e-10 > err_norm else err_norm) ** _EXPO1
            factor = _SAFETY * (facold ** _BETA) / fac11
            cap = 1.0 if rejected else _MAX_FACTOR   # no growth right after a rejection
            if not factor > _MIN_FACTOR:
                factor = _MIN_FACTOR
            elif factor > cap:
                factor = cap
            facold = 1e-4 if 1e-4 > err_norm else err_norm
            rejected = False
            h *= factor
            if h > max_step:
                h = max_step
        else:
            rejected = True
            shrink = _SAFETY / (err_norm ** _EXPO1)
            h *= shrink if shrink > _MIN_FACTOR else _MIN_FACTOR

    return y, log_w, err_sum, knots_t, knots_z, seg_h, seg_c


def integrate(p: ConveyorParams, rhs: Callable[[float, float], float], z_i: float,
              t0: float, t1: float, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate dz/dt = rhs(t, z) from (t0, z_i) forward to t1 > t0 with
    dense output.

    Raises StepSizeUnderflow when the controller cannot make progress.
    The trajectory keeps ``cfg``, the default config when it is None.
    """
    _, _, _, *path = _dp45_scalar(p, rhs, z_i, t0, t1, cfg, collect=True)
    return Trajectory(p, cfg or IntegratorConfig(), *path)


def propagate(p: ConveyorParams, rhs: Callable[[float, float], float], z_i: float,
              t0: float, t1: float, cfg: IntegratorConfig | None = None) -> float:
    """Final value z(t1) without storing the path (fast path for maps)."""
    return _dp45_scalar(p, rhs, z_i, t0, t1, cfg, collect=False)[0]


def _half_map(p: ConveyorParams, z0: float, cfg: IntegratorConfig | None,
              rhs: Callable[[float, float], float],
              rhs_and_dz: Callable[[float, float], tuple] | None = None) -> tuple[float, float]:
    """(P_h(z0), dP_h/dz0) over the minimal period 2*pi/b, with ``p.period``'s
    step bounds; the slope is 1.0 without ``rhs_and_dz``.  P = P_h o P_h with
    P_h increasing, so P_h has exactly P's fixed points, and mu = mu_h**2.
    A slope beyond the double range is inf, as IEEE arithmetic rounds it."""
    z1, log_w, *_ = _dp45_scalar(p, rhs, z0, 0.0, 0.5 * p.period, cfg, False, rhs_and_dz)
    try:
        return z1, math.exp(log_w)
    except OverflowError:
        return z1, math.inf


def _tight_config(cfg: IntegratorConfig | None) -> IntegratorConfig:
    """``cfg``, or the default config, at a hundredth of its tolerances: the
    config of an orbit's stored run, which its certificates read back; built
    past ``IntegratorConfig``'s check, which keeps these hundredths normal."""
    tight = copy(cfg or IntegratorConfig())
    object.__setattr__(tight, "rtol", tight.rtol / _TIGHT)
    object.__setattr__(tight, "atol", tight.atol / _TIGHT)
    return tight
