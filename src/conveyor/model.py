"""Envelope functions, conveyor potential, force field, and exact derivatives.

Single source of truth for every right-hand side used in the package.  The
equation of motion is the overdamped scalar ODE

    dz/dt = F(t, z) = dV/dz,      V(t, z) = F0 * f(z) * cos(k z - b t / 2)**2,

with z measured in units of the optical wavelength, t in seconds, k in
rad/wavelength and b in rad/s.  The axial strength profile f(z) is one of
three envelopes: plane (f == 1), Lorentzian, or Gaussian.  The drive is
time-periodic with period 4*pi/b, which is the period at which periodic
orbits are sought.

All types are immutable and all operations are pure functions; they are safe
to call from any number of concurrent workers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

ENVELOPE_KINDS = ("plane", "lorentzian", "gaussian")

# plane_regime results
RECTILINEAR = "rectilinear"
OSCILLATORY = "oscillatory"
DEGENERATE = "degenerate"

# fixed_point_classify results
FP_NONE = "none"
FP_GENUINE = "fixed"
FP_UNDERFLOW = "underflow"


@dataclass(frozen=True)
class EnvelopeSpec:
    """Axial strength profile f(z) of the conveyor.

    kind : "plane", "lorentzian" or "gaussian"
    z0   : axial scale in wavelengths; the Lorentzian halves at |z| = z0,
           the Gaussian satisfies f(z0) = exp(-2).  Ignored for "plane".
    """

    kind: str
    z0: float = 1.0

    def __post_init__(self):
        if self.kind not in ENVELOPE_KINDS:
            raise ValueError(f"unknown envelope kind {self.kind!r}; expected one of {ENVELOPE_KINDS}")
        if not math.isfinite(self.z0):
            raise ValueError(f"envelope scale z0 must be finite, got {self.z0!r}")
        if self.kind != "plane" and not self.z0 > 0.0:
            raise ValueError(f"envelope scale z0 must be > 0, got {self.z0!r}")
        # the kernels divide by z0**2, so it must be a positive finite double
        if self.kind != "plane" and not 0.0 < self.z0 * self.z0 < math.inf:
            raise ValueError(f"envelope scale z0 = {self.z0!r} squares outside the double range")


@dataclass(frozen=True)
class ConveyorParams:
    """Physical constants of the conveyor.

    f0 : drive strength, wavelength**2 / s (see note in ``default_params``)
    b  : phase-slip rate of the counter-propagating beams, rad/s
    k  : wavenumber, rad/wavelength
    envelope      : axial strength profile
    wavelength_nm : reporting only; never enters the dynamics
    """

    f0: float
    b: float
    k: float
    envelope: EnvelopeSpec
    wavelength_nm: float = 580.0

    def __post_init__(self):
        for name in ("f0", "b", "k", "wavelength_nm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.f0 < 0.0:
            raise ValueError(f"f0 must be >= 0, got {self.f0!r}")
        if not self.b > 0.0:
            raise ValueError(f"b must be > 0, got {self.b!r}")
        if not self.k > 0.0:
            raise ValueError(f"k must be > 0, got {self.k!r}")
        if not self.wavelength_nm > 0.0:
            raise ValueError(f"wavelength_nm must be > 0, got {self.wavelength_nm!r}")

    @property
    def period(self) -> float:
        """Period of the drive: t -> F(t, z) repeats every 4*pi/b seconds."""
        return 4.0 * math.pi / self.b


#: Reference parameter set used as the default profile of the command-line
#: tools: f0 = 0.8 wavelength^2/s, b = 100 rad/s, k = 2.66*pi rad/wavelength,
#: z0 = 0.37 wavelengths, wavelength 580 nm.
#:
#: Unit note: f0 is often quoted with a pm/s label, which is dimensionally
#: inconsistent with dz/dt = F(t, z); interpreting it as wavelength^2/s
#: reproduces both the phase-locking inequality b < 2*f0*k^2 and the conveyor
#: speed b/(2k) = 5.98 wavelengths/s, so that interpretation is used
#: throughout.  Run manifests record both labels.
F0_UNIT_NOTE = (
    "f0 interpreted in wavelength^2/s; the quoted 'pm/s' label is "
    "dimensionally inconsistent with dz/dt = F(t,z)"
)


def default_params(kind: str = "lorentzian", **overrides) -> ConveyorParams:
    """Reference parameter set (see ``F0_UNIT_NOTE``), envelope selectable."""
    z0 = overrides.pop("z0", 0.37)
    base = ConveyorParams(
        f0=0.8,
        b=100.0,
        k=2.66 * math.pi,
        envelope=EnvelopeSpec(kind, z0),
        wavelength_nm=580.0,
    )
    return replace(base, **overrides) if overrides else base


# ---------------------------------------------------------------------------
# envelope kernels


def _plane_kernels(z0: float):
    one = lambda z: 1.0
    zero = lambda z: 0.0
    return one, zero, zero


def _lorentzian_kernels(z0: float):
    z0sq = z0 * z0

    def f(z: float) -> float:
        return z0sq / (z0sq + z * z)

    def d1(z: float) -> float:
        den = z0sq + z * z
        return -2.0 * z0sq * z / (den * den)

    def d2(z: float) -> float:
        den = z0sq + z * z
        return z0sq * (6.0 * z * z - 2.0 * z0sq) / (den * den * den)

    return f, d1, d2


def _gaussian_kernels(z0: float):
    z0sq = z0 * z0
    c1 = -4.0 / z0sq
    c2 = 16.0 / (z0sq * z0sq)

    def f(z: float) -> float:
        return math.exp(-2.0 * z * z / z0sq)

    def d1(z: float) -> float:
        return c1 * z * math.exp(-2.0 * z * z / z0sq)

    def d2(z: float) -> float:
        return (c2 * z * z + c1) * math.exp(-2.0 * z * z / z0sq)

    return f, d1, d2


_KERNELS = {
    "plane": _plane_kernels,
    "lorentzian": _lorentzian_kernels,
    "gaussian": _gaussian_kernels,
}


@lru_cache(maxsize=256)
def _envelope_fns(e: EnvelopeSpec):
    return _KERNELS[e.kind](e.z0)


def envelope_value(e: EnvelopeSpec, z: float) -> float:
    """f(z), always in (0, 1]."""
    return _envelope_fns(e)[0](z)


def envelope_d1(e: EnvelopeSpec, z: float) -> float:
    """Exact first derivative f'(z)."""
    return _envelope_fns(e)[1](z)


def envelope_d2(e: EnvelopeSpec, z: float) -> float:
    """Exact second derivative f''(z)."""
    return _envelope_fns(e)[2](z)


def _softplus(x: float) -> float:
    """log(1 + e^x) without overflow."""
    return x + math.log1p(math.exp(-x)) if x > 0.0 else math.log1p(math.exp(x))


def _log_scaled(e: EnvelopeSpec, z: float) -> float:
    """log(|z| / z0), finite for every finite z != 0 whatever its size."""
    return math.log(abs(z)) - math.log(e.z0)


def envelope_log_value(e: EnvelopeSpec, z: float) -> float:
    """log f(z), evaluated without underflow or overflow.

    Finite for every finite z and all three kinds, which is how genuine
    zeros of f (there are none) are told apart from double-precision
    underflow of ``envelope_value``.  The Gaussian's exact value leaves the
    double range beyond |z| ~ 1e154 * z0; there it saturates at
    -sys.float_info.max.
    """
    if e.kind == "plane" or z == 0.0:
        return 0.0
    if e.kind == "lorentzian":
        return -_softplus(2.0 * _log_scaled(e, z))   # -log(1 + (z/z0)^2)
    u = abs(z) / e.z0
    return max(-2.0 * u * u, -sys.float_info.max)


def envelope_log_abs_d1(e: EnvelopeSpec, z: float) -> float:
    """log |f'(z)| without underflow or overflow; -inf where f' vanishes
    exactly, saturating like ``envelope_log_value`` otherwise."""
    if e.kind == "plane" or z == 0.0:
        return -math.inf
    lu = _log_scaled(e, z)
    if e.kind == "lorentzian":
        # |f'| = (2/z0) u / (1 + u^2)^2 with u = |z|/z0
        return math.log(2.0 / e.z0) + lu - 2.0 * _softplus(2.0 * lu)
    u = abs(z) / e.z0
    return max(math.log(4.0 / e.z0) + lu - 2.0 * u * u, -sys.float_info.max)


# ---------------------------------------------------------------------------
# potential and force field


@lru_cache(maxsize=256)
def _field_fns(p: ConveyorParams):
    """Prebound (potential, force, force_dz, potential_dt) closures."""
    f, d1, d2 = _envelope_fns(p.envelope)
    f0, b, k = p.f0, p.b, p.k
    half_b = 0.5 * b
    cos, sin = math.cos, math.sin

    def potential(t: float, z: float) -> float:
        c = cos(k * z - half_b * t)
        return f0 * f(z) * c * c

    def force(t: float, z: float) -> float:
        # dV/dz = -k F0 f(z) sin(2kz - bt) + F0 cos^2(kz - bt/2) f'(z),
        # with sin(2x) = 2 sin x cos x sharing one sin/cos pair.
        ph = k * z - half_b * t
        c = cos(ph)
        s = sin(ph)
        return -2.0 * k * f0 * f(z) * s * c + f0 * c * c * d1(z)

    def force_dz(t: float, z: float) -> float:
        ph = k * z - half_b * t
        c = cos(ph)
        s = sin(ph)
        two_sc = 2.0 * s * c          # sin(2kz - bt)
        cos2 = c * c - s * s          # cos(2kz - bt)
        return (
            -2.0 * k * f0 * d1(z) * two_sc
            - 2.0 * k * k * f0 * f(z) * cos2
            + f0 * c * c * d2(z)
        )

    def potential_dt(t: float, z: float) -> float:
        ph = k * z - half_b * t
        return b * f0 * f(z) * sin(ph) * cos(ph)

    return potential, force, force_dz, potential_dt


def potential(p: ConveyorParams, t: float, z: float) -> float:
    """V(t, z) = f0 * f(z) * cos^2(kz - bt/2); always in [0, f0*f(z)]."""
    return _field_fns(p)[0](t, z)


def force(p: ConveyorParams, t: float, z: float) -> float:
    """F(t, z) = dV/dz, the right-hand side of the equation of motion."""
    return _field_fns(p)[1](t, z)


def force_dz(p: ConveyorParams, t: float, z: float) -> float:
    """dF/dz, the Jacobian used by the variational equation and Newton shooting."""
    return _field_fns(p)[2](t, z)


def potential_dt(p: ConveyorParams, t: float, z: float) -> float:
    """dV/dt = (b/2) * f0 * f(z) * sin(2kz - bt)."""
    return _field_fns(p)[3](t, z)


def force_closure(p: ConveyorParams) -> Callable[[float, float], float]:
    """The force field as a bare (t, z) callable, constants prebound."""
    return _field_fns(p)[1]


def force_dz_closure(p: ConveyorParams) -> Callable[[float, float], float]:
    """dF/dz as a bare (t, z) callable, constants prebound."""
    return _field_fns(p)[2]


def potential_closure(p: ConveyorParams) -> Callable[[float, float], float]:
    """V as a bare (t, z) callable, constants prebound."""
    return _field_fns(p)[0]


def potential_dt_closure(p: ConveyorParams) -> Callable[[float, float], float]:
    """dV/dt as a bare (t, z) callable, constants prebound."""
    return _field_fns(p)[3]


# ---------------------------------------------------------------------------
# structural probes


def fixed_point_test(p: ConveyorParams, z: float, tol: float) -> bool:
    """Numeric criterion for z being a rest point of the flow.

    True iff |f(z)| <= tol and |f'(z)| <= tol.  A point is a genuine rest
    point exactly when f and f' both vanish there; for the three supported
    envelopes that never happens, so a True here at huge |z| is a
    double-precision underflow artifact (see ``fixed_point_classify``).
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    e = p.envelope
    return abs(envelope_value(e, z)) <= tol and abs(envelope_d1(e, z)) <= tol


def fixed_point_classify(p: ConveyorParams, z: float, tol: float) -> str:
    """Classify ``fixed_point_test`` hits: "none", "fixed", or "underflow".

    "underflow" marks points where the numeric test passes but the
    log-space evaluation shows f(z) > 0, i.e. the apparent rest point is an
    artifact of finite precision, not a feature of the flow.
    """
    if not fixed_point_test(p, z, tol):
        return FP_NONE
    if envelope_log_value(p.envelope, z) == -math.inf:
        return FP_GENUINE
    return FP_UNDERFLOW


def plane_regime(p: ConveyorParams) -> str:
    """Phase-locking regime of the plane-wave limit.

    "rectilinear" when b < 2*f0*k^2 (particles lock to the moving fringes
    and translate uniformly), "oscillatory" when b > 2*f0*k^2 (fringes slip
    past the particles, which oscillate around a slower drift line), and
    "degenerate" on the borderline, |b - 2*f0*k^2| <= 1e-12 * b.
    """
    lock = 2.0 * p.f0 * p.k * p.k
    if abs(p.b - lock) <= 1e-12 * p.b:
        return DEGENERATE
    return RECTILINEAR if p.b < lock else OSCILLATORY


def admissibility_probe(e: EnvelopeSpec, n_values=None) -> list[tuple[float, float, float]]:
    """Decay probe for the envelope ratios that control far-field behavior.

    For z_n = n, v_n = n + 0.1 along a geometric sequence of n, returns
    (n, log(f(v_n)^2 / |f'(z_n)|), log(f'(v_n)^2 / |f'(z_n)|)).  For an
    admissible decaying envelope both log-ratios decrease without bound;
    evaluating in log space keeps the Gaussian case finite far past the
    underflow threshold of double precision.
    """
    if e.kind == "plane":
        raise ValueError("plane envelope has identically vanishing f'; probe undefined")
    if n_values is None:
        n_values = [10.0 * (1000.0 ** (i / 15)) for i in range(16)]  # 10 .. 1e4
    out = []
    for n in n_values:
        zn, vn = float(n), float(n) + 0.1
        log_fp_zn = envelope_log_abs_d1(e, zn)
        r1 = 2.0 * envelope_log_value(e, vn) - log_fp_zn
        r2 = 2.0 * envelope_log_abs_d1(e, vn) - log_fp_zn
        out.append((zn, r1, r2))
    return out
