"""Envelope functions, conveyor potential, force field, and exact derivatives.

Single source of truth for every right-hand side used in the package.  The
equation of motion is the overdamped scalar ODE

    dz/dt = F(t, z) = dV/dz,      V(t, z) = F0 * f(z) * cos(k z - b t / 2)**2,

with z measured in units of the optical wavelength, t in seconds, k in
rad/wavelength and b in rad/s.  The axial strength profile f(z) is one of
three envelopes: plane (f == 1), Lorentzian, or Gaussian.  The drive's
minimal period is 2*pi/b, half of ``ConveyorParams.period`` = 4*pi/b; the
solvers seek periodic orbits as fixed points of the map over 2*pi/b.

``field(p)`` serves the whole field of one parameter set as prebound
callables: V, F, the pair (F, dF/dz), the envelope with its exact
derivatives and the identity integrands (F^2, dV/dt, cos^2(kz - bt/2) f').
Each envelope kind supplies one kernel, z -> (f, f', f''), sharing one
denominator or one exp, for the envelope and for V, which reads its f; F,
the pair and the identity integrands are fused per kind, with the envelope
written inline, so one point costs one Python call.  ``force_closure`` is
the name under which the solvers fetch F.  ``drive_bound`` bounds |F(t, z)| over all
t; no envelope vanishes, so F is zero at z for every t only when f0 = 0.

All types are immutable and all operations are pure functions; they are safe
to call from any number of concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from math import copysign, cos, exp, sin
from typing import Callable, NamedTuple

ENVELOPE_KINDS = ("plane", "lorentzian", "gaussian")

# plane_regime results
RECTILINEAR = "rectilinear"
OSCILLATORY = "oscillatory"
DEGENERATE = "degenerate"


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
        # the kernels reach z0**6 (the Lorentzian f'' at z = 0), which must be
        # a positive finite double; z0 ** 6 itself would raise OverflowError
        z0sq = self.z0 * self.z0
        if self.kind != "plane" and not (self.z0 > 0.0 and 0.0 < z0sq * z0sq * z0sq < math.inf):
            raise ValueError(f"envelope scale z0 must be > 0 with z0**6 a positive finite "
                             f"double, got {self.z0!r}")


@dataclass(frozen=True)
class ConveyorParams:
    """Physical constants of the conveyor.

    f0 : drive strength, wavelength**2 / s (see note in ``default_params``);
         with k and the envelope it must keep the bounds on |F| and |dF/dz|
         finite
    b  : phase-slip rate of the counter-propagating beams, rad/s; the drive
         period 4*pi/b must be a finite double
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
        # 4*pi/b overflows for b below about 7e-308
        if not (self.b > 0.0 and self.period < math.inf):
            raise ValueError(f"b must be > 0 with a finite drive period 4*pi/b, got {self.b!r}")
        if not self.k > 0.0:
            raise ValueError(f"k must be > 0, got {self.k!r}")
        if not self.wavelength_nm > 0.0:
            raise ValueError(f"wavelength_nm must be > 0, got {self.wavelength_nm!r}")
        # |f| <= 1, |f'| <= 2/z0 and |f''| <= 4/z0^2 for every envelope (the
        # plane has no z0 terms), so these bound |F| and |dF/dz| over all
        # (t, z); the first takes 2k, not k, to bound the kernels' factor -2k f0
        r = 0.0 if self.envelope.kind == "plane" else 2.0 / self.envelope.z0
        k = self.k
        if not (math.isfinite(self.f0 * (2.0 * k + r))
                and math.isfinite(self.f0 * (2.0 * k * k + 2.0 * k * r + r * r))):
            raise ValueError(f"f0 * (2k + 2/z0) and f0 * (2k^2 + 4k/z0 + 4/z0^2), which "
                             f"bound |F| and |dF/dz|, must be finite, got f0={self.f0!r}, "
                             f"k={k!r}, envelope {self.envelope}")

    @property
    def period(self) -> float:
        """4*pi/b, the period orbits report; F(t, z) already repeats after 2*pi/b."""
        return 4.0 * math.pi / self.b

    def phase_is_finite(self, z: float, t: float) -> bool:
        """Whether k*z - b*t/2 is finite: ``math.cos`` raises on inf in the force."""
        return math.isfinite(self.k * z - 0.5 * self.b * t)


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
# per envelope kind: the kernel z -> (f, f', f''), then F, (F, dF/dz) and
# the identity terms (F^2, dV/dt, c^2 f'), each with one phase, one cos/sin
# pair and the envelope inline, in this operation order, which fixes their bits:
#     F     = -2k f0 f s c + f0 c^2 f',    c, s = cos, sin(kz - bt/2)
#     dF/dz = -2k f0 f' sin(2kz - bt) - 2k^2 f0 f cos(2kz - bt) + f0 c^2 f''
#     dV/dt = b f0 f s c


def _plane_kernels(z0: float, k: float, half_b: float, f0: float, m2kf0: float, tkkf0: float,
                   bf0: float):
    # the f' and f'' terms stay, times 0.0, for the same signed zeros
    def force(t: float, z: float) -> float:
        ph = k * z - half_b * t
        c = cos(ph)
        return m2kf0 * sin(ph) * c + f0 * c * c * 0.0

    def force_and_dz(t: float, z: float) -> tuple[float, float]:
        ph = k * z - half_b * t
        c, s = cos(ph), sin(ph)
        f0c2 = f0 * c * c
        return (m2kf0 * s * c + f0c2 * 0.0,
                m2kf0 * 0.0 * (2.0 * s * c) - tkkf0 * (c * c - s * s) + f0c2 * 0.0)

    def identity_terms(t: float, z: float) -> tuple[float, float, float]:
        ph = k * z - half_b * t
        c, s = cos(ph), sin(ph)
        return (m2kf0 * s * c + f0 * c * c * 0.0) ** 2, bf0 * s * c, c * c * 0.0

    return (lambda z: (1.0, 0.0, 0.0)), force, force_and_dz, identity_terms


def _lorentzian_kernels(z0: float, k: float, half_b: float, f0: float, m2kf0: float, tkkf0: float,
                        bf0: float):
    z0sq = z0 * z0
    m2z0sq = -2.0 * z0sq

    def fd2(z: float) -> tuple[float, float, float]:
        den = z0sq + z * z
        den3 = den * den * den
        # where den**3 overflows f'' is 0 (not inf/inf past |z| ~ 1.3e154)
        d2 = z0sq * (6.0 * z * z - 2.0 * z0sq) / den3 if den3 < math.inf else 0.0
        return z0sq / den, m2z0sq * z / (den * den), d2

    def force(t: float, z: float) -> float:
        ph = k * z - half_b * t
        c = cos(ph)
        den = z0sq + z * z
        return m2kf0 * (z0sq / den) * sin(ph) * c + f0 * c * c * (m2z0sq * z / (den * den))

    def force_and_dz(t: float, z: float) -> tuple[float, float]:
        ph = k * z - half_b * t
        c, s = cos(ph), sin(ph)
        den = z0sq + z * z
        den3 = den * den * den
        fz, d1 = z0sq / den, m2z0sq * z / (den * den)
        d2 = z0sq * (6.0 * z * z - 2.0 * z0sq) / den3 if den3 < math.inf else 0.0
        f0c2 = f0 * c * c
        return (m2kf0 * fz * s * c + f0c2 * d1,
                m2kf0 * d1 * (2.0 * s * c) - tkkf0 * fz * (c * c - s * s) + f0c2 * d2)

    def identity_terms(t: float, z: float) -> tuple[float, float, float]:
        ph = k * z - half_b * t
        c, s = cos(ph), sin(ph)
        den = z0sq + z * z
        fz, d1 = z0sq / den, m2z0sq * z / (den * den)
        return (m2kf0 * fz * s * c + f0 * c * c * d1) ** 2, bf0 * fz * s * c, c * c * d1

    return fd2, force, force_and_dz, identity_terms


def _gaussian_kernels(z0: float, k: float, half_b: float, f0: float, m2kf0: float, tkkf0: float,
                      bf0: float):
    z0sq = z0 * z0
    c1 = -4.0 / z0sq
    c2 = 16.0 / (z0sq * z0sq)

    # where exp underflows f' is the signed 0 of c1 z * 0 and f'' is 0, even
    # where c1 z or c2 z^2 overflows (inf * 0)
    def fd2(z: float) -> tuple[float, float, float]:
        g = exp(-2.0 * z * z / z0sq)
        if not g:
            return g, copysign(0.0, c1 * z), 0.0
        return g, c1 * z * g, (c2 * z * z + c1) * g

    def force(t: float, z: float) -> float:
        ph = k * z - half_b * t
        c = cos(ph)
        g = exp(-2.0 * z * z / z0sq)
        d1 = c1 * z * g if g else copysign(0.0, c1 * z)
        return m2kf0 * g * sin(ph) * c + f0 * c * c * d1

    def force_and_dz(t: float, z: float) -> tuple[float, float]:
        ph = k * z - half_b * t
        c, s = cos(ph), sin(ph)
        g = exp(-2.0 * z * z / z0sq)
        d1, d2 = (c1 * z * g, (c2 * z * z + c1) * g) if g else (copysign(0.0, c1 * z), 0.0)
        f0c2 = f0 * c * c
        return (m2kf0 * g * s * c + f0c2 * d1,
                m2kf0 * d1 * (2.0 * s * c) - tkkf0 * g * (c * c - s * s) + f0c2 * d2)

    def identity_terms(t: float, z: float) -> tuple[float, float, float]:
        ph = k * z - half_b * t
        c, s = cos(ph), sin(ph)
        g = exp(-2.0 * z * z / z0sq)
        d1 = c1 * z * g if g else copysign(0.0, c1 * z)
        return (m2kf0 * g * s * c + f0 * c * c * d1) ** 2, bf0 * g * s * c, c * c * d1

    return fd2, force, force_and_dz, identity_terms


_KERNELS = {
    "plane": _plane_kernels,
    "lorentzian": _lorentzian_kernels,
    "gaussian": _gaussian_kernels,
}


# ---------------------------------------------------------------------------
# potential and force field


class Field(NamedTuple):
    """The conveyor's field at one parameter set, constants prebound."""

    potential: Callable[[float, float], float]      # V(t, z), in [0, f0 f(z)]
    force: Callable[[float, float], float]          # F = dV/dz, the equation of motion
    force_and_dz: Callable[[float, float], tuple[float, float]]  # (F, dF/dz), for multipliers
    envelope: Callable[[float], tuple[float, float, float]]  # z -> (f, f', f''), exact
    identity_terms: Callable[[float, float], tuple]  # verify's (F^2, dV/dt, cos^2(kz - bt/2) f')


@lru_cache(maxsize=256)
def field(p: ConveyorParams) -> Field:
    """The field of ``p``, built once per parameter set."""
    f0, b, k = p.f0, p.b, p.k
    half_b = 0.5 * b
    fd2, force, force_and_dz, identity_terms = _KERNELS[p.envelope.kind](
        p.envelope.z0, k, half_b, f0, -2.0 * k * f0, 2.0 * k * k * f0, b * f0)

    def potential(t: float, z: float) -> float:
        c = cos(k * z - half_b * t)
        return f0 * fd2(z)[0] * c * c

    return Field(potential, force, force_and_dz, fd2, identity_terms)


def force_closure(p: ConveyorParams) -> Callable[[float, float], float]:
    """``field(p).force``, the name under which the solvers fetch F."""
    return field(p).force


def drive_bound(p: ConveyorParams, z: float) -> float:
    """2 f0 max(k f(z), |f'(z)|), a bound on |F(t, z)| over all t.

    Read off ``field(p).envelope`` in plain floats: 0.0 where f0 = 0, and
    also where f and f' underflow or z*z overflows, where the true bound
    lies far below any threshold it is compared with; inf where it exceeds
    the double range.
    """
    f, d1, _ = field(p).envelope(z)
    return 2.0 * p.f0 * max(p.k * f, abs(d1))


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
