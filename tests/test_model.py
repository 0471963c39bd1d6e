"""Envelope, potential and force-field tests with independent oracles.

Derivative formulas are certified against central finite differences;
the one nontrivial potential value is cross-checked against a 40-digit
mpmath evaluation, and the drive bound against 50-digit ones.
"""

import math

import numpy as np
import pytest

from conveyor.model import (
    DEGENERATE,
    OSCILLATORY,
    RECTILINEAR,
    ConveyorParams,
    EnvelopeSpec,
    default_params,
    drive_bound,
    field,
    plane_regime,
)
from conveyor.periodic import FORCE_FREE_SUP
from conveyor.verify import fixed_point_scan

LOR = EnvelopeSpec("lorentzian", 0.37)
GAU = EnvelopeSpec("gaussian", 0.37)
PLA = EnvelopeSpec("plane")


def central_diff(fn, x, h=1e-6):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


# f, f' and f'' of envelope e, read through the field of a reference set
def f(e, z):
    return field(default_params(e.kind, z0=e.z0)).envelope(z)[0]


def d1(e, z):
    return field(default_params(e.kind, z0=e.z0)).envelope(z)[1]


def d2(e, z):
    return field(default_params(e.kind, z0=e.z0)).envelope(z)[2]


class TestEnvelope:
    def test_plane_is_unity(self):
        for z in (-123.0, 0.0, 0.37, 4e6):
            assert f(PLA, z) == 1.0
            assert d1(PLA, z) == 0.0
            assert d2(PLA, z) == 0.0

    def test_lorentzian_half_at_z0(self):
        assert f(LOR, 0.37) == pytest.approx(0.5, abs=1e-15)
        assert f(LOR, -0.37) == pytest.approx(0.5, abs=1e-15)

    def test_gaussian_e_minus_two_at_z0(self):
        assert f(GAU, 0.37) == pytest.approx(math.exp(-2), rel=1e-15)

    def test_first_derivative_vanishes_at_origin(self):
        for e in (PLA, LOR, GAU):
            assert d1(e, 0.0) == 0.0

    def test_lorentzian_d1_hand_value(self):
        # d/dz [z0^2/(z0^2+z^2)] at z0=1, z=1 is -2/(1+1)^2 = -0.5
        e = EnvelopeSpec("lorentzian", 1.0)
        assert d1(e, 1.0) == pytest.approx(-0.5, rel=1e-15)
        assert d1(e, 1.0) == pytest.approx(
            central_diff(lambda z: f(e, z), 1.0), rel=1e-6
        )

    def test_gaussian_d1_hand_value(self):
        e = EnvelopeSpec("gaussian", 1.0)
        assert d1(e, 1.0) == pytest.approx(-4.0 * math.exp(-2), rel=1e-15)
        assert d1(e, 1.0) == pytest.approx(
            central_diff(lambda z: f(e, z), 1.0), rel=1e-6
        )

    @pytest.mark.parametrize("e", [LOR, GAU], ids=["lorentzian", "gaussian"])
    def test_derivatives_match_finite_differences(self, e):
        rng = np.random.default_rng(7)
        for z in rng.uniform(-3.0, 3.0, 40):
            z = float(z)
            d1_fd = central_diff(lambda x: f(e, x), z)
            assert d1(e, z) == pytest.approx(d1_fd, rel=1e-6, abs=1e-9)
            d2_fd = central_diff(lambda x: d1(e, x), z)
            assert d2(e, z) == pytest.approx(d2_fd, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("e", [LOR, GAU], ids=["lorentzian", "gaussian"])
    def test_parity(self, e):
        for z in (0.1, 0.37, 1.0, 2.5, 10.0):
            assert f(e, -z) == f(e, z)
            assert d1(e, -z) == -d1(e, z)

    @pytest.mark.parametrize("e", [LOR, GAU], ids=["lorentzian", "gaussian"])
    def test_decay_along_decades(self, e):
        zs = [10.0, 100.0, 1000.0, 10000.0]
        fs = [abs(f(e, z)) for z in zs]
        dfs = [abs(d1(e, z)) for z in zs]
        assert all(a >= b for a, b in zip(fs, fs[1:]))
        assert all(a >= b for a, b in zip(dfs, dfs[1:]))
        assert fs[-1] < 1e-7 and dfs[-1] < 1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            EnvelopeSpec("parabolic")
        with pytest.raises(ValueError):
            EnvelopeSpec("lorentzian", 0.0)
        with pytest.raises(ValueError):
            EnvelopeSpec("gaussian", -1.0)
        with pytest.raises(ValueError):
            EnvelopeSpec("lorentzian", math.inf)
        with pytest.raises(ValueError):
            EnvelopeSpec("plane", math.nan)
        EnvelopeSpec("plane")  # z0 not required

    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    @pytest.mark.parametrize("z0", [1e160, 1e-170, 1e100, 1e-60, 1e-100])
    def test_scale_must_square_to_a_positive_finite_double(self, kind, z0):
        # z0**2 = inf gives f = inf/inf; z0**2 = 0 gives 0/0 at z = 0; the
        # kernels reach z0**6, so 1e100 gives a NaN f'' and 1e-60 and 1e-100
        # divide by zero
        with pytest.raises(ValueError):
            EnvelopeSpec(kind, z0)

    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    @pytest.mark.parametrize("z0", [1e-50, 1e50])
    def test_extreme_accepted_scales_have_finite_kernels(self, kind, z0):
        e = EnvelopeSpec(kind, z0)
        for z in (0.0, z0, 1e3 * z0):
            assert all(math.isfinite(v) for v in (f(e, z), d1(e, z), d2(e, z)))


class TestParams:
    def test_period(self):
        p = default_params()
        assert p.period == pytest.approx(4.0 * math.pi / 100.0, rel=1e-15)
        assert p.period > 0.0 and math.isfinite(p.period)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConveyorParams(f0=-0.1, b=100.0, k=1.0, envelope=PLA)
        with pytest.raises(ValueError):
            ConveyorParams(f0=0.8, b=0.0, k=1.0, envelope=PLA)
        with pytest.raises(ValueError):
            ConveyorParams(f0=0.8, b=100.0, k=-1.0, envelope=PLA)
        # zero drive is allowed: it is the exactly solvable degenerate case
        ConveyorParams(f0=0.0, b=100.0, k=1.0, envelope=PLA)

    @pytest.mark.parametrize("field,value", [("f0", math.nan), ("b", math.inf),
                                             ("k", -math.inf), ("wavelength_nm", math.nan)])
    def test_non_finite_rejected(self, field, value):
        # unchecked, a NaN drive would surface only later, as
        # StepSizeUnderflow at t = 0, and b = inf would give a zero period
        with pytest.raises(ValueError):
            default_params("lorentzian", **{field: value})

    @pytest.mark.parametrize("b", [1e-320, 5e-324, 7e-309])
    def test_overflowing_period_rejected(self, b):
        # 4 pi / b overflows to inf below b ~ 7e-308; every solver would then
        # run over an infinite period
        with pytest.raises(ValueError, match="finite drive period"):
            default_params("lorentzian", b=b)
        assert math.isfinite(default_params("lorentzian", b=1e-307).period)

    @pytest.mark.parametrize("kind,overrides", [("lorentzian", dict(f0=1.1e307)),
                                                ("plane", dict(f0=1.1e307)),
                                                ("lorentzian", dict(f0=1e300, z0=1e-40)),
                                                ("gaussian", dict(f0=1e300, k=1e10)),
                                                ("plane", dict(f0=1.7e308, k=0.6))])
    def test_unbounded_force_rejected(self, kind, overrides):
        # F or dF/dz would overflow somewhere and surface later as a math
        # domain error or a step-size underflow; for the plane at f0 = 1.7e308,
        # k = 0.6 the bound f0 k on |F| is finite, but the kernels' factor
        # -2k f0 is not
        with pytest.raises(ValueError, match=r"bound \|F\| and \|dF/dz\|"):
            default_params(kind, **overrides)
        p = default_params("plane", f0=1e308, k=0.6)
        assert all(math.isfinite(v) for t in (0.0, 0.001, 0.01)
                   for v in (field(p).force(t, 0.3), *field(p).force_and_dz(t, 0.3)))

    def test_default_params_overrides(self):
        p = default_params("gaussian", b=200.0)
        assert p.envelope.kind == "gaussian"
        assert p.b == 200.0
        assert p.envelope.z0 == 0.37


class TestPotentialAndForce:
    def test_potential_at_origin_is_f0(self, lorentzian_params):
        assert field(lorentzian_params).potential(0.0, 0.0) == pytest.approx(0.8, rel=1e-15)

    def test_potential_zero_at_quarter_phase(self):
        for kind in ("plane", "lorentzian", "gaussian"):
            p = default_params(kind)
            z = math.pi / (2.0 * p.k)  # k z - b t/2 = pi/2 at t = 0
            assert abs(field(p).potential(0.0, z)) < 1e-16

    def test_potential_reference_value(self, lorentzian_params):
        # frozen from a 40-digit evaluation of 0.8 * f(0.37) * cos(0.37 k)^2
        expected = 0.3990152699233614
        got = field(lorentzian_params).potential(0.0, 0.37)
        assert got == pytest.approx(expected, rel=1e-14)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        k = mp.mpf("2.66") * mp.pi
        f = mp.mpf("0.37") ** 2 / (mp.mpf("0.37") ** 2 + mp.mpf("0.37") ** 2)
        ref = mp.mpf("0.8") * f * mp.cos(k * mp.mpf("0.37")) ** 2
        assert got == pytest.approx(float(ref), rel=1e-14)

    def test_force_plane_zero_at_origin(self, plane_params):
        assert field(plane_params).force(0.0, 0.0) == 0.0

    def test_force_plane_peak_value(self, plane_params):
        # at 2kz - bt = pi/2 the plane force is -k f0 = -6.68530916683908
        z = math.pi / (4.0 * plane_params.k)
        assert field(plane_params).force(0.0, z) == pytest.approx(-6.68530916683908, rel=1e-12)

    def test_force_dz_plane_at_origin(self, plane_params):
        k = plane_params.k
        dfz = field(plane_params).force_and_dz(0.0, 0.0)[1]
        assert dfz == pytest.approx(-2.0 * 0.8 * k * k, rel=1e-13)
        assert dfz == pytest.approx(-111.73339664055659, rel=1e-12)

    def test_force_dz_vanishes_far_out(self, lorentzian_params):
        # polynomial tail: ~2 k^2 f0 * f(z) ~ 3e-11 at z = 1e6, shrinking ~1/z^2
        force_and_dz = field(lorentzian_params).force_and_dz
        assert abs(force_and_dz(0.3, 1e6)[1]) < 1e-10
        assert abs(force_and_dz(0.3, 1e6)[1]) < abs(force_and_dz(0.3, 1e3)[1])

    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    def test_force_dz_finite_where_z_squared_overflows(self, kind):
        # 6 z^2 overflows from ~5.5e153 and z^2 itself from ~1.3e154; there
        # f'' is 0, not inf/inf (Lorentzian) or inf * 0 (Gaussian)
        fld = field(default_params(kind))
        for z in (1e154, -1e154, 1.3e154, -1.3e154, 1e200, -1e200):
            assert fld.envelope(z)[2] == 0.0
            assert all(map(math.isfinite, fld.force_and_dz(0.3, z)))

    def test_gaussian_d1_where_exp_underflows(self):
        # c1*z = -4z/z0^2 overflows at z0 = 1e-50, z = 1e250; f' keeps the sign of
        # c1*z times 0, as it has wherever c1*z is finite
        fld = field(default_params("gaussian", z0=1e-50))
        for z, sign in ((1e250, -1.0), (-1e250, 1.0), (1e-40, -1.0), (-1e-40, 1.0)):
            f, d1, d2 = fld.envelope(z)
            assert (f, d1, d2) == (0.0, 0.0, 0.0)
            assert math.copysign(1.0, d1) == sign
            assert all(map(math.isfinite, (fld.force(0.3, z), *fld.force_and_dz(0.3, z))))

    def test_potential_dt_zero_at_origin(self, lorentzian_params):
        assert field(lorentzian_params).identity_terms(0.0, 0.0)[1] == 0.0

    def test_potential_dt_plane_peak(self, plane_params):
        # at 2kz - bt = pi/2: dV/dt = b f0 / 2 = 40
        z = math.pi / (4.0 * plane_params.k)
        assert field(plane_params).identity_terms(0.0, z)[1] == pytest.approx(40.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["plane", "lorentzian", "gaussian"])
    def test_gradient_consistency(self, kind):
        # force == dV/dz and the identity terms' dV/dt by central differences
        p = default_params(kind)
        scale = p.k * p.f0
        rng = np.random.default_rng(11)
        for t, z in zip(rng.uniform(0, 1, 60), rng.uniform(-2, 2, 60)):
            t, z = float(t), float(z)
            fz = field(p).force(t, z)
            fd = central_diff(lambda x: field(p).potential(t, x), z)
            if abs(fz) > 1e-2 * scale:  # away from zeros of the gradient
                assert fz == pytest.approx(fd, rel=1e-6)
            vt = field(p).identity_terms(t, z)[1]
            vt_fd = central_diff(lambda s: field(p).potential(s, z), t)
            if abs(vt) > 1e-2 * scale * p.b / p.k:
                assert vt == pytest.approx(vt_fd, rel=1e-6)

    @pytest.mark.parametrize("kind", ["plane", "lorentzian", "gaussian"])
    def test_force_dz_matches_finite_difference(self, kind):
        p = default_params(kind)
        rng = np.random.default_rng(13)
        scale = 2.0 * p.k * p.k * p.f0
        for t, z in zip(rng.uniform(0, 1, 40), rng.uniform(-2, 2, 40)):
            t, z = float(t), float(z)
            dfz = field(p).force_and_dz(t, z)[1]
            fd = central_diff(lambda x: field(p).force(t, x), z)
            assert dfz == pytest.approx(fd, rel=1e-5, abs=1e-5 * scale)

    @pytest.mark.parametrize("kind", ["plane", "lorentzian", "gaussian"])
    def test_drive_periodicity(self, kind):
        p = default_params(kind)
        T = p.period
        rng = np.random.default_rng(17)
        for t, z in zip(rng.uniform(-5, 5, 1000), rng.uniform(-10, 10, 1000)):
            a = field(p).force(float(t), float(z))
            b = field(p).force(float(t) + T, float(z))
            assert abs(b - a) < 1e-12 * (1.0 + abs(a))

    @pytest.mark.parametrize("kind", ["plane", "lorentzian", "gaussian"])
    def test_minimal_drive_period(self, kind):
        # F depends on t through cos^2(kz - bt/2) and its derivative only, so
        # it repeats after 2 pi / b, half the period; the solvers' maps rest on it
        p = default_params(kind)
        half = 2.0 * math.pi / p.b
        assert half == 0.5 * p.period
        rng = np.random.default_rng(20261019)
        for t, z in zip(rng.uniform(-5, 5, 1000), rng.uniform(-10, 10, 1000)):
            a = field(p).force(float(t), float(z))
            b = field(p).force(float(t) + half, float(z))
            assert abs(b - a) < 1e-12 * (1.0 + abs(a))

    @pytest.mark.parametrize("kind", ["plane", "lorentzian", "gaussian"])
    def test_potential_range(self, kind):
        p = default_params(kind)
        rng = np.random.default_rng(19)
        for t, z in zip(rng.uniform(0, 1, 200), rng.uniform(-6, 6, 200)):
            v = field(p).potential(float(t), float(z))
            ceiling = p.f0 * field(p).envelope(float(z))[0]
            assert -1e-16 <= v <= ceiling + 1e-15
            assert ceiling <= p.f0 + 1e-15


class TestStructuralProbes:
    # drive_bound = 2 f0 max(k f, |f'|) bounds |F(t, z)| over all t; it reads
    # 0.0 where f0 = 0, and also where f underflows or z*z overflows, never nan

    def test_fixed_point_plane_never(self, plane_params):
        for z in (-10.0, 0.0, 3.3):
            assert drive_bound(plane_params, z) == 2.0 * plane_params.f0 * plane_params.k

    def test_fixed_point_lorentzian_never(self, lorentzian_params):
        # f > 0 everywhere, and over this window far above any underflow
        for z in np.linspace(-50, 50, 101):
            assert drive_bound(lorentzian_params, float(z)) > FORCE_FREE_SUP

    def test_fixed_point_gaussian_underflow_artifact(self, gaussian_params):
        # f(50) underflows to 0.0 in double precision, and so does the bound;
        # its true value lies some 15,800 decades below FORCE_FREE_SUP
        f, d1, _ = field(gaussian_params).envelope(50.0)
        assert f == 0.0 and d1 == 0.0
        assert drive_bound(gaussian_params, 50.0) == 0.0
        # |f'| = (4/z0) u f with u = 50/z0 dominates k f
        u = 50.0 / 0.37
        log_true = math.log(2.0 * gaussian_params.f0 * 4.0 / 0.37 * u) - 2.0 * u * u
        assert (log_true - math.log(FORCE_FREE_SUP)) / math.log(10.0) < -15000.0

    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    def test_fixed_point_overflow_is_not_a_rest_point(self, kind):
        # z*z overflows at |z| = 1e200; the bound reads 0.0 there, not nan,
        # and only f0 = 0 makes a rest point
        p = default_params(kind)
        for z in (1e200, -1e200):
            assert drive_bound(p, z) == 0.0
        assert fixed_point_scan(p, 1e200, 2e200, 3) == []

    @pytest.mark.parametrize("kind", ["plane", "lorentzian", "gaussian"])
    def test_drive_free_is_a_rest_point(self, kind):
        p = default_params(kind, f0=0.0)
        for z in (-1e200, -50.0, 0.0, 0.5, 1e200):
            assert drive_bound(p, z) == 0.0

    @pytest.mark.parametrize("kind", ["plane", "lorentzian", "gaussian"])
    def test_drive_bound_bounds_the_force(self, kind):
        # sup_t |F(t, z)| <= 2 f0 max(k f, |f'|), and within a factor 2 of it
        p = default_params(kind)
        force = field(p).force
        ts = np.linspace(0.0, p.period, 401)
        for z in np.linspace(-3.0, 3.0, 61):
            sup = max(abs(force(float(t), float(z))) for t in ts)
            bound = drive_bound(p, float(z))
            assert bound / 2.0 * 0.999 <= sup <= bound * (1.0 + 1e-12)

    @pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
    def test_drive_bound_matches_mpmath(self, kind):
        # 2 f0 max(k f, |f'|) at 50 digits for |z| from 1e-3 to 1e300, four
        # points a decade: the plain-float bound matches it wherever it is
        # above 1e-290, and reads below FORCE_FREE_SUP wherever it does
        mp = pytest.importorskip("mpmath")
        p = default_params(kind)
        with mp.workdps(50):
            f0, k, z0 = mp.mpf(p.f0), mp.mpf(p.k), mp.mpf(p.envelope.z0)
            for e in range(-12, 1201):
                for z in (10.0 ** (e / 4), -10.0 ** (e / 4)):
                    u = mp.mpf(z) / z0
                    if kind == "lorentzian":
                        f = 1 / (1 + u * u)
                        d1 = -2 * u / (z0 * (1 + u * u) ** 2)
                    else:
                        f = mp.exp(-2 * u * u)
                        d1 = -4 * u / z0 * f
                    true = 2 * f0 * max(k * f, abs(d1))
                    got = drive_bound(p, z)
                    if true > mp.mpf("1e-290"):
                        assert abs(got - true) <= 1e-13 * true, z
                    if true < FORCE_FREE_SUP:
                        assert got < FORCE_FREE_SUP, z

    def test_plane_regime_reference(self):
        assert plane_regime(default_params("plane")) == RECTILINEAR  # 100 < 111.73
        assert plane_regime(default_params("plane", b=200.0)) == OSCILLATORY
        p = default_params("plane")
        exact = default_params("plane", b=2.0 * p.f0 * p.k * p.k)
        assert plane_regime(exact) == DEGENERATE


def _bits(v):
    """float.hex of a value, or of each entry of a tuple of them."""
    return tuple(x.hex() for x in v) if isinstance(v, tuple) else v.hex()


def _product_rule(p):
    """V, F, dF/dz and dV/dt of ``p`` over ``field(p).envelope``, F and dF/dz
    by the product rule, term for term as the unfused field evaluated them,
    and cos^2(kz - bt/2) f', as the force identity's integrand evaluated it."""
    envelope = field(p).envelope
    f0, k, half_b = p.f0, p.k, 0.5 * p.b

    def potential(t, z):
        c = math.cos(k * z - half_b * t)
        return f0 * envelope(z)[0] * c * c

    def potential_dt(t, z):
        ph = k * z - half_b * t
        return p.b * f0 * envelope(z)[0] * math.sin(ph) * math.cos(ph)

    def force(t, z):
        ph = k * z - half_b * t
        c = math.cos(ph)
        s = math.sin(ph)
        fz, d1, _ = envelope(z)
        return -2.0 * k * f0 * fz * s * c + f0 * c * c * d1

    def force_dz(t, z):
        ph = k * z - half_b * t
        c = math.cos(ph)
        s = math.sin(ph)
        two_sc = 2.0 * s * c
        cos2 = c * c - s * s
        fz, d1, d2 = envelope(z)
        return -2.0 * k * f0 * d1 * two_sc - 2.0 * k * k * f0 * fz * cos2 + f0 * c * c * d2

    def weighted_slope(t, z):
        c = math.cos(k * z - half_b * t)
        return c * c * envelope(z)[1]

    return potential, force, force_dz, potential_dt, weighted_slope


class TestFusedKernels:
    """Each kind's F, (F, dF/dz) and identity terms (dV/dt among them) write
    the envelope inline, and V reads f from the envelope triple; all must equal
    their forms over the envelope triple bit for bit, signed zeros included
    (``float.hex`` tells -0.0 from 0.0).  The pair's F is ``force`` and the
    identity terms are ``force``'s square, dV/dt and cos^2(kz - bt/2) f'."""

    @staticmethod
    def assert_bitwise(p, points):
        fld = field(p)
        potential, force, force_dz, potential_dt, weighted_slope = _product_rule(p)
        pairs = [
            (fld.potential, potential), (fld.force, force),
            (fld.force_and_dz, lambda t, z: (fld.force(t, z), force_dz(t, z))),
            (fld.identity_terms,
             lambda t, z: (fld.force(t, z) ** 2, potential_dt(t, z), weighted_slope(t, z))),
        ]
        for t, z in points:
            for got, ref in pairs:
                assert _bits(got(t, z)) == _bits(ref(t, z)), (p, got.__name__, t, z)

    @pytest.mark.parametrize("kind", ["plane", "lorentzian", "gaussian"])
    def test_seeded_random_points(self, kind):
        rng = np.random.default_rng(20261018)
        for _ in range(40):
            f0 = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.1, 2.0))
            p = default_params(kind, f0=f0, b=float(rng.uniform(20.0, 200.0)),
                               k=float(rng.uniform(1.0, 4.0)) * math.pi,
                               z0=float(rng.uniform(0.2, 0.6)))
            points = [(float(t), float(z)) for t, z in
                      zip(rng.uniform(-0.2, 0.2, 50), rng.uniform(-5.0, 5.0, 50))]
            points += [(t, z) for t in (0.0, -0.0, 0.01) for z in (0.0, -0.0, 0.3, -0.3)]
            self.assert_bitwise(p, points)

    def test_gaussian_underflow_tail(self):
        # exp underflows for |z| >~ 1e-49 at z0 = 1e-50, and c1 z overflows
        # from |z| ~ 1e208: f' is then a signed zero
        p = default_params("gaussian", z0=1e-50)
        rng = np.random.default_rng(7)
        mags = 10.0 ** rng.uniform(-52.0, 250.0, 200)
        signs = rng.choice([-1.0, 1.0], 200)
        ts = rng.uniform(-0.2, 0.2, 200)
        points = [(float(t), float(s * m)) for t, s, m in zip(ts, signs, mags)]
        points += [(0.3, z) for z in (1e250, -1e250, 1e-40, -1e-40)]
        self.assert_bitwise(p, points)

    def test_lorentzian_where_den_cubed_overflows(self):
        # den**3 overflows past |z| ~ 1.3e154, where f'' is 0
        p = default_params("lorentzian")
        rng = np.random.default_rng(11)
        mags = 10.0 ** rng.uniform(math.log10(1.3e154), 300.0, 200)
        signs = rng.choice([-1.0, 1.0], 200)
        ts = rng.uniform(-0.2, 0.2, 200)
        self.assert_bitwise(p, [(float(t), float(s * m)) for t, s, m in zip(ts, signs, mags)])
