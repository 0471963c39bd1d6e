"""The fixed-point solver on synthetic increasing maps, no integrator."""

import math

import pytest

from conveyor._newton import SPAN, solve_fixed_point
from conveyor.errors import NoConvergence

TOL = 1e-9


def with_sens(residual, slope):
    """(P(z), P'(z)) for P(z) = z + R(z) from R and R'."""
    return lambda z: (z + residual(z), 1.0 + slope(z))


class TestSolveFixedPoint:
    def test_near_identity_tail_reaches_the_genuine_zero(self):
        # R = -(z - 1) exp(-(z - 1)^2) / 2: at z = 6, |R| ~ 3.5e-11 < TOL and
        # |P' - 1| ~ 3e-10, yet the only fixed point is z = 1 (P' = 0.5)
        x = lambda z: z - 1.0
        m = with_sens(lambda z: -0.5 * x(z) * math.exp(-x(z) ** 2),
                      lambda z: -0.5 * (1.0 - 2.0 * x(z) ** 2) * math.exp(-x(z) ** 2))
        assert abs(m(6.0)[0] - 6.0) < TOL
        res = solve_fixed_point(m, 6.0, TOL)
        assert res.z_star == pytest.approx(1.0, abs=1e-9)
        assert res.derivative == pytest.approx(0.5, abs=1e-9)
        assert res.residual < TOL

    def test_repelling_fixed_point(self):
        # the march from a guess runs away from a repelling fixed point, as
        # the iterates of P do; a bracket around it reaches it
        residual = lambda z: 0.5 * math.tanh(z - 0.3)
        m = with_sens(residual, lambda z: 0.5 / math.cosh(z - 0.3) ** 2)
        with pytest.raises(NoConvergence):
            solve_fixed_point(m, 2.0, TOL)
        res = solve_fixed_point(m, 2.0, TOL, bracket=[(-1.0, residual(-1.0)), (2.0, residual(2.0))])
        assert res.z_star == pytest.approx(0.3, abs=1e-9)
        assert res.derivative == pytest.approx(1.5, abs=1e-9)

    def test_march_captures_the_first_fixed_point_that_way(self):
        # R = -(z - 1)(z + 1)(z - 3)/8: from 2, R > 0 and P's iterates rise to
        # the attracting 3; from -2, R > 0 too, and they rise to the attracting
        # -1, not past the repelling 1
        residual = lambda z: -(z - 1.0) * (z + 1.0) * (z - 3.0) / 8.0
        slope = lambda z: -(3.0 * z * z - 6.0 * z - 1.0) / 8.0
        m = with_sens(residual, slope)
        assert solve_fixed_point(m, 2.0, TOL).z_star == pytest.approx(3.0, abs=1e-9)
        assert solve_fixed_point(m, -2.0, TOL).z_star == pytest.approx(-1.0, abs=1e-9)

    def test_identity_beyond_the_drive_closes_the_bracket(self):
        # R is exactly 0 past z = 2, where P is the identity, as a drive that
        # has underflowed makes it; the march's first step from near the
        # peak of R lands there, and the search falls back to the zero at 1
        def m(z):
            if z > 2.0:
                return z, 1.0
            return z + math.sin(math.pi * z) / 4.0, 1.0 + math.pi * math.cos(math.pi * z) / 4.0

        seen = []
        res = solve_fixed_point(lambda z: seen.append(z) or m(z), 0.45, TOL)
        assert any(z > 2.0 for z in seen)
        assert res.z_star == pytest.approx(1.0, abs=1e-9)
        assert res.derivative == pytest.approx(1.0 - math.pi / 4.0, abs=1e-9)

    def test_iterates_stay_in_the_sign_bracket(self):
        # plain Newton on atan diverges from |z - 0.7| > 1.39
        seen = []
        inner = with_sens(lambda z: -0.5 * math.atan(z - 0.7),
                          lambda z: -0.5 / (1.0 + (z - 0.7) ** 2))

        def m(z):
            seen.append(z)
            return inner(z)

        res = solve_fixed_point(m, 4.0, TOL)
        assert res.z_star == pytest.approx(0.7, abs=1e-9)
        first = next(i for i, z in enumerate(seen) if z < 0.7)
        lo, hi = seen[first], seen[first - 1]
        assert all(lo <= z <= hi for z in seen[first:])

    def test_no_sign_change_within_span(self):
        # R > 0 everywhere: the march gives up SPAN from the guess
        seen = []
        inner = with_sens(lambda z: 0.1 + 0.05 * math.sin(z), lambda z: 0.05 * math.cos(z))
        with pytest.raises(NoConvergence) as info:
            solve_fixed_point(lambda z: seen.append(z) or inner(z), 0.0, TOL)
        assert info.value.iterations == len(seen) > 0
        assert info.value.last_residual > 0.0
        assert seen[-1] == SPAN == max(seen)
        assert seen == sorted(seen)

    def test_identity_returns_the_guess(self):
        res = solve_fixed_point(lambda z: (z, 1.0), 0.25, TOL)
        assert res.z_star == 0.25
        assert res.residual == 0.0
        assert res.derivative == 1.0
