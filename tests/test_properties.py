"""Property tests: the integrator against the closed-form plane-wave
solution, and the scan's loose grid against a solve-tolerance one.

Hypothesis draws (f0, b, k, z_i) in each of the three plane regimes, with
the lock rate a = 2 f0 k^2 set from a drawn ratio b/a; the near-line cases
put b/a within 1e-10 of the degenerate line b = a without reaching the
1e-12 band that ``model.plane_regime`` calls degenerate.  For the scans it
draws (f0, b, z0) from the benchmark's physical box for both envelopes.
One fixed, derandomized profile makes every run draw the same examples.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conveyor import periodic  # noqa: E402
from conveyor.analytic import PlaneSolution, plane_solution  # noqa: E402
from conveyor.integrate import IntegratorConfig, integrate  # noqa: E402
from conveyor.model import (  # noqa: E402
    DEGENERATE,
    OSCILLATORY,
    RECTILINEAR,
    ConveyorParams,
    EnvelopeSpec,
    default_params,
    force_closure,
    plane_regime,
)

settings.register_profile("plane-oracle", derandomize=True, database=None, deadline=None,
                          max_examples=30)
ORACLE = settings.get_profile("plane-oracle")

# offsets of b/a from 1: far from the line, near it (within 1e-10) and on it
# (inside plane_regime's 1e-12 band)
FAR = st.floats(0.05, 0.7)
NEAR = st.floats(2e-12, 1e-10)
ON = st.floats(-5e-13, 5e-13)
REGIMES = {
    RECTILINEAR: st.one_of(FAR, NEAR).map(lambda d: 1.0 - d),
    OSCILLATORY: st.one_of(FAR, NEAR).map(lambda d: 1.0 + d),
    DEGENERATE: ON.map(lambda d: 1.0 + d),
}
# gap to the closed form: the default rtol 1e-10 over two drive periods, on
# |z| up to a few wavelengths
GAP_TOL = 1e-7


def plane_params(ratio: float, b: float, k: float) -> ConveyorParams:
    """Plane drive whose lock rate 2 f0 k^2 is b / ratio."""
    return ConveyorParams(b / (2.0 * k * k * ratio), b, k, EnvelopeSpec("plane", 1.0))


@pytest.mark.parametrize("regime", [RECTILINEAR, OSCILLATORY, DEGENERATE])
@ORACLE
@given(data=st.data(), b=st.floats(50.0, 200.0), k=st.floats(2.0, 12.0),
       z_i=st.floats(-2.0, 2.0))
def test_integrator_matches_plane_solution(regime, data, b, k, z_i):
    p = plane_params(data.draw(REGIMES[regime], label="b/a"), b, k)
    assert plane_regime(p) == regime
    sol = PlaneSolution(z_i, p)
    t1 = 2.0 * p.period
    traj = integrate(p, force_closure(p), z_i, 0.0, t1)
    ts = [t1 * i / 64 for i in range(65)]
    gap = max(abs(traj.interp(t) - plane_solution(sol, t)) for t in ts)
    assert gap <= GAP_TOL * (1.0 + abs(z_i)), (p, z_i, gap)


SCAN_WINDOWS = {"lorentzian": (-4.5, 4.5, 64), "gaussian": (-1.0, 1.0, 21)}


def scan_with_grid(p: ConveyorParams, monkeypatch, tight: bool):
    """``scan_orbits`` on the reference window, with the grid values it
    hands to ``_hidden_pair_seeds``: loose ones unless ``tight``, which
    runs the grid at the solve's own config."""
    seeds, grids = periodic._hidden_pair_seeds, []

    def spy(grid, resid):
        grids.append(list(resid))
        return seeds(grid, resid)

    with monkeypatch.context() as m:
        m.setattr(periodic, "_hidden_pair_seeds", spy)
        if tight:
            m.setattr(periodic, "_grid_config", lambda cfg, period: cfg or IntegratorConfig())
        orbits = periodic.scan_orbits(p, *SCAN_WINDOWS[p.envelope.kind])
    return [repr((o.z_star, o.multiplier, o.residual)) for o in orbits], grids[0]


@pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
@settings(ORACLE, max_examples=30)
@given(f0=st.floats(0.5, 1.2), b=st.floats(60.0, 140.0), z0=st.floats(0.3, 0.5))
def test_loose_grid_keeps_every_sign_and_orbit(kind, f0, b, z0):
    p = default_params(kind, f0=f0, b=b, z0=z0)
    with pytest.MonkeyPatch.context() as monkeypatch:
        orbits, loose = scan_with_grid(p, monkeypatch, tight=False)
        tight_orbits, tight = scan_with_grid(p, monkeypatch, tight=True)
    assert orbits == tight_orbits
    assert [math.copysign(1.0, r) for r in loose] == [math.copysign(1.0, r) for r in tight]
