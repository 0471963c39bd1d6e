"""Property tests: the integrator against the closed-form plane-wave solution.

Hypothesis draws (f0, b, k, z_i) in each of the three plane regimes, with
the lock rate a = 2 f0 k^2 set from a drawn ratio b/a; the near-line cases
put b/a within 1e-10 of the degenerate line b = a without reaching the
1e-12 band that ``model.plane_regime`` calls degenerate.  One fixed,
derandomized profile makes every run draw the same examples.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conveyor.analytic import PlaneSolution  # noqa: E402
from conveyor.integrate import integrate  # noqa: E402
from conveyor.model import (  # noqa: E402
    DEGENERATE,
    OSCILLATORY,
    RECTILINEAR,
    ConveyorParams,
    EnvelopeSpec,
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
    gap = max(abs(traj.interp(t) - sol(t)) for t in ts)
    assert gap <= GAP_TOL * (1.0 + abs(z_i)), (p, z_i, gap)
