"""Particle dynamics in optical conveyor belts.

Simulation of the overdamped scalar equation dz/dt = F(t, z) for plane,
Lorentzian and Gaussian beam envelopes; location and certification of
drive-periodic orbits by Poincare shooting; homotopy continuation from a
trivially solvable linear problem up to the full equation; closed-form
plane-wave solutions; and numerical certificates for the integral
identities any true periodic solution must satisfy.
"""

from conveyor.errors import (
    ContinuationStall,
    ConveyorError,
    NoConvergence,
    StepSizeUnderflow,
    WrongEnvelope,
)
from conveyor.model import ConveyorParams, EnvelopeSpec, default_params

__version__ = "0.1.0"

__all__ = [
    "ConveyorParams",
    "EnvelopeSpec",
    "default_params",
    "ConveyorError",
    "StepSizeUnderflow",
    "NoConvergence",
    "ContinuationStall",
    "WrongEnvelope",
    "__version__",
]
