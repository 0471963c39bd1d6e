"""Exception types shared across the package."""

from __future__ import annotations


class ConveyorError(Exception):
    """Base class for all package-specific errors."""


class StepSizeUnderflow(ConveyorError):
    """The adaptive step controller drove the step size below its floor.

    Signals a pathological right-hand side (blow-up, discontinuity) rather
    than a tolerance problem, or a step too short to move t where the span
    lies: the floor is never below the spacing of doubles at its far end.
    """

    def __init__(self, t: float, h: float):
        self.t = t
        self.h = h
        super().__init__(f"step size underflow at t={t!r} (h={h!r})")


class NoConvergence(ConveyorError):
    """Shooting iteration failed to certify a fixed point of the period map."""

    def __init__(self, iterations: int, last_residual: float, message: str | None = None):
        self.iterations = iterations
        self.last_residual = last_residual
        super().__init__(
            message
            or f"no convergence after {iterations} iterations "
            f"(last residual {last_residual:.3e})"
        )


class ContinuationStall(ConveyorError):
    """The homotopy step size underflowed before reaching the endpoint.

    Carries the partial branch in ``trace``.
    """

    def __init__(self, trace):
        self.trace = trace
        super().__init__("continuation stalled: step underflow before endpoint")


class WrongEnvelope(ConveyorError):
    """A plane-wave-only operation was called with a non-plane envelope."""
