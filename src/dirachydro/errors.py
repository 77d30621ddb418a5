"""Exception types shared across the toolkit."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class DegenerateSpinorError(ContractError):
    """Spinor has |scalar bilinear| below the usable threshold (lightlike direction)."""


class InstabilityError(RuntimeError):
    """Integration produced a non-finite or runaway state."""

    def __init__(self, step_index, message=None):
        self.step_index = step_index
        super().__init__(message or f"numerical instability at step {step_index}")


class FitError(RuntimeError):
    """Precession fit is underdetermined (no precession or too little data)."""


class NonFiniteResultError(RuntimeError):
    """A computed result came out NaN or infinite."""


class InsufficientInteriorError(ContractError):
    """Grid has no trusted interior left after masking boundary stencils."""
