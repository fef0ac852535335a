"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Exponent vector length does not match the ambient variable count."""


class CutoffExceededError(ValueError):
    """A filtration query lies beyond the cutoff a spectrum guarantees; needed,
    when there is one, is the least cutoff that answers it."""

    def __init__(self, message, needed=None):
        super().__init__(message)
        self.needed = needed


class HypothesisError(ValueError):
    """Combinatorial input violates the hypothesis a formula requires."""
