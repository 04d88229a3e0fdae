"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter is outside the domain an operation accepts."""


class SizeCapError(RuntimeError):
    """An input is too large for the requested (brute-force) method."""


class VerificationError(RuntimeError):
    """Two routes that must agree exactly produced different values."""


class ConvergenceError(RuntimeError):
    """An iterative numeric routine missed its accuracy or exhausted its budget."""


class InvariantError(RuntimeError):
    """An internal invariant that should be unconditionally true failed."""
