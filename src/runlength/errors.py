"""Exception types shared across the package, and the one size-cap refusal."""

import math


class DomainError(ValueError):
    """A parameter is outside the domain an operation accepts."""


class SizeCapError(RuntimeError):
    """An input is too large for the requested method."""


class VerificationError(RuntimeError):
    """Two routes that must agree exactly produced different values."""


class ConvergenceError(RuntimeError):
    """An iterative numeric routine missed its accuracy or exhausted its budget."""


class InvariantError(RuntimeError):
    """An internal invariant that should be unconditionally true failed."""


def refuse_above(subject: str, cost, unit: str, cap, advice: str = "") -> None:
    """Raise SizeCapError when ``subject``'s predicted ``cost`` passes ``cap``, as "<subject>
    would <unit, the cost in its {}>, above the cap of <cap>: <advice>"."""
    if cost > cap:
        message = f"{subject} would {unit.format(_figure(cost))}, above the cap of {cap}"
        raise SizeCapError(f"{message}: {advice}" if advice else message)


def _figure(value) -> str:
    """An int in full below 10^15 and as a power of ten above; a float to 4 figures."""
    if isinstance(value, int):  # an argv int may have thousands of digits
        return str(value) if value < 10**15 else f"10^{math.log10(value):.4g}"
    return f"{value:.4g}"
