"""Problem parameters: alphabet size m and target run length n."""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError


class Params(namedtuple("Params", "m n")):
    """Alphabet size ``m`` and run length ``n`` of the stopping rule.

    The string process draws symbols uniformly from an m-letter alphabet
    and stops at the first run of n consecutive copies of a fixed symbol.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int) -> Params:
        if not isinstance(m, int) or m < 1:
            raise DomainError(f"m must be an integer >= 1, got {m!r}")
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"n must be an integer >= 1, got {n!r}")
        return super().__new__(cls, m, n)

    def require_multi_symbol(self) -> None:
        """Reject m = 1, naming the cell; the walk and its roots need two symbols."""
        if self.m < 2:
            raise DomainError(
                f"m must be >= 2 for the walk and its roots, got m={self.m}, n={self.n}; "
                "the single-symbol process is deterministic and is handled by "
                "the closed-form module"
            )
