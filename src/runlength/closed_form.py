"""Closed-form values for the waiting-time moments and tree path sums.

Every function returns an exact integer (arbitrary precision, no overflow
ceiling).  Each quantity has one derivation, so mean = T and Var = (m-1) S
set the paper's formulas for the waiting time against counts over the tree;
the second moment is variance + mean^2.  Every division is asserted exact.

m = 1 conventions: the single-symbol process is deterministic, so the
mean is n and the variance 0, and the height-n "tree" degenerates to a
path with n edges whose path sum is the square pyramidal number
n(n+1)(2n+1)/6.  These extensions keep the moment/tree identities checkable
at m = 1.

``log10_bound`` and ``refuse_unprintable`` judge from floats, before any
route runs, whether a result's integers fit the cap on printed digits.
They live here so that a command needing only closed forms loads no other
route module.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DomainError, InvariantError, SizeCapError
from .params import Params

PRINT_DIGIT_CAP = 4300  # digits per printed integer; the interpreter's default


def _exact_div(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InvariantError(
            f"expected exact division, got {numerator}/{denominator}"
        )
    return quotient


def geometric_sum(m: int, terms: int) -> int:
    """1 + m + ... + m^(terms-1), valid for every m >= 1."""
    if terms < 0:
        raise DomainError(f"terms must be >= 0, got {terms}")
    if m == 1:
        return terms
    return _exact_div(m**terms - 1, m - 1)


def tree_edge_count(params: Params) -> int:
    """Edges of the complete m-ary tree of height n: every node but the root.

    Counted from the nodes 1 + m + ... + m^n rather than from the mean's
    expression m(m^n - 1)/(m - 1), so that mean = T is a check.
    """
    return geometric_sum(params.m, params.n + 1) - 1


def expectation(params: Params) -> int:
    """Mean waiting time m(m^n - 1)/(m - 1); equals tree_edge_count."""
    return params.m * geometric_sum(params.m, params.n)


def second_moment(params: Params) -> int:
    """Second moment of the waiting time: variance + mean^2."""
    return variance(params) + expectation(params) ** 2


def variance(params: Params) -> int:
    """Variance of the waiting time, by the paper's formula.

    (m/(m-1)^2) * (m^(2n+1) - (2n+1) m^(n+1) + (2n+1) m^n - 1); zero when
    m = 1 since the process is deterministic.
    """
    m, n = params.m, params.n
    if m == 1:
        return 0
    bracket = m ** (2 * n + 1) - (2 * n + 1) * m ** (n + 1) + (2 * n + 1) * m**n - 1
    value = _exact_div(m * bracket, (m - 1) ** 2)
    assert value >= 0
    return value


def path_sum(params: Params) -> int:
    """Sum of shared root-path lengths over all ordered node pairs.

    Summed from the tree: the m^d edges into depth d each lie on both root
    paths of (1 + m + ... + m^(n-d))^2 ordered pairs.  Times (m-1)^2 each
    depth gives m^(2n+2-d) - 2 m^(n+1) + m^d, and over d = 1..n that is
    m (m^(n+1) + 1) G - 2n m^(n+1) with G = 1 + m + ... + m^(n-1).  The
    m = 1 path graph gives n(n+1)(2n+1)/6.
    """
    m, n = params.m, params.n
    if m == 1:
        return _exact_div(n * (n + 1) * (2 * n + 1), 6)
    top = m ** (n + 1)
    return _exact_div(m * (top + 1) * geometric_sum(m, n) - 2 * n * top, (m - 1) ** 2)


def log10_bound(params: Params, over: int) -> float:
    """log10 of m^(2n+2) / (m-1)^over, or of (n+1)^over at m = 1, in floats.

    At over = 3 it bounds path_sum, as the m^d subtrees rooted at depth d
    hold under m^(n-d+1)/(m-1) nodes each and sum_d m^-d < 1/(m-1).  At
    over = 2 it bounds half of second_moment, as mean < m^(n+1)/(m-1) and
    Var = (m-1) path_sum.  At m = 1 they are n(n+1)(2n+1)/6 and n^2.
    """
    m, n = params.m, params.n
    if m == 1:
        return over * math.log10(n + 1)
    # min keeps the product a float; past it every cell is refused anyway
    return (2 * min(n, sys.maxsize) + 2) * math.log10(m) - over * math.log10(m - 1)


def refuse_unprintable(subject: str, log10_largest: float) -> None:
    """Raise SizeCapError when the largest integer a result prints, about
    10^log10_largest, has more digits than the limit per printed int."""
    digit_limit = print_digit_limit()
    if log10_largest >= digit_limit:  # an integer has floor(log10) + 1 digits
        raise SizeCapError(
            f"{subject} would print integers of about {log10_largest + 1:.0f} digits, "
            f"past the limit of {digit_limit} digits per printed integer"
        )


def print_digit_limit() -> int:
    """The interpreter's limit on digits per printed int, never above the fixed cap."""
    # Python 3.10.7 and later; 0 where lifted
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return min(limit or PRINT_DIGIT_CAP, PRINT_DIGIT_CAP)


def a286778(n: int) -> int:
    """Term n of OEIS A286778: 4*2^(2n) - (4n+2)*2^n - 2.

    Equals both variance(m=2, n) and path_sum(m=2, n).
    """
    if n < 1:
        raise DomainError(f"sequence index must be >= 1, got {n}")
    return 4 * 2 ** (2 * n) - (4 * n + 2) * 2**n - 2


def tree_edge_count_m2(n: int) -> int:
    """Binary-tree edge counts 2^(n+1) - 2 (OEIS A000918 shifted)."""
    if n < 1:
        raise DomainError(f"sequence index must be >= 1, got {n}")
    return 2 ** (n + 1) - 2


class MomentReport(
    namedtuple("MomentReport", "params expectation second_moment variance tree_edges path_sum")
):
    """Closed-form moments of one (m, n) cell plus its tree statistics."""

    __slots__ = ()


def moment_report(params: Params) -> MomentReport:
    """All closed forms of one cell, checking mean = T and Var = (m - 1) S."""
    mean, var = expectation(params), variance(params)
    report = MomentReport(
        params=params,
        expectation=mean,
        second_moment=var + mean**2,  # second_moment(params) without recomputing both
        variance=var,
        tree_edges=tree_edge_count(params),
        path_sum=path_sum(params),
    )
    if report.expectation != report.tree_edges:
        raise InvariantError(f"mean/edge-count identity failed at {params}")
    if report.variance != (params.m - 1) * report.path_sum:
        raise InvariantError(f"variance/path-sum identity failed at {params}")
    return report
