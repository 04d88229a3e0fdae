"""Walk-matrix route to the waiting-time distribution and its moments.

The stopping rule ("first run of n copies of the marked symbol") is a walk
on n+2 states: Start, run lengths 1..n-1, and Done.  State j (for j < n)
means the last j symbols were the marked one.  Drawing any of the other
m-1 symbols falls back to Start; drawing the marked symbol advances one
state.  ``adjacency_matrix`` counts those moves with outgoing edges stored
column-wise, and dividing by m turns move counts into probabilities.

Everything in this module is exact; the k-step completion probability and
all moments come out as Fractions with no rounding at any stage.  The
moments solve the walk's first-step equations, ``distribution`` runs the
walk on integer counts of live strings per run length, and
``success_probability`` sums live-string counts over the last n steps; none
of them builds a matrix.  The dense matrices remain as test references;
each builder imports ``ratmat`` itself, so no command loads it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import closed_form
from .errors import DomainError, refuse_above
from .params import Params

DISTRIBUTION_CHAR_CAP = 2 * 10**7  # predicted characters of exact row strings


def adjacency_matrix(params: Params) -> RationalMatrix:
    """Integer move-count matrix of the run-tracking walk.

    (n+1) x (n+1); column j holds the moves out of state j.  Row 0 gets the
    m-1 restarting symbols from every non-final state, the subdiagonal the
    single advancing symbol, and the final column is zero (the walk ends
    there).
    """
    from .ratmat import RationalMatrix

    params.require_multi_symbol()
    m, n = params.m, params.n
    size = n + 1
    rows = [[0] * size for _ in range(size)]
    for j in range(n):
        rows[0][j] = m - 1
        rows[j + 1][j] = 1
    return RationalMatrix.from_rows(rows)


def transition_matrix(params: Params) -> RationalMatrix:
    """Per-step probability matrix: the move counts divided exactly by m.

    Columns for live states sum to 1; the final column is zero, so mass
    that finishes at step k drops out of the walk at step k+1.
    """
    return adjacency_matrix(params).scale(Fraction(1, params.m))


def fundamental_inverse(params: Params) -> RationalMatrix:
    """Exact inverse of (I - W), computed by Gaussian elimination.

    This is the matrix the geometric series sum(W^k, k >= 0) converges to;
    it plays the role of the fundamental matrix of an absorbing chain.
    """
    from .ratmat import RationalMatrix

    w = transition_matrix(params)
    return (RationalMatrix.identity(w.rows) - w).inverse()


def fundamental_inverse_pattern(params: Params) -> RationalMatrix:
    """(I - W)^{-1} built directly from its closed entry pattern.

    Entry (i, j) is m^(n-i) on and below the diagonal and
    m^(n-i) - m^(j-i) above it.  Constructed without any elimination, so it
    serves as an independent cross-check of ``fundamental_inverse``.
    """
    from .ratmat import RationalMatrix

    params.require_multi_symbol()
    m, n = params.m, params.n
    rows = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            if i >= j:
                row.append(m ** (n - i))
            else:
                row.append(m ** (n - i) - m ** (j - i))
        rows.append(row)
    return RationalMatrix.from_rows(rows)


def success_probability(params: Params, k: int) -> Fraction:
    """Exact probability that the run completes at step k.

    Counts live strings: L_i = m^i for i < n (no string that short holds
    an n-run) and L_j = (m-1)(L_{j-1} + ... + L_{j-n}) for j >= n, since a
    live string ends in an unmarked symbol and then fewer than n marked
    ones.  A run completes first at step k > n when a live prefix of
    length k-n-1 is followed by an unmarked symbol and n marked ones, so
    p_k = (m-1) L_{k-n-1} / m^k, and p_n = 1 / m^n.
    """
    if k < 0:
        raise DomainError(f"step count k must be >= 0, got {k}")
    params.require_multi_symbol()
    m, n = params.m, params.n
    if k <= n:
        return Fraction(int(k == n), m**n)
    live = [m**i for i in range(n)]
    while len(live) < k - n:
        live.append((m - 1) * sum(live[-n:]))
    return Fraction((m - 1) * live[k - n - 1], m**k)


class DistributionTable(namedtuple("DistributionTable", "params probs tail mean_in_rows")):
    """Exact distribution of the waiting time, truncated by residual mass.

    ``probs`` lists (k, P[waiting time = k]) from k = n up to the first k
    where the leftover mass drops to ``tail`` <= the requested bound.
    Conservation is exact: tail + sum of probs == 1.  ``mean_in_rows`` is
    the sum of k * p_k over those rows, kept from the walk that made them.
    """

    __slots__ = ()

    def total_mass(self) -> Fraction:
        return self.tail + sum((p for _, p in self.probs), Fraction(0))

    def truncated_mean(self) -> Fraction:
        """Sum k * p_k over the emitted rows (a lower bound on the mean)."""
        return self.mean_in_rows

    def mean_gap_bound(self, expectation: Fraction | int) -> Fraction:
        """Upper bound on the mean mass hidden in the tail.

        Runs finishing after the last emitted step K take at most K plus
        one fresh expected completion: from any live state the expected
        remaining time is at most the from-scratch expectation.
        """
        last_k = self.probs[-1][0] if self.probs else 0
        return self.tail * (last_k + Fraction(expectation))


def distribution(params: Params, tail_bound: Fraction, padded: bool = False) -> DistributionTable:
    """Emit p_n, p_{n+1}, ... until the exact residual falls to tail_bound.

    Counts strings rather than probabilities.  After k symbols, ``alive``
    of the m^k strings have no n-run yet and ``done`` of them complete one
    at symbol k, so p_k = done / m^k and the residual is alive / m^k.  A
    live string with trailing run j had run 0 exactly j symbols earlier,
    so the ring ``restarts`` holds the live count for every run length
    0..n-1: slot (k - j) mod n has run length j.  The slot leaving the
    ring is the count at run n-1, which completes at the next symbol.
    ``padded`` sizes the rows as the table format prints them.
    """
    tail_bound = Fraction(tail_bound)
    if not 0 < tail_bound < 1:
        raise DomainError(f"tail_bound must be in (0, 1), got {tail_bound}")
    params.require_multi_symbol()
    num, den = tail_bound.numerator, tail_bound.denominator
    # ln(1/tail); near 1 the difference of the logs cancels to 0.0
    log_inverse_tail = (
        math.log1p((den - num) / num) if 2 * num > den else math.log(den) - math.log(num)
    )
    refuse_oversized_table(params, log_inverse_tail, padded)
    m, n = params.m, params.n
    restarts = [1] + [0] * (n - 1)
    alive = 1
    power = 1  # m^k
    weighted = 0  # sum of j * done_j * m^(k-j) over j <= k, by Horner
    probs: list[tuple[int, Fraction]] = []
    k = 0
    while alive * tail_bound.denominator > tail_bound.numerator * power:
        k += 1
        slot = k % n
        done = restarts[slot]
        restarts[slot] = (m - 1) * alive
        alive = m * alive - done
        power *= m
        weighted = weighted * m + k * done
        if k >= n:
            probs.append((k, Fraction(done, power)))
        else:
            assert done == 0, f"nonzero completion probability at step {k} < n"
    assert alive >= 0
    return DistributionTable(
        params=params,
        probs=tuple(probs),
        tail=Fraction(alive, power),
        mean_in_rows=Fraction(weighted, power),
    )


def refuse_oversized_table(params: Params, log_inverse_tail: float, padded: bool = False) -> None:
    """Raise SizeCapError when the table down to a tail bound of exp(-log_inverse_tail)
    would print too large exact strings, or, with every row ``padded`` to the widest as
    the table format prints them, twice their characters.

    The residual stays 1 for n - 1 steps and then shrinks by a factor of
    about 1 - 1/E per step, E the mean, so about K = n + E * ln(1/tail)
    rows are needed.  Row k's numerator and denominator have up to
    k * log10(m) digits, so the rows print about K^2 * log10(m)
    characters, and the last one must stay within the limit on digits per
    printed int.
    """
    m, n = params.m, params.n
    try:  # the mean m (m^n - 1)/(m - 1) in floats: as an exact int, m^n takes seconds at n = 10^9
        mean = m / (m - 1) * (float(m) ** n - 1)
    except OverflowError:  # the mean is beyond float range
        mean = math.inf
    rows = n + mean * log_inverse_tail if mean < math.inf else math.inf  # inf * 0 is nan
    digits = rows * math.log10(m)
    size = rows * digits
    subject = f"distribution at m={m}, n={n} with tail 10^-{log_inverse_tail / math.log(10):.6g}"
    advice = "raise the tail bound"
    unit = f"print about {{}} characters in {rows:.4g} rows of exact fractions"
    refuse_above(subject, size, unit, DISTRIBUTION_CHAR_CAP, advice)
    refuse_above(subject, digits, "print {}-digit numbers", closed_form.print_digit_limit(), advice)
    if padded:
        subject, advice = f"{subject} as a table", f"use --format csv or json, or {advice}"
        refuse_above(subject, 2 * size, "print about {} characters", DISTRIBUTION_CHAR_CAP, advice)


def expectation(params: Params) -> Fraction:
    """Exact mean waiting time, by first-step analysis on the walk."""
    return _first_step_moments(params)[0]


def second_moment(params: Params) -> Fraction:
    """Exact second moment of the waiting time, by first-step analysis."""
    return _first_step_moments(params)[1]


def variance(params: Params) -> Fraction:
    """Exact variance of the waiting time (second moment minus mean squared)."""
    mean, second = _first_step_moments(params)
    return second - mean**2


def _first_step_moments(params: Params) -> tuple[Fraction, Fraction]:
    """Mean and second moment by first-step analysis on the walk's 2n moves.

    With p = 1/m and q = 1 - p, the mean remaining time h_j from run length
    j solves h_j = 1 + p h_{j+1} + q h_0, and its second moment g_j solves
    g_j = 2 h_j - 1 + p g_{j+1} + q g_0, with h_n = g_n = 0.  Each system
    x_j = c_j + p x_{j+1} + q x_0 is solved backward as x_j = a_j + b_j x_0;
    scaled by s_j = m^(n-j), A_j = s_j c_j + A_{j+1} and
    B_j = (m-1) m^(n-j-1) + B_{j+1} are integers and x_0 = A_0 / (s_0 - B_0).
    A_0 is the sum of the s_j c_j, and for g, s_j c_j = 2 (A_j + B_j h_0) - s_j.
    """
    params.require_multi_symbol()
    m, n = params.m, params.n
    scale, a_h, b = 1, 0, 0  # s_j, A_j of h and B_j, from j = n down
    sum_a = sum_b = 0
    for _ in range(n):
        b += (m - 1) * scale
        scale *= m
        a_h += scale
        sum_a += a_h
        sum_b += b
    pivot = scale - b  # s_0 (1 - b_0)
    mean = Fraction(a_h, pivot)
    second = (2 * (sum_a + sum_b * mean) - a_h) / pivot  # A_0 of g, sum s_j = A_0 of h
    return mean, second


def __getattr__(name: str):
    # ratmat's products, looked up here by name only by the benchmark's
    # tracer; resolved on lookup so that importing this module loads no ratmat
    if name in ("matrix_times_column", "row_times_matrix"):
        from . import ratmat

        return getattr(ratmat, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
