"""Walk-matrix route: structure, exact inverses, distribution, moments."""

import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runlength.errors import DomainError, SizeCapError
from runlength.params import Params
from runlength.ratmat import RationalMatrix
from runlength import closed_form, transfer


# -------------------------------------------------------- brute-force oracle


def first_run_completion(symbols, n):
    """Position at which the first n-run of symbol 0 completes, or None."""
    run = 0
    for position, symbol in enumerate(symbols, start=1):
        run = run + 1 if symbol == 0 else 0
        if run == n:
            return position
    return None


def brute_force_p_k(m, n, k):
    """P[waiting time = k] by enumerating all m^k strings."""
    hits = sum(
        1
        for symbols in itertools.product(range(m), repeat=k)
        if first_run_completion(symbols, n) == k
    )
    return Fraction(hits, m**k)


# ----------------------------------------------------------------- structure


def test_adjacency_2_1():
    got = transfer.adjacency_matrix(Params(2, 1))
    assert got == RationalMatrix.from_rows([[1, 0], [1, 0]])


def test_adjacency_2_2():
    got = transfer.adjacency_matrix(Params(2, 2))
    assert got == RationalMatrix.from_rows([[1, 1, 0], [1, 0, 0], [0, 1, 0]])
    # live columns each distribute all m symbols
    assert got.column_sums()[:2] == (Fraction(2), Fraction(2))


def test_adjacency_3_1():
    assert transfer.adjacency_matrix(Params(3, 1)) == RationalMatrix.from_rows(
        [[2, 0], [1, 0]]
    )


def test_single_symbol_alphabet_rejected():
    with pytest.raises(DomainError, match="m"):
        transfer.adjacency_matrix(Params(1, 3))


def test_bad_params_rejected_by_name():
    with pytest.raises(DomainError, match="m"):
        Params(0, 1)
    with pytest.raises(DomainError, match="n"):
        Params(2, 0)


def test_transition_matrix_2_1():
    got = transfer.transition_matrix(Params(2, 1))
    half = Fraction(1, 2)
    assert got == RationalMatrix.from_rows([[half, 0], [half, 0]])


def test_transition_matrix_entry_4_3():
    assert transfer.transition_matrix(Params(4, 3))[0, 0] == Fraction(3, 4)


@pytest.mark.parametrize("m", range(2, 6))
@pytest.mark.parametrize("n", range(1, 6))
def test_transition_columns_substochastic(m, n):
    w = transfer.transition_matrix(Params(m, n))
    sums = w.column_sums()
    assert sums[:n] == tuple(Fraction(1) for _ in range(n))
    assert sums[n] == 0


# ------------------------------------------------------------------ inverses


def test_fundamental_inverse_2_1():
    assert transfer.fundamental_inverse(Params(2, 1)) == RationalMatrix.from_rows(
        [[2, 0], [1, 1]]
    )


def test_fundamental_inverse_first_column_2_2():
    inv = transfer.fundamental_inverse(Params(2, 2))
    assert inv.column(0) == (Fraction(4), Fraction(2), Fraction(1))


def test_pattern_inverse_first_column_3_2():
    inv = transfer.fundamental_inverse_pattern(Params(3, 2))
    assert inv.column(0) == (Fraction(9), Fraction(3), Fraction(1))


@pytest.mark.parametrize("m", range(2, 6))
@pytest.mark.parametrize("n", range(1, 7))
def test_inverse_identity(m, n):
    params = Params(m, n)
    w = transfer.transition_matrix(params)
    eye = RationalMatrix.identity(n + 1)
    assert (eye - w) @ transfer.fundamental_inverse(params) == eye


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("n", range(1, 9))
def test_pattern_matches_elimination(m, n):
    params = Params(m, n)
    assert transfer.fundamental_inverse(params) == transfer.fundamental_inverse_pattern(
        params
    )


# ------------------------------------------------------- success probability


def test_success_probability_examples():
    assert transfer.success_probability(Params(2, 1), 3) == Fraction(1, 8)
    assert transfer.success_probability(Params(2, 2), 2) == Fraction(1, 4)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (5, 4)])
def test_success_probability_zero_before_n(m, n):
    for k in range(n):
        assert transfer.success_probability(Params(m, n), k) == 0


def test_success_probability_rejects_negative_k():
    with pytest.raises(DomainError):
        transfer.success_probability(Params(2, 2), -1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_success_probability_matches_enumeration(n):
    params = Params(2, n)
    for k in range(n, 13):
        assert transfer.success_probability(params, k) == brute_force_p_k(2, n, k)


# -------------------------------------------------------------- distribution


def test_distribution_geometric():
    table = transfer.distribution(Params(2, 1), Fraction(1, 16))
    assert table.probs == (
        (1, Fraction(1, 2)),
        (2, Fraction(1, 4)),
        (3, Fraction(1, 8)),
        (4, Fraction(1, 16)),
    )
    assert table.tail == Fraction(1, 16)


def test_distribution_2_2_includes_first_rows():
    table = transfer.distribution(Params(2, 2), Fraction(1, 2))
    as_dict = dict(table.probs)
    assert as_dict[2] == Fraction(1, 4)
    assert as_dict[3] == Fraction(1, 8)


@pytest.mark.parametrize(
    "m,n,bound",
    [(2, 1, Fraction(1, 1000)), (2, 3, Fraction(1, 97)), (3, 2, Fraction(1, 64))],
)
def test_distribution_conserves_mass_exactly(m, n, bound):
    table = transfer.distribution(Params(m, n), bound)
    assert table.total_mass() == 1
    assert table.tail <= bound
    assert all(p >= 0 for _, p in table.probs)
    assert all(k >= n for k, _ in table.probs)


@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1, 2), Fraction(1), Fraction(3, 2)])
def test_distribution_rejects_bad_tail_bound(bad):
    with pytest.raises(DomainError):
        transfer.distribution(Params(2, 2), bad)


def test_truncated_mean_within_tail_bound_of_expectation():
    params = Params(2, 2)
    table = transfer.distribution(params, Fraction(1, 10**6))
    mean = transfer.expectation(params)
    truncated = table.truncated_mean()
    assert truncated <= mean <= truncated + table.mean_gap_bound(mean)


ROW_BUDGET = 400  # tables drawn below stay near this many rows, to keep Fraction sums fast
DENSE_ROWS = 12  # rows per table compared with the dense-matrix walk


@st.composite
def cells_and_tails(draw):
    """m in 2..9, n in 1..6 and a tail bound between 2^-1 and 10^-12.

    The tail goes no deeper than about ROW_BUDGET rows, except that 2^-1
    is always allowed: cells whose mean passes ROW_BUDGET / ln 2 get it.
    """
    params = Params(draw(st.integers(2, 9)), draw(st.integers(1, 6)))
    deepest = ROW_BUDGET / closed_form.expectation(params)
    log_inverse_tail = draw(
        st.floats(math.log(2), max(math.log(2), min(deepest, 12 * math.log(10))))
    )
    tail = Fraction(math.exp(-log_inverse_tail)).limit_denominator(10**13)
    return params, min(tail, Fraction(1, 2))


@settings(max_examples=30, deadline=None)
@given(cells_and_tails())
def test_distribution_properties(cell):
    params, tail_bound = cell
    try:
        table = transfer.distribution(params, tail_bound)
    except SizeCapError:
        assert tail_bound == Fraction(1, 2)  # only cells too large even at 2^-1
        return
    assert table.tail <= tail_bound
    assert table.total_mass() == 1
    assert [k for k, _ in table.probs] == list(range(params.n, params.n + len(table.probs)))
    for k, p in table.probs[:DENSE_ROWS]:
        assert p == transfer.success_probability(params, k)
    assert table.truncated_mean() == sum((k * p for k, p in table.probs), Fraction(0))
    mean = closed_form.expectation(params)
    truncated = table.truncated_mean()
    assert truncated <= mean <= truncated + table.mean_gap_bound(mean)


@pytest.mark.parametrize(
    "m,n,bound",
    [
        (2, 12, Fraction(1, 10**6)),  # about 113k rows and 4e9 characters
        (2, 2, Fraction(1, 10**100000)),
        (2, 1100, Fraction(1, 2)),  # a mean beyond float range
        # about 1000 rows of 6000-digit integers: under the character cap,
        # past the interpreter's default limit of 4300 digits per printed int
        (10**6, 1, Fraction(999, 1000)),
    ],
)
def test_distribution_refuses_oversized_tables_up_front(m, n, bound):
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match=f"m={m}, n={n} .* characters"):
        transfer.distribution(Params(m, n), bound)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("m,n", [(3, 4), (2, 8)])
def test_distribution_cap_admits_large_tables(m, n):
    table = transfer.distribution(Params(m, n), Fraction(1, 10**6))
    assert table.tail <= Fraction(1, 10**6)


# ------------------------------------------------------------------- moments


def test_expectation_examples():
    assert transfer.expectation(Params(2, 2)) == 6
    assert transfer.expectation(Params(4, 3)) == 84
    # geometric waiting time: mean 1/p with p = 1/2
    assert transfer.expectation(Params(2, 1)) == 2


def test_second_moment_examples():
    assert transfer.second_moment(Params(2, 2)) == 58
    assert transfer.second_moment(Params(3, 2)) == 258
    # geometric second moment (2 - p) / p^2 with p = 1/2
    assert transfer.second_moment(Params(2, 1)) == 6


def test_variance_examples():
    assert transfer.variance(Params(2, 3)) == 142
    assert transfer.variance(Params(4, 4)) == 113436
    # geometric variance (1 - p) / p^2 with p = 1/2
    assert transfer.variance(Params(2, 1)) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(1, 300))
def test_first_step_moments_equal_closed_forms(m, n):
    params = Params(m, n)
    assert transfer.expectation(params) == closed_form.expectation(params)
    assert transfer.second_moment(params) == closed_form.second_moment(params)
    assert transfer.variance(params) == closed_form.variance(params)


# ------------------------------------------------- matrix product properties


@pytest.mark.parametrize("m", range(2, 6))
@pytest.mark.parametrize("n", range(1, 7))
def test_commutativity_identities(m, n):
    params = Params(m, n)
    w = transfer.transition_matrix(params)
    inv = transfer.fundamental_inverse(params)
    eye_plus_w = RationalMatrix.identity(n + 1) + w
    assert w @ inv == inv @ w
    assert w @ eye_plus_w == eye_plus_w @ w
    assert eye_plus_w @ inv == inv @ eye_plus_w


@pytest.mark.parametrize("m,n,steps", [(2, 2, 200), (3, 2, 160)])
def test_neumann_partial_sums_increase_to_inverse(m, n, steps):
    params = Params(m, n)
    w = transfer.transition_matrix(params)
    inv = transfer.fundamental_inverse(params)
    term = RationalMatrix.identity(n + 1)
    total = term
    previous_gap = None
    for _ in range(steps):
        term = term @ w
        total = total + term
        gap = inv - total
        flat = [x for row in gap.entries for x in row]
        assert all(x >= 0 for x in flat)
        if previous_gap is not None:
            assert all(
                new <= old
                for new, old in zip(flat, (x for row in previous_gap for x in row))
            )
        previous_gap = gap.entries
    assert max(x for row in previous_gap for x in row) < Fraction(1, 10**4)
