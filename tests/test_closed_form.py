"""Closed-form moments, path sums, and the integer sequences."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runlength import closed_form, transfer
from runlength.errors import DomainError
from runlength.params import Params


def test_tree_edge_count_examples():
    assert closed_form.tree_edge_count(Params(2, 2)) == 6
    assert closed_form.tree_edge_count(Params(3, 2)) == 12
    assert closed_form.tree_edge_count(Params(1, 5)) == 5


def test_expectation_examples():
    assert closed_form.expectation(Params(2, 5)) == 62
    assert closed_form.expectation(Params(3, 4)) == 120
    assert closed_form.expectation(Params(1, 7)) == 7


def test_second_moment_examples():
    assert closed_form.second_moment(Params(2, 2)) == 58
    assert closed_form.second_moment(Params(4, 2)) == 748
    assert closed_form.second_moment(Params(1, 3)) == 9


def test_variance_examples():
    assert closed_form.variance(Params(2, 4)) == 734
    assert closed_form.variance(Params(3, 3)) == 1356
    assert closed_form.variance(Params(1, 9)) == 0


def test_path_sum_examples():
    assert closed_form.path_sum(Params(3, 2)) == 57
    assert closed_form.path_sum(Params(4, 3)) == 2228
    assert closed_form.path_sum(Params(2, 2)) == 22


def test_path_sum_single_symbol_is_square_pyramidal():
    # ordered pairs on a path graph share min(depth, depth) edges
    for n in range(1, 8):
        nodes = range(n + 1)
        by_pairs = sum(min(a, b) for a in nodes for b in nodes)
        assert closed_form.path_sum(Params(1, n)) == by_pairs


def test_a286778_examples():
    assert closed_form.a286778(1) == 2
    assert closed_form.a286778(2) == 22
    assert closed_form.a286778(5) == 3390


def test_tree_edge_count_m2_examples():
    assert closed_form.tree_edge_count_m2(1) == 2
    assert closed_form.tree_edge_count_m2(3) == 14
    assert closed_form.tree_edge_count_m2(5) == 62


def test_sequence_indices_start_at_one():
    with pytest.raises(DomainError):
        closed_form.a286778(0)
    with pytest.raises(DomainError):
        closed_form.tree_edge_count_m2(0)


def test_geometric_sum_basics():
    assert closed_form.geometric_sum(1, 7) == 7
    assert closed_form.geometric_sum(3, 4) == 40
    assert closed_form.geometric_sum(5, 0) == 0
    with pytest.raises(DomainError):
        closed_form.geometric_sum(2, -1)


@pytest.mark.parametrize("m", range(1, 11))
@pytest.mark.parametrize("n", range(1, 21))
def test_moment_tree_identities(m, n):
    params = Params(m, n)
    assert closed_form.expectation(params) == closed_form.tree_edge_count(params)
    assert closed_form.variance(params) == (m - 1) * closed_form.path_sum(params)
    # variance decomposition stays consistent across the closed forms
    assert (
        closed_form.variance(params)
        == closed_form.second_moment(params) - closed_form.expectation(params) ** 2
    )


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("n", range(1, 9))
def test_matrix_route_agrees(m, n):
    params = Params(m, n)
    assert transfer.expectation(params) == closed_form.expectation(params)
    assert transfer.second_moment(params) == closed_form.second_moment(params)
    assert transfer.variance(params) == closed_form.variance(params)


@pytest.mark.parametrize("n", range(1, 21))
def test_a286778_triple_agreement(n):
    value = closed_form.a286778(n)
    assert value == closed_form.variance(Params(2, n))
    assert value == closed_form.path_sum(Params(2, n))


@pytest.mark.parametrize("n", range(1, 21))
def test_m2_edge_sequence_matches_closed_form(n):
    assert closed_form.tree_edge_count_m2(n) == closed_form.tree_edge_count(Params(2, n))


def test_moment_report_carries_all_fields():
    report = closed_form.moment_report(Params(3, 2))
    assert report.expectation == 12
    assert report.second_moment == 258
    assert report.variance == 114
    assert report.tree_edges == 12
    assert report.path_sum == 57


def test_moment_report_degenerate_alphabet():
    report = closed_form.moment_report(Params(1, 6))
    assert report.expectation == 6
    assert report.variance == 0


def test_large_n_stays_exact():
    # arbitrary-precision sweep; n near 10^3 must not overflow or round
    params = Params(2, 1000)
    assert closed_form.expectation(params) == 2**1001 - 2
    assert closed_form.variance(params) == closed_form.a286778(1000)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 10, 1000])
def test_log10_bound_never_predicts_too_few_digits(m):
    # commands refuse a cell once the bound reaches the digit limit, so a
    # bound below the true value would let a cell through to crash in str()
    for n in range(1, 61):
        params = Params(m, n)
        second_digits = math.floor(math.log10(2) + closed_form.log10_bound(params, over=2)) + 1
        assert len(str(closed_form.second_moment(params))) <= second_digits
        path_digits = math.floor(closed_form.log10_bound(params, over=3)) + 1
        assert len(str(closed_form.path_sum(params))) <= path_digits


def tree_path_sum(m, n):
    """Sum over depths d of m^d * (1 + m + ... + m^(n-d))^2, by Horner in m.

    With h_k = 1 + m + ... + m^k, the sum at height k + 1 is m times the sum
    at height k plus h_k^2.  The square steps as m^2 h^2 + 2 m h + 1, so no
    step squares a large integer.
    """
    total = size = square = 0
    for _ in range(n):
        square = m * m * square + 2 * m * size + 1
        size = m * size + 1
        total = m * (total + square)
    return total


@settings(max_examples=30, deadline=None)
@given(
    m=st.one_of(st.integers(1, 10**6), st.sampled_from([2**64 + 3, 10**30 + 7])),
    n=st.integers(1, 1500),
)
def test_path_sum_is_the_tree_sum_and_the_identities_hold_everywhere(m, n):
    params = Params(m, n)
    assert closed_form.path_sum(params) == tree_path_sum(m, n)
    closed_form.moment_report(params)  # raises InvariantError if mean = T or Var = (m-1) S fails
