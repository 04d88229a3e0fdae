"""Acceptance criteria.

Each test checks one criterion end to end at its stated tolerance and
prints a PASS/FAIL line (visible with ``pytest -s`` or on failure).
Moment and path-sum checks are exact integer equalities; only the
spectral and Monte Carlo criteria carry numeric tolerances.
"""

import io
import json
import math
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

import pytest

from runlength import closed_form, spectral, transfer, tree
from runlength.cli import main
from runlength.params import Params
from runlength.ratmat import RationalMatrix

# (m, n) -> (T, E, S, Var): the ten published reference rows
REFERENCE_TABLE = {
    (2, 2): (6, 6, 22, 22),
    (2, 3): (14, 14, 142, 142),
    (2, 4): (30, 30, 734, 734),
    (2, 5): (62, 62, 3390, 3390),
    (3, 2): (12, 12, 57, 114),
    (3, 3): (39, 39, 678, 1356),
    (3, 4): (120, 120, 6834, 13668),
    (4, 2): (20, 20, 116, 348),
    (4, 3): (84, 84, 2228, 6684),
    (4, 4): (340, 340, 37812, 113436),
}


def run_cli_json(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main([*argv, "--format", "json"])
    return code, json.loads(buffer.getvalue())


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {title}")


def test_criterion_01_reference_table_reproduction():
    with criterion(1, "reference-table reproduction, exact, < 5 s"):
        started = time.perf_counter()
        for (m, n), (t, e, s, var) in REFERENCE_TABLE.items():
            code, env = run_cli_json("moments", str(m), str(n), "--method", "both")
            assert code == 0
            assert env["results"]["routes_agree"] is True
            assert env["results"]["expectation"] == str(e)
            assert env["results"]["variance"] == str(var)
            code, env = run_cli_json("tree", str(m), str(n), "--method", "all")
            assert code == 0
            assert env["results"]["methods_agree"] is True
            assert env["results"]["edge_count"] == str(t)
            assert env["results"]["path_sum"] == str(s)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_identity_sweep_8_by_12():
    with criterion(2, "identity sweep over 96 cells (verify 8 12), < 10 s"):
        started = time.perf_counter()
        code, env = run_cli_json("verify", "8", "12")
        assert code == 0
        assert env["results"]["checked"] == 96
        assert env["results"]["failures"] == 0
        assert env["results"]["all_ok"] is True
        for m in range(1, 9):
            for n in range(1, 13):
                params = Params(m, n)
                assert closed_form.expectation(params) == closed_form.tree_edge_count(
                    params
                )
                assert closed_form.variance(params) == (m - 1) * closed_form.path_sum(
                    params
                )
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_03_route_equivalence():
    with criterion(3, "matrix route equals closed forms, inverse equals pattern"):
        for m in range(2, 7):
            for n in range(1, 9):
                params = Params(m, n)
                assert transfer.expectation(params) == closed_form.expectation(params)
                assert transfer.second_moment(params) == closed_form.second_moment(
                    params
                )
                assert transfer.variance(params) == closed_form.variance(params)
                assert transfer.fundamental_inverse(
                    params
                ) == transfer.fundamental_inverse_pattern(params)


def test_criterion_04_tree_oracle_equivalence():
    with criterion(4, "pair/edge/depth/closed path sums agree; per-depth counts"):
        checked = 0
        for m in range(2, 11):
            for n in range(1, 11):
                params = Params(m, n)
                if n * tree.TreeModel(params).node_count ** 2 > tree.PAIR_ENUM_WORK_CAP:
                    continue
                expected = closed_form.path_sum(params)
                by_pairs = tree.path_sum_pair_enum(params)
                assert by_pairs.path_sum == expected
                assert tree.path_sum_edge_contrib(params).path_sum == expected
                assert tree.path_sum_depth_count(params).path_sum == expected
                checked += 1
                if m <= 3 and n <= 3:
                    for d, count in by_pairs.per_depth:
                        assert count == tree.pairs_at_depth(params, d)
        assert checked >= 30  # covers m <= 7 with n <= 3 and m = 2 up to n = 10


def test_criterion_05_distribution_integrity():
    with criterion(5, "exact mass conservation and tail-bounded truncated mean"):
        bound = Fraction(1, 10**9)
        for m, n in [(2, 1), (2, 2), (2, 3), (3, 2)]:
            params = Params(m, n)
            table = transfer.distribution(params, bound)
            assert table.tail <= bound
            assert table.total_mass() == 1  # exact: cumulative + tail
            mean = closed_form.expectation(params)
            truncated = table.truncated_mean()
            assert truncated <= mean <= truncated + table.mean_gap_bound(mean)


def test_criterion_06_spectral_bound():
    with criterion(6, "strict root bound, residuals, and radius agreement"):
        for m in range(2, 11):
            for n in range(1, 13):
                params = Params(m, n)
                report = spectral.verify_root_bound(params, tol=1e-9)
                assert len(report.roots) == n
                assert report.max_modulus < m
                assert report.rho_bound_ok
                for z, residual in zip(report.roots, report.residuals):
                    assert residual < 1e-9 * (1 + abs(z) ** (n + 1))
                assert abs(report.rho_estimate - report.max_modulus / m) < 1e-6
        golden = (1 + math.sqrt(5)) / 2
        report = spectral.verify_root_bound(Params(2, 2))
        assert abs(report.max_modulus - golden) < 1e-9


def test_criterion_06_margin_clause_as_stated():
    """Literal check that every sweep cell keeps a margin above 1e-9.

    This clause is mathematically unattainable: the dominant root lies
    only about (m-1)/m^n below m, which drops under 1e-9 at the large
    (m, n) corner of the sweep.  Exact sign evaluation of the polynomial
    at m - 1e-9 (see test_spectral.py) proves the root really is that
    close, so the failure below reflects the stated threshold, not a
    root-finder defect.  Kept faithful and expected to fail.
    """
    with criterion(6, "absolute root-bound margin above 1e-9 across the sweep"):
        thin_cells = []
        for m in range(2, 11):
            for n in range(1, 13):
                report = spectral.verify_root_bound(Params(m, n), tol=1e-9)
                if report.margin <= 1e-9:
                    thin_cells.append(((m, n), report.margin))
        assert not thin_cells, (
            "cells whose true margin m - |dominant root| is below 1e-9 "
            f"(asymptotically (m-1)/m^n): {thin_cells}"
        )


def test_criterion_07_commutativity():
    with criterion(7, "exact commutativity of the three matrix products"):
        for m in range(2, 6):
            for n in range(1, 7):
                params = Params(m, n)
                w = transfer.transition_matrix(params)
                inv = transfer.fundamental_inverse(params)
                eye_plus_w = RationalMatrix.identity(n + 1) + w
                assert w @ inv == inv @ w
                assert w @ eye_plus_w == eye_plus_w @ w
                assert eye_plus_w @ inv == inv @ eye_plus_w


def test_criterion_08_monte_carlo():
    with criterion(8, "seeded 10^6-trial run: bands, bitwise rerun, < 30 s"):
        started = time.perf_counter()
        buffer_one = io.StringIO()
        with redirect_stdout(buffer_one):
            code = main(["simulate", "2", "2", "1000000", "42", "--format", "json"])
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        env = json.loads(buffer_one.getvalue())
        assert abs(env["results"]["mean"] - 6) < 0.0188  # 4 standard errors
        assert abs(env["results"]["variance"] - 22) / 22 < 0.05
        buffer_two = io.StringIO()
        with redirect_stdout(buffer_two):
            assert main(["simulate", "2", "2", "1000000", "42", "--format", "json"]) == 0
        assert buffer_one.getvalue() == buffer_two.getvalue()  # bitwise identical


def test_criterion_09_sequence_triple_check():
    with criterion(9, "A286778 terms agree across three routes"):
        formula = [closed_form.a286778(n) for n in range(1, 11)]
        by_variance = [closed_form.variance(Params(2, n)) for n in range(1, 11)]
        by_path_sum = [closed_form.path_sum(Params(2, n)) for n in range(1, 11)]
        assert formula == by_variance == by_path_sum
        assert formula[1:5] == [22, 142, 734, 3390]


def test_criterion_10_degenerate_alphabet():
    with criterion(10, "m = 1 gives mean n, variance 0, and verify passes"):
        for n in range(1, 21):
            params = Params(1, n)
            assert closed_form.expectation(params) == n
            assert closed_form.variance(params) == 0
            assert (params.m - 1) * closed_form.path_sum(params) == 0
        code, env = run_cli_json("verify", "1", "20")
        assert code == 0
        assert env["results"]["all_ok"] is True
