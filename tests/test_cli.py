"""Command surface: envelopes, formats, exit codes."""

import csv
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import runlength
from runlength import closed_form, tree
from runlength.cli import main
from runlength.params import Params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


# ------------------------------------------------------------------- moments


def test_moments_both_routes(capsys):
    code, env = run_json(capsys, "moments", "2", "2", "--method", "both")
    assert code == 0
    assert env["command"] == "moments"
    assert env["params"] == {"m": 2, "n": 2}
    assert env["results"]["routes_agree"] is True
    assert env["results"]["expectation"] == "6"
    assert env["results"]["variance"] == "22"
    assert env["exactness"]["variance"] == "exact"
    assert env["version"]


def test_moments_closed_only(capsys):
    code, env = run_json(capsys, "moments", "4", "4", "--method", "closed")
    assert code == 0
    assert env["results"]["variance"] == "113436"


def test_moments_matrix_only(capsys):
    code, env = run_json(capsys, "moments", "3", "2", "--method", "matrix")
    assert code == 0
    assert env["results"]["expectation"] == "12"


def test_moments_degenerate_alphabet(capsys):
    code, env = run_json(capsys, "moments", "1", "4")
    assert code == 0
    assert env["results"]["expectation"] == "4"
    assert env["results"]["variance"] == "0"
    assert env["results"]["note"] == "matrix route skipped for m = 1; closed form used"
    assert "routes_agree" not in env["results"]  # only the closed form ran


def test_moments_matrix_route_rejected_for_single_symbol(capsys):
    code, out, err = run_cli(capsys, "moments", "1", "4", "--method", "matrix")
    assert code == 2
    assert "closed" in err  # the error explains the closed-form fallback


@pytest.mark.parametrize(
    "argv, cell",
    [
        ("moments 1 4 --method matrix", "m=1, n=4"),
        ("distribution 1 3", "m=1, n=3"),
        ("spectrum 1 3", "m=1, n=3"),
    ],
)
def test_single_symbol_refusals_exit_2_naming_the_cell(capsys, argv, cell):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert cell in err


def test_moments_bad_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "moments", "0", "2")
    assert code == 2
    assert "m" in err


def test_moments_route_disagreement_exits_3(capsys, monkeypatch):
    from runlength import transfer

    monkeypatch.setattr(transfer, "second_moment", lambda params: 999)
    code, _, err = run_cli(capsys, "moments", "2", "2", "--method", "both")
    assert code == 3
    assert "disagree" in err


@pytest.mark.parametrize(
    "attribute,wrong,argv,named",
    [
        ("transfer.second_moment", lambda params: 999, "moments 2 2",
         "moments at m=2, n=2: the closed and matrix routes disagree"),
        ("tree.path_sum_edge_contrib",
         lambda params: tree.path_sum_depth_count(Params(params.m, params.n + 1)),
         "tree 3 2", "tree at m=3, n=2: the depth and edge routes disagree"),
        ("closed_form.path_sum", lambda params: 0, "sequence A286778 3",
         "A286778 term 1: the a286778 and path_sum routes disagree"),
    ],
)
def test_route_disagreement_exits_3_naming_the_cell_and_both_routes(
    capsys, monkeypatch, attribute, wrong, argv, named
):
    module, name = attribute.split(".")
    monkeypatch.setattr(importlib.import_module(f"runlength.{module}"), name, wrong)
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (3, "")
    assert named in err


@pytest.mark.parametrize(
    "argv,subject",
    [
        ("moments 2 20000 --method closed", "moments at m=2, n=20000"),
        ("tree 2 20000 --method edge", "tree at m=2, n=20000"),
        ("sequence A286778 8000", "sequence A286778 with 8000 terms"),
    ],
)
def test_results_past_the_print_digit_limit_exit_4_up_front(capsys, argv, subject):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert code == 4
    assert out == ""
    assert subject in err and f"limit of {sys.get_int_max_str_digits()} digits" in err


@pytest.mark.parametrize(
    "argv,subject",
    [
        ("tree 1 1000000 --method depth", "tree at m=1, n=1000000"),
        (f"tree 1 {10**400}", f"tree at m=1, n={10**400}"),
        ("verify 300 300", "verify up to m=300, n=300"),
        ("verify 20 2000", "verify up to m=20, n=2000"),
        ("simulate 2 20 1000 1", "simulate at m=2, n=20 with 1000 trials"),
        ("simulate 2 100000 2 1", "simulate at m=2, n=100000 with 2 trials"),
        (f"simulate {2**70} 1 2 1", f"simulate at m={2**70}, n=1 with 2 trials"),
    ],
)
def test_inputs_past_the_work_caps_exit_4_up_front(capsys, argv, subject):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert subject in err


@pytest.mark.parametrize("argv", ["verify 8 12", "verify 1 20", "tree 1 100000 --method closed"])
def test_inputs_below_the_work_caps_still_run(capsys, argv):
    code, _, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")


def test_print_digit_cap_holds_with_the_interpreter_limit_lifted():
    source_root = str(Path(runlength.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=source_root, PYTHONINTMAXSTRDIGITS="0")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "runlength.cli", "sequence", "A286778", "30000"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout) == (4, "")
    assert "sequence A286778 with 30000 terms" in done.stderr


# ---------------------------------------------------------------------- tree


def test_tree_all_methods(capsys):
    code, env = run_json(capsys, "tree", "3", "2", "--method", "all")
    assert code == 0
    assert env["results"]["edge_count"] == "12"
    assert env["results"]["path_sum"] == "57"
    assert env["results"]["methods_agree"] is True
    assert {"depth": 1, "pairs": 39} in env["results"]["per_depth"]


def test_tree_closed_only(capsys):
    code, env = run_json(capsys, "tree", "2", "5", "--method", "closed")
    assert code == 0
    assert env["results"]["path_sum"] == "3390"


def test_tree_pair_method(capsys):
    code, env = run_json(capsys, "tree", "2", "1", "--method", "pair")
    assert code == 0
    assert env["results"]["path_sum"] == "2"


def test_tree_pair_over_cap_exits_4(capsys):
    code, _, err = run_cli(capsys, "tree", "2", "12", "--method", "pair")
    assert code == 4
    assert "pair enumeration at m=2, n=12" in err
    assert "edge" in err or "depth" in err  # advice to use the scalable methods


def test_tree_all_skips_pair_above_cap(capsys):
    code, env = run_json(capsys, "tree", "2", "12", "--method", "all")
    assert code == 0
    assert env["results"]["note"] == "skipped above node-count cap: pair"
    assert "pair" not in env["results"]["methods_used"]
    assert env["results"]["methods_agree"] is True


def test_tree_all_runs_edge_above_pair_cap(capsys):
    # 2^21 - 1 nodes: beyond the pair cap; the O(n) routes still run
    code, env = run_json(capsys, "tree", "2", "20", "--method", "all")
    assert code == 0
    assert env["results"]["methods_used"] == ["depth", "edge", "closed"]
    assert env["results"]["methods_agree"] is True
    assert env["results"]["path_sum"] == str(4 * 2**40 - 82 * 2**20 - 2)


def test_tree_edge_method_has_no_node_cap(capsys):
    code, env = run_json(capsys, "tree", "10", "7", "--method", "edge")
    assert code == 0
    assert env["results"]["path_sum"] == str(closed_form.path_sum(Params(10, 7)))


# -------------------------------------------------------------------- verify


def test_verify_small_grid(capsys):
    code, env = run_json(capsys, "verify", "4", "4")
    assert code == 0
    assert env["results"]["checked"] == 16
    assert env["results"]["failures"] == 0
    assert env["results"]["all_ok"] is True
    assert all(cell["ok"] for cell in env["results"]["cells"])


def test_verify_single_symbol_column(capsys):
    code, env = run_json(capsys, "verify", "1", "10")
    assert code == 0
    assert env["results"]["all_ok"] is True
    assert all(cell["matrix_ok"] is None for cell in env["results"]["cells"])


def test_verify_checks_matrix_route_up_to_constant_cap(capsys):
    code, env = run_json(capsys, "verify", "3", "10")
    assert code == 0
    for cell in env["results"]["cells"]:
        if cell["m"] == 1 or cell["n"] > 8:
            assert cell["matrix_ok"] is None
        else:
            assert cell["matrix_ok"] is True


# the moments and verify commands of the benchmark's cell-routes workload
CELL_ROUTES_MOMENTS_AND_VERIFY = (
    "moments 2 30 --method both --format json",
    "moments 2 20 --method both",
    "moments 3 20 --method both --format json",
    "moments 5 12 --method both",
    "moments 7 25 --method both --format csv",
    "verify 4 6",
    "verify 6 8 --format json",
)


# every command of the benchmark's cell-routes workload
CELL_ROUTES = CELL_ROUTES_MOMENTS_AND_VERIFY + (
    "tree 2 10 --method all --format json",
    "tree 3 6 --method all",
    "tree 4 5 --method all --format csv",
    "tree 7 3 --method all --format json",
    "spectrum 2 20 --format json",
    "spectrum 2 40",
    "spectrum 3 16 --format csv",
    "spectrum 5 10 --format json",
    "sequence A286778 40 --format json",
    "sequence A286778 30",
    "spectrum 2 60",
    "tree 10 7 --method edge",
)


def test_no_command_builds_a_dense_matrix(capsys, monkeypatch):
    from runlength import ratmat

    def refuse(cls, rows):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(ratmat.RationalMatrix, "from_rows", classmethod(refuse))
    for argv in CELL_ROUTES + ("distribution 3 4",):
        code, _, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, ""), argv


def test_moments_and_verify_need_no_matrix_inverse(capsys, monkeypatch):
    from runlength import ratmat

    def refuse(self):
        raise AssertionError("Gauss-Jordan inversion reached")

    monkeypatch.setattr(ratmat.RationalMatrix, "inverse", refuse)
    for argv in CELL_ROUTES_MOMENTS_AND_VERIFY:
        code, _, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, ""), argv


def test_verify_reports_failures_with_exit_3(capsys, monkeypatch):
    # force one closed-form value wrong to exercise the failure reporting
    from runlength import cli

    real = cli.closed_form.tree_edge_count

    def broken(params):
        value = real(params)
        return value + 1 if (params.m, params.n) == (2, 2) else value

    monkeypatch.setattr(cli.closed_form, "tree_edge_count", broken)
    code, env = run_json(capsys, "verify", "2", "2")
    assert code == 3
    assert env["results"]["all_ok"] is False
    assert env["results"]["failures"] == 1
    bad = [c for c in env["results"]["cells"] if not c["ok"]]
    assert [(c["m"], c["n"]) for c in bad] == [(2, 2)]


def test_verify_flags_every_cell_where_the_walk_disagrees(capsys, monkeypatch):
    from runlength import transfer

    monkeypatch.setattr(transfer, "second_moment", lambda params: 0)
    code, env = run_json(capsys, "verify", "2", "9")
    assert code == 3
    assert env["results"]["failures"] == 8
    for cell in env["results"]["cells"]:
        walked = cell["m"] == 2 and cell["n"] <= 8
        assert cell["closed_ok"] is True
        assert cell["matrix_ok"] is (False if walked else None)


# ------------------------------------------------------------------ sequence


def test_sequence_a286778(capsys):
    code, env = run_json(capsys, "sequence", "A286778", "4")
    assert code == 0
    values = [term["value"] for term in env["results"]["terms"]]
    assert values == ["2", "22", "142", "734"]


def test_sequence_fifth_term(capsys):
    code, env = run_json(capsys, "sequence", "A286778", "5")
    assert env["results"]["terms"][-1]["value"] == "3390"


def test_sequence_tree_edges(capsys):
    code, env = run_json(capsys, "sequence", "T-m2", "3")
    assert [t["value"] for t in env["results"]["terms"]] == ["2", "6", "14"]


def test_sequence_path_sums(capsys):
    code, env = run_json(capsys, "sequence", "S-m2", "5")
    assert env["results"]["terms"][1]["value"] == "22"


def test_sequence_csv_round_trips(capsys):
    code, out, err = run_cli(capsys, "sequence", "A286778", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["value"] for r in rows] == ["2", "22", "142", "734"]


def test_sequence_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sequence", "A000001", "3"])
    assert exc.value.code == 2


# -------------------------------------------------------------- distribution


def test_distribution_exact_rows(capsys):
    code, env = run_json(capsys, "distribution", "2", "1", "--tail", "1/16")
    assert code == 0
    rows = env["results"]["rows"]
    assert [(r["k"], r["exact"]) for r in rows] == [
        (1, "1/2"),
        (2, "1/4"),
        (3, "1/8"),
        (4, "1/16"),
    ]
    assert env["results"]["tail"] == "1/16"
    assert rows[0]["float"] == 0.5


def test_distribution_decimal_tail(capsys):
    code, env = run_json(capsys, "distribution", "2", "2", "--tail", "1e-3")
    assert code == 0
    assert Fraction(env["results"]["cumulative"]) >= Fraction(999, 1000)
    total = sum(Fraction(r["exact"]) for r in env["results"]["rows"])
    assert total + Fraction(env["results"]["tail"]) == 1


def test_distribution_mean_bound(capsys):
    code, env = run_json(capsys, "distribution", "3", "2", "--tail", "1e-6")
    assert code == 0
    assert env["results"]["expectation"] == "12"
    assert env["results"]["mean_within_bound"] is True
    truncated = Fraction(env["results"]["truncated_mean"])
    bound = Fraction(env["results"]["mean_gap_bound"])
    assert truncated <= 12 <= truncated + bound


def test_distribution_mean_bound_failure_names_the_cell(capsys, monkeypatch):
    from runlength import cli

    monkeypatch.setattr(cli.closed_form, "expectation", lambda params: 0)
    code, out, err = run_cli(capsys, "distribution", "3", "2")
    assert (code, out) == (3, "")
    assert "distribution at m=3, n=2: truncated mean" in err


def test_distribution_refuses_oversized_table(capsys):
    code, out, err = run_cli(capsys, "distribution", "2", "12")
    assert code == 4
    assert out == ""
    assert "m=2, n=12" in err and "rows" in err


@pytest.mark.parametrize(
    "tail, code, named",
    [
        ("1e-10000000", 4, "m=2, n=2 with tail 10^-1e+07"),
        ("1e10000000", 2, "(0, 1), got '1e10000000'"),
        ("0e-10000000", 2, "(0, 1), got '0e-10000000'"),
        ("-1e-10000000", 2, "(0, 1), got '-1e-10000000'"),
    ],
)
def test_distribution_judges_huge_tail_exponent_at_once(capsys, tail, code, named):
    # Fraction(tail) alone would build 10^10000000, about 12 s
    start = time.perf_counter()
    got, out, err = run_cli(capsys, "distribution", "2", "2", f"--tail={tail}")
    assert time.perf_counter() - start < 1.0
    assert (got, out) == (code, "")
    assert named in err


def test_distribution_huge_tail_exponent_with_long_mantissa_is_admitted(capsys):
    # 1 followed by 10005 zeros, times 10^-10010, is 10^-5; a mantissa that
    # long parses only with the interpreter's int-to-str digit limit lifted
    tail = "1" + "0" * 10005 + "e-10010"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        huge = run_cli(capsys, "distribution", "2", "3", "--tail", tail)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert huge == run_cli(capsys, "distribution", "2", "3", "--tail", "1e-5")
    assert huge[0] == 0


def test_distribution_rejects_junk_tail(capsys):
    code, _, err = run_cli(capsys, "distribution", "2", "2", "--tail", "lots")
    assert code == 2
    assert "--tail" in err


# ------------------------------------------------------------------ spectrum


def test_spectrum_envelope(capsys):
    code, env = run_json(capsys, "spectrum", "2", "2")
    assert code == 0
    results = env["results"]
    assert results["char_coeffs"] == [1, -1, -1]
    assert results["bound_ok"] is True
    assert abs(results["max_modulus"] - 1.618033988749895) < 1e-9
    assert results["margin"] > 0.38
    assert results["rho_agreement"] < 1e-6
    assert len(results["roots"]) == 2
    assert env["exactness"]["max_modulus"] == "float"


def test_spectrum_larger_cell(capsys):
    code, env = run_json(capsys, "spectrum", "10", "5")
    assert code == 0
    assert env["results"]["bound_ok"] is True
    assert env["results"]["margin"] > 0


@pytest.mark.parametrize("m,n", [(2, 54), (3, 34), (10, 17), (2, 60)])
def test_spectrum_bound_holds_where_a_float_root_rounds_to_m(capsys, m, n):
    # the dominant root lies about (m-1)/m^n below m, so its float modulus
    # can equal m; the bound is certified exactly, not from that float
    code, env = run_json(capsys, "spectrum", str(m), str(n))
    assert code == 0
    assert env["results"]["bound_ok"] is True
    assert env["exactness"]["bound_ok"] == "exact"


@pytest.mark.parametrize(
    "m,n", [(204335, 57), (4216965034, 3), (3, 190), (5, 201), (2, 1022)]
)
def test_spectrum_residuals_are_judged_at_horner_rounding_scale(capsys, m, n):
    # near the unit circle |p(z)| rounds to about 1e-16 m n, past the old
    # bound 1e-9 (1 + |z|^(n+1)) once m n is about 10^7; any n runs in
    # bounded time up to the float-range cap, which (2, 1022) reaches
    start = time.perf_counter()
    code, env = run_json(capsys, "spectrum", str(m), str(n))
    assert time.perf_counter() - start < 10
    assert code == 0
    assert env["results"]["bound_ok"] is True
    for root in env["results"]["roots"]:
        scale = sum(abs(c) * root["modulus"] ** (n - i) for i, c in enumerate([1] + [m - 1] * n))
        assert root["residual"] <= 1e-9 * scale


def test_spectrum_root_with_residual_past_horner_scale_exits_3_naming_the_cell(
    capsys, monkeypatch
):
    from runlength import spectral

    def perturbed(params, find_roots=spectral.find_roots):
        roots = find_roots(params)
        roots[0] *= 1 + 1e-6
        return roots

    monkeypatch.setattr(spectral, "find_roots", perturbed)
    code, out, err = run_cli(capsys, "spectrum", "2", "20")
    assert (code, out) == (3, "")
    assert "spectrum at m=2, n=20: root" in err
    assert "times Horner's rounding scale" in err


@pytest.mark.parametrize("m,n", [(5, 600), (1000000, 100), (2, 1023), (5, 441)])
def test_spectrum_above_the_root_finding_caps_exits_4_at_once(capsys, m, n):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "spectrum", str(m), str(n))
    assert time.perf_counter() - start < 1
    assert (code, out) == (4, "")
    assert f"m={m}, n={n}" in err


# ------------------------------------------------------------------ simulate


def test_simulate_envelope_and_determinism(capsys):
    code1, out1, _ = run_cli(
        capsys, "simulate", "2", "2", "5000", "42", "--format", "json"
    )
    code2, out2, _ = run_cli(
        capsys, "simulate", "2", "2", "5000", "42", "--format", "json"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    env = json.loads(out1)
    assert env["results"]["trials"] == 5000
    assert env["results"]["exact_expectation"] == "6"
    assert sum(r["count"] for r in env["results"]["histogram"]) == 5000


def test_simulate_single_symbol(capsys):
    code, env = run_json(capsys, "simulate", "1", "5", "100", "9")
    assert code == 0
    assert env["results"]["mean"] == 5.0
    assert env["results"]["variance"] == 0.0


@pytest.mark.parametrize("seed", [-5, 2**64, 2**64 + 7])
def test_simulate_seed_outside_one_philox_word_exits_2_naming_it(capsys, seed):
    # masked to 64 bits, -5 and 2^64 - 5 would print the same histogram
    code, out, err = run_cli(capsys, "simulate", "3", "2", "50", str(seed))
    assert (code, out) == (2, "")
    assert f"seed must be in 0..2^64-1, one Philox key word, got {seed}" in err


# ------------------------------------------------------------ output plumbing


def test_table_format_is_default(capsys):
    code, out, _ = run_cli(capsys, "moments", "2", "3")
    assert code == 0
    assert "expectation: 14" in out
    assert "variance: 142" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "moments", "2", "2", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    env = json.loads(target.read_text())
    assert env["results"]["expectation"] == "6"


@pytest.mark.parametrize(
    "where,reason",
    [("missing/x.json", "No such file or directory"), (".", "Is a directory")],
)
def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys, where, reason):
    target = tmp_path / where
    code, out, err = run_cli(capsys, "moments", "2", "3", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: {reason}\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_csv_scalar_fallback(capsys):
    code, out, _ = run_cli(capsys, "moments", "2", "2", "--format", "csv")
    assert code == 0
    rows = {r["field"]: r["value"] for r in csv.DictReader(io.StringIO(out))}
    assert rows["expectation"] == "6"


# the SHA-256 of each command's full stdout: a change to how a route
# computes its values must leave every printed byte as it was
PINNED_OUTPUTS = (
    (
        "verify 6 8 --format json",
        "c50f5de4b6eabada5229f9a7c0c92f1fa5a9e8430ec60c0329d07ee784d161e2",
    ),
    (
        "verify 12 40 --format csv",
        "6a4ec70e8fcf6aca0390c9235ac43ad80b4bfda0026e5afb0f8f2ab1a1722645",
    ),
    (
        "sequence A286778 300 --format json",
        "a5e7c0d6aeb484924af0984c7fc5fc613c72779f0e188aebbe189adbd7d86078",
    ),
    ("sequence S-m2 60", "c4b56dd68b495a7a982db3937b2c532f0f23d9514a058edec30b3d74226c05dd"),
    (
        "moments 7 25 --method both --format csv",
        "bb7125e1d01c8b04268311c07da32a881e039dd6ac56b244fac36250c96cae17",
    ),
    (
        "tree 4 5 --method all --format json",
        "2147793b6ba3dc24dceb0a2e0c6b70099445e349cf89583f15d8c2d642798845",
    ),
)


@pytest.mark.parametrize("argv, digest", PINNED_OUTPUTS)
def test_outputs_stay_byte_for_byte(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ------------------------------------------------------------------ start-up


def test_commands_without_the_simulator_never_import_numpy_or_threads():
    code = (
        "import contextlib, io, sys\n"
        "import runlength, runlength.cli\n"
        "for argv in (['distribution', '4', '2', '--tail', '1e-9'], ['moments', '3', '5'],\n"
        "             ['verify', '3', '4'], ['sequence', 'A286778', '10'], ['spectrum', '2', '20']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert runlength.cli.main(argv) == 0, argv\n"
        "print(sorted({'numpy', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    assert _run_fresh(code) == "[]\n"


def test_import_loads_no_route_module_and_a_sequence_loads_only_its_own():
    # typing is left out: an interpreter's site hook may load it before any of this
    code = (
        "import contextlib, io, sys\n"
        "import runlength, runlength.cli\n"
        "print(sorted({'dataclasses', 'numpy', 'runlength.spectral', 'runlength.tree',\n"
        "              'runlength.transfer', 'runlength.ratmat'} & set(sys.modules)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert runlength.cli.main(['moments', '3', '5', '--method', 'closed']) == 0\n"
        "print(sorted({'runlength.transfer', 'runlength.ratmat'} & set(sys.modules)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert runlength.cli.main(['sequence', 'A286778', '10']) == 0\n"
        "print(sorted({'runlength.spectral', 'runlength.tree'} & set(sys.modules)))\n"
    )
    assert _run_fresh(code) == "[]\n[]\n[]\n"


def _run_fresh(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter on this source tree."""
    source_root = str(Path(runlength.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=source_root)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout
