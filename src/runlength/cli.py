"""Command-line interface.

Every command prints a single result envelope (table, JSON, or CSV) and
exits 0 on success, 2 on bad arguments, 3 when a cross-verification
fails, and 4 when an input exceeds a method's size cap.  Exact rational
results are serialized as integer or "p/q" strings, never as floats.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction

from . import __version__, closed_form, spectral, transfer, tree
from .errors import (
    ConvergenceError,
    DomainError,
    InvariantError,
    SizeCapError,
    VerificationError,
)
from .params import Params
from .simulate import simulate as run_trials

MATRIX_CHECK_MAX_N = 8  # verify sweeps cap the matrix-route checks here

# Fraction builds 10^|exponent| for a decimal exponent, which takes seconds
# at ten million digits; beyond this many, --tail is judged before that.
# Every cell refuses a tail below 10^-10000: with E >= m >= 2 it predicts
# K >= 46000 rows and K^2 log10(m) > 6*10^8 characters.
_TAIL_EXPONENT_CHECK = 10_000
_SCIENTIFIC = re.compile(
    r"\s*(?P<mantissa>[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?)"
    r"[eE](?P<exponent>[-+]?\d+(?:_\d+)*)\s*"
)

SEQUENCES = {
    "A286778": "variance of the m=2 waiting time (equals its tree path sum)",
    "T-m2": "edge counts of complete binary trees (mean m=2 waiting time)",
    "S-m2": "path sums of complete binary trees",
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        envelope, exit_code = args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (VerificationError, InvariantError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(envelope, args)
    return exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runlength",
        description=(
            "Exact distribution, moments, and tree-path identities for the "
            "waiting time until n consecutive occurrences of one symbol in "
            "uniform random strings over an m-letter alphabet."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (default: table)",
        )
        sub.add_argument("--out", metavar="FILE", help="write output to FILE")
        return sub

    moments = add("moments", "mean, second moment, and variance of the waiting time")
    moments.add_argument("m", type=int)
    moments.add_argument("n", type=int)
    moments.add_argument(
        "--method",
        choices=("matrix", "closed", "both"),
        default="both",
        help="evaluation route; 'both' cross-checks them (default)",
    )
    moments.set_defaults(handler=_cmd_moments)

    tree_cmd = add("tree", "edge count and shared-path sum of the complete m-ary tree")
    tree_cmd.add_argument("m", type=int)
    tree_cmd.add_argument("n", type=int)
    tree_cmd.add_argument(
        "--method",
        choices=("pair", "edge", "depth", "closed", "all"),
        default="all",
        help="counting route; 'all' cross-checks every available one (default)",
    )
    tree_cmd.set_defaults(handler=_cmd_tree)

    verify = add("verify", "sweep the moment/tree identities over a parameter grid")
    verify.add_argument("m_max", type=int)
    verify.add_argument("n_max", type=int)
    verify.set_defaults(handler=_cmd_verify)

    sequence = add("sequence", "emit integer sequences with cross-checked terms")
    sequence.add_argument("name", choices=sorted(SEQUENCES))
    sequence.add_argument("count", type=int)
    sequence.set_defaults(handler=_cmd_sequence)

    dist = add("distribution", "exact waiting-time probabilities down to a tail bound")
    dist.add_argument("m", type=int)
    dist.add_argument("n", type=int)
    dist.add_argument(
        "--tail",
        default="1e-6",
        help="residual mass at which to stop, e.g. 1e-6 or 1/1024 (default: 1e-6)",
    )
    dist.set_defaults(handler=_cmd_distribution)

    spectrum = add("spectrum", "characteristic roots, strict bound, spectral radius")
    spectrum.add_argument("m", type=int)
    spectrum.add_argument("n", type=int)
    spectrum.set_defaults(handler=_cmd_spectrum)

    sim = add("simulate", "seeded Monte Carlo estimate of the moments")
    sim.add_argument("m", type=int)
    sim.add_argument("n", type=int)
    sim.add_argument("trials", type=int)
    sim.add_argument("seed", type=int)
    sim.set_defaults(handler=_cmd_simulate)

    return parser


# ---------------------------------------------------------------- commands


def _cmd_moments(args) -> tuple[dict, int]:
    params = Params(args.m, args.n)
    method = args.method
    if method == "matrix" and params.m == 1:
        raise DomainError(
            "the matrix route needs m >= 2; for m = 1 the process is "
            "deterministic -- use --method closed, which returns "
            f"mean {params.n} and variance 0 directly"
        )
    transfer.refuse_unprintable(  # the second moment is the largest value
        f"moments at m={params.m}, n={params.n}",
        math.log10(2) + closed_form.log10_bound(params, over=2),
    )
    results: dict = {"method": method}
    exactness: dict = {}
    if method in ("closed", "both"):
        report = closed_form.moment_report(params)
        closed_values = (report.expectation, report.second_moment, report.variance)
    if method in ("matrix", "both") and params.m >= 2:
        expectation = transfer.expectation(params)
        second = transfer.second_moment(params)
        matrix_values = (expectation, second, second - expectation**2)
    if method == "both":
        if params.m == 1:
            results["note"] = "matrix route skipped for m = 1; closed form used"
            values = closed_values
        else:
            if tuple(Fraction(v) for v in closed_values) != matrix_values:
                raise VerificationError(
                    f"matrix and closed-form moments disagree at m={params.m}, "
                    f"n={params.n}: {matrix_values} vs {closed_values}"
                )
            results["routes_agree"] = True
            values = closed_values
    elif method == "closed":
        values = closed_values
    else:
        values = matrix_values
    for name, value in zip(("expectation", "second_moment", "variance"), values):
        results[name] = _exact_str(value)
        exactness[name] = "exact"
    return _envelope("moments", params, results, exactness), 0


def _cmd_tree(args) -> tuple[dict, int]:
    params = Params(args.m, args.n)
    transfer.refuse_unprintable(
        f"tree at m={params.m}, n={params.n}", closed_form.log10_bound(params, over=3)
    )
    method = args.method
    results: dict = {"method": method}
    exactness = {"edge_count": "exact", "path_sum": "exact", "per_depth": "exact"}
    reports = {}
    if method == "pair":
        reports["pair"] = tree.path_sum_pair_enum(params)
    elif method == "edge":
        reports["edge"] = tree.path_sum_edge_contrib(params)
    elif method == "depth":
        reports["depth"] = tree.path_sum_depth_count(params)
    elif method == "all":
        reports["depth"] = tree.path_sum_depth_count(params)
        reports["edge"] = tree.path_sum_edge_contrib(params)
        if tree.TreeModel(params).node_count <= tree.PAIR_ENUM_NODE_CAP:
            reports["pair"] = tree.path_sum_pair_enum(params)
        else:
            results["note"] = "skipped above node-count cap: pair"

    edge_count = closed_form.tree_edge_count(params)
    path_sum = closed_form.path_sum(params)
    if reports:
        sums = {name: r.path_sum for name, r in reports.items()}
        counts = {name: r.edge_count for name, r in reports.items()}
        if method == "all" or len(reports) > 1:
            if any(s != path_sum for s in sums.values()) or any(
                c != edge_count for c in counts.values()
            ):
                raise VerificationError(
                    f"tree methods disagree at m={params.m}, n={params.n}: "
                    f"closed S={path_sum}, computed {sums}"
                )
            results["methods_agree"] = True
        else:
            only = next(iter(reports.values()))
            edge_count, path_sum = only.edge_count, only.path_sum
        some = next(iter(reports.values()))
        results["per_depth"] = [
            {"depth": d, "pairs": count} for d, count in some.per_depth
        ]
    if method == "all":
        results["methods_used"] = sorted(reports) + ["closed"]
    else:
        results["methods_used"] = [method]
    results["edge_count"] = _exact_str(edge_count)
    results["path_sum"] = _exact_str(path_sum)
    return _envelope("tree", params, results, exactness), 0


def _cmd_verify(args) -> tuple[dict, int]:
    if args.m_max < 1 or args.n_max < 1:
        raise DomainError("m_max and n_max must both be >= 1")
    cells = []
    failures = 0
    for m in range(1, args.m_max + 1):
        for n in range(1, args.n_max + 1):
            params = Params(m, n)
            expectation = closed_form.expectation(params)
            variance = closed_form.variance(params)
            closed_ok = (
                expectation == closed_form.tree_edge_count(params)
                and variance == (m - 1) * closed_form.path_sum(params)
            )
            matrix_ok = None
            if m >= 2 and n <= MATRIX_CHECK_MAX_N:
                matrix_expectation = transfer.expectation(params)
                matrix_ok = (
                    matrix_expectation == expectation
                    and transfer.second_moment(params) - matrix_expectation**2
                    == variance
                )
            ok = closed_ok and matrix_ok is not False
            failures += 0 if ok else 1
            cells.append(
                {"m": m, "n": n, "closed_ok": closed_ok, "matrix_ok": matrix_ok, "ok": ok}
            )
    results = {
        "cells": cells,
        "checked": len(cells),
        "failures": failures,
        "all_ok": failures == 0,
    }
    envelope = _envelope("verify", {"m_max": args.m_max, "n_max": args.n_max}, results, {})
    return envelope, 0 if failures == 0 else 3


def _cmd_sequence(args) -> tuple[dict, int]:
    if args.count < 1:
        raise DomainError(f"count must be >= 1, got {args.count}")
    if args.name == "T-m2":  # terms 2^(n+1) - 2; min keeps the product a float
        log10_largest = (min(args.count, sys.maxsize) + 1) * math.log10(2)
    else:  # the m = 2 path sums
        log10_largest = closed_form.log10_bound(Params(2, args.count), over=3)
    transfer.refuse_unprintable(f"sequence {args.name} with {args.count} terms", log10_largest)
    terms = []
    for n in range(1, args.count + 1):
        if args.name == "A286778":
            value = closed_form.a286778(n)
            crosses = (
                closed_form.variance(Params(2, n)),
                closed_form.path_sum(Params(2, n)),
            )
        elif args.name == "T-m2":
            value = closed_form.tree_edge_count_m2(n)
            crosses = (closed_form.tree_edge_count(Params(2, n)),)
        else:  # S-m2
            value = closed_form.path_sum(Params(2, n))
            crosses = (closed_form.a286778(n),)
        if any(c != value for c in crosses):
            raise VerificationError(
                f"{args.name} term {n} disagrees across routes: {value} vs {crosses}"
            )
        terms.append({"n": n, "value": _exact_str(value)})
    results = {
        "name": args.name,
        "description": SEQUENCES[args.name],
        "terms": terms,
    }
    return _envelope("sequence", {"count": args.count}, results, {"terms": "exact"}), 0


def _cmd_distribution(args) -> tuple[dict, int]:
    params = Params(args.m, args.n)
    params.require_multi_symbol()
    tail_bound = _parse_tail(args.tail, params)
    table = transfer.distribution(params, tail_bound)
    expectation = closed_form.expectation(params)
    truncated_mean = table.truncated_mean()
    gap_bound = table.mean_gap_bound(expectation)
    mean_ok = truncated_mean <= expectation <= truncated_mean + gap_bound
    if not mean_ok:
        raise VerificationError(
            f"truncated mean {truncated_mean} not within {gap_bound} of {expectation}"
        )
    results = {
        "tail_bound": _exact_str(tail_bound),
        "rows": [
            {"k": k, "exact": _exact_str(p), "float": float(p)}
            for k, p in table.probs
        ],
        "tail": _exact_str(table.tail),
        "tail_float": float(table.tail),
        "cumulative": _exact_str(1 - table.tail),
        "truncated_mean": _exact_str(truncated_mean),
        "expectation": _exact_str(expectation),
        "mean_gap_bound": _exact_str(gap_bound),
        "mean_within_bound": mean_ok,
    }
    exactness = {
        "rows.exact": "exact",
        "rows.float": "float",
        "tail": "exact",
        "truncated_mean": "exact",
        "expectation": "exact",
        "mean_gap_bound": "exact",
    }
    return _envelope("distribution", params, results, exactness), 0


def _cmd_spectrum(args) -> tuple[dict, int]:
    params = Params(args.m, args.n)
    params.require_multi_symbol()
    report = spectral.verify_root_bound(params)
    rho_from_roots = report.max_modulus / params.m
    results = {
        "char_coeffs": list(report.char_coeffs),
        "transformed_coeffs": list(report.transformed_coeffs),
        "roots": [
            {
                "re": z.real,
                "im": z.imag,
                "modulus": abs(z),
                "residual": res,
            }
            for z, res in zip(report.roots, report.residuals)
        ],
        "max_modulus": report.max_modulus,
        "margin": report.margin,
        "rho_estimate": report.rho_estimate,
        "rho_from_roots": rho_from_roots,
        "rho_agreement": abs(report.rho_estimate - rho_from_roots),
        "bound_ok": report.rho_bound_ok,
    }
    exactness = {
        "char_coeffs": "exact",
        "transformed_coeffs": "exact",
        "roots": "float",
        "max_modulus": "float",
        "margin": "float",
        "rho_estimate": "float",
        "bound_ok": "exact",
    }
    return _envelope("spectrum", params, results, exactness), 0


def _cmd_simulate(args) -> tuple[dict, int]:
    params = Params(args.m, args.n)
    report = run_trials(params, args.trials, args.seed)
    results = {
        "trials": report.trials,
        "seed": report.seed,
        "mean": report.mean,
        "variance": report.variance,
        "std_error_of_mean": report.std_error_of_mean,
        "min_len": report.min_len,
        "max_len": report.max_len,
        "exact_expectation": _exact_str(closed_form.expectation(params)),
        "exact_variance": _exact_str(closed_form.variance(params)),
        "histogram": [
            {"length": length, "count": count}
            for length, count in report.histogram.items()
        ],
    }
    exactness = {
        "mean": "float",
        "variance": "float",
        "std_error_of_mean": "float",
        "exact_expectation": "exact",
        "exact_variance": "exact",
        "histogram": "exact",
    }
    return _envelope("simulate", params, results, exactness), 0


# ----------------------------------------------------------------- output


def _envelope(command: str, params, results: dict, exactness: dict) -> dict:
    if isinstance(params, Params):
        params = {"m": params.m, "n": params.n}
    return {
        "command": command,
        "params": params,
        "results": results,
        "exactness": exactness,
        "version": __version__,
    }


def _emit(envelope: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(envelope, indent=2) + "\n"
    elif args.format == "csv":
        text = _render_csv(envelope)
    else:
        text = _render_table(envelope)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


_ROW_FIELDS = ("rows", "terms", "cells", "roots", "histogram", "per_depth")


def _find_rows(results: dict) -> tuple[str, list[dict]] | None:
    for key in _ROW_FIELDS:
        value = results.get(key)
        if isinstance(value, list) and value and isinstance(value[0], dict):
            return key, value
    return None


def _render_csv(envelope: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    table = _find_rows(envelope["results"])
    if table is not None:
        _, rows = table
        headers = list(rows[0])
        writer.writerow(headers)
        for row in rows:
            writer.writerow([row[h] for h in headers])
    else:
        writer.writerow(["field", "value"])
        for key, value in envelope["results"].items():
            writer.writerow([key, value])
    return buffer.getvalue()


def _render_table(envelope: dict) -> str:
    lines = []
    params = " ".join(f"{k}={v}" for k, v in envelope["params"].items())
    lines.append(f"{envelope['command']} ({params})")
    table = _find_rows(envelope["results"])
    for key, value in envelope["results"].items():
        if table is not None and key == table[0]:
            continue
        lines.append(f"  {key}: {value}")
    if table is not None:
        key, rows = table
        headers = list(rows[0])
        lines.append(f"  {key}:")
        widths = [
            max(len(str(h)), max(len(str(r[h])) for r in rows)) for h in headers
        ]
        lines.append(
            "    " + "  ".join(str(h).rjust(w) for h, w in zip(headers, widths))
        )
        for row in rows:
            lines.append(
                "    "
                + "  ".join(str(row[h]).rjust(w) for h, w in zip(headers, widths))
            )
    return "\n".join(lines) + "\n"


def _exact_str(value) -> str:
    return str(value)


def _parse_tail(text: str, params: Params) -> Fraction:
    """The --tail bound as a Fraction.

    A decimal with a huge exponent is judged from its exponent and its
    mantissa first, without building 10^exponent: below
    10^-_TAIL_EXPONENT_CHECK the table is refused (exit 4), and a value
    that is not positive or is far above 1 is rejected (exit 2).
    """
    match = _SCIENTIFIC.fullmatch(text)
    exponent = 0.0 if match is None else float(match["exponent"])  # inf if huge
    if abs(exponent) > _TAIL_EXPONENT_CHECK:
        mantissa = _parse_fraction(match["mantissa"], "--tail")
        if mantissa <= 0:
            raise DomainError(f"--tail must be in (0, 1), got {text!r}")
        log10_tail = (
            exponent + math.log10(mantissa.numerator) - math.log10(mantissa.denominator)
        )
        if log10_tail > _TAIL_EXPONENT_CHECK:
            raise DomainError(f"--tail must be in (0, 1), got {text!r}")
        if log10_tail < -_TAIL_EXPONENT_CHECK:
            transfer.refuse_oversized_table(params, -log10_tail * math.log(10))
    return _parse_fraction(text, "--tail")


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(
            f"{flag} must be a rational like 1/1024 or a decimal like 1e-6, "
            f"got {text!r}"
        ) from exc


if __name__ == "__main__":
    sys.exit(main())
