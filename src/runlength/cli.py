"""Command-line interface.

Every command prints a single result envelope (table, JSON, or CSV) and
exits 0 on success, 2 on bad arguments, 3 when a cross-verification
fails, and 4 when an input exceeds a method's size cap.  Exact rational
results are serialized as integer or "p/q" strings, never as floats.
"""

from __future__ import annotations

import argparse
import io
import math
import re
import sys
from operator import attrgetter
from types import SimpleNamespace

from . import __version__, closed_form
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
VERIFY_MAX_CELLS = 40_000  # verify 300 300 (90 000 cells) took 3.2 s on 2 vCPUs
TREE_MAX_N = 100_000  # the depth and edge routes loop n times; n = 10^6 took 5.9 s on 2 vCPUs

# Fraction builds 10^|exponent| for a decimal exponent, which takes seconds
# at ten million digits; beyond this many, --tail is judged before that.
# Every cell refuses a tail below 10^-10000: with E >= m >= 2 it predicts
# K >= 46000 rows and K^2 log10(m) > 6*10^8 characters.
_TAIL_EXPONENT_CHECK = 10_000
_SCIENTIFIC = re.compile(
    r"\s*(?P<mantissa>[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?)"
    r"[eE](?P<exponent>[-+]?\d+(?:_\d+)*)\s*"
)

_INDEX_ROUTES = ("a286778", "tree_edge_count_m2")  # sequence routes that take n, not a cell
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
        _emit(envelope, args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (VerificationError, InvariantError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
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


def _walk_moments(params: Params) -> tuple:  # refuses m = 1
    from . import transfer

    return transfer.expectation(params), transfer.second_moment(params)


# a cell's mean and second moment by each route, for moments and verify;
# the closed route raises InvariantError when the paper's identities fail
_MOMENT_ROUTES = {
    "closed": lambda p: attrgetter("expectation", "second_moment")(closed_form.moment_report(p)),
    "matrix": _walk_moments,
}


def _cmd_moments(args) -> tuple[dict, int]:
    params = Params(args.m, args.n)
    subject = f"moments at m={params.m}, n={params.n}"
    # the second moment is the largest value
    closed_form.refuse_unprintable(subject, math.log10(2) + closed_form.log10_bound(params, over=2))
    results: dict = {"method": args.method}
    skip_note = "matrix route skipped for m = 1; closed form used"
    values = _run_routes(_MOMENT_ROUTES, args.method, params, results, skip_note)
    expectation, second = _agree(subject, values)
    if len(values) > 1:
        results["routes_agree"] = True
    names = ("expectation", "second_moment", "variance")
    for name, value in zip(names, (expectation, second, second - expectation**2)):
        results[name] = str(value)
    return _envelope("moments", params, results, dict.fromkeys(names, "exact")), 0


def _cmd_tree(args) -> tuple[dict, int]:
    from . import tree

    params = Params(args.m, args.n)
    subject = f"tree at m={params.m}, n={params.n}"
    closed_form.refuse_unprintable(subject, closed_form.log10_bound(params, over=3))
    if params.n > TREE_MAX_N:
        raise SizeCapError(
            f"{subject} is refused: the counting routes loop n times, and n is "
            f"capped at {TREE_MAX_N}"
        )
    results: dict = {"method": args.method}
    routes = {
        "depth": tree.path_sum_depth_count,
        "edge": tree.path_sum_edge_contrib,
        "pair": tree.path_sum_pair_enum,
        "closed": lambda p: SimpleNamespace(
            edge_count=closed_form.tree_edge_count(p),
            path_sum=closed_form.path_sum(p),
            per_depth=(),
        ),
    }
    reports = _run_routes(
        routes, args.method, params, results, "skipped above node-count cap: pair"
    )
    edge_count, path_sum = _agree(
        subject, {name: (r.edge_count, r.path_sum) for name, r in reports.items()}
    )
    if len(reports) > 1:
        results["methods_agree"] = True
    per_depth = next(iter(reports.values())).per_depth  # empty when closed ran alone
    if per_depth:
        results["per_depth"] = [{"depth": d, "pairs": count} for d, count in per_depth]
    results["methods_used"] = list(reports)
    results["edge_count"] = str(edge_count)
    results["path_sum"] = str(path_sum)
    exactness = {"edge_count": "exact", "path_sum": "exact", "per_depth": "exact"}
    return _envelope("tree", params, results, exactness), 0


def _run_routes(routes: dict, method: str, params: Params, results: dict, skip_note: str) -> dict:
    """Each route's value by name, for the route ``method`` names or else for all.

    A route run alone raises its refusal; among all, one that refuses is skipped.
    """
    if method in routes:
        return {method: routes[method](params)}
    values = {}
    for name, route in routes.items():
        try:
            values[name] = route(params)
        except (DomainError, SizeCapError):
            results["note"] = skip_note
    return values


def _agree(subject: str, values: dict):
    """The value every named route gave; VerificationError naming two that differ."""
    (first, shared), *others = values.items()
    for name, value in others:
        if value != shared:
            raise VerificationError(
                f"{subject}: the {first} and {name} routes disagree: {shared} vs {value}"
            )
    return shared


def _cmd_verify(args) -> tuple[dict, int]:
    if args.m_max < 1 or args.n_max < 1:
        raise DomainError("m_max and n_max must both be >= 1")
    checked = args.m_max * args.n_max
    # the (m_max, n_max) cell's second moment is the largest value a cell forms
    log10_largest = math.log10(2) + closed_form.log10_bound(Params(args.m_max, args.n_max), over=2)
    if checked > VERIFY_MAX_CELLS or log10_largest >= closed_form.PRINT_DIGIT_CAP:
        raise SizeCapError(
            f"verify up to m={args.m_max}, n={args.n_max} is refused: it would check "
            f"{checked} cells, with integers of up to about {log10_largest + 1:.0f} digits; "
            f"the caps are {VERIFY_MAX_CELLS} cells and {closed_form.PRINT_DIGIT_CAP} digits"
        )
    cells = []
    failures = 0
    for m in range(1, args.m_max + 1):
        for n in range(1, args.n_max + 1):
            method = "both" if n <= MATRIX_CHECK_MAX_N else "closed"
            closed_ok, matrix_ok = True, None
            try:
                values = _run_routes(_MOMENT_ROUTES, method, Params(m, n), {}, "")
            except InvariantError:
                closed_ok = False
            else:
                if len(values) > 1:  # the walk ran; it refuses m = 1
                    try:
                        _agree(f"moments at m={m}, n={n}", values)
                        matrix_ok = True
                    except VerificationError:
                        matrix_ok = False
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
    closed_form.refuse_unprintable(f"sequence {args.name} with {args.count} terms", log10_largest)
    routes = {  # closed_form functions of the index n, or else of the cell (2, n)
        "A286778": ("a286778", "variance", "path_sum"),
        "T-m2": ("tree_edge_count_m2", "tree_edge_count"),
        "S-m2": ("path_sum", "a286778"),
    }[args.name]
    terms = []
    for n in range(1, args.count + 1):
        values = {
            name: getattr(closed_form, name)(n if name in _INDEX_ROUTES else Params(2, n))
            for name in routes
        }
        terms.append({"n": n, "value": str(_agree(f"{args.name} term {n}", values))})
    results = {
        "name": args.name,
        "description": SEQUENCES[args.name],
        "terms": terms,
    }
    return _envelope("sequence", {"count": args.count}, results, {"terms": "exact"}), 0


def _cmd_distribution(args) -> tuple[dict, int]:
    from . import transfer

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
            f"distribution at m={params.m}, n={params.n}: truncated mean "
            f"{truncated_mean} not within {gap_bound} of {expectation}"
        )
    results = {
        "tail_bound": str(tail_bound),
        "rows": [
            {"k": k, "exact": str(p), "float": float(p)}
            for k, p in table.probs
        ],
        "tail": str(table.tail),
        "tail_float": float(table.tail),
        "cumulative": str(1 - table.tail),
        "truncated_mean": str(truncated_mean),
        "expectation": str(expectation),
        "mean_gap_bound": str(gap_bound),
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
    from . import spectral

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
        "exact_expectation": str(closed_form.expectation(params)),
        "exact_variance": str(closed_form.variance(params)),
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
        import json

        text = json.dumps(envelope, indent=2) + "\n"
    elif args.format == "csv":
        text = _render_csv(envelope)
    else:
        text = _render_table(envelope)
    if args.out:
        try:
            handle = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise DomainError(f"cannot write {args.out}: {exc.strerror}") from exc
        with handle:
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
    import csv

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
            from . import transfer

            transfer.refuse_oversized_table(params, -log10_tail * math.log(10))
    return _parse_fraction(text, "--tail")


def _parse_fraction(text: str, flag: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(
            f"{flag} must be a rational like 1/1024 or a decimal like 1e-6, "
            f"got {text!r}"
        ) from exc


if __name__ == "__main__":
    sys.exit(main())
