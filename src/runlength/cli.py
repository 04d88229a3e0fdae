"""Command-line interface.

Every command prints a single result envelope (table, JSON, or CSV) and
exits 0 on success, 2 on bad arguments, 3 when a cross-verification
fails, and 4 when an input exceeds a method's size cap.  Exact rational
results are serialized as integer or "p/q" strings, never as floats.

This module holds the parser, the exit codes, the renderers and
``simulate``'s handler; every other command's handler is the ``run`` of
its module in ``runlength.commands``, imported only when it runs.
"""

from __future__ import annotations

import argparse
import importlib
import io
import sys

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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        params, results, exactness, exit_code = _handler(args.command)(args)
        _emit(_envelope(args.command, params, results, exactness), args)
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

    tree_cmd = add("tree", "edge count and shared-path sum of the complete m-ary tree")
    tree_cmd.add_argument("m", type=int)
    tree_cmd.add_argument("n", type=int)
    tree_cmd.add_argument(
        "--method",
        choices=("pair", "edge", "depth", "closed", "all"),
        default="all",
        help="counting route; 'all' cross-checks every available one (default)",
    )

    verify = add("verify", "sweep the moment/tree identities over a parameter grid")
    verify.add_argument("m_max", type=int)
    verify.add_argument("n_max", type=int)

    sequence = add("sequence", "emit integer sequences with cross-checked terms")
    # the names of commands.sequence.SEQUENCES, listed here so that parsing loads no handler
    sequence.add_argument("name", choices=("A286778", "S-m2", "T-m2"))
    sequence.add_argument("count", type=int)

    dist = add("distribution", "exact waiting-time probabilities down to a tail bound")
    dist.add_argument("m", type=int)
    dist.add_argument("n", type=int)
    dist.add_argument(
        "--tail",
        default="1e-6",
        help="residual mass at which to stop, e.g. 1e-6 or 1/1024 (default: 1e-6)",
    )

    spectrum = add("spectrum", "characteristic roots, strict bound, spectral radius")
    spectrum.add_argument("m", type=int)
    spectrum.add_argument("n", type=int)

    sim = add("simulate", "seeded Monte Carlo estimate of the moments")
    sim.add_argument("m", type=int)
    sim.add_argument("n", type=int)
    sim.add_argument("trials", type=int)
    sim.add_argument("seed", type=int)

    return parser


# ---------------------------------------------------------------- commands


def _handler(command: str):
    """The handler of ``command``: simulate's here, every other one the ``run``
    of its own module, imported only when that command runs."""
    if command == "simulate":
        return _cmd_simulate
    return importlib.import_module(f"{__package__}.commands.{command}").run


def _cmd_simulate(args) -> tuple:
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
    return params, results, exactness, 0


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


if __name__ == "__main__":
    sys.exit(main())
