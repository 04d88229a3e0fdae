"""Spans around calls into each `runlength` layer, recorded from outside.

``Tracer.install`` replaces public functions with timing wrappers in the
module that defines them and in every module that imported them by name,
since such a call looks the name up in the importing module.  Spans are
(name, start, end, parent) tuples kept in memory; ``remove`` puts every
original back, so an untraced pass runs the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter


def _mean_length(m: int, n: int) -> int:
    return sum(m**d for d in range(1, n + 1))


def _walk_steps(args, result, seconds):
    return {"transfer.walk_steps": result.probs[-1][0] if result.probs else 0}


def _pair_count(args, result, seconds):
    m, n = result.params.m, result.params.n
    return {"tree.pair_enum_pairs": n * sum(m**d for d in range(n + 1)) ** 2}


def _simulated(args, result, seconds):
    # long-trial cells (mean length >= 50) measure the per-symbol loop,
    # short ones the per-trial overhead
    symbols = sum(length * count for length, count in result.histogram.items())
    if _mean_length(result.params.m, result.params.n) >= 50:
        return {"simulate.symbols": symbols, "simulate.long_symbols": symbols,
                "simulate.long_seconds": seconds}
    return {"simulate.symbols": symbols, "simulate.short_trials": result.trials,
            "simulate.short_seconds": seconds}


# (module, attribute, span name, counter); a dotted attribute is a method.
# A counter maps (args, result, seconds) of one call to counts to add.
_TARGETS = (
    ("runlength.cli", "main", "cli.main", None),
    ("runlength.transfer", "distribution", "transfer.distribution", _walk_steps),
    ("runlength.transfer", "expectation", "transfer.expectation", None),
    ("runlength.transfer", "second_moment", "transfer.second_moment", None),
    ("runlength.transfer", "variance", "transfer.variance", None),
    ("runlength.transfer", "fundamental_inverse", "transfer.fundamental_inverse", None),
    ("runlength.transfer", "transition_matrix", "transfer.transition_matrix", None),
    ("runlength.spectral", "transition_matrix", "transfer.transition_matrix", None),
    ("runlength.ratmat", "RationalMatrix.inverse", "ratmat.inverse", None),
    ("runlength.ratmat", "matrix_times_column", "ratmat.matvec", None),
    ("runlength.ratmat", "row_times_matrix", "ratmat.matvec", None),
    ("runlength.transfer", "matrix_times_column", "ratmat.matvec", None),
    ("runlength.transfer", "row_times_matrix", "ratmat.matvec", None),
    ("runlength.closed_form", "geometric_sum", "closed_form.geometric_sum", None),
    ("runlength.tree", "geometric_sum", "closed_form.geometric_sum", None),
    ("runlength.closed_form", "tree_edge_count", "closed_form.tree_edge_count", None),
    ("runlength.closed_form", "expectation", "closed_form.expectation", None),
    ("runlength.closed_form", "second_moment", "closed_form.second_moment", None),
    ("runlength.closed_form", "variance", "closed_form.variance", None),
    ("runlength.closed_form", "path_sum", "closed_form.path_sum", None),
    ("runlength.closed_form", "a286778", "closed_form.a286778", None),
    ("runlength.closed_form", "tree_edge_count_m2", "closed_form.tree_edge_count_m2", None),
    ("runlength.closed_form", "moment_report", "closed_form.moment_report", None),
    ("runlength.tree", "path_sum_pair_enum", "tree.pair_enum", _pair_count),
    ("runlength.tree", "path_sum_edge_contrib", "tree.edge_contrib", None),
    ("runlength.tree", "path_sum_depth_count", "tree.depth_count", None),
    ("runlength.spectral", "find_roots", "spectral.find_roots", None),
    ("runlength.spectral", "spectral_radius_estimate", "spectral.power_iteration", None),
    ("runlength.spectral", "verify_root_bound", "spectral.verify_root_bound", None),
    ("runlength.simulate", "simulate", "simulate.simulate", _simulated),
    ("runlength.cli", "run_trials", "simulate.simulate", _simulated),
)

# per-layer time metric -> the spans it adds up, each counted only when no
# ancestor span belongs to the same set (so nested calls count once)
_TIME_METRICS = {
    "transfer.distribution_ms": {"transfer.distribution"},
    "transfer.moments_ms": {"transfer.expectation", "transfer.second_moment", "transfer.variance"},
    "ratmat.inverse_ms": {"ratmat.inverse"},
    "ratmat.matvec_ms": {"ratmat.matvec"},
    "closed_form.ms": {name for _, _, name, _ in _TARGETS if name.startswith("closed_form.")},
    "tree.pair_enum_ms": {"tree.pair_enum"},
    "tree.counting_ms": {"tree.edge_contrib", "tree.depth_count"},
    "spectral.find_roots_ms": {"spectral.find_roots"},
    "spectral.power_iteration_ms": {"spectral.power_iteration"},
    "simulate.ms": {"simulate.simulate"},
}
_CALL_METRICS = {
    "transfer.fundamental_inverse_calls": "transfer.fundamental_inverse",
    "ratmat.inverse_calls": "ratmat.inverse",
    "ratmat.matvec_calls": "ratmat.matvec",
}
PER_LAYER_UNITS = {
    "setup.numpy_import_ms": "ms",
    "setup.runlength_import_ms": "ms",
    "cli.self_ms": "ms",
    "cli.output_kb": "KiB",
    **{name: "ms" for name in _TIME_METRICS},
    **{name: "count" for name in _CALL_METRICS},
    "transfer.walk_steps": "count",
    "transfer.walk_steps_per_s": "1/s",
    "tree.pair_enum_pairs": "count",
    "simulate.symbols": "count",
    "simulate.symbols_per_s": "1/s",
    "simulate.trials_per_s": "1/s",
    "trace.overhead_ms": "ms",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attribute, name, counter in _TARGETS:
            owner = importlib.import_module(module_name)
            *path, attribute = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, counter))

    def remove(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _wrap(self, original, name: str, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counts.update(counter(args, result, end - start))
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _outermost_total(self, names: set[str]) -> float:
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def layer_metrics(self, passes: int, output_bytes: int) -> dict[str, float]:
        """Per-pass figures for every layer, from the spans and counters."""
        own = self.self_times()
        cli_self = sum(t for t, span in zip(own, self.spans) if span[0] == "cli.main")
        calls = Counter(span[0] for span in self.spans)
        metrics = {
            "cli.self_ms": 1e3 * cli_self / passes,
            "cli.output_kb": output_bytes / 1024 / passes,
        }
        seconds = {}
        for metric, names in _TIME_METRICS.items():
            seconds[metric] = self._outermost_total(names)
            metrics[metric] = 1e3 * seconds[metric] / passes
        for metric, name in _CALL_METRICS.items():
            metrics[metric] = calls[name] / passes
        counts = self.counts
        metrics["transfer.walk_steps"] = counts["transfer.walk_steps"] / passes
        metrics["tree.pair_enum_pairs"] = counts["tree.pair_enum_pairs"] / passes
        metrics["simulate.symbols"] = counts["simulate.symbols"] / passes
        metrics["transfer.walk_steps_per_s"] = _rate(
            counts["transfer.walk_steps"], seconds["transfer.distribution_ms"])
        metrics["simulate.symbols_per_s"] = _rate(
            counts["simulate.long_symbols"], counts["simulate.long_seconds"])
        metrics["simulate.trials_per_s"] = _rate(
            counts["simulate.short_trials"], counts["simulate.short_seconds"])
        return metrics

    def write(self, path) -> None:
        own = self.self_times()
        totals: dict[str, list[float]] = {}
        for (name, start, end, _), self_time in zip(self.spans, own):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_time
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "by_name": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in totals.items()},
                    "counts": dict(self.counts),
                    "spans": self.spans,
                },
                handle,
            )


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
