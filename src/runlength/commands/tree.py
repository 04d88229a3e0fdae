"""``runlength tree``: a tree's edge count and path sum by every counting route."""

from __future__ import annotations

from types import SimpleNamespace

from .. import closed_form, tree
from ..errors import refuse_above
from ..params import Params
from . import agree, run_routes

TREE_MAX_N = 100_000  # the depth and edge routes loop n times; n = 10^6 took 5.9 s on 2 vCPUs


def run(args) -> tuple:
    params = Params(args.m, args.n)
    subject = f"tree at m={params.m}, n={params.n}"
    closed_form.refuse_unprintable(subject, closed_form.log10_bound(params, over=3))
    refuse_above(subject, params.n, "loop {} times in the depth and edge routes", TREE_MAX_N)
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
    reports, skipped = run_routes(routes, args.method, params)
    if skipped:
        results["note"] = "skipped above comparison cap: pair"
    edge_count, path_sum = agree(
        subject, {name: (r.edge_count, r.path_sum) for name, r in reports.items()}
    )
    counted = {name: r.per_depth for name, r in reports.items() if r.per_depth}
    per_depth = agree(subject, counted) if counted else ()  # the closed route counts none
    if len(reports) > 1:
        results["methods_agree"] = True
    if per_depth:
        results["per_depth"] = [{"depth": d, "pairs": count} for d, count in per_depth]
    results["methods_used"] = list(reports)
    results["edge_count"] = str(edge_count)
    results["path_sum"] = str(path_sum)
    exactness = {"edge_count": "exact", "path_sum": "exact", "per_depth": "exact"}
    return params, results, exactness, 0
