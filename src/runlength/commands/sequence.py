"""``runlength sequence``: integer sequences, each term checked by two or three closed forms."""

from __future__ import annotations

import math
import sys

from .. import closed_form
from ..errors import DomainError
from ..params import Params
from . import agree

_INDEX_ROUTES = ("a286778", "tree_edge_count_m2")  # sequence routes that take n, not a cell
# each sequence's description and the closed_form functions that must agree
# on every term; the parser lists the same names as its choices
SEQUENCES = {
    "A286778": (
        "variance of the m=2 waiting time (equals its tree path sum)",
        ("a286778", "variance", "path_sum"),
    ),
    "T-m2": (
        "edge counts of complete binary trees (mean m=2 waiting time)",
        ("tree_edge_count_m2", "tree_edge_count"),
    ),
    "S-m2": ("path sums of complete binary trees", ("path_sum", "a286778")),
}


def run(args) -> tuple:
    if args.count < 1:
        raise DomainError(f"count must be >= 1, got {args.count}")
    if args.name == "T-m2":  # terms 2^(n+1) - 2; min keeps the product a float
        log10_largest = (min(args.count, sys.maxsize) + 1) * math.log10(2)
    else:  # the m = 2 path sums
        log10_largest = closed_form.log10_bound(Params(2, args.count), over=3)
    closed_form.refuse_unprintable(f"sequence {args.name} with {args.count} terms", log10_largest)
    description, routes = SEQUENCES[args.name]
    terms = []
    for n in range(1, args.count + 1):
        values = {
            name: getattr(closed_form, name)(n if name in _INDEX_ROUTES else Params(2, n))
            for name in routes
        }
        terms.append({"n": n, "value": str(agree(f"{args.name} term {n}", values))})
    results = {
        "name": args.name,
        "description": description,
        "terms": terms,
    }
    return {"count": args.count}, results, {"terms": "exact"}, 0
