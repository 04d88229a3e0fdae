"""``runlength moments``: a cell's mean, second moment and variance."""

from __future__ import annotations

import math
from operator import attrgetter

from .. import closed_form
from ..params import Params
from . import agree, run_routes


def _walk_moments(params: Params) -> tuple:  # refuses m = 1
    from .. import transfer

    return transfer.expectation(params), transfer.second_moment(params)


# a cell's mean and second moment by each route, for moments and verify;
# the closed route raises InvariantError when the paper's identities fail
ROUTES = {
    "closed": lambda p: attrgetter("expectation", "second_moment")(closed_form.moment_report(p)),
    "matrix": _walk_moments,
}


def run(args) -> tuple:
    params = Params(args.m, args.n)
    subject = f"moments at m={params.m}, n={params.n}"
    # the second moment is the largest value
    closed_form.refuse_unprintable(subject, math.log10(2) + closed_form.log10_bound(params, over=2))
    results: dict = {"method": args.method}
    values, skipped = run_routes(ROUTES, args.method, params)
    if skipped:
        results["note"] = "matrix route skipped for m = 1; closed form used"
    expectation, second = agree(subject, values)
    if len(values) > 1:
        results["routes_agree"] = True
    names = ("expectation", "second_moment", "variance")
    for name, value in zip(names, (expectation, second, second - expectation**2)):
        results[name] = str(value)
    return params, results, dict.fromkeys(names, "exact"), 0
