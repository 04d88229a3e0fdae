"""``runlength verify``: the two identities over a grid of cells."""

from __future__ import annotations

import math

from .. import closed_form
from ..errors import DomainError, InvariantError, refuse_above
from ..params import Params
from . import run_routes
from .moments import ROUTES

MATRIX_CHECK_MAX_N = 8  # verify sweeps cap the matrix-route checks here
VERIFY_MAX_CELLS = 40_000  # verify 300 300 (90 000 cells) took 3.2 s on 2 vCPUs


def run(args) -> tuple:
    if args.m_max < 1 or args.n_max < 1:
        raise DomainError("m_max and n_max must both be >= 1")
    subject = f"verify up to m={args.m_max}, n={args.n_max}"
    refuse_above(subject, args.m_max * args.n_max, "check {} cells", VERIFY_MAX_CELLS)
    # the (m_max, n_max) cell's second moment is the largest value a cell forms
    log10_largest = math.log10(2) + closed_form.log10_bound(Params(args.m_max, args.n_max), over=2)
    digits = math.floor(log10_largest) + 1
    refuse_above(subject, digits, "form {}-digit integers", closed_form.PRINT_DIGIT_CAP)
    cells = []
    failures = 0
    for m in range(1, args.m_max + 1):
        for n in range(1, args.n_max + 1):
            method = "both" if n <= MATRIX_CHECK_MAX_N else "closed"
            closed_ok, matrix_ok = True, None
            try:
                values, _ = run_routes(ROUTES, method, Params(m, n))
            except InvariantError:
                closed_ok, values = False, {}
            if "matrix" in values:  # the walk ran; it refuses m = 1
                matrix_ok = values["matrix"] == values["closed"]
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
    return {"m_max": args.m_max, "n_max": args.n_max}, results, {}, 0 if failures == 0 else 3
