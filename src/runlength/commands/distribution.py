"""``runlength distribution``: exact waiting-time probabilities down to a tail bound."""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .. import closed_form, transfer
from ..errors import DomainError, VerificationError
from ..params import Params

# Fraction builds 10^|exponent| for a decimal exponent, which takes seconds
# at ten million digits; beyond this many, --tail is judged before that.
# Every cell refuses a tail below 10^-10000: with E >= m >= 2 it predicts
# K >= 46000 rows and K^2 log10(m) > 6*10^8 characters.
_TAIL_EXPONENT_CHECK = 10_000
_SCIENTIFIC = re.compile(
    r"\s*(?P<mantissa>[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?)"
    r"[eE](?P<exponent>[-+]?\d+(?:_\d+)*)\s*"
)


def run(args) -> tuple:
    params = Params(args.m, args.n)
    params.require_multi_symbol()
    tail_bound = _parse_tail(args.tail, params)
    table = transfer.distribution(params, tail_bound, padded=args.format == "table")
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
    return params, results, exactness, 0


def _parse_tail(text: str, params: Params) -> Fraction:
    """The --tail bound as a Fraction in (0, 1); any other value exits 2, named as written.

    A decimal with a huge exponent is judged from its exponent and its
    mantissa first, without building 10^exponent: below
    10^-_TAIL_EXPONENT_CHECK the table is refused (exit 4), and a value
    that is not positive or is far above 1 is rejected.
    """
    outside = DomainError(f"--tail must be in (0, 1), got {text!r}")
    match = _SCIENTIFIC.fullmatch(text)
    exponent = 0.0 if match is None else float(match["exponent"])  # inf if huge
    if abs(exponent) > _TAIL_EXPONENT_CHECK:
        mantissa = _parse_fraction(match["mantissa"], "--tail")
        if mantissa <= 0:
            raise outside
        log10_tail = (
            exponent + math.log10(mantissa.numerator) - math.log10(mantissa.denominator)
        )
        if log10_tail > _TAIL_EXPONENT_CHECK:
            raise outside
        if log10_tail < -_TAIL_EXPONENT_CHECK:
            transfer.refuse_oversized_table(params, -log10_tail * math.log(10))
    tail = _parse_fraction(text, "--tail")
    if not 0 < tail < 1:
        raise outside
    return tail


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(
            f"{flag} must be a rational like 1/1024 or a decimal like 1e-6, "
            f"got {text!r}"
        ) from exc
