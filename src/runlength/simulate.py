"""Seeded Monte Carlo runs of the string-generation process.

Reproducibility contract: draws come from numpy's counter-based Philox
generator.  Trials are split into fixed blocks of ``BLOCK_TRIALS``; block
b uses the Philox stream keyed by (seed, b), for a seed in 0..2^64-1 (one
key word, so no two seeds share a stream).  A block reads its stream's
64-bit words in chunks of ``_CHUNK_WORDS``, in order, and discards the
words left over after its last trial.  A word at or above the largest
multiple of m below 2^64 is rejected, so every symbol is exactly equally
likely; any other word is the symbol word % m.  Results are therefore
bitwise identical for a given (params, trials, seed).

numpy is imported inside ``simulate`` only, so the rest of the package
starts without it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import closed_form
from .errors import DomainError, SizeCapError
from .params import Params

BLOCK_TRIALS = 8192
SYMBOL_BUDGET = 2 * 10**7  # expected symbols per run; a run at it took 2.0-3.0 s cold on 2 vCPUs
_CHUNK_WORDS = 16384
_WORD_RANGE = 1 << 64


class SimReport(
    namedtuple(
        "SimReport",
        "params trials seed mean variance std_error_of_mean min_len max_len histogram",
    )
):
    """Summary of one batch of trials.

    ``variance`` uses the unbiased trials-1 divisor.  ``histogram`` maps
    observed string length to its trial count.
    """

    __slots__ = ()


def simulate(params: Params, trials: int, seed: int) -> SimReport:
    """Run ``trials`` independent generations and summarize their lengths.

    Runs expecting more than ``SYMBOL_BUDGET`` symbols, trials times the
    exact mean, are refused before any is drawn.
    """
    if trials < 2:
        raise DomainError(
            f"at least 2 trials are needed for a sample variance, got {trials}"
        )
    # the mean is at least m^n, and for m >= 2, m^k passes the budget once k is
    # the budget's bit length, so the exact mean is formed only where a run can pass
    if (
        params.m ** min(params.n, SYMBOL_BUDGET.bit_length()) > SYMBOL_BUDGET
        or trials * closed_form.expectation(params) > SYMBOL_BUDGET
    ):
        raise SizeCapError(
            f"simulate at m={params.m}, n={params.n} with {trials} trials expects more "
            f"than {SYMBOL_BUDGET:.3g} symbols, the budget per run: lower the trials or n"
        )
    if not 0 <= seed < _WORD_RANGE:
        raise DomainError(f"seed must be in 0..2^64-1, one Philox key word, got {seed}")
    import numpy as np

    m, n = params.m, params.n
    reject_from = _WORD_RANGE - _WORD_RANGE % m
    histogram: dict[int, int] = {}
    for block, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        bits = np.random.Philox(key=np.array([seed, block], dtype=np.uint64))
        left = min(BLOCK_TRIALS, trials - start)
        # only the run of zeros and the length are kept, never the string
        run = length = 0
        while left:
            for word in bits.random_raw(_CHUNK_WORDS).tolist():
                if word >= reject_from:
                    continue
                length += 1
                if word % m:
                    run = 0
                    continue
                run += 1
                if run == n:
                    histogram[length] = histogram.get(length, 0) + 1
                    run = length = 0
                    left -= 1
                    if not left:
                        break
    assert sum(histogram.values()) == trials

    # exact integer sums first, one correctly-rounded division at the end
    # (int / int rounds the exact quotient), so the floats are platform-independent
    total = sum(length * count for length, count in histogram.items())
    total_sq = sum(length * length * count for length, count in histogram.items())
    mean = total / trials
    variance = (trials * total_sq - total * total) / (trials * (trials - 1))
    return SimReport(
        params=params,
        trials=trials,
        seed=seed,
        mean=mean,
        variance=variance,
        std_error_of_mean=math.sqrt(variance / trials),
        min_len=min(histogram),
        max_len=max(histogram),
        histogram=dict(sorted(histogram.items())),
    )
