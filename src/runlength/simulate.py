"""Seeded Monte Carlo runs of the string-generation process.

Reproducibility contract: draws come from the counter-based Philox
generator.  Trials are split into fixed blocks of ``BLOCK_TRIALS``; block
b uses the Philox stream keyed by (seed, b), for a seed in 0..2^64-1 (one
key word, so no two seeds share a stream), and the trials of a block
consume that stream's 64-bit words in order (rejection redraws included).
Results are therefore bitwise identical for a given (params, trials,
seed).

numpy is imported inside ``SymbolStream`` only, so the rest of the package
starts without it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import closed_form
from .errors import DomainError, InvariantError, SizeCapError
from .params import Params

BLOCK_TRIALS = 8192
SYMBOL_BUDGET = 2 * 10**7  # expected symbols per run; a run at it took 5.6-6.6 s cold on 2 vCPUs
_CHUNK_WORDS = 16384
_WORD_RANGE = 1 << 64
_STEP_CAP = 1 << 63


class SymbolStream:
    """Uniform symbols in [0, m) drawn from one keyed Philox word stream.

    Raw 64-bit words are mapped to symbols by rejection: words at or above
    the largest multiple of m are discarded, so every symbol is exactly
    equally likely.
    """

    def __init__(self, alphabet_size: int, seed: int, stream_index: int = 0):
        if not 1 <= alphabet_size <= _WORD_RANGE:
            raise DomainError(
                f"alphabet size must be in 1..2^64, the range of one Philox word, "
                f"got m={alphabet_size}"
            )
        if not 0 <= seed < _WORD_RANGE:
            raise DomainError(
                f"seed must be in 0..2^64-1, one Philox key word, got {seed}"
            )
        import numpy as np

        self.alphabet_size = alphabet_size
        key = np.array([seed, stream_index], dtype=np.uint64)
        self._bit_generator = np.random.Philox(key=key)
        self._reject_from = _WORD_RANGE - (_WORD_RANGE % alphabet_size)
        self._buffer: list[int] = []
        self._position = 0

    def draw(self) -> int:
        buffer = self._buffer
        position = self._position
        reject_from = self._reject_from
        while True:
            if position == len(buffer):
                buffer = self._bit_generator.random_raw(_CHUNK_WORDS).tolist()
                self._buffer = buffer
                position = 0
            word = buffer[position]
            position += 1
            if word < reject_from:
                self._position = position
                return word % self.alphabet_size


def generate_one(params: Params, stream: SymbolStream) -> int:
    """Length of one generated string: draws until n zeros arrive in a row.

    Only a run counter is kept; the string itself is never materialized.
    """
    n = params.n
    draw = stream.draw
    run = 0
    length = 0
    while True:
        length += 1
        if length > _STEP_CAP:
            raise InvariantError("step cap exceeded; the symbol source is broken")
        if draw() == 0:
            run += 1
            if run == n:
                return length
        else:
            run = 0


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
    histogram: dict[int, int] = {}
    for index, start in enumerate(range(0, trials, BLOCK_TRIALS)):
        stream = SymbolStream(params.m, seed, stream_index=index)
        for _ in range(min(BLOCK_TRIALS, trials - start)):
            length = generate_one(params, stream)
            histogram[length] = histogram.get(length, 0) + 1
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
