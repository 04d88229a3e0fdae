"""Monte Carlo reproducibility and agreement with the exact distribution."""

import hashlib
import math
import re
from fractions import Fraction

import pytest

from runlength import transfer
from runlength.errors import DomainError, SizeCapError
from runlength.params import Params
from runlength.simulate import SYMBOL_BUDGET, simulate


# Recorded while the simulator still drew one symbol per method call; the
# (params, trials, seed) -> report map is part of the contract.  The cells pin
# the block keys and the chunk layout: (3, 2) spans three blocks, (7, 1) runs
# one trial into its second block, and the last two take the extreme seeds.
_GOLDEN = [
    (3, 2, 20000, 31, "0x1.818ef34d6a162p+3",
     "ec394da90bf31d8b7453122cb1bb217c3d0bff37e1a3e3d8537ee172236f59d8"),
    (7, 1, 8193, 5, "0x1.c149f5b0527d7p+2",
     "2c3cf3bf32cf7b7f03e544a86e48050346116d8d15ed5e78427f96e164cf7aa9"),
    (2, 5, 50, 2**64 - 1, "0x1.a947ae147ae14p+5",
     "40486bd5d5cba6a0cdff8d00a50718e56cedd604203684cafdc0b8ee574df342"),
    (1, 4, 3, 0, "0x1.0000000000000p+2",
     "afb1439f9066a679f94435b5db496ce5e44786cc717deccec95946d8d981ee10"),
]


@pytest.mark.parametrize(
    "m,n,trials,seed,mean_hex,histogram_sha256",
    _GOLDEN,
    ids=[f"m{c[0]}-n{c[1]}-t{c[2]}-s{c[3]}" for c in _GOLDEN],
)
def test_simulate_reports_match_the_recorded_stream_layout(
    m, n, trials, seed, mean_hex, histogram_sha256
):
    report = simulate(Params(m, n), trials=trials, seed=seed)
    items = repr(sorted(report.histogram.items())).encode()
    assert hashlib.sha256(items).hexdigest() == histogram_sha256
    assert report.mean.hex() == mean_hex


def test_rejected_words_are_skipped_not_read_as_symbols(monkeypatch):
    # a word is rejected with probability (2^64 mod m) / 2^64, so no seeded run
    # meets one; the rule is pinned on crafted words instead.  For m = 3 the
    # top word 2^64 - 1 is rejected, though read as a symbol it would be a 0.
    import numpy as np

    class CraftedWords:
        def __init__(self, key):
            pass

        def random_raw(self, size):
            return np.resize(np.array([2**64 - 1, 1, 0, 0], dtype=np.uint64), size)

    monkeypatch.setattr(np.random, "Philox", CraftedWords)
    assert simulate(Params(3, 2), trials=2, seed=0).histogram == {3: 2}


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_simulate_refuses_seeds_outside_one_key_word(seed):
    message = f"seed must be in 0..2^64-1, one Philox key word, got {seed}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        simulate(Params(2, 2), 2, seed)


def test_simulate_takes_the_largest_seed():
    report = simulate(Params(3, 2), trials=50, seed=2**64 - 1)
    assert report.seed == 2**64 - 1 and sum(report.histogram.values()) == 50


def test_simulate_single_symbol_exact():
    report = simulate(Params(1, 5), trials=100, seed=123)
    assert report.mean == 5.0
    assert report.variance == 0.0
    assert report.histogram == {5: 100}
    assert report.min_len == report.max_len == 5


def test_simulate_requires_two_trials():
    with pytest.raises(DomainError):
        simulate(Params(2, 2), trials=1, seed=0)


@pytest.mark.parametrize(
    "params,trials",
    [
        (Params(1, 10), SYMBOL_BUDGET // 10 + 1),  # one trial past the budget
        (Params(3, 10**9), 2),  # refused without forming the exact mean
    ],
)
def test_simulate_refuses_runs_past_the_symbol_budget(params, trials):
    with pytest.raises(SizeCapError, match=f"m={params.m}, n={params.n} with {trials} trials"):
        simulate(params, trials=trials, seed=0)


def test_simulate_reports_are_bitwise_reproducible():
    first = simulate(Params(2, 2), trials=20000, seed=777)
    second = simulate(Params(2, 2), trials=20000, seed=777)
    assert first == second
    assert simulate(Params(2, 2), trials=20000, seed=778) != first


def test_simulate_three_block_run_repeats_bit_for_bit():
    # 20000 trials span three simulator blocks, each with its own Philox key
    base = simulate(Params(3, 2), trials=20000, seed=31)
    assert simulate(Params(3, 2), trials=20000, seed=31) == base


def test_simulate_report_invariants():
    params = Params(3, 2)
    report = simulate(params, trials=5000, seed=2024)
    assert sum(report.histogram.values()) == report.trials == 5000
    assert report.min_len >= params.n
    assert report.mean >= params.n
    assert all(k >= params.n for k in report.histogram)
    assert report.std_error_of_mean == pytest.approx(
        math.sqrt(report.variance / report.trials)
    )


def test_simulate_mean_and_variance_are_plausible():
    report = simulate(Params(2, 2), trials=200000, seed=4)
    assert abs(report.mean - 6) < 4 * math.sqrt(22 / 200000)
    assert abs(report.variance - 22) / 22 < 0.10


# m = 3 does not divide 2^64, so these cells check the word-to-symbol map
# where rejection is in force
@pytest.mark.parametrize(
    "m,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)], ids=["1", "2", "3", "m3-n1", "m3-n2"]
)
def test_histogram_tracks_exact_distribution(m, n):
    params = Params(m, n)
    trials = 200000
    report = simulate(params, trials=trials, seed=90125)
    for k, count in report.histogram.items():
        if count < 50:
            continue
        exact = float(transfer.success_probability(params, k))
        band = 4 * math.sqrt(exact * (1 - exact) / trials)
        assert abs(count / trials - exact) <= band, (k, count)


def test_unbiased_variance_divisor():
    # two trials with lengths a, b must give variance (a - b)^2 / 2
    report = simulate(Params(2, 1), trials=2, seed=11)
    lengths = [k for k, c in report.histogram.items() for _ in range(c)]
    a, b = lengths
    assert report.variance == pytest.approx((a - b) ** 2 / 2)
    assert report.mean == float(Fraction(a + b, 2))
