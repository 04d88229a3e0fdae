"""Monte Carlo reproducibility and agreement with the exact distribution."""

import math
from fractions import Fraction

import pytest

from runlength import transfer
from runlength.errors import DomainError, SizeCapError
from runlength.params import Params
from runlength.simulate import SYMBOL_BUDGET, SymbolStream, generate_one, simulate


def test_symbol_stream_range_and_determinism():
    a = SymbolStream(3, seed=99)
    b = SymbolStream(3, seed=99)
    draws = [a.draw() for _ in range(1000)]
    assert draws == [b.draw() for _ in range(1000)]
    assert set(draws) <= {0, 1, 2}


def test_symbol_stream_is_roughly_uniform_with_rejection():
    # m = 3 exercises the rejection path (2^64 is not divisible by 3)
    stream = SymbolStream(3, seed=7)
    counts = [0, 0, 0]
    trials = 30000
    for _ in range(trials):
        counts[stream.draw()] += 1
    expected = trials / 3
    band = 4 * math.sqrt(trials * (1 / 3) * (2 / 3))
    assert all(abs(c - expected) < band for c in counts)


def test_symbol_stream_refuses_alphabets_past_one_philox_word():
    # above 2^64 no word is below the rejection threshold, so draw() never returned
    with pytest.raises(DomainError, match=f"m={2**64 + 1}$"):
        SymbolStream(2**64 + 1, seed=1)
    assert 0 <= SymbolStream(2**64, seed=1).draw() < 2**64  # every word is a symbol


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_symbol_stream_refuses_seeds_outside_one_key_word(seed):
    with pytest.raises(DomainError, match=f"got {seed}$"):
        SymbolStream(2, seed=seed)


def test_simulate_takes_the_largest_seed():
    report = simulate(Params(3, 2), trials=50, seed=2**64 - 1)
    assert report.seed == 2**64 - 1 and sum(report.histogram.values()) == 50


def test_generate_one_needs_at_least_n_draws():
    stream = SymbolStream(2, seed=5)
    lengths = [generate_one(Params(2, 3), stream) for _ in range(500)]
    assert min(lengths) >= 3


def test_generate_one_single_symbol_is_deterministic():
    stream = SymbolStream(1, seed=5)
    assert [generate_one(Params(1, 4), stream) for _ in range(10)] == [4] * 10


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_histogram_tracks_exact_distribution(n):
    params = Params(2, n)
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
