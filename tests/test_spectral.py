"""Root finding, the strict modulus bound, and spectral-radius agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runlength import spectral, transfer
from runlength.errors import DomainError, InvariantError, SizeCapError
from runlength.params import Params

GOLDEN = (1 + math.sqrt(5)) / 2


def bisect_increasing(f, lo, hi, steps=200):
    """Sign-change bisection; the independent oracle for real roots."""
    assert f(lo) < 0 < f(hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def sorted_roots(values):
    return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


# --------------------------------------------------------------- polynomials


def test_char_poly_coefficients():
    assert spectral.char_poly(Params(2, 2)) == [1, -1, -1]
    assert spectral.char_poly(Params(2, 1)) == [1, -1]
    assert spectral.char_poly(Params(3, 2)) == [1, -2, -2]


def test_transformed_poly_coefficients():
    assert spectral.transformed_poly(Params(2, 1)) == [-1, 2, -1]
    assert spectral.transformed_poly(Params(2, 2)) == [-1, 2, 0, -1]
    assert spectral.transformed_poly(Params(3, 2)) == [-1, 3, 0, -2]


@pytest.mark.parametrize("m", range(2, 6))
@pytest.mark.parametrize("n", range(1, 7))
def test_transformed_is_char_times_x_minus_one(m, n):
    # polynomial-division oracle: -(x - 1) * char == transformed
    char = spectral.char_poly(Params(m, n))
    shifted = char + [0]
    minus = [0] + char
    product = [-(a - b) for a, b in zip(shifted, minus)]
    assert product == spectral.transformed_poly(Params(m, n))


# -------------------------------------------------------------- root finding


def test_find_roots_golden_ratio():
    roots = spectral.find_roots(Params(2, 2))
    assert len(roots) == 2
    moduli = sorted(abs(z) for z in roots)
    assert abs(moduli[1] - GOLDEN) < 1e-9
    assert abs(moduli[0] - (GOLDEN - 1)) < 1e-9


def test_find_roots_linear():
    (root,) = spectral.find_roots(Params(2, 1))
    assert abs(root - 1) < 1e-12


def test_find_roots_tribonacci_constant():
    oracle = bisect_increasing(lambda x: x**3 - x**2 - x - 1, 1.0, 2.0)
    assert abs(oracle - 1.839286755) < 1e-8
    roots = spectral.find_roots(Params(2, 3))
    dominant = max(roots, key=abs)
    assert abs(dominant.real - oracle) < 1e-9
    assert abs(dominant.imag) < 1e-9


def test_find_roots_input_validation():
    with pytest.raises(DomainError):
        spectral.find_roots(Params(1, 3))


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("n", range(1, 9))
def test_find_roots_matches_companion_eigenvalues(m, n):
    ours = sorted_roots(spectral.find_roots(Params(m, n)))
    reference = sorted_roots(np.roots(spectral.char_poly(Params(m, n))).tolist())
    assert len(ours) == len(reference)
    for a, b in zip(ours, reference):
        assert abs(a - b) < 1e-6


@st.composite
def admitted_cells(draw):
    """(m, n) with n <= 300 inside the float-range cap (n+1) log10(m) <= 308."""
    m = draw(st.one_of(st.integers(2, 12), st.sampled_from([100, 10**4, 204335, 10**6])))
    n = draw(st.integers(1, min(300, math.floor(308 / math.log10(m)) - 1)))
    return m, n


@settings(max_examples=100, deadline=None)
@given(cell=admitted_cells())
def test_find_roots_over_the_admitted_domain(cell):
    m, n = cell
    roots = spectral.find_roots(Params(m, n))
    assert len(roots) == n
    mirrored = [z.conjugate() for z in roots]
    assert sorted(mirrored, key=lambda z: (z.real, z.imag)) == roots
    *others, dominant = sorted(roots, key=abs)
    if n == 1:
        assert dominant == m - 1
    else:
        assert dominant.imag == 0 and m - 1 < dominant.real <= m
    # the contraction lemma: every other root lies strictly inside the unit disk
    assert all(abs(z) < 1 for z in others)
    coeffs = spectral.char_poly(Params(m, n))
    for z in roots:
        value, scale = 0j, 0.0
        for c in coeffs:
            value, scale = value * z + c, scale * abs(z) + abs(c)
        assert abs(value) <= spectral.ROOT_RESIDUAL_TOL * scale
    assert abs(sum(roots) - (m - 1)) <= 1e-9 * m


@pytest.mark.parametrize("m,n", [(2, 2), (2, 5), (3, 3), (4, 2), (5, 6)])
def test_transformed_roots_are_char_roots_plus_one(m, n):
    char_roots = spectral.find_roots(Params(m, n))
    transformed = np.roots(spectral.transformed_poly(Params(m, n))).tolist()
    expected = sorted_roots(char_roots + [complex(1)])
    for a, b in zip(sorted_roots(transformed), expected):
        assert abs(a - b) < 1e-6


def test_degenerate_cell_has_double_root_at_one():
    # (m, n) = (2, 1): the transformed polynomial is -(x - 1)^2
    roots = np.roots(spectral.transformed_poly(Params(2, 1))).tolist()
    assert len(roots) == 2
    assert all(abs(z - 1) < 1e-4 for z in roots)
    assert spectral.find_roots(Params(2, 1)) == [1]


# ---------------------------------------------------------------- root bound


def test_root_bound_report_2_2():
    report = spectral.verify_root_bound(Params(2, 2))
    assert abs(report.max_modulus - GOLDEN) < 1e-9
    assert abs(report.margin - (2 - GOLDEN)) < 1e-9
    assert report.rho_bound_ok
    assert len(report.roots) == 2
    assert all(r < 1e-9 * (1 + abs(z) ** 3) for r, z in zip(report.residuals, report.roots))


@pytest.mark.parametrize("m,n", [(2, 12), (10, 5), (7, 9)])
def test_root_bound_holds_at_larger_cells(m, n):
    report = spectral.verify_root_bound(Params(m, n))
    assert report.max_modulus < m
    assert report.margin > 1e-9


def test_dominant_root_can_sit_within_1e9_of_m():
    """Exact sign change proving how thin the bound margin gets.

    At (m, n) = (7, 12) the polynomial is negative at m - 1e-9 and
    positive at m, so a real root lies strictly inside that interval:
    the strict bound |root| < m holds with a margin below 1e-9.  The
    float report must agree with this exact-arithmetic fact.
    """
    from fractions import Fraction

    m, n = 7, 12
    coeffs = spectral.char_poly(Params(m, n))

    def exact_eval(x):
        value = Fraction(0)
        for c in coeffs:
            value = value * x + c
        return value

    eps = Fraction(1, 10**9)
    assert exact_eval(Fraction(m) - eps) < 0 < exact_eval(Fraction(m))
    report = spectral.verify_root_bound(Params(m, n))
    assert 0 < report.margin < 1e-9


def test_dominant_root_increases_toward_two_for_binary():
    previous = 0.0
    for n in range(1, 13):
        dominant = max(abs(z) for z in spectral.find_roots(Params(2, n)))
        assert previous < dominant < 2
        previous = dominant
    assert dominant > 1.999


# ------------------------------------------------------------ radius, growth


def test_spectral_radius_examples():
    assert abs(spectral.spectral_radius_estimate(Params(2, 1)) - 0.5) < 1e-9
    assert abs(spectral.spectral_radius_estimate(Params(2, 2)) - GOLDEN / 2) < 1e-6
    assert spectral.spectral_radius_estimate(Params(5, 3)) < 1


@pytest.mark.parametrize("m", [2, 3, 5, 8])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_radius_estimate_agrees_with_dominant_root(m, n):
    params = Params(m, n)
    dominant = max(abs(z) for z in spectral.find_roots(params))
    assert abs(spectral.spectral_radius_estimate(params) - dominant / m) < 1e-6


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 12), n=st.integers(1, 120))
def test_exact_bound_and_matrix_free_radius_over_the_domain(m, n):
    params = Params(m, n)
    assert spectral.verify_root_bound(params).rho_bound_ok
    dense = transfer.transition_matrix(params).entries
    largest = max(abs(np.linalg.eigvals(np.array(dense, dtype=float))))
    assert abs(spectral.spectral_radius_estimate(params) - largest) < 1e-8


@pytest.mark.parametrize("m,n", [(2, 1023), (5, 600), (10**6, 100), (10**8, 38)])
def test_spectrum_refused_above_the_root_finding_caps(m, n):
    with pytest.raises(SizeCapError, match=f"m={m}, n={n}"):
        spectral.verify_root_bound(Params(m, n))


def test_bound_violation_is_judged_by_the_exact_value_at_m(monkeypatch):
    monkeypatch.setattr(spectral, "_eval_int_poly", lambda coeffs, x: 0)
    with pytest.raises(InvariantError, match="root bound violated"):
        spectral.verify_root_bound(Params(2, 3))
