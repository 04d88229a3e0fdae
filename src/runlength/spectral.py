"""The walk matrix spectrum: an exact root bound, float roots for display.

The run-length recurrence has characteristic polynomial
x^n - (m-1)(x^{n-1} + ... + 1); multiplying by (x - 1) turns it into
x^n (m - x) - (m - 1).  By Descartes' rule of signs the characteristic
polynomial has exactly one positive root R, by Cauchy's bound R bounds
the modulus of every root, and the polynomial equals exactly 1 at x = m,
so every root has modulus strictly below m and the spectral radius of
the probability matrix W is strictly below 1.  ``verify_root_bound``
certifies that bound with one exact integer evaluation.

Floats appear only for display, and no float can veto the exact bound.
The transformed equation x^n (m - x) = m - 1 locates every root: the
dominant one by a monotone iteration for its distance below m, each of
the others as the fixed point of its own contraction of the unit disk.
Each root's residual is checked at the scale of Horner's rounding error,
and power iteration on the walk's 2n moves estimates the spectral radius
for comparison with |dominant root| / m.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import ConvergenceError, InvariantError, refuse_above
from .params import Params

ROOT_RESIDUAL_TOL = 1e-9
RADIUS_AGREEMENT_TOL = 1e-6
_FLOAT_MAX_LOG10 = 308  # p near |z| = m, about m^n, stays a finite float with a factor m to spare
_POWER_ITERATIONS = 10_000


def char_poly(params: Params) -> list[int]:
    """Coefficients (leading first) of x^n - (m-1) * sum(x^j, j < n).

    For m = 2 these are the n-step Fibonacci recurrence polynomials.
    """
    params.require_multi_symbol()
    m, n = params.m, params.n
    return [1] + [-(m - 1)] * n


def transformed_poly(params: Params) -> list[int]:
    """Coefficients of -x^(n+1) + m x^n - (m-1), leading first.

    This is (x - 1) times the characteristic polynomial, so its root set
    is the characteristic roots plus 1.  Except in the degenerate cell
    (m, n) = (2, 1), where 1 already is the characteristic root, 1 is not
    a root of the characteristic polynomial; both facts are asserted here
    with exact integer arithmetic.
    """
    params.require_multi_symbol()
    m, n = params.m, params.n
    coeffs = [-1, m] + [0] * (n - 1) + [-(m - 1)]
    assert _eval_int_poly(coeffs, 1) == 0
    char_at_one = _eval_int_poly(char_poly(params), 1)
    if (m, n) != (2, 1):
        assert char_at_one != 0, f"1 is unexpectedly a characteristic root at {params}"
    else:
        assert char_at_one == 0  # double root of the transformed polynomial
    return coeffs


def find_roots(params: Params) -> list[complex]:
    """All n characteristic roots, each from the equation x^n (m - x) = m - 1.

    For n = 1 the only root is m - 1.  Otherwise the dominant root is
    R = m - delta, where delta is the limit of delta <- (m-1) / (m-delta)^n
    from delta = 0; the sequence increases, so it stops when it stops
    increasing.  Each other root is the fixed point of one contraction of
    the closed unit disk: for k = 1..n-1,
    g_k(z) = w^k ((m-1) / (m-z))^(1/n), with w = e^(2 pi i/n) and the
    principal root, maps the disk into itself with Lipschitz constant
    L = 1/(n(m-1)), because |m - z| >= m - 1 there (k = 0 gives the
    spurious root 1).  From z = 0 the error after j steps is at most L^j,
    so a fixed count of steps reaches 2^-53 without a tolerance test.
    g_(n-k) is the mirror image of g_k, so k = 1..n//2 suffice: each
    non-real root's partner is its exact conjugate, and k = n/2 gives the
    real negative root.  Output is sorted by (real, imag).
    """
    params.require_multi_symbol()
    m, n = params.m, params.n
    if n == 1:
        return [complex(m - 1)]
    delta = 0.0
    while (step := (m - 1) * (m - delta) ** -n) > delta:
        delta = step
    roots = [complex(m - delta)]
    steps = math.ceil(53 / math.log2(n * (m - 1))) + 1
    for k in range(1, n // 2 + 1):
        z = 0j
        for _ in range(steps):
            w = m - z
            z = cmath.rect(((m - 1) / abs(w)) ** (1 / n), (2 * math.pi * k - cmath.phase(w)) / n)
        roots += [complex(z.real)] if 2 * k == n else [z, z.conjugate()]
    return sorted(roots, key=lambda z: (z.real, z.imag))


class RootReport(
    namedtuple(
        "RootReport",
        "params char_coeffs transformed_coeffs roots residuals max_modulus margin "
        "rho_estimate rho_bound_ok",
    )
):
    """Spectrum summary: roots, residuals, margin below m, radius estimate."""

    __slots__ = ()


def verify_root_bound(params: Params, tol: float = ROOT_RESIDUAL_TOL) -> RootReport:
    """Certify that every characteristic root has modulus strictly below m.

    The characteristic polynomial must be positive at m (it equals 1
    there).  A failure would contradict the convergence guarantee for the
    matrix geometric series, so it raises rather than returning a report.
    The roots, ``max_modulus`` and ``margin`` are floats for display: the
    dominant root sits about (m-1)/m^n below m, so the float margin can
    round to 0 where the bound holds.  Each root's residual |p(z)| must be
    at most ``tol`` times sum |c_i| |z|^(n-i), the scale of Horner's
    rounding error at z.  Cells past the float-range cap are refused before
    any root is sought.
    """
    params.require_multi_symbol()
    m, n = params.m, params.n
    advice = f"float residuals need m^(n+1) <= 10^{_FLOAT_MAX_LOG10}"
    subject, unit = f"spectrum at m={m}, n={n}", "have log10 m^(n+1) = {}"
    refuse_above(subject, (n + 1) * math.log10(m), unit, _FLOAT_MAX_LOG10, advice)
    coeffs = char_poly(params)
    at_m = _eval_int_poly(coeffs, m)
    if at_m <= 0:
        raise InvariantError(
            f"root bound violated at {params}: the characteristic polynomial "
            f"is {at_m} at m = {m}, not positive"
        )
    roots = find_roots(params)
    residuals = []
    for z in roots:
        residual, scale = _residual(coeffs, z)
        if not residual <= tol * scale:
            raise ConvergenceError(
                f"spectrum at m={m}, n={n}: root {z:.17g} has residual "
                f"{residual:.3e}, above {tol:g} times Horner's rounding scale {scale:.3e}"
            )
        residuals.append(residual)
    max_modulus = max(abs(z) for z in roots)
    return RootReport(
        params=params,
        char_coeffs=tuple(coeffs),
        transformed_coeffs=tuple(transformed_poly(params)),
        roots=tuple(roots),
        residuals=tuple(residuals),
        max_modulus=max_modulus,
        margin=m - max_modulus,
        rho_estimate=spectral_radius_estimate(params),
        rho_bound_ok=at_m > 0,
    )


def spectral_radius_estimate(params: Params) -> float:
    """Power-iteration estimate of the spectral radius of W.

    W has 2n nonzero moves: each live state j < n sends (m-1)/m of its mass
    to Start and 1/m to state j+1, so the image of v has entry
    (m-1)/m * sum(v_j, j < n) at Start and v_j / m at j+1.  Starts from a
    strictly positive vector, which always overlaps the dominant
    eigendirection of this nonnegative matrix.  The estimate is driven well
    below ``RADIUS_AGREEMENT_TOL`` so it can be compared against
    |dominant root| / m at that tolerance.
    """
    params.require_multi_symbol()
    m, n = params.m, params.n
    restart, advance = (m - 1) / m, 1 / m
    vector = [1 / math.sqrt(n + 1)] * (n + 1)
    estimate = 0.0
    settle = RADIUS_AGREEMENT_TOL * 1e-3
    for _ in range(_POWER_ITERATIONS):
        live = vector[:n]
        image = [restart * math.fsum(live)] + [advance * v for v in live]
        previous, estimate = estimate, math.hypot(*image)
        if estimate == 0.0:
            raise ConvergenceError(f"power iteration collapsed to zero at {params}")
        direction = [x / estimate for x in image]
        # the scalar estimate can stall while the direction still rotates,
        # so convergence is judged on the iterate direction as well
        drift = math.hypot(*(a - b for a, b in zip(direction, vector)))
        vector = direction
        if drift < settle and abs(estimate - previous) < settle * max(1.0, estimate):
            return estimate
    raise ConvergenceError(
        f"power iteration did not settle within {_POWER_ITERATIONS} steps at {params}"
    )


def _eval_int_poly(coeffs: list[int], x: int) -> int:
    value = 0
    for c in coeffs:
        value = value * x + c
    return value


def _residual(coeffs: list[int], z: complex) -> tuple[float, float]:
    """|p(z)| and sum |c_i| |z|^(deg-i), the scale of Horner's rounding error at z."""
    value, scale, modulus = 0j, 0.0, abs(z)
    for c in coeffs:
        value = value * z + c
        scale = scale * modulus + abs(c)
    return abs(value), scale


def __getattr__(name: str):
    # the dense walk matrix, looked up here by name only by the benchmark's
    # tracer; resolved on lookup so that importing this module loads no transfer
    if name == "transition_matrix":
        from .transfer import transition_matrix

        return transition_matrix
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
