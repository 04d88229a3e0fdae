"""The walk matrix spectrum: an exact root bound, float roots for display.

The run-length recurrence has characteristic polynomial
x^n - (m-1)(x^{n-1} + ... + 1); multiplying by (x - 1) turns it into
x^n (m - x) - (m - 1).  By Descartes' rule of signs the characteristic
polynomial has exactly one positive root R, by Cauchy's bound R bounds
the modulus of every root, and the polynomial equals exactly 1 at x = m,
so every root has modulus strictly below m and the spectral radius of
the probability matrix W is strictly below 1.  ``verify_root_bound``
certifies that bound with one exact integer evaluation.

Floats appear only for display, and no float can veto the exact bound:
Aberth refinement finds every root with a residual so its accuracy is
checkable, and power iteration on the walk's 2n moves estimates the
spectral radius for comparison with |dominant root| / m.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, InvariantError, SizeCapError
from .params import Params
from .transfer import transition_matrix  # noqa: F401  traced by name in benchmarks/spans.py

ROOT_RESIDUAL_TOL = 1e-9
RADIUS_AGREEMENT_TOL = 1e-6
SPECTRUM_MAX_N = 150  # an Aberth sweep costs O(n^2); 700 of them at n = 150 take about 8 s
_FLOAT_MAX_LOG10 = 308  # the residual bound's |z|^(n+1) must stay a finite float
_ABERTH_SWEEPS = 700  # twice the most sweeps an admitted cell was seen to need (298)
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


def find_roots(coeffs: list[int], tol: float = ROOT_RESIDUAL_TOL) -> list[complex]:
    """All complex roots of an integer-coefficient polynomial.

    Simultaneous Aberth refinement started from a deterministic circle of
    radius 1 + max|c_i| / |c_lead|.  Success means every root's residual
    satisfies |p(z)| <= tol * (1 + |z|^(deg+1)); otherwise the iteration
    keeps going until a fixed budget of sweeps runs out or a root leaves
    float range, and then fails loudly.  Output is sorted by (real, imag),
    so it is deterministic given (coeffs, tol).
    """
    if len(coeffs) < 2:
        raise DomainError("polynomial degree must be at least 1")
    if coeffs[0] == 0:
        raise DomainError("leading coefficient must be nonzero")
    degree = len(coeffs) - 1
    lead = coeffs[0]
    monic = [complex(c) / lead for c in coeffs]
    deriv = [monic[i] * (degree - i) for i in range(degree)]
    radius = 1.0 + max(abs(c) for c in coeffs[1:]) / abs(lead)

    # fixed angular offset keeps the start points off the real axis
    roots = [
        radius * cmath.exp(1j * (2 * cmath.pi * k / degree + 0.4))
        for k in range(degree)
    ]
    refine_stop = max(tol * 1e-2, 1e-13) * max(1.0, radius)
    for sweeps in range(1, _ABERTH_SWEEPS + 1):
        max_step = 0.0
        for i in range(degree):
            z = roots[i]
            p = _eval_complex_poly(monic, z)
            dp = _eval_complex_poly(deriv, z)
            if dp == 0:
                roots[i] = z + refine_stop  # deterministic nudge off the stall
                max_step = max(max_step, refine_stop)
                continue
            newton = p / dp
            repulsion = sum(1 / (z - roots[j]) for j in range(degree) if j != i)
            denom = 1 - newton * repulsion
            step = newton if denom == 0 else newton / denom
            roots[i] = z - step
            max_step = max(max_step, abs(step))
        if max_step < refine_stop and _residuals_ok(coeffs, roots, tol):
            return sorted(roots, key=lambda z: (z.real, z.imag))
        if not all(map(cmath.isfinite, roots)):
            break  # one root past float range turns every root to nan
    worst = max(_residuals(coeffs, roots))
    raise ConvergenceError(
        f"root refinement stopped after {sweeps} of {_ABERTH_SWEEPS} sweeps; "
        f"worst residual {worst:.3e}"
    )


@dataclass(frozen=True)
class RootReport:
    """Spectrum summary: roots, residuals, margin below m, radius estimate."""

    params: Params
    char_coeffs: tuple[int, ...]
    transformed_coeffs: tuple[int, ...]
    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    max_modulus: float
    margin: float
    rho_estimate: float
    rho_bound_ok: bool


def verify_root_bound(params: Params, tol: float = ROOT_RESIDUAL_TOL) -> RootReport:
    """Certify that every characteristic root has modulus strictly below m.

    The characteristic polynomial must be positive at m (it equals 1
    there).  A failure would contradict the convergence guarantee for the
    matrix geometric series, so it raises rather than returning a report.
    The roots, ``max_modulus`` and ``margin`` are floats for display: the
    dominant root sits about (m-1)/m^n below m, so the float margin can
    round to 0 where the bound holds.  Cells past the root-finding caps are
    refused before any root is sought.
    """
    params.require_multi_symbol()
    m, n = params.m, params.n
    if n > SPECTRUM_MAX_N or (n + 1) * math.log10(m) > _FLOAT_MAX_LOG10:
        raise SizeCapError(
            f"spectrum at m={m}, n={n} is refused: root finding needs n <= "
            f"{SPECTRUM_MAX_N} and m^(n+1) <= 10^{_FLOAT_MAX_LOG10}"
        )
    coeffs = char_poly(params)
    at_m = _eval_int_poly(coeffs, m)
    if at_m <= 0:
        raise InvariantError(
            f"root bound violated at {params}: the characteristic polynomial "
            f"is {at_m} at m = {m}, not positive"
        )
    roots = find_roots(coeffs, tol)
    max_modulus = max(abs(z) for z in roots)
    return RootReport(
        params=params,
        char_coeffs=tuple(coeffs),
        transformed_coeffs=tuple(transformed_poly(params)),
        roots=tuple(roots),
        residuals=tuple(_residuals(coeffs, roots)),
        max_modulus=max_modulus,
        margin=m - max_modulus,
        rho_estimate=spectral_radius_estimate(params),
        rho_bound_ok=at_m > 0,
    )


def spectral_radius_estimate(
    params: Params, tol: float = RADIUS_AGREEMENT_TOL
) -> float:
    """Power-iteration estimate of the spectral radius of W.

    W has 2n nonzero moves: each live state j < n sends (m-1)/m of its mass
    to Start and 1/m to state j+1, so the image of v has entry
    (m-1)/m * sum(v_j, j < n) at Start and v_j / m at j+1.  Starts from a
    strictly positive vector, which always overlaps the dominant
    eigendirection of this nonnegative matrix.  The estimate is driven well
    below ``tol`` so it can be compared against |dominant root| / m at that
    tolerance.
    """
    params.require_multi_symbol()
    m, n = params.m, params.n
    restart, advance = (m - 1) / m, 1 / m
    vector = [1 / math.sqrt(n + 1)] * (n + 1)
    estimate = 0.0
    settle = tol * 1e-3
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


def _eval_complex_poly(coeffs: list[complex], z: complex) -> complex:
    value = 0j
    for c in coeffs:
        value = value * z + c
    return value


def _residuals(coeffs: list[int], roots: list[complex]) -> list[float]:
    as_complex = [complex(c) for c in coeffs]
    return [abs(_eval_complex_poly(as_complex, z)) for z in roots]


def _residuals_ok(coeffs: list[int], roots: list[complex], tol: float) -> bool:
    degree = len(coeffs) - 1
    return all(
        res <= tol * (1.0 + abs(z) ** (degree + 1))
        for res, z in zip(_residuals(coeffs, roots), roots)
    )
