"""``runlength spectrum``: characteristic roots, the strict bound, the spectral radius."""

from __future__ import annotations

from .. import spectral
from ..params import Params


def run(args) -> tuple:
    params = Params(args.m, args.n)
    params.require_multi_symbol()
    report = spectral.verify_root_bound(params)
    rho_from_roots = report.max_modulus / params.m
    results = {
        "char_coeffs": list(report.char_coeffs),
        "transformed_coeffs": list(report.transformed_coeffs),
        "roots": [
            {
                "re": z.real,
                "im": z.imag,
                "modulus": abs(z),
                "residual": res,
            }
            for z, res in zip(report.roots, report.residuals)
        ],
        "max_modulus": report.max_modulus,
        "margin": report.margin,
        "rho_estimate": report.rho_estimate,
        "rho_from_roots": rho_from_roots,
        "rho_agreement": abs(report.rho_estimate - rho_from_roots),
        "bound_ok": report.rho_bound_ok,
    }
    exactness = {
        "char_coeffs": "exact",
        "transformed_coeffs": "exact",
        "roots": "float",
        "max_modulus": "float",
        "margin": "float",
        "rho_estimate": "float",
        "bound_ok": "exact",
    }
    return params, results, exactness, 0
