"""Exact statistics of the waiting time for a run of n equal symbols.

Strings are drawn uniformly from an m-letter alphabet until one fixed
symbol appears n times in a row.  The package computes the distribution
and moments of the resulting string length exactly (arbitrary-precision
rationals), relates them to path statistics of complete m-ary trees, and
cross-verifies every value by independent routes.
"""

import importlib

from .closed_form import MomentReport, a286778, moment_report, tree_edge_count_m2
from .params import Params
# eager, because importing the submodule after this file would rebind
# `simulate` from the function to the module
from .simulate import SimReport, simulate

__version__ = "0.1.0"

# exports of the route modules, each imported on first use of one of its names
_LAZY_EXPORTS = {
    "DistributionTable": "transfer",
    "distribution": "transfer",
    "RootReport": "spectral",
    "verify_root_bound": "spectral",
    "TreeModel": "tree",
    "TreeReport": "tree",
}

__all__ = [
    "DistributionTable",
    "MomentReport",
    "Params",
    "RootReport",
    "SimReport",
    "TreeModel",
    "TreeReport",
    "a286778",
    "distribution",
    "moment_report",
    "simulate",
    "tree_edge_count_m2",
    "verify_root_bound",
    "__version__",
]


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
