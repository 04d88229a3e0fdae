"""Exact statistics of the waiting time for a run of n equal symbols.

Strings are drawn uniformly from an m-letter alphabet until one fixed
symbol appears n times in a row.  The package computes the distribution
and moments of the resulting string length exactly (arbitrary-precision
rationals), relates them to path statistics of complete m-ary trees, and
cross-verifies every value by independent routes.
"""

from .closed_form import MomentReport, a286778, moment_report, tree_edge_count_m2
from .params import Params
from .simulate import SimReport, simulate
from .spectral import RootReport, verify_root_bound
from .transfer import DistributionTable, distribution
from .tree import TreeModel, TreeReport

__version__ = "0.1.0"

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
