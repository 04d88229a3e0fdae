"""Complete m-ary trees and the shared-root-path sum S.

S adds up, over ALL ordered node pairs (a, b) including a = b and both
orientations, the number of edges the root paths of a and b share -- i.e.
the depth of their lowest common ancestor.  Three routes compute it here:

* ``path_sum_pair_enum``   -- compare every ordered pair's ancestor labels
  at each depth (the oracle),
* ``path_sum_edge_contrib`` -- each edge is shared by (subtree size)^2 pairs,
* ``path_sum_depth_count``  -- count pairs whose LCA sits at each depth.

Nodes are level-order indices with parent(i) = (i - 1) // m, so the tree
needs no materialized structure.
"""

from __future__ import annotations

from collections import namedtuple

from .closed_form import geometric_sum
from .errors import DomainError, InvariantError, refuse_above
from .params import Params

# pair enumeration compares n V^2 labels, and holds V^2 bools per depth:
# (2, 10) compares 4.19e7, (6479, 1) 4.199e7; m = 1 passes the cap above n = 346
PAIR_ENUM_WORK_CAP = 42_000_000


class TreeModel(namedtuple("TreeModel", "params")):
    """Complete m-ary rooted tree of height n, addressed in level order."""

    __slots__ = ()

    @property
    def node_count(self) -> int:
        m, n = self.params.m, self.params.n
        return geometric_sum(m, n + 1)

    @property
    def edge_count(self) -> int:
        return self.node_count - 1


class TreeReport(namedtuple("TreeReport", "params edge_count path_sum per_depth method")):
    """Edge count T, path sum S, and per-depth ordered-pair counts."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> TreeReport:
        self = super().__new__(cls, *args, **kwargs)
        weighted = sum(d * count for d, count in self.per_depth)
        if weighted != self.path_sum:
            raise InvariantError(
                f"per-depth counts sum to {weighted}, expected {self.path_sum}"
            )
        return self


def path_sum_pair_enum(params: Params) -> TreeReport:
    """Path sum by comparing the labels of all V^2 ordered pairs at each depth.

    At depth d each node's label is its depth-d ancestor, or -1 above depth
    d, lifted from d = n up one level per depth by parent(i) = (i - 1) // m.
    The pairs sharing an ancestor at depth d are the matching labels other
    than -1; a pair's shared length is the number of depths it matches at.
    The n * V^2 comparisons, O(n * V^2) time and O(V^2) memory, are capped.
    """
    tree = TreeModel(params)
    m, n, v = params.m, params.n, tree.node_count
    subject = f"pair enumeration at m={m}, n={n}"
    advice = "use the edge-contribution or depth-count method instead"
    refuse_above(subject, n * v * v, "compare {} label pairs", PAIR_ENUM_WORK_CAP, advice)
    import numpy as np

    label = np.full(v, -1, dtype=np.int64)
    count_at_least = [0] * (n + 2)
    for d in range(n, 0, -1):
        first, past = geometric_sum(m, d), geometric_sum(m, d + 1)  # depth d's nodes
        label[past:] = (label[past:] - 1) // m
        label[first:past] = np.arange(first, past)
        matches = (label[:, None] == label[None, :]) & (label[:, None] >= 0)
        count_at_least[d] = int(matches.sum())
    per_depth = tuple(
        (d, count_at_least[d] - count_at_least[d + 1]) for d in range(1, n + 1)
    )
    total = sum(count_at_least[1 : n + 1])
    return TreeReport(
        params=params,
        edge_count=tree.edge_count,
        path_sum=total,
        per_depth=per_depth,
        method="pair_enum",
    )


def path_sum_edge_contrib(params: Params) -> TreeReport:
    """Path sum via per-edge contributions, in O(n).

    An edge lies on both root paths exactly when both nodes sit in the
    subtree below it, so each edge contributes (subtree size)^2 and the
    m^d edges ending at depth d share one closed subtree size.
    """
    m, n = params.m, params.n
    # pairs_with_at_least[d]: ordered pairs whose shared path reaches depth d
    pairs_with_at_least = [0] * (n + 2)
    edges = 0
    for d in range(1, n + 1):
        edges += m**d
        subtree = geometric_sum(m, n - d + 1)
        pairs_with_at_least[d] = m**d * subtree**2
    total = sum(pairs_with_at_least[1 : n + 1])
    per_depth = tuple(
        (d, pairs_with_at_least[d] - pairs_with_at_least[d + 1])
        for d in range(1, n + 1)
    )
    return TreeReport(
        params=params,
        edge_count=edges,
        path_sum=total,
        per_depth=per_depth,
        method="edge_contrib",
    )


def pairs_at_depth(params: Params, d: int) -> int:
    """Ordered pairs whose lowest common ancestor sits exactly at depth d.

    Any of the m^d depth-d nodes c can be that ancestor, and the pairs it
    owns split into three disjoint shapes: the two nodes in different child
    subtrees of c, one node equal to c with the other strictly below it
    (twice, for both orientations), or both equal to c.
    """
    m, n = params.m, params.n
    if not 1 <= d <= n:
        raise DomainError(f"depth d must be in 1..{n}, got {d}")
    child_subtree = geometric_sum(m, n - d)
    descendants = geometric_sum(m, n - d + 1) - 1
    split_pairs = 2 * (m * (m - 1) // 2) * child_subtree**2
    anchored_pairs = 2 * descendants
    return m**d * (split_pairs + anchored_pairs + 1)


def path_sum_depth_count(params: Params) -> TreeReport:
    """Path sum as sum(d * pairs_at_depth(d)).

    Also re-derives each per-depth count from the telescoped form
    m^d * (m^(2(n-d)+1) - 1)/(m - 1) as a structural self-check.
    """
    m, n = params.m, params.n
    per_depth = []
    total = edges = 0
    for d in range(1, n + 1):
        edges += m**d
        count = pairs_at_depth(params, d)
        simplified = m**d * geometric_sum(m, 2 * (n - d) + 1)
        if simplified != count:
            raise InvariantError(
                f"three-case count {count} != telescoped count {simplified} "
                f"at depth {d} for {params}"
            )
        per_depth.append((d, count))
        total += d * count
    return TreeReport(
        params=params,
        edge_count=edges,
        path_sum=total,
        per_depth=tuple(per_depth),
        method="depth_count",
    )
