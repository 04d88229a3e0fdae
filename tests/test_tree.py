"""Tree path sums: the three counting routes and their per-depth structure."""

import pytest

from runlength import closed_form, tree
from runlength.errors import DomainError, SizeCapError
from runlength.params import Params


def ancestors(model, node):
    """Ancestors of ``node`` ordered by depth 1..depth(node), node included."""
    if not 0 <= node < model.node_count:
        raise DomainError(f"node {node} out of range for a tree with {model.node_count} nodes")
    chain = []
    while node:
        chain.append(node)
        node = (node - 1) // model.params.m
    return chain[::-1]


def lca_node(model, a, b):
    """Test-local lowest common ancestor by comparing root-to-node chains."""
    chain_a = [0] + ancestors(model, a)
    chain_b = [0] + ancestors(model, b)
    ancestor = 0
    for x, y in zip(chain_a, chain_b):
        if x != y:
            break
        ancestor = x
    return ancestor


def shared_path_length(model, a, b):
    """Edges common to the root paths of a and b: the depth of their LCA."""
    return len(ancestors(model, lca_node(model, a, b)))


# ----------------------------------------------------------------- TreeModel


def test_node_count_and_edges():
    model = tree.TreeModel(Params(2, 2))
    assert model.node_count == 7
    assert model.edge_count == 6
    assert tree.TreeModel(Params(3, 2)).node_count == 13


def test_parent_and_depth():
    model = tree.TreeModel(Params(2, 2))
    assert ancestors(model, 3) == [1, 3] and ancestors(model, 6) == [2, 6]
    assert ancestors(model, 0) == []
    assert [len(ancestors(model, v)) for v in range(7)] == [0, 1, 1, 2, 2, 2, 2]
    with pytest.raises(DomainError):
        ancestors(model, 7)
    with pytest.raises(DomainError):
        ancestors(model, -1)


def test_shared_path_length_with_root_is_zero():
    model = tree.TreeModel(Params(3, 2))
    for node in range(model.node_count):
        assert shared_path_length(model, 0, node) == 0


def test_shared_path_length_of_node_with_itself_is_depth():
    model = tree.TreeModel(Params(2, 2))
    leaf = 5
    assert shared_path_length(model, leaf, leaf) == 2


def test_sibling_leaves_share_one_edge():
    model = tree.TreeModel(Params(2, 2))
    assert shared_path_length(model, 3, 4) == 1  # both children of node 1


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3)])
def test_shared_path_length_symmetry(m, n):
    model = tree.TreeModel(Params(m, n))
    for a in range(model.node_count):
        for b in range(a, model.node_count):
            assert shared_path_length(model, a, b) == shared_path_length(model, b, a)
        assert shared_path_length(model, a, a) == len(ancestors(model, a))


# ------------------------------------------------------------------- methods


def test_pair_enum_examples():
    report = tree.path_sum_pair_enum(Params(2, 2))
    assert report.path_sum == 22
    assert report.per_depth == ((1, 14), (2, 4))
    assert tree.path_sum_pair_enum(Params(3, 2)).path_sum == 57
    assert tree.path_sum_pair_enum(Params(2, 1)).path_sum == 2


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (4, 2), (1, 5), (5, 1)])
def test_pair_enum_matches_per_pair_walk(m, n):
    model = tree.TreeModel(Params(m, n))
    nodes = range(model.node_count)
    by_walk = sum(shared_path_length(model, a, b) for a in nodes for b in nodes)
    assert tree.path_sum_pair_enum(Params(m, n)).path_sum == by_walk


def test_pair_enum_cap():
    with pytest.raises(SizeCapError, match="cap"):
        tree.path_sum_pair_enum(Params(2, 12))  # 12 * 8191^2 comparisons > the cap


def test_edge_contrib_examples():
    assert tree.path_sum_edge_contrib(Params(2, 2)).path_sum == 22
    assert tree.path_sum_edge_contrib(Params(2, 1)).path_sum == 2
    assert tree.path_sum_edge_contrib(Params(4, 4)).path_sum == 37812


def test_pairs_at_depth_examples():
    assert tree.pairs_at_depth(Params(2, 2), 1) == 14
    assert tree.pairs_at_depth(Params(2, 2), 2) == 4
    assert tree.pairs_at_depth(Params(2, 1), 1) == 2
    with pytest.raises(DomainError):
        tree.pairs_at_depth(Params(2, 2), 0)
    with pytest.raises(DomainError):
        tree.pairs_at_depth(Params(2, 2), 3)


def test_depth_count_examples():
    assert tree.path_sum_depth_count(Params(2, 2)).path_sum == 22
    assert tree.path_sum_depth_count(Params(3, 2)).path_sum == 57
    assert tree.path_sum_depth_count(Params(2, 3)).path_sum == 142


@pytest.mark.parametrize("m", range(2, 8))
@pytest.mark.parametrize("n", range(1, 5))
def test_three_routes_and_closed_form_agree(m, n):
    params = Params(m, n)
    if n * tree.TreeModel(params).node_count ** 2 > tree.PAIR_ENUM_WORK_CAP:
        pytest.skip("above pair-enumeration cap")
    reports = [
        tree.path_sum_pair_enum(params),
        tree.path_sum_edge_contrib(params),
        tree.path_sum_depth_count(params),
    ]
    expected = closed_form.path_sum(params)
    assert all(r.path_sum == expected for r in reports)
    assert all(r.edge_count == closed_form.tree_edge_count(params) for r in reports)
    # all three routes see the same per-depth pair counts
    assert reports[0].per_depth == reports[1].per_depth == reports[2].per_depth


def test_single_symbol_path_graph():
    params = Params(1, 6)
    expected = closed_form.path_sum(params)
    assert tree.path_sum_pair_enum(params).path_sum == expected
    assert tree.path_sum_edge_contrib(params).path_sum == expected


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_depth_partition_covers_all_nonzero_pairs(m, n):
    params = Params(m, n)
    model = tree.TreeModel(params)
    v = model.node_count
    nodes = range(v)
    with_root_lca = sum(
        1
        for a in nodes
        for b in nodes
        if shared_path_length(model, a, b) == 0
    )
    report = tree.path_sum_pair_enum(params)
    assert sum(count for _, count in report.per_depth) + with_root_lca == v * v


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_three_case_split_matches_enumeration(m, n):
    """Tag every pair at a fixed deepest-common-node c with its shape.

    The pairs owned by c split into: nodes in two different child subtrees
    of c, exactly one node equal to c, or both equal to c.  Each tagged
    count must match its closed term, per depth.
    """
    params = Params(m, n)
    model = tree.TreeModel(params)
    nodes = range(model.node_count)
    for d in range(1, n + 1):
        split = anchored = diagonal = 0
        owners = set()
        for a in nodes:
            for b in nodes:
                c = lca_node(model, a, b)
                if len(ancestors(model, c)) != d:
                    continue
                owners.add(c)
                if a == c and b == c:
                    diagonal += 1
                elif a == c or b == c:
                    anchored += 1
                else:
                    split += 1
        assert len(owners) == m**d
        child_subtree = closed_form.geometric_sum(m, n - d)
        descendants = closed_form.geometric_sum(m, n - d + 1) - 1
        assert split == m**d * 2 * (m * (m - 1) // 2) * child_subtree**2
        assert anchored == m**d * 2 * descendants
        assert diagonal == m**d
        assert split + anchored + diagonal == tree.pairs_at_depth(params, d)


def test_reports_expose_method_tags():
    assert tree.path_sum_pair_enum(Params(2, 2)).method == "pair_enum"
    assert tree.path_sum_edge_contrib(Params(2, 2)).method == "edge_contrib"
    assert tree.path_sum_depth_count(Params(2, 2)).method == "depth_count"
