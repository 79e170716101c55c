"""Network portraits and portrait divergence against hand tables and oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diffnet import (
    DiffusionNetwork,
    EmptyGraphError,
    distance_matrix,
    divergence_from_portraits,
    pad_portraits,
    portrait,
    portrait_distributions,
    portrait_divergence,
)
from diffnet.portraits import shell_counts

import util
from util import graphs, make_network, random_graph


# --- hand tables ------------------------------------------------------------


def test_single_node_portrait():
    b = portrait(make_network(1, []))
    assert b.shape[0] == 1
    assert b[0, 1] == 1
    assert b.sum() == 1


def test_bidirectional_star_portrait():
    # center 0 with four leaves, both directions on every spoke
    arcs = [(0, i) for i in range(1, 5)] + [(i, 0) for i in range(1, 5)]
    b = portrait(make_network(5, arcs))
    expected = np.zeros((3, 5), dtype=np.int64)
    expected[0, 1] = 5
    expected[1, 4] = 1  # the center sees all four leaves at distance 1
    expected[1, 1] = 4  # each leaf sees only the center at distance 1
    expected[2, 3] = 4  # each leaf sees the other three leaves at distance 2
    expected[2, 0] = 1  # the center has nobody at distance 2
    assert np.array_equal(b, expected)


def test_directed_path_portrait():
    b = portrait(make_network(3, [(0, 1), (1, 2)]))
    expected = np.zeros((3, 3), dtype=np.int64)
    expected[0, 1] = 3
    expected[1, 1] = 2
    expected[1, 0] = 1
    expected[2, 1] = 1
    expected[2, 0] = 2
    assert np.array_equal(b, expected)


def test_directed_cycle_portrait():
    b = portrait(make_network(3, [(0, 1), (1, 2), (2, 0)]))
    expected = np.zeros((3, 3), dtype=np.int64)
    expected[0, 1] = 3
    expected[1, 1] = 3
    expected[2, 1] = 3
    assert np.array_equal(b, expected)


def test_disconnected_edges_portrait():
    b = portrait(make_network(4, [(0, 1), (2, 3)]))
    expected = np.zeros((2, 4), dtype=np.int64)
    expected[0, 1] = 4
    expected[1, 1] = 2  # the two sources each reach one node
    expected[1, 0] = 2  # the two sinks reach nobody
    assert np.array_equal(b, expected)


def test_undirected_flag_symmetrizes():
    b = portrait(make_network(3, [(0, 1), (1, 2)]), undirected=True)
    # undirected path: ends see 1 at distance 1 and 1 at distance 2,
    # middle sees 2 at distance 1
    expected = np.zeros((3, 3), dtype=np.int64)
    expected[0, 1] = 3
    expected[1, 1] = 2
    expected[1, 2] = 1
    expected[2, 1] = 2
    expected[2, 0] = 1
    assert np.array_equal(b, expected)


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraphError):
        portrait(make_network(0, []))


# --- invariants -------------------------------------------------------------


@given(graphs(max_nodes=9), st.booleans())
def test_row_sums_equal_node_count(g, undirected):
    n, arcs = g
    b = portrait(make_network(n, arcs), undirected=undirected)
    assert np.all(b.sum(axis=1) == n)
    assert b[0, 1] == n and b[0].sum() == n


@given(graphs(max_nodes=9))
def test_pair_mass_counts_reachable_pairs(g):
    n, arcs = g
    b = portrait(make_network(n, arcs))
    a = util.adjacency(n, arcs)
    reachable = int(util.reachability(a).sum())  # includes self-pairs
    assert int((b * np.arange(b.shape[1])).sum()) == reachable


@given(graphs(max_nodes=8), st.booleans())
def test_portrait_matches_bfs_oracle(g, undirected):
    n, arcs = g
    b = portrait(make_network(n, arcs), undirected=undirected)
    assert util.portrait_to_dict(b) == util.oracle_portrait(n, arcs, undirected=undirected)


def assert_shells_match_oracle(net, n, arcs, undirected):
    """Each row of ``shell_counts``, less its trailing zeros, is that node's
    oracle shell list, and the last column is some node's eccentricity."""
    shells = shell_counts(net, undirected)
    assert shells.shape[0] == n and shells[:, -1].any()
    rows = [list(row[: np.flatnonzero(row)[-1] + 1]) for row in shells.tolist()]
    assert rows == util.oracle_shells(n, arcs, undirected)


@given(graphs(max_nodes=8), st.booleans())
def test_shell_counts_match_per_source_bfs(g, undirected):
    n, arcs = g
    assert_shells_match_oracle(make_network(n, arcs), n, arcs, undirected)


def _twin_graphs() -> dict[str, tuple[int, list[tuple[int, int]]]]:
    """Graphs where most nodes share their neighbour set with another node."""
    rng = np.random.default_rng(6)
    k = 40
    return {
        "out-star": (k + 1, [(0, i) for i in range(1, k + 1)]),
        "in-star": (k + 1, [(i, 0) for i in range(1, k + 1)]),
        "two-way-star": (k + 1, [a for i in range(1, k + 1) for a in ((0, i), (i, 0))]),
        "k-7-5": (12, [(a, b) for a in range(7) for b in range(7, 12)]),
        "k-7-5-both-ways": (12, [a for u in range(7) for v in range(7, 12) for a in ((u, v), (v, u))]),
        # a root whose out-stars have sinks for leaves
        "out-star-tree": (1 + 4 + 4 * 9, [(0, c) for c in range(1, 5)]
                          + [(c, 5 + 9 * (c - 1) + j) for c in range(1, 5) for j in range(9)]),
        "hubs-sharing-leaves-reciprocated": util.orient(
            rng, *util.hubs_sharing_leaves(rng, 4, 60), reciprocal_p=0.5
        ),
        # members 0-5 share the out-set {6, 7}, which reaches member 0 in one
        # step and member 1 in two: member 1 is alone in the shared BFS's last
        # layer, so its own shells end one layer earlier
        "twins-reached-back": (9, [(m, s) for m in range(6) for s in (6, 7)]
                               + [(6, 0), (7, 8), (8, 1)]),
        # the sinks and the isolated nodes 9-11 form the class of the empty
        # out-set, whose BFS has no source
        "empty-set-class": (12, [(0, 1), (1, 2), (0, 3), (4, 5), (4, 6), (7, 8)]),
        # members 0-3 share the set {4, 5}, and 4 leads back to 0-3: each
        # member reaches the other three at distance 2
        "members-reach-each-other": (7, [(m, s) for m in range(4) for s in (4, 5)]
                                     + [(4, m) for m in range(4)] + [(5, 6)]),
    }


TWIN_GRAPHS = _twin_graphs()


@pytest.mark.parametrize("undirected", [False, True], ids=["directed", "undirected"])
@pytest.mark.parametrize("name", sorted(TWIN_GRAPHS))
def test_twin_class_portraits_match_oracle(name, undirected):
    n, arcs = TWIN_GRAPHS[name]
    net = make_network(n, arcs)
    b = portrait(net, undirected=undirected)
    assert util.portrait_to_dict(b) == util.oracle_portrait(n, arcs, undirected=undirected)
    assert_shells_match_oracle(net, n, arcs, undirected)


@pytest.mark.parametrize("undirected", [False, True], ids=["directed", "undirected"])
def test_more_twin_classes_than_one_pass_holds(undirected):
    # every node of 70 disjoint cycles of 25-35 nodes is a class of its own,
    # so the 2,086 classes take two bit-parallel passes, and the cycle that
    # holds class 2,048 has classes in both
    arcs, n = [], 0
    for c in range(70):
        m = 25 + c % 11
        arcs += [(n + i, n + (i + 1) % m) for i in range(m)]
        n += m
    # four-digit names keep the sorted node order equal to the integers
    net = DiffusionNetwork(
        network_id="cycles",
        nodes=frozenset(f"v{i:04d}" for i in range(n)),
        edges=frozenset((f"v{u:04d}", f"v{v:04d}") for u, v in arcs),
    )
    assert n > 2048 and len(set(net.und_lists if undirected else net.out_lists)) == n
    b = portrait(net, undirected=undirected)
    assert util.portrait_to_dict(b) == util.oracle_portrait(n, arcs, undirected=undirected)
    assert_shells_match_oracle(net, n, arcs, undirected)


@given(graphs(max_nodes=7), st.integers(0, 10_000))
def test_portrait_is_isomorphism_invariant(g, seed):
    n, arcs = g
    net = make_network(n, arcs)
    perm = np.random.default_rng(seed).permutation(n)
    mapping = {f"n{i:03d}": f"m{perm[i]:03d}" for i in range(n)}
    assert np.array_equal(portrait(net), portrait(util.relabeled(net, mapping)))


@given(graphs(max_nodes=6))
def test_disjoint_duplication_keeps_row_sums(g):
    n, arcs = g
    doubled = arcs + [(u + n, v + n) for u, v in arcs]
    b = portrait(make_network(2 * n, doubled))
    assert np.all(b.sum(axis=1) == 2 * n)


def test_isolated_node_changes_no_error():
    base = make_network(3, [(0, 1), (1, 2)])
    grown = make_network(4, [(0, 1), (1, 2)])
    b1, b2 = portrait(base), portrait(grown)
    assert b2[0, 1] == 4
    assert np.all(b2.sum(axis=1) == 4)
    assert b1.shape[0] == b2.shape[0]


# --- padding and distributions ----------------------------------------------


def test_padding_adds_zero_mass_rows():
    short = portrait(make_network(2, [(0, 1)]))
    tall = portrait(make_network(4, [(0, 1), (1, 2), (2, 3)]))
    p1, p2 = pad_portraits(short, tall)
    assert p1.shape == p2.shape
    assert np.all(p1.sum(axis=1) == 2)
    assert np.all(p2.sum(axis=1) == 4)
    # the padded rows put every node at k = 0, which carries no mass
    assert p1[2, 0] == 2


@given(graphs(max_nodes=8), graphs(max_nodes=8))
def test_distribution_normalizes(ga, gb):
    rows = portrait_distributions(
        [portrait(make_network(*ga)), portrait(make_network(*gb), undirected=True)]
    )
    assert rows.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert np.all(rows >= 0)


# --- divergence -------------------------------------------------------------


def test_divergence_self_zero():
    net = make_network(4, [(0, 1), (1, 2), (0, 3)])
    assert portrait_divergence(net, net) == 0.0


def test_divergence_symmetric_and_bounded():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = make_network(*util.random_graph(rng, 6, 0.3))
        b = make_network(*util.random_graph(rng, 7, 0.3))
        d_ab = portrait_divergence(a, b)
        d_ba = portrait_divergence(b, a)
        assert d_ab == pytest.approx(d_ba, abs=1e-12)
        assert 0.0 <= d_ab <= 1.0


def test_edge_vs_cycle_divergence_hand_computed():
    edge = make_network(2, [(0, 1)])
    cycle = make_network(3, [(0, 1), (1, 2), (2, 0)])
    # P = {(0,1): 2/3, (1,1): 1/3}; Q = {(0,1): 1/3, (1,1): 1/3, (2,1): 1/3}
    expected = 0.5 * (2 / 3) * np.log2((2 / 3) / (1 / 2)) + 0.5 * (
        (1 / 3) * np.log2((1 / 3) / (1 / 2)) + (1 / 3) * np.log2((1 / 3) / (1 / 6))
    )
    assert portrait_divergence(edge, cycle) == pytest.approx(expected, abs=1e-12)


@given(graphs(max_nodes=7), graphs(max_nodes=7))
def test_divergence_matches_sparse_oracle(ga, gb):
    na, arcs_a = ga
    nb, arcs_b = gb
    d = portrait_divergence(make_network(na, arcs_a), make_network(nb, arcs_b))
    expected = util.oracle_divergence(
        util.oracle_portrait(na, arcs_a), util.oracle_portrait(nb, arcs_b)
    )
    assert d == pytest.approx(expected, abs=1e-12)


@given(graphs(max_nodes=7), st.integers(0, 10_000))
def test_divergence_zero_for_isomorphic_pairs(g, seed):
    n, arcs = g
    net = make_network(n, arcs)
    perm = np.random.default_rng(seed).permutation(n)
    mapping = {f"n{i:03d}": f"m{perm[i]:03d}" for i in range(n)}
    assert portrait_divergence(net, util.relabeled(net, mapping)) == 0.0


# --- row kernel -------------------------------------------------------------


def pair_loop(portraits):
    """The per-pair divergence matrix from the sparse oracle, one pair at a time."""
    sparse = [util.portrait_to_dict(b) for b in portraits]
    m = len(portraits)
    matrix = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            matrix[i, j] = matrix[j, i] = util.oracle_divergence(sparse[i], sparse[j])
    return matrix


def mixed_portraits():
    """Portraits of mixed row and column counts, a single-node graph, and
    two duplicates (the last two entries copy entries 2 and 5)."""
    rng = np.random.default_rng(808)
    networks = [
        make_network(1, []),
        make_network(2, [(0, 1)]),
        make_network(7, [(i, i + 1) for i in range(6)]),  # many rows
        make_network(9, [(0, i) for i in range(1, 9)]),  # wide columns
    ] + [make_network(*random_graph(rng, int(rng.integers(2, 12)), 0.25)) for _ in range(8)]
    found = [portrait(net) for net in networks]
    found += [portrait(net, undirected=True) for net in networks[2:4]]
    return found + [found[2].copy(), found[5].copy()]


def test_row_kernel_matches_pair_loop():
    found = mixed_portraits()
    assert len({b.shape for b in found}) > 5
    want = pair_loop(found)
    rows = portrait_distributions(found)
    for i in range(len(found) - 1):
        got = divergence_from_portraits(rows[i], rows[i + 1 :])
        assert np.max(np.abs(got - want[i, i + 1 :])) <= 1e-12
    assert np.max(np.abs(distance_matrix(found, "portrait") - want)) <= 1e-12


def test_distributions_hold_only_weighted_cells():
    found = mixed_portraits()
    rows = portrait_distributions(found)
    assert np.allclose(rows.sum(axis=1), 1.0)
    assert np.all(rows.any(axis=0))  # every shared cell carries mass somewhere
    for b, row in zip(found, rows):
        assert np.count_nonzero(row) == np.count_nonzero(b[:, 1:])


def test_duplicate_portraits_are_exact_zero_and_exact_ties():
    found = mixed_portraits()
    matrix = distance_matrix(found, "portrait")
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0.0)
    for a, b in ((2, len(found) - 2), (5, len(found) - 1)):
        assert matrix[a, b] == 0.0
        others = [k for k in range(len(found)) if k not in (a, b)]
        assert np.array_equal(matrix[a, others], matrix[b, others])
    rows = portrait_distributions(found)
    assert divergence_from_portraits(rows[2], rows[-2:-1])[0] == 0.0
