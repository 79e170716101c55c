"""Directed graphlet orbits, Spearman correlations and the 13-orbit distance."""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from diffnet import (
    CATALOG,
    N_ORBITS,
    correlation_matrix,
    count_orbits,
    dgcd13,
    dgcd_from_correlations,
    distance_matrix,
    network_correlations,
)

import util
from util import graphs, make_network, random_graph


# --- catalog re-derivation by exhaustive enumeration ------------------------


def _arcs_of_mask(mask: int, pairs):
    return frozenset(p for bit, p in enumerate(pairs) if mask >> bit & 1)


def _is_admissible(arcs, n):
    if any((b, a) in arcs for a, b in arcs):
        return False  # contains a reciprocated pair
    touched = {x for arc in arcs for x in arc}
    if touched != set(range(n)):
        return False
    # weak connectivity
    und = {i: set() for i in range(n)}
    for a, b in arcs:
        und[a].add(b)
        und[b].add(a)
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in und[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen == set(range(n))


def _canonical(arcs, n):
    return min(
        tuple(sorted((p[a], p[b]) for a, b in arcs)) for p in permutations(range(n))
    )


def _automorphism_orbits(arcs, n):
    autos = [
        p for p in permutations(range(n)) if {(p[a], p[b]) for a, b in arcs} == set(arcs)
    ]
    orbit_of = {}
    for i in range(n):
        images = frozenset(p[i] for p in autos)
        orbit_of[i] = images
    return orbit_of


def test_catalog_is_exactly_the_admissible_graphlets():
    derived = set()
    pairs2 = [(0, 1), (1, 0)]
    for mask in range(1 << 2):
        arcs = _arcs_of_mask(mask, pairs2)
        if _is_admissible(arcs, 2):
            derived.add((2, _canonical(arcs, 2)))
    pairs3 = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
    for mask in range(1 << 6):
        arcs = _arcs_of_mask(mask, pairs3)
        if _is_admissible(arcs, 3):
            derived.add((3, _canonical(arcs, 3)))
    catalog = {(g.n_nodes, _canonical(frozenset(g.arcs), g.n_nodes)) for g in CATALOG}
    assert catalog == derived
    assert len(CATALOG) == 6


def test_catalog_orbit_numbering_is_consistent():
    seen_orbits = []
    for g in CATALOG:
        orbit_of = _automorphism_orbits(frozenset(g.arcs), g.n_nodes)
        for i in range(g.n_nodes):
            for j in range(g.n_nodes):
                same_class = j in orbit_of[i]
                assert (g.node_orbits[i] == g.node_orbits[j]) == same_class
        seen_orbits.extend(g.node_orbits)
    assert sorted(set(seen_orbits)) == list(range(N_ORBITS))
    # orbit ids never shared across graphlets
    per_graphlet = [set(g.node_orbits) for g in CATALOG]
    for a, b in combinations(per_graphlet, 2):
        assert not (a & b)


# --- orbit counting ---------------------------------------------------------


def test_single_edge_orbits():
    counts = count_orbits(make_network(2, [(0, 1)]))
    expected = np.zeros((2, N_ORBITS), dtype=np.int64)
    expected[0, 0] = 1
    expected[1, 1] = 1
    assert np.array_equal(counts, expected)


def test_directed_path_orbits():
    counts = count_orbits(make_network(3, [(0, 1), (1, 2)]))
    expected = np.zeros((3, N_ORBITS), dtype=np.int64)
    expected[0, 0] = 1
    expected[1, 0] = expected[1, 1] = 1
    expected[2, 1] = 1
    expected[0, 4] = expected[1, 5] = expected[2, 6] = 1
    assert np.array_equal(counts, expected)


def test_three_cycle_rows_identical():
    counts = count_orbits(make_network(3, [(0, 1), (1, 2), (2, 0)]))
    assert np.array_equal(counts[0], counts[1])
    assert np.array_equal(counts[1], counts[2])
    assert counts[0, 12] == 1


def test_divergent_and_convergent_pairs():
    div = count_orbits(make_network(3, [(0, 1), (0, 2)]))
    assert div[0, 2] == 1 and div[1, 3] == 1 and div[2, 3] == 1
    con = count_orbits(make_network(3, [(0, 2), (1, 2)]))
    assert con[0, 7] == 1 and con[1, 7] == 1 and con[2, 8] == 1


def test_transitive_triangle_orbits():
    counts = count_orbits(make_network(3, [(0, 1), (0, 2), (1, 2)]))
    assert counts[0, 9] == 1 and counts[1, 10] == 1 and counts[2, 11] == 1


def test_reciprocated_pair_counts_both_arcs_but_no_triples():
    counts = count_orbits(make_network(3, [(0, 1), (1, 0), (0, 2)]))
    # per-arc convention keeps the degree identities intact
    assert counts[:, 0].sum() == 3
    assert counts[:, 1].sum() == 3
    # the triple {0,1,2} contains a reciprocated pair: no 3-node orbit fires
    assert counts[:, 2:].sum() == 0


@given(graphs(max_nodes=8))
def test_orbit_counts_match_bruteforce(g):
    n, arcs = g
    assert np.array_equal(
        count_orbits(make_network(n, arcs)), util.oracle_orbit_counts(n, arcs)
    )


@given(graphs(max_nodes=8))
def test_arc_orbit_columns_sum_to_edge_count(g):
    n, arcs = g
    counts = count_orbits(make_network(n, arcs))
    assert counts[:, 0].sum() == len(arcs)
    assert counts[:, 1].sum() == len(arcs)
    assert np.all(counts >= 0)
    assert counts.shape == (n, N_ORBITS)


@given(graphs(min_nodes=1, max_nodes=7), st.integers(0, 10_000))
def test_orbit_rows_permute_under_relabeling(g, seed):
    n, arcs = g
    net = make_network(n, arcs)
    perm = np.random.default_rng(seed).permutation(n)
    mapping = {f"n{i:03d}": f"n{perm[i]:03d}" for i in range(n)}
    base = count_orbits(net)
    relabeled = count_orbits(util.relabeled(net, mapping))
    assert sorted(map(tuple, base.tolist())) == sorted(map(tuple, relabeled.tolist()))


# --- orbit counting beyond the hypothesis sizes -----------------------------


def _hubs_with_replies(rng, hubs: int, leaves: int):
    """Hubs sharing leaves, the hubs joined to each other and some leaves
    of one hub joined to each other, so wedges close into triangles."""
    n, edges = util.hubs_sharing_leaves(rng, hubs, leaves)
    edges += list(combinations(range(hubs), 2))
    for h in range(hubs):
        fans = sorted({leaf for u, leaf in edges if u == h and leaf >= hubs})
        edges += [(x, y) for x, y in combinations(fans, 2) if rng.random() < 0.05]
    return n, set(edges)


@pytest.mark.parametrize(
    "reciprocal_p, hubs, leaves", [(0.0, 2, 18), (0.2, 3, 47), (0.5, 4, 60)]
)
def test_orbit_counts_of_hubs_sharing_leaves_match_oracle(reciprocal_p, hubs, leaves):
    rng = np.random.default_rng(hubs)
    n, arcs = util.orient(rng, *_hubs_with_replies(rng, hubs, leaves), reciprocal_p)
    counts = count_orbits(make_network(n, arcs))
    assert np.array_equal(counts, util.oracle_orbit_counts(n, arcs))
    assert counts[:, 9:].sum() > 0


@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
def test_orbit_counts_of_dense_random_graphs_match_oracle(p):
    rng = np.random.default_rng(int(p * 10))
    for n in (20, 26):
        n, arcs = random_graph(rng, n, p)
        counts = count_orbits(make_network(n, arcs))
        assert np.array_equal(counts, util.oracle_orbit_counts(n, arcs))
        assert counts[:, 9:].sum() > 0


@pytest.mark.parametrize("reciprocal_p", [0.0, 0.1, 0.4])
def test_orbit_counts_of_complete_graphs_match_oracle(reciprocal_p):
    rng = np.random.default_rng(17)
    n, arcs = util.orient(rng, 20, combinations(range(20), 2), reciprocal_p)
    counts = count_orbits(make_network(n, arcs))
    assert np.array_equal(counts, util.oracle_orbit_counts(n, arcs))
    # every triple is a triangle: no wedge is induced
    assert counts[:, 2:9].sum() == 0


STAR_LEAVES = 20_000


@pytest.mark.parametrize("direction", ["out", "in", "both"])
def test_star_with_twenty_thousand_leaves(direction):
    spokes = [(0, x) for x in range(1, STAR_LEAVES + 1)]
    reversed_spokes = [(x, 0) for _, x in spokes]
    arcs = {"out": spokes, "in": reversed_spokes, "both": spokes + reversed_spokes}[direction]
    net = make_network(STAR_LEAVES + 1, arcs)
    counts = count_orbits(net)
    hub = net.sorted_nodes.index(util.node_name(0))
    is_leaf = np.arange(net.n_nodes) != hub
    expected = np.zeros((net.n_nodes, N_ORBITS), dtype=np.int64)
    if direction == "out":
        expected[hub, [0, 2]] = STAR_LEAVES, STAR_LEAVES * (STAR_LEAVES - 1) // 2
        expected[is_leaf, 1] = 1
        expected[is_leaf, 3] = STAR_LEAVES - 1
    elif direction == "in":
        expected[hub, [1, 8]] = STAR_LEAVES, STAR_LEAVES * (STAR_LEAVES - 1) // 2
        expected[is_leaf, 0] = 1
        expected[is_leaf, 7] = STAR_LEAVES - 1
    else:
        expected[hub, [0, 1]] = STAR_LEAVES
        expected[is_leaf, 0] = expected[is_leaf, 1] = 1
    assert np.array_equal(counts, expected)


# --- correlations -----------------------------------------------------------


def test_identical_columns_correlate_one():
    counts = np.zeros((4, N_ORBITS), dtype=np.int64)
    counts[:, 0] = [3, 1, 4, 1]
    counts[:, 1] = [3, 1, 4, 1]
    corr = correlation_matrix(counts)
    assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_reversed_ranking_correlates_minus_one():
    # after the pseudo-row append the columns read [0,2,1] and [2,0,1],
    # exact rank reversals of each other
    counts = np.zeros((2, N_ORBITS), dtype=np.int64)
    counts[:, 0] = [0, 2]
    counts[:, 1] = [2, 0]
    corr = correlation_matrix(counts)
    assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_pseudo_row_shifts_naive_reversals():
    # [1,2,3] vs [3,2,1] stop being reversals once the row of ones lands:
    # ranks become [1.5,3,4,1.5] vs [4,3,1.5,1.5], Pearson -7/18
    counts = np.zeros((3, N_ORBITS), dtype=np.int64)
    counts[:, 0] = [1, 2, 3]
    counts[:, 1] = [3, 2, 1]
    corr = correlation_matrix(counts)
    assert corr[0, 1] == pytest.approx(-7 / 18, abs=1e-12)


def test_correlation_matches_scipy_on_nondegenerate_columns():
    rng = np.random.default_rng(5)
    counts = rng.integers(0, 30, size=(12, N_ORBITS))
    corr = correlation_matrix(counts)
    padded = np.vstack([counts, np.ones((1, N_ORBITS), dtype=np.int64)])
    for i in range(N_ORBITS):
        for j in range(i + 1, N_ORBITS):
            expected = scipy.stats.spearmanr(padded[:, i], padded[:, j]).statistic
            assert corr[i, j] == pytest.approx(expected, abs=1e-12)


@given(graphs(min_nodes=2, max_nodes=8))
def test_correlation_matches_rank_then_pearson_oracle(g):
    n, arcs = g
    counts = count_orbits(make_network(n, arcs))
    corr = correlation_matrix(counts)
    padded = np.vstack([counts, np.ones((1, N_ORBITS), dtype=np.int64)])
    for i in range(N_ORBITS):
        for j in range(i, N_ORBITS):
            expected = util.oracle_spearman(padded[:, i], padded[:, j])
            assert corr[i, j] == pytest.approx(expected, abs=1e-12)


def test_constant_columns_follow_degenerate_rule():
    # a column constant at 1 stays constant after the pseudo-row of ones
    counts = np.ones((3, N_ORBITS), dtype=np.int64)
    counts[:, 2] = [0, 2, 5]
    corr = correlation_matrix(counts)
    assert corr[0, 1] == 1.0  # two degenerate columns share identical ranks
    assert corr[0, 2] == 0.0  # degenerate against varying: zero by convention


def test_correlation_invariants():
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 9, size=(6, N_ORBITS))
    corr = correlation_matrix(counts)
    assert np.allclose(corr, corr.T)
    assert np.all(np.diag(corr) == 1.0)
    assert np.all(corr >= -1.0) and np.all(corr <= 1.0)


def test_correlation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        correlation_matrix(np.zeros((3, 7)))
    with pytest.raises(ValueError):
        correlation_matrix(np.zeros((0, N_ORBITS)))


# --- distance ---------------------------------------------------------------


def test_self_distance_zero():
    net = make_network(4, [(0, 1), (1, 2), (2, 3)])
    assert dgcd13(net, net) == 0.0


def test_distance_symmetric():
    a = make_network(3, [(0, 1), (1, 2), (2, 0)])
    b = make_network(4, [(0, 1), (0, 2), (0, 3)])
    assert dgcd13(a, b) == pytest.approx(dgcd13(b, a), abs=1e-12)


def test_cycle_vs_star_distance_positive():
    cycle = make_network(3, [(0, 1), (1, 2), (2, 0)])
    star = make_network(3, [(0, 1), (0, 2)])
    assert dgcd13(cycle, star) > 0.0


def test_distance_upper_bound():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n1, arcs1 = util.random_graph(rng, 6, 0.4)
        n2, arcs2 = util.random_graph(rng, 6, 0.4)
        d = dgcd13(make_network(n1, arcs1), make_network(n2, arcs2))
        assert 0.0 <= d <= np.sqrt(78) * 2


@given(graphs(min_nodes=2, max_nodes=7), st.integers(0, 10_000))
def test_distance_invariant_under_relabeling(g, seed):
    n, arcs = g
    net = make_network(n, arcs)
    perm = np.random.default_rng(seed).permutation(n)
    mapping = {f"n{i:03d}": f"m{perm[i]:03d}" for i in range(n)}
    assert dgcd13(net, util.relabeled(net, mapping)) == pytest.approx(0.0, abs=1e-12)


def test_network_correlations_composes():
    net = make_network(3, [(0, 1), (1, 2)])
    assert np.array_equal(network_correlations(net), correlation_matrix(count_orbits(net)))


# --- row kernel -------------------------------------------------------------


def test_row_kernel_matches_pair_loop_with_exact_duplicates():
    rng = np.random.default_rng(909)
    networks = [make_network(1, []), make_network(2, [(0, 1)])] + [
        make_network(*random_graph(rng, int(rng.integers(2, 10)), 0.3)) for _ in range(10)
    ]
    corrs = [network_correlations(net) for net in networks]
    corrs.append(corrs[4].copy())  # a duplicate of entry 4
    m = len(corrs)
    want = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            upper = np.triu(corrs[i] - corrs[j], k=1)
            want[i, j] = want[j, i] = np.sqrt(np.sum(upper**2))
    stack = np.stack(corrs)
    for i in range(m - 1):
        got = dgcd_from_correlations(stack[i], stack[i + 1 :])
        assert got.shape == (m - 1 - i,)
        assert np.max(np.abs(got - want[i, i + 1 :])) <= 1e-12
    matrix = distance_matrix(corrs, "dgcd13")
    assert np.max(np.abs(matrix - want)) <= 1e-12
    assert np.array_equal(matrix, matrix.T)
    assert matrix[4, m - 1] == 0.0
    others = [k for k in range(m) if k not in (4, m - 1)]
    assert np.array_equal(matrix[4, others], matrix[m - 1, others])
