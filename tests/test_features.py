"""Global feature computations against naive oracles and hand examples."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from diffnet import (
    ClusteringVariant,
    DiffusionNetwork,
    EmptyGraphError,
    FeatureVector,
    average_clustering,
    core_numbers,
    extract_features,
    lwcc_diameter,
    main_kcore,
    save_network,
    load_network,
    strongly_connected_component_sizes,
    weakly_connected_components,
)
from diffnet.features import component_features, local_clustering
from diffnet.graphlets import count_orbits
from diffnet.portraits import portrait, shell_counts

import util
from util import graphs, make_network


# --- hand examples ----------------------------------------------------------


def test_three_cycle_components():
    net = make_network(3, [(0, 1), (1, 2), (2, 0)])
    assert component_features(net) == (1, 3, 1, 3)


def test_star_components():
    net = make_network(4, [(0, 1), (0, 2), (0, 3)])
    assert component_features(net) == (4, 1, 1, 4)


def test_two_disjoint_edges_components():
    net = make_network(4, [(0, 1), (2, 3)])
    assert component_features(net) == (4, 1, 2, 2)


def test_path_diameter():
    assert lwcc_diameter(make_network(3, [(0, 1), (1, 2)])) == 2


def test_star_with_five_leaves_diameter():
    assert lwcc_diameter(make_network(6, [(0, i) for i in range(1, 6)])) == 2


def test_diameter_candidates_share_undirected_not_out_neighbours():
    # sinks 1, 3 and 4 share an empty out-set but not their undirected
    # neighbours; the diameter is the distance from 1 to 4
    arcs = [(0, 4), (0, 5), (0, 6), (2, 5), (2, 6), (5, 1), (5, 3), (6, 3), (6, 4), (6, 5)]
    assert lwcc_diameter(make_network(7, arcs)) == 3


def test_singleton_component_diameter_zero():
    assert lwcc_diameter(make_network(1, [])) == 0


def test_triangle_clustering_is_one():
    assert average_clustering(make_network(3, [(0, 1), (1, 2), (2, 0)])) == 1.0


def test_star_clustering_is_zero():
    assert average_clustering(make_network(5, [(0, i) for i in range(1, 5)])) == 0.0


def test_four_node_clustering_by_triple_counting():
    # undirected view: triangle 0-1-2 plus pendant 3 on node 0
    net = make_network(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert average_clustering(net) == pytest.approx((1 / 3 + 1 + 1 + 0) / 4)


def test_edgeless_kcore_zero():
    assert main_kcore(make_network(3, [])) == 0


def test_triangle_kcore_two():
    assert main_kcore(make_network(3, [(0, 1), (1, 2), (2, 0)])) == 2


def test_triangle_with_pendant_kcore_two():
    assert main_kcore(make_network(4, [(0, 1), (1, 2), (2, 0), (2, 3)])) == 2


def test_isolated_node_features():
    assert extract_features(make_network(1, [])) == FeatureVector(1, 1, 1, 1, 0, 0.0, 0)


def test_three_cycle_features():
    assert extract_features(make_network(3, [(0, 1), (1, 2), (2, 0)])) == FeatureVector(
        1, 3, 1, 3, 1, 1.0, 2
    )


@pytest.mark.parametrize(
    "fn",
    [
        strongly_connected_component_sizes,
        weakly_connected_components,
        lwcc_diameter,
        local_clustering,
        core_numbers,
        main_kcore,
        count_orbits,
        shell_counts,
        portrait,
        extract_features,
    ],
    ids=lambda fn: fn.__name__,
)
def test_empty_graph_raises(fn):
    with pytest.raises(EmptyGraphError, match="network 'g' has no nodes"):
        fn(make_network(0, []))


# --- oracle equivalence -----------------------------------------------------


@given(graphs(max_nodes=8))
def test_features_match_naive_oracles(g):
    n, arcs = g
    util.oracle_feature_check(n, arcs, extract_features(make_network(n, arcs)))


def test_extract_features_finds_weak_components_once(monkeypatch):
    import diffnet.features as features

    net = make_network(7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 4)])
    calls = []
    original = features.weakly_connected_components

    def counted(network):
        calls.append(network.network_id)
        return original(network)

    monkeypatch.setattr(features, "weakly_connected_components", counted)
    assert extract_features(net) == FeatureVector(5, 3, 3, 3, 1, 3 / 7, 2)
    assert calls == ["g"]


def _diameter_graph(shape: str, rng: np.random.Generator):
    """(n, arcs) of 30-300 nodes with the named undirected shape, randomly
    oriented (some edges both ways) and randomly numbered."""
    n = int(rng.integers(30, 301))
    if shape == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "cycle":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif shape == "star":
        edges = [(0, i) for i in range(1, n)]
    elif shape == "hubs-sharing-leaves":
        hubs = int(rng.integers(2, 6))
        n, edges = util.hubs_sharing_leaves(rng, hubs, n - hubs)
    elif shape == "equal-components":
        # a path, a star and a random tree of one size: tied largest WCCs
        # with different diameters
        size = n // 3
        edges = [(i, i + 1) for i in range(size - 1)]
        edges += [(size, size + i) for i in range(1, size)]
        edges += [(2 * size + int(rng.integers(0, i)), 2 * size + i) for i in range(1, size)]
    else:  # sparse random core with pendant stars hung off it
        core = n // 3
        edges = [(int(rng.integers(0, v)), v) for v in range(1, core)]
        edges += [(int(rng.integers(0, core)), int(rng.integers(0, core))) for _ in range(core // 4)]
        edges = [(u, v) for u, v in set(edges) if u != v]
        centre = core
        while centre < n:
            edges.append((int(rng.integers(0, core)), centre))
            leaves = range(centre + 1, min(n, centre + 1 + int(rng.integers(0, 12))))
            edges += [(centre, leaf) for leaf in leaves]
            centre += 1 + len(leaves)
    return util.orient(rng, n, set(edges), reciprocal_p=0.2)


DIAMETER_SHAPES = (
    "path", "cycle", "star", "hubs-sharing-leaves", "equal-components", "sparse-with-pendant-stars",
)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", DIAMETER_SHAPES)
def test_diameter_matches_oracle_on_larger_graphs(shape, seed):
    n, arcs = _diameter_graph(shape, np.random.default_rng([seed, DIAMETER_SHAPES.index(shape)]))
    assert lwcc_diameter(make_network(n, arcs)) == util.oracle_dwcc(n, arcs)


@given(graphs(max_nodes=7))
def test_directed_clustering_matches_matrix_oracle(g):
    n, arcs = g
    value = average_clustering(make_network(n, arcs), ClusteringVariant.DIRECTED)
    assert value == pytest.approx(util.oracle_directed_clustering(n, arcs), abs=1e-12)


@given(graphs(min_nodes=3, max_nodes=8), st.sampled_from(ClusteringVariant))
def test_local_clustering_matches_oracles_per_node(g, variant):
    n, arcs = g
    # nodes 0, 1, 2 close a triangle whose pair 0-1 is reciprocated
    arcs = sorted({*arcs, (0, 1), (1, 0), (1, 2), (2, 0)})
    oracle = {
        ClusteringVariant.UNDIRECTED: util.oracle_local_clustering,
        ClusteringVariant.DIRECTED: util.oracle_directed_local_clustering,
    }[variant]
    assert np.array_equal(local_clustering(make_network(n, arcs), variant), oracle(n, arcs))


def _chorded_star(leaves: int, spokes: str):
    """(n, arcs, per-node directed clustering) of a star on hub 0 whose
    spokes point ``out``, ``in`` or ``both`` ways, with one chord
    2k-1 -> 2k per pair in the first half of the leaves.

    Spoke weight s (1, or 2 both ways): the hub closes one triangle of
    weight s*s per chord over a denominator of d(d-1) - 2*d_bi with
    d = s*leaves; a chorded leaf closes the same triangle over (s+1)s -
    2*(s == 2), and a chordless leaf has a zero denominator."""
    chords = leaves // 4
    out = [(0, i) for i in range(1, leaves + 1)]
    arcs = {"out": out, "in": [(v, u) for u, v in out], "both": out + [(v, u) for u, v in out]}[spokes]
    arcs = arcs + [(2 * k - 1, 2 * k) for k in range(1, chords + 1)]
    s = 2 if spokes == "both" else 1
    d = s * leaves
    values = np.zeros(leaves + 1)
    values[0] = chords * s * s / (d * (d - 1) - 2 * leaves * (s == 2))
    values[1 : 2 * chords + 1] = s * s / ((s + 1) * s - 2 * (s == 2))
    return leaves + 1, arcs, values


@pytest.mark.parametrize("spokes", ["out", "in", "both"])
def test_directed_clustering_of_chorded_star_matches_matrix_oracle(spokes):
    n, arcs, values = _chorded_star(40, spokes)
    assert values[0] > 0
    assert values.mean() == pytest.approx(util.oracle_directed_clustering(n, arcs), abs=1e-12)


@pytest.mark.parametrize("spokes", ["out", "in", "both"])
def test_directed_clustering_of_three_thousand_leaf_star(spokes):
    # the hub has 3,000 neighbours, about 4.5 million pairs of them
    n, arcs, values = _chorded_star(3000, spokes)
    net = make_network(n, arcs)
    order = np.argsort([util.node_name(i) for i in range(n)])  # n1000 sorts before n999
    assert np.array_equal(local_clustering(net, ClusteringVariant.DIRECTED), values[order])


def test_directed_clustering_zero_without_reciprocal_denominator():
    # one reciprocated pair only: d_tot = 2, d_bi = 1, denominator 0
    net = make_network(2, [(0, 1), (1, 0)])
    assert average_clustering(net, ClusteringVariant.DIRECTED) == 0.0


@given(graphs(max_nodes=8))
def test_core_numbers_bound_degrees(g):
    n, arcs = g
    net = make_network(n, arcs)
    cores = core_numbers(net)
    und = net.und_lists
    for u in range(n):
        assert 0 <= cores[u] <= len(und[u])
    assert max(cores) == util.oracle_main_kcore(n, arcs)
    assert cores == util.oracle_core_numbers(n, arcs)


def _star_of_stars(stars: int, leaves: int):
    """Undirected edges of a centre 0 joined to ``stars`` hubs, each with
    ``leaves`` leaves of its own."""
    edges = [(0, hub) for hub in range(1, stars + 1)]
    for hub in range(1, stars + 1):
        first = stars + 1 + (hub - 1) * leaves
        edges += [(hub, leaf) for leaf in range(first, first + leaves)]
    return 1 + stars * (1 + leaves), edges


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", ["hubs-sharing-leaves", "star-of-stars"])
def test_core_numbers_match_oracle_per_node_on_hub_shapes(shape, seed):
    rng = np.random.default_rng([seed, 13])
    if shape == "hubs-sharing-leaves":
        n, edges = util.hubs_sharing_leaves(rng, int(rng.integers(2, 6)), 120)
    else:
        n, edges = _star_of_stars(int(rng.integers(2, 8)), int(rng.integers(1, 20)))
    n, arcs = util.orient(rng, n, edges, reciprocal_p=0.2)
    assert core_numbers(make_network(n, arcs)) == util.oracle_core_numbers(n, arcs)


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_components_and_cores_of_a_hundred_thousand_node_chain(closed):
    # names sort along the chain, so both traversals start at its head and
    # go 100,000 nodes deep: a recursive or quadratic one would not finish
    n = 100_000
    names = [f"v{i:06d}" for i in range(n)]
    heads = names if closed else names[:-1]
    net = DiffusionNetwork(
        network_id="chain",
        nodes=frozenset(names),
        edges=frozenset(zip(heads, names[1:] + names[:1])),
    )
    assert strongly_connected_component_sizes(net) == ([n] if closed else [1] * n)
    assert core_numbers(net) == [2 if closed else 1] * n


# --- invariants -------------------------------------------------------------


@given(graphs(max_nodes=8))
def test_feature_invariants(g):
    n, arcs = g
    net = make_network(n, arcs)
    fv = extract_features(net)
    assert 1 <= fv.lscc <= n
    assert 1 <= fv.lwcc <= n
    assert fv.scc <= n and fv.wcc <= n
    assert fv.wcc <= fv.scc
    assert (fv.dwcc == 0) == (fv.lwcc == 1)
    assert 0.0 <= fv.cc <= 1.0
    assert (fv.kc == 0) == (net.n_edges == 0)


@given(graphs(max_nodes=8))
def test_dag_has_singleton_sccs(g):
    n, arcs = g
    dag_arcs = [(u, v) for u, v in arcs if u < v]  # index order forbids cycles
    fv = extract_features(make_network(n, dag_arcs))
    assert fv.scc == n
    assert fv.lscc == 1


@given(graphs(min_nodes=1, max_nodes=7), st.integers(0, 1_000_000))
@example(g=(6, [(5, 2), (3, 0), (1, 5), (4, 3), (2, 1)]), seed=1)  # two largest WCCs
def test_features_invariant_under_relabeling(g, seed):
    n, arcs = g
    net = make_network(n, arcs)
    perm = np.random.default_rng(seed).permutation(n)
    mapping = {f"n{i:03d}": f"m{perm[i]:03d}" for i in range(n)}
    fv, fv_re = extract_features(net), extract_features(util.relabeled(net, mapping))
    # relabeling permutes the per-node array behind cc, so the float mean may
    # move by an ulp; every other feature but dwcc must be identical
    assert fv_re.cc == pytest.approx(fv.cc, abs=1e-12)
    assert replace(fv_re, cc=0.0, dwcc=0) == replace(fv, cc=0.0, dwcc=0)
    # dwcc too, unless the largest WCC is tied: then it is the diameter of the
    # tied component holding the first node in name order, which the new
    # names (ranked by perm) may move to another component
    assert fv.dwcc == util.oracle_dwcc(n, arcs)
    assert fv_re.dwcc == util.oracle_dwcc(n, arcs, rank=perm)


@given(graphs(max_nodes=7))
def test_adding_isolated_node_shifts_only_wcc_and_scc(g):
    n, arcs = g
    before = extract_features(make_network(n, arcs))
    after = extract_features(make_network(n + 1, arcs))
    assert after.wcc == before.wcc + 1
    assert after.scc == before.scc + 1
    assert after.kc == before.kc
    assert after.lwcc == max(before.lwcc, 1)


@given(g=graphs(max_nodes=7))
def test_features_survive_serialization(g, tmp_path_factory):
    n, arcs = g
    net = make_network(n, arcs)
    tmp = tmp_path_factory.mktemp("roundtrip")
    save_network(net, tmp / "g.edges")
    assert extract_features(load_network(tmp / "g.edges")) == extract_features(net)
