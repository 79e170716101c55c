"""Shared test helpers: graph builders and independent naive oracles.

The oracles deliberately use different algorithms from the package
(matrix-power reachability, Floyd-Warshall distances, exhaustive triple
enumeration, peel-one-node-at-a-time cores) so agreement is meaningful.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations, permutations

import numpy as np
from hypothesis import strategies as st

from diffnet import DiffusionNetwork
from diffnet.errors import MalformedEventError
from diffnet.graphlets import CATALOG, N_ORBITS
from diffnet.graphs import (
    Bias,
    EdgeDirection,
    Interaction,
    InteractionEvent,
    Label,
    build_network,
)
from diffnet.synth import _BUCKET_TARGETS, ClassProfile, power_law_audience_sizes, recipe_for


def node_name(i: int) -> str:
    return f"n{i:03d}"


def make_network(n: int, arcs, network_id: str = "g", **kwargs) -> DiffusionNetwork:
    """Network over nodes n000..n{n-1}; zero-padded names keep the sorted
    node order aligned with the integer indices used by the oracles."""
    return DiffusionNetwork(
        network_id=network_id,
        nodes=frozenset(node_name(i) for i in range(n)),
        edges=frozenset((node_name(u), node_name(v)) for u, v in arcs),
        **kwargs,
    )


def relabeled(network: DiffusionNetwork, mapping) -> DiffusionNetwork:
    """An isomorphic copy of ``network`` with its nodes renamed through ``mapping``."""
    return replace(
        network,
        nodes=frozenset(mapping[u] for u in network.nodes),
        edges=frozenset((mapping[u], mapping[v]) for u, v in network.edges),
    )


def random_graph(rng: np.random.Generator, n: int, p: float) -> tuple[int, list[tuple[int, int]]]:
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return n, arcs


@st.composite
def graphs(draw, min_nodes: int = 1, max_nodes: int = 8):
    """Hypothesis strategy for (n, arcs) over small directed simple graphs."""
    n = draw(st.integers(min_nodes, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if pairs:
        arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        arcs = []
    return n, arcs


def orient(rng: np.random.Generator, n: int, edges, reciprocal_p: float = 0.0):
    """(n, arcs) from undirected ``edges``: each edge gets a random direction,
    or both with probability ``reciprocal_p``, and the nodes a random order."""
    perm = rng.permutation(n)
    arcs = []
    for u, v in edges:
        u, v = int(perm[u]), int(perm[v])
        if rng.random() < reciprocal_p:
            arcs += [(u, v), (v, u)]
        else:
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return n, arcs


def hubs_sharing_leaves(rng: np.random.Generator, hubs: int, leaves: int):
    """Undirected edges of ``hubs`` hubs, each leaf joined to one to three of
    them, so many leaves share a neighbour set."""
    edges = []
    for leaf in range(hubs, hubs + leaves):
        for h in rng.choice(hubs, size=int(rng.integers(1, min(3, hubs) + 1)), replace=False):
            edges.append((int(h), leaf))
    return hubs + leaves, edges


def adjacency(n: int, arcs) -> np.ndarray:
    a = np.zeros((n, n), dtype=bool)
    for u, v in arcs:
        a[u, v] = True
    return a


# --- index views (per-node sets) --------------------------------------------


def oracle_index_views(network: DiffusionNetwork):
    """``(arcs, out_lists, und_lists)`` of ``network`` built from per-node
    index sets: arcs as a sorted list of (source, target) index pairs, and
    the lists as tuples of sorted index tuples, nodes indexed in sorted
    name order."""
    index = {u: i for i, u in enumerate(sorted(network.nodes))}
    out = [set() for _ in index]
    inc = [set() for _ in index]
    for u, v in network.edges:
        out[index[u]].add(index[v])
        inc[index[v]].add(index[u])
    out_lists = tuple(tuple(sorted(s)) for s in out)
    und_lists = tuple(tuple(sorted(a | b)) for a, b in zip(out, inc))
    arcs = [(u, v) for u, succ in enumerate(out_lists) for v in succ]
    return arcs, out_lists, und_lists


# --- component oracles (matrix-power reachability) --------------------------


def reachability(a: np.ndarray) -> np.ndarray:
    r = np.eye(len(a), dtype=bool) | a
    while True:
        nxt = r | (r @ r)
        if np.array_equal(nxt, r):
            return r
        r = nxt


def oracle_scc_sizes(n: int, arcs) -> list[int]:
    r = reachability(adjacency(n, arcs))
    mutual = r & r.T
    seen, sizes = set(), []
    for u in range(n):
        if u in seen:
            continue
        comp = {v for v in range(n) if mutual[u, v]}
        seen |= comp
        sizes.append(len(comp))
    return sorted(sizes)


def oracle_wcc_members(n: int, arcs) -> list[frozenset[int]]:
    a = adjacency(n, arcs)
    r = reachability(a | a.T)
    seen, comps = set(), []
    for u in range(n):
        if u in seen:
            continue
        comp = frozenset(v for v in range(n) if r[u, v])
        seen |= comp
        comps.append(comp)
    return comps


def oracle_undirected_distances(n: int, arcs) -> np.ndarray:
    """All-pairs shortest paths on the undirected view, by Floyd-Warshall."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in arcs:
        d[u, v] = d[v, u] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def oracle_dwcc(n: int, arcs, rank=None) -> int:
    """Diameter of the largest WCC; among equal sizes, the one holding the
    first node in name order. ``rank[i]`` is node i's place in that order
    (default: i), so a relabeling can pass the order of its new names."""
    rank = range(n) if rank is None else rank
    comps = oracle_wcc_members(n, arcs)
    top = max(len(c) for c in comps)
    members = sorted(min((c for c in comps if len(c) == top), key=lambda c: min(rank[u] for u in c)))
    d = oracle_undirected_distances(n, arcs)
    return int(max(d[u][v] for u in members for v in members))


# --- clustering oracles (triple enumeration) --------------------------------


def oracle_local_clustering(n: int, arcs) -> np.ndarray:
    """Per-node undirected clustering by exhaustive pair enumeration."""
    a = adjacency(n, arcs)
    und = a | a.T
    per_node = np.zeros(n)
    for u in range(n):
        nbrs = [v for v in range(n) if und[u, v]]
        if len(nbrs) < 2:
            continue
        closed = sum(1 for x, y in combinations(nbrs, 2) if und[x, y])
        per_node[u] = closed / (len(nbrs) * (len(nbrs) - 1) / 2)
    return per_node


def oracle_avg_clustering(n: int, arcs) -> float:
    # np.mean, so float summation order matches the implementation under test
    return float(np.mean(oracle_local_clustering(n, arcs)))


def oracle_directed_local_clustering(n: int, arcs) -> np.ndarray:
    """Per-node directed clustering via the symmetrized-adjacency cube."""
    a = adjacency(n, arcs).astype(np.float64)
    s = a + a.T
    cube = s @ s @ s
    d_tot = (a.sum(axis=0) + a.sum(axis=1)).astype(int)
    d_bi = (a.astype(bool) & a.T.astype(bool)).sum(axis=1).astype(int)
    per_node = np.zeros(n)
    for u in range(n):
        denom = d_tot[u] * (d_tot[u] - 1) - 2 * d_bi[u]
        if denom > 0:
            per_node[u] = cube[u, u] / (2 * denom)
    return per_node


def oracle_directed_clustering(n: int, arcs) -> float:
    """Directed clustering averaged over the nodes."""
    return float(oracle_directed_local_clustering(n, arcs).mean())


# --- core number oracle (one-node-at-a-time peeling) ------------------------


def oracle_core_numbers(n: int, arcs) -> list[int]:
    """Per-node core numbers: remove a node of least remaining degree, one at
    a time; its core is its degree at removal, capped below by the largest
    such degree before it."""
    und = {u: set() for u in range(n)}
    for u, v in arcs:
        und[u].add(v)
        und[v].add(u)
    cores = [0] * n
    k = 0
    while und:
        u = min(und, key=lambda x: (len(und[x]), x))
        k = max(k, len(und[u]))
        cores[u] = k
        for v in und.pop(u):
            und[v].discard(u)
    return cores


def oracle_main_kcore(n: int, arcs) -> int:
    return max(oracle_core_numbers(n, arcs))


def oracle_feature_check(n: int, arcs, fv) -> None:
    """Assert a FeatureVector against all naive oracles."""
    scc_sizes = oracle_scc_sizes(n, arcs)
    wccs = oracle_wcc_members(n, arcs)
    assert fv.scc == len(scc_sizes)
    assert fv.lscc == max(scc_sizes)
    assert fv.wcc == len(wccs)
    assert fv.lwcc == max(len(c) for c in wccs)
    assert fv.dwcc == oracle_dwcc(n, arcs)
    assert fv.cc == oracle_avg_clustering(n, arcs)
    assert fv.kc == oracle_main_kcore(n, arcs)


# --- graphlet oracle (exhaustive induced-subgraph enumeration) --------------

_TRIPLE_CATALOG = tuple(g for g in CATALOG if g.n_nodes == 3)


def oracle_orbit_counts(n: int, arcs) -> np.ndarray:
    """Brute-force orbit tally over all node pairs and triples.

    Orbits 0/1 are tallied per arc; a triple is counted when its induced
    subgraph is reciprocal-free, weakly connected and touches all three
    nodes, using the first catalog match (orbits are automorphism
    invariant, so any matching bijection yields the same assignment).
    """
    counts = np.zeros((n, N_ORBITS), dtype=np.int64)
    arc_set = set(arcs)
    for u, v in arc_set:
        counts[u, 0] += 1
        counts[v, 1] += 1
    for trip in combinations(range(n), 3):
        sub = {(a, b) for (a, b) in arc_set if a in trip and b in trip}
        if any((b, a) in sub for (a, b) in sub):
            continue
        if {x for e in sub for x in e} != set(trip):
            continue
        assignment = None
        for g in _TRIPLE_CATALOG:
            if len(g.arcs) != len(sub):
                continue
            for perm in permutations(range(3)):
                mapping = {trip[i]: perm[i] for i in range(3)}
                if {(mapping[a], mapping[b]) for a, b in sub} == set(g.arcs):
                    assignment = {node: g.node_orbits[pos] for node, pos in mapping.items()}
                    break
            if assignment:
                break
        assert assignment is not None, f"connected reciprocal-free triple missing from catalog: {sub}"
        for node, orbit in assignment.items():
            counts[node, orbit] += 1
    return counts


# --- rank correlation oracle (rank transform then Pearson) ------------------


def oracle_average_ranks(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    ranks = np.empty(len(values))
    for i, v in enumerate(values):
        less = np.sum(values < v)
        equal = np.sum(values == v)
        ranks[i] = less + (equal + 1) / 2.0
    return ranks


def oracle_spearman(x, y) -> float:
    """Rank both columns then Pearson; degenerate columns follow the
    package convention (1 for identical ranks, else 0)."""
    rx = oracle_average_ranks(x)
    ry = oracle_average_ranks(y)
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    nx = np.sqrt((cx**2).sum())
    ny = np.sqrt((cy**2).sum())
    if nx == 0.0 or ny == 0.0:
        return 1.0 if np.array_equal(rx, ry) else 0.0
    return float(np.clip(cx @ cy / (nx * ny), -1.0, 1.0))


# --- portrait oracle (dict-based BFS histograms) ----------------------------


def oracle_portrait(n: int, arcs, undirected: bool = False) -> dict[tuple[int, int], int]:
    """Portrait as a sparse {(l, k): count} dict from per-source BFS."""
    adj = {u: set() for u in range(n)}
    for u, v in arcs:
        adj[u].add(v)
        if undirected:
            adj[v].add(u)
    per_source = []
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        hist: dict[int, int] = {}
        for d in dist.values():
            hist[d] = hist.get(d, 0) + 1
        per_source.append(hist)
    max_ecc = max(max(h) for h in per_source)
    b: dict[tuple[int, int], int] = {}
    for ell in range(max_ecc + 1):
        for h in per_source:
            k = h.get(ell, 0)
            b[(ell, k)] = b.get((ell, k), 0) + 1
    return b


def oracle_shells(n: int, arcs, undirected: bool = False) -> list[list[int]]:
    """Per source, the node count at each distance up to its eccentricity,
    from one BFS per source."""
    adj = {u: set() for u in range(n)}
    for u, v in arcs:
        adj[u].add(v)
        if undirected:
            adj[v].add(u)
    shells = []
    for s in range(n):
        seen = {s}
        layers = [[s]]
        while True:
            nxt = {v for u in layers[-1] for v in adj[u]} - seen
            if not nxt:
                break
            seen |= nxt
            layers.append(sorted(nxt))
        shells.append([len(layer) for layer in layers])
    return shells


def portrait_to_dict(b: np.ndarray) -> dict[tuple[int, int], int]:
    return {
        (int(ell), int(k)): int(b[ell, k])
        for ell, k in zip(*np.nonzero(b))
    }


def oracle_divergence(pa: dict, pb: dict) -> float:
    """Hand-rolled pair-distribution JSD from two sparse portraits."""

    def dist(b: dict) -> dict[tuple[int, int], float]:
        weighted = {lk: k * c for lk, c in b.items() if (k := lk[1]) > 0}
        total = sum(weighted.values())
        return {lk: w / total for lk, w in weighted.items()}

    p, q = dist(pa), dist(pb)
    support = set(p) | set(q)
    js = 0.0
    for lk in support:
        pv, qv = p.get(lk, 0.0), q.get(lk, 0.0)
        m = 0.5 * (pv + qv)
        if pv > 0:
            js += 0.5 * pv * np.log2(pv / m)
        if qv > 0:
            js += 0.5 * qv * np.log2(qv / m)
    return float(js)


# --- AUC oracle (exhaustive pair counting) ----------------------------------


def oracle_auc(scores, labels) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum(1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


# --- event parsing oracle (the schema checks written out in full) ---------

_ORACLE_EVENT_KEYS = ("tweet_id", "user", "target_user", "interaction", "url", "timestamp")


def oracle_parse_event(obj) -> InteractionEvent:
    """``graphs.parse_event`` checking every key up front and converting
    the interaction through the ``Interaction`` constructor."""
    if not isinstance(obj, dict):
        raise MalformedEventError(f"event must be a JSON object, not {type(obj).__name__}")
    missing = [k for k in _ORACLE_EVENT_KEYS if k != "target_user" and k not in obj]
    if missing:
        raise MalformedEventError(f"event object missing keys: {', '.join(missing)}")
    try:
        interaction = Interaction(obj["interaction"])
    except ValueError:
        raise MalformedEventError(f"unknown interaction type {obj['interaction']!r}") from None
    target = obj.get("target_user")
    for key, value in (("tweet_id", obj["tweet_id"]), ("user", obj["user"]), ("target_user", target)):
        allowed = isinstance(value, (str, int)) or (key == "target_user" and value is None)
        if isinstance(value, bool) or not allowed:
            expected = "a string, an integer or null" if key == "target_user" else "a string or an integer"
            raise MalformedEventError(f"{key} must be {expected}, not {type(value).__name__}")
    if not isinstance(obj["url"], str):
        raise MalformedEventError(f"url must be a string, not {type(obj['url']).__name__}")
    timestamp = obj["timestamp"]
    if isinstance(timestamp, bool) or not isinstance(timestamp, (int, float)):
        raise MalformedEventError(f"timestamp must be a number, not {type(timestamp).__name__}")
    if isinstance(timestamp, int) and abs(timestamp) >= 2**1024 - 2**970:  # rounds past 2**1024
        raise MalformedEventError("timestamp is too large for a float")
    for key in ("user", "target_user", "url"):
        name = obj.get(key)
        if isinstance(name, str) and any(0xD800 <= ord(c) <= 0xDFFF for c in name):
            raise MalformedEventError(f"{key} {name!r} cannot be encoded as UTF-8")
    return InteractionEvent(
        tweet_id=str(obj["tweet_id"]),
        user=str(obj["user"]),
        target_user=None if target is None else str(target),
        interaction=interaction,
        url=obj["url"],
        timestamp=float(timestamp),
    )


# --- generator oracle (an event stream run through build_network) ----------


def oracle_generate(recipe, profile, network_id: str | None = None) -> DiffusionNetwork:
    """The synthetic network of ``recipe`` built the long way: one
    InteractionEvent per tweet with user names, then ``build_network``.
    The random draws are the same calls in the same order as
    ``synth.generate`` makes."""
    rng = np.random.default_rng(recipe.seed)
    if network_id is None:
        network_id = f"synth-{profile.value}-{recipe.seed}"
    url = f"https://synthetic.invalid/{network_id}"

    sizes = power_law_audience_sizes(
        rng, recipe.n_cascades, recipe.audience_exponent, recipe.audience_min, recipe.audience_max
    )
    events: list[InteractionEvent] = []
    cascade_members: list[list[str]] = []  # per cascade, root first
    next_user = 0
    next_tweet = 0

    def fresh_user() -> str:
        nonlocal next_user
        next_user += 1
        return f"u{next_user - 1}"

    def emit(kind: Interaction, actor: str, target: str | None) -> None:
        nonlocal next_tweet
        events.append(
            InteractionEvent(
                tweet_id=f"t{next_tweet}",
                user=actor,
                target_user=target,
                interaction=kind,
                url=url,
                timestamp=float(next_tweet),
            )
        )
        next_tweet += 1

    for size in sizes:
        root = fresh_user()
        emit(Interaction.ORIGINAL, root, None)
        members = [root]
        parent_of: dict[str, str] = {}
        for _ in range(int(size)):
            actor = fresh_user()
            if len(members) > 1 and rng.random() < recipe.depth_bias:
                parent = members[int(rng.integers(1, len(members)))]
            else:
                parent = root
            emit(Interaction.RETWEET, actor, parent)
            parent_of[actor] = parent
            members.append(actor)
            if parent is not root and rng.random() < recipe.reply_prob:
                emit(Interaction.REPLY, actor, parent_of[parent])
            if rng.random() < recipe.reciprocity_prob:
                emit(Interaction.REPLY, parent, actor)
            if cascade_members and rng.random() < recipe.mention_prob:
                other = cascade_members[int(rng.integers(len(cascade_members)))]
                emit(Interaction.MENTION, actor, other[int(rng.integers(len(other)))])
            if cascade_members and rng.random() < recipe.quote_prob:
                other = cascade_members[int(rng.integers(len(cascade_members)))]
                emit(Interaction.QUOTE, actor, other[int(rng.integers(len(other)))])
        cascade_members.append(members)

    label = Label.MAINSTREAM if profile is ClassProfile.BROADCAST_LIKE else Label.DISINFORMATION
    return build_network(
        events,
        url,
        direction=EdgeDirection.INFO_FLOW,
        network_id=network_id,
        label=label,
        bias=Bias.NONE,
    )


def oracle_generate_ensemble(profile, bucket, count: int, seed: int = 0, min_nodes: int = 55):
    """``generate_ensemble`` building every attempt in full with
    ``oracle_generate`` and keeping those whose node count fits."""
    lo, hi = _BUCKET_TARGETS[bucket]
    master = np.random.default_rng(seed)
    networks = []
    for i in range(count):
        while True:
            target = int(master.integers(lo, hi + 1))
            recipe = recipe_for(profile, target, seed=int(master.integers(0, 2**63 - 1)))
            network = oracle_generate(
                recipe, profile, network_id=f"synth-{profile.value}-{bucket.value}-{i:04d}"
            )
            if bucket.contains(network.n_nodes) and network.n_nodes >= min_nodes:
                networks.append(network)
                break
    return networks
