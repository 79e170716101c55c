"""Reference implementations that share no code with diffnet.

They read the network files the pipeline wrote with their own parser and
recompute what the outputs must hold. They are written for clarity, not
speed: the check runs the slow ones (diameter, orbits, portraits) on a
sample of networks only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import numpy as np


@dataclass
class Graph:
    """A network as sorted node names and arcs between their indices."""

    names: list[str]
    arcs: set[tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.names)

    def successors(self) -> list[set[int]]:
        out = [set() for _ in range(self.n)]
        for a, b in self.arcs:
            out[a].add(b)
        return out

    def neighbours(self) -> list[set[int]]:
        und = [set() for _ in range(self.n)]
        for a, b in self.arcs:
            und[a].add(b)
            und[b].add(a)
        return und


def read_graph(edges_path: Path) -> Graph:
    """Parse ``<id>.edges`` (tab-separated, ``#`` comments) and ``<id>.nodes``."""
    pairs = []
    names = set()
    for line in edges_path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        u, v = line.split("\t")
        pairs.append((u, v))
        names.update((u, v))
    nodes_path = edges_path.with_suffix(".nodes")
    if nodes_path.exists():
        names.update(x for x in nodes_path.read_text(encoding="utf-8").splitlines() if x)
    order = sorted(names)
    index = {u: i for i, u in enumerate(order)}
    return Graph(order, {(index[u], index[v]) for u, v in pairs})


# --- the seven features -----------------------------------------------------


def weak_components(g: Graph) -> list[list[int]]:
    """Union-find; components listed by their smallest node index."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in g.arcs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for u in range(g.n):
        groups.setdefault(find(u), []).append(u)
    return [groups[r] for r in sorted(groups)]


def strong_component_sizes(g: Graph) -> list[int]:
    """Kosaraju: finish order on the graph, then sweeps on the reverse."""
    out = g.successors()
    inc = [set() for _ in range(g.n)]
    for a, b in g.arcs:
        inc[b].add(a)
    seen = [False] * g.n
    order = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(out[root]))]
        while stack:
            u, it = stack[-1]
            for v in it:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(out[v])))
                    break
            else:
                stack.pop()
                order.append(u)
    assigned = [False] * g.n
    sizes = []
    for root in reversed(order):
        if assigned[root]:
            continue
        assigned[root] = True
        size, todo = 0, [root]
        while todo:
            u = todo.pop()
            size += 1
            for v in inc[u]:
                if not assigned[v]:
                    assigned[v] = True
                    todo.append(v)
        sizes.append(size)
    return sizes


def bfs_distances(adj: list[set[int]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def largest_weak_component(g: Graph) -> list[int]:
    """The largest WCC; among equal sizes, the one with the smallest node."""
    comps = weak_components(g)
    return max(comps, key=len)


def diameter(g: Graph) -> int:
    und = g.neighbours()
    comp = largest_weak_component(g)
    return max(max(bfs_distances(und, s).values()) for s in comp)


def mean_clustering(g: Graph) -> float:
    und = g.neighbours()
    coeffs = np.zeros(g.n)
    for u in range(g.n):
        nbrs = sorted(und[u])
        d = len(nbrs)
        if d < 2:
            continue
        links = sum(1 for i, v in enumerate(nbrs) for w in nbrs[i + 1:] if w in und[v])
        coeffs[u] = links / (d * (d - 1) / 2)
    return float(coeffs.mean())


def main_core(g: Graph) -> int:
    """Largest k whose k-core (repeatedly drop nodes of degree < k) is nonempty."""
    und = g.neighbours()
    k = 0
    while True:
        alive = set(range(g.n))
        degree = {u: len(und[u]) for u in alive}
        queue = [u for u in alive if degree[u] < k + 1]
        while queue:
            u = queue.pop()
            if u not in alive:
                continue
            alive.discard(u)
            for v in und[u]:
                if v in alive:
                    degree[v] -= 1
                    if degree[v] < k + 1:
                        queue.append(v)
        if not alive:
            return k
        k += 1


def component_summary(g: Graph) -> dict[str, int]:
    """Node count and the four component features; cheap on any network."""
    scc = strong_component_sizes(g)
    wcc = weak_components(g)
    return {"n_nodes": g.n, "scc": len(scc), "lscc": max(scc),
            "wcc": len(wcc), "lwcc": max(len(c) for c in wcc)}


def features(g: Graph) -> dict[str, float]:
    return {**component_summary(g), "dwcc": diameter(g), "cc": mean_clustering(g),
            "kc": main_core(g)}


# --- DGCD-13 ----------------------------------------------------------------


def _triple_orbits(out: list[set[int]], a: int, b: int, c: int):
    """Orbit of each node of a triangle, or None when a pair is reciprocated:
    a cycle is orbit 12; otherwise source 9, middle 10, sink 11."""
    inside = [(x, y) for x, y in permutations((a, b, c), 2) if y in out[x]]
    if len(inside) != 3:
        return None
    outd = {x: sum(1 for s, _ in inside if s == x) for x in (a, b, c)}
    if all(d == 1 for d in outd.values()):
        return {x: 12 for x in (a, b, c)}
    return {x: 9 if outd[x] == 2 else 11 if outd[x] == 0 else 10 for x in (a, b, c)}


#: Orbits of (centre, v, w) in a wedge, by the direction of each arc at the
#: centre: "out" is centre -> leaf, "in" is leaf -> centre.
WEDGE_ORBITS = {
    ("out", "out"): (2, 3, 3),  # divergent pair
    ("in", "in"): (8, 7, 7),  # convergent pair
    ("in", "out"): (5, 4, 6),  # path v -> centre -> w
    ("out", "in"): (5, 6, 4),  # path w -> centre -> v
}


def orbit_counts(g: Graph) -> np.ndarray:
    counts = np.zeros((g.n, 13), dtype=np.int64)
    for a, b in g.arcs:
        counts[a, 0] += 1
        counts[b, 1] += 1
    und = g.neighbours()
    out = g.successors()
    seen_triangles = set()
    for centre in range(g.n):
        nbrs = sorted(und[centre])
        # None marks a reciprocated pair, which puts the triple outside the catalog
        direction = {v: None if v in out[centre] and centre in out[v]
                     else "out" if v in out[centre] else "in" for v in nbrs}
        for i, v in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                if w in und[v]:
                    key = tuple(sorted((centre, v, w)))
                    if key in seen_triangles:
                        continue
                    seen_triangles.add(key)
                    orbits = _triple_orbits(out, centre, v, w)
                    if orbits is not None:
                        for x, o in orbits.items():
                            counts[x, o] += 1
                elif direction[v] is not None and direction[w] is not None:
                    oc, ov, ow = WEDGE_ORBITS[direction[v], direction[w]]
                    counts[centre, oc] += 1
                    counts[v, ov] += 1
                    counts[w, ow] += 1
    return counts


def _average_ranks(column: np.ndarray) -> np.ndarray:
    values, inverse, counts = np.unique(column, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2.0)[inverse]


def orbit_correlations(counts: np.ndarray) -> np.ndarray:
    """Spearman correlations of the count columns after appending a row of
    ones; a constant column correlates 1 with an identical column, else 0."""
    padded = np.vstack([counts, np.ones((1, 13), dtype=counts.dtype)])
    ranks = np.column_stack([_average_ranks(padded[:, k]) for k in range(13)])
    corr = np.eye(13)
    for i in range(13):
        for j in range(i + 1, 13):
            x, y = ranks[:, i] - ranks[:, i].mean(), ranks[:, j] - ranks[:, j].mean()
            nx, ny = np.sqrt(x @ x), np.sqrt(y @ y)
            if nx == 0 or ny == 0:
                c = 1.0 if np.array_equal(ranks[:, i], ranks[:, j]) else 0.0
            else:
                c = min(1.0, max(-1.0, float(x @ y / (nx * ny))))
            corr[i, j] = corr[j, i] = c
    return corr


def dgcd(corr_a: np.ndarray, corr_b: np.ndarray) -> float:
    upper = np.triu_indices(13, k=1)
    return float(np.sqrt(np.sum((corr_a[upper] - corr_b[upper]) ** 2)))


# --- portraits --------------------------------------------------------------


def portrait(g: Graph, undirected: bool) -> np.ndarray:
    """B[l, k] = number of nodes with exactly k nodes at distance l."""
    adj = g.neighbours() if undirected else g.successors()
    shells = []
    for s in range(g.n):
        dist = bfs_distances(adj, s)
        per_l = np.bincount(np.fromiter(dist.values(), dtype=np.int64))
        shells.append(per_l)
    rows = max(len(x) for x in shells)
    b = np.zeros((rows, max(g.n, 2)), dtype=np.int64)
    for per_l in shells:
        for ell in range(rows):
            b[ell, per_l[ell] if ell < len(per_l) else 0] += 1
    return b


def portrait_divergence(b1: np.ndarray, b2: np.ndarray) -> float:
    """Base-2 Jensen-Shannon divergence of P(l, k) ~ k B[l, k] on a common grid
    (missing rows mean every node has no peers there)."""
    rows = max(b1.shape[0], b2.shape[0])
    cols = max(b1.shape[1], b2.shape[1])
    dists = []
    for b in (b1, b2):
        grid = np.zeros((rows, cols))
        grid[: b.shape[0], : b.shape[1]] = b
        grid[b.shape[0]:, 0] = b[0].sum()
        weighted = grid * np.arange(cols)
        dists.append((weighted / weighted.sum()).ravel())
    p, q = dists
    m = (p + q) / 2

    def kl(x):
        keep = x > 0
        return float(np.sum(x[keep] * np.log2(x[keep] / m[keep])))

    return (kl(p) + kl(q)) / 2
