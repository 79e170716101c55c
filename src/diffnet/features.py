"""Global topological features of a diffusion network.

The seven features, in their fixed emission order: number of strongly
connected components (scc), size of the largest SCC (lscc), number of
weakly connected components (wcc), size of the largest WCC (lwcc),
diameter of the largest WCC (dwcc), average clustering coefficient (cc)
and main k-core number (kc). SCCs use directed reachability; everything
else works on the undirected simple projection.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields
from enum import Enum
from itertools import count

import numpy as np

from .graphs import DiffusionNetwork, bfs_layers, has_arcs, require_nodes, triangles

__all__ = [
    "FEATURE_NAMES",
    "ClusteringVariant",
    "FeatureVector",
    "average_clustering",
    "core_numbers",
    "extract_features",
    "local_clustering",
    "lwcc_diameter",
    "main_kcore",
    "strongly_connected_component_sizes",
    "weakly_connected_components",
]


class ClusteringVariant(str, Enum):
    UNDIRECTED = "undirected"
    DIRECTED = "directed"


@dataclass(frozen=True)
class FeatureVector:
    scc: int
    lscc: int
    wcc: int
    lwcc: int
    dwcc: int
    cc: float
    kc: int

    def to_array(self) -> np.ndarray:
        """The features as float64 in the fixed order expected downstream."""
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=np.float64)


#: The seven feature names, in the field order of ``FeatureVector``.
FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))


def strongly_connected_component_sizes(network: DiffusionNetwork) -> list[int]:
    """Sizes of all SCCs, in the order Tarjan's algorithm (SIAM J. Comput.
    1972) completes them; iterative, each frame a node and the iterator
    over its successors, so deep graphs need no recursion."""
    require_nodes(network)
    n = network.n_nodes
    out = network.out_lists
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sizes: list[int] = []
    counter = count()

    def enter(v: int) -> tuple[int, Iterator[int]]:
        index[v] = lowlink[v] = next(counter)
        stack.append(v)
        on_stack[v] = True
        return v, iter(out[v])

    for root in range(n):
        if index[root] != -1:
            continue
        work = [enter(root)]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] == -1:
                    work.append(enter(w))
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index[v]:
                    w, size = -1, 0
                    while w != v:
                        w = stack.pop()
                        on_stack[w] = False
                        size += 1
                    sizes.append(size)
    return sizes


def weakly_connected_components(network: DiffusionNetwork) -> list[list[int]]:
    """Node-index lists of the WCCs (connectivity ignoring edge direction)."""
    require_nodes(network)
    und = network.und_lists
    dist = [-1] * network.n_nodes  # never reset: a reached node is in a component
    components: list[list[int]] = []
    for start in range(network.n_nodes):
        if dist[start] < 0:
            components.append(bfs_layers(und, [start], dist)[1])
    return components


def component_features(
    network: DiffusionNetwork, wccs: list[list[int]] | None = None
) -> tuple[int, int, int, int]:
    """(scc count, largest SCC size, wcc count, largest WCC size); ``wccs``
    takes ``weakly_connected_components(network)`` if already found."""
    scc_sizes = strongly_connected_component_sizes(network)
    wccs = wccs or weakly_connected_components(network)
    return len(scc_sizes), max(scc_sizes), len(wccs), max(len(c) for c in wccs)


def lwcc_diameter(network: DiffusionNetwork, wccs: list[list[int]] | None = None) -> int:
    """Diameter of the largest WCC in its undirected view (0 for a singleton).
    ``wccs`` is as in ``component_features``.

    Directed eccentricities inside a weakly connected digraph can be
    infinite, so the undirected view is the only total definition.

    Exact, by BoundingDiameters (Takes & Kosters, CIKM 2011): every
    candidate node keeps a lower and an upper bound on its eccentricity,
    and each BFS tightens them all. A BFS from ``s`` with eccentricity
    ``e`` puts a node at distance ``d`` within ``[max(d, e - d), e + d]``.
    A candidate leaves once its bounds meet, or once it can neither raise
    the diameter's lower bound nor lower its upper bound. The sources
    alternate between the smallest lower and the largest upper bound.
    Nodes with the same neighbour set share their eccentricity (swapping
    them is an automorphism), so one of each such set is a candidate.
    """
    largest = max(wccs or weakly_connected_components(network), key=len)
    if len(largest) == 1:
        return 0
    und = network.und_lists
    n = network.n_nodes
    dist = [-1] * n
    lo = [0] * n
    hi = [n] * n
    d_lo, d_hi = 0, n
    candidates = list({und[v]: v for v in largest}.values())
    pick_high = False
    while d_lo < d_hi and candidates:
        # ties go to the higher degree, then the lower index
        if pick_high:
            s = max(candidates, key=lambda w: (hi[w], len(und[w]), -w))
        else:
            s = min(candidates, key=lambda w: (lo[w], -len(und[w]), w))
        pick_high = not pick_high
        counts, visited = bfs_layers(und, [s], dist)
        e = len(counts) - 1
        for w in candidates:
            d = dist[w]
            lo[w] = max(lo[w], d, e - d)
            hi[w] = min(hi[w], e + d)
        for v in visited:
            dist[v] = -1
        d_lo = max(d_lo, max(lo[w] for w in candidates))
        d_hi = min(d_hi, max(hi[w] for w in candidates))
        candidates = [
            w for w in candidates
            if lo[w] < hi[w] and (hi[w] > d_lo or 2 * lo[w] < d_hi)
        ]
    return d_lo


def local_clustering(network: DiffusionNetwork, variant: ClusteringVariant = ClusteringVariant.UNDIRECTED) -> np.ndarray:
    """Per-node clustering coefficients, from one enumeration of the
    triangles of the undirected view (``graphs.triangles``).

    ``UNDIRECTED``: triangles over connected triples in the undirected
    simple projection; nodes of degree < 2 contribute 0. ``DIRECTED``:
    the directed generalization over all edge orientations, with the
    node's bilateral degree removed from the normalization. There a
    triangle weighs the product of its three pairs' arc counts (1 or 2),
    and nodes whose normalization is not positive contribute 0.
    """
    require_nodes(network)
    n = network.n_nodes
    tri = triangles(network)
    degree = np.fromiter(map(len, network.und_lists), dtype=np.int64, count=n)
    if variant is ClusteringVariant.UNDIRECTED:
        closed = np.bincount(tri.ravel(), minlength=n)
        pairs = degree * (degree - 1) / 2
    else:
        ahead = np.roll(tri, -1, axis=1)  # row x, y, z: the pairs x-y, y-z and z-x
        arc_counts = has_arcs(network, tri, ahead).astype(np.int64) + has_arcs(network, ahead, tri)
        weight = np.repeat(arc_counts.prod(axis=1), 3)
        # integer sums, exact in float64, so the order of the triangles is moot
        closed = np.bincount(tri.ravel(), weights=weight, minlength=n)
        sources, targets = network.arcs
        d_tot = np.bincount(sources, minlength=n) + np.bincount(targets, minlength=n)
        d_bi = d_tot - degree  # |out & in| = |out| + |in| - |out | in|
        pairs = d_tot * (d_tot - 1) - 2 * d_bi
    return np.divide(closed, pairs, out=np.zeros(n), where=pairs > 0)


def average_clustering(network: DiffusionNetwork, variant: ClusteringVariant = ClusteringVariant.UNDIRECTED) -> float:
    """Mean local clustering coefficient over all nodes."""
    return float(local_clustering(network, variant).mean())


def core_numbers(network: DiffusionNetwork) -> list[int]:
    """Core number of every node in the undirected simple projection.

    Peeling in the order of Batagelj & Zaversnik (arXiv cs/0310049) from
    one bucket per degree: level ``d`` removes nodes of degree ``d`` until
    none is left, and each neighbour of degree above ``d`` drops by one
    and is queued again at its new degree. A removed node's degree stays
    ``d``, its core number. Degrees only fall, so a bucket holds a node at
    most once, and an entry whose node has dropped since is stale.
    """
    require_nodes(network)
    und = network.und_lists
    core = [len(neighbours) for neighbours in und]  # the degree until removal
    buckets: list[list[int]] = [[] for _ in range(max(core) + 1)]
    for u, d in enumerate(core):
        buckets[d].append(u)
    for d, bucket in enumerate(buckets):
        for u in bucket:  # also reaches the nodes queued here while it runs
            if core[u] != d:
                continue
            for v in und[u]:
                if core[v] > d:
                    core[v] -= 1
                    buckets[core[v]].append(v)
    return core


def main_kcore(network: DiffusionNetwork) -> int:
    """Largest k with a nonempty k-core; 0 iff the graph has no edges."""
    return max(core_numbers(network))


def extract_features(
    network: DiffusionNetwork,
    clustering: ClusteringVariant = ClusteringVariant.UNDIRECTED,
) -> FeatureVector:
    """Assemble the seven-feature tuple for one network."""
    wccs = weakly_connected_components(network)
    scc, lscc, wcc, lwcc = component_features(network, wccs)
    return FeatureVector(
        scc=scc,
        lscc=lscc,
        wcc=wcc,
        lwcc=lwcc,
        dwcc=lwcc_diameter(network, wccs),
        cc=average_clustering(network, clustering),
        kc=main_kcore(network),
    )
