"""Directed graphlet orbit counting and the 13-orbit correlation distance.

The catalog covers the six connected directed graphlets on 2 and 3 nodes
that contain no bidirectional pair, giving 13 automorphism orbits:

    G0  a->b                 orbits 0 (source), 1 (target)
    G1  a->b, a->c           orbits 2 (hub), 3 (leaves)
    G2  a->b->c              orbits 4 (source), 5 (middle), 6 (sink)
    G3  a->b<-c              orbits 7 (sources), 8 (sink hub)
    G4  a->b, a->c, b->c     orbits 9 (source), 10 (middle), 11 (sink)
    G5  a->b->c->a           orbit 12

The catalog is frozen source data; a test re-derives it by exhaustive
enumeration. Orbits 0 and 1 are counted per arc, so their column sums
both equal the edge count even when the graph contains reciprocated
edges; induced triples containing a reciprocated pair match no catalog
entry and are skipped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import EmptyGraphError
from .graphs import DiffusionNetwork
from .ml import average_ranks

N_ORBITS = 13

#: Node count above which orbit counting warns (cost grows with the square
#: of node degrees; the distance-matrix front end excludes these by default).
LARGE_NETWORK_THRESHOLD = 1000


class LargeNetworkWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Graphlet:
    name: str
    n_nodes: int
    arcs: tuple[tuple[int, int], ...]
    node_orbits: tuple[int, ...]


CATALOG: tuple[Graphlet, ...] = (
    Graphlet("arc", 2, ((0, 1),), (0, 1)),
    Graphlet("divergent_pair", 3, ((0, 1), (0, 2)), (2, 3, 3)),
    Graphlet("directed_path", 3, ((0, 1), (1, 2)), (4, 5, 6)),
    Graphlet("convergent_pair", 3, ((0, 1), (2, 1)), (7, 8, 7)),
    Graphlet("transitive_triangle", 3, ((0, 1), (0, 2), (1, 2)), (9, 10, 11)),
    Graphlet("cyclic_triangle", 3, ((0, 1), (1, 2), (2, 0)), (12,) * 3),
)

# signature bit layout for an ordered triple (u, v, w)
_SIG_ARCS = ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))


def _classify_signature(sig: int) -> tuple[int, int, int] | None:
    """Map a 6-bit triple adjacency signature to per-position orbits."""
    arcs = frozenset(arc for bit, arc in enumerate(_SIG_ARCS) if sig >> bit & 1)
    if any((b, a) in arcs for a, b in arcs):
        return None  # reciprocated pair: outside the catalog
    touched = {x for arc in arcs for x in arc}
    if touched != {0, 1, 2}:
        return None  # not weakly connected on three nodes
    for g in CATALOG:
        if g.n_nodes != 3 or len(g.arcs) != len(arcs):
            continue
        for perm in permutations(range(3)):
            if {(perm[a], perm[b]) for a, b in arcs} == set(g.arcs):
                return tuple(g.node_orbits[perm[p]] for p in range(3))
    return None


#: 64-entry lookup: signature -> orbit of each triple position, or None.
SIGNATURE_ORBITS: tuple[tuple[int, int, int] | None, ...] = tuple(
    _classify_signature(sig) for sig in range(64)
)


def count_orbits(network: DiffusionNetwork) -> np.ndarray:
    """Per-node counts of the 13 directed graphlet orbits.

    Out- and in-degrees give orbits 0/1; connected induced triples
    are enumerated once each from the sorted undirected adjacency (a
    triangle is claimed by its smallest member, a wedge by its center)
    and classified through the 6-bit signature table.
    """
    if network.n_nodes == 0:
        raise EmptyGraphError(f"network {network.network_id!r} has no nodes")
    n = network.n_nodes
    if n >= LARGE_NETWORK_THRESHOLD:
        warnings.warn(
            f"orbit counting on {n} nodes; expect quadratic-in-degree cost",
            LargeNetworkWarning,
            stacklevel=2,
        )
    counts = np.zeros((n, N_ORBITS), dtype=np.int64)
    out_sets = network.out_sets
    und_sets = network.und_sets
    und_lists = network.und_lists

    counts[:, 0] = [len(s) for s in out_sets]
    counts[:, 1] = [len(s) for s in network.in_sets]

    sig_orbits = SIGNATURE_ORBITS
    for u in range(n):
        nbrs = und_lists[u]
        deg = len(nbrs)
        for i in range(deg):
            v = nbrs[i]
            v_und = und_sets[v]
            v_out = v in out_sets[u]
            u_out_v = u in out_sets[v]
            for j in range(i + 1, deg):
                w = nbrs[j]
                if w in v_und:
                    # triangle in the undirected view: count once, at its
                    # smallest member (nbrs is sorted, so v < w already)
                    if u > v:
                        continue
                sig = (
                    v_out
                    | u_out_v << 1
                    | (w in out_sets[u]) << 2
                    | (u in out_sets[w]) << 3
                    | (w in out_sets[v]) << 4
                    | (v in out_sets[w]) << 5
                )
                orbits = sig_orbits[sig]
                if orbits is None:
                    continue
                counts[u, orbits[0]] += 1
                counts[v, orbits[1]] += 1
                counts[w, orbits[2]] += 1
    return counts


def correlation_matrix(counts: np.ndarray) -> np.ndarray:
    """Spearman correlations between orbit-count columns.

    A pseudo-row of ones is appended before ranking so that orbits absent
    from the whole network still produce defined correlations. Columns
    whose ranks are constant even then correlate 1 with an identical
    column and 0 with anything else.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[1] != N_ORBITS:
        raise ValueError(f"expected an (n, {N_ORBITS}) orbit count matrix")
    if counts.shape[0] < 1:
        raise ValueError("orbit count matrix needs at least one row")
    padded = np.vstack([counts, np.ones((1, N_ORBITS), dtype=counts.dtype)])
    ranks = np.column_stack([average_ranks(padded[:, k]) for k in range(N_ORBITS)])
    centered = ranks - ranks.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    corr = np.eye(N_ORBITS)
    for i in range(N_ORBITS):
        for j in range(i + 1, N_ORBITS):
            if norms[i] == 0.0 or norms[j] == 0.0:
                c = 1.0 if np.array_equal(ranks[:, i], ranks[:, j]) else 0.0
            else:
                c = float(centered[:, i] @ centered[:, j] / (norms[i] * norms[j]))
                c = min(1.0, max(-1.0, c))
            corr[i, j] = corr[j, i] = c
    return corr


def network_correlations(network: DiffusionNetwork) -> np.ndarray:
    """Convenience: orbit counts then their 13x13 correlation matrix."""
    return correlation_matrix(count_orbits(network))


_UPPER = np.triu_indices(N_ORBITS, k=1)


def dgcd_from_correlations(corr_a: np.ndarray, corr_b: np.ndarray) -> float | np.ndarray:
    """Euclidean distance between strictly-upper-triangular correlations.

    ``corr_b`` may also be a stack of shape (k, 13, 13): then ``corr_a`` is
    compared with each matrix of the stack and the k distances are returned.
    """
    corr_b = np.asarray(corr_b)
    if corr_b.ndim == 2:
        return float(np.linalg.norm(corr_a[_UPPER] - corr_b[_UPPER]))
    return np.linalg.norm(corr_a[_UPPER] - corr_b[:, _UPPER[0], _UPPER[1]], axis=1)


def dgcd13(a: DiffusionNetwork, b: DiffusionNetwork) -> float:
    """Directed graphlet correlation distance between two networks."""
    return dgcd_from_correlations(network_correlations(a), network_correlations(b))

