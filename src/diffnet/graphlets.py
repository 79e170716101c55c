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
entry and are not counted.

Counting is combinatorial, as in ORCA (Hočevar & Demšar, "A combinatorial
approach to graphlet counting", Bioinformatics 2014), applied to the
directed 2- and 3-node orbits of Sarajlić et al. ("Graphlet-based
characterization of directed networks", Sci. Rep. 2016). Only one-way
pairs take part in orbits 2-12. The wedge orbits 2-8 follow from degree
arithmetic over the one-way pairs, counting every wedge as if its leaves
were not adjacent. Only the triangles of the undirected view are
enumerated (``graphs.triangles``, at O(m·sqrt(m)) cost): each one takes
back the wedges the degree terms counted inside it and, when none of its
pairs is reciprocated, adds its orbits 9-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .graphs import DiffusionNetwork, has_arcs, require_nodes, triangles
from .ml import average_ranks

__all__ = [
    "CATALOG",
    "LARGE_NETWORK_THRESHOLD",
    "N_ORBITS",
    "correlation_matrix",
    "count_orbits",
    "dgcd13",
    "dgcd_from_correlations",
    "network_correlations",
]

N_ORBITS = 13

#: Node count from which the distance-matrix front end leaves networks out
#: of the dgcd13 matrix unless ``--include-large`` is given.
LARGE_NETWORK_THRESHOLD = 1000


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


def _triangle_deltas() -> np.ndarray:
    """Orbit change of one triangle, indexed by signature and position.

    A triangle in the catalog adds its own orbits. Every wedge of two
    one-way pairs inside it was counted by the degree terms although its
    leaves are adjacent, so it is taken back: the wedge centred on one
    position is the signature with the opposite pair's arcs cleared.
    """
    deltas = np.zeros((64, 3, N_ORBITS), dtype=np.int64)
    positions = np.arange(3)
    for sig in range(64):
        if SIGNATURE_ORBITS[sig] is not None:
            deltas[sig, positions, SIGNATURE_ORBITS[sig]] += 1
        for opposite in (0b110000, 0b001100, 0b000011):  # pairs v-w, u-w, u-v
            wedge = SIGNATURE_ORBITS[sig & ~opposite]
            if wedge is not None:
                deltas[sig, positions, wedge] -= 1
    return deltas


_TRIANGLE_DELTAS = _triangle_deltas()


def count_orbits(network: DiffusionNetwork) -> np.ndarray:
    """Per-node counts of the 13 directed graphlet orbits, as exact int64.

    Out- and in-degrees give orbits 0/1. A node with ``o`` out-only and
    ``i`` in-only neighbours centres C(o,2) divergent pairs, o*i directed
    paths and C(i,2) convergent pairs; the leaf orbits 3, 4, 6 and 7 sum a
    neighbour's one-way degree over the one-way arcs. Then the triangles,
    and only they, are enumerated and corrected through their 6-bit
    signatures (see ``_triangle_deltas``).
    """
    require_nodes(network)
    n = network.n_nodes
    src, dst = network.arcs
    one_way = ~has_arcs(network, dst, src)
    s1, d1 = src[one_way], dst[one_way]
    o = np.bincount(s1, minlength=n)
    i = np.bincount(d1, minlength=n)

    counts = np.zeros((n, N_ORBITS), dtype=np.int64)
    counts[:, 0] = np.bincount(src, minlength=n)
    counts[:, 1] = np.bincount(dst, minlength=n)
    counts[:, 2] = o * (o - 1) // 2
    counts[:, 5] = o * i
    counts[:, 8] = i * (i - 1) // 2
    # per one-way arc s->d
    np.add.at(counts[:, 3], d1, o[s1] - 1)  # d beside s's other out-only leaves
    np.add.at(counts[:, 4], s1, o[d1])  # s heads the paths s->d->x
    np.add.at(counts[:, 6], d1, i[s1])  # d ends the paths x->s->d
    np.add.at(counts[:, 7], s1, i[d1] - 1)  # s beside d's other in-only sources

    tri = triangles(network)
    if len(tri):
        tails, heads = np.array(_SIG_ARCS).T
        sig = (has_arcs(network, tri[:, tails], tri[:, heads]) << np.arange(6)).sum(axis=1)
        for p in range(3):
            np.add.at(counts, tri[:, p], _TRIANGLE_DELTAS[sig, p])
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
    ranks = average_ranks(padded)
    # ranks are half-integers with mean (rows + 1) / 2, so every product
    # and sum below is exact and independent of summation order
    centered = ranks - ranks.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    degenerate = norms == 0.0
    degenerate = degenerate[:, None] | degenerate[None, :]
    with np.errstate(invalid="ignore"):
        corr = np.clip(centered.T @ centered / np.outer(norms, norms), -1.0, 1.0)
    same_ranks = np.all(ranks[:, :, None] == ranks[:, None, :], axis=0)
    corr[degenerate] = same_ranks[degenerate]
    np.fill_diagonal(corr, 1.0)
    return corr


def network_correlations(network: DiffusionNetwork) -> np.ndarray:
    """Convenience: orbit counts then their 13x13 correlation matrix."""
    return correlation_matrix(count_orbits(network))


_UPPER = np.triu_indices(N_ORBITS, k=1)


def dgcd_from_correlations(corr_a: np.ndarray, corr_b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the strictly-upper-triangular
    correlations of ``corr_a`` and those of each matrix of the (k, 13, 13)
    stack ``corr_b``."""
    return np.linalg.norm(corr_a[_UPPER] - corr_b[:, _UPPER[0], _UPPER[1]], axis=1)


def dgcd13(a: DiffusionNetwork, b: DiffusionNetwork) -> float:
    """Directed graphlet correlation distance between two networks."""
    corr_a, corr_b = network_correlations(a), network_correlations(b)
    return float(dgcd_from_correlations(corr_a, corr_b[None])[0])
