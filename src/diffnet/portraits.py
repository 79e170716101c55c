"""Network portraits and the portrait divergence between two networks.

The portrait of a graph is the matrix ``B`` with ``B[l][k]`` = number of
nodes that have exactly ``k`` nodes at shortest-path distance ``l``. It is
a graph invariant: isomorphic graphs share a portrait. Row 0 is always
``B[0][1] = n`` (each node sees itself at distance 0) and every row sums
to ``n`` because nodes with no peers at distance ``l`` land in the
``k = 0`` tally. Unreachable pairs therefore never contribute mass.

The divergence compares the pair-weighted distributions
``P(k, l) ~ k * B[l][k]`` of two graphs by Jensen-Shannon divergence with
base-2 logarithms, giving a value in [0, 1].
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import EmptyGraphError
from .graphs import DiffusionNetwork, bfs_layers


def shell_counts(network: DiffusionNetwork, undirected: bool = False) -> list[list[int]]:
    """Per node, the number of nodes at distance 0, 1, ..., its eccentricity.

    Distances follow edge direction unless ``undirected`` is set. Nodes
    with the same neighbour set S share one multi-source BFS from S (the
    identical-vertex compression of Sariyuce et al., SDM 2013): every
    other node w is at distance 1 + dist(S, w) from each of them, so a
    member's shells are ``[1]`` followed by that BFS's layer sizes, less
    the member itself at its own layer. This holds for a class of one and
    for an empty S too (that BFS has the one layer ``[0]``).
    """
    n = network.n_nodes
    adj = network.und_lists if undirected else network.out_lists
    twins: dict[tuple[int, ...], list[int]] = {}
    for v in range(n):
        twins.setdefault(adj[v], []).append(v)

    shells: list[list[int]] = [[]] * n
    dist = [-1] * n
    for nbrs, members in twins.items():
        layers, visited = bfs_layers(adj, nbrs, dist)
        for v in members:
            counts = [1] + layers
            if dist[v] >= 0:
                counts[dist[v] + 1] -= 1
            if counts[-1] == 0:
                counts.pop()
            shells[v] = counts
        for u in visited:
            dist[u] = -1
    return shells


def portrait(network: DiffusionNetwork, undirected: bool = False) -> np.ndarray:
    """Shortest-path shell histogram matrix, tallied from ``shell_counts``.

    Distances follow edge direction unless ``undirected`` is set. Rows run
    from l = 0 to the largest finite eccentricity; columns from k = 0 to
    n - 1 (a single-node graph still gets a k = 1 column for its self row).
    """
    if network.n_nodes == 0:
        raise EmptyGraphError(f"network {network.network_id!r} has no nodes")
    n = network.n_nodes
    shells = shell_counts(network, undirected)
    max_ecc = max(len(counts) for counts in shells) - 1

    b = np.zeros((max_ecc + 1, max(n, 2)), dtype=np.int64)
    for counts in shells:
        for ell, k in enumerate(counts):
            b[ell, k] += 1
        for ell in range(len(counts), max_ecc + 1):
            b[ell, 0] += 1
    return b


def pad_portraits(b1: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend both portraits onto a common (l, k) grid.

    Extra rows get ``B[l][0] = n`` (every node has zero peers beyond its
    eccentricity), preserving the row-sum invariant; extra columns are 0.
    """
    rows = max(b1.shape[0], b2.shape[0])
    cols = max(b1.shape[1], b2.shape[1])
    out = []
    for b in (b1, b2):
        n = int(b[0].sum())
        padded = np.zeros((rows, cols), dtype=np.int64)
        padded[: b.shape[0], : b.shape[1]] = b
        padded[b.shape[0] :, 0] = n
        out.append(padded)
    return out[0], out[1]


def pair_distribution(b: np.ndarray) -> np.ndarray:
    """Probability mass ``P(l, k) ~ k * B[l][k]``, normalized over k >= 1."""
    weighted = b * np.arange(b.shape[1], dtype=np.float64)
    total = weighted.sum()
    return weighted / total


def portrait_distributions(portraits: Sequence[np.ndarray]) -> np.ndarray:
    """The pair distributions of several portraits as the rows of one array.

    Padding adds mass only at k = 0, which ``pair_distribution`` weighs 0,
    so every distribution lives on the cells (l, k), k >= 1, where some
    portrait is nonzero. Column j holds the j-th of those cells in (l, k)
    order. Rows compare through ``divergence_from_portraits``.
    """
    cols = max(b.shape[1] for b in portraits)
    keys, masses = [], []
    for b in portraits:
        ell, k = np.nonzero(b[:, 1:])
        k += 1
        weighted = b[ell, k] * k.astype(np.float64)
        keys.append(ell * cols + k)
        masses.append(weighted / weighted.sum())
    cells, column = np.unique(np.concatenate(keys), return_inverse=True)
    rows = np.repeat(np.arange(len(portraits)), [len(k) for k in keys])
    out = np.zeros((len(portraits), len(cells)))
    out[rows, column] = np.concatenate(masses)
    return out


def divergence_from_portraits(b1: np.ndarray, b2: np.ndarray) -> float | np.ndarray:
    """Jensen-Shannon divergence (base 2) of two pair-weighted portraits.

    A 1-D ``b1`` is a row of ``portrait_distributions`` instead, compared
    with every row of the 2-D ``b2`` from the same array; the divergences
    are returned as an array.
    """
    b1 = np.asarray(b1)
    if b1.ndim == 1:
        return _divergence_rows(b1, np.asarray(b2))
    b1, b2 = pad_portraits(b1, np.asarray(b2))
    p = pair_distribution(b1).ravel()
    q = pair_distribution(b2).ravel()
    m = 0.5 * (p + q)

    def kl(x: np.ndarray) -> float:
        mask = x > 0
        return float(np.sum(x[mask] * np.log2(x[mask] / m[mask])))

    return 0.5 * kl(p) + 0.5 * kl(q)


def _divergence_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Divergences of the distribution ``p`` from each row of ``q``."""
    support = p > 0
    ps, qs = p[support], q[:, support]
    ms = 0.5 * (ps + qs)
    kl_p = np.sum(ps * np.log2(ps / ms), axis=1)
    # off the support of p, m = q / 2: each q > 0 there adds q * log2(2) = q
    kl_q = np.sum(qs * np.log2(np.where(qs > 0, qs, ms) / ms), axis=1)
    kl_q += q[:, ~support].sum(axis=1)
    return 0.5 * kl_p + 0.5 * kl_q


def portrait_divergence(
    a: DiffusionNetwork, b: DiffusionNetwork, undirected: bool = False
) -> float:
    """Portrait divergence between two networks, in [0, 1]."""
    return divergence_from_portraits(
        portrait(a, undirected=undirected), portrait(b, undirected=undirected)
    )

