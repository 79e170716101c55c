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

from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .graphs import DiffusionNetwork, require_nodes

__all__ = [
    "divergence_from_portraits",
    "pad_portraits",
    "portrait",
    "portrait_distributions",
    "portrait_divergence",
]

# twin classes per bit-parallel BFS pass, one bit each
_BATCH = 2048
# little-endian words, so that byte b of a word holds its bits 8b to 8b + 7
_WORD = np.dtype("<u8")
# the lowest bit of each byte, and the shifts that bring bit j of a byte there
_LANES = np.array(0x0101010101010101, dtype=_WORD)
_SHIFTS = np.arange(8, dtype=_WORD)[:, None, None]
# words counted at once, which bounds the eight shifted copies
_COUNT_WORDS = 1 << 12
# words of BFS levels gathered before they are counted together
_GROUP_WORDS = 1 << 15


def _csr(lists: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` and ``indices`` arrays holding ``lists`` row by row."""
    indptr = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, lists), dtype=np.int64, count=len(lists)), out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=int(indptr[-1]))
    return indptr, indices


def _bit_counts(bits: np.ndarray) -> np.ndarray:
    """Per bit of the word rows of ``bits``, the number of columns that set it.

    Bit j of every byte is shifted to the byte's lowest bit, and blocks of
    255 columns are summed as whole words: no byte can carry into the
    next, so each byte of a block sum counts one bit.
    """
    total = np.zeros((8, len(bits), 8), dtype=np.int64)  # shift, word, byte
    step = 255 * max(1, _COUNT_WORDS // (255 * len(bits)))
    for lo in range(0, bits.shape[1], step):
        chunk = bits[:, lo : lo + step]
        lanes = chunk >> _SHIFTS
        lanes &= _LANES
        sums = np.add.reduceat(lanes, np.arange(0, chunk.shape[1], 255), axis=2)
        per_byte = sums.astype(_WORD, copy=False).view(np.uint8)
        total += per_byte.reshape(8, len(bits), -1, 8).sum(axis=2, dtype=np.int64)
    return total.transpose(1, 2, 0).ravel()


def _bfs_levels(frontier: np.ndarray, pred: np.ndarray, pulled: np.ndarray,
                starts: np.ndarray) -> Iterator[np.ndarray]:
    """Bit-parallel BFS from the bits of ``frontier``: one row of words per
    64 bits, one column per node. Node ``pulled[i]`` has the predecessors
    ``pred[starts[i]:starts[i + 1]]``; nodes without one are not pulled,
    because ``reduceat`` gives an empty segment the next segment's first.

    Yields the bits first set at level 0 (``frontier``), 1, ... as stacks
    of a few levels each, so that small graphs pay per group, not per level.
    """
    unseen = ~frontier
    group = [frontier]
    while True:
        nxt = np.zeros_like(frontier)
        nxt[:, pulled] = np.bitwise_or.reduceat(frontier[:, pred], starts, axis=1)
        nxt &= unseen
        if not nxt.any():
            break
        unseen ^= nxt
        if len(group) * nxt.size >= _GROUP_WORDS:
            yield np.stack(group)
            group = []
        group.append(nxt)
        frontier = nxt
    yield np.stack(group)


def shell_counts(network: DiffusionNetwork, undirected: bool = False) -> np.ndarray:
    """Row v: the number of nodes at distance 0, 1, ... from node v.

    Distances follow edge direction unless ``undirected`` is set. Rows are
    zero beyond each node's eccentricity, and the last column is the
    largest one. Nodes with the same neighbour set S share one multi-source
    BFS from S (the identical-vertex compression of Sariyuce et al., SDM
    2013): every other node w is at distance 1 + dist(S, w) from each of
    them, so a member's shells are 1 followed by that BFS's layer sizes,
    less the member itself at its own layer.

    The BFS of up to ``_BATCH`` classes run as one bit-parallel BFS (Then
    et al., "The More the Merrier", PVLDB 2014): each class has one bit in
    every node's words, set from S on. A level ORs each node's
    predecessors' bits into it and keeps the bits it had not seen; a
    class's layer sizes count its newly set bits, and a member's own layer
    is the level at which its class bit reaches it.
    """
    require_nodes(network)
    n = network.n_nodes
    adj = network.und_lists if undirected else network.out_lists
    twins = dict.fromkeys(adj)
    for c, nbrs in enumerate(twins):
        twins[nbrs] = c
    class_of = np.fromiter(map(twins.__getitem__, adj), dtype=np.int64, count=n)
    seed_ptr, seeds = _csr(list(twins))
    sources, targets = network.arcs
    if undirected:  # a reciprocated pair then pulls twice, which the OR ignores
        sources, targets = np.concatenate([sources, targets]), np.concatenate([targets, sources])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=n), out=indptr[1:])
    pred = sources[np.argsort(targets, kind="stable")]
    pulled = np.flatnonzero(np.diff(indptr))
    starts = indptr[pulled]

    blocks, own = [], np.full(n, -1)
    for lo in range(0, len(twins), _BATCH):
        hi = min(lo + _BATCH, len(twins))
        bit = np.repeat(np.arange(hi - lo), np.diff(seed_ptr[lo : hi + 1]))
        frontier = np.zeros(((hi - lo + 63) // 64, n), dtype=_WORD)
        np.bitwise_or.at(frontier, (bit // 64, seeds[seed_ptr[lo] : seed_ptr[hi]]),
                         np.left_shift(1, (bit % 64).astype(_WORD)))
        members = np.flatnonzero((class_of >= lo) & (class_of < hi))
        m_bit = class_of[members] - lo
        counts, at_members = [], []
        for levels in _bfs_levels(frontier, pred, pulled, starts):
            counts.append(_bit_counts(levels.reshape(-1, n)).reshape(len(levels), -1))
            at_members.append(levels[:, m_bit // 64, members])
        blocks.append(np.concatenate(counts)[:, : hi - lo].T)
        reach = (np.concatenate(at_members) >> (m_bit % 64).astype(_WORD)) & 1
        hit = reach.any(axis=0)
        own[members[hit]] = reach.argmax(axis=0)[hit]

    by_class = np.zeros((len(twins), 1 + max(block.shape[1] for block in blocks)), np.int64)
    by_class[:, 0] = 1
    for lo, block in zip(range(0, len(twins), _BATCH), blocks):
        by_class[lo : lo + len(block), 1 : 1 + block.shape[1]] = block
    shells = by_class[class_of]
    reached = np.flatnonzero(own >= 0)
    shells[reached, own[reached] + 1] -= 1
    return shells[:, : np.flatnonzero(shells.any(axis=0))[-1] + 1]


def portrait(network: DiffusionNetwork, undirected: bool = False) -> np.ndarray:
    """Shortest-path shell histogram matrix, tallied from ``shell_counts``.

    Distances follow edge direction unless ``undirected`` is set. Rows run
    from l = 0 to the largest finite eccentricity; columns from k = 0 to
    n - 1 (a single-node graph still gets a k = 1 column for its self row).
    """
    shells = shell_counts(network, undirected)
    depth, cols = shells.shape[1], max(network.n_nodes, 2)
    cells = shells + np.arange(depth) * cols
    b = np.bincount(cells.ravel(), minlength=depth * cols).reshape(depth, cols)
    return b.astype(np.int64, copy=False)


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


def portrait_distributions(portraits: Sequence[np.ndarray]) -> np.ndarray:
    """The pair distributions of several portraits as the rows of one array.

    Row i is the probability mass ``P(l, k) ~ k * B[l][k]`` of portrait
    i, normalized over k >= 1. A cell with k = 0 weighs 0, so portraits of
    different shapes need no common grid: every distribution lives on the
    cells (l, k), k >= 1, where some portrait is nonzero. Column j holds
    the j-th of those cells in (l, k) order. Rows compare through
    ``divergence_from_portraits``.
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


def divergence_from_portraits(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergences (base 2) of the row ``p`` of
    ``portrait_distributions`` from each row of ``q``, rows of the same array."""
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
    p, q = portrait_distributions([portrait(a, undirected), portrait(b, undirected)])
    return float(divergence_from_portraits(p, q[None])[0])
