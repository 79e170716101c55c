"""Diffusion-network data model and construction from raw interaction events.

A diffusion network is a directed, unweighted, simple graph: one node per
user, one edge per realized (information source -> information receiver)
pair. Isolated nodes are users whose tweets were never re-shared, replied
to, quoted or mentioned; they are preserved by every operation here.
"""

from __future__ import annotations

import json
import sys
import warnings
from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import EmptyGraphError, FileFormatError, MalformedEventError

__all__ = [
    "Bias",
    "DiffusionNetwork",
    "EdgeDirection",
    "Interaction",
    "InteractionEvent",
    "Label",
    "SizeBucket",
    "build_network",
    "build_networks",
    "iter_events",
    "load_network",
    "parse_event",
    "read_events",
    "save_network",
]


class Interaction(str, Enum):
    ORIGINAL = "original"
    RETWEET = "retweet"
    QUOTE = "quote"
    REPLY = "reply"
    MENTION = "mention"


class Label(str, Enum):
    MAINSTREAM = "mainstream"
    DISINFORMATION = "disinformation"
    UNLABELED = "unlabeled"


class Bias(str, Enum):
    LEFT = "left"
    CENTRE = "centre"
    RIGHT = "right"
    SATIRE = "satire"
    NONE = "none"


class EdgeDirection(str, Enum):
    """Orientation convention for interaction edges.

    ``INFO_FLOW`` (default) orients edges along the flow of information:
    a retweet/quote/reply creates (target_user -> acting_user), a mention
    creates (acting_user -> mentioned user). ``REVERSED`` flips every edge.
    """

    INFO_FLOW = "flow"
    REVERSED = "reversed"


class SizeBucket(Enum):
    """Node-count ranges used to split a corpus into comparable subsets."""

    D_ALL = "all"
    D_0_100 = "0-100"
    D_100_1000 = "100-1000"
    D_1000_INF = "1000+"

    @classmethod
    def from_node_count(cls, n: int) -> "SizeBucket":
        if n < 100:
            return cls.D_0_100
        if n < 1000:
            return cls.D_100_1000
        return cls.D_1000_INF

    def contains(self, n: int) -> bool:
        if self is SizeBucket.D_ALL:
            return True
        return SizeBucket.from_node_count(n) is self


# bound once: on CPython 3.11 looking a member up on its Enum class takes
# about 0.1 us, which made those lookups most of interaction_edge's time
_ORIGINAL, _MENTION, _REVERSED = Interaction.ORIGINAL, Interaction.MENTION, EdgeDirection.REVERSED


@dataclass(frozen=True, slots=True)
class InteractionEvent:
    """One typed interaction extracted from a tweet.

    ``user`` is the acting user. ``target_user`` is required for every
    interaction except ``original`` and must be absent for ``original``;
    violating either raises :class:`MalformedEventError` at construction.
    """

    tweet_id: str
    user: str
    target_user: str | None
    interaction: Interaction
    url: str
    timestamp: float

    def __post_init__(self):
        if not self.user:
            raise MalformedEventError(f"event {self.tweet_id!r}: empty acting user")
        if self.interaction is _ORIGINAL:
            if self.target_user is not None:
                raise MalformedEventError(
                    f"event {self.tweet_id!r}: original tweet carries a target user"
                )
        elif not self.target_user:
            raise MalformedEventError(
                f"event {self.tweet_id!r}: {self.interaction.value} without a target user"
            )


@dataclass(frozen=True)
class DiffusionNetwork:
    """Directed, unweighted, simple interaction graph for one news URL.

    Immutable after construction; derived adjacency views are cached and
    the instance is safe to share across concurrent readers. The views
    index nodes by their position in ``sorted_nodes``: ``arcs`` is the
    integer core, and ``out_lists`` and ``und_lists`` are split from it.
    """

    network_id: str
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    label: Label = Label.UNLABELED
    bias: Bias = Bias.NONE
    tweet_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u!r}")
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"edge ({u!r}, {v!r}) has endpoint outside node set")
        if self.tweet_count < 0:
            raise ValueError("tweet_count must be non-negative")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_nodes(self) -> tuple[str, ...]:
        """The node names in sorted order; node i of every index view is
        ``sorted_nodes[i]``."""
        return tuple(sorted(self.nodes))

    @cached_property
    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges as read-only ``(sources, targets)`` int64 index arrays,
        ordered by source, then target."""
        n = self.n_nodes
        index = {u: i for i, u in enumerate(self.sorted_nodes)}
        endpoints = np.fromiter(
            map(index.__getitem__, chain.from_iterable(self.edges)),
            dtype=np.int64,
            count=2 * self.n_edges,
        )
        sources, targets = np.divmod(np.sort(endpoints[0::2] * n + endpoints[1::2]), n)
        sources.flags.writeable = targets.flags.writeable = False
        return sources, targets

    @cached_property
    def out_lists(self) -> tuple[tuple[int, ...], ...]:
        """Per node index, the sorted indices of its successors."""
        return _rows(self.n_nodes, *self.arcs)

    @cached_property
    def und_lists(self) -> tuple[tuple[int, ...], ...]:
        """Per node index, the sorted indices of its neighbours in the
        undirected simple projection."""
        n = self.n_nodes
        sources, targets = self.arcs
        pairs = np.unique(np.concatenate([sources * n + targets, targets * n + sources]))
        return _rows(n, *np.divmod(pairs, n))


def _rows(n: int, sources: np.ndarray, targets: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Row i: the targets of the arcs from node i, in order. The arcs must be
    grouped by source, as ``DiffusionNetwork.arcs`` orders them.

    Rows are tuples of Python ints: the pure-Python graph loops iterate
    them, and iterating numpy rows or sets there is measurably slower.
    """
    flat = tuple(targets.tolist())
    ends = np.cumsum(np.bincount(sources, minlength=n)).tolist()
    return tuple(flat[start:end] for start, end in zip([0] + ends, ends))


def require_nodes(network: DiffusionNetwork) -> None:
    """Raise :class:`EmptyGraphError` if ``network`` has no nodes; every
    analysis of a network starts with this check."""
    if network.n_nodes == 0:
        raise EmptyGraphError(f"network {network.network_id!r} has no nodes")


def has_arcs(network: DiffusionNetwork, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Elementwise, whether the arc ``sources -> targets`` is in ``network``,
    looked up in the sorted keys of ``network.arcs``."""
    n = network.n_nodes
    src, dst = network.arcs
    # sorted, as the arcs are; the end key n*n is above every arc's, so
    # each search lands on a key, even in a network without arcs
    keys = np.append(src * n + dst, n * n)
    wanted = sources * n + targets
    return keys[np.searchsorted(keys, wanted)] == wanted


def triangles(network: DiffusionNetwork) -> np.ndarray:
    """Every triangle of the undirected view once, as a (t, 3) array of
    node indices in no particular order.

    Nodes are ranked by (degree, index) and each edge points to its
    higher-ranked end; the third nodes of an edge x->y are the common
    higher-ranked neighbours of x and y, so a hub costs its triangles,
    not its neighbour pairs (O(m·sqrt(m)) in all).
    """
    n = network.n_nodes
    src, dst = network.arcs
    single = (src < dst) | ~has_arcs(network, dst, src)  # each undirected pair once
    a, b = src[single], dst[single]
    rank = np.empty(n, dtype=np.int64)
    degree = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    rank[np.argsort(degree, kind="stable")] = np.arange(n)
    low = np.where(rank[a] < rank[b], a, b)
    higher = [set() for _ in range(n)]
    for x, y in zip(low.tolist(), (a + b - low).tolist()):
        higher[x].add(y)
    found = [(x, y, z) for x in range(n) for y in higher[x] for z in higher[x] & higher[y]]
    return np.array(found, dtype=np.int64).reshape(-1, 3)


def bfs_layers(
    adj: Sequence[Sequence[int]], sources: Sequence[int], dist: list[int]
) -> tuple[list[int], list[int]]:
    """Breadth-first search from all of ``sources`` at once over ``adj``.

    ``dist`` must hold -1 for every node the search can reach. Each
    reached node's distance to the nearest source is written into it; to
    reuse ``dist`` for another search, reset those entries to -1 through
    the visited list. Returns the layer sizes (``counts[d]`` nodes at
    distance d; ``counts[0]`` is the number of sources) and the reached
    nodes, layer by layer.
    """
    frontier = list(sources)
    for s in frontier:
        dist[s] = 0
    visited = frontier[:]
    counts = [len(frontier)]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        if nxt:
            counts.append(len(nxt))
            visited += nxt
        frontier = nxt
    return counts, visited


def interaction_edge(event: InteractionEvent, direction: EdgeDirection) -> tuple[str, str] | None:
    """Directed edge realized by one event, or None for originals/self-interactions."""
    if event.interaction is _ORIGINAL:
        return None
    if event.user == event.target_user:
        return None  # self-replies and self-mentions carry no diffusion edge
    if event.interaction is _MENTION:
        edge = (event.user, event.target_user)
    else:
        edge = (event.target_user, event.user)
    if direction is _REVERSED:
        edge = (edge[1], edge[0])
    return edge


def build_networks(
    events: Iterable[InteractionEvent],
    *,
    direction: EdgeDirection = EdgeDirection.INFO_FLOW,
    network_id: Callable[[str], str] = str,
) -> list[DiffusionNetwork]:
    """Build the diffusion network of each URL in ``events``, in URL order;
    the network of ``url`` is named ``network_id(url)``.

    One node per unique user appearing as actor or target; one edge per
    distinct realized source/receiver pair (repeat interactions between the
    same pair collapse to a single edge). Authors whose tweets drew no
    interaction remain as isolated nodes.

    Only a node set, an edge set and a tweet count per URL are kept, never
    the events, so ``events`` may be a stream such as ``iter_events``. Each
    URL's sets are dropped as its network is made, so a set and its frozen
    copy coexist for one URL at a time.
    """
    grown = defaultdict(lambda: (set(), set(), [0]))  # url -> (nodes, edges, [tweet count])
    for event in events:
        nodes, edges, tweets = grown[event.url]
        tweets[0] += 1
        nodes.add(event.user)
        if event.target_user is not None:
            nodes.add(event.target_user)
        edge = interaction_edge(event, direction)
        if edge is not None:
            edges.add(edge)
    networks = []
    for url in sorted(grown):
        nodes, edges, (tweets,) = grown.pop(url)
        networks.append(
            DiffusionNetwork(
                network_id=network_id(url),
                nodes=frozenset(nodes),
                edges=frozenset(edges),
                tweet_count=tweets,
            )
        )
    return networks


def build_network(
    events: Iterable[InteractionEvent],
    url: str,
    *,
    direction: EdgeDirection = EdgeDirection.INFO_FLOW,
    network_id: str | None = None,
    label: Label = Label.UNLABELED,
    bias: Bias = Bias.NONE,
) -> DiffusionNetwork:
    """Build the diffusion network of one URL from its interaction events
    (see ``build_networks``); an event of another URL raises
    :class:`MalformedEventError`, and no events give an empty network."""

    def checked():
        for event in events:
            if event.url != url:
                raise MalformedEventError(
                    f"event {event.tweet_id!r} carries url {event.url!r}, expected {url!r}"
                )
            yield event

    built = build_networks(checked(), direction=direction)
    network = built[0] if built else DiffusionNetwork(url, frozenset(), frozenset())
    if network_id is None:
        network_id = url
    return replace(network, network_id=network_id, label=label, bias=bias)


def numbered_lines(path, skipped: list[tuple[int, str]] | None = None) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of the UTF-8 file at ``path``,
    its end kept. Lines end as ``csv`` reads them, at ``\\n``, ``\\r\\n`` or a
    lone ``\\r``; a byte order mark is dropped at the start of the file only.
    A line that is not UTF-8 raises :class:`FileFormatError` at its line, or
    is appended to ``skipped`` as ``(line number, reason)`` when that is a list."""

    def checked(lines, start):
        for line_no, line in enumerate(lines, start):
            try:  # decoding its bytes again names the bad one
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                if skipped is None:
                    raise FileFormatError(str(exc), path=path, line_no=line_no) from None
                skipped.append((line_no, str(exc)))
            else:
                yield line_no, line

    def blocks():
        # surrogateescape reads a byte that is not UTF-8 as a lone surrogate,
        # so such a byte fails its own line, not the decode buffer it sits in;
        # a block without one is chained on whole, with no Python step per line
        with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
            start = 1
            while lines := fh.readlines(1 << 16):
                yield enumerate(lines, start) if _encodes("".join(lines)) else checked(lines, start)
                start += len(lines)

    return chain.from_iterable(blocks())


# --- event file ingestion (one JSON object per line) -----------------------

_REQUIRED_KEYS = ("tweet_id", "user", "interaction", "url", "timestamp")  # target_user may be absent
_required_fields = itemgetter(*_REQUIRED_KEYS)
_INTERACTIONS = {kind.value: kind for kind in Interaction}
# the JSON types each key takes, matched by exact type, so a boolean is
# neither an integer nor a number
_NAME = ({str, int}, "a string or an integer")
_KEY_TYPES = {
    "tweet_id": _NAME,
    "user": _NAME,
    "target_user": ({str, int, type(None)}, "a string, an integer or null"),
    "url": ({str}, "a string"),
    "timestamp": ({int, float}, "a number"),
}


def _encodes(text: str) -> bool:
    """Whether ``text`` can be written as UTF-8: a lone surrogate, such as
    the JSON escape ``\\udc80`` decodes to, cannot."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_event(obj: Mapping) -> InteractionEvent:
    """Build an event from a decoded JSON object, validating the schema."""
    try:
        tweet_id, user, kind, url, timestamp = _required_fields(obj)
    except (LookupError, TypeError):
        if not isinstance(obj, Mapping):
            raise MalformedEventError(f"event must be a JSON object, not {type(obj).__name__}") from None
        missing = [k for k in _REQUIRED_KEYS if k not in obj]
        if missing:
            raise MalformedEventError(f"event object missing keys: {', '.join(missing)}") from None
        raise
    try:
        interaction = _INTERACTIONS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable value such as a list
        raise MalformedEventError(f"unknown interaction type {kind!r}") from None
    target = obj.get("target_user")
    for key, value in zip(_KEY_TYPES, (tweet_id, user, target, url, timestamp)):
        types, expected = _KEY_TYPES[key]
        if type(value) not in types:
            raise MalformedEventError(f"{key} must be {expected}, not {type(value).__name__}")
    try:
        timestamp = float(timestamp)
    except OverflowError:  # an integer beyond the float range
        raise MalformedEventError("timestamp is too large for a float") from None
    user, target = str(user), None if target is None else str(target)
    if not (user.isascii() and url.isascii() and (target is None or target.isascii())):
        for key, name in (("user", user), ("target_user", target), ("url", url)):
            if name is not None and not _encodes(name):
                raise MalformedEventError(f"{key} {name!r} cannot be encoded as UTF-8")
    # users and URLs repeat across events: interning keeps one copy of each
    return InteractionEvent(
        tweet_id=str(tweet_id),
        user=sys.intern(user),
        target_user=None if target is None else sys.intern(target),
        interaction=interaction,
        url=sys.intern(url),
        timestamp=timestamp,
    )


def iter_events(path, skipped: list[tuple[int, str]]) -> Iterator[InteractionEvent]:
    """Yield the valid events of a JSONL events file in file order.

    For each line that is not a valid event (not UTF-8, not JSON, nested
    too deeply to decode, or not an event), append its line number and the
    reason to ``skipped``. The lines are read by ``numbered_lines``.
    """
    for line_no, line in numbered_lines(path, skipped):
        line = line.strip()
        if not line:
            continue
        try:
            event = parse_event(json.loads(line))
        except (ValueError, TypeError, RecursionError) as exc:
            # ValueError: JSONDecodeError, MalformedEventError
            skipped.append((line_no, str(exc)))
            continue
        yield event


def read_events(path) -> tuple[list[InteractionEvent], list[tuple[int, str]]]:
    """Read a JSONL events file, skipping the lines that are not valid events.

    Returns (events, skipped): the events in file order and, per skipped
    line, its line number and the reason (see ``iter_events``).
    """
    skipped: list[tuple[int, str]] = []
    return list(iter_events(path, skipped)), skipped


# --- edge-list serialization ------------------------------------------------

DIRECTED_HEADER = "#directed"


def _unwritable_reason(name: str) -> str | None:
    """Why ``load_network`` would not read ``name`` back unchanged, if so."""
    if not name:
        return "it is empty"
    if name.startswith("#"):
        return "a line starting with '#' is a comment"
    if name != name.strip():
        return "it has leading or trailing whitespace"
    if "\t" in name or "\n" in name or "\r" in name:
        return "it contains a tab or a line break"
    if not name.isascii() and not _encodes(name):
        return "it cannot be encoded as UTF-8"
    return None


def check_node_names(network: DiffusionNetwork, edges_path) -> None:
    """Raise :class:`FileFormatError` naming the first node of ``network``
    that the edge list at ``edges_path`` cannot carry: an empty name, one
    starting with ``#``, with leading or trailing whitespace, containing a
    tab or a line break, or one that cannot be encoded as UTF-8."""
    for u in network.sorted_nodes:
        reason = _unwritable_reason(u)
        if reason is not None:
            raise FileFormatError(
                f"cannot write node {u!r} of network {network.network_id!r}: {reason}",
                path=Path(edges_path),
            )


def _nodes_path(edges_path: Path) -> Path:
    """The node-manifest file kept beside an edge file."""
    return edges_path.with_suffix(".nodes")


def save_network(network: DiffusionNetwork, edges_path) -> None:
    """Write ``src<TAB>dst`` lines to ``edges_path`` and every node name,
    one per line, to the ``.nodes`` file beside it, so isolates survive.

    A node name the edge list cannot carry raises :class:`FileFormatError`
    (see ``check_node_names``) before anything is written.
    """
    edges_path = Path(edges_path)
    check_node_names(network, edges_path)
    with edges_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(DIRECTED_HEADER + "\n")
        for u, v in sorted(network.edges):
            fh.write(f"{u}\t{v}\n")
    with _nodes_path(edges_path).open("w", encoding="utf-8", newline="\n") as fh:
        for u in network.sorted_nodes:
            fh.write(u + "\n")


def load_network(path, *, network_id: str | None = None) -> DiffusionNetwork:
    """Load a network from a tab-separated edge list.

    ``#``-prefixed lines are comments, duplicate lines collapse with a
    warning, and self-loop lines are rejected. The ``.nodes`` file beside
    the edge file, when present, restores isolated nodes. The network id
    defaults to the file's stem.
    """
    path = Path(path)
    edges: set[tuple[str, str]] = set()
    nodes: set[str] = set()
    duplicates = 0
    for line_no, line in numbered_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise FileFormatError(f"expected 'src<TAB>dst', got {line!r}", path=path, line_no=line_no)
        u, v = parts
        if u == v:
            raise FileFormatError(f"self-loop on node {u!r}", path=path, line_no=line_no)
        if (u, v) in edges:
            duplicates += 1
        edges.add((u, v))
        nodes.add(u)
        nodes.add(v)
    if duplicates:
        warnings.warn(f"{path}: collapsed {duplicates} duplicate edge line(s)", stacklevel=2)

    nodes_path = _nodes_path(path)
    if nodes_path.exists():
        nodes.update(name for _, line in numbered_lines(nodes_path) if (name := line.strip()))

    return DiffusionNetwork(
        network_id=network_id or path.stem,
        nodes=frozenset(nodes),
        edges=frozenset(edges),
    )
