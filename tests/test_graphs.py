"""Event model, network construction, serialization and size buckets."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import util

from diffnet import (
    Bias,
    DiffusionNetwork,
    EdgeDirection,
    FileFormatError,
    Interaction,
    InteractionEvent,
    Label,
    MalformedEventError,
    Sample,
    SizeBucket,
    build_network,
    build_networks,
    extract_features,
    iter_events,
    load_network,
    parse_event,
    read_events,
    save_network,
)

URL = "https://example.org/story"


def ev(tweet_id, user, target, kind, url=URL, ts=0.0):
    return InteractionEvent(tweet_id, user, target, kind, url, ts)


# --- event validation -------------------------------------------------------


def test_original_must_not_carry_target():
    with pytest.raises(MalformedEventError):
        ev("t", "A", "B", Interaction.ORIGINAL)


def test_non_original_requires_target():
    for kind in (Interaction.RETWEET, Interaction.QUOTE, Interaction.REPLY, Interaction.MENTION):
        with pytest.raises(MalformedEventError):
            ev("t", "A", None, kind)


def test_empty_user_rejected():
    with pytest.raises(MalformedEventError):
        ev("t", "", None, Interaction.ORIGINAL)


def test_parse_event_rejects_unknown_interaction():
    with pytest.raises(MalformedEventError, match="unknown interaction"):
        parse_event(
            {"tweet_id": "t", "user": "A", "target_user": "B", "interaction": "like",
             "url": URL, "timestamp": 0}
        )


def test_parse_event_reports_missing_keys():
    with pytest.raises(MalformedEventError, match="missing keys"):
        parse_event({"tweet_id": "t", "user": "A"})


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
_EVENT_FIELDS = ("tweet_id", "user", "target_user", "interaction", "url", "timestamp")


@st.composite
def mutated_event_objects(draw):
    """A valid event object with some keys dropped or given other values,
    or now and then a JSON value that is not an object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON_VALUES | st.just(list(_EVENT_FIELDS)) | st.just(" ".join(_EVENT_FIELDS)))
    obj = {
        "tweet_id": draw(st.text(max_size=4)),
        "user": draw(st.text(max_size=4)),
        "target_user": draw(st.none() | st.text(max_size=4)),
        "interaction": draw(st.sampled_from([kind.value for kind in Interaction])),
        "url": URL,
        "timestamp": draw(st.integers(0, 100)),
    }
    for key in draw(st.lists(st.sampled_from(_EVENT_FIELDS), unique=True, max_size=3)):
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(_JSON_VALUES | st.sampled_from(["original", "retweet", "like", "Quote"]))
    return obj


def _parse_outcome(parse, obj):
    try:
        return repr(parse(obj))
    except Exception as exc:  # the type and message must match, whatever they are
        return type(exc), str(exc)


_VALID_EVENT = {"tweet_id": "t", "user": "A", "target_user": "B", "interaction": "retweet",
                "url": URL, "timestamp": 0}


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("user", None, "user must be a string or an integer, not NoneType"),
        ("user", ["A"], "user must be a string or an integer, not list"),
        ("tweet_id", {"id": 1}, "tweet_id must be a string or an integer, not dict"),
        ("tweet_id", 1.5, "tweet_id must be a string or an integer, not float"),
        ("target_user", True, "target_user must be a string, an integer or null, not bool"),
        ("url", None, "url must be a string, not NoneType"),
        ("url", 7, "url must be a string, not int"),
        ("timestamp", True, "timestamp must be a number, not bool"),
        ("timestamp", "0", "timestamp must be a number, not str"),
        ("timestamp", 10**400, "timestamp is too large for a float"),
    ],
)
def test_parse_event_rejects_values_of_other_json_types(key, value, expected):
    with pytest.raises(MalformedEventError, match=re.escape(expected)):
        parse_event({**_VALID_EVENT, key: value})


@pytest.mark.parametrize("key", ["user", "target_user", "url"])
def test_parse_event_refuses_a_name_that_cannot_be_encoded_as_utf8(key):
    value = json.loads('"a\\udc80b"')  # valid JSON, decoded to a lone surrogate
    expected = f"{key} 'a\\udc80b' cannot be encoded as UTF-8"
    with pytest.raises(MalformedEventError, match=re.escape(expected)):
        parse_event({**_VALID_EVENT, key: value})


def test_parse_event_takes_integer_names_and_a_missing_target():
    event = parse_event({**_VALID_EVENT, "tweet_id": 9, "user": 1, "target_user": 2})
    assert (event.tweet_id, event.user, event.target_user) == ("9", "1", "2")
    original = {**_VALID_EVENT, "interaction": "original"}
    del original["target_user"]
    assert parse_event(original).target_user is None


@given(mutated_event_objects())
@example({**_VALID_EVENT, "user": None})
@example({**_VALID_EVENT, "timestamp": True})
@example({**_VALID_EVENT, "timestamp": 2**1024 - 2**970})
@example({**_VALID_EVENT, "timestamp": 2**1024 - 2**970 - 1})
@example({**_VALID_EVENT, "interaction": ["retweet"]})
@example({**_VALID_EVENT, "user": "A\udc80", "target_user": "\ud800", "url": "\udfff"})
@example({**_VALID_EVENT, "target_user": "\ud800", "url": "\udfff"})
@example({**_VALID_EVENT, "user": "é", "url": "\udfff"})
@example({**_VALID_EVENT, "interaction": {"retweet": 1}})
@example(list(_EVENT_FIELDS))
@example(" ".join(_EVENT_FIELDS))
@example(5)
@example(None)
def test_parse_event_matches_oracle_on_mutated_objects(obj):
    assert _parse_outcome(parse_event, obj) == _parse_outcome(util.oracle_parse_event, obj)


# --- construction -----------------------------------------------------------


def test_single_retweet_builds_one_edge():
    events = [ev("t0", "A", None, Interaction.ORIGINAL), ev("t1", "B", "A", Interaction.RETWEET)]
    net = build_network(events, URL)
    assert net.nodes == frozenset({"A", "B"})
    assert net.edges == frozenset({("A", "B")})
    assert net.tweet_count == 2


def test_unanswered_author_stays_isolated():
    net = build_network([ev("t0", "A", None, Interaction.ORIGINAL)], URL)
    assert net.nodes == frozenset({"A"})
    assert net.edges == frozenset()


def test_repeat_interactions_collapse_to_one_edge():
    events = [
        ev("t0", "B", "A", Interaction.RETWEET),
        ev("t1", "B", "A", Interaction.RETWEET),
        ev("t2", "B", "A", Interaction.REPLY),
    ]
    net = build_network(events, URL)
    assert net.edges == frozenset({("A", "B")})
    assert net.tweet_count == 3


def test_mention_orientation_is_actor_to_target():
    net = build_network([ev("t0", "A", "B", Interaction.MENTION)], URL)
    assert net.edges == frozenset({("A", "B")})


def test_retweet_orientation_is_target_to_actor():
    net = build_network([ev("t0", "A", "B", Interaction.RETWEET)], URL)
    assert net.edges == frozenset({("B", "A")})


def test_reversed_direction_flips_every_edge():
    events = [ev("t0", "A", "B", Interaction.RETWEET), ev("t1", "C", "D", Interaction.MENTION)]
    flow = build_network(events, URL, direction=EdgeDirection.INFO_FLOW)
    rev = build_network(events, URL, direction=EdgeDirection.REVERSED)
    assert rev.edges == frozenset((v, u) for u, v in flow.edges)


def test_self_interaction_creates_node_but_no_edge():
    net = build_network([ev("t0", "A", "A", Interaction.REPLY)], URL)
    assert net.nodes == frozenset({"A"})
    assert net.edges == frozenset()


def test_url_mismatch_rejected():
    with pytest.raises(MalformedEventError, match="carries url"):
        build_network([ev("t0", "A", None, Interaction.ORIGINAL, url="https://other")], URL)


def test_network_invariants_enforced():
    with pytest.raises(ValueError, match="self-loop"):
        DiffusionNetwork("x", frozenset({"A"}), frozenset({("A", "A")}))
    with pytest.raises(ValueError, match="outside node set"):
        DiffusionNetwork("x", frozenset({"A"}), frozenset({("A", "B")}))


_KINDS = st.sampled_from(
    [Interaction.RETWEET, Interaction.QUOTE, Interaction.REPLY, Interaction.MENTION]
)
_USERS = st.sampled_from([f"u{i}" for i in range(6)])


@st.composite
def event_lists(draw):
    events = []
    for i in range(draw(st.integers(1, 12))):
        kind = draw(st.one_of(st.just(Interaction.ORIGINAL), _KINDS))
        user = draw(_USERS)
        target = None if kind is Interaction.ORIGINAL else draw(_USERS)
        events.append(ev(f"t{i}", user, target, kind, ts=float(i)))
    return events


@given(event_lists(), st.randoms(use_true_random=False))
def test_event_order_and_duplication_do_not_change_graph(events, rnd):
    base = build_network(events, URL)
    shuffled = list(events)
    rnd.shuffle(shuffled)
    assert build_network(shuffled, URL).edges == base.edges
    assert build_network(shuffled, URL).nodes == base.nodes
    non_original = [e for e in events if e.interaction is not Interaction.ORIGINAL]
    if non_original:
        doubled = events + [rnd.choice(non_original)]
        assert build_network(doubled, URL).edges == base.edges


@given(event_lists())
def test_edge_count_bound(events):
    net = build_network(events, URL)
    assert net.n_edges <= net.n_nodes * (net.n_nodes - 1)


# --- integer index views ----------------------------------------------------


@given(util.graphs(min_nodes=0, max_nodes=14))
@example((0, []))  # empty
@example((12, []))  # edgeless
@example((12, [(2, 10), (10, 2), (11, 3), (3, 11), (1, 0)]))  # reciprocated pairs
def test_index_views_match_set_oracle(g):
    # unpadded names: n10 sorts before n2, so index order is not insertion order
    n, arcs = g
    net = DiffusionNetwork(
        network_id="g",
        nodes=frozenset(f"n{i}" for i in range(n)),
        edges=frozenset((f"n{u}", f"n{v}") for u, v in arcs),
    )
    oracle_arcs, oracle_out, oracle_und = util.oracle_index_views(net)
    sources, targets = net.arcs
    assert sources.dtype == targets.dtype == np.int64
    assert list(zip(sources.tolist(), targets.tolist())) == oracle_arcs
    assert net.out_lists == oracle_out
    assert net.und_lists == oracle_und
    # the pure-Python graph loops need plain ints, not numpy scalars
    assert all(type(v) is int for row in net.out_lists + net.und_lists for v in row)
    assert net.sorted_nodes == tuple(sorted(net.nodes))


# --- size buckets -----------------------------------------------------------


@pytest.mark.parametrize(
    "n,bucket",
    [
        (1, SizeBucket.D_0_100),
        (99, SizeBucket.D_0_100),
        (100, SizeBucket.D_100_1000),
        (999, SizeBucket.D_100_1000),
        (1000, SizeBucket.D_1000_INF),
        (50000, SizeBucket.D_1000_INF),
    ],
)
def test_bucket_boundaries(n, bucket):
    assert SizeBucket.from_node_count(n) is bucket
    assert bucket.contains(n)
    assert SizeBucket.D_ALL.contains(n)


@given(st.integers(1, 5000))
def test_every_count_in_exactly_one_non_all_bucket(n):
    hits = [
        b
        for b in (SizeBucket.D_0_100, SizeBucket.D_100_1000, SizeBucket.D_1000_INF)
        if b.contains(n)
    ]
    assert len(hits) == 1


def test_bucket_of_uses_node_count():
    # a sample's bucket is derived from its node count
    net = build_network([ev("t0", "A", None, Interaction.ORIGINAL)], URL)
    sample = Sample(net.network_id, extract_features(net), net.label, net.bias, net.n_nodes)
    assert SizeBucket.from_node_count(sample.n_nodes) is SizeBucket.D_0_100
    assert SizeBucket.from_node_count(1000) is SizeBucket.D_1000_INF


# --- events file ingestion --------------------------------------------------


def _write_jsonl(path, rows):
    with path.open("w") as fh:
        for row in rows:
            fh.write((row if isinstance(row, str) else json.dumps(row)) + "\n")


def test_read_events_reports_line_numbers(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_jsonl(
        path,
        [
            {"tweet_id": "t0", "user": "A", "target_user": None, "interaction": "original",
             "url": URL, "timestamp": 0},
            "{broken",
        ],
    )
    events, skipped = read_events(path)
    assert [e.tweet_id for e in events] == ["t0"]
    assert [line_no for line_no, _ in skipped] == [2]
    assert "Expecting property name" in skipped[0][1]


def test_read_events_skip_malformed_counts(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_jsonl(
        path,
        [
            {"tweet_id": "t0", "user": "A", "target_user": None, "interaction": "original",
             "url": URL, "timestamp": 0},
            "nonsense",
            {"tweet_id": "t1", "user": "B", "target_user": "A", "interaction": "retweet",
             "url": URL, "timestamp": 1},
        ],
    )
    events, skipped = read_events(path)
    assert len(events) == 2
    assert skipped == [(2, "Expecting value: line 1 column 1 (char 0)")]


def test_read_events_skips_values_of_other_json_types(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_jsonl(path, [_VALID_EVENT, {**_VALID_EVENT, "user": None}, {**_VALID_EVENT, "url": None}])
    events, skipped = read_events(path)
    assert len(events) == 1
    assert skipped == [
        (2, "user must be a string or an integer, not NoneType"),
        (3, "url must be a string, not NoneType"),
    ]


@pytest.mark.parametrize(
    "obj, kind",
    [(5, "int"), (None, "NoneType"), (" ".join(_EVENT_FIELDS), "str"), ([1, 2], "list"),
     (list(_EVENT_FIELDS), "list"), (True, "bool"), (2.5, "float")],
)
def test_parse_event_refuses_a_value_that_is_not_an_object(obj, kind):
    with pytest.raises(MalformedEventError, match=f"^event must be a JSON object, not {kind}$"):
        parse_event(obj)


def test_read_events_names_lines_that_are_not_objects(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_jsonl(path, [_VALID_EVENT, "5", "null", json.dumps(" ".join(_EVENT_FIELDS)), "[1, 2]"])
    events, skipped = read_events(path)
    assert len(events) == 1
    assert skipped == [
        (2, "event must be a JSON object, not int"),
        (3, "event must be a JSON object, not NoneType"),
        (4, "event must be a JSON object, not str"),
        (5, "event must be a JSON object, not list"),
    ]


def test_read_events_is_the_list_of_the_stream(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_jsonl(path, [_VALID_EVENT, "nonsense", {**_VALID_EVENT, "tweet_id": "u"}])
    skipped = []
    assert read_events(path) == (list(iter_events(path, skipped)), skipped)
    assert [line_no for line_no, _ in skipped] == [2]


def test_iter_events_skips_a_line_nested_too_deeply_to_decode(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps(_VALID_EVENT) + "\n" + "[" * 200_000 + "\n" + json.dumps(_VALID_EVENT) + "\n")
    events, skipped = read_events(path)
    assert len(events) == 2
    assert [line_no for line_no, _ in skipped] == [2]
    assert "recursion" in skipped[0][1]


def test_iter_events_skips_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "events.jsonl"
    line = json.dumps(_VALID_EVENT).encode()
    path.write_bytes(line + b"\r\n" + line[:-1] + b"\xff}\r\n" + line + b"\r\n")
    events, skipped = read_events(path)
    assert len(events) == 2
    assert skipped == [(2, f"'utf-8' codec can't decode byte 0xff in position {len(line) - 1}: "
                           "invalid start byte")]


def test_iter_events_accepts_a_byte_order_mark_at_the_start_of_the_file_only(tmp_path):
    path = tmp_path / "events.jsonl"
    line = json.dumps(_VALID_EVENT).encode()
    path.write_bytes(b"\xef\xbb\xbf" + line + b"\n\xef\xbb\xbf" + line + b"\n")
    events, skipped = read_events(path)
    assert len(events) == 1
    assert [line_no for line_no, _ in skipped] == [2]
    assert "BOM" in skipped[0][1]


def test_build_networks_builds_one_network_per_url_in_url_order():
    events = [
        ev("t0", "A", None, Interaction.ORIGINAL, url="u2"),
        ev("t1", "B", "A", Interaction.RETWEET, url="u1"),
        ev("t2", "C", "B", Interaction.RETWEET, url="u2"),
        ev("t3", "A", None, Interaction.ORIGINAL, url="u1"),
        ev("t4", "D", None, Interaction.ORIGINAL, url="u3"),
    ]
    networks = build_networks(iter(events), network_id=str.upper)
    assert [n.network_id for n in networks] == ["U1", "U2", "U3"]
    for url, network in zip(["u1", "u2", "u3"], networks):
        alone = build_network([e for e in events if e.url == url], url, network_id=url.upper())
        assert network == alone
    assert [n.tweet_count for n in networks] == [2, 2, 1]
    assert networks[2].edges == frozenset()
    assert build_networks([]) == []


# --- edge-list serialization ------------------------------------------------


def test_edge_list_roundtrip_preserves_isolates(tmp_path):
    events = [
        ev("t0", "A", None, Interaction.ORIGINAL),
        ev("t1", "B", "A", Interaction.RETWEET),
        ev("t2", "C", None, Interaction.ORIGINAL),
    ]
    net = build_network(events, URL, network_id="rt")
    edges_path = tmp_path / "rt.edges"
    save_network(net, edges_path)
    loaded = load_network(edges_path)
    assert loaded.nodes == net.nodes  # C restored from the node manifest
    assert loaded.edges == net.edges


@pytest.mark.parametrize(
    "bad, edges",
    [
        ("", set()),
        ("#a", {("#a", "b")}),
        (" c", {("b", " c")}),
        ("c ", set()),
        ("a\tb", {("a\tb", "b")}),
        ("a\nb", set()),
        ("a\rb", {("b", "a\rb")}),
        ("a\udc80b", {("a\udc80b", "b")}),
    ],
    ids=["empty", "hash", "leading-space", "trailing-space", "tab", "newline", "return", "surrogate"],
)
def test_save_rejects_names_the_edge_list_cannot_carry(tmp_path, bad, edges):
    net = DiffusionNetwork(network_id="bad", nodes={bad, "b"}, edges=edges)
    edges_path = tmp_path / "bad.edges"
    with pytest.raises(FileFormatError, match="cannot write node " + re.escape(repr(bad))):
        save_network(net, edges_path)
    assert not edges_path.exists()
    assert not (tmp_path / "bad.nodes").exists()


def test_save_keeps_inner_spaces_and_hashes(tmp_path):
    net = DiffusionNetwork(network_id="ok", nodes={"a b", "c#d", "e"}, edges={("a b", "c#d")})
    save_network(net, tmp_path / "ok.edges")
    loaded = load_network(tmp_path / "ok.edges")
    assert loaded.nodes == net.nodes
    assert loaded.edges == net.edges


def test_load_plain_edge_list(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("u1\tu2\nu2\tu3\n")
    net = load_network(path)
    assert net.n_nodes == 3
    assert net.n_edges == 2


def test_load_empty_edge_list_with_node_manifest(tmp_path):
    (tmp_path / "g.edges").write_text("#directed\n")
    (tmp_path / "g.nodes").write_text("u1\n")
    net = load_network(tmp_path / "g.edges")
    assert net.nodes == frozenset({"u1"})
    assert net.edges == frozenset()


def test_load_rejects_self_loop_with_line_number(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("u1\tu2\nu1\tu1\n")
    with pytest.raises(FileFormatError) as err:
        load_network(path)
    assert err.value.line_no == 2


def test_load_collapses_duplicate_lines_with_warning(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("u1\tu2\nu1\tu2\n")
    with pytest.warns(UserWarning, match="duplicate"):
        net = load_network(path)
    assert net.n_edges == 1


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("u1\n")
    with pytest.raises(FileFormatError):
        load_network(path)


def test_load_rejects_a_line_without_a_tab(tmp_path):
    # one edge-line format: src<TAB>dst, as save_network writes it
    path = tmp_path / "g.edges"
    path.write_text("u1 u2\n")
    with pytest.raises(FileFormatError, match="expected 'src<TAB>dst'") as err:
        load_network(path)
    assert err.value.line_no == 1


def test_relabeled_preserves_structure():
    net = build_network(
        [ev("t0", "A", None, Interaction.ORIGINAL), ev("t1", "B", "A", Interaction.RETWEET)],
        URL,
    )
    renamed = util.relabeled(net, {"A": "x", "B": "y"})
    assert renamed.edges == frozenset({("x", "y")})
    assert renamed.tweet_count == net.tweet_count
