"""End-to-end command-line behaviour: exit codes, messages, file outputs.

Every test drives ``main(argv)`` in process so capsys sees stdout/stderr
and no subprocess startup cost is paid, but one, which needs an
interpreter flag.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

from diffnet import (
    Bias,
    DiffnetError,
    FeatureVector,
    Label,
    LogisticConfig,
    ManifestEntry,
    Sample,
    read_distance_matrix,
    read_events,
    read_feature_table,
    read_manifest,
    save_network,
    write_distance_matrix,
    write_feature_table,
    write_manifest,
)
from diffnet import cli
from diffnet.cli import (
    EXIT_FATAL,
    EXIT_OK,
    EXIT_PARTIAL,
    RunConfig,
    main,
    network_id_for_url,
    worker_count,
)

from util import make_network, random_graph

URL_A = "https://example.com/news/alpha"
URL_B = "https://example.com/news/beta"


def event(tweet_id, user, interaction, url, target=None, ts=0.0):
    return {
        "tweet_id": tweet_id,
        "user": user,
        "target_user": target,
        "interaction": interaction,
        "url": url,
        "timestamp": ts,
    }


def write_events(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


def two_story_events():
    # story A: alice -> bob -> carol chain; story B: dan -> erin
    return [
        event("t1", "alice", "original", URL_A, ts=1.0),
        event("t2", "bob", "retweet", URL_A, target="alice", ts=2.0),
        event("t3", "carol", "reply", URL_A, target="bob", ts=3.0),
        event("t4", "dan", "original", URL_B, ts=4.0),
        event("t5", "erin", "retweet", URL_B, target="dan", ts=5.0),
    ]


def feature_row(rng, positive):
    # the two classes are separated on every feature so small CV runs are clean
    base = 20 if positive else 0
    return FeatureVector(
        scc=base + int(rng.integers(5, 15)),
        lscc=base + int(rng.integers(1, 5)),
        wcc=int(rng.integers(1, 4)),
        lwcc=base + int(rng.integers(20, 40)),
        dwcc=int(rng.integers(2, 6)),
        cc=float(rng.uniform(0.75, 0.95) if positive else rng.uniform(0.05, 0.25)),
        kc=3 if positive else 1,
    )


def write_labeled_table(path, n_per_class=25, seed=0, n_nodes=60):
    rng = np.random.default_rng(seed)
    samples = [
        Sample(f"main-{i:03d}", feature_row(rng, False), Label.MAINSTREAM, Bias.LEFT, n_nodes)
        for i in range(n_per_class)
    ] + [
        Sample(f"disinfo-{i:03d}", feature_row(rng, True), Label.DISINFORMATION, Bias.RIGHT, n_nodes)
        for i in range(n_per_class)
    ]
    write_feature_table(samples, path)
    return samples


# --- build ------------------------------------------------------------------


def test_build_writes_networks_and_manifest(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    write_events(events_path, two_story_events())
    out_dir = tmp_path / "nets"

    code = main(["build", str(events_path), "--out-dir", str(out_dir)])

    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out == f"built 2 networks (5 nodes, 3 edges) -> {out_dir / 'manifest.csv'}\n"
    assert captured.err == ""

    id_a = network_id_for_url(URL_A)
    id_b = network_id_for_url(URL_B)
    for nid in (id_a, id_b):
        assert (out_dir / f"{nid}.edges").exists()
        assert (out_dir / f"{nid}.nodes").exists()

    by_id = {e.network_id: e for e in read_manifest(out_dir / "manifest.csv")}
    assert set(by_id) == {id_a, id_b}
    assert by_id[id_a].tweet_count == 3
    assert by_id[id_b].tweet_count == 2
    assert by_id[id_a].n_nodes == 3
    assert by_id[id_a].label is Label.UNLABELED

    lines = (out_dir / f"{id_a}.edges").read_text().splitlines()
    assert lines[0] == "#directed"
    assert sorted(lines[1:]) == ["alice\tbob", "bob\tcarol"]


def test_build_reversed_direction_flips_edges(tmp_path):
    events_path = tmp_path / "events.jsonl"
    write_events(events_path, two_story_events())
    out_dir = tmp_path / "nets"

    code = main(["build", str(events_path), "--out-dir", str(out_dir), "--direction", "reversed"])

    assert code == EXIT_OK
    lines = (out_dir / f"{network_id_for_url(URL_A)}.edges").read_text().splitlines()
    assert sorted(lines[1:]) == ["bob\talice", "carol\tbob"]


def test_build_empty_events_file_is_fatal(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    events_path.write_text("")

    code = main(["build", str(events_path), "--out-dir", str(tmp_path / "nets")])

    assert code == EXIT_FATAL
    assert "error: no events in" in capsys.readouterr().err


def test_build_names_the_lines_of_an_all_malformed_file(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    events_path.write_text("{not json\n")

    code = main(["build", str(events_path), "--out-dir", str(tmp_path / "nets")])

    assert code == EXIT_FATAL
    err = capsys.readouterr().err
    assert f"warning: {events_path}:1: Expecting property name" in err
    assert "error: no events in" in err


def test_build_rejects_a_user_name_the_edge_list_cannot_carry(tmp_path, capsys):
    # the bad name sits in the second network written, so a check made only
    # while saving would already have written the first network's files
    out_dir = tmp_path / "nets"
    good_path = tmp_path / "good.jsonl"
    write_events(good_path, [event("t0", "zed", "original", URL_B, ts=0.5)])
    assert main(["build", str(good_path), "--out-dir", str(out_dir)]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}

    events_path = tmp_path / "events.jsonl"
    write_events(events_path, [
        event("t1", "alice", "original", URL_A, ts=1.0),
        event("t2", "bob", "retweet", URL_A, target="alice", ts=2.0),
        event("t3", "#carol", "original", URL_B, ts=3.0),
        event("t4", "dan", "retweet", URL_B, target="#carol", ts=4.0),
    ])
    capsys.readouterr()

    code = main(["build", str(events_path), "--out-dir", str(out_dir)])

    assert code == EXIT_FATAL
    err = capsys.readouterr().err
    assert "error: " in err
    assert "cannot write node '#carol'" in err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_build_skips_malformed_lines(tmp_path, capsys):
    good = two_story_events()[:2]
    events_path = tmp_path / "events.jsonl"
    events_path.write_text(
        json.dumps(good[0]) + "\n"
        + "{not json\n"
        + json.dumps(event("t9", "x", "teleport", URL_A, target="y")) + "\n"
        + json.dumps(good[1]) + "\n"
    )
    out_dir = tmp_path / "nets"

    code = main(["build", str(events_path), "--out-dir", str(out_dir)])

    assert code == EXIT_PARTIAL
    err = capsys.readouterr().err
    assert "warning: skipped 2 malformed event lines" in err
    assert f"warning: {events_path}:2: Expecting property name" in err
    assert f"warning: {events_path}:3: unknown interaction type 'teleport'" in err
    entries = read_manifest(out_dir / "manifest.csv")
    assert len(entries) == 1
    assert entries[0].tweet_count == 2


def test_build_merges_into_existing_manifest(tmp_path):
    out_dir = tmp_path / "nets"
    events = two_story_events()
    p1, p2, p3 = (tmp_path / f"e{i}.jsonl" for i in range(3))
    write_events(p1, events[:3])
    write_events(p2, events[3:])
    write_events(p3, events[:3] + [event("t6", "frank", "retweet", URL_A, target="alice", ts=6.0)])

    main(["build", str(p1), "--out-dir", str(out_dir)])
    main(["build", str(p2), "--out-dir", str(out_dir)])
    by_id = {e.network_id: e for e in read_manifest(out_dir / "manifest.csv")}
    assert set(by_id) == {network_id_for_url(URL_A), network_id_for_url(URL_B)}

    # rebuilding the same URL replaces its row instead of appending a duplicate
    main(["build", str(p3), "--out-dir", str(out_dir)])
    entries = read_manifest(out_dir / "manifest.csv")
    assert len(entries) == 2
    assert {e.network_id: e for e in entries}[network_id_for_url(URL_A)].tweet_count == 4


def test_build_skips_a_line_nested_too_deeply_to_decode(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    good = two_story_events()
    events_path.write_text(
        json.dumps(good[0]) + "\n" + "[" * 200_000 + "\n" + json.dumps(good[1]) + "\n"
    )

    code = main(["build", str(events_path), "--out-dir", str(tmp_path / "nets")])

    assert code == EXIT_PARTIAL
    err = capsys.readouterr().err
    assert "warning: skipped 1 malformed event lines" in err
    assert f"warning: {events_path}:2: maximum recursion depth exceeded" in err
    assert read_manifest(tmp_path / "nets" / "manifest.csv")[0].tweet_count == 2


def test_build_skips_a_line_that_is_not_utf8_and_builds_the_rest(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    lines = [json.dumps(e).encode() for e in two_story_events()]
    lines[2] = lines[2].replace(b"carol", b"car\xffol")
    events_path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    out_dir = tmp_path / "nets"

    code = main(["build", str(events_path), "--out-dir", str(out_dir)])

    assert code == EXIT_PARTIAL
    captured = capsys.readouterr()
    position = lines[2].index(b"\xff")
    assert captured.err == (
        "warning: skipped 1 malformed event lines\n"
        f"warning: {events_path}:3: 'utf-8' codec can't decode byte 0xff in position "
        f"{position}: invalid start byte\n"
    )
    assert captured.out == f"built 2 networks (4 nodes, 2 edges) -> {out_dir / 'manifest.csv'}\n"


@pytest.mark.parametrize("key", ["user", "url"])
def test_build_skips_a_line_whose_name_cannot_be_encoded_as_utf8(tmp_path, capsys, key):
    # the JSON escape is valid and decodes to a lone surrogate, which no
    # file can hold: the line is skipped and the other URL is built
    bad = event("t3", "dan", "original", URL_B)
    bad[key] += "\udc80"
    events_path = tmp_path / "events.jsonl"
    write_events(events_path, two_story_events()[:2] + [bad])
    assert "\\udc80" in events_path.read_text()
    out_dir = tmp_path / "nets"

    code = main(["build", str(events_path), "--out-dir", str(out_dir)])

    assert code == EXIT_PARTIAL
    err = capsys.readouterr().err
    assert f"warning: {events_path}:3: {key} {bad[key]!r} cannot be encoded as UTF-8" in err
    network_id = network_id_for_url(URL_A)
    assert sorted(p.name for p in out_dir.iterdir()) == [
        f"{network_id}.edges", f"{network_id}.nodes", "manifest.csv"
    ]


def test_build_accepts_a_byte_order_mark_at_the_start_of_the_file(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    events_path.write_bytes(b"\xef\xbb\xbf" + json.dumps(two_story_events()[0]).encode() + b"\n")
    out_dir = tmp_path / "nets"

    code = main(["build", str(events_path), "--out-dir", str(out_dir)])

    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    assert [e.tweet_count for e in read_manifest(out_dir / "manifest.csv")] == [1]


def repeated_retweet_events(n_urls=20, n_retweeters=49, repeats=30):
    """Per URL one original and ``repeats`` retweets by each retweeter, the
    URLs interleaved: 29,420 events by default, 20 networks of 50 nodes."""
    urls = [f"https://example.com/news/story-{u:02d}" for u in range(n_urls)]
    events = [event(f"o{u}", f"author{u}", "original", url) for u, url in enumerate(urls)]
    for r in range(repeats):
        for i in range(n_retweeters):
            for u, url in enumerate(urls):
                events.append(event(f"t{r}-{i}-{u}", f"fan{i}", "retweet", url, target=f"author{u}"))
    return events


def test_build_holds_the_networks_and_not_the_events(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    write_events(events_path, repeated_retweet_events())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = read_events(events_path)[0]
        events_size = tracemalloc.get_traced_memory()[0] - before
        assert len(events) == 29_420
        del events
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        code = main(["build", str(events_path), "--out-dir", str(tmp_path / "nets")])
        build_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()

    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("built 20 networks (1000 nodes, 980 edges)")
    assert build_peak < events_size / 4


def test_build_writes_the_same_bytes_whatever_the_order_of_the_urls(tmp_path):
    events = repeated_retweet_events(n_urls=4, n_retweeters=5, repeats=2)
    outputs = []
    for name, ordered in (("interleaved", events), ("sorted", sorted(events, key=lambda e: e["url"]))):
        events_path = tmp_path / f"{name}.jsonl"
        write_events(events_path, ordered)
        out_dir = tmp_path / name
        assert main(["build", str(events_path), "--out-dir", str(out_dir)]) == EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert len(outputs[0]) == 1 + 2 * 4
    assert outputs[0] == outputs[1]


# --- features ---------------------------------------------------------------


@pytest.fixture
def built_networks(tmp_path):
    events_path = tmp_path / "events.jsonl"
    write_events(events_path, two_story_events())
    out_dir = tmp_path / "nets"
    assert main(["build", str(events_path), "--out-dir", str(out_dir)]) == EXIT_OK
    return out_dir


def test_features_deterministic_table(built_networks, tmp_path, capsys):
    out1 = tmp_path / "f1.csv"
    out2 = tmp_path / "f2.csv"
    manifest = built_networks / "manifest.csv"

    code = main(["features", str(manifest), "--out", str(out1)])

    assert code == EXIT_OK
    assert f"wrote 2 feature rows -> {out1}" in capsys.readouterr().out
    samples = {s.network_id: s for s in read_feature_table(out1)}
    fv = samples[network_id_for_url(URL_A)].features
    # three-node directed chain
    assert (fv.scc, fv.lscc, fv.wcc, fv.lwcc, fv.dwcc, fv.cc, fv.kc) == (3, 1, 1, 3, 2, 0.0, 1)
    assert samples[network_id_for_url(URL_A)].label is Label.UNLABELED

    assert main(["features", str(manifest), "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


CORPUS_COMMANDS = {
    "features": (["features"], lambda out: [s.network_id for s in read_feature_table(out)]),
    "dgcd13": (["distances", "--which", "dgcd13"], lambda out: read_distance_matrix(out)[0]),
    "portrait": (["distances", "--which", "portrait"], lambda out: read_distance_matrix(out)[0]),
}


@pytest.mark.parametrize("damage", ["unreadable", "missing"])
@pytest.mark.parametrize("command", list(CORPUS_COMMANDS))
def test_features_skips_unreadable_network(built_networks, tmp_path, capsys, command, damage):
    # features and both distances skip a network they cannot load, alike
    argv, output_ids = CORPUS_COMMANDS[command]
    bad_id = network_id_for_url(URL_A)
    edges = built_networks / f"{bad_id}.edges"
    if damage == "missing":
        edges.unlink()
    else:
        edges.write_text("#directed\njust-one-token\n")
    out = tmp_path / "out.csv"

    code = main([argv[0], str(built_networks / "manifest.csv"), "--out", str(out), *argv[1:]])

    assert code == EXIT_PARTIAL
    assert f"warning: skipped {bad_id}:" in capsys.readouterr().err
    assert output_ids(out) == [network_id_for_url(URL_B)]


@pytest.mark.parametrize("corpus", ["all-missing", "empty-manifest"])
@pytest.mark.parametrize("command", list(CORPUS_COMMANDS))
def test_corpus_pass_that_measures_nothing_is_fatal(built_networks, tmp_path, capsys, command, corpus):
    # features and both distances end alike when no network is measured
    argv, _ = CORPUS_COMMANDS[command]
    manifest = built_networks / "manifest.csv"
    if corpus == "empty-manifest":
        write_manifest([], manifest)
    else:
        for edges in built_networks.glob("*.edges"):
            edges.unlink()
    out = tmp_path / "out.csv"

    code = main([argv[0], str(manifest), "--out", str(out), *argv[1:]])

    assert code == EXIT_FATAL
    assert f"error: no network of {manifest} could be measured" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_library_warning_prints_as_one_warning_line(tmp_path, capfd, monkeypatch, workers):
    # on the serial path and in pool workers alike; capfd sees what workers write to fd 2
    manifest = write_corpus(
        tmp_path, [make_network(3, [(0, 1), (1, 2)], network_id=f"n{i}") for i in range(2)]
    )
    edges = manifest.parent / "n1.edges"
    edges.write_text(edges.read_text() + "n000\tn001\n")  # a repeated edge line
    monkeypatch.setenv("DIFFNET_WORKERS", workers)

    assert main(["features", str(manifest), "--out", str(tmp_path / "f.csv")]) == EXIT_OK
    assert capfd.readouterr().err == f"warning: {edges}: collapsed 1 duplicate edge line(s)\n"


def test_features_missing_manifest_is_fatal(tmp_path, capsys):
    code = main(["features", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "f.csv")])
    assert code == EXIT_FATAL
    assert "error:" in capsys.readouterr().err


# --- distances --------------------------------------------------------------


def write_corpus(tmp_path, networks):
    d = tmp_path / "corpus"
    d.mkdir()
    entries = []
    for network in networks:
        nid = network.network_id
        save_network(network, d / f"{nid}.edges")
        entries.append(
            ManifestEntry(
                network_id=nid,
                path=f"{nid}.edges",
                label=Label.MAINSTREAM,
                bias=Bias.NONE,
                tweet_count=80,
                n_nodes=len(network.nodes),
            )
        )
    write_manifest(entries, d / "manifest.csv")
    return d / "manifest.csv"


def test_distances_identical_networks_are_zero(tmp_path, capsys):
    arcs = [(0, 1), (0, 2), (1, 2), (2, 3)]
    manifest = write_corpus(
        tmp_path,
        [make_network(4, arcs, network_id="twin-a"), make_network(4, arcs, network_id="twin-b")],
    )
    out = tmp_path / "dgcd.csv"

    code = main(["distances", str(manifest), "--out", str(out)])

    assert code == EXIT_OK
    assert "wrote 2x2 dgcd13 matrix" in capsys.readouterr().out
    ids, matrix = read_distance_matrix(out)
    assert ids == ["twin-a", "twin-b"]
    assert matrix[0, 1] == 0.0 and matrix[1, 0] == 0.0

    out2 = tmp_path / "portrait.csv"
    assert main(["distances", str(manifest), "--out", str(out2), "--which", "portrait"]) == EXIT_OK
    _, m2 = read_distance_matrix(out2)
    assert m2[0, 1] == 0.0


def test_distances_worker_pool_matches_serial(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    manifest = write_corpus(
        tmp_path,
        [make_network(*random_graph(rng, 12, 0.2), network_id=f"net-{i}") for i in range(4)],
    )
    for command, (argv, _) in CORPUS_COMMANDS.items():
        outputs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("DIFFNET_WORKERS", workers)
            out = tmp_path / f"{command}-{workers}.csv"
            assert main([argv[0], str(manifest), "--out", str(out), *argv[1:]]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_pool_has_no_more_workers_than_networks(tmp_path, monkeypatch):
    # a process pool starts all of its workers at once; this one starts none
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setenv("DIFFNET_WORKERS", "8")
    manifest = write_corpus(
        tmp_path, [make_network(3, [(0, 1), (1, 2)], network_id=f"net-{i}") for i in range(3)]
    )
    for command, (argv, output_ids) in CORPUS_COMMANDS.items():
        out = tmp_path / f"{command}.csv"
        assert main([argv[0], str(manifest), "--out", str(out), *argv[1:]]) == EXIT_OK
        assert output_ids(out) == ["net-0", "net-1", "net-2"]
    assert sizes == [3, 3, 3]


def test_distances_excludes_large_networks_by_default(tmp_path, capsys):
    manifest = write_corpus(
        tmp_path,
        [
            make_network(5, [(i, i + 1) for i in range(4)], network_id="small"),
            make_network(1000, [(i, i + 1) for i in range(999)], network_id="big"),
        ],
    )
    out = tmp_path / "d.csv"

    code = main(["distances", str(manifest), "--out", str(out)])

    assert code == EXIT_OK
    assert "excluded 1 networks with >= 1000 nodes: big" in capsys.readouterr().out
    ids, matrix = read_distance_matrix(out)
    assert ids == ["small"]
    assert matrix.shape == (1, 1)

    code = main(["distances", str(manifest), "--out", str(out), "--include-large"])
    assert code == EXIT_OK
    assert "excluded" not in capsys.readouterr().out
    ids, matrix = read_distance_matrix(out)
    assert ids == ["big", "small"]
    assert matrix[0, 1] > 0.0


def test_distances_all_excluded_is_fatal(tmp_path, capsys):
    manifest = write_corpus(
        tmp_path, [make_network(1000, [(i, i + 1) for i in range(999)], network_id="big")]
    )
    code = main(["distances", str(manifest), "--out", str(tmp_path / "d.csv")])
    assert code == EXIT_FATAL
    assert "error: no networks left to compare" in capsys.readouterr().err


# --- classify ---------------------------------------------------------------


def test_classify_writes_report_and_roc(tmp_path, capsys):
    ft = tmp_path / "features.csv"
    write_labeled_table(ft)
    out = tmp_path / "report.json"
    roc = tmp_path / "roc.csv"

    code = main(
        ["classify", "--features", str(ft), "--out", str(out), "--roc-out", str(roc), "--seed", "3"]
    )

    assert code == EXIT_OK
    assert "lr bucket=all: mean AUC " in capsys.readouterr().out

    payload = json.loads(out.read_text())
    assert payload["n_samples"] == 50
    assert len(payload["folds"]) == 10
    assert set(payload["aggregate"]) == {"auc", "precision", "recall", "f1"}
    assert payload["aggregate"]["auc"]["mean"] >= 0.95
    assert 0.0 <= payload["pooled_auc"] <= 1.0
    # command-line provenance is merged into the stored config
    cfg = payload["config"]
    assert cfg["classifier"] == "lr"
    assert cfg["seed"] == 3
    assert cfg["bucket"] == "all"
    assert cfg["direction"] == "flow"
    assert "max_iter" in cfg
    assert out.read_text().endswith("\n")

    rows = roc.read_text().splitlines()
    assert rows[0] == "fold,threshold,fpr,tpr"
    first = rows[1].split(",")
    assert first == ["0", "inf", "0.0", "0.0"]
    assert {int(r.split(",")[0]) for r in rows[1:]} == set(range(10))


def test_classify_warns_when_the_fit_stops_unconverged(tmp_path, capsys, monkeypatch):
    ft = tmp_path / "features.csv"
    write_labeled_table(ft)
    monkeypatch.setattr(cli, "LogisticConfig", lambda: LogisticConfig(max_iter=1))

    code = main(["classify", "--features", str(ft), "--out", str(tmp_path / "r.json")])

    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert "warning: logistic regression stopped after 1 iterations" in err


def test_classify_knn(tmp_path, capsys):
    ft = tmp_path / "features.csv"
    write_labeled_table(ft)
    out = tmp_path / "report.json"

    code = main(["classify", "--features", str(ft), "--out", str(out), "--classifier", "knn", "--k", "5"])

    assert code == EXIT_OK
    assert "knn bucket=all: mean AUC " in capsys.readouterr().out
    assert json.loads(out.read_text())["aggregate"]["auc"]["mean"] >= 0.9


def test_classify_k_exceeding_training_fold_is_fatal(tmp_path, capsys):
    ft = tmp_path / "features.csv"
    write_labeled_table(ft)

    code = main(
        ["classify", "--features", str(ft), "--out", str(tmp_path / "r.json"),
         "--classifier", "knn", "--k", "100"]
    )

    assert code == EXIT_FATAL
    assert "fold 0" in capsys.readouterr().err


def test_classify_knn_distance_with_matrix(tmp_path):
    ft = tmp_path / "features.csv"
    samples = sorted(write_labeled_table(ft), key=lambda s: s.network_id)
    ids = [s.network_id for s in samples]
    cc = np.array([s.features.cc for s in samples])
    dist = tmp_path / "dist.csv"
    write_distance_matrix(ids, np.abs(cc[:, None] - cc[None, :]), dist)
    out = tmp_path / "report.json"

    code = main(
        ["classify", "--features", str(ft), "--distances", str(dist), "--out", str(out),
         "--classifier", "knn-distance", "--k", "5"]
    )

    assert code == EXIT_OK
    # cc gaps separate the classes, so distance neighbours vote unanimously
    assert json.loads(out.read_text())["aggregate"]["auc"]["mean"] == 1.0


def test_classify_distances_without_feature_ids_is_fatal(tmp_path, capsys):
    ft = tmp_path / "features.csv"
    write_labeled_table(ft, n_per_class=5)
    dist = tmp_path / "dist.csv"
    write_distance_matrix(["x", "y"], np.array([[0.0, 1.0], [1.0, 0.0]]), dist)

    code = main(
        ["classify", "--features", str(ft), "--distances", str(dist),
         "--classifier", "knn-distance", "--out", str(tmp_path / "r.json")]
    )

    assert code == EXIT_FATAL
    assert "holds none of the 10 selected feature-table ids" in capsys.readouterr().err


def test_classify_names_feature_ids_the_matrix_lacks(tmp_path, capsys):
    ft = tmp_path / "features.csv"
    samples = sorted(write_labeled_table(ft), key=lambda s: s.network_id)
    kept = [s for s in samples if s.network_id not in ("disinfo-003", "main-017")]
    ids = [s.network_id for s in kept]
    cc = np.array([s.features.cc for s in kept])
    dist = tmp_path / "dist.csv"
    write_distance_matrix(ids, np.abs(cc[:, None] - cc[None, :]), dist)
    kept_ft = tmp_path / "kept.csv"
    write_feature_table(kept, kept_ft)
    argv = ["classify", "--distances", str(dist), "--classifier", "knn-distance", "--k", "5"]

    assert main(argv + ["--features", str(ft), "--out", str(tmp_path / "r.json")]) == EXIT_OK
    err = capsys.readouterr().err
    assert "distance matrix lacks 2 feature-table ids, left out: disinfo-003, main-017" in err
    assert main(argv + ["--features", str(kept_ft), "--out", str(tmp_path / "k.json")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert (tmp_path / "r.json").read_bytes() == (tmp_path / "k.json").read_bytes()


def test_classify_with_distances_and_no_labeled_rows_names_the_empty_bucket(tmp_path, capsys):
    rng = np.random.default_rng(1)
    samples = [
        Sample(f"u-{i}", feature_row(rng, i % 2 == 0), Label.UNLABELED, Bias.NONE, 50)
        for i in range(4)
    ]
    ft = tmp_path / "features.csv"
    write_feature_table(samples, ft)
    dist = tmp_path / "dist.csv"
    write_distance_matrix([s.network_id for s in samples], 1.0 - np.eye(4), dist)
    argv = ["classify", "--features", str(ft), "--out", str(tmp_path / "r.json")]

    assert main(argv + ["--distances", str(dist), "--classifier", "knn-distance"]) == EXIT_FATAL
    with_matrix = capsys.readouterr().err
    assert main(argv) == EXIT_FATAL
    assert with_matrix == capsys.readouterr().err == "error: no samples in bucket all\n"


@pytest.mark.parametrize("subcommand", ["classify", "report"])
@pytest.mark.parametrize(
    "options, message",
    [
        (["--bucket", "1000+"], "no samples in bucket 1000+"),
        # the bucket holds samples: the error names the options that left them out
        (["--exclude-source", ""], "no labeled samples in bucket all pass --exclude-source"),
        (["--bias", "satire"], "no labeled samples in bucket all pass --bias"),
        (["--bucket", "0-100", "--bias", "satire", "--exclude-source", "main"],
         "no labeled samples in bucket 0-100 pass --bias and --exclude-source"),
    ],
    ids=["options0-1000+", "options1-all", "options2-all", "options3-0-100"],
)
def test_a_selection_of_no_samples_names_the_bucket(tmp_path, capsys, subcommand, options, message):
    ft = tmp_path / "features.csv"
    write_labeled_table(ft)  # 50 networks of 60 nodes, biases left and right
    out = tmp_path / "r.json"

    assert main([subcommand, "--features", str(ft), "--out", str(out)] + options) == EXIT_FATAL
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_classify_checks_matrix_and_manifest_only_for_the_selected_bucket(tmp_path, capsys):
    rng = np.random.default_rng(2)
    small = write_labeled_table(tmp_path / "small.csv")  # 60 nodes: bucket 0-100
    large = [
        Sample(f"large-{i}", feature_row(rng, i % 2 == 0), Label.MAINSTREAM, Bias.NONE, 500)
        for i in range(10)
    ]
    ft = tmp_path / "features.csv"
    write_feature_table(small + large, ft)
    # the matrix and the manifest lack every 100-1000 id
    ids = sorted(s.network_id for s in small)
    dist = tmp_path / "dist.csv"
    write_distance_matrix(ids, 1.0 - np.eye(len(ids)), dist)
    manifest = tmp_path / "manifest.csv"
    write_manifest(
        [ManifestEntry(s.network_id, "x.edges", s.label, s.bias, 60, None) for s in small], manifest
    )
    argv = ["classify", "--distances", str(dist), "--classifier", "knn-distance", "--k", "5",
            "--bucket", "0-100", "--manifest", str(manifest)]

    assert main(argv + ["--features", str(ft), "--out", str(tmp_path / "r.json")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    payload = json.loads((tmp_path / "r.json").read_text())
    assert (payload["bucket"], payload["n_samples"]) == ("0-100", 50)
    small_ft = tmp_path / "small.csv"
    assert main(argv + ["--features", str(small_ft), "--out", str(tmp_path / "s.json")]) == EXIT_OK
    assert (tmp_path / "r.json").read_bytes() == (tmp_path / "s.json").read_bytes()


def test_classify_manifest_must_cover_feature_ids(tmp_path, capsys):
    ft = tmp_path / "features.csv"
    write_labeled_table(ft, n_per_class=3)
    write_manifest(
        [ManifestEntry("main-000", "main-000.edges", Label.MAINSTREAM, Bias.LEFT, 100, None)],
        tmp_path / "manifest.csv",
    )

    code = main(
        ["classify", "--features", str(ft), "--manifest", str(tmp_path / "manifest.csv"),
         "--out", str(tmp_path / "r.json")]
    )

    assert code == EXIT_FATAL
    assert "manifest lacks feature-table ids" in capsys.readouterr().err


# --- generate ---------------------------------------------------------------


def test_generate_deterministic_ensemble(tmp_path, capsys):
    g1 = tmp_path / "g1"
    g2 = tmp_path / "g2"
    argv = ["generate", "--profile", "broadcast_like", "--count", "4",
            "--seed", "7", "--bucket", "0-100"]

    code = main(argv + ["--out-dir", str(g1)])

    assert code == EXIT_OK
    assert "generated 4 broadcast_like networks (nodes " in capsys.readouterr().out
    entries = read_manifest(g1 / "manifest.csv")
    assert len(entries) == 4
    for e in entries:
        assert e.network_id.startswith("synth-broadcast_like-0-100-")
        assert e.label is Label.MAINSTREAM
        assert e.n_nodes is not None and e.n_nodes <= 100
        assert (g1 / f"{e.network_id}.edges").exists()

    assert main(argv + ["--out-dir", str(g2)]) == EXIT_OK
    assert (g1 / "manifest.csv").read_bytes() == (g2 / "manifest.csv").read_bytes()
    nid = entries[0].network_id
    assert (g1 / f"{nid}.edges").read_bytes() == (g2 / f"{nid}.edges").read_bytes()


# --- report -----------------------------------------------------------------


def test_report_schema(tmp_path, capsys):
    ft = tmp_path / "features.csv"
    write_labeled_table(ft, n_per_class=15)
    out = tmp_path / "report.json"

    code = main(["report", "--features", str(ft), "--out", str(out)])

    assert code == EXIT_OK
    assert f"wrote feature report (30 samples) -> {out}" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["n_samples"] == 30
    assert payload["n_positive"] == 15
    assert payload["n_negative"] == 15
    assert set(payload["features"]) == {"scc", "lscc", "wcc", "lwcc", "dwcc", "cc", "kc"}
    cc = payload["features"]["cc"]
    assert set(cc) == {"ks_statistic", "ks_p_value", "rejected_at_0.05", "disinformation", "mainstream"}
    assert cc["ks_statistic"] == 1.0
    assert cc["rejected_at_0.05"] is True
    assert set(cc["disinformation"]) == {"min", "q1", "median", "q3", "max"}
    assert cc["disinformation"]["min"] >= 0.75
    assert cc["mainstream"]["max"] <= 0.25


def test_report_filters(tmp_path):
    rng = np.random.default_rng(5)
    samples = [
        Sample(f"{site}-{i}", feature_row(rng, label is Label.DISINFORMATION), label, bias, n_nodes)
        for site, label, bias, n_nodes, count in (
            ("site1-m", Label.MAINSTREAM, Bias.LEFT, 50, 10),
            ("site1-d", Label.DISINFORMATION, Bias.RIGHT, 50, 10),
            ("site2-m", Label.MAINSTREAM, Bias.CENTRE, 500, 5),
            ("site2-d", Label.DISINFORMATION, Bias.SATIRE, 500, 5),
        )
        for i in range(count)
    ]
    ft = tmp_path / "features.csv"
    write_feature_table(samples, ft)
    write_manifest(
        [
            ManifestEntry(
                s.network_id, f"{s.network_id}.edges", s.label, s.bias,
                100 if s.n_nodes == 50 else 30, s.n_nodes,
            )
            for s in samples
        ],
        tmp_path / "manifest.csv",
    )
    out = tmp_path / "report.json"

    def n_samples(extra):
        assert main(["report", "--features", str(ft), "--out", str(out)] + extra) == EXIT_OK
        return json.loads(out.read_text())["n_samples"]

    assert n_samples([]) == 30
    assert json.loads(out.read_text())["config"]["min_tweets"] == 50  # the default
    assert n_samples(["--bias", "left", "--bias", "right"]) == 20
    assert n_samples(["--bucket", "0-100"]) == 20
    assert n_samples(["--exclude-source", "site2"]) == 20
    assert n_samples(["--manifest", str(tmp_path / "manifest.csv"), "--min-tweets", "50"]) == 20


@pytest.mark.parametrize(
    "options, kept",
    [
        ([], ["large", "medium", "small", "thin"]),  # no manifest, no tweet-count filter
        (["--manifest", "manifest.csv"], ["large", "medium", "small"]),  # 49 tweets < 50
        (["--manifest", "manifest.csv", "--min-tweets", "5000"],
         "no labeled samples in bucket all pass --min-tweets"),
        (["--manifest", "manifest.csv", "--bias", "right", "--bias", "satire"],
         ["large", "medium"]),
        (["--manifest", "manifest.csv", "--exclude-source", "med", "--exclude-source", "lar"],
         ["small"]),
    ],
    ids=["no-manifest", "manifest", "min-tweets-5000", "bias-right-satire", "exclude-med-lar"],
)
def test_corpus_filters_select_samples(tmp_path, monkeypatch, options, kept):
    # the samples classify and report run on, from the one list of corpus filters
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(3)
    members = [  # (id, label, bias, nodes, tweets); one per bucket plus filter bait
        ("small", Label.MAINSTREAM, Bias.NONE, 60, 80),
        ("medium", Label.DISINFORMATION, Bias.RIGHT, 150, 300),
        ("large", Label.DISINFORMATION, Bias.SATIRE, 1200, 2000),
        ("thin", Label.MAINSTREAM, Bias.NONE, 30, 49),
        ("nolabel", Label.UNLABELED, Bias.NONE, 70, 90),
    ]
    write_feature_table(
        [Sample(nid, feature_row(rng, False), label, bias, n) for nid, label, bias, n, _ in members],
        "features.csv",
    )
    write_manifest(
        [ManifestEntry(nid, f"{nid}.edges", label, bias, tweets, n)
         for nid, label, bias, n, tweets in members],
        "manifest.csv",
    )
    args = cli.build_parser().parse_args(["report", "--features", "features.csv", "--out", "r.json",
                                          *options])
    config = cli.config_from_args(args)
    if isinstance(kept, str):
        with pytest.raises(DiffnetError, match=f"^{kept}$"):
            cli._filtered_samples(args, config)
    else:
        assert [s.network_id for s in cli._filtered_samples(args, config)] == kept


def test_report_single_class_is_fatal(tmp_path, capsys):
    rng = np.random.default_rng(0)
    samples = [
        Sample(f"m-{i}", feature_row(rng, False), Label.MAINSTREAM, Bias.NONE, 50) for i in range(8)
    ]
    ft = tmp_path / "features.csv"
    write_feature_table(samples, ft)

    code = main(["report", "--features", str(ft), "--out", str(tmp_path / "r.json")])

    assert code == EXIT_FATAL
    assert "both classes required for a report" in capsys.readouterr().err


def test_classify_and_report_refuse_non_finite_feature_cells(tmp_path, capsys):
    ft = tmp_path / "features.csv"
    write_labeled_table(ft)
    lines = ft.read_text().splitlines(keepends=True)
    for line_no in range(2, 52, 10):  # five rows get a nan cc
        cells = lines[line_no - 1].split(",")
        cells[9] = "nan"
        lines[line_no - 1] = ",".join(cells)
    ft.write_text("".join(lines))

    for argv in (["classify", "--classifier", "knn", "--k", "5"], ["report"]):
        code = main(argv + ["--features", str(ft), "--out", str(tmp_path / "r.json")])
        assert code == EXIT_FATAL
        assert f"error: {ft}:2: non-finite cc: 'nan'" in capsys.readouterr().err


def test_classify_and_report_without_options_record_run_config_defaults(tmp_path):
    # an option not given takes the RunConfig default, and the report says so
    ft = tmp_path / "features.csv"
    write_labeled_table(ft)
    for subcommand in ("classify", "report"):
        out = tmp_path / f"{subcommand}.json"
        assert main([subcommand, "--features", str(ft), "--out", str(out)]) == EXIT_OK
        config = json.loads(out.read_text())["config"]
        defaults = RunConfig(subcommand=subcommand).provenance()
        assert {name: config[name] for name in defaults} == defaults


# --- option validation ------------------------------------------------------


_X = ["--features", "x", "--out", "y"]
_GENERATE = ["--profile", "broadcast_like", "--count", "2", "--out-dir", "g"]

# (argv, the part of the error line that names the rule and its option)
_INVALID_OPTIONS = [
    (["classify", *_X, "--k", "0"], "--k must be >= 1"),
    (["classify", *_X, "--folds", "0"], "--folds must be >= 1"),
    (["classify", *_X, "--test-fraction", "1.5"], "--test-fraction must be in (0, 1)"),
    (["classify", *_X, "--manifest", "m.csv", "--min-tweets", "-1"], "--min-tweets must be >= 0"),
    (["distances", "m.csv", "--out", "d.csv", "--which", "bogus"],
     "argument --which: invalid choice: 'bogus' (choose from dgcd13, portrait)"),
    (["generate", "--profile", "nonsense", "--count", "1", "--out-dir", "g"],
     "argument --profile: invalid choice: 'nonsense' (choose from broadcast_like, clustered_like)"),
    (["features", "m.csv", "--out", "f.csv", "--bucket", "0-100"],
     "unrecognized arguments: --bucket 0-100"),
    # the tweet counts come from --manifest: without it the filter has no input
    (["classify", *_X, "--min-tweets", "100"], "--min-tweets needs --manifest"),
    (["report", *_X, "--min-tweets", "100000"], "--min-tweets needs --manifest"),
    # options the chosen mode would not read
    (["distances", "m.csv", "--out", "d.csv", "--which", "portrait", "--include-large"],
     "--include-large has no effect with --which portrait"),
    (["distances", "m.csv", "--out", "d.csv", "--which", "dgcd13", "--portrait-undirected"],
     "--portrait-undirected has no effect with --which dgcd13"),
    (["distances", "m.csv", "--out", "d.csv", "--portrait-undirected"],  # dgcd13 by default
     "--portrait-undirected has no effect with --which dgcd13"),
    (["classify", *_X, "--classifier", "lr", "--k", "5"], "--k has no effect with --classifier lr"),
    (["classify", *_X, "--k", "5"], "--k has no effect with --classifier lr"),  # lr by default
    (["classify", *_X, "--classifier", "knn", "--distances", "d"],
     "--distances has no effect with --classifier knn"),
    (["classify", *_X, "--distances", "d"], "--distances has no effect with --classifier lr"),
    # options the chosen mode needs
    (["classify", *_X, "--classifier", "knn-distance"],
     "--classifier knn-distance needs --distances"),
    (["generate", "--profile", "clustered_like", "--count", "0", "--out-dir", "g",
      "--bucket", "0-100"], "--count must be >= 1"),
    (["generate", *_GENERATE], "the following arguments are required: --bucket"),
    (["generate", *_GENERATE, "--bucket", "all"],
     "argument --bucket: invalid choice: 'all' (choose from 0-100, 100-1000, 1000+)"),
    (["classify", *_X, "--seed", "-1"], "--seed must be >= 0"),
    (["generate", *_GENERATE, "--bucket", "0-100", "--seed", "-1"], "--seed must be >= 0"),
    (["classify", *_X, "--bias", "bogus"],
     "argument --bias: invalid choice: 'bogus' (choose from left, centre, right, satire, none)"),
    (["classify", *_X, "--classifier", "bogus"],
     "argument --classifier: invalid choice: 'bogus' (choose from lr, knn, knn-distance)"),
    # build writes every network it builds; the tweet filter is classify's and report's
    (["build", "e.jsonl", "--out-dir", "o", "--min-tweets", "5"],
     "unrecognized arguments: --min-tweets 5"),
    # an empty --manifest holds no tweet counts either
    (["report", *_X, "--manifest", "", "--min-tweets", "5"], "--min-tweets needs --manifest"),
]


@pytest.mark.parametrize(
    "argv, message", _INVALID_OPTIONS, ids=[f"argv{i}" for i in range(len(_INVALID_OPTIONS))]
)
def test_invalid_options_exit_two(argv, message, tmp_path, monkeypatch, capsys):
    # argparse and config_from_args refuse bad values, options the subcommand
    # does not read and options its mode needs, before any command code runs,
    # with the usage line of the subcommand
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: diffnet {argv[0]} ")
    assert f"\ndiffnet {argv[0]}: error: {message}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, name",
    [
        (["distances", "m.csv", "--out", "d.csv", "--include-large"], "include_large"),
        (["distances", "m.csv", "--out", "d.csv", "--which", "portrait", "--portrait-undirected"],
         "portrait_undirected"),
        (["classify", "--features", "x", "--out", "y", "--classifier", "knn", "--k", "5"], "k"),
        (["classify", "--features", "x", "--out", "y", "--classifier", "knn-distance",
          "--distances", "d", "--k", "5"], "k"),
    ],
)
def test_options_pass_with_the_mode_that_reads_them(argv, name):
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    assert getattr(config, name) == (5 if name == "k" else True)


def test_each_subcommand_takes_exactly_its_options():
    (subcommands,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = {
        name: {s for a in p._actions for s in a.option_strings or [a.dest]} - {"-h", "--help"}
        for name, p in subcommands.choices.items()
    }
    assert options == {
        "build": {"events_file", "--out-dir", "--direction"},
        "features": {"manifest", "--out", "--clustering"},
        "distances": {"manifest", "--out", "--which", "--include-large", "--portrait-undirected"},
        "classify": {
            "--features", "--distances", "--manifest", "--out", "--roc-out", "--classifier",
            "--k", "--folds", "--test-fraction", "--bias", "--exclude-source", "--seed",
            "--bucket", "--min-tweets",
        },
        "generate": {"--profile", "--count", "--out-dir", "--seed", "--bucket"},
        "report": {
            "--features", "--manifest", "--out", "--bias", "--exclude-source", "--bucket",
            "--min-tweets",
        },
    }


def test_enum_option_metavars_list_exactly_the_values_they_accept():
    # a value is accepted when the command line parses and passes config_from_args
    minimal = {
        "build": ["e.jsonl", "--out-dir", "o"],
        "features": ["m.csv", "--out", "f.csv"],
        "distances": ["m.csv", "--out", "d.csv"],
        "generate": ["--profile", "broadcast_like", "--count", "1", "--out-dir", "g",
                     "--bucket", "0-100"],
        "classify": ["--features", "x", "--out", "y"],
        "report": ["--features", "x", "--out", "y"],
    }
    # what a value's mode needs besides the minimal command line
    needs = {"knn-distance": ["--distances", "d"]}

    def accepts(argv):
        try:
            cli.config_from_args(cli.build_parser().parse_args(argv))
        except (SystemExit, ValueError):
            return False
        return True

    (subcommands,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    checked = set()
    for name, p in subcommands.choices.items():
        for action in p._actions:
            if not (action.metavar or "").startswith("{"):
                continue
            option = action.option_strings[0]
            listed = action.metavar[1:-1].split(",")
            kind = type(action.type(listed[0]))
            # every member of an enum, listed or not; of plain values, one unlisted
            values = [m.value for m in kind] if issubclass(kind, Enum) else [*listed, "bogus"]
            for value in values:
                argv = [name, *minimal[name], option, value, *needs.get(value, [])]
                assert accepts(argv) == (value in listed), argv
            checked.add((name, option))
    assert checked == {
        ("build", "--direction"), ("features", "--clustering"), ("distances", "--which"),
        ("generate", "--profile"), ("generate", "--bucket"), ("classify", "--bias"),
        ("classify", "--bucket"), ("classify", "--classifier"), ("report", "--bias"),
        ("report", "--bucket"),
    }


def test_readme_command_lines_are_valid():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("diffnet ")]
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    for argv in commands:
        assert cli.config_from_args(cli.build_parser().parse_args(argv)).subcommand == argv[0]


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("DIFFNET_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("DIFFNET_WORKERS", "4")
    assert worker_count() == 4
    for bad in ("not-a-number", "0", "-3"):
        monkeypatch.setenv("DIFFNET_WORKERS", bad)
        with pytest.raises(DiffnetError, match="DIFFNET_WORKERS"):
            worker_count()


@pytest.mark.parametrize("bad", ["abc", "0", "-3"])
def test_distances_rejects_bad_worker_count(tmp_path, capsys, monkeypatch, bad):
    manifest = write_corpus(
        tmp_path, [make_network(3, [(0, 1), (1, 2)], network_id=f"net-{i}") for i in range(2)]
    )
    monkeypatch.setenv("DIFFNET_WORKERS", bad)
    for command in ("features", "distances"):
        out = tmp_path / f"{command}.csv"

        code = main([command, str(manifest), "--out", str(out)])

        assert code == EXIT_FATAL
        err = capsys.readouterr().err
        assert "DIFFNET_WORKERS" in err and repr(bad) in err
        assert not out.exists()


def test_network_id_for_url_is_stable_and_filesystem_safe():
    url = "https://ex.com/articles/Story Title!?x=1"
    nid = network_id_for_url(url)
    assert nid == network_id_for_url(url)
    assert "/" not in nid and " " not in nid
    assert network_id_for_url("https://ex.com/a") != network_id_for_url("https://ex.com/b")


# --- text encodings -----------------------------------------------------------


def test_every_command_names_the_encoding_of_the_files_it_opens(tmp_path):
    # -X warn_default_encoding warns at each text file opened in the
    # locale's encoding, which is not UTF-8 on every platform
    corpus, events_path = tmp_path / "corpus", tmp_path / "events.jsonl"
    write_events(events_path, two_story_events())
    ft, d, out = tmp_path / "features.csv", tmp_path / "d.csv", tmp_path / "out"
    generate = ["generate", "--count", "20", "--bucket", "0-100", "--out-dir", str(corpus)]
    samples = ["--features", str(ft), "--manifest", str(corpus / "manifest.csv")]
    commands = [
        generate + ["--profile", "broadcast_like"],
        generate + ["--profile", "clustered_like"],
        ["build", str(events_path), "--out-dir", str(tmp_path / "built")],
        ["features", str(corpus / "manifest.csv"), "--out", str(ft)],
        ["distances", str(corpus / "manifest.csv"), "--out", str(d)],
        ["classify", *samples, "--folds", "2", "--out", f"{out}-lr.json", "--roc-out", f"{out}-roc.csv"],
        ["classify", *samples, "--folds", "2", "--classifier", "knn-distance", "--distances", str(d),
         "--out", f"{out}-knn.json"],
        ["report", *samples, "--out", f"{out}-report.json"],
    ]
    script = (
        "import json, sys\n"
        "from diffnet.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    run = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-c", script, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )

    assert "'encoding' argument not specified" not in run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [EXIT_OK] * len(commands), run.stderr
