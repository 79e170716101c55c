"""The six input formats read through one line reader: UTF-8 with a byte
order mark accepted at the start of the file only, lines ended as ``csv``
ends them, and a bad line failing at its line number (skipped, for events)."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diffnet import (
    Bias,
    DiffusionNetwork,
    FeatureVector,
    FileFormatError,
    Label,
    ManifestEntry,
    Sample,
    graphs,
    load_network,
    read_distance_matrix,
    read_events,
    read_feature_table,
    read_manifest,
    save_network,
    write_distance_matrix,
    write_feature_table,
    write_manifest,
)

BOM = b"\xef\xbb\xbf"


def write_valid_files(directory) -> None:
    """One valid file of each format in ``directory``, with a non-ASCII name
    in each, so that byte edits can split a multi-byte character."""
    names = ("ana", "bo", "kai", "zoë")
    edges = {("ana", "bo"), ("bo", "zoë"), ("zoë", "ana")}
    save_network(DiffusionNetwork("net", frozenset(names), frozenset(edges)), directory / "net.edges")
    events = [
        {"tweet_id": "t0", "user": "zoë", "interaction": "original", "url": "u/1", "timestamp": 0},
        {"tweet_id": "t1", "user": "bo", "target_user": "zoë", "interaction": "retweet",
         "url": "u/1", "timestamp": 1.5},
        {"tweet_id": "t2", "user": "ana", "target_user": "bo", "interaction": "mention",
         "url": "u/2", "timestamp": 2},
    ]
    (directory / "events.jsonl").write_text(
        "".join(json.dumps(e, ensure_ascii=False) + "\n" for e in events), encoding="utf-8"
    )
    write_manifest(
        [
            ManifestEntry("zoë-1", "zoë-1.edges", Label.MAINSTREAM, Bias.NONE, 12, 4),
            ManifestEntry("net-2", "net-2.edges", Label.DISINFORMATION, Bias.RIGHT, 7),
        ],
        directory / "manifest.csv",
    )
    write_feature_table(
        [
            Sample("zoë-1", FeatureVector(3, 1, 2, 3, 2, 0.25, 1), Label.MAINSTREAM, Bias.NONE, 4),
            Sample("net-2", FeatureVector(9, 4, 1, 9, 3, 0.5, 2), Label.DISINFORMATION, Bias.LEFT, 9),
        ],
        directory / "features.csv",
    )
    matrix = np.array([[0.0, 0.5, 1.25], [0.5, 0.0, 2.0], [1.25, 2.0, 0.0]])
    write_distance_matrix(["zoë-1", "net-2", "c"], matrix, directory / "matrix.csv")


def _matrix(path):
    ids, matrix = read_distance_matrix(path)
    return ids, matrix.tolist()


# per format: the file that is edited, and what reads it from the directory
FORMATS = {
    "events": ("events.jsonl", lambda d: read_events(d / "events.jsonl")),
    "edges": ("net.edges", lambda d: load_network(d / "net.edges")),
    "nodes": ("net.nodes", lambda d: load_network(d / "net.edges")),
    "manifest": ("manifest.csv", lambda d: read_manifest(d / "manifest.csv")),
    "feature table": ("features.csv", lambda d: read_feature_table(d / "features.csv")),
    "matrix": ("matrix.csv", lambda d: _matrix(d / "matrix.csv")),
}
FATAL = [name for name in FORMATS if name != "events"]  # the events reader skips a bad line
# the failures of a whole file, which no one line causes
FILE_LEVEL = re.compile(r"missing columns|row\(s\) for the \d+ header ids|empty distance matrix")

# separators, quotes, line ends, NUL, a byte never in UTF-8, the BOM's bytes
# one by one and together, and a two-byte character
EDIT_BYTES = [b",", b"\t", b'"', b"\n", b"\r", b"\0", b"\xff", *(bytes([b]) for b in BOM), BOM,
              "é".encode()]
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace", "delete"]),
        st.integers(min_value=0, max_value=1 << 16),
        st.sampled_from(EDIT_BYTES),
    ),
    min_size=1,
    max_size=4,
)


def edited(data: bytes, edits) -> bytes:
    for kind, at, piece in edits:
        at %= len(data) + 1
        if kind == "insert":
            data = data[:at] + piece + data[at:]
        elif kind == "replace":
            data = data[:at] + piece + data[at + 1 :]
        else:
            data = data[:at] + data[at + 1 :]
    return data


@pytest.fixture(scope="module")
def valid_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("formats")
    write_valid_files(directory)
    return directory


@pytest.mark.filterwarnings("ignore:.*collapsed")
@pytest.mark.parametrize("fmt", list(FORMATS))
@given(edits=EDITS)
def test_an_edited_file_reads_or_fails_at_a_line(valid_dir, fmt, edits):
    name, read = FORMATS[fmt]
    path = valid_dir / name
    original = path.read_bytes()
    path.write_bytes(edited(original, edits))
    try:
        if fmt == "events":
            read(valid_dir)  # skips what it cannot read, and never raises
            return
        try:
            read(valid_dir)
        except FileFormatError as exc:
            assert exc.line_no is not None or FILE_LEVEL.search(str(exc)), str(exc)
    finally:
        path.write_bytes(original)


@pytest.mark.parametrize("fmt", FATAL)
def test_a_byte_order_mark_at_the_start_reads_as_the_file_without_it(tmp_path, fmt):
    name, read = FORMATS[fmt]
    write_valid_files(tmp_path)
    expected = read(tmp_path)
    path = tmp_path / name
    path.write_bytes(BOM + path.read_bytes())
    assert read(tmp_path) == expected


@pytest.mark.parametrize("fmt", FATAL)
def test_a_byte_that_is_not_utf8_fails_at_its_line(tmp_path, fmt):
    name, read = FORMATS[fmt]
    write_valid_files(tmp_path)
    path = tmp_path / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = b"\xff" + lines[1]
    path.write_bytes(b"".join(lines))
    with pytest.raises(FileFormatError) as info:
        read(tmp_path)
    assert str(info.value) == (
        f"{path}:2: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    )


def test_numbered_lines_ends_lines_as_csv_does(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes(BOM + b"a\nb\r\nc\rd\xef\xbb\xbf\n\ne")
    assert list(graphs.numbered_lines(path)) == [
        (1, "a\n"), (2, "b\r\n"), (3, "c\r"), (4, "d\ufeff\n"), (5, "\n"), (6, "e")
    ]


def test_numbered_lines_numbers_skips_and_fails_across_blocks(tmp_path):
    # about 240 KB of events, read in several blocks; two lines are not
    # UTF-8 and two are not JSON, in different blocks
    line = json.dumps({"tweet_id": "t", "user": "a", "interaction": "original",
                       "url": "https://example.org/" + "x" * 40, "timestamp": 0}).encode()
    lines = [line] * 2000
    lines[3], lines[1500] = b"nonsense", b"{"
    lines[4], lines[1499] = line[:-1] + b"\xff}", b"\xc3(" + line
    path = tmp_path / "events.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")

    events, skipped = read_events(path)

    assert len(events) == 1996
    assert [line_no for line_no, _ in skipped] == [4, 5, 1500, 1501]
    with pytest.raises(FileFormatError) as info:
        list(graphs.numbered_lines(path))
    assert info.value.line_no == 5
    assert [n for n, _ in graphs.numbered_lines(path, [])] == [
        n for n in range(1, 2001) if n not in (5, 1500)
    ]
