"""Manifest, feature-table, and distance-matrix I/O plus dataset assembly."""

from __future__ import annotations

import csv
import io
import re

import numpy as np
import pytest

from diffnet import (
    Bias,
    DatasetError,
    FileFormatError,
    Label,
    ManifestEntry,
    Sample,
    dataset_from_samples,
    distance_matrix,
    extract_features,
    load_network,
    network_correlations,
    portrait,
    read_distance_matrix,
    read_feature_table,
    read_manifest,
    save_network,
    write_distance_matrix,
    write_feature_table,
    write_manifest,
)

from diffnet.dataset import signature
from util import make_network


def entry(i, label=Label.MAINSTREAM, bias=Bias.NONE, tweets=80, path=None, n_nodes=None):
    return ManifestEntry(
        network_id=f"net-{i:03d}",
        path=path or f"net-{i:03d}.edges",
        label=label,
        bias=bias,
        tweet_count=tweets,
        n_nodes=n_nodes,
    )


# --- manifests ---------------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    entries = [
        entry(2, Label.DISINFORMATION, Bias.RIGHT, tweets=120, n_nodes=77),
        entry(1, Label.MAINSTREAM, Bias.NONE, tweets=50),
        entry(3, Label.UNLABELED, Bias.LEFT, tweets=200, n_nodes=5),
    ]
    path = tmp_path / "manifest.csv"
    write_manifest(entries, path)
    loaded = read_manifest(path)
    # written sorted by id; optional n_nodes survives, including its absence
    assert [e.network_id for e in loaded] == ["net-001", "net-002", "net-003"]
    assert loaded[0].n_nodes is None
    assert loaded[1] == entries[0]
    assert loaded[2].bias is Bias.LEFT


def test_manifest_missing_column_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("network_id,path,label,bias\nx,y,mainstream,none\n")
    with pytest.raises(FileFormatError, match="tweet_count"):
        read_manifest(path)


def test_manifest_bad_row_reports_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "network_id,path,label,bias,tweet_count\n"
        "a,a.edges,mainstream,none,60\n"
        "b,b.edges,nonsense,none,60\n"
    )
    with pytest.raises(FileFormatError, match="m.csv:3"):
        read_manifest(path)


def test_manifest_bad_tweet_count_reports_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "network_id,path,label,bias,tweet_count\n" "a,a.edges,mainstream,none,many\n"
    )
    with pytest.raises(FileFormatError, match=":2"):
        read_manifest(path)
    # counts are never negative
    for row, message in (("-7,", "negative tweet_count: -7"), ("60,-2", "negative n_nodes: -2")):
        path.write_text(
            "network_id,path,label,bias,tweet_count,n_nodes\n"
            "a,a.edges,mainstream,none,60,5\n"
            f"b,b.edges,mainstream,none,{row}\n"
        )
        with pytest.raises(FileFormatError, match=re.escape(f"m.csv:3: {message}")):
            read_manifest(path)


def test_manifest_duplicate_id_reports_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "network_id,path,label,bias,tweet_count\n"
        "a,a.edges,mainstream,none,60\n"
        "b,b.edges,mainstream,none,60\n"
        "a,c.edges,disinformation,none,70\n"
    )
    with pytest.raises(FileFormatError, match=r"m\.csv:4: duplicate network_id 'a', first on line 2"):
        read_manifest(path)


def test_manifest_surplus_cell_reports_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "network_id,path,label,bias,tweet_count\n"
        "a,a.edges,mainstream,none,60\n"
        "b,b.edges,mainstream,none,60,7\n"
    )
    with pytest.raises(FileFormatError, match=r"m\.csv:3: row has 6 cells, the header 5"):
        read_manifest(path)


# --- feature tables ----------------------------------------------------------


def test_feature_table_roundtrip(tmp_path):
    nets = {
        "w": make_network(3, [(0, 1), (1, 2), (2, 0)], network_id="w"),
        "v": make_network(4, [(0, 1), (2, 3)], network_id="v"),
    }
    written = [
        Sample(nid, extract_features(net),
               Label.MAINSTREAM if nid == "v" else Label.DISINFORMATION, Bias.NONE, net.n_nodes)
        for nid, net in nets.items()
    ]
    path = tmp_path / "features.csv"
    write_feature_table(written, path)
    header = path.read_text().splitlines()[0]
    assert header == "network_id,label,bias,n_nodes,scc,lscc,wcc,lwcc,dwcc,cc,kc"
    samples = read_feature_table(path)
    assert samples == sorted(written, key=lambda s: s.network_id)  # sorted on write
    by_id = {s.network_id: s for s in samples}
    assert by_id["w"].features == extract_features(nets["w"])
    assert by_id["w"].label is Label.DISINFORMATION
    assert by_id["v"].n_nodes == 4


def test_feature_table_bad_cell_reports_line(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(
        "network_id,label,bias,n_nodes,scc,lscc,wcc,lwcc,dwcc,cc,kc\n"
        "a,mainstream,none,3,1,1,1,3,1,zero,1\n"
    )
    with pytest.raises(FileFormatError, match=":2"):
        read_feature_table(path)
    # a negative node count would file the sample under bucket 0-100
    path.write_text(
        "network_id,label,bias,n_nodes,scc,lscc,wcc,lwcc,dwcc,cc,kc\n"
        "a,mainstream,none,-5,1,1,1,3,1,0.5,1\n"
    )
    with pytest.raises(FileFormatError, match="f.csv:2: negative n_nodes: -5"):
        read_feature_table(path)


@pytest.mark.parametrize(
    "column, cell", [("cc", "nan"), ("cc", "inf"), ("cc", "-inf"), ("scc", "inf"), ("kc", "NaN")]
)
def test_feature_table_non_finite_cell_names_line_and_column(tmp_path, column, cell):
    path = tmp_path / "f.csv"
    row = dict(zip(("scc", "lscc", "wcc", "lwcc", "dwcc", "cc", "kc"), "1 1 1 3 1 0.5 1".split()))
    row[column] = cell
    path.write_text(
        "network_id,label,bias,n_nodes,scc,lscc,wcc,lwcc,dwcc,cc,kc\n"
        "a,mainstream,none,3,1,1,1,3,1,0.5,1\n"
        "b,mainstream,none,3," + ",".join(row.values()) + "\n"
    )
    with pytest.raises(FileFormatError, match=re.escape(f"f.csv:3: non-finite {column}: {cell!r}")):
        read_feature_table(path)


def test_feature_table_missing_column_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("network_id,label,bias\n")
    with pytest.raises(FileFormatError, match="missing columns"):
        read_feature_table(path)


def test_feature_table_surplus_cell_reports_line(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(
        "network_id,label,bias,n_nodes,scc,lscc,wcc,lwcc,dwcc,cc,kc\n"
        "a,mainstream,none,3,1,1,1,3,1,0.0,1,2.5,9\n"
    )
    with pytest.raises(FileFormatError, match=r"f\.csv:2: row has 13 cells, the header 11"):
        read_feature_table(path)


def test_feature_table_duplicate_id_reports_line(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(
        "network_id,label,bias,n_nodes,scc,lscc,wcc,lwcc,dwcc,cc,kc\n"
        "a,mainstream,none,3,1,1,1,3,1,0.0,1\n"
        "b,mainstream,none,3,1,1,1,3,1,0.0,1\n"
        "a,disinformation,none,4,1,1,1,4,1,0.0,1\n"
    )
    with pytest.raises(FileFormatError, match=r"f\.csv:4: duplicate network_id 'a', first on line 2"):
        read_feature_table(path)


# --- distance matrices -------------------------------------------------------


def test_distance_matrix_roundtrip(tmp_path):
    ids = ["a", "b", "c"]
    matrix = np.array([[0.0, 1.5, 2.25], [1.5, 0.0, 0.125], [2.25, 0.125, 0.0]])
    path = tmp_path / "d.csv"
    write_distance_matrix(ids, matrix, path)
    loaded_ids, loaded = read_distance_matrix(path)
    assert loaded_ids == ids
    assert np.array_equal(loaded, matrix)  # repr round-trips doubles exactly


def test_distance_matrix_bytes_match_per_cell_repr(tmp_path):
    # ids that need csv quoting (a comma, a quote, a line break, empty) and
    # values that repeat, differ only in sign (-0.0) or sit at the extremes
    ids = ["plain", "com,ma", 'q"uote', "two\r\nlines", "", "last"]
    rng = np.random.default_rng(4)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, 0.1, 1 / 3, 2.5])
    matrix = pool[rng.integers(0, len(pool), size=(len(ids), len(ids)))]
    path = tmp_path / "d.csv"
    write_distance_matrix(ids, matrix, path)
    assert path.read_bytes() == _per_cell_repr_csv(ids, matrix)
    assert b"-0.0," in path.read_bytes() and b"5e-324" in path.read_bytes()
    loaded_ids, loaded = read_distance_matrix(path)
    assert loaded_ids == ids
    assert np.array_equal(loaded.view(np.int64), matrix.view(np.int64))


def _per_cell_repr_csv(ids, matrix) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["network_id", *ids])
    for i, network_id in enumerate(ids):
        writer.writerow([network_id] + [repr(float(v)) for v in matrix[i]])
    return buf.getvalue().encode()


def test_distance_matrix_mirrored_cells_keep_their_own_text(tmp_path):
    # a symmetric matrix (lower cells reuse the text above) with a few
    # cells broken out of symmetry, including a mirrored -0.0 / 0.0 pair
    ids = ['q"uote', "com,ma", "a", "b", "c", "d", "e"]
    rng = np.random.default_rng(11)
    upper = np.triu(rng.random((len(ids), len(ids))), 1)
    matrix = upper + upper.T
    matrix[4, 1] = 7.5
    matrix[1, 5], matrix[5, 1] = 0.0, -0.0
    matrix[6, 2] = np.nextafter(matrix[2, 6], 1.0)
    path = tmp_path / "d.csv"
    write_distance_matrix(ids, matrix, path)
    assert path.read_bytes() == _per_cell_repr_csv(ids, matrix)
    loaded_ids, loaded = read_distance_matrix(path)
    assert loaded_ids == ids
    assert np.array_equal(loaded.view(np.int64), matrix.view(np.int64))


def test_distance_matrix_shape_mismatch_rejected(tmp_path):
    with pytest.raises(ValueError, match="shape"):
        write_distance_matrix(["a", "b"], np.zeros((3, 3)), tmp_path / "d.csv")


def test_distance_matrix_row_id_mismatch_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("network_id,a,b\na,0.0,1.0\nc,1.0,0.0\n")
    with pytest.raises(FileFormatError, match="d.csv:3: row ids do not match header ids: expected 'b', found 'c'"):
        read_distance_matrix(path)


def test_distance_matrix_with_too_few_rows_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("network_id,a,b\na,0.0,1.0\n")
    with pytest.raises(FileFormatError, match=re.escape("d.csv: 1 row(s) for the 2 header ids")):
        read_distance_matrix(path)


def test_distance_matrix_ragged_row_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("network_id,a,b\na,0.0\n")
    with pytest.raises(FileFormatError, match="d.csv:2"):
        read_distance_matrix(path)


def test_distance_matrix_non_finite_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("network_id,a,b\na,0.0,1.0\nb,nan,0.0\n")
    with pytest.raises(FileFormatError, match="d.csv:3: non-finite"):
        read_distance_matrix(path)


def test_distance_matrix_bad_cell_names_its_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("network_id,a,b\na,0.0,1.0\nb,x,0.0\n")
    with pytest.raises(FileFormatError, match="d.csv:3: could not convert string to float: 'x'"):
        read_distance_matrix(path)


def test_distance_matrix_extra_rows_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("network_id,a,b\na,0.0,1.0\nb,1.0,0.0\nc,2.0,3.0\n")
    with pytest.raises(FileFormatError, match="d.csv:4: more rows than the 2 header ids"):
        read_distance_matrix(path)


def test_distance_matrix_duplicate_header_id_rejected(tmp_path):
    # rows repeat the header, so without the check both "a" rows would read back
    path = tmp_path / "d.csv"
    path.write_text("network_id,a,b,a\na,0.0,1.0,0.0\nb,1.0,0.0,1.0\na,0.0,1.0,0.0\n")
    with pytest.raises(FileFormatError, match="d.csv:1: duplicate ids in header: a$"):
        read_distance_matrix(path)


# --- line numbers ------------------------------------------------------------

_MANIFEST_HEADER = "network_id,path,label,bias,tweet_count\n"
_FEATURE_HEADER = "network_id,label,bias,n_nodes,scc,lscc,wcc,lwcc,dwcc,cc,kc\n"

# (reader, text, line): the last row is bad and ends on physical line
# ``line``; a quoted line break or a blank line comes before it
_LINE_CASES = {
    "manifest-quoted-newline": (
        read_manifest,
        _MANIFEST_HEADER + 'a,"a\nb.edges",mainstream,none,60\nc,c.edges,nonsense,none,60\n',
        4,
    ),
    "manifest-blank-line": (
        read_manifest,
        _MANIFEST_HEADER + "a,a.edges,mainstream,none,60\n\nc,c.edges,nonsense,none,60\n",
        4,
    ),
    "feature-table-quoted-newline": (
        read_feature_table,
        _FEATURE_HEADER + '"a\nb",mainstream,none,3,1,1,1,3,1,0.5,1\n'
        "c,mainstream,none,3,1,1,1,3,1,zero,1\n",
        4,
    ),
    "feature-table-blank-line": (
        read_feature_table,
        _FEATURE_HEADER + "a,mainstream,none,3,1,1,1,3,1,0.5,1\n\n"
        "c,mainstream,none,3,1,1,1,3,1,zero,1\n",
        4,
    ),
    "matrix-quoted-newline": (
        read_distance_matrix,
        'network_id,"a\nb",c\n"a\nb",0.0,1.0\nc,x,0.0\n',
        5,
    ),
    # the reader keeps blank rows, so the blank line is the bad row
    "matrix-blank-line": (read_distance_matrix, "network_id,a,b\na,0.0,1.0\n\nb,1.0,0.0\n", 3),
}


@pytest.mark.parametrize("case", list(_LINE_CASES))
def test_errors_name_the_physical_line(tmp_path, case):
    read, text, line = _LINE_CASES[case]
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(FileFormatError, match=re.escape(f"t.csv:{line}: ")):
        read(path)


@pytest.mark.parametrize(
    "first_row, first_line",
    [('a,"a\nb.edges",mainstream,none,60\n', 3), ("a,a.edges,mainstream,none,60\n\n", 2)],
    ids=["quoted-newline", "blank-line"],
)
def test_duplicate_id_names_both_physical_lines(tmp_path, first_row, first_line):
    path = tmp_path / "m.csv"
    path.write_text(_MANIFEST_HEADER + first_row + "a,c.edges,mainstream,none,60\n")
    message = f"m.csv:4: duplicate network_id 'a', first on line {first_line}"
    with pytest.raises(FileFormatError, match=re.escape(message)):
        read_manifest(path)


# --- number cells ------------------------------------------------------------

# each file's line 3 holds {cell} in a number column
_NUMBER_CELL_FILES = {
    "manifest": (
        read_manifest,
        "network_id,path,label,bias,tweet_count,n_nodes\n"
        "a,a.edges,mainstream,none,60,3\n"
        "b,b.edges,mainstream,none,{cell},3\n",
    ),
    "feature-table": (
        read_feature_table,
        "network_id,label,bias,n_nodes,scc,lscc,wcc,lwcc,dwcc,cc,kc\n"
        "a,mainstream,none,3,1,1,1,3,1,0.5,1\n"
        "b,mainstream,none,3,1,1,1,3,1,{cell},1\n",
    ),
    "distance-matrix": (read_distance_matrix, "network_id,a,b\na,0.0,1.0\nb,{cell},0.0\n"),
}


@pytest.mark.parametrize(
    "cell", ["1_0", " 1 ", "\u0661"], ids=["underscore", "whitespace", "arabic-indic-one"]
)
@pytest.mark.parametrize("kind", list(_NUMBER_CELL_FILES))
def test_number_cells_python_alone_reads_are_rejected(tmp_path, kind, cell):
    # int and float take each of these cells; no writer here produces them
    read, text = _NUMBER_CELL_FILES[kind]
    path = tmp_path / "t.csv"
    path.write_text(text.format(cell=cell), encoding="utf-8")
    with pytest.raises(FileFormatError, match=re.escape(f"t.csv:3: not a plain number: {cell!r}")):
        read(path)


def test_feature_table_short_row_reports_line(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(
        "network_id,label,bias,n_nodes,scc,lscc,wcc,lwcc,dwcc,cc,kc\n"
        "a,mainstream,none,3,1,1\n"
    )
    with pytest.raises(FileFormatError, match="f.csv:2: row has too few cells"):
        read_feature_table(path)


@pytest.mark.parametrize("distance", ["dgcd13", "portrait"])
def test_distance_matrix_of_one_and_two_signatures(distance):
    signature = network_correlations if distance == "dgcd13" else portrait
    path = signature(make_network(3, [(0, 1), (1, 2)]))
    star = signature(make_network(4, [(0, 1), (0, 2), (0, 3)]))
    assert np.array_equal(distance_matrix([path], distance), np.zeros((1, 1)))
    two = distance_matrix([path, star], distance)
    assert two.shape == (2, 2)
    assert two[0, 0] == two[1, 1] == 0.0
    assert two[0, 1] == two[1, 0] > 0.0


def test_distance_matrix_unknown_distance_rejected():
    with pytest.raises(ValueError, match="unknown distance"):
        distance_matrix([np.eye(13)], "bogus")


_CYCLE_AND_TAIL = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (1, 4)]


def test_signature_of_dgcd13_is_the_orbit_correlation_matrix():
    net = make_network(5, _CYCLE_AND_TAIL)
    assert np.array_equal(signature(net, "dgcd13"), network_correlations(net))


@pytest.mark.parametrize("undirected", [False, True], ids=["directed", "undirected"])
def test_signature_of_portrait_is_the_portrait(undirected):
    net = make_network(5, _CYCLE_AND_TAIL)
    got = signature(net, "portrait", undirected=undirected)
    assert np.array_equal(got, portrait(net, undirected=undirected))
    assert not np.array_equal(got, portrait(net, undirected=not undirected))


def test_signature_unknown_distance_rejected():
    with pytest.raises(ValueError, match="unknown distance 'bogus'"):
        signature(make_network(2, [(0, 1)]), "bogus")


def test_signature_undirected_dgcd13_rejected():
    with pytest.raises(ValueError, match="undirected applies to the portrait distance only"):
        signature(make_network(2, [(0, 1)]), "dgcd13", undirected=True)


def test_distance_matrix_empty_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(FileFormatError, match="empty"):
        read_distance_matrix(path)


# --- assembly ----------------------------------------------------------------


def write_corpus(tmp_path):
    """Three labeled networks in different buckets."""
    members = {
        "small": (make_network(60, [(0, i) for i in range(1, 60)], network_id="small"),
                  Label.MAINSTREAM, Bias.NONE, 80),
        "medium": (make_network(150, [(0, i) for i in range(1, 150)], network_id="medium"),
                   Label.DISINFORMATION, Bias.RIGHT, 300),
        "large": (make_network(1200, [(i, i + 1) for i in range(1199)], network_id="large"),
                  Label.DISINFORMATION, Bias.SATIRE, 2000),
    }
    entries = []
    for name, (net, label, bias, tweets) in members.items():
        save_network(net, tmp_path / f"{name}.edges")
        entries.append(
            ManifestEntry(name, f"{name}.edges", label, bias, tweets, n_nodes=net.n_nodes)
        )
    manifest = tmp_path / "manifest.csv"
    write_manifest(entries, manifest)
    return manifest, members


def corpus_samples(manifest):
    """A sample per manifest entry, from its loaded network's features."""
    samples = []
    for entry in read_manifest(manifest):
        network = load_network(entry.resolve_path(manifest.parent))
        samples.append(Sample(entry.network_id, extract_features(network), entry.label,
                              entry.bias, network.n_nodes))
    return samples


def test_assemble_orders_samples_by_id(tmp_path):
    manifest, members = write_corpus(tmp_path)
    ds = dataset_from_samples(corpus_samples(manifest)[::-1])
    assert [s.network_id for s in ds.samples] == ["large", "medium", "small"]
    assert {s.network_id: s.n_nodes for s in ds.samples} == {
        "small": 60,
        "medium": 150,
        "large": 1200,
    }
    small = next(s for s in ds.samples if s.network_id == "small")
    assert small.features == extract_features(members["small"][0])
    assert small.label is Label.MAINSTREAM


def test_assemble_reindexes_distances(tmp_path):
    manifest, _ = write_corpus(tmp_path)
    ids = ["small", "large", "medium", "extra"]
    full = np.zeros((4, 4))
    full[0, 2] = full[2, 0] = 7.0  # small <-> medium
    ds = dataset_from_samples(corpus_samples(manifest), distances=(ids, full))
    assert ds.distances.shape == (3, 3)
    i = {s.network_id: k for k, s in enumerate(ds.samples)}
    assert ds.distances[i["small"], i["medium"]] == 7.0
    assert ds.distances[i["small"], i["large"]] == 0.0


def test_assemble_distances_must_cover_samples(tmp_path):
    manifest, _ = write_corpus(tmp_path)
    with pytest.raises(DatasetError, match="lacks ids"):
        dataset_from_samples(corpus_samples(manifest), distances=(["small"], np.zeros((1, 1))))


def test_dataset_from_samples_sorts_and_reindexes(tmp_path):
    manifest, _ = write_corpus(tmp_path)
    ds = dataset_from_samples(corpus_samples(manifest))
    shuffled = [ds.samples[2], ds.samples[0], ds.samples[1]]
    ids = ["medium", "small", "large"]
    full = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    rebuilt = dataset_from_samples(shuffled, distances=(ids, full))
    assert [s.network_id for s in rebuilt.samples] == ["large", "medium", "small"]
    i = {s.network_id: k for k, s in enumerate(rebuilt.samples)}
    assert rebuilt.distances[i["medium"], i["small"]] == 1.0
    assert rebuilt.distances[i["large"], i["medium"]] == 2.0
