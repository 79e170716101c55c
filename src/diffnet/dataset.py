"""Corpus manifests, dataset assembly, and tabular I/O.

The manifest is the corpus index: one row per network file with its label,
bias and tweet count; ``ManifestEntry.resolve_path`` finds its network
file. ``signature`` and ``distance_matrix`` compute the ``DISTANCES``;
``dataset_from_samples`` turns samples into a LabeledDataset.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DatasetError, FileFormatError
from .features import FEATURE_NAMES, FeatureVector
from .graphlets import dgcd_from_correlations, network_correlations
from .graphs import Bias, DiffusionNetwork, Label
from .ml import LabeledDataset, Sample
from .portraits import divergence_from_portraits, portrait, portrait_distributions

__all__ = [
    "ManifestEntry",
    "dataset_from_samples",
    "distance_matrix",
    "read_distance_matrix",
    "read_feature_table",
    "read_manifest",
    "write_distance_matrix",
    "write_feature_table",
    "write_manifest",
]

MANIFEST_COLUMNS = ("network_id", "path", "label", "bias", "tweet_count")
FEATURE_TABLE_COLUMNS = ("network_id", "label", "bias", "n_nodes") + FEATURE_NAMES
_FEATURE_NUMBER_COLUMNS = ("n_nodes",) + FEATURE_NAMES
DISTANCES = ("dgcd13", "portrait")  # DGCD-13 and the portrait divergence


#: Characters ``float`` and ``int`` accept around or inside a number but no
#: writer here produces: whitespace and the digit separator ``_``.
_NOT_IN_NUMBERS = ("_", " ", "\t", "\n", "\r", "\v", "\f")


def _plain(text: str) -> bool:
    return text.isascii() and not any(c in text for c in _NOT_IN_NUMBERS)


def _check_number_cells(cells: Sequence[str | None], path: Path, line_no: int) -> None:
    """Raise :class:`FileFormatError` at ``line_no`` unless every cell is
    present and plain (``1_0``, `` 2.5 `` and non-ASCII digits are not).
    The row is checked as one string; single cells only to name the bad one."""
    try:
        plain = _plain("".join(cells))
    except TypeError:  # csv.DictReader fills the cells a short row lacks with None
        raise FileFormatError("row has too few cells", path=path, line_no=line_no) from None
    if not plain:
        bad = next(c for c in cells if not _plain(c))
        raise FileFormatError(f"not a plain number: {bad!r}", path=path, line_no=line_no)


def _check_counts(counts: Mapping[str, int | None], path: Path, line_no: int) -> None:
    """Raise :class:`FileFormatError` at ``line_no`` when a count is negative."""
    for name, value in counts.items():
        if value is not None and value < 0:
            raise FileFormatError(f"negative {name}: {value}", path=path, line_no=line_no)


@dataclass(frozen=True)
class ManifestEntry:
    network_id: str
    path: str
    label: Label
    bias: Bias
    tweet_count: int
    n_nodes: int | None = None

    def resolve_path(self, base: Path) -> Path:
        return base / self.path  # an absolute path stays as it is


def write_manifest(entries: Sequence[ManifestEntry], path: str | Path) -> None:
    """Write a manifest CSV; n_nodes is an optional extra column."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS + ("n_nodes",))
        for e in sorted(entries, key=lambda e: e.network_id):
            writer.writerow(
                [
                    e.network_id,
                    e.path,
                    e.label.value,
                    e.bias.value,
                    e.tweet_count,
                    "" if e.n_nodes is None else e.n_nodes,
                ]
            )


def _table_rows(path: Path, columns: Sequence[str], kind: str) -> Iterator[tuple[int, dict]]:
    """``(line number, row)`` for each data row of the csv file at ``path``,
    numbered by the physical line the row ends on. Raises
    :class:`FileFormatError` when the header lacks one of ``columns``, at a
    row with more cells than the header, and at a ``network_id`` seen
    before, naming the line it was first on."""
    first_line: dict[str, int] = {}
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(columns) - set(reader.fieldnames or ())
        if missing:
            raise FileFormatError(f"{kind} missing columns: {', '.join(sorted(missing))}", path=path)
        for row in reader:
            line_no = reader.line_num
            if None in row:  # csv.DictReader keeps the cells past the header under None
                width = len(reader.fieldnames)
                raise FileFormatError(
                    f"row has {width + len(row[None])} cells, the header {width}",
                    path=path,
                    line_no=line_no,
                )
            network_id = row["network_id"]
            if network_id in first_line:
                raise FileFormatError(
                    f"duplicate network_id {network_id!r}, first on line {first_line[network_id]}",
                    path=path,
                    line_no=line_no,
                )
            first_line[network_id] = line_no
            yield line_no, row


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    path = Path(path)
    entries = []
    for line_no, row in _table_rows(path, MANIFEST_COLUMNS, "manifest"):
        n_nodes_raw = row.get("n_nodes") or ""
        _check_number_cells((row["tweet_count"], n_nodes_raw), path, line_no)
        try:
            entry = ManifestEntry(
                network_id=row["network_id"],
                path=row["path"],
                label=Label(row["label"]),
                bias=Bias(row["bias"]),
                tweet_count=int(row["tweet_count"]),
                n_nodes=int(n_nodes_raw) if n_nodes_raw else None,
            )
        except (KeyError, ValueError) as exc:
            raise FileFormatError(f"bad manifest row: {exc}", path=path, line_no=line_no)
        _check_counts({"tweet_count": entry.tweet_count, "n_nodes": entry.n_nodes}, path, line_no)
        entries.append(entry)
    return entries


# --- feature tables ---------------------------------------------------------


def write_feature_table(samples: Sequence[Sample], path: str | Path) -> None:
    """CSV with one row per network, in network_id order, in the fixed
    seven-feature order."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURE_TABLE_COLUMNS)
        for s in sorted(samples, key=lambda s: s.network_id):
            writer.writerow(
                [s.network_id, s.label.value, s.bias.value, s.n_nodes]
                + [repr(float(v)) for v in s.features.to_array()]
            )


def read_feature_table(path: str | Path) -> list[Sample]:
    path = Path(path)
    samples = []
    for line_no, row in _table_rows(path, FEATURE_TABLE_COLUMNS, "feature table"):
        cells = [row[name] for name in _FEATURE_NUMBER_COLUMNS]
        _check_number_cells(cells, path, line_no)
        try:
            n_nodes = int(cells[0])
            values = list(map(float, cells[1:]))
            samples.append(
                Sample(
                    network_id=row["network_id"],
                    features=FeatureVector(*values),
                    label=Label(row["label"]),
                    bias=Bias(row["bias"]),
                    n_nodes=n_nodes,
                )
            )
        except (KeyError, ValueError) as exc:
            raise FileFormatError(f"bad feature row: {exc}", path=path, line_no=line_no)
        _check_counts({"n_nodes": n_nodes}, path, line_no)
        for name, value in zip(FEATURE_NAMES, values):
            if not math.isfinite(value):
                raise FileFormatError(f"non-finite {name}: {row[name]!r}", path=path, line_no=line_no)
    return samples


# --- distance matrices ------------------------------------------------------


def _csv_field(text: str) -> str:
    """``text`` quoted as ``csv.writer`` writes it next to other fields."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def write_distance_matrix(ids: Sequence[str], matrix: np.ndarray, path: str | Path) -> None:
    """Square CSV with the network ids as both header row and first column.

    Cells hold ``repr`` of each value. Value text never needs csv
    quoting, so each row is one join. A cell below the diagonal whose
    value is bit-identical to its mirror above (so ``-0.0`` and ``0.0``
    differ) reuses the mirror's text. Each text above the diagonal is
    held until the row below uses it, at most a quarter of the cells.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (len(ids), len(ids)):
        raise ValueError(f"matrix shape {matrix.shape} does not match {len(ids)} ids")
    bits = matrix.view(np.int64)
    # per row above, its texts right of the diagonal not yet used, last
    # column first: popping each gives column i of the rows above row i
    pending: list[list[str]] = []
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(["network_id", *ids])
        for i, (network_id, row) in enumerate(zip(ids, matrix)):
            left = list(map(list.pop, pending))
            for j in np.flatnonzero(bits[i, :i] != bits[:i, i]).tolist():
                left[j] = repr(float(row[j]))
            right = list(map(repr, row[i:].tolist()))
            pending.append(right[:0:-1])
            fh.write(_csv_field(network_id) + "," + ",".join(left + right) + "\r\n")


def read_distance_matrix(path: str | Path) -> tuple[list[str], np.ndarray]:
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FileFormatError("empty distance matrix", path=path)
        ids = header[1:]
        repeated = sorted(i for i, count in Counter(ids).items() if count > 1)
        if repeated:
            raise FileFormatError(
                f"duplicate ids in header: {', '.join(repeated)}", path=path, line_no=1
            )
        matrix = np.zeros((len(ids), len(ids)))
        rows = 0
        for row in reader:
            line_no = reader.line_num
            if len(row) != len(ids) + 1:
                raise FileFormatError(
                    f"expected {len(ids) + 1} cells, found {len(row)}", path=path, line_no=line_no
                )
            if rows == len(ids):
                raise FileFormatError(
                    f"more rows than the {len(ids)} header ids", path=path, line_no=line_no
                )
            if row[0] != ids[rows]:
                raise FileFormatError(
                    f"row ids do not match header ids: expected {ids[rows]!r}, found {row[0]!r}",
                    path=path,
                    line_no=line_no,
                )
            cells = row[1:]
            _check_number_cells(cells, path, line_no)
            values = matrix[rows]
            rows += 1
            try:
                values[:] = list(map(float, cells))
            except ValueError as exc:  # names the cell: could not convert string to float: 'x'
                raise FileFormatError(str(exc), path=path, line_no=line_no) from None
            if not np.isfinite(values).all():
                raise FileFormatError("non-finite distance", path=path, line_no=line_no)
        if rows < len(ids):
            raise FileFormatError(f"{rows} row(s) for the {len(ids)} header ids", path=path)
    return ids, matrix


def signature(network: DiffusionNetwork, distance: str, *, undirected: bool = False) -> np.ndarray:
    """What ``distance`` compares of a network: its 13x13 orbit correlations
    for ``dgcd13``, its portrait (``undirected`` or not) for ``portrait``."""
    if distance == "portrait":
        return portrait(network, undirected=undirected)
    if distance != "dgcd13":
        raise ValueError(f"unknown distance {distance!r}")
    if undirected:
        raise ValueError("undirected applies to the portrait distance only")
    return network_correlations(network)


def distance_matrix(signatures: Sequence[np.ndarray], distance: str) -> np.ndarray:
    """Symmetric zero-diagonal matrix of the ``distance`` between
    per-network signatures (see ``signature``).

    Identical signatures are compared once, so their distance is exactly 0
    and their rows are identical. Row i of the distinct signatures is one
    call of the distance on the distinct signatures after i.
    """
    if distance == "dgcd13":
        stack, kernel = np.stack(signatures), dgcd_from_correlations
    elif distance == "portrait":
        stack, kernel = portrait_distributions(signatures), divergence_from_portraits
    else:
        raise ValueError(f"unknown distance {distance!r}")
    stack, inverse = np.unique(stack, axis=0, return_inverse=True)
    m = len(stack)
    matrix = np.zeros((m, m))
    for i in range(m - 1):
        matrix[i, i + 1 :] = kernel(stack[i], stack[i + 1 :])
    matrix += matrix.T
    inverse = inverse.reshape(-1)  # not 1-D on every numpy version
    return matrix[np.ix_(inverse, inverse)]


# --- dataset assembly -------------------------------------------------------


def dataset_from_samples(
    samples: Sequence[Sample], distances: tuple[Sequence[str], np.ndarray] | None = None
) -> LabeledDataset:
    """LabeledDataset from already-computed samples, ordered by network_id.

    A supplied distance matrix is re-indexed to the sample order; every
    sample id must be among its ids.
    """
    ordered = sorted(samples, key=lambda s: s.network_id)
    matrix = None
    if distances is not None:
        ids, full = distances
        index = {network_id: i for i, network_id in enumerate(ids)}
        missing = [s.network_id for s in ordered if s.network_id not in index]
        if missing:
            raise DatasetError(f"distance matrix lacks ids: {', '.join(sorted(missing))}")
        order = [index[s.network_id] for s in ordered]
        matrix = np.asarray(full)[np.ix_(order, order)]
    return LabeledDataset(samples=ordered, distances=matrix)
