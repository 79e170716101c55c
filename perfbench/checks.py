"""Output checks, stored references and exact work counts.

``check_outputs`` tests one iteration's output directory three ways:

* invariants that hold for any seed (ids, matrix symmetry and ranges,
  report shapes, AUC bounds);
* the oracle (``oracle.py``) on every network for the cheap features and
  on a seeded sample of networks for diameter, clustering, k-core, DGCD
  and portrait divergence, including every matrix entry between sampled
  networks;
* the stored reference of this workload and seed, when there is one:
  ids and integer features exactly, floats within ``FLOAT_TOLERANCE``.

Each output file is one checked operation; a file with any mismatch is
one failed operation.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

FLOAT_TOLERANCE = 1e-9
FEATURES = ("scc", "lscc", "wcc", "lwcc", "dwcc", "cc", "kc")
INTEGER_FEATURES = ("n_nodes", "scc", "lscc", "wcc", "lwcc", "dwcc", "kc")
MATRICES = ("dgcd13", "portrait")
REPORTS = ("lr", "knn", "knn-dgcd13", "knn-portrait")
FOLDS = 10
SAMPLE_SIZE = 6  # networks the oracle recomputes in full
LARGE_NODES = 1000
REFERENCE_ROWS = 4  # matrix rows stored in full in a reference

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def output_files(out: Path) -> dict[str, Path]:
    files = {"features": out / "features.csv"}
    files.update({m: out / f"{m}.csv" for m in MATRICES})
    files.update({f"report-{r}": out / f"report-{r}.json" for r in REPORTS})
    return files


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- reading outputs with our own parsers -----------------------------------


def read_feature_rows(path: Path) -> dict[str, dict]:
    rows = {}
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            rows[row["network_id"]] = {
                "label": row["label"],
                "n_nodes": int(row["n_nodes"]),
                **{f: float(row[f]) for f in FEATURES},
            }
    return rows


def read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        ids = next(reader)[1:]
        rows = list(reader)
    if [r[0] for r in rows] != ids:
        raise ValueError(f"{path.name}: row ids differ from header ids")
    return ids, np.array([[float(x) for x in r[1:]] for r in rows], dtype=np.float64)


def read_manifest(path: Path) -> dict[str, tuple[Path, str]]:
    with path.open(newline="") as fh:
        return {r["network_id"]: (path.parent / r["path"], r["label"]) for r in csv.DictReader(fh)}


def report_summary(report: dict) -> dict:
    return {
        "config": report["config"],
        "n_samples": report["n_samples"],
        "pooled_auc": report["pooled_auc"],
        **{m: [f[m] for f in report["folds"]] for m in ("auc", "precision", "recall", "f1")},
    }


# --- results ----------------------------------------------------------------


@dataclass
class CheckResult:
    n_networks: int = 0
    skipped: int = 0  # networks absent from an output
    failures: list[str] = field(default_factory=list)
    failed_files: set[str] = field(default_factory=set)
    counts: dict[str, int] = field(default_factory=dict)
    aucs: dict[str, float] = field(default_factory=dict)
    reference: str = "none"

    def fail(self, output: str, message: str) -> None:
        self.failed_files.add(output)
        self.failures.append(f"{output}: {message}")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOLERANCE


# --- the check --------------------------------------------------------------


def _check_pairs(result: CheckResult, matrices, name: str, sample: list[str], distance) -> None:
    """Every matrix entry between two sampled networks against the oracle."""
    if name not in matrices:
        return
    ids, matrix = matrices[name]
    where = {x: k for k, x in enumerate(ids)}
    for pos, a in enumerate(sample):
        for b in sample[pos + 1:]:
            if a in where and b in where:
                got, want = matrix[where[a], where[b]], distance(a, b)
                if not _close(got, want):
                    result.fail(name, f"({a}, {b}) = {got!r}, oracle {want!r}")


def check_outputs(
    out: Path,
    workload: str,
    seed: int,
    expected_graphs: dict[str, tuple[int, int]] | None,
    undirected_portraits: bool,
) -> CheckResult:
    """Check one iteration's outputs; ``expected_graphs`` maps network id to
    the (nodes, edges) the benchmark generated, when it generated them."""
    result = CheckResult()
    files = output_files(out)
    manifest = read_manifest(out / "corpus" / "manifest.csv")
    ids = sorted(manifest)
    result.n_networks = len(ids)
    graphs = {i: oracle.read_graph(manifest[i][0]) for i in ids}
    labeled = sum(1 for i in ids if manifest[i][1] != "unlabeled")

    if expected_graphs is not None:
        got = {i: (g.n, len(g.arcs)) for i, g in graphs.items()}
        if got != expected_graphs:
            result.fail("corpus", "built networks differ from the generated ones")

    # features: every network, cheap oracle columns exactly
    rows = read_feature_rows(files["features"])
    if sorted(rows) != ids:
        result.skipped += len(set(ids) - set(rows))
        result.fail("features", f"{len(ids) - len(rows)} manifest networks missing")
    summaries = {}
    for i in ids:
        summaries[i] = oracle.component_summary(graphs[i])
        row = rows.get(i)
        if row and any(row[k] != v for k, v in summaries[i].items()):
            result.fail("features", f"{i}: components {summaries[i]} but table has {row}")

    # the oracle sample: small networks, plus one large one where there are any
    rng = np.random.default_rng([seed, 7])
    large = [i for i in ids if graphs[i].n >= LARGE_NODES]
    small = [i for i in ids if graphs[i].n < LARGE_NODES]
    sample = list(rng.choice(small, size=min(SAMPLE_SIZE - bool(large), len(small)), replace=False))
    if large:
        sample.append(large[int(rng.integers(len(large)))])
    sample = sorted(str(i) for i in sample)
    for i in sample:
        want = oracle.features(graphs[i])
        row = rows.get(i, {})
        bad = [k for k in ("dwcc", "cc", "kc") if not _close(row.get(k, math.nan), want[k])]
        if bad:
            result.fail("features", f"{i}: {bad} differ from oracle {want}")

    # matrices: invariants, then the sampled pairs against the oracle
    matrices = {}
    for name in MATRICES:
        try:
            m_ids, matrix = read_matrix(files[name])
        except (OSError, ValueError, StopIteration) as exc:
            result.fail(name, f"unreadable: {exc}")
            continue
        matrices[name] = (m_ids, matrix)
        if m_ids != ids:
            result.skipped += len(set(ids) - set(m_ids))
            result.fail(name, f"ids differ from the manifest ({len(m_ids)} vs {len(ids)})")
        upper = 2 * math.sqrt(78) if name == "dgcd13" else 1.0
        if not np.all(np.isfinite(matrix)):
            result.fail(name, "non-finite entries")
        elif (np.any(matrix != matrix.T) or np.any(np.diag(matrix) != 0)
              or matrix.min() < 0 or matrix.max() > upper + FLOAT_TOLERANCE):
            result.fail(name, "not a symmetric zero-diagonal matrix in range")
    corr = {i: oracle.orbit_correlations(oracle.orbit_counts(graphs[i])) for i in sample}
    _check_pairs(result, matrices, "dgcd13", sample, lambda a, b: oracle.dgcd(corr[a], corr[b]))
    shells = {i: oracle.portrait(graphs[i], undirected_portraits) for i in sample}
    _check_pairs(result, matrices, "portrait", sample,
                 lambda a, b: oracle.portrait_divergence(shells[a], shells[b]))

    # reports
    reports = {}
    for name in REPORTS:
        key = f"report-{name}"
        try:
            report = json.loads(files[key].read_text())
        except (OSError, ValueError) as exc:
            result.fail(key, f"unreadable: {exc}")
            continue
        reports[name] = report
        aucs = [f["auc"] for f in report["folds"]]
        result.aucs[name] = report["aggregate"]["auc"]["mean"]
        if report["n_samples"] != labeled:
            result.fail(key, f"{report['n_samples']} samples, {labeled} labeled networks")
        if len(aucs) != FOLDS or not all(0.0 <= a <= 1.0 for a in aucs):
            result.fail(key, "fold AUCs missing or out of [0, 1]")
        elif not _close(result.aucs[name], float(np.mean(aucs))):
            result.fail(key, "aggregate AUC is not the mean of the fold AUCs")

    # exact work counts
    degrees = [len(s) for g in graphs.values() for s in g.neighbours()]
    n_matrix = len(matrices.get("dgcd13", ([],))[0])
    result.counts = {
        "graphs.nodes": sum(g.n for g in graphs.values()),
        "graphs.edges": sum(len(g.arcs) for g in graphs.values()),
        "features.diameter_bfs_sources": sum(s["lwcc"] for s in summaries.values()),
        "graphlets.wedges": sum(d * (d - 1) // 2 for d in degrees),
        "graphlets.pairs": n_matrix * (n_matrix - 1) // 2,
        "portraits.bfs_sources": sum(g.n for g in graphs.values()),
        "dataset.matrix_bytes": sum(files[m].stat().st_size for m in MATRICES if files[m].exists()),
    }

    reference = load_reference(workload, seed)
    if reference is not None:
        same = sum(sha256(p) == reference["sha256"].get(k) for k, p in files.items() if p.exists())
        result.reference = f"compared; {same} of {len(files)} outputs byte-identical"
        compare_reference(result, reference, rows, matrices, reports)
    return result


# --- stored references ------------------------------------------------------


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed-{seed}.json.gz"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def build_reference(out: Path) -> dict:
    """The compact reference of one output directory."""
    files = output_files(out)
    ref = {
        "sha256": {k: sha256(p) for k, p in files.items()},
        "features": read_feature_rows(files["features"]),
        "matrices": {},
        "reports": {r: report_summary(json.loads(files[f"report-{r}"].read_text()))
                    for r in REPORTS},
    }
    for name in MATRICES:
        ids, matrix = read_matrix(files[name])
        rows = sorted({int(k) for k in np.linspace(0, len(ids) - 1, REFERENCE_ROWS)})
        ref["matrices"][name] = {
            "ids": ids,
            "row_sums": matrix.sum(axis=1).tolist(),
            "rows": {str(k): matrix[k].tolist() for k in rows},
        }
    return ref


def write_reference(out: Path, workload: str, seed: int) -> Path:
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(build_reference(out), sort_keys=True).encode()
    with path.open("wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(data)
    return path


def compare_reference(result: CheckResult, ref: dict, rows, matrices, reports) -> None:
    if sorted(rows) != sorted(ref["features"]):
        result.fail("features", "ids differ from the reference")
    for i, want in ref["features"].items():
        got = rows.get(i)
        if got is None:
            continue
        if got["label"] != want["label"] or any(got[k] != want[k] for k in INTEGER_FEATURES):
            result.fail("features", f"{i}: {got} but reference {want}")
        elif not _close(got["cc"], want["cc"]):
            result.fail("features", f"{i}: cc {got['cc']!r} but reference {want['cc']!r}")
    for name, want in ref["matrices"].items():
        if name not in matrices:
            continue
        ids, matrix = matrices[name]
        if ids != want["ids"]:
            result.fail(name, "ids differ from the reference")
            continue
        sums = matrix.sum(axis=1)
        if np.max(np.abs(sums - np.array(want["row_sums"]))) > FLOAT_TOLERANCE * len(ids):
            result.fail(name, "row sums differ from the reference")
        for k, row in want["rows"].items():
            if np.max(np.abs(matrix[int(k)] - np.array(row))) > FLOAT_TOLERANCE:
                result.fail(name, f"row {k} differs from the reference")
    for name, want in ref["reports"].items():
        if name not in reports:
            continue
        got = report_summary(reports[name])
        if got["config"] != want["config"] or got["n_samples"] != want["n_samples"] or any(
            np.shape(got[key]) != np.shape(want[key])
            or np.max(np.abs(np.subtract(got[key], want[key]))) > FLOAT_TOLERANCE
            for key in ("auc", "precision", "recall", "f1", "pooled_auc")
        ):
            result.fail(f"report-{name}", "differs from the reference")
