"""Command-line front end.

Subcommands: build, features, distances, classify, generate, report.
Every command is deterministic given its inputs and seed. Exit codes:
0 = success, 1 = fatal error, 2 = a usage error, refused before any
command runs, or a command that completed with skipped items.

The DIFFNET_WORKERS environment variable sets the process pool size with
which ``features`` and ``distances`` measure the networks of a manifest
(default 1); any value but a positive integer is rejected.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from pathlib import Path

import numpy as np

from . import dataset as ds
from .errors import DatasetError, DiffnetError
from .features import ClusteringVariant, extract_features
from .graphs import (
    Bias,
    DiffusionNetwork,
    EdgeDirection,
    Label,
    SizeBucket,
    build_networks,
    check_node_names,
    iter_events,
    load_network,
    save_network,
)
from .graphlets import LARGE_NETWORK_THRESHOLD
from .ml import (
    CLASSIFIERS,
    EvalConfig,
    LogisticConfig,
    Sample,
    evaluate,
    feature_ks_tests,
)
from .synth import ClassProfile, generate_ensemble

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated command-line options; its defaults are the
    command line's, written nowhere else."""

    subcommand: str
    bucket: SizeBucket = SizeBucket.D_ALL
    distance: str = "dgcd13"
    classifier: str = "lr"
    k: int = 10
    folds: int = 10
    test_fraction: float = 0.1
    seed: int = 0
    min_tweets: int = 50
    direction: EdgeDirection = EdgeDirection.INFO_FLOW
    clustering: ClusteringVariant = ClusteringVariant.UNDIRECTED
    portrait_undirected: bool = False
    include_large: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("--k must be >= 1")
        if self.folds < 1:
            raise ValueError("--folds must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("--test-fraction must be in (0, 1)")
        if self.seed < 0:
            raise ValueError("--seed must be >= 0")
        if self.min_tweets < 0:
            raise ValueError("--min-tweets must be >= 0")

    def provenance(self) -> dict:
        """Every option but the subcommand, enums written as their values."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "subcommand"}
        return {name: v.value if isinstance(v, Enum) else v for name, v in values.items()}


def worker_count() -> int:
    """The DIFFNET_WORKERS pool size; anything but a positive integer is an error."""
    raw = os.environ.get("DIFFNET_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise DiffnetError(f"DIFFNET_WORKERS must be a positive integer, got {raw!r}")
    return workers


@contextmanager
def _warning_lines():
    """Print each warning raised inside, every time, as ``warning: <message>``
    on stderr, the one form of a command's warnings. Each network measured
    enters it too, since a pool worker need not inherit the command's state."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        yield


def network_id_for_url(url: str) -> str:
    """Stable filesystem-safe id: last path segment slug plus a URL hash."""
    tail = url.rstrip("/").rsplit("/", 1)[-1]
    slug = "".join(c if c.isalnum() or c in "-_" else "-" for c in tail)[:40].strip("-")
    digest = hashlib.sha1(url.encode()).hexdigest()[:8]
    return f"{slug}-{digest}" if slug else digest


def _write_corpus(out_dir: Path, networks: list[DiffusionNetwork]) -> Path:
    """Save each network as ``<id>.edges`` (with its node file, see
    ``save_network``) in out_dir and merge its entry into
    out_dir/manifest.csv, newer rows replacing same ids.

    Every node name is checked before any file is written, so a name the
    edge list cannot carry leaves out_dir as it was."""
    for network in networks:
        check_node_names(network, out_dir / f"{network.network_id}.edges")
    manifest_path = out_dir / "manifest.csv"
    merged: dict[str, ds.ManifestEntry] = {}
    if manifest_path.exists():
        for entry in ds.read_manifest(manifest_path):
            merged[entry.network_id] = entry
    for network in networks:
        edges_path = out_dir / f"{network.network_id}.edges"
        save_network(network, edges_path)
        merged[network.network_id] = ds.ManifestEntry(
            network_id=network.network_id,
            path=edges_path.name,
            label=network.label,
            bias=network.bias,
            tweet_count=network.tweet_count,
            n_nodes=len(network.nodes),
        )
    ds.write_manifest(list(merged.values()), manifest_path)
    return manifest_path


# --- build ------------------------------------------------------------------


def cmd_build(args: argparse.Namespace, config: RunConfig) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    skipped: list[tuple[int, str]] = []
    networks = build_networks(
        iter_events(args.events_file, skipped),
        direction=config.direction,
        network_id=network_id_for_url,
    )
    if skipped:
        warnings.warn(f"skipped {len(skipped)} malformed event lines")
        for line_no, reason in skipped:
            warnings.warn(f"{args.events_file}:{line_no}: {reason}")
    if not networks:
        raise DiffnetError(f"no events in {args.events_file}")

    manifest_path = _write_corpus(out_dir, networks)
    total_nodes = sum(len(n.nodes) for n in networks)
    total_edges = sum(len(n.edges) for n in networks)
    print(
        f"built {len(networks)} networks ({total_nodes} nodes, {total_edges} edges) "
        f"-> {manifest_path}"
    )
    return EXIT_PARTIAL if skipped else EXIT_OK


# --- corpus pass: features and distances ------------------------------------


def _measure(task):
    """``(fn(network), None)`` for one ``(fn, path, network_id)`` task, or
    ``(None, reason)`` when the network cannot be loaded or measured: one
    bad file cannot stop a pool, and only paths and results cross it."""
    fn, path, network_id = task
    with _warning_lines():
        try:
            return fn(load_network(path, network_id=network_id)), None
        except (DiffnetError, OSError, ValueError) as exc:
            return None, str(exc)


def _measure_corpus(manifest: str, fn) -> tuple[list, bool]:
    """``(entry, fn(network))`` for every network of the manifest, in
    network_id order, on a pool of DIFFNET_WORKERS processes (in this one
    when 1), and whether any network was skipped with a warning. A pass
    that measures no network is an error."""
    manifest_path = Path(manifest)
    entries = sorted(ds.read_manifest(manifest_path), key=lambda e: e.network_id)
    tasks = [(fn, e.resolve_path(manifest_path.parent), e.network_id) for e in entries]
    workers = min(worker_count(), len(tasks))  # a pool starts all its workers at once
    if workers < 2:
        results = list(map(_measure, tasks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_measure, tasks))
    for entry, (_, error) in zip(entries, results):
        if error is not None:
            warnings.warn(f"skipped {entry.network_id}: {error}")
    measured = [(e, result) for e, (result, error) in zip(entries, results) if error is None]
    if not measured:
        raise DiffnetError(f"no network of {manifest} could be measured")
    return measured, len(measured) < len(entries)


def _features(network: DiffusionNetwork, *, clustering: ClusteringVariant):
    return network.n_nodes, extract_features(network, clustering=clustering)


def cmd_features(args: argparse.Namespace, config: RunConfig) -> int:
    features = partial(_features, clustering=config.clustering)
    measured, skipped = _measure_corpus(args.manifest, features)
    samples = [Sample(e.network_id, fv, e.label, e.bias, n) for e, (n, fv) in measured]
    ds.write_feature_table(samples, args.out)
    print(f"wrote {len(samples)} feature rows -> {args.out}")
    return EXIT_PARTIAL if skipped else EXIT_OK


def _signature(network: DiffusionNetwork, *, config: RunConfig) -> np.ndarray | None:
    """The network's signature for ``config.distance``, or None for a
    network the dgcd13 matrix excludes."""
    large = network.n_nodes >= LARGE_NETWORK_THRESHOLD
    if config.distance == "dgcd13" and large and not config.include_large:
        return None
    return ds.signature(network, config.distance, undirected=config.portrait_undirected)


def cmd_distances(args: argparse.Namespace, config: RunConfig) -> int:
    measured, skipped = _measure_corpus(args.manifest, partial(_signature, config=config))
    excluded = [e.network_id for e, sig in measured if sig is None]
    if excluded:
        print(
            f"excluded {len(excluded)} networks with >= {LARGE_NETWORK_THRESHOLD} nodes: "
            + ", ".join(excluded)
        )
    ids = [e.network_id for e, sig in measured if sig is not None]
    signatures = [sig for _, sig in measured if sig is not None]
    if not signatures:
        raise DiffnetError("no networks left to compare")

    matrix = ds.distance_matrix(signatures, config.distance)
    ds.write_distance_matrix(ids, matrix, args.out)
    m = len(ids)
    print(f"wrote {m}x{m} {config.distance} matrix -> {args.out}")
    return EXIT_PARTIAL if skipped else EXIT_OK


# --- classify ---------------------------------------------------------------


def _filtered_samples(args: argparse.Namespace, config: RunConfig) -> list[Sample]:
    """The feature-table samples of ``config.bucket`` that pass the other
    corpus filters; the tweet-count filter applies only when a manifest is
    given, which must then hold every sample of the bucket. Selecting no
    sample is an error that names the bucket, or the options that left out
    all of its labeled samples."""
    samples = [s for s in ds.read_feature_table(args.features) if config.bucket.contains(s.n_nodes)]
    tweet_counts = None
    if args.manifest:
        tweet_counts = {e.network_id: e.tweet_count for e in ds.read_manifest(Path(args.manifest))}
        missing = [s.network_id for s in samples if s.network_id not in tweet_counts]
        if missing:
            raise DiffnetError(f"manifest lacks feature-table ids: {', '.join(sorted(missing))}")
    labeled = [s for s in samples if s.label is not Label.UNLABELED]
    if not labeled:
        raise DiffnetError(f"no samples in bucket {config.bucket.value}")
    # the optional corpus filters, each applied when its option is given
    filters = [
        (option, keep)
        for option, given, keep in (
            ("--min-tweets", args.manifest,
             lambda s: tweet_counts[s.network_id] >= config.min_tweets),
            ("--bias", args.bias, lambda s: s.bias in args.bias),
            ("--exclude-source", args.exclude_source,
             lambda s: not any(src in s.network_id for src in args.exclude_source)),
        )
        if given
    ]
    selected = [s for s in labeled if all(keep(s) for _, keep in filters)]
    if not selected:
        options = " and ".join(option for option, _ in filters)
        raise DiffnetError(f"no labeled samples in bucket {config.bucket.value} pass {options}")
    return selected


def cmd_classify(args: argparse.Namespace, config: RunConfig) -> int:
    samples = _filtered_samples(args, config)
    distances = None
    if args.distances:
        distances = ds.read_distance_matrix(args.distances)
        matrix_ids = set(distances[0])
        lacking = sorted(s.network_id for s in samples if s.network_id not in matrix_ids)
        if lacking:
            if len(lacking) == len(samples):
                raise DatasetError(
                    f"distance matrix {args.distances} holds none of the "
                    f"{len(samples)} selected feature-table ids"
                )
            warnings.warn(f"distance matrix lacks {len(lacking)} feature-table ids, "
                          f"left out: {', '.join(lacking)}")
            samples = [s for s in samples if s.network_id in matrix_ids]
    dataset = ds.dataset_from_samples(samples, distances=distances)

    eval_config = EvalConfig(
        classifier=config.classifier,
        k=config.k,
        folds=config.folds,
        test_fraction=config.test_fraction,
        seed=config.seed,
        logistic=LogisticConfig(),
    )
    report = evaluate(dataset, eval_config)
    payload = report.to_dict()
    payload["config"].update(config.provenance())
    payload["bucket"] = config.bucket.value

    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n")
    if args.roc_out:
        with Path(args.roc_out).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fold", "threshold", "fpr", "tpr"])
            for fold_no, fold in enumerate(report.folds):
                for t, fp, tp in zip(fold.roc.thresholds, fold.roc.fpr, fold.roc.tpr):
                    writer.writerow(
                        [fold_no, "inf" if np.isinf(t) else repr(float(t)), repr(float(fp)), repr(float(tp))]
                    )
    print(
        f"{config.classifier} bucket={config.bucket.value}: "
        f"mean AUC {report.mean('auc'):.3f} +/- {report.std('auc'):.3f} "
        f"(pooled {report.pooled_auc:.3f}, {report.n_samples} samples) -> {out}"
    )
    return EXIT_OK


# --- generate ---------------------------------------------------------------


def cmd_generate(args: argparse.Namespace, config: RunConfig) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    networks = generate_ensemble(
        args.profile, config.bucket, count=args.count, seed=config.seed
    )
    manifest_path = _write_corpus(out_dir, networks)
    sizes = sorted(len(n.nodes) for n in networks)
    print(
        f"generated {len(networks)} {args.profile.value} networks "
        f"(nodes {sizes[0]}..{sizes[-1]}) -> {manifest_path}"
    )
    return EXIT_OK


# --- report -----------------------------------------------------------------


def _five_number(values: np.ndarray) -> dict:
    qs = np.percentile(values, [0, 25, 50, 75, 100])
    return {
        "min": float(qs[0]),
        "q1": float(qs[1]),
        "median": float(qs[2]),
        "q3": float(qs[3]),
        "max": float(qs[4]),
    }


def cmd_report(args: argparse.Namespace, config: RunConfig) -> int:
    samples = _filtered_samples(args, config)
    dataset = ds.dataset_from_samples(samples)
    x = dataset.feature_matrix()
    y = dataset.label_vector()
    if not (np.any(y == 0) and np.any(y == 1)):
        raise DiffnetError("both classes required for a report")

    ks = feature_ks_tests(x, y)
    payload = {
        "config": config.provenance(),
        "n_samples": len(samples),
        "n_positive": int(np.sum(y == 1)),
        "n_negative": int(np.sum(y == 0)),
        "features": {
            name: {
                "ks_statistic": stat,
                "ks_p_value": p,
                "rejected_at_0.05": bool(p < 0.05),
                "disinformation": _five_number(x[y == 1, j]),
                "mainstream": _five_number(x[y == 0, j]),
            }
            for j, (name, stat, p) in enumerate(ks)
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    print(f"wrote feature report ({len(samples)} samples) -> {args.out}")
    return EXIT_OK


# --- argument parsing -------------------------------------------------------


def _choice_option(choices) -> dict:
    """Parse an option straight to one of ``choices``: strings, or enum
    members given by their values. Its metavar and its error list the
    values."""
    by_value = {getattr(c, "value", c): c for c in choices}

    def choice(text: str):
        if text not in by_value:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {text!r} (choose from {', '.join(by_value)})"
            )
        return by_value[text]

    return {"type": choice, "metavar": "{" + ",".join(by_value) + "}"}


def build_parser() -> argparse.ArgumentParser:
    """Options that ``RunConfig`` holds have no default here: an option not
    given is left out of the parsed arguments and takes its ``RunConfig``
    default. The others name their default."""
    parser = argparse.ArgumentParser(
        prog="diffnet",
        description="Reconstruct, measure, compare and classify news diffusion networks.",
    )
    sub = parser.add_subparsers(
        dest="subcommand",
        required=True,
        parser_class=partial(argparse.ArgumentParser, argument_default=argparse.SUPPRESS),
    )

    # classify and report select their samples from a feature table alike
    samples = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    samples.add_argument("--features", required=True)
    samples.add_argument("--manifest", default=None)
    samples.add_argument("--out", required=True)
    samples.add_argument("--bias", action="append", default=None, **_choice_option(Bias))
    samples.add_argument("--exclude-source", action="append", default=[])
    samples.add_argument("--bucket", **_choice_option(SizeBucket))
    samples.add_argument("--min-tweets", type=int)

    p = sub.add_parser("build", help="build networks from an interaction event file")
    p.add_argument("events_file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--direction", **_choice_option(EdgeDirection))

    p = sub.add_parser("features", help="compute the seven-feature table for a manifest")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--clustering", **_choice_option(ClusteringVariant))

    p = sub.add_parser("distances", help="compute a pairwise distance matrix")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--which", dest="distance", **_choice_option(ds.DISTANCES))
    p.add_argument("--include-large", action="store_true")
    p.add_argument("--portrait-undirected", action="store_true")

    p = sub.add_parser(
        "classify", parents=[samples], help="cross-validated classification from a feature table"
    )
    p.add_argument("--distances", default=None)
    p.add_argument("--roc-out", default=None)
    p.add_argument("--classifier", **_choice_option(CLASSIFIERS))
    p.add_argument("--k", type=int)
    p.add_argument("--folds", type=int)
    p.add_argument("--test-fraction", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("generate", help="generate a synthetic labeled ensemble")
    p.add_argument("--profile", required=True, **_choice_option(ClassProfile))
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int)
    concrete = [b for b in SizeBucket if b is not SizeBucket.D_ALL]
    p.add_argument("--bucket", required=True, **_choice_option(concrete))

    sub.add_parser(
        "report", parents=[samples], help="per-feature class comparison (KS tests, box-plot data)"
    )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run's options; a ValueError names the usage rule that they break."""
    given = vars(args)
    # classify and report read tweet counts from an optional --manifest
    if "min_tweets" in given and not given["manifest"]:
        raise ValueError("--min-tweets needs --manifest, which holds the tweet counts")
    if given.get("count", 1) < 1:
        raise ValueError("--count must be >= 1")
    config = RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})
    if config.classifier == "knn-distance" and given.get("distances") is None:
        raise ValueError("--classifier knn-distance needs --distances, the matrix it reads")
    # an option the chosen mode never reads is refused, not ignored
    for name, applies, mode in (
        ("include_large", config.distance == "dgcd13", f"--which {config.distance}"),
        ("portrait_undirected", config.distance == "portrait", f"--which {config.distance}"),
        ("k", config.classifier != "lr", f"--classifier {config.classifier}"),
        ("distances", config.classifier == "knn-distance", f"--classifier {config.classifier}"),
    ):
        if given.get(name) is not None and not applies:
            raise ValueError(f"--{name.replace('_', '-')} has no effect with {mode}")
    return config


_COMMANDS = {
    "build": cmd_build,
    "features": cmd_features,
    "distances": cmd_distances,
    "classify": cmd_classify,
    "generate": cmd_generate,
    "report": cmd_report,
}


def _subcommand_parser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subcommands.choices[name]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, unrecognized = parser.parse_known_args(argv)
    try:
        if unrecognized:
            raise ValueError(f"unrecognized arguments: {' '.join(unrecognized)}")
        config = config_from_args(args)
    except ValueError as exc:
        # a usage error prints the usage line of the subcommand it is in
        _subcommand_parser(parser, args.subcommand).error(str(exc))
    try:
        with _warning_lines():
            return _COMMANDS[args.subcommand](args, config)
    except (DiffnetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
