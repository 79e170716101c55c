"""End-to-end synthetic benchmark: generate labeled ensembles per size
bucket, extract the seven global features, and cross-validate the paper's
classifiers: logistic regression and K-NN on the features (``lr``, ``knn``),
and K-NN on a pairwise distance matrix alone (``knn-dgcd13``,
``knn-portrait``). Prints one line per (bucket, classifier) plus an optional
shuffled-label control, and can dump the full reports as JSON.

Example:
    python3 scripts/run_benchmark.py --count 500 --control --out-dir runs/
    python3 scripts/run_benchmark.py --count 200 --buckets 100-1000 \\
        --classifiers knn-dgcd13 knn-portrait --portrait-undirected
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from diffnet import (
    ClassProfile,
    EvalConfig,
    Sample,
    SizeBucket,
    dataset_from_samples,
    distance_matrix,
    evaluate,
    extract_features,
    generate_ensemble,
)
from diffnet.cli import RunConfig
from diffnet.dataset import DISTANCES, signature
from diffnet.ml import CLASSIFIERS, MIN_CLASS_SAMPLES

PROFILE_SEEDS = {ClassProfile.BROADCAST_LIKE: 101, ClassProfile.CLUSTERED_LIKE: 202}
# knn-<distance> is knn-distance on the matrix of that distance
KNN_DISTANCE = {f"knn-{distance}": distance for distance in DISTANCES}


def generate(bucket: SizeBucket, count: int, seed: int):
    return [
        net
        for profile, offset in PROFILE_SEEDS.items()
        for net in generate_ensemble(profile, bucket, count=count, seed=seed + offset)
    ]


def shuffled_control(dataset, seed: int):
    order = np.random.default_rng(seed).permutation(len(dataset.samples))
    return dataset_from_samples(
        [
            Sample(s.network_id, s.features, dataset.samples[j].label, s.bias, s.n_nodes)
            for s, j in zip(dataset.samples, order)
        ]
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=500,
                        help="networks per profile per bucket")
    parser.add_argument("--buckets", nargs="+", default=["0-100", "100-1000"],
                        choices=[b.value for b in SizeBucket if b is not SizeBucket.D_ALL])
    parser.add_argument("--classifiers", nargs="+", default=["lr", "knn"],
                        choices=[c for c in CLASSIFIERS if c != "knn-distance"] + [*KNN_DISTANCE])
    parser.add_argument("--portrait-undirected", action="store_true",
                        help="knn-portrait compares portraits of the undirected networks")
    parser.add_argument("--k", type=int, default=RunConfig.k)
    parser.add_argument("--folds", type=int, default=RunConfig.folds)
    parser.add_argument("--test-fraction", type=float, default=RunConfig.test_fraction)
    parser.add_argument("--seed", type=int, default=RunConfig.seed)
    parser.add_argument("--control", action="store_true",
                        help="also run a shuffled-label control with lr")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="write one JSON report per (bucket, classifier)")
    args = parser.parse_args(argv)
    if args.count < MIN_CLASS_SAMPLES:
        parser.error(f"--count must be >= {MIN_CLASS_SAMPLES}, the samples per class evaluate needs")
    try:  # the rules diffnet checks these options by
        RunConfig("benchmark", k=args.k, folds=args.folds, test_fraction=args.test_fraction,
                  seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    if args.portrait_undirected and "knn-portrait" not in args.classifiers:
        parser.error("--portrait-undirected has no effect without knn-portrait in --classifiers")

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)

    def run(classifier: str, dataset):
        config = EvalConfig(classifier=classifier, k=args.k, folds=args.folds,
                            test_fraction=args.test_fraction, seed=args.seed)
        return evaluate(dataset, config)

    t0 = time.perf_counter()
    for bucket_name in args.buckets:
        bucket = SizeBucket(bucket_name)
        t_bucket = time.perf_counter()
        networks = generate(bucket, args.count, args.seed)
        samples = [
            Sample(net.network_id, extract_features(net), net.label, net.bias, net.n_nodes)
            for net in networks
        ]
        dataset = dataset_from_samples(samples)
        print(f"[{bucket.value}] {len(dataset.samples)} networks generated "
              f"in {time.perf_counter() - t_bucket:.1f} s")

        for classifier in args.classifiers:
            if classifier in KNN_DISTANCE:
                distance = KNN_DISTANCE[classifier]
                undirected = args.portrait_undirected and distance == "portrait"
                t_matrix = time.perf_counter()
                matrix = distance_matrix(
                    [signature(net, distance, undirected=undirected) for net in networks], distance
                )
                print(f"[{bucket.value}] {distance} matrix "
                      f"in {time.perf_counter() - t_matrix:.1f} s")
                ids = [net.network_id for net in networks]
                report = run("knn-distance", dataset_from_samples(samples, distances=(ids, matrix)))
            else:
                report = run(classifier, dataset)
            print(f"[{bucket.value}] {classifier}: mean AUC {report.mean('auc'):.3f} "
                  f"+/- {report.std('auc'):.3f} (pooled {report.pooled_auc:.3f})")
            if args.out_dir is not None:
                out = args.out_dir / f"benchmark-{bucket.value}-{classifier}.json"
                text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
                out.write_text(text, encoding="utf-8", newline="\n")

        if args.control:
            report = run("lr", shuffled_control(dataset, args.seed + 7))
            print(f"[{bucket.value}] shuffled-label control: "
                  f"mean AUC {report.mean('auc'):.3f} +/- {report.std('auc'):.3f}")

    print(f"total {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
