"""Distance-based classification benchmark: generate one labeled ensemble,
compute the pairwise network distance matrix (portrait divergence or
DGCD-13), and cross-validate a K-NN classifier on the distances alone.

Example:
    python3 scripts/run_distance_benchmark.py --count 200 --metric portrait
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
    network_correlations,
    portrait,
)

PROFILE_SEEDS = {ClassProfile.BROADCAST_LIKE: 101, ClassProfile.CLUSTERED_LIKE: 202}


def signatures(networks, metric: str, undirected: bool) -> list[np.ndarray]:
    if metric == "portrait":
        return [portrait(net, undirected=undirected) for net in networks]
    return [network_correlations(net) for net in networks]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200,
                        help="networks per profile")
    parser.add_argument("--bucket", default="100-1000",
                        choices=[b.value for b in SizeBucket if b is not SizeBucket.D_ALL])
    parser.add_argument("--metric", default="portrait", choices=["portrait", "dgcd13"])
    parser.add_argument("--portrait-undirected", action="store_true")
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--test-fraction", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the classification report as JSON")
    args = parser.parse_args(argv)
    if args.portrait_undirected and args.metric != "portrait":
        parser.error("--portrait-undirected has no effect with --metric dgcd13")

    bucket = SizeBucket(args.bucket)
    t0 = time.perf_counter()
    networks = []
    for profile, offset in PROFILE_SEEDS.items():
        networks.extend(generate_ensemble(profile, bucket, count=args.count,
                                          seed=args.seed + offset))
    networks.sort(key=lambda net: net.network_id)
    print(f"{len(networks)} networks generated in {time.perf_counter() - t0:.1f} s")

    t1 = time.perf_counter()
    matrix = distance_matrix(signatures(networks, args.metric, args.portrait_undirected),
                             args.metric)
    print(f"{args.metric} matrix in {time.perf_counter() - t1:.1f} s")

    samples = [
        Sample(net.network_id, extract_features(net), net.label, net.bias, net.n_nodes)
        for net in networks
    ]
    dataset = dataset_from_samples(
        samples, distances=([s.network_id for s in samples], matrix)
    )
    config = EvalConfig(classifier="knn-distance", k=args.k, folds=args.folds,
                        test_fraction=args.test_fraction, seed=args.seed)
    report = evaluate(dataset, config)
    print(f"{args.metric} knn (k={args.k}): mean AUC {report.mean('auc'):.3f} "
          f"+/- {report.std('auc'):.3f} (pooled {report.pooled_auc:.3f})")
    if args.out is not None:
        args.out.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"total {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
