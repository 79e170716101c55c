"""Acceptance criteria, one test per criterion (test_c1 .. test_c9).

Criteria 1-6 are deterministic oracle and invariant checks. Criteria 7-9
share one session-scoped synthetic benchmark so the generation cost is
paid once. Each test records its measured values through ``acceptance_log``;
the conftest hook prints one line per criterion after the run.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from diffnet import (
    ClassProfile,
    EvalConfig,
    Sample,
    SizeBucket,
    count_orbits,
    dataset_from_samples,
    dgcd13,
    distance_matrix,
    evaluate,
    extract_features,
    generate_ensemble,
    ks_two_sample,
    logistic_fit,
    logistic_loss_grad,
    logistic_predict,
    portrait,
    portrait_divergence,
    roc_auc,
    stratified_shuffle_split,
)

from util import make_network, oracle_feature_check, oracle_orbit_counts, random_graph, relabeled


def test_c1(acceptance_log):
    """All seven features match the naive oracles exactly on 500 small graphs."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    for _ in range(500):
        n, arcs = random_graph(rng, int(rng.integers(1, 9)), float(rng.uniform(0.05, 0.7)))
        fv = extract_features(make_network(n, arcs))
        oracle_feature_check(n, arcs, fv)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    acceptance_log(1, f"500 graphs exact, {elapsed:.1f} s")


def test_c2(acceptance_log):
    """Orbit counts match exhaustive enumeration; the distance is a
    self-zero symmetric function."""
    rng = np.random.default_rng(2002)
    t0 = time.perf_counter()
    previous = None
    max_self = 0.0
    max_asym = 0.0
    for _ in range(200):
        n, arcs = random_graph(rng, int(rng.integers(2, 26)), float(rng.uniform(0.05, 0.4)))
        net = make_network(n, arcs)
        assert np.array_equal(count_orbits(net), oracle_orbit_counts(n, arcs))
        max_self = max(max_self, dgcd13(net, net))
        if previous is not None:
            max_asym = max(max_asym, abs(dgcd13(previous, net) - dgcd13(net, previous)))
        previous = net
    elapsed = time.perf_counter() - t0
    assert max_self == 0.0
    assert max_asym <= 1e-12
    assert elapsed < 120.0
    acceptance_log(2, f"200 graphs exact, worst asymmetry {max_asym:.1e}, {elapsed:.1f} s")


def test_c3(acceptance_log):
    """Portrait hand tables plus divergence bounds, symmetry, row sums."""
    star = make_network(5, [(0, i) for i in range(1, 5)])
    expected_star = np.zeros((2, 5), dtype=int)
    expected_star[0, 1] = 5
    expected_star[1, 0] = 4
    expected_star[1, 4] = 1
    assert np.array_equal(portrait(star), expected_star)

    # columns always span k = 0 .. n-1
    path = make_network(4, [(0, 1), (1, 2), (2, 3)])
    assert np.array_equal(
        portrait(path),
        np.array([[0, 4, 0, 0], [1, 3, 0, 0], [2, 2, 0, 0], [3, 1, 0, 0]]),
    )

    cycle = make_network(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert np.array_equal(portrait(cycle), np.tile([0, 4, 0, 0], (4, 1)))

    union = make_network(4, [(0, 1), (2, 3)])
    assert np.array_equal(portrait(union), np.array([[0, 4, 0, 0], [2, 2, 0, 0]]))

    rng = np.random.default_rng(3003)
    nets = []
    for _ in range(40):
        n, arcs = random_graph(rng, int(rng.integers(1, 12)), float(rng.uniform(0.1, 0.5)))
        net = make_network(n, arcs)
        assert np.all(portrait(net).sum(axis=1) == n)
        nets.append(net)
    worst_asym = 0.0
    for a, b in zip(nets, nets[1:]):
        d_ab = portrait_divergence(a, b)
        assert 0.0 <= d_ab <= 1.0
        worst_asym = max(worst_asym, abs(d_ab - portrait_divergence(b, a)))
    assert worst_asym <= 1e-12
    for net in nets[:10]:
        n = len(net.nodes)
        perm = rng.permutation(n)
        mapping = {f"n{i:03d}": f"m{perm[i]:03d}" for i in range(n)}
        assert portrait_divergence(net, relabeled(net, mapping)) == 0.0
    acceptance_log(3, f"hand tables exact, worst asymmetry {worst_asym:.1e}")


def test_c4(acceptance_log):
    """KS hand values; the 4-sample AUC; monotone-transform invariance."""
    assert ks_two_sample([1, 2, 3, 4], [3, 4, 5, 6]).statistic == 0.5
    assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).statistic == 0.0
    assert ks_two_sample([0.0, 0.1, 0.2], [5.0, 5.1, 5.2]).statistic == 1.0

    assert roc_auc(np.array([0.9, 0.8, 0.7, 0.1]), np.array([1, 0, 1, 0])).auc == 0.75

    rng = np.random.default_rng(4004)
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        # thousandths keep the affine and exponential images collision-free
        scores = rng.integers(0, 1_000_000, size=n) / 1000.0
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1
        base = roc_auc(scores, labels).auc
        assert roc_auc(2.0 * scores + 3.0, labels).auc == base
        assert roc_auc(np.exp(scores / 2000.0), labels).auc == base
    acceptance_log(4, "D=0.5 and AUC=0.75 exact, invariance on 1000 score vectors")


def test_c5(acceptance_log):
    """Analytic gradients against central differences; separable training."""
    rng = np.random.default_rng(5005)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 30))
        d = int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        params = rng.normal(scale=0.8, size=d + 1)
        l2 = float(rng.choice([0.0, 0.1, 1.0]))
        _, grad = logistic_loss_grad(params, x, y, l2)
        fd = np.empty_like(params)
        for j in range(params.size):
            bump = np.zeros_like(params)
            bump[j] = h
            fd[j] = (
                logistic_loss_grad(params + bump, x, y, l2)[0]
                - logistic_loss_grad(params - bump, x, y, l2)[0]
            ) / (2 * h)
        rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12)
        assert rel < 1e-5
        worst = max(worst, rel)

    x = np.vstack([rng.normal(2.5, 0.4, size=(30, 2)), rng.normal(-2.5, 0.4, size=(30, 2))])
    y = np.array([1.0] * 30 + [0.0] * 30)
    model = logistic_fit(x, y)
    auc = roc_auc(logistic_predict(model, x), y).auc
    assert auc == 1.0
    acceptance_log(5, f"worst relative gradient error {worst:.1e}, separable AUC 1.0")


def test_c6(acceptance_log):
    """Stratified splits keep proportions within one sample and are
    byte-for-byte reproducible from the seed."""
    rng = np.random.default_rng(6006)
    for _ in range(1000):
        folds = int(rng.integers(2, 11))
        frac = float(rng.uniform(0.1, 0.4))
        n_pos = int(rng.integers(folds, 60))
        n_neg = int(rng.integers(folds, 60))
        labels = np.array([1] * n_pos + [0] * n_neg)
        labels = labels[rng.permutation(labels.size)]
        seed = int(rng.integers(0, 10_000))
        splits = stratified_shuffle_split(labels, folds=folds, test_fraction=frac, seed=seed)
        assert len(splits) == folds
        for train, test in splits:
            assert np.intersect1d(train, test).size == 0
            assert np.union1d(train, test).size == labels.size
            for c, n_c in ((1, n_pos), (0, n_neg)):
                assert abs(int(np.sum(labels[test] == c)) - frac * n_c) <= 1.0
        again = stratified_shuffle_split(labels, folds=folds, test_fraction=frac, seed=seed)
        flat = b"".join(tr.tobytes() + te.tobytes() for tr, te in splits)
        assert flat == b"".join(tr.tobytes() + te.tobytes() for tr, te in again)
    acceptance_log(6, "1000 label sets: proportions within one sample, seeds byte-stable")


# --- synthetic end-to-end benchmark (criteria 7-9) --------------------------


@pytest.fixture(scope="session")
def synthetic_benchmark():
    """500 + 500 networks per bucket with extracted features, plus the first
    200 + 200 medium-bucket networks kept for the distance criterion."""
    t0 = time.perf_counter()
    datasets = {}
    medium_networks = []
    for bucket in (SizeBucket.D_0_100, SizeBucket.D_100_1000):
        samples = []
        for profile, seed in ((ClassProfile.BROADCAST_LIKE, 101), (ClassProfile.CLUSTERED_LIKE, 202)):
            networks = generate_ensemble(profile, bucket, count=500, seed=seed)
            if bucket is SizeBucket.D_100_1000:
                medium_networks.extend(networks[:200])
            samples.extend(
                Sample(net.network_id, extract_features(net), net.label, net.bias, net.n_nodes)
                for net in networks
            )
        datasets[bucket] = dataset_from_samples(samples)
    return datasets, medium_networks, time.perf_counter() - t0


@pytest.fixture(scope="session")
def benchmark_reports(synthetic_benchmark):
    datasets, _, build_seconds = synthetic_benchmark
    t0 = time.perf_counter()
    reports = {
        (bucket, classifier): evaluate(
            dataset, EvalConfig(classifier=classifier, k=10, folds=10, seed=0)
        )
        for bucket, dataset in datasets.items()
        for classifier in ("lr", "knn")
    }
    return reports, build_seconds + (time.perf_counter() - t0)


def test_c7(synthetic_benchmark, benchmark_reports, acceptance_log):
    """Both classifiers separate the profiles in both buckets; shuffled
    labels collapse to chance."""
    datasets, _, _ = synthetic_benchmark
    reports, elapsed_so_far = benchmark_reports
    t0 = time.perf_counter()
    details = []
    for bucket in (SizeBucket.D_0_100, SizeBucket.D_100_1000):
        for classifier in ("lr", "knn"):
            mean_auc = reports[bucket, classifier].mean("auc")
            assert mean_auc >= 0.90
            details.append(f"{bucket.value} {classifier} {mean_auc:.3f}")
        dataset = datasets[bucket]
        order = np.random.default_rng(7).permutation(len(dataset.samples))
        control_samples = [
            Sample(s.network_id, s.features, dataset.samples[j].label, s.bias, s.n_nodes)
            for s, j in zip(dataset.samples, order)
        ]
        control = evaluate(
            dataset_from_samples(control_samples),
            EvalConfig(classifier="lr", k=10, folds=10, seed=0),
        )
        assert abs(control.mean("auc") - 0.5) <= 0.07
        details.append(f"{bucket.value} control {control.mean('auc'):.3f}")
    total = elapsed_so_far + (time.perf_counter() - t0)
    assert total < 600.0
    acceptance_log(7, "; ".join(details) + f"; {total:.0f} s")


def test_c8(synthetic_benchmark, acceptance_log):
    """Nearest neighbours on the portrait divergence matrix alone classify
    the medium bucket."""
    datasets, medium_networks, _ = synthetic_benchmark
    t0 = time.perf_counter()
    networks = sorted(medium_networks, key=lambda net: net.network_id)
    assert len(networks) == 400
    matrix = distance_matrix([portrait(net) for net in networks], "portrait")
    by_id = {s.network_id: s for s in datasets[SizeBucket.D_100_1000].samples}
    samples = [by_id[net.network_id] for net in networks]
    dataset = dataset_from_samples(samples, distances=([s.network_id for s in samples], matrix))
    report = evaluate(dataset, EvalConfig(classifier="knn-distance", k=10, folds=10, seed=0))
    elapsed = time.perf_counter() - t0
    mean_auc = report.mean("auc")
    assert mean_auc >= 0.85
    assert elapsed < 900.0
    acceptance_log(8, f"portrait knn mean AUC {mean_auc:.3f} on 200+200, {elapsed:.0f} s")


def test_c9(benchmark_reports, acceptance_log):
    """Small-bucket accuracy is recorded next to the medium bucket; the
    comparison is reported, not bounded."""
    reports, _ = benchmark_reports
    small = reports[SizeBucket.D_0_100, "lr"].mean("auc")
    medium = reports[SizeBucket.D_100_1000, "lr"].mean("auc")
    for value in (small, medium):
        assert np.isfinite(value)
        assert 0.0 <= value <= 1.0
    acceptance_log(9, f"lr mean AUC small {small:.3f} vs medium {medium:.3f}")
