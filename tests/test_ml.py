"""Statistics, classifiers, CV splitting, and evaluation metrics."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as hnp

from diffnet import (
    Bias,
    ClassProfile,
    ConvergenceWarning,
    EvalConfig,
    FeatureVector,
    Label,
    LabeledDataset,
    LogisticConfig,
    LogisticModel,
    POSITIVE_LABEL,
    Sample,
    SizeBucket,
    evaluate,
    extract_features,
    feature_ks_tests,
    generate_ensemble,
    knn_predict,
    knn_predict_from_distances,
    ks_two_sample,
    logistic_fit,
    logistic_loss_grad,
    logistic_predict,
    roc_auc,
    standardize_apply,
    standardize_fit,
    stratified_shuffle_split,
    threshold_metrics,
)
from diffnet.ml import average_ranks

import util


def make_sample(i: int, row, label: Label, n_nodes: int = 50) -> Sample:
    return Sample(
        network_id=f"s{i:04d}",
        features=FeatureVector(*row),
        label=label,
        bias=Bias.NONE,
        n_nodes=n_nodes,
    )


def two_class_dataset(rng, n_per_class, cc_range_neg, cc_range_pos, n_nodes=50, distances=None):
    """cc carries the class signal; the integer features are mild noise."""
    samples = []
    for i in range(2 * n_per_class):
        negative = i < n_per_class
        label = Label.MAINSTREAM if negative else Label.DISINFORMATION
        row = [
            int(rng.integers(1, 6)),
            int(rng.integers(1, 4)),
            int(rng.integers(1, 6)),
            int(rng.integers(2, 9)),
            int(rng.integers(0, 4)),
            float(rng.uniform(*(cc_range_neg if negative else cc_range_pos))),
            int(rng.integers(0, 3)),
        ]
        samples.append(make_sample(i, row, label, n_nodes))
    return LabeledDataset(samples, distances)


# --- Kolmogorov-Smirnov -----------------------------------------------------


def test_ks_identical_samples():
    d, p = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert d == 0.0
    assert p == 1.0


def test_ks_disjoint_supports():
    xs = np.arange(0.0, 1.0, 0.01)
    d, p = ks_two_sample(xs, xs + 10.0)
    assert d == 1.0
    assert p < 1e-6


def test_ks_half_overlap():
    d, _ = ks_two_sample([1, 2, 3, 4], [3, 4, 5, 6])
    assert d == 0.5


def test_ks_empty_sample_rejected():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])
    with pytest.raises(ValueError):
        ks_two_sample([1.0], [])


@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=30),
    st.lists(st.integers(-20, 20), min_size=1, max_size=30),
)
def test_ks_symmetric_and_bounded(xs, ys):
    d_xy, p_xy = ks_two_sample(xs, ys)
    d_yx, p_yx = ks_two_sample(ys, xs)
    assert d_xy == d_yx
    assert p_xy == p_yx
    assert 0.0 <= d_xy <= 1.0
    assert 0.0 <= p_xy <= 1.0


def test_ks_matches_scipy():
    # statistic against ks_2samp; p-value against the asymptotic Kolmogorov
    # distribution at sqrt(nm/(n+m))*D, which is what the series implements
    # (ks_2samp's own "asymp" mode nowadays uses the finite-n kstwo instead)
    rng = np.random.default_rng(7)
    for _ in range(20):
        xs = rng.normal(0.0, 1.0, size=rng.integers(10, 60))
        ys = rng.normal(rng.uniform(-1, 1), 1.0, size=rng.integers(10, 60))
        d, p = ks_two_sample(xs, ys)
        assert d == pytest.approx(scipy.stats.ks_2samp(xs, ys).statistic, abs=1e-12)
        lam = np.sqrt(len(xs) * len(ys) / (len(xs) + len(ys))) * d
        assert p == pytest.approx(scipy.stats.kstwobign.sf(lam), abs=1e-10)


def test_feature_ks_tests_pick_out_separated_columns():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, size=(40, 7))
    y = np.array([0] * 20 + [1] * 20)
    x[y == 1, 3] += 10.0  # disjoint supports on the fourth feature
    x[:, 0] = 0.5  # identical distributions on the first
    results = feature_ks_tests(x, y)
    assert [name for name, _, _ in results] == [
        "scc", "lscc", "wcc", "lwcc", "dwcc", "cc", "kc",
    ]
    by_name = {name: (d, p) for name, d, p in results}
    assert by_name["lwcc"][0] == 1.0
    assert by_name["scc"] == (0.0, 1.0)


# --- standardization --------------------------------------------------------


def test_standardize_hand_column():
    means, stds = standardize_fit(np.array([[1.0], [2.0], [3.0]]))
    assert means[0] == 2.0
    assert stds[0] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
    z = standardize_apply(np.array([[1.0], [2.0], [3.0]]), means, stds)
    assert z[:, 0] == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589], abs=1e-9)


def test_standardize_constant_column():
    train = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    means, stds = standardize_fit(train)
    z = standardize_apply(train, means, stds)
    assert np.all(z[:, 0] == 0.0)


def test_standardized_columns_are_zero_one():
    rng = np.random.default_rng(3)
    train = rng.normal(5.0, 3.0, size=(50, 4))
    means, stds = standardize_fit(train)
    z = standardize_apply(train, means, stds)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)


def test_standardize_refit_is_identity():
    # refitting on standardized data yields (0, 1), whose application is a no-op
    rng = np.random.default_rng(4)
    train = rng.normal(size=(30, 3))
    z = standardize_apply(train, *standardize_fit(train))
    means2, stds2 = standardize_fit(z)
    assert np.allclose(means2, 0.0, atol=1e-9)
    assert np.allclose(stds2, 1.0, atol=1e-9)
    assert np.allclose(standardize_apply(z, means2, stds2), z, atol=1e-9)


def test_standardize_empty_rejected():
    with pytest.raises(ValueError):
        standardize_fit(np.empty((0, 3)))


# --- logistic regression ----------------------------------------------------


def test_zero_model_predicts_half():
    model = LogisticModel(weights=np.zeros(3), bias=0.0, n_iter=0, grad_norm=0.0)
    probs = logistic_predict(model, np.array([[1.0, -2.0, 3.0], [0.0, 0.0, 0.0]]))
    assert np.all(probs == 0.5)


def test_separable_training_reaches_auc_one():
    x = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = logistic_fit(x, y)
    curve = roc_auc(logistic_predict(model, x), y)
    assert curve.auc == 1.0
    assert model.weights[0] > 0


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(10):
        n, d = int(rng.integers(5, 20)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        params = rng.normal(size=d + 1)
        _, grad = logistic_loss_grad(params, x, y, l2=1.0)
        fd = np.empty_like(params)
        for i in range(len(params)):
            e = np.zeros_like(params)
            e[i] = h
            lp, _ = logistic_loss_grad(params + e, x, y, l2=1.0)
            lm, _ = logistic_loss_grad(params - e, x, y, l2=1.0)
            fd[i] = (lp - lm) / (2 * h)
        rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12)
        assert rel < 1e-5


def test_fit_reaches_gradient_tolerance():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 2))
    y = (x[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(float)
    model = logistic_fit(x, y)
    assert model.grad_norm <= 1e-8
    assert model.n_iter < 10_000


def test_fit_without_ridge_tolerates_a_constant_column():
    rng = np.random.default_rng(7)
    x = np.column_stack([rng.normal(size=60), np.zeros(60)])
    y = (x[:, 0] + rng.normal(size=60) > 0).astype(float)
    model = logistic_fit(x, y, LogisticConfig(l2=0.0))
    assert model.grad_norm <= 1e-8
    assert model.weights[1] == 0.0


def test_unconverged_fit_warns():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 2))
    y = (x[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(float)
    with pytest.warns(ConvergenceWarning, match="stopped after 1 iterations"):
        model = logistic_fit(x, y, LogisticConfig(max_iter=1))
    assert model.n_iter == 1
    assert model.grad_norm > LogisticConfig().tol


def test_newton_fit_converges_on_a_feature_table():
    # 200 + 200 small-bucket networks, the many-small benchmark corpus of
    # seed 0, and its ten CV folds. In one fold the loss stops resolving
    # decreases at gradient norm ~1e-8, so a step that only lowers the
    # gradient norm must still be taken.
    networks = [
        net
        for profile, seed in ((ClassProfile.BROADCAST_LIKE, 1), (ClassProfile.CLUSTERED_LIKE, 2))
        for net in generate_ensemble(profile, SizeBucket.D_0_100, count=200, seed=seed)
    ]
    networks.sort(key=lambda net: net.network_id)
    x = np.vstack([extract_features(net).to_array() for net in networks])
    y = np.array([1.0 if net.label is POSITIVE_LABEL else 0.0 for net in networks])
    config = LogisticConfig()
    for train, _ in stratified_shuffle_split(y, folds=10, seed=0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            model = logistic_fit(
                standardize_apply(x[train], *standardize_fit(x[train])), y[train], config
            )
        assert model.n_iter < 50
        assert model.grad_norm <= config.tol


def test_logistic_input_validation():
    x = np.array([[1.0], [2.0]])
    with pytest.raises(ValueError, match="single class"):
        logistic_fit(x, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        logistic_fit(np.array([[np.nan], [2.0]]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="2-D"):
        logistic_fit(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="binary"):
        logistic_fit(x, np.array([0.0, 2.0]))


# --- k-nearest neighbors ----------------------------------------------------


def test_knn_coincident_positive_point():
    train = np.array([[0.0, 0.0], [5.0, 5.0]])
    assert knn_predict(train, np.array([1, 0]), np.array([0.0, 0.0]), k=1) == 1.0


def test_knn_full_neighborhood_gives_global_fraction():
    rng = np.random.default_rng(1)
    train = rng.normal(size=(12, 3))
    labels = rng.integers(0, 2, size=12)
    for _ in range(5):
        query = rng.normal(size=3)
        assert knn_predict(train, labels, query, k=12) == labels.mean()


def test_knn_four_point_hand_instance():
    train = np.array([[0.0], [1.0], [2.0], [3.0]])
    labels = np.array([0, 1, 0, 1])
    query = np.array([1.1])
    # distances: 1.1, 0.1, 0.9, 1.9
    assert knn_predict(train, labels, query, k=1) == 1.0
    assert knn_predict(train, labels, query, k=2) == 0.5
    assert knn_predict(train, labels, query, k=3) == pytest.approx(1 / 3)
    assert knn_predict(train, labels, query, k=4) == 0.5


def test_knn_distance_tie_prefers_smaller_index():
    train = np.array([[0.0], [2.0]])
    assert knn_predict(train, np.array([1, 0]), np.array([1.0]), k=1) == 1.0
    assert knn_predict(train, np.array([0, 1]), np.array([1.0]), k=1) == 0.0


def test_knn_k_out_of_range():
    train = np.array([[0.0], [1.0]])
    labels = np.array([0, 1])
    for k in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            knn_predict(train, labels, np.array([0.5]), k=k)


@given(st.integers(0, 10_000), st.integers(3, 12), st.integers(1, 12), st.booleans())
def test_knn_matrix_form_matches_feature_form(seed, n, k, on_grid):
    rng = np.random.default_rng(seed)
    test = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    train = np.setdiff1d(np.arange(n), test)
    assume(k <= len(train))
    # points on a small integer grid tie many distances
    points = rng.integers(0, 3, size=(n, 2)).astype(float) if on_grid else rng.normal(size=(n, 2))
    labels = rng.integers(0, 2, size=n)
    matrix = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    via_matrix = knn_predict_from_distances(matrix[np.ix_(test, train)], labels[train], k)
    assert via_matrix.shape == (len(test),)
    for row, q in zip(via_matrix, test):
        assert row == knn_predict(points[train], labels[train], points[q], k)


# --- stratified shuffle split -----------------------------------------------


def test_split_ninety_ten_fold_composition():
    labels = np.array([1] * 90 + [0] * 10)
    splits = stratified_shuffle_split(labels, folds=10, test_fraction=0.1, seed=0)
    assert len(splits) == 10
    for train, test in splits:
        assert len(test) == 10 and len(train) == 90
        assert np.sum(labels[test] == 1) == 9
        assert np.sum(labels[test] == 0) == 1
        assert len(np.intersect1d(train, test)) == 0
        assert len(np.union1d(train, test)) == 100


def test_split_reproducible_from_seed():
    labels = np.array([0] * 30 + [1] * 25)
    a = stratified_shuffle_split(labels, seed=42)
    b = stratified_shuffle_split(labels, seed=42)
    c = stratified_shuffle_split(labels, seed=43)
    for (tr_a, te_a), (tr_b, te_b) in zip(a, b):
        assert np.array_equal(tr_a, tr_b) and np.array_equal(te_a, te_b)
    assert any(not np.array_equal(te_a, te_c) for (_, te_a), (_, te_c) in zip(a, c))


def test_split_small_class_rejected():
    with pytest.raises(ValueError, match="fewer than"):
        stratified_shuffle_split(np.array([0] * 5 + [1] * 50), folds=10)


def test_split_must_leave_training_samples():
    labels = np.array([0] * 10 + [1] * 10)
    with pytest.raises(ValueError, match="training"):
        stratified_shuffle_split(labels, folds=10, test_fraction=0.95)


def test_split_bad_fraction_rejected():
    labels = np.array([0] * 20 + [1] * 20)
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError, match="test_fraction"):
            stratified_shuffle_split(labels, test_fraction=bad)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="folds must be >= 1"):
            stratified_shuffle_split(labels, folds=bad)


def test_split_proportions_within_one_sample():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n0 = int(rng.integers(10, 120))
        n1 = int(rng.integers(10, 120))
        labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
        rng.shuffle(labels)
        frac = float(rng.uniform(0.08, 0.35))
        for _, test in stratified_shuffle_split(labels, folds=3, test_fraction=frac, seed=0):
            for cls, size in ((0, n0), (1, n1)):
                got = int(np.sum(labels[test] == cls))
                assert abs(got - frac * size) <= 1.0


# --- ranks ------------------------------------------------------------------


_MATRIX_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)


@given(
    hnp.arrays(np.int64, _MATRIX_SHAPES, elements=st.sampled_from([0, 1, 2, 3, 7]))
    | hnp.arrays(np.float64, _MATRIX_SHAPES, elements=st.floats(-3, 3, width=16))
)
def test_average_ranks_of_columns_match_oracle(values):
    ranks = average_ranks(values)
    assert ranks.shape == values.shape
    for k in range(values.shape[1]):
        assert np.array_equal(ranks[:, k], util.oracle_average_ranks(values[:, k]))
        assert np.array_equal(average_ranks(values[:, k]), ranks[:, k])


# --- ROC and AUC ------------------------------------------------------------


def test_roc_perfect_ranking():
    curve = roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
    assert curve.auc == 1.0
    assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
    assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)


def test_roc_all_ties_is_half():
    curve = roc_auc(np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0]))
    assert curve.auc == 0.5
    assert np.array_equal(curve.fpr, [0.0, 1.0])
    assert np.array_equal(curve.tpr, [0.0, 1.0])


def test_roc_hand_case_three_quarters():
    curve = roc_auc(np.array([0.9, 0.8, 0.7, 0.1]), np.array([1, 0, 1, 0]))
    assert curve.auc == 0.75
    assert np.array_equal(curve.fpr, [0.0, 0.0, 0.5, 0.5, 1.0])
    assert np.array_equal(curve.tpr, [0.0, 0.5, 0.5, 1.0, 1.0])
    assert curve.thresholds[0] == np.inf
    assert np.array_equal(curve.thresholds[1:], [0.9, 0.8, 0.7, 0.1])


def test_roc_monotone_transform_invariance():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        scores = rng.integers(0, 1000, size=n) / 1000.0
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = roc_auc(scores, labels).auc
        assert roc_auc(2.0 * scores + 3.0, labels).auc == base
        assert roc_auc(np.exp(scores), labels).auc == base


def test_roc_negation_complements_auc():
    rng = np.random.default_rng(14)
    scores = rng.permutation(20) / 20.0  # distinct, so no ties
    labels = np.array([1] * 8 + [0] * 12)
    auc = roc_auc(scores, labels).auc
    assert roc_auc(-scores, labels).auc == pytest.approx(1.0 - auc, abs=1e-12)


def test_roc_single_class_rejected():
    with pytest.raises(ValueError, match="both classes"):
        roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))


@given(
    st.lists(st.integers(0, 6), min_size=2, max_size=30),
    st.integers(0, 10_000),
)
def test_roc_matches_pair_counting_oracle(score_ints, seed):
    scores = np.asarray(score_ints, dtype=np.float64) / 7.0
    labels = np.random.default_rng(seed).integers(0, 2, size=len(scores))
    assume(0 < labels.sum() < len(labels))
    curve = roc_auc(scores, labels)
    assert curve.auc == pytest.approx(util.oracle_auc(scores, labels), abs=1e-12)
    assert np.all(np.diff(curve.fpr) >= 0)
    assert np.all(np.diff(curve.tpr) >= 0)
    assert np.all(np.diff(curve.thresholds[1:].astype(float)) < 0)
    assert 0.0 <= curve.auc <= 1.0


def test_threshold_metrics_hand_case():
    scores = np.array([0.9, 0.6, 0.4, 0.2])
    labels = np.array([1, 0, 1, 0])
    precision, recall, f1 = threshold_metrics(scores, labels, 0.5)
    assert (precision, recall, f1) == (0.5, 0.5, 0.5)


def test_threshold_metrics_degenerate_fallbacks():
    assert threshold_metrics(np.array([0.1, 0.2]), np.array([1, 1]), 0.5) == (0.0, 0.0, 0.0)
    assert threshold_metrics(np.array([0.9]), np.array([0]), 0.5) == (0.0, 0.0, 0.0)


# --- labeled datasets -------------------------------------------------------


def test_dataset_rejects_duplicate_ids():
    rng = np.random.default_rng(0)
    samples = [make_sample(0, [1, 1, 1, 2, 0, 0.1, 1], Label.MAINSTREAM)] * 2
    with pytest.raises(ValueError, match="duplicate"):
        LabeledDataset(samples)


def test_dataset_distance_matrix_validation():
    samples = [
        make_sample(i, [1, 1, 1, 2, 0, 0.1, 1], Label.MAINSTREAM) for i in range(3)
    ]
    with pytest.raises(ValueError, match="shape"):
        LabeledDataset(list(samples), np.zeros((2, 2)))
    bad_diag = np.zeros((3, 3))
    bad_diag[1, 1] = 0.5
    with pytest.raises(ValueError, match="diagonal"):
        LabeledDataset(list(samples), bad_diag)
    asym = np.zeros((3, 3))
    asym[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        LabeledDataset(list(samples), asym)
    not_finite = np.zeros((3, 3))
    not_finite[0, 1] = not_finite[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        LabeledDataset(list(samples), not_finite)
    nearly = np.array([[0.0, 1.0, 2.0], [1.0 + 1e-12, 0.0, 3.0], [2.0, 3.0, 0.0]])
    LabeledDataset(list(samples), nearly)  # asymmetry below tolerance is fine


def test_label_vector_marks_positive_class():
    ds = LabeledDataset(
        [
            make_sample(0, [1, 1, 1, 2, 0, 0.1, 1], Label.MAINSTREAM),
            make_sample(1, [1, 1, 1, 2, 0, 0.1, 1], Label.DISINFORMATION),
        ]
    )
    assert POSITIVE_LABEL is Label.DISINFORMATION
    assert np.array_equal(ds.label_vector(), [0, 1])


# --- evaluate ---------------------------------------------------------------


def test_evaluate_disjoint_supports_perfect_auc():
    # every feature's class-conditional support is disjoint
    rng = np.random.default_rng(21)
    samples = []
    for i in range(60):
        negative = i < 30
        lo = 0 if negative else 10
        row = [
            int(rng.integers(1 + lo, 3 + lo)),
            int(rng.integers(1 + lo, 3 + lo)),
            int(rng.integers(1 + lo, 3 + lo)),
            int(rng.integers(2 + lo, 4 + lo)),
            int(rng.integers(1 + lo, 3 + lo)),
            float(rng.uniform(0.0, 0.2) if negative else rng.uniform(0.8, 1.0)),
            int(rng.integers(1 + lo, 3 + lo)),
        ]
        label = Label.MAINSTREAM if negative else Label.DISINFORMATION
        samples.append(make_sample(i, row, label))
    ds = LabeledDataset(samples)
    for config in (EvalConfig(classifier="lr"), EvalConfig(classifier="knn", k=5)):
        report = evaluate(ds, config)
        assert report.mean("auc") == 1.0
        assert len(report.folds) == 10
        assert report.pooled_auc == 1.0


def test_evaluate_noise_hovers_near_half():
    rng = np.random.default_rng(22)
    ds = two_class_dataset(rng, 150, (0.0, 1.0), (0.0, 1.0))
    report = evaluate(ds, EvalConfig(classifier="knn", k=10))
    assert 0.3 < report.mean("auc") < 0.7


def test_evaluate_requires_twenty_per_class():
    rng = np.random.default_rng(23)
    samples = two_class_dataset(rng, 25, (0.0, 0.5), (0.5, 1.0)).samples[6:]
    ds = LabeledDataset(samples)  # 19 mainstream, 25 disinformation
    with pytest.raises(ValueError, match=">= 20"):
        evaluate(ds, EvalConfig(classifier="lr"))


def test_evaluate_knn_k_larger_than_fold_training_set():
    rng = np.random.default_rng(24)
    ds = two_class_dataset(rng, 20, (0.0, 0.5), (0.5, 1.0))
    with pytest.raises(ValueError, match="fold 0"):
        evaluate(ds, EvalConfig(classifier="knn", k=100))


def test_evaluate_knn_distance_needs_matrix():
    rng = np.random.default_rng(25)
    ds = two_class_dataset(rng, 20, (0.0, 0.5), (0.5, 1.0))
    with pytest.raises(ValueError, match="distance matrix"):
        evaluate(ds, EvalConfig(classifier="knn-distance", k=5))


def test_evaluate_rejects_an_unknown_classifier():
    rng = np.random.default_rng(25)
    ds = two_class_dataset(rng, 20, (0.0, 0.5), (0.5, 1.0))
    with pytest.raises(ValueError, match="unknown classifier 'svm'"):
        evaluate(ds, EvalConfig(classifier="svm"))


def test_evaluate_knn_distance_on_separated_matrix():
    rng = np.random.default_rng(26)
    ds = two_class_dataset(rng, 25, (0.0, 0.1), (0.9, 1.0))
    features = ds.feature_matrix()[:, 5:6]  # cc alone separates the classes
    matrix = np.abs(features - features.T)
    ds = LabeledDataset(ds.samples, matrix)
    report = evaluate(ds, EvalConfig(classifier="knn-distance", k=5))
    assert report.mean("auc") == 1.0
    assert report.config["classifier"] == "knn-distance"


def test_evaluate_bucket_restriction():
    rng = np.random.default_rng(27)
    small = two_class_dataset(rng, 30, (0.0, 0.3), (0.7, 1.0), n_nodes=50).samples
    big = [
        make_sample(100 + i, [1, 1, 1, 2, 0, rng.uniform(0, 1), 1],
                    Label.MAINSTREAM if i < 25 else Label.DISINFORMATION, n_nodes=500)
        for i in range(50)
    ]
    # evaluate scores every sample it is given: a bucket is chosen by
    # building the dataset from the samples whose node count it contains
    config = EvalConfig(classifier="knn", k=3)
    for bucket, n_samples in ((SizeBucket.D_0_100, 60), (SizeBucket.D_100_1000, 50)):
        ds = LabeledDataset([s for s in small + big if bucket.contains(s.n_nodes)])
        assert evaluate(ds, config).n_samples == n_samples
    assert evaluate(LabeledDataset(small + big), config).n_samples == 110
    empty = LabeledDataset([s for s in small + big if SizeBucket.D_1000_INF.contains(s.n_nodes)])
    with pytest.raises(ValueError, match="class 0 has 0 samples, need >= 20"):
        evaluate(empty, config)


def test_evaluate_is_deterministic():
    rng = np.random.default_rng(28)
    ds = two_class_dataset(rng, 25, (0.0, 0.4), (0.6, 1.0))
    config = EvalConfig(classifier="lr", seed=5)
    assert evaluate(ds, config).to_dict() == evaluate(ds, config).to_dict()


def test_report_json_layout():
    rng = np.random.default_rng(29)
    samples = two_class_dataset(rng, 25, (0.0, 0.4), (0.6, 1.0)).samples
    samples += [
        make_sample(100 + i, [1, 1, 1, 2, 0, 0.5, 1], Label.MAINSTREAM, n_nodes=500)
        for i in range(5)
    ]
    ds = LabeledDataset([s for s in samples if SizeBucket.D_0_100.contains(s.n_nodes)])
    report = evaluate(ds, EvalConfig(classifier="knn", k=5))
    payload = report.to_dict()
    # the bucket is the caller's choice of samples: cli.cmd_classify records it
    assert set(payload) == {"config", "n_samples", "folds", "aggregate", "pooled_auc"}
    assert payload["n_samples"] == 50
    assert len(payload["folds"]) == 10
    for fold in payload["folds"]:
        assert fold["roc"][0]["threshold"] is None  # the sentinel before any positive call
        assert 0.0 <= fold["auc"] <= 1.0
        for key in ("precision", "recall", "f1"):
            assert 0.0 <= fold[key] <= 1.0
    assert set(payload["aggregate"]) == {"auc", "precision", "recall", "f1"}
    for stat in payload["aggregate"].values():
        assert set(stat) == {"mean", "std"}
    assert 0.0 <= payload["pooled_auc"] <= 1.0


def test_evaluate_standardizes_on_train_only():
    """Leakage guard: fold scores must match a train-only reimplementation and
    differ from a leaky one once extreme outliers sit in the test folds."""
    rng = np.random.default_rng(30)
    samples = []
    for i in range(50):
        label = Label.MAINSTREAM if i < 25 else Label.DISINFORMATION
        cc = rng.normal(0.35 if i < 25 else 0.65, 0.12)
        # two extreme points in an otherwise tame noise column; standardizing
        # on train folds that miss them leaves their test z-scores enormous
        scc = 100_000 if i in (7, 40) else int(rng.integers(1, 6))
        samples.append(make_sample(i, [scc, 1, 1, 2, 0, cc, 1], label))
    ds = LabeledDataset(samples)
    config = EvalConfig(classifier="lr", seed=11)
    report = evaluate(ds, config)

    x, y = ds.feature_matrix(), ds.label_vector()
    splits = stratified_shuffle_split(y, folds=10, test_fraction=0.1, seed=11)
    outliers = np.flatnonzero(x[:, 0] == 100_000)
    assert any(np.intersect1d(test, outliers).size for _, test in splits)

    gaps = []
    for fold, (train, test) in enumerate(splits):
        means, stds = standardize_fit(x[train])
        model = logistic_fit(standardize_apply(x[train], means, stds), y[train], config.logistic)
        clean = logistic_predict(model, standardize_apply(x[test], means, stds))
        assert report.folds[fold].auc == roc_auc(clean, y[test]).auc

        leaky_fit = standardize_fit(x[np.concatenate([train, test])])
        model_l = logistic_fit(standardize_apply(x[train], *leaky_fit), y[train], config.logistic)
        leaky = logistic_predict(model_l, standardize_apply(x[test], *leaky_fit))
        gaps.append(np.max(np.abs(clean - leaky)))
    assert max(gaps) > 0.05


def test_evaluate_knn_matches_per_query_reference():
    # the reference scores each test sample on its own, as knn_predict does
    rng = np.random.default_rng(31)
    samples = two_class_dataset(rng, 25, (0.0, 0.6), (0.4, 1.0)).samples
    samples += [  # a coarse second bucket, so each bucket's dataset is a strict subset
        make_sample(100 + i, [int(rng.integers(1, 4)), 1, 1, 2, 0, 0.5, 1],
                    Label.MAINSTREAM if i < 20 else Label.DISINFORMATION, n_nodes=500)
        for i in range(40)
    ]
    config = EvalConfig(classifier="knn", k=7, seed=3)
    for bucket in (SizeBucket.D_0_100, SizeBucket.D_100_1000, SizeBucket.D_ALL):
        ds = LabeledDataset([s for s in samples if bucket.contains(s.n_nodes)])
        report = evaluate(ds, config)

        x, y = ds.feature_matrix(), ds.label_vector()
        pooled_scores, pooled_labels = [], []
        splits = stratified_shuffle_split(y, folds=10, test_fraction=0.1, seed=3)
        for fold, (train, test) in enumerate(splits):
            means, stds = standardize_fit(x[train])
            train_z = standardize_apply(x[train], means, stds)
            scores = []
            for q in standardize_apply(x[test], means, stds):
                nearest = np.argsort(np.linalg.norm(train_z - q, axis=1), kind="stable")[:7]
                scores.append(float(y[train][nearest].mean()))
            roc = roc_auc(np.array(scores), y[test])
            assert report.folds[fold].auc == roc.auc
            assert np.array_equal(report.folds[fold].roc.thresholds, roc.thresholds)
            pooled_scores += scores
            pooled_labels.append(y[test])
        assert report.pooled_auc == roc_auc(np.array(pooled_scores), np.concatenate(pooled_labels)).auc


def test_eval_config_dict_flattens_the_logistic_settings():
    config = EvalConfig(
        classifier="knn", k=5, folds=3, test_fraction=0.2, seed=7, threshold=0.4,
        logistic=LogisticConfig(l2=0.5, tol=1e-6, max_iter=7),
    )
    values = config.to_dict()
    assert list(values) == [
        "classifier", "k", "folds", "test_fraction", "seed", "threshold", "l2", "tol", "max_iter",
    ]
    assert values == {
        "classifier": "knn", "k": 5, "folds": 3, "test_fraction": 0.2, "seed": 7,
        "threshold": 0.4, "l2": 0.5, "tol": 1e-6, "max_iter": 7,
    }
