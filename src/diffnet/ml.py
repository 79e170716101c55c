"""Statistical tests, classifiers, cross-validation and evaluation metrics.

Everything here is deterministic given its seed. The positive class is
``disinformation`` throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .features import FEATURE_NAMES, FeatureVector
from .graphs import Bias, Label

__all__ = [
    "ClassificationReport",
    "ConvergenceWarning",
    "EvalConfig",
    "FoldMetrics",
    "KSResult",
    "LabeledDataset",
    "LogisticConfig",
    "LogisticModel",
    "POSITIVE_LABEL",
    "RocCurve",
    "Sample",
    "evaluate",
    "feature_ks_tests",
    "knn_predict",
    "knn_predict_from_distances",
    "ks_two_sample",
    "logistic_fit",
    "logistic_loss_grad",
    "logistic_predict",
    "roc_auc",
    "standardize_apply",
    "standardize_fit",
    "stratified_shuffle_split",
    "threshold_metrics",
]

POSITIVE_LABEL = Label.DISINFORMATION
CLASSIFIERS = ("lr", "knn", "knn-distance")  # knn-distance reads a distance matrix alone
MIN_CLASS_SAMPLES = 20  # the fewest samples per class that evaluate cross-validates


# --- Kolmogorov-Smirnov two-sample test -------------------------------------


class KSResult(NamedTuple):
    statistic: float
    p_value: float


def _kolmogorov_sf(lam: float, terms: int = 100) -> float:
    """Asymptotic Kolmogorov survival function, series truncated at ``terms``.

    Below lam = 0.05 the truncated alternating series is unstable while the
    true value is 1 to far beyond double precision, so 1.0 is returned.
    """
    if lam < 0.05:
        return 1.0
    total = 0.0
    for j in range(1, terms + 1):
        total += (-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(xs: Sequence[float], ys: Sequence[float]) -> KSResult:
    """Two-sample KS statistic and asymptotic p-value.

    D is the supremum ECDF gap; the p-value uses the Kolmogorov
    distribution at sqrt(n*m/(n+m)) * D.
    """
    xs = np.sort(np.asarray(xs, dtype=np.float64))
    ys = np.sort(np.asarray(ys, dtype=np.float64))
    n, m = len(xs), len(ys)
    if n == 0 or m == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, grid, side="right") / n
    cdf_y = np.searchsorted(ys, grid, side="right") / m
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    lam = math.sqrt(n * m / (n + m)) * d
    return KSResult(d, _kolmogorov_sf(lam))


def feature_ks_tests(x: np.ndarray, y: np.ndarray) -> list[tuple[str, float, float]]:
    """Per-feature KS test between the two classes of a feature matrix."""
    results = []
    for j, name in enumerate(FEATURE_NAMES):
        stat, p = ks_two_sample(x[y == 1, j], x[y == 0, j])
        results.append((name, stat, p))
    return results


# --- feature standardization ------------------------------------------------


def standardize_fit(train: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and population stds; zero stds are replaced by 1 so
    constant columns map to 0."""
    train = np.asarray(train, dtype=np.float64)
    if train.size == 0:
        raise ValueError("cannot standardize an empty matrix")
    means = train.mean(axis=0)
    stds = train.std(axis=0)
    stds = np.where(stds == 0.0, 1.0, stds)
    return means, stds


def standardize_apply(x: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    return (np.asarray(x, dtype=np.float64) - means) / stds


# --- logistic regression ----------------------------------------------------


class ConvergenceWarning(UserWarning):
    """An iterative fit stopped at its iteration limit before converging."""


@dataclass(frozen=True)
class LogisticConfig:
    l2: float = 1.0
    tol: float = 1e-8
    max_iter: int = 10_000


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float
    n_iter: int
    grad_norm: float


def logistic_loss_grad(
    params: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    """Regularized negative log-likelihood and its gradient.

    ``params`` is (weights..., bias); the intercept is not penalized.
    """
    w, b = params[:-1], params[-1]
    z = x @ w + b
    # log(1 + e^z) - y*z, computed stably
    loss = float(np.sum(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * w @ w)
    residual = _sigmoid(z) - y
    grad = np.empty_like(params)
    grad[:-1] = x.T @ residual + l2 * w
    grad[-1] = residual.sum()
    return loss, grad


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_fit(x: np.ndarray, y: np.ndarray, config: LogisticConfig = LogisticConfig()) -> LogisticModel:
    """Damped Newton (IRLS) steps on the regularized loss.

    Each step solves ``H d = grad`` with the Hessian
    ``X1' diag(s(1 - s)) X1 + diag(l2, ..., l2, 0)`` (X1 is ``x`` with a
    column of ones for the bias) and halves the step until it passes the
    Armijo test on the loss or lowers the gradient norm: near the optimum
    the loss cannot resolve a decrease, but the gradient norm still can.
    Stops when the gradient norm falls below ``config.tol`` or after
    ``config.max_iter`` steps; stopping unconverged warns with a
    ``ConvergenceWarning``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or len(x) != len(y):
        raise ValueError("x must be 2-D with one row per label")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature value")
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("labels contain a single class")
    if not np.all(np.isin(classes, (0.0, 1.0))):
        raise ValueError("labels must be binary 0/1")

    x1 = np.column_stack([x, np.ones(len(x))])
    ridge = np.diag(np.append(np.full(x.shape[1], config.l2), 0.0))
    params = np.zeros(x.shape[1] + 1)
    loss, grad = logistic_loss_grad(params, x, y, config.l2)
    n_iter = 0
    gnorm = float(np.linalg.norm(grad))
    while gnorm > config.tol and n_iter < config.max_iter:
        s = _sigmoid(x1 @ params)
        hessian = (x1.T * (s * (1.0 - s))) @ x1 + ridge
        try:
            direction = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:  # singular: a constant column and no ridge
            direction = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        slope = float(grad @ direction)
        step = 1.0
        while True:
            candidate = params - step * direction
            new_loss, new_grad = logistic_loss_grad(candidate, x, y, config.l2)
            new_gnorm = float(np.linalg.norm(new_grad))
            if new_loss <= loss - 1e-4 * step * slope or new_gnorm < gnorm or step < 1e-18:
                break
            step *= 0.5
        params, loss, grad, gnorm = candidate, new_loss, new_grad, new_gnorm
        n_iter += 1
    if gnorm > config.tol:
        warnings.warn(
            f"logistic regression stopped after {n_iter} iterations with gradient norm "
            f"{gnorm:.3g} > tol {config.tol:g}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return LogisticModel(weights=params[:-1], bias=float(params[-1]), n_iter=n_iter, grad_norm=gnorm)


def logistic_predict(model: LogisticModel, x: np.ndarray) -> np.ndarray:
    """P(positive) for each row of ``x``."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return _sigmoid(x @ model.weights + model.bias)


# --- k-nearest neighbors ----------------------------------------------------


def knn_predict_from_distances(distances: np.ndarray, train_y: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``distances`` (one row per query, one column per training
    sample), the fraction of the k nearest training samples that are
    positive; among tied distances the smaller column wins."""
    train_y = np.asarray(train_y)
    if not 1 <= k <= len(train_y):
        raise ValueError(f"k={k} out of range for {len(train_y)} training samples")
    nearest = np.argsort(distances, axis=1, kind="stable")[:, :k]
    return train_y[nearest].mean(axis=1)


def knn_predict(train_x: np.ndarray, train_y: np.ndarray, query: np.ndarray, k: int) -> float:
    """The one-row Euclidean case of :func:`knn_predict_from_distances`."""
    train_x = np.asarray(train_x, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    distances = np.linalg.norm(train_x - query, axis=1)
    return float(knn_predict_from_distances(distances[None], train_y, k)[0])


# --- cross validation -------------------------------------------------------


def stratified_shuffle_split(
    labels: np.ndarray,
    folds: int = 10,
    test_fraction: float = 0.1,
    seed: int = 0,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Independent stratified train/test splits, reproducible from the seed.

    Each test set holds round(test_fraction * class size) members of every
    class, so test proportions stay within one sample of the global ones.
    """
    labels = np.asarray(labels)
    if folds < 1:
        raise ValueError("folds must be >= 1")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    classes = np.unique(labels)
    for c in classes:
        if np.sum(labels == c) < folds:
            raise ValueError(f"class {c!r} has fewer than {folds} members")
    rng = np.random.default_rng(seed)
    splits = []
    for _ in range(folds):
        train_parts, test_parts = [], []
        for c in classes:
            idx = np.flatnonzero(labels == c)
            perm = rng.permutation(idx)
            n_test = max(1, int(math.floor(test_fraction * len(idx) + 0.5)))
            if n_test >= len(idx):
                raise ValueError(f"class {c!r} too small to leave training samples")
            test_parts.append(perm[:n_test])
            train_parts.append(perm[n_test:])
        splits.append((np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))))
    return splits


# --- ROC / AUC --------------------------------------------------------------


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned their average rank.

    A 2-D ``values`` is ranked column by column, all columns in one
    stable sort.
    """
    values = np.asarray(values)
    columns = values.reshape(len(values), -1)
    order = np.argsort(columns, axis=0, kind="stable")
    ordered = np.take_along_axis(columns, order, axis=0)
    rows = np.arange(len(columns))[:, None]
    tied = np.zeros(columns.shape, dtype=bool)  # tied[i]: row i ties row i - 1
    tied[1:] = ordered[1:] == ordered[:-1]
    first = np.maximum.accumulate(np.where(tied, 0, rows), axis=0)
    ends = np.ones(columns.shape, dtype=bool)  # ends[i]: row i ends its tie group
    ends[:-1] = ~tied[1:]
    last = np.minimum.accumulate(np.where(ends, rows, len(columns))[::-1], axis=0)[::-1]
    ranks = np.empty(columns.shape)
    np.put_along_axis(ranks, order, (first + last) / 2 + 1, axis=0)
    return ranks.reshape(values.shape)


class RocCurve(NamedTuple):
    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """ROC by threshold sweep plus the Mann-Whitney AUC.

    AUC equals P(score_pos > score_neg) + 0.5 * P(equal), computed from
    average ranks, which matches the trapezoidal area of the swept curve.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present to compute a ROC")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels == 1)
    fp = np.cumsum(sorted_labels == 0)
    # one ROC point per distinct threshold, at the last index of each run
    last_of_run = np.flatnonzero(np.diff(sorted_scores) != 0)
    cut = np.concatenate([last_of_run, [len(scores) - 1]])
    thresholds = np.concatenate([[np.inf], sorted_scores[cut]])
    fpr = np.concatenate([[0.0], fp[cut] / n_neg])
    tpr = np.concatenate([[0.0], tp[cut] / n_pos])

    # Mann-Whitney from average ranks
    ranks = average_ranks(scores)
    auc = (float(ranks[labels == 1].sum()) - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    return RocCurve(thresholds, fpr, tpr, auc)


# --- labeled datasets and evaluation ----------------------------------------


@dataclass(frozen=True)
class Sample:
    network_id: str
    features: FeatureVector
    label: Label
    bias: Bias
    n_nodes: int


@dataclass
class LabeledDataset:
    """Feature samples plus an optional precomputed distance matrix aligned
    with the sample order."""

    samples: list[Sample]
    distances: np.ndarray | None = None

    def __post_init__(self):
        ids = [s.network_id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate network_id in dataset")
        if self.distances is not None:
            d = np.asarray(self.distances, dtype=np.float64)
            if d.shape != (len(ids), len(ids)):
                raise ValueError(
                    f"distance matrix shape {d.shape} does not match {len(ids)} samples"
                )
            if not np.isfinite(d).all():
                raise ValueError("distance matrix must be finite")
            if np.any(np.diag(d) != 0.0):
                raise ValueError("distance matrix diagonal must be zero")
            if d.size and np.max(np.abs(d - d.T)) > 1e-9:
                raise ValueError("distance matrix must be symmetric")
            self.distances = d

    def feature_matrix(self) -> np.ndarray:
        return np.vstack([s.features.to_array() for s in self.samples])

    def label_vector(self) -> np.ndarray:
        return np.array([1 if s.label is POSITIVE_LABEL else 0 for s in self.samples], dtype=int)


@dataclass(frozen=True)
class EvalConfig:
    classifier: str = "lr"  # one of CLASSIFIERS
    k: int = 10
    folds: int = 10
    test_fraction: float = 0.1
    seed: int = 0
    threshold: float = 0.5
    logistic: LogisticConfig = field(default_factory=LogisticConfig)

    def to_dict(self) -> dict:
        """Every field in declaration order, ``logistic`` replaced by its fields."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "logistic"}
        values.update(asdict(self.logistic))
        return values


@dataclass(frozen=True)
class FoldMetrics:
    auc: float
    precision: float
    recall: float
    f1: float
    roc: RocCurve


@dataclass
class ClassificationReport:
    folds: list[FoldMetrics]
    pooled_auc: float
    config: dict
    n_samples: int

    def mean(self, metric: str) -> float:
        return float(np.mean([getattr(f, metric) for f in self.folds]))

    def std(self, metric: str) -> float:
        return float(np.std([getattr(f, metric) for f in self.folds]))

    def to_dict(self) -> dict:
        metrics = ("auc", "precision", "recall", "f1")
        return {
            "config": self.config,
            "n_samples": self.n_samples,
            "folds": [
                {
                    **{m: getattr(f, m) for m in metrics},
                    "roc": [
                        {"threshold": t if math.isfinite(t) else None, "fpr": fp, "tpr": tp}
                        for t, fp, tp in zip(f.roc.thresholds.tolist(), f.roc.fpr.tolist(), f.roc.tpr.tolist())
                    ],
                }
                for f in self.folds
            ],
            "aggregate": {
                m: {"mean": self.mean(m), "std": self.std(m)} for m in metrics
            },
            "pooled_auc": self.pooled_auc,
        }


def threshold_metrics(scores: np.ndarray, labels: np.ndarray, threshold: float) -> tuple[float, float, float]:
    """(precision, recall, f1) at a fixed score threshold."""
    pred = np.asarray(scores) >= threshold
    labels = np.asarray(labels)
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _fold_scores(
    x: np.ndarray,
    y: np.ndarray,
    distances: np.ndarray | None,
    train: np.ndarray,
    test: np.ndarray,
    config: EvalConfig,
) -> np.ndarray:
    """Scores of the ``test`` rows from a model of the ``train`` rows; both
    index the rows of ``x`` and ``y`` and the rows and columns of
    ``distances``."""
    if config.classifier == "knn-distance":
        block = distances[np.ix_(test, train)]
    else:
        means, stds = standardize_fit(x[train])
        train_z = standardize_apply(x[train], means, stds)
        test_z = standardize_apply(x[test], means, stds)
        if config.classifier == "lr":
            return logistic_predict(logistic_fit(train_z, y[train], config.logistic), test_z)
        block = np.linalg.norm(train_z[None] - test_z[:, None], axis=2)
    return knn_predict_from_distances(block, y[train], config.k)


def evaluate(dataset: LabeledDataset, config: EvalConfig) -> ClassificationReport:
    """Full cross-validated evaluation of every sample of ``dataset``."""
    if config.classifier not in CLASSIFIERS:
        raise ValueError(f"unknown classifier {config.classifier!r}")
    if config.classifier == "knn-distance" and dataset.distances is None:
        raise ValueError("knn-distance requires a dataset with a distance matrix")
    y = dataset.label_vector()
    for cls, count in enumerate(np.bincount(y, minlength=2)):
        if count < MIN_CLASS_SAMPLES:
            raise ValueError(f"class {cls} has {count} samples, need >= {MIN_CLASS_SAMPLES}")
    x = dataset.feature_matrix()

    splits = stratified_shuffle_split(y, folds=config.folds, test_fraction=config.test_fraction, seed=config.seed)
    n_train = len(splits[0][0])  # the same in every fold
    if config.classifier != "lr" and config.k > n_train:
        raise ValueError(f"fold 0: k={config.k} exceeds training size {n_train}")
    folds = []
    pooled_scores, pooled_labels = [], []
    for train, test in splits:
        scores = _fold_scores(x, y, dataset.distances, train, test, config)
        roc = roc_auc(scores, y[test])
        precision, recall, f1 = threshold_metrics(scores, y[test], config.threshold)
        folds.append(FoldMetrics(auc=roc.auc, precision=precision, recall=recall, f1=f1, roc=roc))
        pooled_scores.append(scores)
        pooled_labels.append(y[test])
    pooled = roc_auc(np.concatenate(pooled_scores), np.concatenate(pooled_labels))
    return ClassificationReport(
        folds=folds,
        pooled_auc=pooled.auc,
        config=config.to_dict(),
        n_samples=len(y),
    )
