"""Span tracing from outside the program.

``Tracer.installed()`` replaces the public functions of each diffnet
module that the pipeline stages call (and the cached adjacency views of
``DiffusionNetwork``) with wrappers that record one span per call: its
layer metric name, start, end and parent span. Every module attribute
bound to a wrapped function is replaced, so calls made through names
imported into other modules (``cli`` imports ``load_network``, for
example) are recorded too. Leaving the context restores the originals.

Spans are recorded only while a stage span is open and are kept in
memory; the benchmark writes them out (``Tracer.to_json``) when it ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from functools import cached_property

import diffnet
from diffnet.graphs import DiffusionNetwork

#: (module, function) -> layer metric. A metric is the inclusive time of
#: its spans; a span nested inside a span of the same metric is not added
#: again (``divergence_from_portraits`` pads through ``pad_portraits``).
LAYERS = {
    ("graphs", "load_network"): "graphs.load_s",
    ("graphs", "save_network"): "graphs.save_s",
    ("graphs", "read_events"): "graphs.read_events_s",
    ("graphs", "build_network"): "graphs.build_network_s",
    ("features", "component_features"): "features.components_s",
    ("features", "lwcc_diameter"): "features.diameter_s",
    ("features", "average_clustering"): "features.clustering_s",
    ("features", "main_kcore"): "features.kcore_s",
    ("features", "extract_features"): "features.extract",
    ("graphlets", "count_orbits"): "graphlets.orbits_s",
    ("graphlets", "correlation_matrix"): "graphlets.spearman_s",
    ("graphlets", "dgcd_from_correlations"): "graphlets.pairwise_s",
    ("portraits", "portrait"): "portraits.portrait_s",
    ("portraits", "pad_portraits"): "portraits.pairwise_s",
    ("portraits", "divergence_from_portraits"): "portraits.pairwise_s",
    ("ml", "evaluate"): "ml.fold_s",
    ("ml", "logistic_fit"): "ml.logistic_fit_s",
    ("ml", "knn_predict"): "ml.knn_s",
    ("ml", "knn_predict_from_distances"): "ml.knn_s",
    ("ml", "roc_auc"): "ml.roc_s",
    ("dataset", "read_manifest"): "dataset.manifest_io_s",
    ("dataset", "write_manifest"): "dataset.manifest_io_s",
    ("dataset", "read_feature_table"): "dataset.feature_table_io_s",
    ("dataset", "write_feature_table"): "dataset.feature_table_io_s",
    ("dataset", "write_distance_matrix"): "dataset.matrix_write_s",
    ("dataset", "read_distance_matrix"): "dataset.matrix_read_s",
    ("synth", "generate_ensemble"): "synth.generate_s",
}

STAGE_PREFIX = "cli."


def layer_totals(spans) -> dict[str, float]:
    """Inclusive seconds per metric, counting a span nested in a span of the
    same metric once, plus ``cli.self_s``: stage spans minus their children."""
    totals: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0 and not name.startswith(STAGE_PREFIX):
            totals[name] = totals.get(name, 0.0) + (end - start)
    totals["cli.self_s"] = sum(
        end - start - child_time[i]
        for i, (name, start, end, _) in enumerate(spans)
        if name.startswith(STAGE_PREFIX)
    )
    return totals


class Tracer:
    """Spans of one run: ``(name, start, end, parent index)``; parent -1 is none."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.results: dict[str, list] = {"logistic_iters": [], "portrait_shapes": []}
        self._stack: list[int] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)

    @contextmanager
    def stage(self, name: str):
        index = self._open(STAGE_PREFIX + name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, metric: str):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            index = tracer._open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if fn.__name__ == "logistic_fit":
                tracer.results["logistic_iters"].append(result.n_iter)
            elif fn.__name__ == "portrait":
                tracer.results["portrait_shapes"].append(result.shape)
            return result

        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced

    # -- installing the wrappers ------------------------------------------

    @contextmanager
    def installed(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "diffnet" or name.startswith("diffnet.")]
        saved: list[tuple[object, str, object]] = []
        try:
            for (module_name, fn_name), metric in LAYERS.items():
                original = getattr(getattr(diffnet, module_name, None), fn_name, None)
                if original is None:  # gone from the program: the metric reads 0
                    print(f"trace: diffnet.{module_name}.{fn_name} not found", file=sys.stderr)
                    continue
                wrapper = self._wrap(original, metric)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, attr, value))
                            setattr(module, attr, wrapper)
            # the first touch of every cached view of a network is graphs.adjacency_s
            views = [(k, v) for k, v in vars(DiffusionNetwork).items()
                     if isinstance(v, cached_property)]
            for view, original in views:
                replacement = cached_property(self._wrap(original.func, "graphs.adjacency_s"))
                replacement.__set_name__(DiffusionNetwork, view)
                saved.append((DiffusionNetwork, view, original))
                setattr(DiffusionNetwork, view, replacement)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def to_json(self) -> dict:
        """The spans as ``{"names": [...], "spans": [[name index, start, end,
        parent], ...]}``, times in seconds of ``time.perf_counter``."""
        names = sorted({n for n, _, _, _ in self.spans})
        index = {n: k for k, n in enumerate(names)}
        return {"names": names, "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}
