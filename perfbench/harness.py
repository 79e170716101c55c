"""One benchmark run: set-up, the measured pipeline loop, checks, metrics.

``run.py`` sets the thread variables and the import path before this
module (and through it numpy and diffnet) is imported.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from diffnet import cli
from spans import Tracer, layer_totals
from workloads import WORKLOADS, label_manifest

SETUP_REPEATS = 5
# The ingest stages (build, generate) are short: 0.05 s on hub-stress. In a
# traced run, after each stage of an untraced iteration the ingest stages run
# once more into a throwaway directory, while the iteration holds less than
# this much ingest time; cli.ingest_s is the median of all samples of the run.
# Samples spread over the iteration, not taken in one burst, because a shared
# machine's speed drifts over seconds.
INGEST_SAMPLE_S = 0.6

END_TO_END = {  # name -> unit
    "pipeline_s": "s",
    "setup_s": "s",
    "features_s": "s",
    "dgcd_matrix_s": "s",
    "portrait_matrix_s": "s",
    "classify_s": "s",
    "auc_lr": "auc",
    "auc_knn": "auc",
    "auc_knn_dgcd13": "auc",
    "auc_knn_portrait": "auc",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# ingest_s is kept per stage but reported per-layer only, as cli.ingest_s: on
# a shared machine it did not repeat within a tenth (see README.md).
STAGE_METRICS = ("ingest_s", "features_s", "dgcd_matrix_s", "portrait_matrix_s", "classify_s")

LAYER_TIMES = (
    "graphs.load_s", "graphs.save_s", "graphs.read_events_s", "graphs.build_network_s",
    "graphs.adjacency_s", "features.components_s", "features.diameter_s",
    "features.clustering_s", "features.kcore_s", "graphlets.orbits_s", "graphlets.spearman_s",
    "graphlets.pairwise_s", "portraits.portrait_s", "portraits.pairwise_s", "ml.fold_s",
    "ml.logistic_fit_s", "ml.knn_s", "ml.roc_s", "dataset.manifest_io_s",
    "dataset.feature_table_io_s", "dataset.matrix_write_s", "dataset.matrix_read_s",
    "synth.generate_s", "cli.self_s",
)
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    "cli.ingest_s": "s",
    "features.per_network_p50_s": "s",
    "features.per_network_p90_s": "s",
    "features.networks": "count",
    "trace.overhead_s": "s",
    "graphs.nodes": "count",
    "graphs.edges": "count",
    "features.diameter_bfs_sources": "count",
    "graphlets.wedges": "count",
    "graphlets.pairs": "count",
    "portraits.bfs_sources": "count",
    "portraits.grid_cells": "count",
    "ml.logistic_iters": "count",
    "dataset.matrix_bytes": "bytes",
}


def median(values) -> float:
    return float(statistics.median(values))


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "DIFFNET_WORKERS")},
    }


class Iteration:
    """Timings and outcomes of one pass through the pipeline."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.stage_s: dict[str, float] = {}
        self.metric_s: dict[str, float] = dict.fromkeys(STAGE_METRICS, 0.0)
        self.failed_stages: list[str] = []
        self.extra_stages = 0  # ingest stages run again for more cli.ingest_s samples
        self.ingest_samples: list[float] = []
        self.hashes: dict[str, str] = {}

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())


def run_stage(argv: list[str]) -> tuple[int, str]:
    """Exit code and captured output of one CLI call."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed stage; the run goes on
            code = "crashed"
            traceback.print_exc()
    return code, captured.getvalue()


def timed_stage(stage, tracer: Tracer | None = None) -> tuple[float, int | str, str]:
    """Wall time, exit code and output of one stage, in a span of ``tracer``
    if given. Garbage is collected first, untimed, so that no stage pays for
    the collections its predecessors owe."""
    gc.collect()
    t0 = time.perf_counter()
    with tracer.stage(stage.name) if tracer else contextlib.nullcontext():
        code, output = run_stage(list(stage.argv))
    return time.perf_counter() - t0, code, output


def sample_ingest(workload, inputs, copy: Path, it: Iteration) -> None:
    """Run the ingest stages once more, into the throwaway directory
    ``copy``: one more ``cli.ingest_s`` sample."""
    copy.mkdir()
    sample = 0.0
    for stage in workload.stages(inputs, copy):
        if stage.metric != "ingest_s":
            continue
        elapsed, code, output = timed_stage(stage)
        sample += elapsed
        it.extra_stages += 1
        if code != 0:
            it.failed_stages.append(f"{stage.name} (ingest sample in {copy.name})")
            print(f"stage {stage.name} exited {code}:\n{output}", file=sys.stderr)
    it.ingest_samples.append(sample)


def run_iteration(workload, inputs, out: Path, tracer: Tracer | None,
                  more_ingest: bool) -> Iteration:
    """One pass through the pipeline; with ``more_ingest`` an untraced pass
    also takes extra ingest samples between its stages."""
    it = Iteration(tracer)
    out.mkdir(parents=True)
    with tracer.installed() if tracer else contextlib.nullcontext():
        for stage in workload.stages(inputs, out):
            elapsed, code, output = timed_stage(stage, tracer)
            it.stage_s[stage.name] = elapsed
            it.metric_s[stage.metric] += elapsed
            if code != 0:
                it.failed_stages.append(stage.name)
                print(f"stage {stage.name} exited {code}:\n{output}", file=sys.stderr)
            elif stage.name == "build":
                label_manifest(out / "corpus", inputs.labels)
            sampled = it.metric_s["ingest_s"] + sum(it.ingest_samples)
            if more_ingest and tracer is None and sampled < INGEST_SAMPLE_S:
                sample_ingest(workload, inputs, out / f"ingest-{len(it.ingest_samples)}", it)
    it.hashes = {name: checks.sha256(path) if path.exists() else "missing"
                 for name, path in checks.output_files(out).items()}
    if tracer is None:
        it.ingest_samples.append(it.metric_s["ingest_s"])
    return it


def count_operations(iterations: list[Iteration], result: checks.CheckResult) -> tuple[int, int]:
    """Attempted and failed operations. Each iteration attempts every stage,
    every network in each of the three per-network stages and every output
    file. A stage fails by a nonzero exit, a network by being skipped (absent
    from an output), a file by failing the check (first iteration) or by
    differing from the first iteration's bytes. Two more operations: writing
    identical inputs in every set-up, and building the networks the
    benchmark generated (``corpus``)."""
    first = iterations[0]
    attempted, failed = 2, result.skipped + len(result.failed_files)
    for it in iterations:
        attempted += len(it.stage_s) + it.extra_stages + 3 * result.n_networks + len(it.hashes)
        failed += len(it.failed_stages)
        failed += sum(1 for name, h in it.hashes.items() if h != first.hashes[name])
    return attempted, failed


def grid_cells(shapes) -> int:
    """Cells of the padded (rows x cols) grid summed over all portrait pairs,
    computed from the portrait shapes: the work of the pairwise divergences."""
    rows = np.array([s[0] for s in shapes], dtype=np.int64)
    cols = np.array([s[1] for s in shapes], dtype=np.int64)
    upper = np.triu_indices(len(shapes), k=1)
    return int(np.sum(np.maximum.outer(rows, rows)[upper] * np.maximum.outer(cols, cols)[upper]))


def traced_metrics(it: Iteration) -> dict[str, float]:
    """Per-layer times and the counts read from traced calls, one iteration."""
    totals = layer_totals(it.tracer.spans)
    values = {name: totals.get(name, 0.0) for name in LAYER_TIMES}
    per_net = [e - s for n, s, e, _ in it.tracer.spans if n == "features.extract"]
    values["features.networks"] = len(per_net)
    values["features.per_network_p50_s"] = float(np.percentile(per_net or [0.0], 50))
    values["features.per_network_p90_s"] = float(np.percentile(per_net or [0.0], 90))
    values["ml.logistic_iters"] = sum(it.tracer.results["logistic_iters"])
    values["portraits.grid_cells"] = grid_cells(it.tracer.results["portrait_shapes"])
    return values


def run(args, import_s: float, root: Path) -> int:
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_work"
    run_dir = work / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    env = environment()
    try:
        return measure(args, workload, run_dir, import_s, env, work)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, workload, run_dir: Path, import_s: float, env: dict, work: Path) -> int:
    # set-up: write the inputs several times, keep the first, require identical bytes
    prep_s, digests, inputs = [], [], None
    for k in range(SETUP_REPEATS):
        directory = run_dir / f"inputs-{k}"
        directory.mkdir(parents=True)
        t0 = time.perf_counter()
        made = workload.prepare(directory, args.seed)
        prep_s.append(time.perf_counter() - t0)
        digests.append(checks.sha256(made.events) if made.events else "")
        if inputs is None:
            inputs = made
    setup_s = import_s + median(prep_s)

    # the measured loop; with tracing every second iteration is traced
    iterations: list[Iteration] = []
    iteration_s: list[float] = []  # wall time of each iteration, ingest samples included
    t_loop = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(iterations) % 2 == 1 else None
        out = run_dir / f"iter-{len(iterations)}"
        t0 = time.perf_counter()
        iterations.append(run_iteration(workload, inputs, out, tracer, more_ingest=bool(args.trace)))
        iteration_s.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_loop
        enough = len(iterations) >= (2 if args.trace else 1)
        if enough and elapsed + median(iteration_s) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Nothing is deleted while the loop runs: on ext4, writing new files in
    # the seconds after thousands were deleted took up to three times as
    # long, which showed as noise in the ingest stages.
    for path in run_dir.iterdir():
        if path.name not in ("iter-0", "inputs-0"):
            shutil.rmtree(path)

    out = run_dir / "iter-0"
    t_check = time.perf_counter()
    try:
        result = checks.check_outputs(out, workload.name, args.seed, inputs.graphs,
                                      undirected_portraits=workload.name == "hub-stress")
    except Exception:  # unreadable outputs: report every output as failed
        traceback.print_exc()
        result = checks.CheckResult()
        for name in checks.output_files(out):
            result.fail(name, "the check could not read the outputs")
    if len(set(digests)) > 1:
        result.fail("inputs", "the same seed wrote different inputs")
    if args.write_reference:
        print(f"wrote reference {checks.write_reference(out, workload.name, args.seed)}",
              file=sys.stderr)
    attempted, failed = count_operations(iterations, result)
    check_s = time.perf_counter() - t_check

    untraced = [it for it in iterations if it.tracer is None]
    traced = [it for it in iterations if it.tracer is not None]
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "generator": workload.params(args.seed),
        "iterations": len(iterations),
        "traced_iterations": len(traced),
        "pipeline_s_each": [it.pipeline_s for it in iterations],
        "stage_s_median": {name: median(it.stage_s[name] for it in untraced)
                           for name in iterations[0].stage_s},
        "ingest_s_each": [it.ingest_samples for it in untraced],
        "import_s": import_s,
        "prepare_s_each": prep_s,
        "check_s": check_s,
        "reference": result.reference,
        "sha256": iterations[0].hashes,
        "failures": result.failures[:20],
    }

    if args.trace:
        per_iteration = [traced_metrics(it) for it in traced]
        metrics = {name: median(v[name] for v in per_iteration) for name in per_iteration[0]}
        metrics["trace.overhead_s"] = (median(it.pipeline_s for it in traced)
                                       - median(it.pipeline_s for it in untraced))
        metrics["cli.ingest_s"] = median(s for it in untraced for s in it.ingest_samples)
        metrics.update(result.counts)
        units = PER_LAYER
        trace_path = work / "traces" / f"{workload.name}-seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps([it.tracer.to_json() for it in traced]))
    else:
        metrics = {name: median(it.metric_s[name] for it in untraced)
                   for name in STAGE_METRICS if name in END_TO_END}
        metrics["pipeline_s"] = median(it.pipeline_s for it in untraced)
        metrics["setup_s"] = setup_s
        for name in checks.REPORTS:
            metrics["auc_" + name.replace("-", "_")] = result.aucs.get(name, 0.0)
        metrics["success_ratio"] = 1.0 - failed / attempted
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END

    print(json.dumps({"info": info}, sort_keys=True))
    for failure in result.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for name in units:
        print(f"{name:32s} {metrics.get(name, 0.0):>18.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1
