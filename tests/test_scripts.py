"""Smoke tests: each experiment script's ``main`` runs on a tiny ensemble."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from diffnet.cli import RunConfig

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_has_a_smoke_test():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == ["run_benchmark"]


def test_run_benchmark(tmp_path, capsys):
    load_script("run_benchmark").main(
        ["--count", "20", "--buckets", "0-100", "--control", "--out-dir", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert "[0-100] lr: mean AUC" in out
    assert "[0-100] knn: mean AUC" in out
    assert "shuffled-label control" in out
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["benchmark-0-100-knn.json", "benchmark-0-100-lr.json"]


@pytest.mark.parametrize("metric", ["dgcd13", "portrait"])
def test_run_distance_benchmark(tmp_path, capsys, metric):
    # K-NN on the distance matrix alone
    load_script("run_benchmark").main(
        ["--count", "20", "--buckets", "0-100", "--classifiers", f"knn-{metric}",
         "--out-dir", str(tmp_path)]
    )
    assert f"[0-100] knn-{metric}: mean AUC" in capsys.readouterr().out
    (out,) = tmp_path.iterdir()
    assert out.name == f"benchmark-0-100-knn-{metric}.json"
    report = json.loads(out.read_text())
    assert report["n_samples"] == 40
    assert report["config"]["classifier"] == "knn-distance"


def test_run_distance_benchmark_rejects_an_option_it_would_not_read():
    with pytest.raises(SystemExit) as excinfo:
        load_script("run_benchmark").main(["--classifiers", "knn-dgcd13", "--portrait-undirected"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "option, message",
    [
        (["--count", "0"], "--count must be >= 20, the samples per class evaluate needs"),
        (["--k", "0"], "--k must be >= 1"),
        (["--folds", "0"], "--folds must be >= 1"),
        (["--test-fraction", "1.5"], "--test-fraction must be in (0, 1)"),
        (["--seed", "-1"], "--seed must be >= 0"),
    ],
    ids=["count", "k", "folds", "test-fraction", "seed"],
)
def test_run_benchmark_refuses_a_bad_number_as_diffnet_does(capsys, option, message):
    # the rules and words of diffnet's own checks, with a usage error's exit 2
    with pytest.raises(SystemExit) as excinfo:
        load_script("run_benchmark").main(["--count", "20", "--buckets", "0-100", *option])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_run_benchmark_refuses_fewer_networks_than_evaluate_needs(capsys):
    with pytest.raises(SystemExit) as excinfo:
        load_script("run_benchmark").main(["--count", "5", "--buckets", "0-100"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any network is generated
    assert captured.err.endswith(
        "error: --count must be >= 20, the samples per class evaluate needs\n"
    )


def test_run_benchmark_defaults_are_diffnets(monkeypatch):
    script = load_script("run_benchmark")
    configs = []

    class Evaluated(Exception):
        pass

    def evaluate(dataset, config):
        configs.append(config)
        raise Evaluated

    monkeypatch.setattr(script, "evaluate", evaluate)
    # read when the script parses its options: another default shows through
    defaults = {"k": 3, "folds": 4, "test_fraction": 0.25, "seed": 2}
    for name, value in defaults.items():
        monkeypatch.setattr(RunConfig, name, value)
    with pytest.raises(Evaluated):
        script.main(["--count", "20", "--buckets", "0-100", "--classifiers", "lr"])
    (config,) = configs
    assert {name: getattr(config, name) for name in defaults} == defaults
