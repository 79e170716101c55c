"""The package's public surface."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import diffnet


def test_every_exported_name_resolves():
    missing = [name for name in diffnet.__all__ if not hasattr(diffnet, name)]
    assert missing == []


def test_every_traced_layer_resolves():
    # the benchmark's tracer only warns about a missing function, and the
    # layer's metric then reads 0, so a rename must fail here instead
    spans_path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, name in spans.LAYERS
        if not callable(getattr(getattr(diffnet, module, None), name, None))
    ]
    assert missing == []
