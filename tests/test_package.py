"""The package's public surface."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import diffnet

MODULES = ("errors", "graphs", "features", "graphlets", "portraits", "ml", "synth", "dataset")


def module_exports(name: str) -> list[str]:
    return importlib.import_module(f"diffnet.{name}").__all__


def defined_names(name: str) -> set[str]:
    """The names a module's own top-level statements bind, imports aside."""
    source = Path(importlib.import_module(f"diffnet.{name}").__file__).read_text(encoding="utf-8")
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


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


@pytest.mark.parametrize("name", MODULES)
def test_each_module_exports_only_names_it_defines(name):
    assert set(module_exports(name)) - defined_names(name) == set()


def test_no_name_is_exported_by_two_modules():
    # a star import lets the later module silently shadow the earlier one
    counts = Counter(n for name in MODULES for n in module_exports(name))
    assert [n for n, count in counts.items() if count > 1] == []


def test_the_package_exports_the_union_of_its_modules():
    assert sorted(diffnet.__all__) == sorted(n for name in MODULES for n in module_exports(name))
