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


# --- file access ---------------------------------------------------------------

FILE_CALLS = {"open", "read_text", "read_bytes", "write_text"}


def file_calls(node: ast.AST, functions: tuple[str, ...] = ()):
    """``(enclosing function names, call name, call)`` for each call in
    ``node`` that opens, reads or writes a file."""
    for child in ast.iter_child_nodes(node):
        inner = functions
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = functions + (child.name,)
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                yield inner, name, child
        yield from file_calls(child, inner)


def open_mode(call: ast.Call) -> str:
    """The mode of ``open(path, mode)`` or ``path.open(mode)``."""
    positional = call.args[1:] if isinstance(call.func, ast.Name) else call.args
    mode = next((k.value for k in call.keywords if k.arg == "mode"), positional[0] if positional else None)
    return "r" if mode is None else ast.literal_eval(mode)


def test_every_file_is_read_by_numbered_lines_and_written_with_a_fixed_encoding_and_newline():
    # one reader decodes, numbers and fails the lines of every input file;
    # every writer names the bytes it writes, whatever the platform
    readers, loose_writers, writers = set(), [], 0
    for path in sorted(Path(diffnet.__file__).resolve().parent.glob("*.py")):
        for functions, name, call in file_calls(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{call.lineno}"
            if name == "write_text" or (name == "open" and set(open_mode(call)) & set("wax+")):
                writers += 1
                keywords = {k.arg: ast.unparse(k.value) for k in call.keywords}
                if keywords.get("encoding") != "'utf-8'" or "newline" not in keywords:
                    loose_writers.append(where)
            else:
                readers.add((path.name, functions[0] if functions else None))
    assert readers == {("graphs.py", "numbered_lines")}
    assert writers >= 8 and loose_writers == []
