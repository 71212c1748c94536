"""Layering of ``src/repro``, checked on the source text.

``repro.core`` is the evaluation kernel every other package builds on, so
it imports nothing of theirs; ``repro/text.py`` is the one place that
splits text into words; and ``diagrams.best_threshold`` is the one place
that picks a best threshold.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _repro_imports(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
    return {n for n in names if n == "repro" or n.startswith("repro.")}


def test_core_imports_only_core():
    core = SRC / "repro" / "core"
    outside = {
        str(path.relative_to(SRC)): sorted(
            n for n in _repro_imports(tree) if not n.startswith("repro.core")
        )
        for path, tree in _modules()
        if core in path.parents
    }
    assert {p: ns for p, ns in outside.items() if ns} == {}


def test_only_text_module_splits_words():
    callers = {
        str(path.relative_to(SRC))
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "split"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "F"
    }
    assert callers == {"repro/text.py"}


def test_only_diagrams_picks_a_maximum():
    callers = {
        str(path.relative_to(SRC))
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Attribute) and node.func.attr in {"idxmax", "argmax"}
            or isinstance(node.func, ast.Name) and node.func.id == "argmax"
        )
    }
    assert callers == {"repro/core/diagrams.py"}
