"""Names other code binds to by string: the package's ``__all__`` and the
module attributes ``benchmarks/tracer.py`` wraps; and that the package
defines nothing only tests call.

The tracer replaces attributes like ``rotdet.scenes.rotated_iou`` by name,
so a binding the package drops would otherwise surface only as an
``AttributeError`` from ``benchmarks/run.py --trace 1``.
"""

import ast
from pathlib import Path

import rotdet

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "benchmarks" / "tracer.py"
PACKAGE = sorted((ROOT / "src" / "rotdet").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))


def _tracer_namespace():
    """The tracer module's globals, run from its source; nothing is
    written under benchmarks/ (no bytecode cache)."""
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def test_tracer_hooks_resolve_to_callables():
    hooks = _tracer_namespace()["HOOKS"]
    assert hooks
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in hooks
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_public_names_resolve():
    assert len(set(rotdet.__all__)) == len(rotdet.__all__)
    missing = [name for name in rotdet.__all__ if not hasattr(rotdet, name)]
    assert missing == []


def _uncalled_definitions() -> list[str]:
    """``file:name`` of each function, class and method the package defines,
    dunders aside, that no package or benchmark code names: as a name, an
    attribute, or a string such as an ``__all__`` entry or a tracer hook.
    The files are parsed, not imported."""
    defined, named = [], set()
    for path in PACKAGE + BENCHMARKS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if path in PACKAGE and not (node.name.startswith("__")
                                            and node.name.endswith("__")):
                    defined.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                named.add(node.value)
    return [f"{file}:{name}" for file, name in defined if name not in named]


def test_every_definition_has_a_product_caller():
    assert _uncalled_definitions() == []
