"""Names other code binds to by string: the package's ``__all__`` and the
module attributes ``benchmarks/tracer.py`` wraps.

The tracer replaces attributes like ``rotdet.scenes.rotated_iou`` by name,
so a binding the package drops would otherwise surface only as an
``AttributeError`` from ``benchmarks/run.py --trace 1``.
"""

from pathlib import Path

import rotdet

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


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
