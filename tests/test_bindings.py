"""Names other code binds to by string: the package's ``__all__``, the
module attributes ``benchmarks/tracer.py`` wraps, and the dotted names,
flags and commands README.md gives; that the package defines
nothing, and no defaulted parameter or dataclass field, that only tests
call or pass, and no default, of a parameter or of a field, that only tests
take; and that each benchmark workload still runs one op on the package as
it is.

The tracer replaces attributes like ``rotdet.scenes.rotated_iou`` by name,
so a binding the package drops would otherwise surface only as an
``AttributeError`` from ``benchmarks/run.py --trace 1``.
"""

import argparse
import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import rotdet
from rotdet.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "benchmarks" / "tracer.py"
WORKLOADS = ROOT / "benchmarks" / "workloads.py"
README = ROOT / "README.md"
PACKAGE = sorted((ROOT / "src" / "rotdet").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))


def _source_namespace(path):
    """A benchmark module's globals, run from its source; nothing is
    written under benchmarks/ (no bytecode cache)."""
    namespace = {"__name__": path.stem}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def test_tracer_hooks_resolve_to_callables():
    hooks = _source_namespace(TRACER)["HOOKS"]
    assert hooks
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in hooks
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_benchmark_workloads_run_one_op():
    """Each workload of benchmarks/workloads.py through the steps
    benchmarks/run.py takes, on seed 1 and op 0: set-up, the op, its check
    and record, and finish, with no failure message. The train workload
    has no gate of its own, so only this shows a product change that
    breaks it."""
    workloads = _source_namespace(WORKLOADS)["WORKLOADS"]
    for name, workload in sorted(workloads.items()):
        wl = workload()
        wl.setup(1)
        out = wl.op(0)
        assert wl.check(0, out) == [], name
        assert wl.record(0, out), name
        assert wl.finish([out]) == [], name


def test_public_names_resolve():
    assert len(set(rotdet.__all__)) == len(rotdet.__all__)
    missing = [name for name in rotdet.__all__ if not hasattr(rotdet, name)]
    assert missing == []


def _readme_parts():
    """README.md's prose, with its fenced blocks taken out, and the
    ``rotdet ...`` lines of its ``sh`` blocks, comments stripped."""
    text = README.read_text()
    fences = r"^```(\w*)\n(.*?)^```$"
    commands = [line.split("#")[0].strip()
                for lang, body in re.findall(fences, text, re.M | re.S)
                if lang == "sh" for line in body.splitlines()
                if line.startswith("rotdet ")]
    return re.sub(fences, "", text, flags=re.M | re.S), commands


def _readme_dotted_names() -> list[str]:
    """Each backticked dotted name in README.md's prose that starts with
    ``rotdet.`` or with a ``rotdet`` submodule, a trailing ``()`` dropped."""
    modules = {m.name for m in pkgutil.iter_modules(rotdet.__path__)}
    prose, _ = _readme_parts()
    names = [re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?",
                          span)
             for span in re.findall(r"`([^`]+)`", prose)]
    return [m[1] for m in names
            if m and m[1].split(".")[0] in modules | {"rotdet"}]


def _resolve(dotted: str):
    """The object a dotted name names: its ``rotdet`` submodule, imported,
    then ``getattr`` for each later part."""
    module, *attrs = dotted.removeprefix("rotdet.").split(".")
    obj = importlib.import_module(f"rotdet.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def _parser_options() -> set[str]:
    """Every option string of ``build_parser()`` and of its subparsers."""
    parsers, options = [build_parser()], set()
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            options.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    return options


def test_readme_names_resolve():
    """The names include the module of each RMK RetinaNet part."""
    names = _readme_dotted_names()
    assert {"rotdet.msk", "rotdet.mdcaa", "rotdet.pyramid.bottom_up",
            "rotdet.angle"} <= set(names)
    missing = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []


def test_readme_flags_are_options():
    """Each ``--flag`` of README.md's prose and of its ``rotdet`` command
    lines; the install line's pip flag is neither."""
    prose, commands = _readme_parts()
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                           prose + "\n".join(commands)))
    assert "--config" in flags
    assert sorted(flags - _parser_options()) == []


@pytest.mark.parametrize("line", _readme_parts()[1])
def test_readme_command_parses(line):
    build_parser().parse_args(shlex.split(line)[1:])


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


# Defaulted parameters that no package or benchmark call passes, kept on
# purpose: "file:function(parameter)" -> why. A dataclass field is keyed
# "file:Cls(field)".
UNPASSED_KEPT = {
    "cli.py:main(argv)": "the entry point; tests call it with an argv",
    "msk.py:count_params(strip_sizes)": "acceptance criterion 1 audits "
                                        "other strip sizes through it",
}
# Defaulted parameters that every package or benchmark call passes, kept on
# purpose: "file:function(parameter)" -> why.
UNTAKEN_KEPT = {}


def _decorators(node) -> set:
    """The names of a definition's decorators, called or not."""
    return {getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
            for d in node.decorator_list}


def _field_has_default(stmt: ast.AnnAssign) -> bool:
    """Whether a dataclass field is given a default, as a value or as a
    ``field(...)`` with ``default`` or ``default_factory``."""
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
        return any(k.arg in ("default", "default_factory")
                   for k in value.keywords)
    return value is not None


def _defaulted_parameter_calls() -> dict[str, list[bool]]:
    """``file:function(parameter)`` of each defaulted parameter of a package
    function, and ``file:Cls(field)`` of each defaulted field of a package
    ``@dataclass``, with one entry per package or benchmark call of that
    function or class: whether the call passes it, by naming it as a
    keyword, by reaching its position, or by any ``*`` or ``**`` argument.

    Calls are matched to functions by name, as in ``_uncalled_definitions``,
    except that ``Cls.f(...)`` with ``Cls`` a package class is matched only
    to that class's ``f``, and a call on a literal, such as
    ``"...".encode()``, to none. A class name calls its ``__init__``, and the
    ``self`` of a method that is not static takes no call position. A
    dataclass's fields are its ``__init__``'s parameters, in order (no
    package dataclass inherits fields), save for a class that some code
    passes to ``fields(...)``: that code reads its defaults by name (config
    takes its keys' defaults from them), so they have a reader."""
    trees = [(path, ast.parse(path.read_text(), str(path)))
             for path in PACKAGE + BENCHMARKS]
    classes = {node.name for path, tree in trees if path in PACKAGE
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    read_by_fields = {a.id for _, tree in trees for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id", None) == "fields"
                      for a in node.args if isinstance(a, ast.Name)}
    # (key prefix, name calls use, class, positional names, defaulted names)
    signatures, calls = [], {}
    for path, tree in trees:
        owner = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name):
                    name, cls = ((f.id, None) if f.id not in classes
                                 else ("__init__", f.id))
                elif (not isinstance(f, ast.Attribute) or f.attr == "__init__"
                      or isinstance(f.value, (ast.Constant,
                                              ast.JoinedStr))):
                    continue  # no name, a base class's __init__, a literal's
                else:
                    receiver = getattr(f.value, "id",
                                       getattr(f.value, "attr", None))
                    name = f.attr
                    cls = receiver if receiver in classes else None
                spread = any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords)
                calls.setdefault(name, []).append(
                    (cls, len(node.args), {k.arg for k in node.keywords},
                     spread))
            elif path not in PACKAGE:
                continue
            elif isinstance(node, ast.FunctionDef):
                cls = owner.get(id(node))
                positional = [a.arg for a in node.args.posonlyargs
                              + node.args.args]
                if cls and "staticmethod" not in _decorators(node):
                    positional = positional[1:]
                defaulted = positional[len(positional)
                                       - len(node.args.defaults):] + [
                    a.arg for a, d in zip(node.args.kwonlyargs,
                                          node.args.kw_defaults)
                    if d is not None]
                signatures.append((f"{path.name}:{node.name}", node.name,
                                   cls and cls.name, positional, defaulted))
            elif (isinstance(node, ast.ClassDef)
                  and "dataclass" in _decorators(node)
                  and node.name not in read_by_fields):
                body = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                signatures.append((
                    f"{path.name}:{node.name}", "__init__", node.name,
                    [s.target.id for s in body],
                    [s.target.id for s in body if _field_has_default(s)]))
    found = {}
    for key, name, cls, positional, defaulted in signatures:
        matched = [call[1:] for call in calls.get(name, [])
                   if call[0] in (None, cls)]
        for param in defaulted:
            index = positional.index(param) if param in positional else None
            found[f"{key}({param})"] = [
                spread or param in keywords
                or (index is not None and n > index)
                for n, keywords, spread in matched]
    return found


def test_every_defaulted_parameter_is_passed():
    unpassed = [key for key, passes in _defaulted_parameter_calls().items()
                if not any(passes)]
    assert sorted(unpassed) == sorted(UNPASSED_KEPT)


def test_every_default_is_taken():
    """A default that every call overrides restates a value whose home is
    elsewhere (a config key, say), and only tests see it."""
    untaken = [key for key, passes in _defaulted_parameter_calls().items()
               if all(passes)]
    assert sorted(untaken) == sorted(UNTAKEN_KEPT)
