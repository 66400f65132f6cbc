"""A guard against dead code: every top-level function or class of
``src/nettom``, public or private, is used somewhere in the package or the
benchmark, so a helper that only tests call lives in the tests, and a
private helper that nothing calls is deleted. The same holds for the
private methods of a class: each ``_name`` (not a dunder) is read as an
attribute somewhere in the package, ``self._name`` as well as
``obj._name``.

A use counts only where it resolves to that definition: a bare name in the
defining module (outside the definition itself), a name imported from that
module, an attribute on an import of that module, or a span of
``bench/layers.json``, which the tracer wraps by name. A word that merely
matches, such as the benchmark's own ``gate.normalize``, does not count."""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nettom"

# "module.name": why nothing in the package or the benchmark names it.
ALLOWED = {
    "sinkhorn.ntd_loss": "the paper's regularized loss, the value whose "
                         "gradient ntd_loss_grad returns; criterion 7 "
                         "differences it",
    "cli.network": "a click command, reached through `nettom network`",
    "cli.simulate": "a click command, reached through `nettom simulate`",
    "cli.tournament": "a click command, reached through `nettom tournament`",
    "cli.dataset_cmd": "a click command, reached through `nettom dataset`",
    "cli.score": "a click command, reached through `nettom score`",
    "cli.ntd_score": "a click command, reached through `nettom ntd score`",
    "cli.ntd_sinkhorn": "a click command, reached through `nettom ntd sinkhorn`",
}


def _module_of(node: ast.ImportFrom, path: Path) -> str | None:
    """The ``nettom`` module an import-from names, or None for any other."""
    if node.level == 1 and path.parent == PACKAGE:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "nettom":
        return node.module.partition(".")[2]
    return None


def _uses_in(path: Path) -> set[tuple[str, str]]:
    """Every (module, name) that a file of the package or the benchmark
    imports, or reads as an attribute of a module bound by
    ``from nettom import module`` (``from . import module`` in the package)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses: set[tuple[str, str]] = set()
    aliases: dict[str, str] = {}  # local name -> nettom module it is bound to
    for node in ast.walk(tree):
        module = _module_of(node, path) if isinstance(node, ast.ImportFrom) else None
        if module is None:
            continue
        for alias in node.names:
            if module:
                uses.add((module, alias.name))
            else:  # from nettom import dataset
                aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            uses.add((aliases[node.value.id], node.attr))
    return uses


def _bare_uses(path: Path) -> set[tuple[str, int]]:
    """(name, line) of every bare name a module of the package loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {(node.id, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Name)}


def _traced_spans() -> set[tuple[str, str]]:
    """(module, name) of every ``nettom.module:name[.attr]`` span that
    ``bench/layers.json`` wraps."""
    layers = json.loads((ROOT / "bench" / "layers.json").read_text(encoding="utf-8"))
    spans = set()
    for targets in layers["spans"].values():
        for target in targets:
            module, _, name = target.partition(":")
            spans.add((module.partition(".")[2], name.split(".")[0]))
    return spans


def _definitions():
    """(module, name, path, first line, last line) of every top-level
    function or class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name, path, node.lineno, node.end_lineno


def _unused() -> list[str]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    uses = _traced_spans().union(*map(_uses_in, files))
    bare = {path: _bare_uses(path) for path in PACKAGE.glob("*.py")}
    return [
        f"{module}.{name}"
        for module, name, path, first, last in _definitions()
        if (module, name) not in uses
        and not any(word == name and not first <= line <= last
                    for word, line in bare[path])
    ]


def _private_methods():
    """(module, class, method) of every private method, not a dunder, of a
    top-level class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.name.startswith("_") and not node.name.endswith("__")):
                    yield path.stem, cls.name, node.name


def _attributes_read() -> set[str]:
    """Every attribute name the package reads as ``x.name``."""
    return {node.attr for path in PACKAGE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}


def test_every_private_method_is_read_as_an_attribute():
    read = _attributes_read()
    assert [f"{module}.{cls}.{name}" for module, cls, name in _private_methods()
            if name not in read] == []


def test_every_public_definition_is_named_elsewhere():
    assert [name for name in _unused() if name not in ALLOWED] == []


def test_allow_list_names_live_definitions():
    defined = {f"{module}.{name}" for module, name, *_ in _definitions()}
    assert set(ALLOWED) <= defined
