"""A guard against dead code: every top-level function or class of
``src/nettom``, public or private, is named on some other line of the
package or of the benchmark, so a helper that only tests call lives in the
tests, and a private helper that nothing calls is deleted."""

import ast
import re
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

_WORD = re.compile(r"[A-Za-z_]\w*")


def _word_lines() -> dict[str, set[tuple[str, int]]]:
    """Every identifier-like word of the package and the benchmark, with
    the (file, line) places that name it."""
    files = sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in (ROOT / "bench").rglob("*") if p.is_file())
    places: dict[str, set[tuple[str, int]]] = {}
    for path in files:
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            for word in _WORD.findall(line):
                places.setdefault(word, set()).add((str(path), lineno))
    return places


def _definitions():
    """(module, name, path, line) of every top-level function or class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name, str(path), node.lineno


def test_every_public_definition_is_named_elsewhere():
    places = _word_lines()
    unused = [
        f"{module}.{name}"
        for module, name, path, lineno in _definitions()
        if f"{module}.{name}" not in ALLOWED
        and not places.get(name, set()) - {(path, lineno)}
    ]
    assert unused == []


def test_allow_list_names_live_definitions():
    defined = {f"{module}.{name}" for module, name, _, _ in _definitions()}
    assert set(ALLOWED) <= defined
