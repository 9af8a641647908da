"""Guard: the one memo in radsolve that outlives a call is ``quadrature._octaves``.

A user runs one command per process, so a cache that lives across commands
(of kernels, node arrays or parsers) pays off only when many commands share
one interpreter, as in an in-process benchmark.  ``_octaves`` is kept: the
probes of one ``classify`` command share its block of octave nodes.  State a
command needs for longer belongs to an object the command creates and drops, such
as the samples of f_j that ``ProblemSpec.diagonals`` returns.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "radsolve"
CACHES = {"lru_cache", "cache"}


def _cache_uses(path: Path) -> list[tuple[str, str, str]]:
    """(module, cache name, decorated function or how it is used) per use of a
    ``functools`` cache in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    decorated = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                decorated.update((id(sub), node.name) for sub in ast.walk(dec))
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            uses += [(path.stem, a.name, "imported") for a in node.names if a.name in CACHES]
        elif isinstance(node, ast.Import):
            uses += [(path.stem, "functools", f"imported as {a.asname}")
                     for a in node.names if a.name == "functools" and a.asname]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            uses.append((path.stem, node.attr, decorated.get(id(node), "called")))
    return uses


def test_octave_nodes_are_the_only_functools_cache_in_src():
    uses = [use for path in sorted(SRC.glob("*.py")) for use in _cache_uses(path)]
    assert uses == [("quadrature", "lru_cache", "_octaves")]


def test_the_guard_sees_every_form_of_a_cache(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import functools\nfrom functools import cache\n"
                    "@functools.cache\ndef f(): pass\n"
                    "g = functools.lru_cache(maxsize=2)(f)\n", encoding="utf-8")
    assert sorted(_cache_uses(path)) == [("mod", "cache", "f"), ("mod", "cache", "imported"),
                                         ("mod", "lru_cache", "called")]
