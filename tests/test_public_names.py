"""Every public name that ``src/radsolve`` defines has a caller: the floor of ROADMAP item 2.

A top-level ``def`` or ``class`` whose name does not start with ``_`` must be loaded
somewhere in ``src/`` or ``scripts/``, as an ``ast.Name`` or an ``ast.Attribute`` that is
read.  An import, an ``__all__`` string or the definition itself is not a use, and tests
do not count: a name only tests read is a mechanism no caller needs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "radsolve"


def _trees(*dirs: Path) -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8")) for d in dirs
            for path in sorted(d.glob("*.py"))]


def test_every_public_definition_in_src_is_loaded_in_src_or_scripts():
    defined = {node.name for tree in _trees(SRC) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    loaded = set()
    for tree in _trees(SRC, ROOT / "scripts"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert len(defined) > 50  # the walk found the package
    assert sorted(defined - loaded) == [], "public names with no caller in src/ or scripts/"
