"""The line budget of ``src/radsolve``, the ratchet of ROADMAP item 2.

A change that removes lines lowers ``BUDGET`` to the new count in the same
commit.  A feature that has to add lines raises it there too and says why in
CHANGES.md; ROADMAP item 2 states the number in force.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "radsolve"
BUDGET = 2901


def test_src_stays_within_the_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))  # as wc -l counts
    assert lines <= BUDGET, (f"src/radsolve/*.py has {lines} lines, over the budget of {BUDGET}: "
                             "cut lines, or raise the budget and say why in CHANGES.md")
