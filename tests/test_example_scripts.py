"""Smoke test of the example scripts that call the package's probe and solver APIs.

``scripts/run_classification_fixtures.py``, ``run_lair_crosscheck.py`` and
``run_sinh_oracle.py`` each run in a subprocess with this checkout's ``src/`` first on the
path.  Each must exit 0 and print what it printed when pinned: a report digit that moves
moves the digest.  The sinh oracle's ``time[s]`` column is wall time, so it is masked.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "run_classification_fixtures.py":
        "a7412f0762288862f1698782d6d4e0067e795d6b828a5180b4a9b1a6905233ab",
    "run_lair_crosscheck.py": "7275d1d9960fae906da1a719c60ebe32ddc9736b781a4eb8d2fde3d6327e34c1",
    "run_sinh_oracle.py": "27ceb78f6a6ab3bf89daf01961c1a02c54ec56c3a76a16ce6f403eb6be354a7b",
}


def _stdout(script: str) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return re.sub(r"^( *\d+ +\d+) +\d+\.\d+ ", r"\1 <time> ", done.stdout, flags=re.M)


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256))
def test_example_script_exits_0_and_prints_its_pinned_output(script):
    assert hashlib.sha256(_stdout(script).encode()).hexdigest() == STDOUT_SHA256[script]
