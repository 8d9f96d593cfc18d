"""README's accuracy table: every test it names is one pytest collects."""
import os
import re
import subprocess
import sys
from pathlib import Path

import qctrans as qt

_ROOT = Path(__file__).resolve().parents[1]


def _accuracy_rows():
    """The table rows of README's "Accuracy" section, as lists of cells."""
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Accuracy\n", 1)[1].split("\n## ", 1)[0]
    lines = [ln for ln in section.splitlines() if ln.startswith("|")][2:]  # header, rule
    return [[c.strip() for c in re.split(r"(?<!\\)\|", ln)[1:-1]] for ln in lines]


def test_every_accuracy_row_names_a_test_that_pytest_collects():
    rows = _accuracy_rows()
    assert len(rows) >= 12
    ids = []
    for row in rows:
        assert len(row) == 4, row
        named = re.findall(r"`(tests/[^`]+)`", row[3])
        assert named, row
        ids += named
    src = os.path.dirname(os.path.dirname(qt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *ids],
                          cwd=_ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = proc.stdout.splitlines()
    for name in ids:
        assert any(c == name or c.startswith(name + "[") for c in collected), name
