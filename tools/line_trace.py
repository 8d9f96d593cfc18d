"""Run pytest under a line trace of ``src/qctrans`` and print the lines that
never ran.

Standard library only (``sys.settrace`` and ``threading.settrace``), so it
runs where the ``coverage`` package is not installed.  A module's executable
lines are the line numbers of its code objects, nested functions and class
bodies included (``co_lines()``); a line ran when the trace saw a ``line``
event on it.  The package is imported under the trace, so its module-level
lines count.  Lines that run only in a subprocess of a test are not seen.

Usage::

    python3 tools/line_trace.py [PYTEST_ARG ...]    # default: -q tests

Prints the untraced line numbers of each module that has any (runs of
consecutive numbers as ``a-b``), then the total of lines that ran, and
exits with pytest's status.  The trace makes the suite several times
slower than plain pytest.
"""

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "qctrans"


def executable_lines(path) -> set:
    """The line numbers of every code object compiled from one file."""
    stack = [compile(Path(path).read_bytes(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineTrace:
    """A context that records the lines run in files under ``root``, in this
    thread and in threads started inside it.  ``hits`` maps a file's absolute
    path to its set of line numbers that ran."""

    def __init__(self, root):
        self.root = os.path.join(os.path.abspath(root), "")
        self.hits = {}
        self._by_name = {}  # co_filename -> its hit set, None outside root

    def _hit_set(self, filename):
        path = os.path.abspath(filename)
        hits = self.hits.setdefault(path, set()) if path.startswith(self.root) else None
        self._by_name[filename] = hits
        return hits

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        hits = self._by_name[name] if name in self._by_name else self._hit_set(name)
        if hits is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line

        return line

    def __enter__(self):
        self._saved = sys.gettrace(), threading.gettrace()
        sys.settrace(self._call)
        threading.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])
        return False

    def untraced(self, path) -> list:
        """The executable lines of ``path`` that did not run, ascending."""
        return sorted(executable_lines(path) - self.hits.get(os.path.abspath(path), set()))


def _ranges(numbers):
    """'3, 7-9' for [3, 7, 8, 9]."""
    runs = []
    for n in numbers:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(trace, root) -> list:
    """One line per module under ``root`` with untraced lines, then a total."""
    out, ran, total = [], 0, 0
    for path in sorted(Path(root).rglob("*.py")):
        missing = trace.untraced(path)
        n = len(executable_lines(path))
        ran += n - len(missing)
        total += n
        if missing:
            out.append(f"{path.relative_to(root)}: {_ranges(missing)}")
    out.append(f"{ran} of {total} executable lines ran, {total - ran} did not")
    return out


def main(argv) -> int:
    import pytest

    if any(m == "qctrans" or m.startswith("qctrans.") for m in sys.modules):
        raise RuntimeError("qctrans is already imported; its module lines would not be traced")
    src = str(SOURCE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    with LineTrace(SOURCE) as trace:
        status = pytest.main(argv or ["-q", str(ROOT / "tests")])
    print("\n".join(report(trace, SOURCE)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
