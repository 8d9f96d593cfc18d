"""tools/code_lines.py, the code-line count the code size is measured by,
tools/preset_digests.py, the digests of the files the presets write (the
field maps of every quantity included), tools/engine_digests.py, the
digests of the ensemble engine's arrays on a seeded corpus, and
tools/line_trace.py, the lines of the package a test run never reaches."""
import hashlib
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from qctrans.cli import main


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _tool("code_lines")
engine_digests = _tool("engine_digests")
line_trace = _tool("line_trace")
preset_digests = _tool("preset_digests")


def _count(tmp_path, source):
    path = tmp_path / "m.py"
    path.write_text(source)
    return code_lines.code_lines(path)


@pytest.mark.parametrize("source,expected", [
    ("", 0),
    ("x = 1\n", 1),
    # comments and blank lines
    ("# a comment\n\nx = 1  # trailing\n\n\n# another\n", 1),
    # docstrings of the module, a function and a class, one and several lines
    ('"""Module.\n\nMore.\n"""\n\ndef f():\n    """One line."""\n    return 1\n', 2),
    ('class A:\n    """Doc.\n\n    More.\n    """\n', 1),
    # a lone string statement anywhere is a docstring
    ('x = 1\n"""not code\neither"""\ny = 2\n', 2),
    # a statement holding a multi-line string counts each of its lines
    ('x = """a\nb\nc"""\n', 3),
    ('f(\n    """a\n    b""",\n    1,\n)\n', 5),
    # a statement over several lines, with a comment and a blank line inside
    ("y = [\n    1,  # one\n\n    2,\n]\n", 4),
])
def test_code_lines(tmp_path, source, expected):
    assert _count(tmp_path, source) == expected


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""Doc."""\nz = 3\n')
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"     2  {tmp_path / 'a.py'}", f"     1  {tmp_path / 'sub' / 'b.py'}",
                   f"     3  {tmp_path} (total)"]


def test_preset_digests_hash_every_file_simulate_and_sample_write(tmp_path, capsys):
    assert preset_digests.main(["fig1_quantum"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(["simulate", "--preset", "fig1_quantum", "--out", str(tmp_path),
                 "--formats", "csv,json,svg"]) == 0
    assert main(["sample", "--preset", "fig1_quantum", "--out", str(tmp_path)]) == 0
    files = sorted(os.listdir(tmp_path))
    assert files == ["fig1_quantum.csv", "fig1_quantum.json", "fig1_quantum.svg",
                     "fig1_quantum_samples.csv"]
    assert lines == [f"{hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()}  {f}"
                     for f in files]


def test_preset_digests_hash_the_field_maps_of_every_quantity(tmp_path, capsys):
    assert preset_digests.main(["fig5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(["simulate", "--preset", "fig5", "--out", str(tmp_path),
                 "--formats", "csv,json,svg"]) == 0
    assert main(["sample", "--preset", "fig5", "--out", str(tmp_path)]) == 0
    for q in ("Q", "rho", "S"):
        assert main(["field", "--preset", "fig5", "--out", str(tmp_path), "--quantity", q,
                     "--formats", "csv,svg", "--set", f"output.basename=fig5_{q}"]) == 0
    files = sorted(os.listdir(tmp_path))
    assert [f for f in files if f.startswith(("fig5_Q_", "fig5_rho_", "fig5_S_"))] == [
        "fig5_Q_field.csv", "fig5_Q_field.svg", "fig5_S_field.csv", "fig5_S_field.svg",
        "fig5_rho_field.csv", "fig5_rho_field.svg"]
    assert lines == [f"{hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()}  {f}"
                     for f in files]


def test_preset_digests_raise_on_a_failing_preset():
    with pytest.raises(RuntimeError, match="qctrans simulate --preset fig99 exited 1"):
        preset_digests.main(["fig99"])


def test_engine_digests_are_repeatable_and_see_one_changed_value(capsys):
    assert engine_digests.main(["3"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert engine_digests.main(["3"]) == 0
    assert capsys.readouterr().out.splitlines() == first
    cases = engine_digests.corpus(3)
    assert len(first) == 4 and first[-1].endswith("  all")
    arrays = [engine_digests.run(case) for case in cases]
    assert [f"{engine_digests.digest(a)}  {case['label']}"
            for a, case in zip(arrays, cases)] == first[:3]
    # one sample of the first case moved by one ulp
    xs = arrays[0][1].copy()
    xs[0, 0, 0] = np.nextafter(xs[0, 0, 0], np.inf)
    changed = (arrays[0][0], xs, *arrays[0][2:])
    assert engine_digests.digest(changed) != first[0].split()[0]


_TRACED = '''"""Doc."""
import math


def f(x):
    if x < 0:
        x = -x
        return math.sqrt(x)
    return [
        x,
        x + 1,
    ]


class A:
    y = 2
'''


def test_line_trace_lists_the_branch_never_taken(tmp_path):
    # the module's own lines, a function's body, a multi-line statement and
    # a class body all count; only the branch f(1) skips did not run
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    path = pkg / "m.py"
    path.write_text(_TRACED)
    assert line_trace.executable_lines(path) == {1, 2, 5, 6, 7, 8, 9, 10, 11, 15, 16}
    spec = importlib.util.spec_from_file_location("traced_m", path)
    module = importlib.util.module_from_spec(spec)
    outside = tmp_path / "o.py"
    outside.write_text("z = 1\n")
    with line_trace.LineTrace(pkg) as trace:
        spec.loader.exec_module(module)
        assert module.f(1) == [1, 2]
        other = importlib.util.spec_from_file_location("traced_o", outside)
        other.loader.exec_module(importlib.util.module_from_spec(other))
    assert trace.untraced(path) == [7, 8]
    assert list(trace.hits) == [str(path)]
    assert line_trace.report(trace, pkg) == [
        "m.py: 7-8", "9 of 11 executable lines ran, 2 did not"]
    assert line_trace._ranges([1, 3, 4, 5, 9]) == "1, 3-5, 9"
