"""Print the sha256 of every file the presets write.

For each preset, ``qctrans simulate --formats csv,json,svg`` and
``qctrans sample --out`` run into one temporary directory, and for each
preset with a field section (fig4, fig5, fig7) ``qctrans field --formats
csv,svg`` runs once per quantity Q, rho and S, with the basename
``<preset>_<quantity>``.  The digests of all files written there are
printed one per line, ``<sha256>  <file>``, sorted by file name.  Two
checkouts write the same bytes when their outputs ``diff`` clean.

Usage::

    python3 tools/preset_digests.py [PRESET ...]    # default: every preset

The ``qctrans`` imported is the one under ``src/`` next to this script.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qctrans.cli import main as qctrans  # noqa: E402
from qctrans.presets import preset_doc, preset_names  # noqa: E402
from qctrans.scenario import QUANTITIES  # noqa: E402


def _run(argv, name, out):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = qctrans([*argv, "--preset", name, "--out", out])
    if code:
        raise RuntimeError(f"qctrans {argv[0]} --preset {name} exited {code}: "
                           + err.getvalue().strip())


def digests(presets) -> list:
    """The ``<sha256>  <file>`` lines of every file the presets write."""
    with tempfile.TemporaryDirectory() as out:
        for name in presets:
            _run(["simulate", "--formats", "csv,json,svg"], name, out)
            _run(["sample"], name, out)
            if "field" in preset_doc(name).get("output", {}):
                for q in QUANTITIES:
                    _run(["field", "--quantity", q, "--formats", "csv,svg",
                          "--set", f"output.basename={name}_{q}"], name, out)
        return [f"{hashlib.sha256(Path(out, f).read_bytes()).hexdigest()}  {f}"
                for f in sorted(os.listdir(out))]


def main(argv) -> int:
    for line in digests(argv or preset_names()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
