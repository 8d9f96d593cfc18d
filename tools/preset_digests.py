"""Print the sha256 of every file the presets write.

For each preset, ``qctrans simulate --formats csv,json,svg`` and
``qctrans sample --out`` run into one temporary directory; the digests of
all files written there are printed one per line, ``<sha256>  <file>``,
sorted by file name.  Two checkouts write the same bytes when their
outputs ``diff`` clean.

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
from qctrans.presets import preset_names  # noqa: E402


def digests(presets) -> list:
    """The ``<sha256>  <file>`` lines of every file the presets write."""
    with tempfile.TemporaryDirectory() as out:
        for name in presets:
            for argv in (["simulate", "--formats", "csv,json,svg"], ["sample"]):
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    code = qctrans([*argv, "--preset", name, "--out", out])
                if code:
                    raise RuntimeError(f"qctrans {argv[0]} --preset {name} exited {code}: "
                                       + err.getvalue().strip())
        return [f"{hashlib.sha256(Path(out, f).read_bytes()).hexdigest()}  {f}"
                for f in sorted(os.listdir(out))]


def main(argv) -> int:
    for line in digests(argv or preset_names()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
