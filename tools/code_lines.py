"""Count the code lines of Python sources.

A code line holds at least one token that is not a comment, a blank or a
docstring; a token spanning several lines (a multi-line string) counts each
of them.  A docstring is a statement that is a lone string literal.

Usage::

    python3 tools/code_lines.py [PATH ...]     # default: src/qctrans

Prints one line per file and a total per path argument.
"""

import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path) -> int:
    """Number of code lines in one Python file."""
    lines = set()
    statement = []   # the current logical line's counted tokens
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if not all(t.type == tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv) -> int:
    for arg in argv or ["src/qctrans"]:
        root = Path(arg)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        total = 0
        for f in files:
            n = code_lines(f)
            total += n
            print(f"{n:6d}  {f}")
        if root.is_dir():
            print(f"{total:6d}  {root} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
