#!/usr/bin/env python3
"""Line counts of the package sources.

For each ``src/partgap/*.py`` prints its lines, counted as ``wc -l``
counts them, and its code lines, which leave out blank lines, comments
and docstrings; then the totals.  A docstring here is any string that
is a statement of its own.  Stdlib only, no options:

    python3 scripts/loc.py
"""

import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "partgap"
# tokens that carry no code; a line holding only these is not counted
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    """The number of lines that hold a token of code."""
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    lines = set()
    at_statement_start = True
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            if tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
                at_statement_start = True
            continue
        if tok.type == tokenize.STRING and at_statement_start:
            after = next(t for t in tokens[i + 1 :] if t.type != tokenize.COMMENT)
            if after.type == tokenize.NEWLINE:
                continue  # a docstring
        at_statement_start = False
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total_lines = total_code = 0
    print("%7s %7s  %s" % ("lines", "code", "file"))
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines, code = text.count("\n"), code_lines(text)
        total_lines += lines
        total_code += code
        print("%7d %7d  %s" % (lines, code, path.name))
    print("%7d %7d  %s" % (total_lines, total_code, "total"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
