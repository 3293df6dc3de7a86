import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "loc.py"
SRC = SCRIPT.parent.parent / "src" / "partgap"

SNIPPET = '''"""Module docstring,
two lines."""

import os  # a comment on a code line


def f(x):
    """One-line docstring."""
    # a comment alone
    s = """a string that is
    part of a statement"""
    return x + len(s)
'''


def test_loc_counts_lines_and_code_lines():
    done = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    header, *rows, total = [line.split() for line in done.stdout.splitlines()]
    assert header == ["lines", "code", "file"]
    assert [r[2] for r in rows] == sorted(p.name for p in SRC.glob("*.py"))
    for lines, code, name in rows:
        text = (SRC / name).read_text(encoding="utf-8")
        assert int(lines) == text.count("\n")  # what wc -l counts
        assert 0 < int(code) < int(lines)
    assert total == [
        str(sum(int(r[0]) for r in rows)),
        str(sum(int(r[1]) for r in rows)),
        "total",
    ]
    spec = importlib.util.spec_from_file_location("loc", SCRIPT)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    # import, def, the assignment's two lines and return; no docstring,
    # comment or blank line
    assert loc.code_lines(SNIPPET) == 5
