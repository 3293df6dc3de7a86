"""The top-level names callers take from ``partgap``.

``partgap/__init__.py`` has no ``__all__``: its import lines are the
export list.  These are the names the benchmark's library workloads and
the README's library sketch use, and the sketch itself runs as shown.
The README's shell commands name commands and scripts that exist.
"""

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import partgap
from partgap.cli import build_parser

CALLER_NAMES = (
    # perfbench/rep.py
    "build_table",
    "bundled_exceptional_list",
    "check_exceptional_powers",
    "coverage_scan",
    "is_perfect_power",
    "missed_values",
    "n_d",
    "n_d_batch",
    "n_d_intervals",
    "near_power_events",
    "perfect_power_scan",
    # README library sketch
    "PartitionTable",
    "nearest_power_distance",
    "m_k_d",
    "threshold_rows",
    "EventSet",
)


def test_caller_names_resolve():
    missing = [name for name in CALLER_NAMES if not hasattr(partgap, name)]
    assert missing == []
    assert all(callable(getattr(partgap, name)) for name in CALLER_NAMES)


def test_readme_library_sketch_runs_as_shown():
    # each expression of the sketch is evaluated, and its value is the
    # one the comment next to it gives
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    distance, m70, runs, rows, m35 = values
    rows_shown = "[(1000, (143,)), (10**35, (5030,)), (10**70, (18237,))]"
    for got, want, comment in (
        (distance, (75, 21), "(75, 21)"),
        (m70, 18237, "18237"),
        (runs[:2], [(0, 0, 2), (1, 1, 5)], "[(0, 0, 2), (1, 1, 5), ...]"),
        (rows, eval(rows_shown), rows_shown),
        (m35, 4933, "4933"),
    ):
        assert got == want
        assert "# " + comment in block


def test_readme_commands_exist():
    # every `partgap ...` line of a README shell block parses, and every
    # `python3 scripts/X.py` line names a script that is there
    root = Path(__file__).parent.parent
    parser, seen = build_parser(), set()
    for block in re.findall(r"```sh\n(.*?)```", (root / "README.md").read_text(), re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["partgap"]:
                try:
                    parser.parse_args(words[1:])
                except SystemExit:
                    raise AssertionError("README command does not parse: " + line) from None
            elif words[:1] == ["python3"] and words[1].startswith("scripts/"):
                assert (root / words[1]).is_file(), "README names a missing script: " + line
            else:
                continue
            seen.add(words[0])
    assert seen == {"partgap", "python3"}


LAYERS = ("partitions", "roots", "repulsion", "witnesses", "fitting")
SLOW_IMPORTS = ("dataclasses", "inspect", "fractions", "decimal", "importlib.resources", "tempfile", "typing")


def test_import_is_eager_and_cheap():
    # In a fresh process without site hooks (-S), which could load
    # standard modules first: `import partgap` loads every layer module,
    # which perfbench's tracer wraps once the package is imported, and
    # `import partgap.cli` newly loads none of the slow standard modules.
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import partgap\n"
        "package = set(sys.modules)\n"
        "import partgap.cli\n"
        "print(json.dumps([sorted(package), sorted(set(sys.modules) - before)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(partgap.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    package, new = json.loads(done.stdout)
    assert [m for m in LAYERS if "partgap." + m not in package] == []
    assert [m for m in SLOW_IMPORTS if m in new] == []


def test_version_matches_pyproject():
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    declared = re.search(r'^version = "(.+)"$', pyproject.read_text(), re.M).group(1)
    assert partgap.__version__ == declared
