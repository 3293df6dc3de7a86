"""Full stdout and exit status, byte for byte, of every table command
and of the two scan commands `sun-scan` and `s-check`.

The files in ``golden/`` hold the output of the commands below as the
CLI printed it when they were frozen.  Change one only together with an
intended change of that command's output.
"""

from pathlib import Path

import pytest

from partgap.cli import main

GOLDEN = Path(__file__).parent / "golden"
N300 = ("--n-max", "300")
FIGURE = ("figure-data", *N300, "--k", "2,50", "--d-exp", "0..3")

CASES = [
    ("table1-csv", ("table1", "--format", "csv"), 0),
    ("table1-json", ("table1", "--format", "json"), 0),
    ("table1-text", ("table1", "--format", "text"), 0),
    ("table1-check", ("table1", "--check"), 0),
    ("table2-csv", ("table2", *N300, "--format", "csv"), 0),
    ("table2-json", ("table2", *N300, "--format", "json"), 0),
    ("table2-text", ("table2", *N300, "--format", "text"), 0),
    # n_max 300 cannot reach the published thresholds past d = 10^2
    ("table2-check", ("table2", *N300, "--check"), 1),
    ("table3-csv", ("table3", *N300, "--format", "csv"), 0),
    ("table3-json", ("table3", *N300, "--format", "json"), 0),
    ("table3-text", ("table3", *N300, "--format", "text"), 0),
    ("table3-check", ("table3", *N300, "--check"), 0),
    ("table4-csv", ("table4", *N300, "--format", "csv"), 0),
    ("table4-json", ("table4", *N300, "--format", "json"), 0),
    ("table4-text", ("table4", *N300, "--format", "text"), 0),
    ("table4-check", ("table4", *N300, "--check"), 0),
    # runs far past the published d = 2534: 56 runs, the last n_d 110
    ("table4-large-cap", ("table4", "--n-max", "3000", "--d-max", "10^30", "--format", "csv"), 0),
    ("figure-data-text", (*FIGURE, "--format", "text"), 0),
    ("figure-data-csv", (*FIGURE, "--format", "csv"), 0),
    ("figure-data-json", (*FIGURE, "--format", "json"), 0),
    # n_max 300 cannot reach the published series past d = 10^6
    ("figure-data-check", ("figure-data", *N300, "--k", "2,50", "--check"), 1),
    # the screens decide which values get an exact root, never the output
    ("sun-scan", ("sun-scan", "--n-max", "3000"), 0),
    # 42 of p(0..60) have no witness, so the status is 1
    ("s-check", ("s-check", "--range", "0", "60"), 1),
]


@pytest.mark.parametrize("name, argv, status", CASES, ids=[c[0] for c in CASES])
def test_table_command_output_is_frozen(capsys, name, argv, status):
    code = main(list(argv))
    out = capsys.readouterr()
    assert code == status
    assert out.err == ""
    assert out.out == (GOLDEN / ("%s.txt" % name)).read_text(encoding="ascii")
