import collections
import importlib.util
import os
import subprocess
import sys

import partgap.repulsion
from partgap import reference
from partgap.artifacts import REGISTRY, TABLE3, diff, table4

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts",
    "reproduce_all.py",
)
FIT_SCRIPT = os.path.join(os.path.dirname(SCRIPT), "fit_models.py")

# the CSV headers reproduce_all.py has always written
HEADERS = {
    "table1.csv": "n,p,k2,k3,k4",
    "table2.csv": "d,k2,k3,k4,k5,k6,k7,k8,k50,k100",
    "table3.csv": "d,k2,k3,k4,k5,k6,k7,k8,k50,k100",
    "figure_data.csv": "i,k2,k3,k4,k5,k6,k7,k8,k50",
    "table4.csv": "d_lo,d_hi,n_d",
}


def test_diff_reports_changed_missing_and_extra():
    rows = [list(row) for row in TABLE3.reference]
    assert diff(TABLE3.cells(rows), TABLE3.want) == []
    rows[1][1] = 36  # d = 1, k = 2
    del rows[3]  # d = 3
    rows.append([7, *rows[-1][1:]])
    lines = diff(TABLE3.cells(rows), TABLE3.want)
    assert lines[0] == "d=1 k2 got 36 want 35"
    assert lines[1:10] == [
        "d=3 k%d missing, want %d" % (k, m)
        for k, m in zip(reference.REFERENCE_K_VALUES, reference.TABLE3[3][1])
    ]
    assert lines[10:] == [
        "d=7 k%d extra, got %d" % (k, m)
        for k, m in zip(reference.REFERENCE_K_VALUES, reference.TABLE3[6][1])
    ]


def test_diff_reports_reordered_rows():
    rows = [list(row) for row in reversed(TABLE3.reference)]
    assert diff(TABLE3.cells(rows), TABLE3.want) == [
        "cells in another order than the reference"
    ]


def test_reference_cell_counts():
    assert [(a.name, len(a.want)) for a in REGISTRY] == [
        ("table1", 15),
        ("table2", 144),
        ("table3", 63),
        ("figure-data", 568),
        ("table4", 14),
    ]
    assert table4(2534).reference == reference.TABLE4_INTERVALS[:10]
    assert table4(1000).reference[-1] == (157, 1000, 14)


def test_reproduce_all_writes_every_table(tmp_path):
    done = subprocess.run(
        [sys.executable, SCRIPT, "--n-max", "300", "--out", str(tmp_path)],
        env=dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(partgap.repulsion.__file__)),
        ),
        capture_output=True,
        text=True,
        timeout=120,
    )
    # n_max 300 cannot reach the published thresholds
    assert done.returncode == 1
    assert "table2       MISMATCH" in done.stdout
    assert sorted(os.listdir(tmp_path)) == sorted(HEADERS)
    for name, header in HEADERS.items():
        assert (tmp_path / name).read_text().splitlines()[0] == header
    # the script's tables are what the CLI prints at --n-max 300 (table4
    # is left out: the CLI default --d-max stops short of the registry's)
    for i in (1, 2, 3):
        golden = os.path.join(os.path.dirname(__file__), "golden", "table%d-csv.txt" % i)
        with open(golden, "rb") as fh:
            assert (tmp_path / ("table%d.csv" % i)).read_bytes() == fh.read()


def test_reproduce_all_sweeps_once(tmp_path, monkeypatch):
    # one record walk per k serves tables 2 and 3, the figure data and
    # the refit; no distance series is taken
    calls = collections.Counter()
    for name in ("_records", "delta_series", "near_power_events"):
        real = getattr(partgap.repulsion, name)

        def counted(table, k_or_cap, *rest, _real=real, _name=name):
            calls[_name, k_or_cap if _name == "_records" else None] += 1
            return _real(table, k_or_cap, *rest)

        monkeypatch.setattr(partgap.repulsion, name, counted)
    spec = importlib.util.spec_from_file_location("reproduce_all", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--n-max", "300", "--out", str(tmp_path)]) == 1
    assert calls == {
        **{("_records", k): 1 for k in reference.REFERENCE_K_VALUES},
        ("near_power_events", None): 1,
    }


def test_fit_models_prints_both_shapes():
    done = subprocess.run(
        [sys.executable, FIT_SCRIPT, "--n-max", "2000"],
        env=dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(partgap.repulsion.__file__)),
        ),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "degree 3 over d <= 10^12 (k = 50):" in done.stdout
    assert "degree 5 over d <= 10^70 (k = 50):" in done.stdout
