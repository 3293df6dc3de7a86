import collections
import importlib.util
import os
import subprocess
import sys

import pytest

import partgap.repulsion
from partgap import reference
from partgap.artifacts import REGISTRY, TABLE3, diff, table4

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts",
    "reproduce_all.py",
)

# the CSV headers reproduce_all.py has always written
HEADERS = {
    "table1.csv": "n,p,k2,k3,k4",
    "table2.csv": "d,k2,k3,k4,k5,k6,k7,k8,k50,k100",
    "table3.csv": "d,k2,k3,k4,k5,k6,k7,k8,k50,k100",
    "figure_data.csv": "i,k2,k3,k4,k5,k6,k7,k8,k50",
    "table4.csv": "d_lo,d_hi,n_d",
}


def run_script(path, *argv):
    return subprocess.run(
        [sys.executable, path, *argv],
        env=dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(partgap.repulsion.__file__)),
        ),
        capture_output=True,
        text=True,
        timeout=120,
    )


def load_script(path):
    spec = importlib.util.spec_from_file_location(os.path.basename(path)[:-3], path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


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
    done = run_script(SCRIPT, "--n-max", "300", "--out", str(tmp_path))
    # n_max 300 cannot reach the published thresholds
    assert done.returncode == 1
    assert "table2       MISMATCH" in done.stdout
    assert sorted(os.listdir(tmp_path)) == sorted(HEADERS)
    # every published fit shape is refit and reported
    for degree, window, _ in reference.PUBLISHED_FITS:
        assert "degree %d over d <= 10^%d (k = 50):" % (degree, window) in done.stdout
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
    # the refit, and one event sweep serves table 4
    calls = collections.Counter()
    for name in ("_records", "near_power_events"):
        real = getattr(partgap.repulsion, name)

        def counted(table, k_or_cap, *rest, _real=real, _name=name):
            calls[_name, k_or_cap if _name == "_records" else None] += 1
            return _real(table, k_or_cap, *rest)

        monkeypatch.setattr(partgap.repulsion, name, counted)
    script = load_script(SCRIPT)
    assert script.main(["--n-max", "300", "--out", str(tmp_path)]) == 1
    assert calls == {
        **{("_records", k): 1 for k in reference.REFERENCE_K_VALUES},
        ("near_power_events", None): 1,
    }


def test_reproduce_all_fits_agree_at_25000(table25k, capsys):
    # both published shapes, refit off p(0..25000), land within 10% of
    # the series at every anchor in their window
    assert load_script(SCRIPT).report_fits(table25k)
    out = capsys.readouterr().out
    for degree, _, _ in reference.PUBLISHED_FITS:
        assert "fit-k50-deg%d OK" % degree in out


def test_reproduce_all_rejects_short_tables(tmp_path, capsys):
    # table 1 reads p(10..50) and table 4 needs p(n_max) - 2 >= 270343,
    # first true at n_max 52: shorter tables are a usage error, exit 2
    script = load_script(SCRIPT)
    for n_max in (0, 1, 49, 51):
        with pytest.raises(SystemExit) as stop:
            script.main(["--n-max", str(n_max), "--out", str(tmp_path / "out")])
        assert stop.value.code == 2
        err = capsys.readouterr().err
        assert "error: --n-max must be >= 52, got %d" % n_max in err
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # the shortest accepted table runs to the end and reports mismatches
    assert script.main(["--n-max", "52", "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines() if line.startswith("fit-")] == [
        "fit-k50-deg%d" % degree for degree, _, _ in reference.PUBLISHED_FITS
    ]
