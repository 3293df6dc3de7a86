import argparse
import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import partgap.partitions
import partgap.repulsion
from partgap.cli import cmd_missed, main
from partgap.reference import REFERENCE_K_VALUES
from partgap.witnesses import missed_values

TABLE1_CSV = (
    "n,p,k2,k3,k4\n"
    "10,42,6,15,26\n"
    "20,627,2,102,2\n"
    "30,5604,21,228,957\n"
    "40,37338,89,1401,1078\n"
    "50,204226,78,1153,9745\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pn(capsys):
    code, out, _ = run(capsys, "pn", "50")
    assert code == 0
    assert out == "204226\n"


def test_pn_zero(capsys):
    code, out, _ = run(capsys, "pn", "0")
    assert code == 0
    assert out == "1\n"


def test_pn_negative_is_usage_error(capsys):
    for n in ("-1", "-3"):
        code, out, err = run(capsys, "pn", n)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_bad_input_writes_no_cache(capsys, tmp_path):
    cache = tmp_path / "cache"
    for argv, message in (
        (("pn", "-5"), "n must be >= 0, got -5"),
        (("delta", "-1", "2"), "n must be >= 0, got -1"),
        (("delta", "5", "1"), "k must be >= 2, got 1"),
    ):
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert (code, out, err) == (2, "", "error: %s\n" % message)
    assert not cache.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fit", "--k", "1"), "every k must be >= 2"),
        (("fit", "--degree", "0"), "degree must be >= 1, got 0"),
        (("fit", "--eval", "abc"), "bad threshold 'abc' (use an integer or 10^i)"),
        (("fit", "--eval", "0"), "model is defined for d >= 1, got 0"),
        (("fit", "--d-exp", "0..2"), "need at least 6 points for degree 5, got 3"),
        (
            ("fit", "--d-exp", "1,1,2,2,3,3", "--degree", "3"),
            "rank-deficient fit (rank 3 < 4); thresholds too repetitive",
        ),
        (("table4", "--d-max", "-1"), "d_max must be >= 0, got -1"),
        (("s-check", "-3"), "scan range [-3, -3] outside table 0..1"),
        (("s-check", "--range", "-2", "4"), "scan range [-2, 4] outside table 0..4"),
        (("pn", "0", "--estimate"), "--estimate needs n >= 1"),
        (("table4", "--d-max", "abc"), "bad threshold 'abc' (use an integer or 10^i)"),
        (("figure-data", "--k", "1"), "every k must be >= 2"),
        (("figure-data", "--d-exp", "9..2"), "empty exponent range '9..2'"),
        (("figure-data", "--check", "--k", "2,9"), "no reference series for k=9"),
        (("figure-data", "--check", "--k", "9,2,10"), "no reference series for k=9,10"),
        (
            ("figure-data", "--check", "--k", "9", "--d-exp", "0..5"),
            "--check requires the default exponents 0..70",
        ),
    ],
)
def test_input_checked_before_the_table_is_cached(capsys, tmp_path, argv, message):
    if argv[0] in ("fit", "table4", "figure-data"):
        argv += ("--n-max", "300")
    code, out, err = run(capsys, *argv, "--cache", str(tmp_path))
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    assert os.listdir(tmp_path) == []


def test_pn_estimate(capsys):
    code, out, _ = run(capsys, "pn", "100", "--estimate")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "190569292"
    assert lines[1].startswith("estimate=")


def test_pn_export(capsys, tmp_path):
    target = tmp_path / "values.txt"
    code, out, _ = run(capsys, "pn", "30", "--export", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 31
    assert lines[-1] == out.strip() == "5604"


def test_delta(capsys):
    code, out, _ = run(capsys, "delta", "30", "2")
    assert code == 0
    assert out == "21\n"


def test_delta_verbose(capsys):
    code, out, _ = run(capsys, "delta", "30", "2", "--verbose")
    assert code == 0
    assert out == "n=30 k=2 nearest_base=75 distance=21\n"


def test_table1_csv_golden(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert out == TABLE1_CSV


def test_table1_deterministic(capsys):
    _, first, _ = run(capsys, "table1")
    _, second, _ = run(capsys, "table1")
    assert first == second


def test_table1_json(capsys):
    code, out, _ = run(capsys, "table1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"][0] == [10, 42, 6, 15, 26]


def test_table1_text(capsys):
    code, out, _ = run(capsys, "table1", "--format", "text")
    assert code == 0
    assert "204226" in out


def test_table1_check_passes(capsys):
    code, out, _ = run(capsys, "table1", "--check")
    assert code == 0
    assert "table1: OK" in out


def test_table2_shape_small(capsys):
    code, out, _ = run(capsys, "table2", "--n-max", "300")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,k2,k3,k4,k5,k6,k7,k8,k50,k100"
    assert len(lines) == 17
    assert lines[1].startswith("0,")
    assert lines[-1].startswith("1" + "0" * 70 + ",")


def test_table2_deterministic(capsys):
    _, first, _ = run(capsys, "table2", "--n-max", "300")
    _, second, _ = run(capsys, "table2", "--n-max", "300")
    assert first == second


def test_check_fault_injection(capsys):
    # a short table cannot reproduce the published grid
    code, out, _ = run(capsys, "table2", "--check", "--n-max", "200")
    assert code == 1
    assert "MISMATCH" in out
    assert "FAILED" in out


def test_table3_shape_small(capsys):
    code, out, _ = run(capsys, "table3", "--n-max", "300")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[1] == "0,1,1,1,1,1,1,1,1,1"


def test_table4_small(capsys):
    code, out, _ = run(capsys, "table4", "--n-max", "300", "--d-max", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d_lo,d_hi,n_d"
    assert lines[1].startswith("0,")
    spans = [ln.split(",") for ln in lines[1:]]
    total = sum(int(hi) - int(lo) + 1 for lo, hi, _ in spans)
    assert total == 101


def test_table4_d_max_takes_powers_of_ten(capsys):
    want = run(capsys, "table4", "--n-max", "300", "--d-max", "1000")
    assert want[0] == 0
    assert run(capsys, "table4", "--n-max", "300", "--d-max", "10^3") == want


def test_figure_data_text(capsys):
    code, out, _ = run(
        capsys, "figure-data", "--n-max", "300", "--k", "2,50", "--d-exp", "0..3"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("k=2: (0,")
    assert lines[1].startswith("k=50: (0,")


def test_figure_data_csv(capsys):
    code, out, _ = run(
        capsys,
        "figure-data",
        "--n-max",
        "300",
        "--k",
        "2,50",
        "--d-exp",
        "0..3",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i,k2,k50"
    assert len(lines) == 5


def test_figure_data_json(capsys):
    code, out, _ = run(
        capsys,
        "figure-data",
        "--n-max",
        "300",
        "--k",
        "3",
        "--d-exp",
        "0,2",
        "--format",
        "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["d_exponents"] == [0, 2]
    assert "3" in obj["series"]


def test_figure_data_check_needs_default_grid(capsys):
    code, _, err = run(
        capsys, "figure-data", "--check", "--k", "2", "--d-exp", "0..5"
    )
    assert code == 2
    assert "0..70" in err


def test_figure_data_prints_k_without_reference_series(capsys):
    code, out, err = run(
        capsys, "figure-data", "--n-max", "300", "--k", "9", "--d-exp", "0..3"
    )
    assert (code, err) == (0, "")
    assert out == "k=9: (0,2) (1,6) (2,19) (3,23)\n"


def test_s_check_covered_range(capsys):
    code, out, _ = run(capsys, "s-check", "--range", "3", "15")
    assert code == 0
    assert "covered 13/13" in out


def test_s_check_uncovered(capsys):
    code, out, _ = run(capsys, "s-check", "16")
    assert code == 1
    assert "n=16 uncovered" in out


def test_s_check_argument_exclusivity(capsys):
    code, _, err = run(capsys, "s-check")
    assert code == 2
    code, _, err = run(capsys, "s-check", "5", "--range", "3", "9")
    assert code == 2


def test_s_check_reversed_range(capsys):
    code, out, err = run(capsys, "s-check", "--range", "5", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_missed(capsys):
    code, out, _ = run(capsys, "missed", "--bound", "176")
    assert code == 0
    assert out.split() == "1 2 37 64 121 136 139 156 165 166".split()


def test_missed_writes_the_library_list(capsys):
    code, out, _ = run(capsys, "missed", "--bound", "100000")
    assert code == 0
    assert out == "".join("%d\n" % v for v in missed_values(100000))


class Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def test_missed_streams_its_values():
    # about 915,000 of the values to 10^6 are missed; as a list they
    # would take some 36 MB, where the sieve takes 1 MB
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Discard()):
            assert cmd_missed(argparse.Namespace(bound=10**6)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_verify_bs_bundled(capsys):
    code, out, _ = run(capsys, "verify-bs")
    assert code == 0
    assert "all clear" in out
    assert out.count("not a partition number") == 6


def test_verify_bs_custom_list(capsys, tmp_path):
    path = tmp_path / "list.txt"
    path.write_text("# one entry\n2 1 3 3\n")
    code, out, _ = run(capsys, "verify-bs", "--bs-list", str(path))
    assert code == 0
    assert out.count("not a partition number") == 1


def test_verify_bs_empty_list(capsys, tmp_path):
    # a list of comments only checks nothing, so it cannot pass
    path = tmp_path / "empty.txt"
    path.write_text("# nothing listed\n")
    assert run(capsys, "verify-bs", "--bs-list", str(path)) == (
        2,
        "",
        "error: no exceptional tuples to check\n",
    )


def test_verify_bs_malformed_list(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1 3\n")
    code, _, err = run(capsys, "verify-bs", "--bs-list", str(path))
    assert code == 2
    assert "line 1" in err


def test_verify_bs_non_ascii_list(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"2 1 3 3\n2 3 1 3\xff")
    code, out, err = run(capsys, "verify-bs", "--bs-list", str(path))
    assert (code, out) == (2, "")
    assert err == "error: %s: line 2: not ASCII\n" % path


def test_verify_bs_missing_file(capsys):
    code, _, err = run(capsys, "verify-bs", "--bs-list", "/no/such/file")
    assert code == 2
    assert err.startswith("error:")


def test_sun_scan(capsys):
    code, out, _ = run(capsys, "sun-scan", "--n-max", "500")
    assert code == 0
    assert "no perfect powers" in out


def test_fit_json(capsys):
    code, out, _ = run(
        capsys,
        "fit",
        "--k",
        "2",
        "--degree",
        "2",
        "--n-max",
        "300",
        "--d-exp",
        "0..8",
        "--eval",
        "10^4",
        "--format",
        "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["degree"] == 2
    assert len(obj["coefficients"]) == 3
    assert obj["window_exponent"] == 8
    assert obj["evaluations"][0][0] == 10**4


def test_fit_text_deterministic(capsys):
    args = ("fit", "--k", "2", "--degree", "1", "--n-max", "300", "--d-exp", "0..5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert first.splitlines()[0].startswith("k=2 degree=1 window_exponent=5")


def test_cache_created_and_reused(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, out, _ = run(capsys, "pn", "300", "--cache", str(cache))
    assert code == 0
    files = os.listdir(cache)
    assert files == ["ptable_300.txt"]
    stamp = (cache / "ptable_300.txt").stat().st_mtime_ns
    code, out, _ = run(capsys, "pn", "100", "--cache", str(cache))
    assert code == 0
    assert out == "190569292\n"
    assert os.listdir(cache) == ["ptable_300.txt"]
    assert (cache / "ptable_300.txt").stat().st_mtime_ns == stamp


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PARTGAP_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "pn", "40")
    assert code == 0
    assert out == "37338\n"
    assert os.listdir(tmp_path) == ["ptable_40.txt"]


def test_cache_flag_beats_env(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv("PARTGAP_CACHE_DIR", str(env_dir))
    code, _, _ = run(capsys, "pn", "40", "--cache", str(flag_dir))
    assert code == 0
    assert not env_dir.exists()
    assert os.listdir(flag_dir) == ["ptable_40.txt"]


def test_cache_corrupt_file(capsys, tmp_path):
    (tmp_path / "ptable_500.txt").write_text("500\n1\n1\nbogus\n")
    code, _, err = run(capsys, "pn", "400", "--cache", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "content, line, shown",
    [(b"", 1, "''"), (b"3O\n1\n1\n", 1, "'3O'"), (b"30\n1\n\n1\nabc\n", 5, "'abc'")],
    ids=["empty", "bad-header", "bad-value"],
)
def test_cache_names_the_line_that_is_no_integer(capsys, tmp_path, content, line, shown):
    path = tmp_path / "ptable_30.txt"
    path.write_bytes(content)
    code, out, err = run(capsys, "pn", "5", "--cache", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == "error: cache file %s: line %d is not an integer: %s\n" % (path, line, shown)


def test_cache_rejects_forged_values(capsys, tmp_path):
    (tmp_path / "ptable_40.txt").write_text(
        "40\n" + "".join("%d\n" % v for v in range(1, 42))
    )
    code, out, err = run(capsys, "pn", "30", "--cache", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "recurrence" in err


def test_cache_rejects_value_out_of_order(capsys, tmp_path):
    # 198 is in none of Ramanujan's congruence classes, so only the
    # monotonicity check can catch a forged p(198)
    assert run(capsys, "pn", "300", "--cache", str(tmp_path))[0] == 0
    path = tmp_path / "ptable_300.txt"
    lines = path.read_text().splitlines(keepends=True)
    assert int(lines[199]) == partgap.partitions.build_table(198).values[198]
    lines[199] = "12345\n"  # line 200: the header, then p(0..197)
    path.write_text("".join(lines))
    code, out, err = run(capsys, "pn", "198", "--cache", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert "ptable_300.txt" in err
    assert "p(198) is not above p(197)" in err


def test_cache_file_name_must_match_header(capsys, tmp_path):
    table = partgap.partitions.build_table(40)
    partgap.partitions.save_table(table, str(tmp_path / "ptable_50.txt"))
    for n in ("30", "45"):
        code, out, err = run(capsys, "pn", n, "--cache", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "file name says n_max=50 but header says 40" in err


def test_cache_zero_padded_name(capsys, tmp_path):
    # the file whose name matched is the one opened, whatever its padding
    table = partgap.partitions.build_table(120)
    partgap.partitions.save_table(table, str(tmp_path / "ptable_0120.txt"))
    code, out, err = run(capsys, "pn", "50", "--cache", str(tmp_path))
    assert (code, out, err) == (0, "204226\n", "")
    assert os.listdir(tmp_path) == ["ptable_0120.txt"]


def test_cache_interrupted_write_leaves_no_table(capsys, tmp_path, monkeypatch):
    def dump_then_fail(table, stream):
        stream.write("1\n1\n2\n")
        raise OSError("disk full")

    monkeypatch.setattr(partgap.partitions, "dump_values", dump_then_fail)
    code, out, err = run(capsys, "pn", "300", "--cache", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    code, out, _ = run(capsys, "pn", "300", "--cache", str(tmp_path))
    assert code == 0
    assert out == "9253082936723602\n"
    assert os.listdir(tmp_path) == ["ptable_300.txt"]


N300 = ("--n-max", "300")
WALK_FILES = sorted("pwalk_300_k%d.txt" % k for k in REFERENCE_K_VALUES)


def test_walks_are_taken_once_per_cache(capsys, tmp_path, monkeypatch):
    calls = collections.Counter()
    real = partgap.repulsion._records

    def counted(table, k):
        calls[k] += 1
        return real(table, k)

    monkeypatch.setattr(partgap.repulsion, "_records", counted)
    cache = ("--cache", str(tmp_path))
    assert run(capsys, "table2", *N300, *cache)[0] == 0
    assert calls == {k: 1 for k in REFERENCE_K_VALUES}
    assert sorted(os.listdir(tmp_path)) == ["ptable_300.txt", *WALK_FILES]
    calls.clear()
    for argv in (
        ("table3", *N300),
        ("figure-data", *N300),
        ("figure-data", *N300, "--check"),
        ("fit", *N300, "--d-exp", "0..8", "--degree", "3"),
    ):
        assert run(capsys, *argv, *cache)[0] in (0, 1)
    assert calls == {}
    assert sorted(os.listdir(tmp_path)) == ["ptable_300.txt", *WALK_FILES]


WALK_COMMANDS = [
    *((name, fmt) for name in ("table2", "table3") for fmt in ("csv", "json", "text", "check")),
    *(("figure-data", fmt) for fmt in ("csv", "json", "text", "check")),
    ("fit", "text"),
    ("fit", "json"),
]


@pytest.mark.parametrize("name, fmt", WALK_COMMANDS, ids=["-".join(c) for c in WALK_COMMANDS])
def test_walk_cache_leaves_output_unchanged(capsys, tmp_path, name, fmt):
    argv = [name, *N300, "--check" if fmt == "check" else "--format=" + fmt]
    if name == "fit":
        argv += ["--d-exp", "0..8", "--degree", "3", "--eval", "10^4"]
    plain = run(capsys, *argv)
    assert plain[0] in (0, 1) and plain[2] == ""
    fresh = run(capsys, *argv, "--cache", str(tmp_path))
    assert any(f.startswith("pwalk_300_") for f in os.listdir(tmp_path))
    warm = run(capsys, *argv, "--cache", str(tmp_path))
    assert fresh == plain
    assert warm == plain


def _changed_distance(lines):
    # a record whose distance can grow by one and still rise below the
    # next: only the recheck of p(n) can catch it
    i = next(
        i for i in range(2, len(lines) - 1)
        if int(lines[i].split()[0]) + 1 < int(lines[i + 1].split()[0])
    )
    dist, n = map(int, lines[i].split())
    lines[i] = "%d %d" % (dist + 1, n)
    return lines, "p(%d) lies %d from the nearest k-th power for k=3, not %d" % (n, dist, dist + 1)


def _header(lines, n_max, k, count):
    lines[0] = "%d %d %d" % (n_max, k, count)
    return lines


# each takes the lines of pwalk_300_k3.txt and returns the damaged lines
# and the message that loading them must give
WALK_DAMAGE = {
    "header-k": lambda lines: (
        _header(lines, 300, 4, len(lines) - 1),
        "header says n_max=300 k=4, want n_max=300 k=3",
    ),
    "header-n-max": lambda lines: (
        _header(lines, 200, 3, len(lines) - 1),
        "header says n_max=200 k=3, want n_max=300 k=3",
    ),
    "count-off-by-one": lambda lines: (
        _header(lines, 300, 3, len(lines)),
        "header says %d records but %d follow" % (len(lines), len(lines) - 1),
    ),
    "distance-changed": _changed_distance,
    "record-deleted": lambda lines: (
        lines[:5] + lines[6:],
        "header says %d records but %d follow" % (len(lines) - 1, len(lines) - 2),
    ),
    "out-of-order": lambda lines: (
        lines[:4] + [lines[5], lines[4]] + lines[6:],
        "record 5 does not rise above record 4",
    ),
    "not-an-integer": lambda lines: (
        lines[:3] + ["12 x"] + lines[4:],
        "line 4 is not 2 integers: '12 x'",
    ),
    "empty": lambda lines: ([], "line 1 is not 3 integers: ''"),
}


@pytest.mark.parametrize("damage", list(WALK_DAMAGE))
def test_damaged_walk_file_is_refused(capsys, tmp_path, damage):
    cache = ("--cache", str(tmp_path))
    assert run(capsys, "table2", *N300, *cache)[0] == 0
    path = tmp_path / "pwalk_300_k3.txt"
    lines, message = WALK_DAMAGE[damage](path.read_text().splitlines())
    path.write_text("".join(line + "\n" for line in lines))
    code, out, err = run(capsys, "table3", *N300, *cache)
    assert (code, out) == (2, "")
    assert err == "error: walk file %s: %s\n" % (path, message)


def test_cache_interrupted_walk_write_leaves_no_walk(capsys, tmp_path, monkeypatch):
    cache = ("--cache", str(tmp_path))
    assert run(capsys, "pn", "300", *cache)[0] == 0
    fdopen = os.fdopen

    class FailsAfterFiveLines:
        def __init__(self, stream):
            self.stream, self.lines = stream, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.stream.close()

        def write(self, text):
            self.lines += 1
            if self.lines > 5:
                raise OSError("disk full")
            return self.stream.write(text)

    monkeypatch.setattr(os, "fdopen", lambda *a, **kw: FailsAfterFiveLines(fdopen(*a, **kw)))
    assert run(capsys, "table2", *N300, *cache) == (2, "", "error: disk full\n")
    assert os.listdir(tmp_path) == ["ptable_300.txt"]
    monkeypatch.undo()
    want = run(capsys, "table2", *N300)
    assert run(capsys, "table2", *N300, *cache) == want
    assert sorted(os.listdir(tmp_path)) == ["ptable_300.txt", *WALK_FILES]


def test_cli_import_loads_stdlib_only():
    # in a fresh interpreter, so that no third-party package imported by
    # the test run itself can hide one imported by the package
    src = os.path.dirname(os.path.dirname(partgap.partitions.__file__))
    script = (
        "import sys; before = set(sys.modules); import partgap.cli; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(' '.join(sorted(new - set(sys.stdlib_module_names))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout.split() == ["partgap"]


def test_missed_past_memory_exits_2():
    # the sieve of 10^10 needs 10^10 + 1 bytes; the 1 GB address-space
    # limit is set in the child alone
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(partgap.partitions.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "partgap", "missed", "--bound", "10000000000"],
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=limit,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        2,
        "",
        "error: missed --bound 10000000000 ran out of memory: its sieve needs"
        " 10000000001 bytes\n",
    )


def test_usage_errors(capsys):
    assert run(capsys, "unknown-command")[0] == 2
    assert run(capsys, "pn")[0] == 2
    assert run(capsys, "pn", "notanint")[0] == 2
    assert run(capsys, "delta", "5", "1")[0] == 2
    assert run(capsys, "table2", "--n-max", "0")[0] == 2
    assert run(capsys, "figure-data", "--k", "2,x")[0] == 2
    assert run(capsys, "figure-data", "--d-exp", "9..2")[0] == 2
    assert run(capsys, "fit", "--degree", "0", "--n-max", "300")[0] == 2
    assert run(capsys, "missed")[0] == 2
    assert run(capsys, "verify-bs", "--n-max", "0")[0] == 2
    assert run(capsys, "sun-scan", "--n-max", "1")[0] == 2
    assert run(capsys, "figure-data", "--n-max", "300", "--k", "2,2")[0] == 2
    # duplicate k are rejected before the --check branch too
    assert run(capsys, "figure-data", "--k", "2,2", "--check") == (
        2,
        "",
        "error: k values must be distinct\n",
    )
    for command in ("figure-data", "fit"):
        assert run(capsys, command, "--d-exp=-1,0") == (
            2,
            "",
            "error: d exponents must be >= 0\n",
        )
    assert run(capsys, "table4", "--n-max", "300", "--d-max", "-1") == (
        2,
        "",
        "error: d_max must be >= 0, got -1\n",
    )
    # p(2) = 2, so the range p(0..2) decides d = 0 only
    assert run(capsys, "table4", "--n-max", "2", "--d-max", "1") == (
        2,
        "",
        "error: d=1 is not below p(n_max) - 1; extend the table\n",
    )


def test_pn_estimate_past_float_range(capsys, monkeypatch):
    # A fake p(0..80000), all ones but the last: no 3-second build.  The
    # estimate at 80000 is past float range (inf); the ratio must stay
    # finite both for a p(N) past float range and for one inside it.
    def fake_build(top):
        return lambda n_max: partgap.partitions.PartitionTable((1,) * n_max + (top,))

    log_estimate = math.pi * math.sqrt(2 * 80000 / 3) - math.log(4 * 80000 * math.sqrt(3))
    for digits in (400, 301):
        top = 10 ** (digits - 1)
        monkeypatch.setattr(partgap.cli, "build_table", fake_build(top))
        code, out, err = run(capsys, "pn", "80000", "--estimate")
        assert (code, err) == (0, "")
        ratio = math.exp(log_estimate - (digits - 1) * math.log(10))
        assert out == "%d\nestimate=inf ratio=%.6g\n" % (top, ratio)
        assert 0 < ratio < math.inf


def test_pn_failed_export_prints_no_result(capsys, tmp_path):
    target = tmp_path / "missing" / "values.txt"
    code, out, err = run(capsys, "pn", "5", "--export", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err


def test_pn_zero_export_is_one_line(capsys, tmp_path):
    target = tmp_path / "values.txt"
    assert run(capsys, "pn", "0", "--export", str(target)) == (0, "1\n", "")
    assert target.read_text() == "1\n"


def test_output_does_not_depend_on_the_cache(capsys, tmp_path):
    # with a 300-entry cache, each command reports what it reports
    # without one
    cache = tmp_path / "cache"
    cache.mkdir()
    partgap.partitions.save_table(
        partgap.partitions.build_table(300), str(cache / "ptable_300.txt")
    )
    fresh, cached = tmp_path / "fresh.txt", tmp_path / "cached.txt"
    assert run(capsys, "pn", "50", "--export", str(fresh)) == (0, "204226\n", "")
    assert run(capsys, "pn", "50", "--export", str(cached), "--cache", str(cache)) == (
        0,
        "204226\n",
        "",
    )
    assert len(cached.read_text().splitlines()) == 51
    assert cached.read_text() == fresh.read_text()
    plain = run(capsys, "verify-bs", "--n-max", "200")
    assert plain[1].splitlines()[-1].endswith("n_max=200")
    assert run(capsys, "verify-bs", "--n-max", "200", "--cache", str(cache)) == plain
    assert os.listdir(cache) == ["ptable_300.txt"]


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "pn", "--help")[0] == 0
