"""The benchmark's own tests, at tiny sizes (n_max 300).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def tiny(workload: str, trace: bool, seed: int = 1) -> dict:
    """The full record of one run at tiny sizes."""
    return run.run(workload, seed, 0.1, trace, checks.TINY, ROOT)


@pytest.fixture(scope="module")
def traced():
    return {w: tiny(w, True) for w in run.WORKLOADS}


def test_benchmark_json_names_every_workload():
    assert {w["name"] for w in spec()["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = tiny(workload, False)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_layer_metric(traced, workload):
    result = traced[workload]["result"]
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_call_counts_repeat_exactly(traced, workload):
    again = tiny(workload, True)
    counts = traced[workload]["detail"]["counts"]
    assert counts and again["detail"]["counts"] == counts


def test_corrupted_reference_cell_is_a_failed_operation(monkeypatch):
    from partgap import reference

    bad = list(reference.TABLE4_INTERVALS)
    bad[3] = (bad[3][0], bad[3][1], bad[3][2] + 1)
    monkeypatch.setattr(reference, "TABLE4_INTERVALS", tuple(bad))
    out = tiny("stabilization", False)
    result, reps = out["result"], out["detail"]["repetitions"]
    assert not result["correct"]
    # the interval itself, plus every seeded n_d that falls inside it
    assert result["failed"] >= reps and result["attempted"] > result["failed"]
    assert any("interval [7, 21, 9]" in f for f in out["failures"])


def test_corrupted_planted_power_is_a_failed_operation(monkeypatch):
    make_inputs = checks.make_inputs

    def corrupt(*args):
        inputs = make_inputs(*args)
        if "planted" in inputs:
            inputs["planted"][0]["value"] += 2  # no longer y^q
        return inputs

    monkeypatch.setattr(checks, "make_inputs", corrupt)
    out = tiny("power-scan", False)
    result = out["result"]
    assert result["failed"] == out["detail"]["repetitions"]
    assert result["attempted"] > result["failed"]


def test_checking_table_comes_from_the_benchmark():
    from partgap import reference

    values = checks.partition_numbers(300)
    assert values[:8] == (1, 1, 2, 3, 5, 7, 11, 15)
    assert values[100] == 190569292 and values[200] == 3972999029388
    for n, p in reference.SAMPLE_P:
        if n <= 300:
            assert values[n] == p


def test_numpy_share_of_the_import_is_timed_only_when_imported(tmp_path):
    (tmp_path / "pbfake_loaded").mkdir()
    (tmp_path / "pbfake_loaded" / "__init__.py").write_text("import time\ntime.sleep(0.05)\n")
    (tmp_path / "pbfake_user.py").write_text("import pbfake_loaded\n")
    (tmp_path / "pbfake_alone.py").write_text("X = 1\n")
    sys.path.insert(0, str(tmp_path))
    try:
        for module, loads in (("pbfake_alone", False), ("pbfake_user", True)):
            timer = tracing.FirstImportTimer("pbfake_loaded")
            sys.meta_path.insert(0, timer)
            __import__(module)
            if timer in sys.meta_path:
                sys.meta_path.remove(timer)
            if loads:
                assert timer.seconds >= 0.05
            else:
                assert timer.seconds == 0.0
    finally:
        sys.path.remove(str(tmp_path))


def test_inputs_depend_only_on_the_seed():
    values = tuple(3 ** n for n in range(400))
    for workload in run.WORKLOADS:
        a = checks.make_inputs(workload, 7, checks.TINY, values)
        assert a == checks.make_inputs(workload, 7, checks.TINY, values)
        assert a != checks.make_inputs(workload, 8, checks.TINY, values)


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail(list(range(40))) == (29, 75.0)
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stabilization",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
