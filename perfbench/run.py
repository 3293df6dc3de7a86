"""The partgap benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload paper-tables|stabilization|power-scan \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; partgap is imported from ``src/`` there
and nowhere else.  Each measured repetition runs in a fresh process, one
at a time (a closed loop with one client), until ``--seconds`` is used
up.  Every output is verified exactly.  The last line of standard output
is one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.  The full
record (environment, inputs, samples, failures, spans) is written to
``.perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import checks
import tracing

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-tables", "stabilization", "power-scan")
WORKERS = 1  # one closed-loop client; never more than the cores
SETUP_REPS = 5  # paper-tables set-ups per run; setup_s is their median
MIN_REPS = 3  # timed repetitions per library run, at least
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "1/s",  # items per second; the item is in WORK_UNITS
    "peak_rss_mib": "MiB",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
}
WORK_UNITS = {
    "paper-tables": "CLI commands completed",
    "stabilization": "(n, k) pairs below the freeze bound",
    "power-scan": "table values examined",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith((".calls", ".events", ".values", ".tables_built")):
        return "count"
    return "ratio"


class Context:
    """What one run shares: paths, the paper's reference data, the child env."""

    def __init__(self, root: str, workdir: str) -> None:
        self.root = root
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k not in ("PARTGAP_CACHE_DIR", "PYTHONPATH")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        from partgap import reference, witnesses

        self.reference = reference
        self.exceptional = witnesses.bundled_exceptional_list()

    def spawn(self, argv: list[str], stdin: str = "") -> dict:
        """Run one child to completion; its wall time and peak RSS come
        from the parent side (``wait4``), so the child is not disturbed."""
        fd, path = tempfile.mkstemp(dir=self.workdir)
        os.close(fd)
        with open(path + ".in", "w", encoding="utf-8") as fh:
            fh.write(stdin)
        with open(path + ".in", "rb") as fin, open(path, "w+b") as fout, open(path + ".err", "w+b") as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr, env=self.env, cwd=self.root)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            fout.seek(0)
            ferr.seek(0)
            out, err = fout.read().decode(), ferr.read().decode()
        for p in (path, path + ".in", path + ".err"):
            os.remove(p)
        return {
            "code": proc.returncode,
            "stdout": out,
            "stderr": err,
            "elapsed_s": elapsed,
            "rss_mib": usage.ru_maxrss / 1024.0,
        }


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError("%d samples leave no tail with %d beyond it" % (n, TAIL_BEYOND))
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def repeat(seconds: float, minimum: int, step) -> list:
    """Call step() until the next call would overrun ``seconds``."""
    out = []
    start = time.perf_counter()
    last = 0.0
    while len(out) < minimum or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        out.append(step(len(out)))
        last = time.perf_counter() - t
    return out


# ------------------------------------------------------------- library

def run_library(ctx: Context, workload: str, inputs: dict, values, seconds: float, trace: bool, checker: checks.Checker) -> list:
    stdin = json.dumps(inputs)
    if workload == "stabilization":
        work = sum(max(0, (2 * v - 1).bit_length() - 2) for v in values[2:])
    else:
        lo, hi = inputs["window"]
        work = (inputs["n_max"] - 1) + (hi - lo + 1) + 18
    verified: dict[str, checks.Checker] = {}

    def rep(index: int) -> dict:
        traced = trace and index % 2 == 1
        child = ctx.spawn([sys.executable, os.path.join(HERE, "rep.py"), workload, "1" if traced else "0"], stdin)
        rec = {"traced": traced, "rss_mib": child["rss_mib"]}
        try:
            result = json.loads(child["stdout"]) if child["code"] == 0 else None
        except ValueError:
            result = None
        if result is None:
            checker.check(False, "%s repetition exited %d: %s" % (workload, child["code"], child["stderr"][-500:]))
            return rec
        key = json.dumps(result["outputs"], sort_keys=True)
        if key not in verified:
            try:
                if workload == "stabilization":
                    verified[key] = checks.check_stabilization(result["outputs"], inputs, values, ctx.reference)
                else:
                    verified[key] = checks.check_power_scan(result["outputs"], inputs, values, ctx.reference, ctx.exceptional)
            except (ValueError, KeyError, TypeError, IndexError) as e:
                verified[key] = checks.Checker()
                verified[key].check(False, "%s: unreadable outputs (%s)" % (workload, e))
        checker.add(verified[key])
        rec.update(setup_s=result["setup_s"], wall_s=result["wall_s"], query_s=result["query_s"], work=work)
        if traced:
            t = tracing.Trace()
            t.add(result["trace"])
            rec["trace"] = t
        return rec

    return repeat(seconds, 2 * MIN_REPS if trace else MIN_REPS, rep)


# ----------------------------------------------------------------- CLI

def run_paper_tables(ctx: Context, inputs: dict, values, seconds: float, trace: bool, checker: checks.Checker) -> list:
    n_max = inputs["n_max"]
    anchors = [a for d, _ in ctx.reference.FIT_ANCHORS for a in ("--eval", str(d))]
    n_arg = ["--n-max", str(n_max)]
    reference_cmds = [
        ["table1", "--format", "json"],
        ["table2", "--format", "json", *n_arg],
        ["table3", "--format", "json", *n_arg],
        ["figure-data", "--format", "json", *n_arg],
        ["fit", "--k", "50", "--format", "json", *n_arg, *anchors],
    ]

    def invoke(argv: list[str], cache: str, trace_to: tracing.Trace | None) -> dict:
        full = [*argv, "--cache", cache]
        if trace_to is None:
            child = ctx.spawn([sys.executable, "-m", "partgap", *full])
        else:
            trace_file = os.path.join(ctx.workdir, "trace.json")
            child = ctx.spawn([sys.executable, os.path.join(HERE, "cli_trace.py"), trace_file, *full])
            if os.path.exists(trace_file):
                with open(trace_file, encoding="utf-8") as fh:
                    dump = json.load(fh)
                os.remove(trace_file)
                trace_to.add(dump)
                trace_to.add_extra("cli.import_s", dump["import_s"])
                trace_to.add_extra("cli.import_numpy_s", dump["import_numpy_s"])
                main_s = sum(rec[3] for rec in dump["totals"] if rec[0] == "cli.main")
                trace_to.add_extra("cli.process_s", child["elapsed_s"] - dump["import_s"] - main_s)
        checker.add(checks.check_cli(argv, child["code"], child["stdout"], n_max, values, ctx.reference, ctx.exceptional))
        return child

    def setup(trace_to: tracing.Trace | None = None) -> tuple[str, float]:
        cache = tempfile.mkdtemp(dir=ctx.workdir)
        child = invoke(["pn", str(n_max)], cache, trace_to)
        return cache, child["elapsed_s"]

    setups = [] if trace else [setup()[1] for _ in range(SETUP_REPS - 1)]

    def rep(index: int) -> dict:
        # Traced: one untraced repetition, then traced ones, at least two
        # so that their call counts are compared.
        t = tracing.Trace() if trace and index % 3 else None
        cache, setup_s = setup(t)
        setups.append(setup_s)
        wall, latencies, work, rss = 0.0, [], 0, 0.0
        for i, argv in enumerate(reference_cmds + inputs["queries"]):
            child = invoke(argv, cache, t)
            wall += child["elapsed_s"]
            work += child["code"] == 0
            rss = max(rss, child["rss_mib"])
            if i >= len(reference_cmds):
                latencies.append(child["elapsed_s"])
        rec = {"traced": t is not None, "wall_s": wall, "query_s": latencies, "rss_mib": rss, "work": work}
        if t is not None:
            rec["trace"] = t
        return rec

    reps = repeat(seconds, 3 if trace else 1, rep)
    for rec in reps:
        rec["setup_s"] = statistics.median(setups)
    return reps


# ------------------------------------------------------------- results

def upper(values: list[float]) -> float:
    """The 90th percentile of a run's repetitions, interpolated.  The host
    alternates between fast and slow phases of a few seconds; the median
    repetition flips between them with the share of fast phases a run
    catches, while the upper repetitions come from the slow state that
    every run sees (README.md, Steadiness)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(workload: str, reps: list) -> tuple[dict, dict]:
    reps = [r for r in reps if not r["traced"] and "wall_s" in r]
    if not reps:
        raise RuntimeError("no repetition completed")
    walls = [r["wall_s"] for r in reps]
    p50s = [statistics.median(r["query_s"]) for r in reps]
    tails = [tail(r["query_s"]) for r in reps]
    wall = upper(walls)
    work = statistics.median(r["work"] for r in reps)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "work_per_s": work / wall,
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in reps),
        "query_p50_ms": 1000.0 * upper(p50s),
        "query_tail_ms": 1000.0 * upper([v for v, _ in tails]),
    }
    samples = {
        "repetitions": len(reps),
        "wall_s": walls,
        "setup_s": [r["setup_s"] for r in reps],
        "query_p50_s": p50s,
        "query_tail_s": [v for v, _ in tails],
        "query_samples_per_repetition": len(reps[0]["query_s"]),
        "query_tail_percentile": tails[0][1],
        "work": work,
        "work_unit": WORK_UNITS[workload],
    }
    return metrics, samples


def per_layer(reps: list, checker: checks.Checker) -> tuple[dict, dict]:
    traced = [r for r in reps if r["traced"] and "trace" in r]
    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    if not traced or not plain:
        raise RuntimeError("a traced run needs a traced and an untraced repetition")
    # A library repetition acquires its one table in set-up, outside the CLI.
    layers = [
        tracing.layer_metrics(r["trace"], r["trace"].calls("cli._acquire_table") or 1)
        for r in traced
    ]
    counts = [r["trace"].counts() for r in traced]
    checker.check(len(counts) >= 2, "call counts not compared: %d traced repetition(s)" % len(counts))
    for c in counts[1:]:
        checker.check(c == counts[0], "traced call counts differ between repetitions")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace_overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in plain) - 1.0
    )
    spans = [s for r in traced[:1] for s in r["trace"].spans]
    return metrics, {"counts": counts[0], "spans": spans, "traced_repetitions": len(traced)}


def environment(root: str) -> dict:
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": None,
        "platform": platform.platform(),
        "workers": WORKERS,
        "git_commit": None,
        "git_dirty": None,
    }
    try:
        env["numpy"] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        pass
    if os.path.isdir(os.path.join(root, ".git")):
        git = ["git", "--git-dir", os.path.join(root, ".git"), "--work-tree", root]
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            env["git_commit"] = head.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: checks.Sizes = checks.FULL, root: str = ROOT) -> dict:
    """One benchmark run; returns its full record, the result object under
    ``"result"``."""
    if WORKERS > (os.cpu_count() or 1):
        raise RuntimeError("refusing %d workers on %d cores" % (WORKERS, os.cpu_count()))
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_dir, prefix="tmp-")
    try:
        ctx = Context(root, workdir)
        size_n = {
            "paper-tables": sizes.tables_n_max,
            "stabilization": sizes.stabilization_n_max,
            "power-scan": sizes.scan_n_max,
        }[workload]
        values = checks.partition_numbers(size_n)
        inputs = checks.make_inputs(workload, seed, sizes, values)
        checker = checks.Checker()
        if workload == "paper-tables":
            reps = run_paper_tables(ctx, inputs, values, seconds, trace, checker)
        else:
            reps = run_library(ctx, workload, inputs, values, seconds, trace, checker)
        if trace:
            metrics, detail = per_layer(reps, checker)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, detail = end_to_end(workload, reps)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(root),
        "inputs": inputs,
        "error_rate": {
            "failed": result["failed"],
            "attempted": result["attempted"],
            "value": result["failed"] / max(1, result["attempted"]),
        },
        "failures": checker.failures[:50],
        "detail": detail,
        "result": result,
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "partgap", "__init__.py")):
        print("error: no partgap sources under %s; run from the root of a checkout" % src, file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = record["result"]
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("workload=%s seed=%d attempted=%d failed=%d record=%s" % (
        args.workload, args.seed, result["attempted"], result["failed"], os.path.relpath(path, ROOT)))
    for failure in record["failures"][:10]:
        print("FAILED %s" % failure)
    for name, m in result["metrics"].items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
