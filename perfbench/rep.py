"""One repetition of a library workload, in a fresh process.

Reads the workload's generated inputs as JSON on stdin and writes one
JSON object to stdout: set-up time (import plus ``build_table``), the
timed phase, per-query latencies, the raw outputs for the parent to
verify and, when traced, the trace.

    python3 perfbench/rep.py stabilization|power-scan 0|1 < inputs.json
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def stabilization(pg, table, inputs, clock):
    d_cap = inputs["d_cap"]
    latencies = []
    start = clock()
    events = pg.near_power_events(table, d_cap)
    intervals = pg.n_d_intervals(table, d_cap, events=events)
    batch = pg.n_d_batch(table, inputs["batch"], events=events)
    answers = []
    for d in inputs["queries"]:
        t = clock()
        answers.append(pg.n_d(table, d, events=events))
        latencies.append(clock() - t)
    wall = clock() - start
    outputs = {
        "events": [list(e) for e in events.events],
        "intervals": [list(t) for t in intervals],
        "batch": sorted(batch.items()),
        "queries": answers,
    }
    return wall, latencies, outputs


def power_scan(pg, table, inputs, clock):
    lo, hi = inputs["window"]
    latencies = []
    start = clock()
    hits = pg.perfect_power_scan(table, 2, table.n_max)
    window = pg.coverage_scan(table, lo, hi)
    small = pg.coverage_scan(table, 2, 19)
    missed = pg.missed_values(176)
    report = pg.check_exceptional_powers(pg.bundled_exceptional_list())
    planted = []
    for case in inputs["planted"]:
        t = clock()
        planted.append(pg.is_perfect_power(case["value"]))
        latencies.append(clock() - t)
    wall = clock() - start

    def statuses(scan):
        return [[s.n, list(s.witness[1:]) if s.witness else None] for s in scan]

    outputs = {
        "perfect_powers": [[n, w.base, w.exponent] for n, w in hits],
        "window": statuses(window),
        "small": statuses(small),
        "missed": missed,
        "exceptional": {
            "all_clear": report.all_clear,
            "checks": [[c.value, c.lookup.index, c.lookup.out_of_range] for c in report.checks],
        },
        "planted": [list(w) if w else None for w in planted],
    }
    return wall, latencies, outputs


WORKLOADS = {"stabilization": stabilization, "power-scan": power_scan}


def main() -> int:
    workload, traced = sys.argv[1], sys.argv[2] == "1"
    inputs = json.load(sys.stdin)
    clock = time.perf_counter
    src = os.path.join(ROOT, "src")
    start = clock()
    if traced:
        import tracing

        imports = tracing.import_partgap(src, with_cli=False)
        tracer = tracing.Tracer()
        tracer.install()
        start = clock()
    else:
        sys.path.insert(0, src)
    import partgap as pg

    table = pg.build_table(inputs["n_max"])
    setup = clock() - start
    if traced:
        setup += imports["import_s"]
    wall, latencies, outputs = WORKLOADS[workload](pg, table, inputs, clock)
    json.dump(
        {
            "setup_s": setup,
            "wall_s": wall,
            "query_s": latencies,
            "outputs": outputs,
            "trace": tracer.dump() if traced else None,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
