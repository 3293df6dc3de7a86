"""Seeded inputs and exact output checks for the three workloads.

Inputs depend only on the workload name, the seed and the sizes.  Every
check is exact and independent of the command's own exit code: cells
against ``partgap.reference``, distances by the sandwich around the
nearest power, witnesses by their defining identity, planted powers by
construction.  The table of p(n) the checks read is built here, by
Euler's pentagonal recurrence, never by the program under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

D_CAP = 270343  # the last threshold of the published stabilization runs
# Near-power events at D_CAP: all lie at n <= EVENTS_MAX_N, so the count
# holds for every n_max >= EVENTS_MAX_N (measured at 300, 3000 and 25000).
EVENTS_AT_D_CAP = 843
EVENTS_MAX_N = 280
FIT_TOLERANCE = 0.10  # the refit tolerance of acceptance criterion 13
CLI_QUERY_KINDS = ("pn", "delta", "table1", "verify-bs")
PRIMES_UNDER_100 = tuple(q for q in range(2, 100) if all(q % f for f in range(2, q)))


@dataclass(frozen=True)
class Sizes:
    stabilization_n_max: int
    nd_batch: int
    nd_queries: int
    scan_n_max: int
    window: int
    planted: int
    tables_n_max: int
    cli_queries_per_kind: int


FULL = Sizes(
    stabilization_n_max=3000, nd_batch=200, nd_queries=100,
    scan_n_max=6000, window=150, planted=40,
    tables_n_max=25000, cli_queries_per_kind=10,
)
TINY = Sizes(
    stabilization_n_max=300, nd_batch=20, nd_queries=12,
    scan_n_max=300, window=20, planted=4,
    tables_n_max=300, cli_queries_per_kind=3,
)


def partition_numbers(n_max: int) -> tuple[int, ...]:
    """p(0..n_max) by Euler's pentagonal number recurrence."""
    pentagonal = []  # (k(3k-1)/2, k(3k+1)/2, sign) for k = 1, 2, ...
    k = 1
    while k * (3 * k - 1) // 2 <= n_max:
        pentagonal.append((k * (3 * k - 1) // 2, k * (3 * k + 1) // 2, 1 if k % 2 else -1))
        k += 1
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        for g1, g2, sign in pentagonal:
            if g1 > n:
                break
            term = p[n - g1] + (p[n - g2] if g2 <= n else 0)
            total += term if sign > 0 else -term
        p[n] = total
    return tuple(p)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def make_inputs(workload: str, seed: int, sizes: Sizes, values: tuple[int, ...]) -> dict:
    """The generated inputs of one run.  ``values`` is the benchmark's own
    table p(0..n_max) (``partition_numbers``), used only to size planted
    powers."""
    rng = _rng(workload, seed)
    if workload == "stabilization":
        return {
            "n_max": sizes.stabilization_n_max,
            "d_cap": D_CAP,
            "batch": sorted(rng.sample(range(D_CAP + 1), sizes.nd_batch)),
            "queries": [rng.randint(0, D_CAP) for _ in range(sizes.nd_queries)],
        }
    if workload == "power-scan":
        # Window and planted sizes are drawn from the top of the table so
        # that the amount of work hardly depends on the seed.
        n_max = sizes.scan_n_max
        lo = rng.randint(n_max - 4 * sizes.window, n_max - sizes.window + 1)
        planted = []
        for _ in range(sizes.planted):
            bits = values[rng.randint(n_max // 2, n_max)].bit_length()
            q = rng.randint(2, min(40, bits // 8))
            y = rng.getrandbits(bits // q) | (1 << (bits // q - 1))
            planted.append({"value": y ** q, "power": True})
            # y^q +- 1 with y^q > 9 is never a perfect power (Mihailescu)
            planted.append({"value": y ** q - 1, "power": False})
            planted.append({"value": y ** q + 1, "power": False})
        return {"n_max": n_max, "window": [lo, lo + sizes.window - 1], "planted": planted}
    if workload == "paper-tables":
        # The four query kinds the workload names, equally often, in
        # seeded order.
        n_max = sizes.tables_n_max
        kinds = [kind for kind in CLI_QUERY_KINDS for _ in range(sizes.cli_queries_per_kind)]
        rng.shuffle(kinds)
        queries = []
        for kind in kinds:
            if kind == "pn":
                queries.append(["pn", str(rng.randint(1, n_max))])
            elif kind == "delta":
                queries.append(["delta", str(rng.randint(1, n_max)), str(rng.randint(2, 100)), "--verbose"])
            elif kind == "table1":
                queries.append(["table1", "--format", "json"])
            else:
                queries.append(["verify-bs"])
        return {"n_max": n_max, "queries": queries}
    raise ValueError("unknown workload %r" % workload)


class Checker:
    """Counts attempted operations and keeps a description of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def add(self, other: "Checker") -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)


def iroot(v: int, k: int) -> int:
    """floor(v ** (1/k)) by bisection; deliberately not partgap's Newton."""
    lo, hi = 0, 1 << (v.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= v:
            lo = mid
        else:
            hi = mid - 1
    return lo


def nearest_distance(v: int, k: int) -> int:
    r = iroot(v, k)
    return min(v - r ** k, (r + 1) ** k - v)


def has_witness(v: int) -> bool:
    """Whether v = x^2 + q^a for some prime q < 100 not dividing x."""
    for q in PRIMES_UNDER_100:
        power = q
        while power < v:
            x = math.isqrt(v - power)
            if x * x == v - power and x % q:
                return True
            power *= q
    return False


def valid_witness(v: int, x: int, q: int, a: int) -> bool:
    return q in PRIMES_UNDER_100 and a >= 1 and x % q != 0 and x * x + q ** a == v


def interval_at(intervals, d: int) -> int | None:
    for lo, hi, value in intervals:
        if lo <= d <= hi:
            return value
    return None


# ---------------------------------------------------------------- library

def check_stabilization(out: dict, inputs: dict, values: tuple[int, ...], reference) -> Checker:
    c = Checker()
    n_max, d_cap = inputs["n_max"], inputs["d_cap"]
    want = [list(t) for t in reference.TABLE4_INTERVALS if t[0] <= d_cap]
    got = out["intervals"]
    for i, interval in enumerate(want):
        c.check(i < len(got) and got[i] == interval, "interval %r: got %r" % (interval, got[i] if i < len(got) else None))
    c.check(len(got) == len(want), "interval count %d, want %d" % (len(got), len(want)))
    events = out["events"]
    if n_max >= EVENTS_MAX_N:
        c.check(len(events) == EVENTS_AT_D_CAP, "event count %d, want %d" % (len(events), EVENTS_AT_D_CAP))
    for n, k, dist in events:
        v = values[n]
        c.check(
            2 <= n <= n_max and 2 <= k < (2 * v - 1).bit_length() and dist <= d_cap
            and nearest_distance(v, k) == dist,
            "event (%d, %d, %d)" % (n, k, dist),
        )
    batch = dict(out["batch"])
    c.check(sorted(batch) == sorted(set(inputs["batch"])), "n_d_batch answered thresholds %r" % sorted(batch)[:5])
    for label, ds, got_values in (
        ("n_d_batch", inputs["batch"], [batch.get(d) for d in inputs["batch"]]),
        ("n_d", inputs["queries"], out["queries"]),
    ):
        for d, v in zip(ds, got_values):
            c.check(v == interval_at(reference.TABLE4_INTERVALS, d), "%s(%d) = %r" % (label, d, v))
    c.check(len(out["queries"]) == len(inputs["queries"]), "n_d answered %d of %d queries" % (len(out["queries"]), len(inputs["queries"])))
    return c


def check_power_scan(out: dict, inputs: dict, values: tuple[int, ...], reference, exceptional) -> Checker:
    c = Checker()
    # criterion 9: no p(n) with 1 < n <= 25000 is a perfect power
    c.check(out["perfect_powers"] == [], "perfect powers reported: %r" % (out["perfect_powers"][:5],))
    lo, hi = inputs["window"]
    for label, (a, b), statuses in (
        ("window", (lo, hi), out["window"]),
        ("small", (2, 19), out["small"]),
    ):
        c.check([s[0] for s in statuses] == list(range(a, b + 1)), "%s scan covers the wrong n" % label)
        for n, witness in statuses:
            if witness is None:
                ok = not has_witness(values[n])
            else:
                ok = valid_witness(values[n], *witness)
            c.check(ok, "coverage of n=%d: %r" % (n, witness))
    uncovered = tuple(n for n, w in out["small"] if w is None)
    c.check(uncovered == reference.UNCOVERED_2_TO_19, "uncovered in 2..19: %r" % (uncovered,))
    c.check(tuple(out["missed"]) == reference.MISSED_176, "missed_values(176) = %r" % (out["missed"],))
    report = out["exceptional"]
    c.check(report["all_clear"] and len(report["checks"]) == len(exceptional), "exceptional report %r" % (report,))
    known = set(values)
    for (q, a, y, k), (value, index, out_of_range) in zip(exceptional, report["checks"]):
        c.check(
            value == y ** k and index is None and not out_of_range
            and value < values[-1] and value not in known,
            "exceptional %d^%d: %r" % (y, k, (value, index, out_of_range)),
        )
    for case, witness in zip(inputs["planted"], out["planted"]):
        v = case["value"]
        if case["power"]:
            ok = witness is not None and witness[1] >= 2 and witness[0] ** witness[1] == v
        else:
            ok = witness is None
        c.check(ok, "is_perfect_power(%d) = %r, planted power=%s" % (v, witness, case["power"]))
    c.check(len(out["planted"]) == len(inputs["planted"]), "planted results missing")
    return c


# -------------------------------------------------------------------- CLI

def _determined(cell: int, n_max: int) -> bool:
    # m_k_d at n_max equals the n_max = 25000 reference cell whenever that
    # cell is <= n_max; larger cells are unknown at a smaller table.
    return cell <= n_max


def _check_rows(c: Checker, name: str, rows, want, k_values, n_max: int) -> None:
    got = {d: cells for d, cells in rows}
    for d, cells in want:
        for k, cell, got_cell in zip(k_values, cells, got.get(d, [None] * len(cells))):
            if _determined(cell, n_max):
                c.check(got_cell == cell, "%s d=%d k=%d: got %r want %d" % (name, d, k, got_cell, cell))


def check_cli(argv: list[str], code: int, stdout: str, n_max: int, values: tuple[int, ...], reference, exceptional) -> Checker:
    """Verify one CLI invocation; each cell or query is one operation."""
    c = Checker()
    cmd = argv[0]
    where = " ".join(argv)
    if code != 0:
        c.check(False, "%s exited %d" % (where, code))
        return c
    try:
        if cmd == "pn":
            n = int(argv[1])
            c.check(stdout.strip() == str(values[n]), "%s printed %r" % (where, stdout[:80]))
        elif cmd == "delta":
            n, k = int(argv[1]), int(argv[2])
            fields = dict(f.split("=") for f in stdout.split())
            b, dist, v = int(fields["nearest_base"]), int(fields["distance"]), values[n]
            c.check(
                int(fields["n"]) == n and int(fields["k"]) == k and b >= 1
                and abs(v - b ** k) == dist
                and dist <= abs(v - (b - 1) ** k) and dist <= abs(v - (b + 1) ** k),
                "%s printed %r" % (where, stdout.strip()),
            )
        elif cmd == "table1":
            rows = json.loads(stdout)["rows"]
            want_p = dict(reference.SAMPLE_P)
            for (n, dists), row in zip(reference.TABLE1, rows + [None] * len(reference.TABLE1)):
                c.check(row is not None and row[0] == n and row[1] == want_p[n], "table1 p(%d): %r" % (n, row))
                for j, want in enumerate(dists):
                    c.check(row is not None and row[2 + j] == want, "table1 n=%d k=%d: %r" % (n, j + 2, row))
        elif cmd in ("table2", "table3"):
            rows = json.loads(stdout)["rows"]
            want = reference.TABLE2 if cmd == "table2" else reference.TABLE3
            _check_rows(c, cmd, rows, want, reference.REFERENCE_K_VALUES, n_max)
        elif cmd == "figure-data":
            series = json.loads(stdout)["series"]
            for k, want in reference.FIGURE_SERIES.items():
                got = series.get(str(k), [])
                for i, cell in enumerate(want):
                    if _determined(cell, n_max):
                        c.check(i < len(got) and got[i] == cell, "figure k=%d i=%d: %r want %d" % (k, i, got[i] if i < len(got) else None, cell))
        elif cmd == "fit":
            model = json.loads(stdout)
            evals = dict(model["evaluations"])
            determined = all(_determined(m, n_max) for m in reference.FIGURE_SERIES[50])
            for d, m in reference.FIT_ANCHORS:
                got = evals.get(d)
                acc = 0.0
                for coeff in reversed(model["coefficients"]):
                    acc = acc * math.log(d) + coeff
                ok = got == acc and (not determined or abs(got - m) <= FIT_TOLERANCE * m)
                c.check(ok, "fit at d=%d: %r (anchor %d)" % (d, got, m))
        elif cmd == "verify-bs":
            lines = stdout.strip().splitlines()
            known = set(values)
            for (q, a, y, k), line in zip(exceptional, lines + [""] * len(exceptional)):
                value = y ** k
                c.check(
                    line == "%d^%d + x^2 = %d^%d -> %d: not a partition number" % (q, a, y, k, value)
                    and value < values[-1] and value not in known,
                    "verify-bs line %r" % line,
                )
            c.check(bool(lines) and lines[-1].startswith("all clear: %d powers" % len(exceptional)), "verify-bs verdict %r" % lines[-1:])
        else:
            c.check(False, "no check for %s" % where)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        c.check(False, "%s: unreadable output (%s)" % (where, e))
    return c
