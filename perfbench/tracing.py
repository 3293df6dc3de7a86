"""Spans around the public functions of each partgap module.

The benchmark installs these wrappers from its own files; nothing under
``src/`` knows about them.  Each call into a wrapped function records
its name, start, end and parent.  Hot leaf functions (millions of calls
per run) keep only per-(name, parent) call counts and summed times, so
memory stays flat.  A layer's self time is its duration minus the time
of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import inspect
import sys
import time

LAYERS = ("partitions", "roots", "repulsion", "witnesses", "fitting", "cli")

# Called per (n, k) pair or per table value: totals only, no span objects.
HOT = frozenset({
    "roots.floor_kth_root",
    "roots.nearest_power_distance",
    "roots.is_perfect_power",
    "roots.prime_exponents_up_to",
    "witnesses.coverage_witness",
    "witnesses.coverage_witnesses",
})

# Private helpers that a metric needs: table acquisition in the CLI.
EXTRA = {"cli": ("_acquire_table",)}

# Result sizes recorded per call, summed by name.
SIZES = {"repulsion.near_power_events": lambda result: len(result.events)}


class Tracer:
    """In-memory spans and per-(name, parent) totals for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent span index]
        self.totals: dict[tuple, list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.sizes: dict[str, int] = {}
        self._stack: list[list] = [[None, 0.0, -1]]  # [name, child_s, span index]

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        stack, spans, totals = self._stack, self.spans, self.totals
        keep_span = name not in HOT
        size_of = SIZES.get(name)
        sizes = self.sizes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, -1]
            if keep_span:
                frame[2] = len(spans)
                spans.append([name, 0.0, 0.0, parent[2]])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                rec = totals.get((name, parent[0]))
                if rec is None:
                    rec = totals[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]
                if keep_span:
                    span = spans[frame[2]]
                    span[1] = start
                    span[2] = end
            if size_of is not None:
                sizes[name] = sizes.get(name, 0) + size_of(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of each loaded partgap layer, at
        every module binding, so calls made through module globals (such
        as ``repulsion.nearest_power_distance``) are traced too."""
        modules = [sys.modules["partgap"]]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get("partgap." + layer)
            if mod is None:
                continue
            modules.append(mod)
            extra = EXTRA.get(layer, ())
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in extra)
                ):
                    wrapped[obj] = self.wrap(layer + "." + attr, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def dump(self) -> dict:
        """JSON-ready spans and totals."""
        return {
            "spans": self.spans,
            "totals": [[name, parent, *rec] for (name, parent), rec in self.totals.items()],
            "sizes": self.sizes,
        }


class FirstImportTimer:
    """A meta-path finder that times the first import of one module,
    submodules included, whoever imports it.  ``seconds`` stays 0 when
    nothing imports the module."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0

    def find_spec(self, fullname, path=None, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def timed(module) -> None:
            start = time.perf_counter()
            try:
                exec_module(module)
            finally:
                self.seconds = time.perf_counter() - start

        spec.loader.exec_module = timed
        return spec


def import_partgap(src: str, with_cli: bool) -> dict:
    """Import partgap from ``src`` as the program itself does, timing the
    whole import and the share of it that loads numpy (0 when partgap
    does not import numpy)."""
    sys.path.insert(0, src)
    numpy = FirstImportTimer("numpy")
    if "numpy" not in sys.modules:
        sys.meta_path.insert(0, numpy)
    start = time.perf_counter()
    importlib.import_module("partgap.cli" if with_cli else "partgap")
    import_s = time.perf_counter() - start
    if numpy in sys.meta_path:
        sys.meta_path.remove(numpy)
    return {"import_s": import_s, "import_numpy_s": numpy.seconds}


class Trace:
    """Merged trace of one repetition: the dumps of every traced process."""

    def __init__(self) -> None:
        self.totals: dict[tuple, list] = {}
        self.sizes: dict[str, int] = {}
        self.spans: list[list] = []
        self.extra: dict[str, float] = {}
        self.processes = 0

    def add(self, dump: dict) -> None:
        """Merge one process's dump; spans are tagged with its index."""
        process = self.processes
        self.processes += 1
        for name, parent, calls, total, self_s in dump["totals"]:
            rec = self.totals.setdefault((name, parent), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, size in dump["sizes"].items():
            self.sizes[name] = self.sizes.get(name, 0) + size
        base = len(self.spans)
        for name, start, end, parent in dump["spans"]:
            self.spans.append([process, name, start, end, base + parent if parent >= 0 else -1])

    def add_extra(self, name: str, value: float) -> None:
        self.extra[name] = self.extra.get(name, 0.0) + value

    def _sum(self, name: str, field: int, parent: str | None = None) -> float:
        return sum(
            rec[field]
            for (n, p), rec in self.totals.items()
            if n == name and (parent is None or p == parent)
        )

    def calls(self, name: str, parent: str | None = None) -> int:
        return int(self._sum(name, 0, parent))

    def total_s(self, name: str) -> float:
        return self._sum(name, 1)

    def self_s(self, *names: str) -> float:
        return sum(self._sum(name, 2) for name in names)

    def spans_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an ``ancestor`` span above them."""
        count = 0
        for span in self.spans:
            if span[1] != name:
                continue
            up = span[4]
            while up >= 0 and self.spans[up][1] != ancestor:
                up = self.spans[up][4]
            count += up >= 0
        return count

    def counts(self) -> dict:
        """Every call count and result size; these must repeat exactly."""
        out = {"%s<%s" % key: rec[0] for key, rec in sorted(self.totals.items(), key=str)}
        out.update(self.sizes)
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: Trace, acquisitions: int) -> dict[str, float]:
    """The per-layer metrics of one traced repetition, by name."""
    t = trace
    distance_calls = t.calls("roots.nearest_power_distance")
    sweep_calls = t.calls("roots.nearest_power_distance", "repulsion.near_power_events")
    power_tests = t.calls("roots.is_perfect_power")
    events = t.sizes.get("repulsion.near_power_events", 0)
    return {
        "roots.nearest_power_distance.calls": distance_calls,
        "roots.nearest_power_distance.self_s": t.self_s("roots.nearest_power_distance"),
        "roots.is_perfect_power.calls": power_tests,
        "roots.is_perfect_power.self_s": t.self_s("roots.is_perfect_power"),
        "roots.roots_per_power_test": _ratio(
            t.calls("roots.floor_kth_root", "roots.is_perfect_power"), power_tests
        ),
        "roots.floor_kth_root.calls": t.calls("roots.floor_kth_root"),
        "roots.floor_kth_root.self_s": t.self_s("roots.floor_kth_root"),
        "repulsion.near_power_events.self_s": t.self_s("repulsion.near_power_events"),
        "repulsion.events": events,
        "repulsion.event_yield": _ratio(events, sweep_calls),
        "repulsion.delta_series.calls": t.calls("repulsion.delta_series"),
        "repulsion.delta_series.self_s": t.self_s("repulsion.delta_series"),
        "repulsion.thresholds.self_s": t.self_s("repulsion.threshold_rows", "repulsion.mk_grid"),
        "repulsion.n_d.self_s": t.self_s(
            "repulsion.n_d_intervals", "repulsion.n_d_batch", "repulsion.n_d"
        ),
        "witnesses.perfect_power_scan.self_s": t.self_s("witnesses.perfect_power_scan"),
        "witnesses.coverage_scan.self_s": t.self_s(
            "witnesses.coverage_scan", "witnesses.coverage_witness"
        ),
        "witnesses.coverage_scan.values": t.calls(
            "witnesses.coverage_witness", "witnesses.coverage_scan"
        ),
        "witnesses.check_exceptional_powers.s": t.total_s("witnesses.check_exceptional_powers"),
        "witnesses.tables_built": t.spans_under(
            "partitions.build_table", "witnesses.check_exceptional_powers"
        ),
        "partitions.build_table.calls": t.calls("partitions.build_table"),
        "partitions.build_table.s": t.total_s("partitions.build_table"),
        "partitions.save_table.s": t.total_s("partitions.save_table"),
        "partitions.load_table.calls": t.calls("partitions.load_table"),
        "partitions.load_table.s": t.total_s("partitions.load_table"),
        "partitions.cache_hit_ratio": _ratio(t.calls("partitions.load_table"), acquisitions),
        "fitting.fit_log_poly.s": t.total_s("fitting.fit_log_poly"),
        "cli.import_s": t.extra.get("cli.import_s", 0.0),
        "cli.import_numpy_s": t.extra.get("cli.import_numpy_s", 0.0),
        "cli.main.self_s": t.self_s("cli.main"),
        "cli.process_s": t.extra.get("cli.process_s", 0.0),
    }
