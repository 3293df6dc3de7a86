"""The paper's tables as artifacts, and the one comparison with ``reference``.

An artifact has a name, its CSV header, ``compute(table, n_max, shared)``
returning its rows, and its frozen reference rows in the same layout.
The first ``keys`` columns of a row name it and each further column is
one cell; :func:`diff` compares cells for the CLI ``--check`` mode,
``scripts/reproduce_all.py`` and the acceptance tests.

``shared`` is a :class:`Shared` when several artifacts are computed on
one table, so each sweep runs once.  With ``None`` every sweep runs
inside its library call and is dropped after it, which is what one CLI
command needs: holding all nine distance series at n_max 25000 would
raise its peak RSS from about 21 to 36 MiB.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Callable, Sequence

from . import reference, repulsion


class Shared:
    """The sweeps over one table prefix, each run at most once: a
    distance series per k and one near-power event set.  Sweeps a caller
    already holds can seed it."""

    def __init__(self, series: dict | None = None, events: repulsion.EventSet | None = None):
        self._series = dict(series or {})
        self._events = events

    def series(self, table, ks: Sequence[int], n_max: int) -> dict[int, Sequence[int]]:
        for k in ks:
            if k not in self._series:
                self._series[k] = repulsion.delta_series(table, k, n_max)
        return {k: self._series[k] for k in ks}

    def events(self, table, d_cap: int, n_max: int) -> repulsion.EventSet:
        if self._events is None:
            self._events = repulsion.near_power_events(table, d_cap, n_max)
        return self._events


@dataclass(frozen=True)
class Artifact:
    """One published table: its layout, how to compute it, its reference."""

    name: str
    header: tuple[str, ...]
    keys: int  # leading columns that name a row; the rest are its cells
    compute: Callable[..., list[list[int]]]
    reference: tuple[tuple[int, ...], ...]

    def cells(self, rows) -> dict[str, int]:
        """Rows flattened to {"<key>=<value> ... <column>": cell}."""
        out = {}
        for row in rows:
            key = " ".join("%s=%d" % kv for kv in zip(self.header, row[: self.keys]))
            for column, value in zip(self.header[self.keys :], row[self.keys :]):
                out["%s %s" % (key, column)] = value
        return out

    @property
    def want(self) -> dict[str, int]:
        """The reference cells; their number is the artifact's cell count."""
        return self.cells(self.reference)


def diff(got: dict[str, int], want: dict[str, int]) -> list[str]:
    """One line per changed, missing or extra cell; empty when reproduced."""
    lines = []
    for key, value in want.items():
        if key not in got:
            lines.append("%s missing, want %d" % (key, value))
        elif got[key] != value:
            lines.append("%s got %d want %d" % (key, got[key], value))
    lines.extend("%s extra, got %d" % kv for kv in got.items() if kv[0] not in want)
    if not lines and list(got) != list(want):
        lines.append("cells in another order than the reference")
    return lines


def write_csv(stream: IO[str], header: Sequence[str], rows) -> None:
    """The CSV layout of every table: comma, LF, header row, no quoting."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _threshold_table(name: str, published: tuple) -> Artifact:
    ks = reference.REFERENCE_K_VALUES
    d_values = tuple(d for d, _ in published)

    def compute(table, n_max, shared):
        series = shared.series(table, ks, n_max) if shared else None
        rows = repulsion.threshold_rows(table, d_values, ks, n_max, series)
        return [[d, *cells] for d, cells in rows]

    header = ("d", *("k%d" % k for k in ks))
    return Artifact(name, header, 1, compute, tuple((d, *c) for d, c in published))


def figure_data(k_values: Sequence[int] = tuple(reference.FIGURE_SERIES)) -> Artifact:
    """The series at d = 10^0..10^70 of those k that have a reference."""
    ks = tuple(k for k in k_values if k in reference.FIGURE_SERIES)
    if not ks:
        raise ValueError("no reference series for k in %r" % (tuple(k_values),))
    exps = repulsion.DEFAULT_EXPONENTS

    def compute(table, n_max, shared):
        series = shared.series(table, ks, n_max) if shared else None
        grid = repulsion.mk_grid(table, ks, exps, n_max, series)
        return figure_rows(grid)

    header = ("i", *("k%d" % k for k in ks))
    published = zip(exps, *(reference.FIGURE_SERIES[k] for k in ks))
    return Artifact("figure-data", header, 1, compute, tuple(published))


def figure_rows(grid: repulsion.MkGrid) -> list[list[int]]:
    """Rows (i, m for each k) of a grid, the layout of the figure CSV."""
    return [list(row) for row in zip(grid.d_exponents, *grid.cells)]


def table4(d_max: int = reference.TABLE4_INTERVALS[-1][1]) -> Artifact:
    """The runs of n_d over 0..d_max, against the reference runs clipped there."""

    def compute(table, n_max, shared):
        events = shared.events(table, d_max, n_max) if shared else None
        return [list(run) for run in repulsion.n_d_intervals(table, d_max, n_max, events)]

    runs = reference.TABLE4_INTERVALS
    clipped = tuple((lo, min(hi, d_max), n) for lo, hi, n in runs if lo <= d_max)
    return Artifact("table4", ("d_lo", "d_hi", "n_d"), 2, compute, clipped)


def _table1(table, n_max, shared):
    return [[r.n, r.p, *r.distances] for r in repulsion.distance_samples(table)]


TABLE1 = Artifact(
    "table1",
    ("n", "p", "k2", "k3", "k4"),
    2,
    _table1,
    tuple((n, p, *d) for (n, p), (_, d) in zip(reference.SAMPLE_P, reference.TABLE1)),
)
TABLE2 = _threshold_table("table2", reference.TABLE2)
TABLE3 = _threshold_table("table3", reference.TABLE3)

# every artifact at its published extent, in the paper's order
REGISTRY = (TABLE1, TABLE2, TABLE3, figure_data(), table4())
