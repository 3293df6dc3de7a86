"""The paper's tables as artifacts, and the one comparison with ``reference``.

An artifact has a name, its CSV header, ``compute(table)`` returning
its rows over the whole table, its frozen reference rows in the same
layout, and the layouts it prints: ``json(rows, n_max)`` is its
``--format json`` object and ``lines(rows)`` its ``--format text``
lines.  So the CLI runs every table command through one handler.
The first ``keys`` columns of a row name it and each further column is
one cell; :func:`diff` compares cells for the CLI ``--check`` mode,
``scripts/reproduce_all.py`` and the acceptance tests.  The table keeps
its record walks (``PartitionTable.walks``), so artifacts computed on
one table walk each k once; ``ks`` names the k whose walks an artifact
reads, and the CLI keeps those walks in its cache directory, so
commands run in separate processes over one cache walk each k once too.
"""

from __future__ import annotations

import csv
from typing import IO, Callable, NamedTuple, Sequence

from . import reference, repulsion
from .partitions import PartitionTable
from .roots import nearest_power_distance


class Artifact(NamedTuple):
    """One published table: its layouts, how to compute it, its reference."""

    name: str
    header: tuple[str, ...]
    keys: int  # leading columns that name a row; the rest are its cells
    compute: Callable[[PartitionTable], list[list[int]]]
    reference: tuple[tuple[int, ...], ...]
    json: Callable[[list[list[int]], int], object]  # (rows, n_max) -> --format json
    ks: tuple[int, ...] = ()  # the k whose record walks compute reads
    text: Callable[[list[list[int]]], list[str]] | None = None  # None: aligned columns
    unchecked: str = ""  # why there is no reference to check against, if there is none

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

    def lines(self, rows) -> list[str]:
        """The text layout: ``text(rows)``, or right-aligned columns."""
        if self.text is not None:
            return self.text(rows)
        grid = [self.header, *rows]
        widths = [max(len(str(c)) for c in column) for column in zip(*grid)]
        return ["  ".join(str(c).rjust(w) for c, w in zip(r, widths)) for r in grid]


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


def _m_k_d_rows(name, key, keys, d_values, ks, published, json, **layout) -> Artifact:
    """Rows [key, m_k_d for each k] at fixed d: row i is taken at
    d_values[i] and keyed keys[i]."""

    def compute(table):
        rows = repulsion.threshold_rows(table, d_values, ks)
        return [[x, *cells] for x, (_, cells) in zip(keys, rows)]

    header = (key, *("k%d" % k for k in ks))
    return Artifact(name, header, 1, compute, tuple(published), json, tuple(ks), **layout)


def _threshold_table(name: str, published: tuple) -> Artifact:
    ks, ds = reference.REFERENCE_K_VALUES, [d for d, _ in published]

    def json(rows, n_max):
        return {"n_max": n_max, "k_values": ks, "rows": [[r[0], r[1:]] for r in rows]}

    rows = [(d, *cells) for d, cells in published]
    return _m_k_d_rows(name, "d", ds, ds, ks, rows, json)


def figure_data(
    k_values: Sequence[int] = tuple(reference.FIGURE_SERIES),
    exponents: tuple[int, ...] = repulsion.DEFAULT_EXPONENTS,
) -> Artifact:
    """The series M_k(10^i) of each k over the exponents i.  It has a
    reference only when every k has a published series and the exponents
    are the published 0..70."""
    series = reference.FIGURE_SERIES
    missing = ",".join(str(k) for k in k_values if k not in series)
    if exponents != repulsion.DEFAULT_EXPONENTS:
        unchecked = "--check requires the default exponents 0..70"
    else:
        unchecked = missing and "no reference series for k=" + missing
    published = () if unchecked else zip(exponents, *(series[k] for k in k_values))

    def by_k(rows):  # k -> its series, the columns after i
        return dict(zip(k_values, list(zip(*rows))[1:]))

    def json(rows, n_max):
        return {"n_max": n_max, "d_exponents": exponents, "series": by_k(rows)}

    def text(rows):
        return [
            "k=%d: %s" % (k, " ".join(map("(%d,%d)".__mod__, zip(exponents, ms))))
            for k, ms in by_k(rows).items()
        ]

    d_values = [10**i for i in exponents]
    return _m_k_d_rows(
        "figure-data", "i", exponents, d_values, k_values, published, json,
        text=text, unchecked=unchecked,
    )


def table4(d_max: int = reference.TABLE4_INTERVALS[-1][1]) -> Artifact:
    """The runs of n_d over 0..d_max, against the reference runs clipped there."""
    if d_max < 0:
        raise ValueError("d_max must be >= 0, got %d" % d_max)

    def compute(table):
        return [list(run) for run in repulsion.n_d_intervals(table, d_max)]

    def json(rows, n_max):
        return {"n_max": n_max, "intervals": rows}

    runs = reference.TABLE4_INTERVALS
    clipped = tuple((lo, min(hi, d_max), n) for lo, hi, n in runs if lo <= d_max)
    return Artifact("table4", ("d_lo", "d_hi", "n_d"), 2, compute, clipped, json)


def _table1(table):
    samples = ((n, table.p(n)) for n, _ in reference.SAMPLE_P)
    return [[n, v, *(nearest_power_distance(v, k)[1] for k in (2, 3, 4))] for n, v in samples]


TABLE1 = Artifact(
    "table1",
    ("n", "p", "k2", "k3", "k4"),
    2,
    _table1,
    tuple((n, p, *d) for (n, p), (_, d) in zip(reference.SAMPLE_P, reference.TABLE1)),
    lambda rows, n_max: {"rows": rows, "columns": TABLE1.header},
)
TABLE2 = _threshold_table("table2", reference.TABLE2)
TABLE3 = _threshold_table("table3", reference.TABLE3)

# every artifact at its published extent, in the paper's order
REGISTRY = (TABLE1, TABLE2, TABLE3, figure_data(), table4())
