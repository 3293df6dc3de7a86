"""The paper's tables as artifacts, and the one comparison with ``reference``.

An artifact has a name, its CSV header, ``compute(table)`` returning
its rows over the whole table, and its frozen reference rows in the
same layout.
The first ``keys`` columns of a row name it and each further column is
one cell; :func:`diff` compares cells for the CLI ``--check`` mode,
``scripts/reproduce_all.py`` and the acceptance tests.  The table keeps
its record walks (``PartitionTable.walks``), so artifacts computed on
one table walk each k once.
"""

from __future__ import annotations

import csv
from typing import IO, Callable, NamedTuple, Sequence

from . import reference, repulsion
from .partitions import PartitionTable
from .roots import nearest_power_distance


class Artifact(NamedTuple):
    """One published table: its layout, how to compute it, its reference."""

    name: str
    header: tuple[str, ...]
    keys: int  # leading columns that name a row; the rest are its cells
    compute: Callable[[PartitionTable], list[list[int]]]
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


def _m_k_d_rows(name: str, key: str, d_values, ks, published) -> Artifact:
    """Rows [key, m_k_d for each k] at fixed d: row i is taken at
    d_values[i] and keyed as published row i."""
    keys = [row[0] for row in published]

    def compute(table):
        rows = repulsion.threshold_rows(table, d_values, ks)
        return [[x, *cells] for x, (_, cells) in zip(keys, rows)]

    header = (key, *("k%d" % k for k in ks))
    return Artifact(name, header, 1, compute, tuple(published))


def _threshold_table(name: str, published: tuple) -> Artifact:
    rows = tuple((d, *cells) for d, cells in published)
    return _m_k_d_rows(name, "d", [d for d, _ in published], reference.REFERENCE_K_VALUES, rows)


def figure_data(k_values: Sequence[int] = tuple(reference.FIGURE_SERIES)) -> Artifact:
    """The series at d = 10^0..10^70 of those k that have a reference."""
    ks = tuple(k for k in k_values if k in reference.FIGURE_SERIES)
    if not ks:
        raise ValueError("no reference series for k in %r" % (tuple(k_values),))
    exps = repulsion.DEFAULT_EXPONENTS
    published = tuple(zip(exps, *(reference.FIGURE_SERIES[k] for k in ks)))
    return _m_k_d_rows("figure-data", "i", [10**i for i in exps], ks, published)


def table4(d_max: int = reference.TABLE4_INTERVALS[-1][1]) -> Artifact:
    """The runs of n_d over 0..d_max, against the reference runs clipped there."""

    def compute(table):
        return [list(run) for run in repulsion.n_d_intervals(table, d_max)]

    runs = reference.TABLE4_INTERVALS
    clipped = tuple((lo, min(hi, d_max), n) for lo, hi, n in runs if lo <= d_max)
    return Artifact("table4", ("d_lo", "d_hi", "n_d"), 2, compute, clipped)


def _table1(table):
    samples = ((n, table.p(n)) for n, _ in reference.SAMPLE_P)
    return [[n, v, *(nearest_power_distance(v, k)[1] for k in (2, 3, 4))] for n, v in samples]


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
