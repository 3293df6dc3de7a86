"""The paper's tables as artifacts, and the one comparison with ``reference``.

An artifact has a name, its CSV header, ``compute(table, shared)``
returning its rows over the whole table, and its frozen reference rows
in the same layout.
The first ``keys`` columns of a row name it and each further column is
one cell; :func:`diff` compares cells for the CLI ``--check`` mode,
``scripts/reproduce_all.py`` and the acceptance tests.

``shared`` is a :class:`Shared`, one per table: it keeps the record
walk of each k, so artifacts computed on one table walk each k once.
A CLI command passes a fresh one, ``scripts/reproduce_all.py`` one for
every artifact and its refit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Callable, Sequence

from . import reference, repulsion
from .roots import nearest_power_distance


class Shared:
    """What the artifacts computed on one table share: ``walks``, the
    record walk of each k as :func:`repulsion.threshold_rows` keeps it
    under (k, table.n_max), and ``events``, a near-power event set for
    ``table4``, its only reader.  Left ``None``, ``table4`` sweeps the
    events itself, after its input checks."""

    def __init__(self, events: repulsion.EventSet | None = None):
        self.walks: dict = {}
        self.events = events


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

    def compute(table, shared):
        rows = repulsion.threshold_rows(table, d_values, ks, shared.walks)
        return [[d, *cells] for d, cells in rows]

    header = ("d", *("k%d" % k for k in ks))
    return Artifact(name, header, 1, compute, tuple((d, *c) for d, c in published))


def figure_data(k_values: Sequence[int] = tuple(reference.FIGURE_SERIES)) -> Artifact:
    """The series at d = 10^0..10^70 of those k that have a reference."""
    ks = tuple(k for k in k_values if k in reference.FIGURE_SERIES)
    if not ks:
        raise ValueError("no reference series for k in %r" % (tuple(k_values),))
    exps = repulsion.DEFAULT_EXPONENTS
    d_values = [10**i for i in exps]

    def compute(table, shared):
        rows = repulsion.threshold_rows(table, d_values, ks, shared.walks)
        return [[i, *cells] for i, (_, cells) in zip(exps, rows)]

    header = ("i", *("k%d" % k for k in ks))
    published = zip(exps, *(reference.FIGURE_SERIES[k] for k in ks))
    return Artifact("figure-data", header, 1, compute, tuple(published))


def table4(d_max: int = reference.TABLE4_INTERVALS[-1][1]) -> Artifact:
    """The runs of n_d over 0..d_max, against the reference runs clipped there."""

    def compute(table, shared):
        runs = repulsion.n_d_intervals(table, d_max, shared.events)
        return [list(run) for run in runs]

    runs = reference.TABLE4_INTERVALS
    clipped = tuple((lo, min(hi, d_max), n) for lo, hi, n in runs if lo <= d_max)
    return Artifact("table4", ("d_lo", "d_hi", "n_d"), 2, compute, clipped)


def _table1(table, shared):
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
