"""Exact integer partition counts and derived quantities.

The central object is :class:`PartitionTable`, an immutable cache of
p(0), ..., p(n_max) built with Euler's pentagonal-number recurrence.
Everything downstream (gap counts, power distances, scan routines)
reads from such a table instead of recomputing values.

A much slower but structurally independent counting routine,
:func:`count_partitions_oracle`, is kept for cross-checking the
recurrence; it never feeds production paths.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
import operator
import os
from collections.abc import Callable
from io import TextIOBase

# Hard ceiling on table length.  The recurrence itself is fine well past
# this, but the value cache for n_max ~ 5M would need several GB; reject
# early instead of thrashing.
MAX_TABLE_SIZE = 5_000_000


class PartitionTable:
    """Values p(0..n_max) as exact integers; the values are the table.

    Built as ``PartitionTable(values)``.  Immutable: assigning or
    deleting an attribute raises AttributeError; to cover a larger
    range, build a new table, and to cover a shorter one pass a cut,
    ``PartitionTable(table.values[:n + 1])``.  ``values`` is a tuple so
    a table can be shared across threads and hashed fixtures without
    defensive copies, and it holds p(0) at least.  ``n_max`` is
    ``len(values) - 1``, derived once.  ``walks`` is a memo that the
    :mod:`repulsion` threshold queries fill, k -> (ascending distances,
    their n) of the record walk over this table.  It lives as long as
    the table; the CLI keeps walks across processes in its cache
    directory (``repulsion.save_walk`` and ``load_walk``) and fills the
    memo from there.  Equality, hash and repr go by ``values`` alone.
    """

    __slots__ = ("values", "n_max", "walks")

    def __init__(self, values: tuple[int, ...]) -> None:
        if not values:
            raise ValueError("a table holds p(0) at least; values is empty")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n_max", len(values) - 1)
        object.__setattr__(self, "walks", {})

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError("PartitionTable is immutable; %r is read-only" % name)

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return "PartitionTable(values=%r)" % (self.values,)

    def p(self, n: int) -> int:
        """p(n), the number of partitions of n.  Raises on out-of-range n."""
        if n < 0 or n > self.n_max:
            raise ValueError("n=%d outside table range 0..%d" % (n, self.n_max))
        return self.values[n]


def _pentagonal_offsets(n_max: int) -> list[tuple[int, int]]:
    # Generalized pentagonal numbers g = j(3j-1)/2 and j(3j+1)/2 with the
    # shared sign (-1)^(j+1), ascending, capped at n_max.
    offsets: list[tuple[int, int]] = []
    j = 1
    while j * (3 * j - 1) // 2 <= n_max:
        sign = 1 if j % 2 == 1 else -1
        offsets.append((j * (3 * j - 1) // 2, sign))
        if j * (3 * j + 1) // 2 <= n_max:
            offsets.append((j * (3 * j + 1) // 2, sign))
        j += 1
    return offsets


def build_table(n_max: int) -> PartitionTable:
    """Build the exact table p(0..n_max) by the pentagonal recurrence.

    p(n) = sum_j (-1)^(j+1) * [p(n - j(3j-1)/2) + p(n - j(3j+1)/2)],
    one forward pass, O(n^1.5) index operations on exact integers.

    The sums run in C.  ``vals`` holds p(0..n-1) when p(n) is due, so
    p(n - g) is ``vals[-g]``: the offsets g <= n of each sign, negated,
    make one ``operator.itemgetter`` per sign, and p(n) is the sum of
    the positive getter's items minus the negative one's.  The getters
    change only where n reaches the next generalized pentagonal number,
    about 2 * sqrt(2n/3) times in all.  Each starts with index 0 twice,
    so it returns a tuple even with one or no offset (a one-index
    itemgetter returns the bare item), and the padding p(0) cancels in
    the difference.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0, got %d" % n_max)
    if n_max > MAX_TABLE_SIZE:
        raise ValueError(
            "n_max=%d exceeds MAX_TABLE_SIZE=%d; the value cache would not fit"
            % (n_max, MAX_TABLE_SIZE)
        )
    offsets = _pentagonal_offsets(n_max)
    vals = [1]
    append = vals.append
    pos = [0, 0]
    neg = [0, 0]
    stops = [g for g, _ in offsets[1:]]
    stops.append(n_max + 1)
    for (g, sign), stop in zip(offsets, stops):
        (pos if sign > 0 else neg).append(-g)
        get_pos = operator.itemgetter(*pos)
        get_neg = operator.itemgetter(*neg)
        for _ in range(g, stop):
            append(sum(get_pos(vals)) - sum(get_neg(vals)))
    return PartitionTable(values=tuple(vals))


def count_partitions_oracle(n: int, smallest_part: int = 1) -> int:
    """Count partitions of n with all parts >= smallest_part, by direct DP.

    Independent of the pentagonal recurrence: iterates over part sizes and
    accumulates coin-problem style.  Quadratic, meant for cross-checks on
    small n only (hundreds, not tens of thousands).
    """
    if n < 0:
        raise ValueError("n must be >= 0, got %d" % n)
    if smallest_part < 1:
        raise ValueError("smallest_part must be >= 1, got %d" % smallest_part)
    ways = [0] * (n + 1)
    ways[0] = 1
    for part in range(smallest_part, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def p1(table: PartitionTable, n: int) -> int:
    """Number of partitions of n with no part equal to 1.

    Equals p(n) - p(n-1) for n >= 1 (strip a 1 from any partition that
    has one), and 1 at n = 0 for the empty partition.
    """
    value = table.p(n)
    if n == 0:
        return 1
    return value - table.values[n - 1]


def psi(table: PartitionTable, n: int) -> int:
    """Running total sum_{j=1..n} p1(j), the count of non-empty
    partitions of size <= n with no part equal to 1.

    Telescopes to p(n) - 1, which is what makes the gap analysis between
    consecutive partition numbers tractable; tests pin the identity
    against an explicit sum.  Defined for n >= 1.
    """
    if n < 1 or n > table.n_max:
        raise ValueError("n=%d outside range 1..%d" % (n, table.n_max))
    return table.values[n] - 1


def log_hardy_ramanujan(n: int) -> float:
    """Natural log of :func:`hardy_ramanujan_estimate`, finite for every
    n >= 1, so p(n) / estimate stays computable past float range."""
    return math.pi * math.sqrt(2.0 * n / 3.0) - math.log(4.0 * n * math.sqrt(3.0))


def hardy_ramanujan_estimate(n: int) -> float:
    """First-order asymptotic e^(pi*sqrt(2n/3)) / (4n*sqrt(3)) for p(n).

    Evaluated in log space (:func:`log_hardy_ramanujan`) so the ratio
    check stays meaningful for n in the tens of thousands; returns
    math.inf once the value leaves float range.  Defined for n >= 1.
    """
    if n < 1:
        raise ValueError("estimate needs n >= 1, got %d" % n)
    log_value = log_hardy_ramanujan(n)
    if log_value >= 709.0:  # just under log(float_max)
        return math.inf
    return math.exp(log_value)


class IndexLookup(collections.namedtuple("IndexLookup", "index out_of_range")):
    """Result of a membership probe against the partition sequence.

    ``index`` is the n with p(n) == v, or None if v is not a partition
    number within the table.  ``out_of_range`` flags probes where
    v > p(n_max), i.e. the table cannot decide membership either way.
    """

    __slots__ = ()


def is_partition_number(table: PartitionTable, v: int) -> IndexLookup:
    """Binary-search v in the table (strictly increasing for n >= 1).

    Returns the smallest n >= 1 with p(n) == v; p(0) = p(1) = 1, so a
    probe for 1 reports index 1.  Values above p(n_max) come back
    (None, True) rather than a hard error so scan loops can decide how
    to degrade.  A table of p(0) alone (n_max 0) holds no n >= 1, so it
    cannot decide any v >= 1 either: (None, True).
    """
    if v < 1:
        return IndexLookup(index=None, out_of_range=False)
    vals = table.values
    if v > vals[table.n_max] or table.n_max < 1:
        return IndexLookup(index=None, out_of_range=True)
    n = bisect.bisect_left(vals, v, 1, table.n_max + 1)
    if vals[n] == v:
        return IndexLookup(index=n, out_of_range=False)
    return IndexLookup(index=None, out_of_range=False)


def dump_values(table: PartitionTable, stream: TextIOBase) -> None:
    """Write p(0..n_max) as newline-delimited decimal integers."""
    stream.writelines(map("%d\n".__mod__, table.values))


def write_atomically(path: str, write: Callable[[TextIOBase], None]) -> None:
    """Call ``write(stream)`` on a temporary file in the directory of
    ``path``, then rename that file over ``path``.  An interrupted or
    failed write removes the temporary file, so no truncated file is
    ever left under the final name.
    """
    import tempfile  # only saving needs it; keeps it out of start-up

    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix="." + name + ".", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_table(table: PartitionTable, path: str) -> None:
    """Persist a table: first line n_max, then one value per line,
    written atomically (:func:`write_atomically`)."""

    def write(fh: TextIOBase) -> None:
        fh.write("%d\n" % table.n_max)
        dump_values(table, fh)

    write_atomically(path, write)


def cache_int(path: str, lineno: int, line: bytes) -> int:
    """Line ``lineno`` of the saved table at ``path`` as an int; the
    ValueError for anything else names the file and the line."""
    try:
        return int(line)
    except ValueError:
        shown = repr(line.strip())[1:]  # as a str literal: 'abc', '2\xff', ''
        raise ValueError(
            "cache file %s: line %d is not an integer: %s" % (path, lineno, shown)
        ) from None


def load_table(path: str, n_max: int | None = None) -> PartitionTable:
    """Inverse of save_table, validated before it is trusted.

    The header and each value read must be an integer (see
    :func:`cache_int`), and the value count must match the header.  Only
    p(0..n_max) is parsed and returned (the whole file when n_max is
    None), and only that part is checked: p(0..min(n_max, 64)) must
    equal a fresh build, p(1..n_max) must be strictly increasing, and
    every value must satisfy Ramanujan's congruences p(5n+4) = 0
    (mod 5), p(7n+5) = 0 (mod 7) and p(11n+6) = 0 (mod 11).  Raises
    ValueError otherwise.
    """
    with open(path, "rb") as fh:
        size = cache_int(path, 1, fh.readline())
        hi = size if n_max is None else n_max
        if not 0 <= hi <= size:
            raise ValueError("cache file %s: n_max=%d outside 0..%d" % (path, hi, size))
        lines = (line for line in fh if line.strip())
        try:
            vals = tuple(map(int, itertools.islice(lines, hi + 1)))
        except ValueError:  # a second pass names the line
            fh.seek(0)
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    cache_int(path, lineno, line)
            raise
        count = len(vals) + sum(1 for _ in lines)  # the rest, counted unparsed
    if count != size + 1:
        raise ValueError(
            "cache file %s: header says n_max=%d but %d values follow"
            % (path, size, count)
        )
    head = min(hi, 64)
    if vals[: head + 1] != build_table(head).values:
        raise ValueError(
            "cache file %s: p(0..%d) differ from the recurrence" % (path, head)
        )
    if not all(map(operator.lt, vals[1:hi], vals[2:])):
        n = next(n for n in range(2, hi + 1) if vals[n] <= vals[n - 1])
        raise ValueError(
            "cache file %s: p(%d) is not above p(%d), as p(n) must be for n >= 2"
            % (path, n, n - 1)
        )
    for modulus, offset in ((5, 4), (7, 5), (11, 6)):
        for n in range(offset, hi + 1, modulus):
            if vals[n] % modulus:
                raise ValueError(
                    "cache file %s: p(%d) is not divisible by %d, as p(%dn+%d) must be"
                    % (path, n, modulus, modulus, offset)
                )
    return PartitionTable(values=vals)
