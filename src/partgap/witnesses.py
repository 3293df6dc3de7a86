"""Certificates that partition numbers avoid perfect powers.

Two complementary checks on p(n):

* a *coverage witness* p(n) = x^2 + q^a with q a prime below 100 not
  dividing x.  Values admitting such a decomposition can equal a
  perfect power y^k (k >= 3) only for (q, a, y, k) on a short published
  exceptional list, so a witness plus a clean sweep of that list rules
  out p(n) = y^k without factoring p(n).
* a *direct scan* that tests p(n) for perfect-power form outright.

Both are finite-range verifications over a table, not proofs about all n.

Both scans screen before they root.  The direct scan relies on the
residue screens of :func:`partgap.roots.is_perfect_power`.  The witness
search takes isqrt(p(n) - q^a) only when p(n) - q^a is a square modulo
64 and modulo 45045 = 9*5*7*11*13; a square is one modulo every m, so
the screen only skips decompositions that cannot exist.  About one rest
in 120 passes, and the witnesses and their order are those of the
unscreened :func:`_witness_search_oracle`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, NamedTuple

from .partitions import (
    IndexLookup,
    PartitionTable,
    build_table,
    is_partition_number,
)
from .roots import PowerWitness, _screens, is_perfect_power

PRIMES_UNDER_100 = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

BUNDLED_LIST_NAME = "exceptional_tuples.txt"


class CoverageWitness(NamedTuple):
    """p(n) = x^2 + prime^exponent, with prime < 100 not dividing x."""

    n: int
    x: int
    prime: int
    exponent: int


def _witness_search(v: int):
    # x = 0 never qualifies (every q divides 0), so q^a stays below v.
    # v - q^a gets its isqrt only if it is a square modulo both square
    # screen moduli, tracked in small ints: (v mod m - q^a mod m) mod m
    (m1, squares1), (m2, squares2) = _screens(2)
    v1, v2 = v % m1, v % m2
    for q in PRIMES_UNDER_100:
        power, a = q, 1
        p1, p2 = q, q
        while power < v:
            if (v1 - p1) % m1 in squares1 and (v2 - p2) % m2 in squares2:
                rest = v - power
                x = math.isqrt(rest)
                if x * x == rest and x % q != 0:
                    yield x, q, a
            power *= q
            a += 1
            p1 = p1 * q % m1
            p2 = p2 * q % m2


def _witness_search_oracle(v: int):
    """Reference for :func:`_witness_search`: an isqrt for every q^a, no
    screen.  Kept for cross-checks only."""
    for q in PRIMES_UNDER_100:
        power, a = q, 1
        while power <= v - 1:
            rest = v - power
            x = math.isqrt(rest)
            if x * x == rest and x % q != 0:
                yield x, q, a
            power *= q
            a += 1


def coverage_witness(table: PartitionTable, n: int) -> CoverageWitness | None:
    """First decomposition p(n) = x^2 + q^a, or None.

    Search order is prime ascending, then exponent ascending, so the
    returned witness is deterministic.
    """
    for x, q, a in _witness_search(table.p(n)):
        return CoverageWitness(n=n, x=x, prime=q, exponent=a)
    return None


class CoverageStatus(NamedTuple):
    n: int
    witness: CoverageWitness | None

    @property
    def covered(self) -> bool:
        return self.witness is not None


def coverage_scan(
    table: PartitionTable, n_lo: int, n_hi: int
) -> list[CoverageStatus]:
    """Coverage status for every n in [n_lo, n_hi] (empty if reversed)."""
    if n_lo < 0 or n_hi > table.n_max:
        raise ValueError(
            "scan range [%d, %d] outside table 0..%d" % (n_lo, n_hi, table.n_max)
        )
    return [
        CoverageStatus(n, coverage_witness(table, n))
        for n in range(n_lo, n_hi + 1)
    ]


def missed_values(bound: int) -> list[int]:
    """Integers in 1..bound with no x^2 + q^a form (q < 100 prime, q
    not dividing x, a >= 1).

    Sieve over all (x, q^a) pairs in range, then read off the unmarked
    values.  x runs over positive integers only, since q divides 0.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1, got %d" % bound)
    marked = bytearray(bound + 1)
    for q in PRIMES_UNDER_100:
        power = q
        while power <= bound - 1:
            for x in range(1, math.isqrt(bound - power) + 1):
                if x % q != 0:
                    marked[x * x + power] = 1
            power *= q
    return [m for m in range(1, bound + 1) if not marked[m]]


class ExceptionalTuple(NamedTuple):
    """One entry (prime, exponent, base, power) of the published finite
    list of solutions x^2 + prime^exponent = base^power with the prime
    below 100 not dividing x and power >= 3."""

    prime: int
    exponent: int
    base: int
    power: int


def _validate_tuple(t: ExceptionalTuple, where: str) -> None:
    q, a, y, k = t
    if q < 2 or q >= 100 or any(q % f == 0 for f in range(2, math.isqrt(q) + 1)):
        raise ValueError("%s: first field must be a prime below 100, got %d" % (where, q))
    if a < 1:
        raise ValueError("%s: exponent must be >= 1, got %d" % (where, a))
    if y < 2:
        raise ValueError("%s: base must be >= 2, got %d" % (where, y))
    if k < 3:
        raise ValueError("%s: power must be >= 3, got %d" % (where, k))
    square = y ** k - q ** a
    x = math.isqrt(square) if square >= 0 else -1
    if square < 1 or x * x != square:
        raise ValueError(
            "%s: %d^%d - %d^%d is not a positive perfect square" % (where, y, k, q, a)
        )
    if x % q == 0:
        raise ValueError("%s: %d divides the square root %d" % (where, q, x))


def parse_exceptional_lines(lines: Iterable[str]) -> tuple[ExceptionalTuple, ...]:
    """Parse whitespace-separated rows ``prime exponent base power``.

    Blank lines and ``#`` comments are skipped.  Raises ValueError with
    the line number on malformed rows or on tuples that fail the
    defining identity.
    """
    out: list[ExceptionalTuple] = []
    for lineno, raw in enumerate(lines, start=1):
        where = "line %d" % lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError("%s: expected 4 fields, got %r" % (where, raw.strip()))
        try:
            q, a, y, k = (int(s) for s in parts)
        except ValueError:
            raise ValueError("%s: non-integer field in %r" % (where, raw.strip()))
        t = ExceptionalTuple(prime=q, exponent=a, base=y, power=k)
        _validate_tuple(t, where)
        out.append(t)
    return tuple(out)


def load_exceptional_list(path: str) -> tuple[ExceptionalTuple, ...]:
    """Read an exceptional-tuple file."""
    with open(path, "r", encoding="ascii") as fh:
        return parse_exceptional_lines(fh)


def bundled_exceptional_list() -> tuple[ExceptionalTuple, ...]:
    """The exceptional tuples shipped with the package (the explicitly
    published ones; a fuller list can be supplied in the same format)."""
    text = (
        resources.files("partgap")
        .joinpath("data", BUNDLED_LIST_NAME)
        .read_text(encoding="ascii")
    )
    return parse_exceptional_lines(text.splitlines())


class PowerCheck(NamedTuple):
    candidate: ExceptionalTuple
    value: int
    lookup: IndexLookup


@dataclass(frozen=True)
class ExceptionalReport:
    """Outcome of testing each exceptional base^power for partition-hood."""

    n_max: int
    checks: tuple[PowerCheck, ...]

    @property
    def all_clear(self) -> bool:
        return all(
            c.lookup.index is None and not c.lookup.out_of_range
            for c in self.checks
        )


def _covering_table(value: int) -> PartitionTable:
    # p(n) < e^(pi sqrt(2n/3)), so p(n) >= value needs n >= 1.5 (ln value / pi)^2;
    # twice that bound is one build for all but the smallest values
    n = max(1, math.ceil(3 * (math.log(value) / math.pi) ** 2))
    while True:
        table = build_table(n)
        if table.values[n] >= value:
            return table
        n *= 2


def index_covering(value: int) -> int:
    """Smallest n with p(n) >= value (table sizing helper)."""
    if value < 1:
        return 0
    return bisect.bisect_left(_covering_table(value).values, value)


def check_exceptional_powers(
    tuples: Iterable[ExceptionalTuple],
    table: PartitionTable | None = None,
) -> ExceptionalReport:
    """Decide whether any base^power from the list is a partition number.

    With no table given, one long enough for every value is built once
    and cut to p(0..index_covering(max value)), so each check is
    conclusive.  A table that cannot decide some value is rejected with
    the n_max that would suffice, and an empty list, which would pass
    without checking anything, with a ValueError.
    """
    tuples = tuple(tuples)
    if not tuples:
        raise ValueError("no exceptional tuples to check")
    values = [t.base ** t.power for t in tuples]
    need = max(values)
    if table is None:
        covering = _covering_table(need)
        n = max(bisect.bisect_left(covering.values, need), 1)
        table = PartitionTable(values=covering.values[: n + 1], n_max=n)
    elif table.values[table.n_max] < need:
        raise ValueError(
            "table reaches p(%d) only; deciding %d needs n_max >= %d"
            % (table.n_max, need, index_covering(need))
        )
    checks = tuple(
        PowerCheck(candidate=t, value=v, lookup=is_partition_number(table, v))
        for t, v in zip(tuples, values)
    )
    return ExceptionalReport(n_max=table.n_max, checks=checks)


def perfect_power_scan(
    table: PartitionTable, n_lo: int = 2, n_hi: int | None = None
) -> list[tuple[int, PowerWitness]]:
    """All n in [n_lo, n_hi] where p(n) itself is a perfect power.

    Defaults skip n = 0, 1: p = 1 = 1^2 is a power but says nothing.
    An empty result is finite-range evidence only, not a proof.
    """
    if n_hi is None:
        n_hi = table.n_max
    if n_lo < 0 or n_hi > table.n_max:
        raise ValueError(
            "scan range [%d, %d] outside table 0..%d" % (n_lo, n_hi, table.n_max)
        )
    hits: list[tuple[int, PowerWitness]] = []
    for n in range(n_lo, n_hi + 1):
        w = is_perfect_power(table.values[n])
        if w is not None:
            hits.append((n, w))
    return hits
