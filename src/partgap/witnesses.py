"""Certificates that partition numbers avoid perfect powers.

Two complementary checks on p(n):

* a *coverage witness* p(n) = x^2 + q^a with q a prime below 100 not
  dividing x.  Values admitting such a decomposition can equal a
  perfect power y^k (k >= 3) only for (q, a, y, k) on a short published
  exceptional list, so a witness plus a clean sweep of that list rules
  out p(n) = y^k without factoring p(n).
* a *direct scan* that tests p(n) for perfect-power form outright.

Both are finite-range verifications over a table, not proofs about all n.

Both scans screen before they root, with table-driven screens that
never change an answer.

The witness search needs isqrt(p(n) - q^a) only when p(n) - q^a is a
square modulo 64 and modulo 45045; by the Chinese remainder theorem the
second holds exactly when it is a square modulo each of 9, 5, 7, 11 and
13.  For each prime q and each of these six moduli m, q^a mod m is
periodic in a after a short preperiod, so a per-q list indexed by
v mod m holds a bitmask over exponents: bit a is set when v - q^a is a
square mod m.  The AND of the six masks is exactly the set of a that
pass the screen, and a <= bit_length(v) // (bit_length(q) - 1) bounds
every a with q^a < v.  The search walks the surviving bits in ascending
order and stops at the first q^a >= v, so isqrt runs on the same (q, a)
pairs as a pair-by-pair screen, about 1 in 120, and the witnesses and
their order are those of the unscreened :func:`_witness_search_oracle`.
The masks are built on first use per q and lengthened (at least
doubled) when a larger v needs more exponents: about 2 ms and 0.1 MiB
for the 25 primes.

The direct scan runs column-wise over the open n, sorted by value
once.  It walks the screen plan of :mod:`partgap.roots`, the one that
:func:`partgap.roots.is_perfect_power` walks, grown to the largest
bit length: each prime exponent q, ascending, picks its candidates by
the cheaper of two paths.  While the bases y <= Y = floor(max open
value^(1/q)) are many, every open n passes q's residue screens from
the plan, one comprehension per screen.
Once ten times Y is below the number of open n, listing y^q for
y = 1..Y and bisecting the sorted values for each
(:func:`partgap.roots._power_neighbours` at d_cap 0) costs less and
yields exactly the open q-th powers; at n_max 6000 that holds from
q = 31 and at 25000 from q = 53.  Only the candidates get an exact
root; the first exact root of n is kept and a later q that roots n
again leaves it, so the smallest prime exponent wins as it does value
by value.

On a 2-core x86-64 host, ``coverage_scan(0, 3000)`` takes 0.09-0.10 s
(``BENCH_scan.json``), and ``perfect_power_scan`` over p(2..6000),
p(2..25000) and p(2..100000) 0.010-0.017, 0.09-0.13 and 0.84-0.95 s
(``BENCH_screens.json``).  With eight moduli for q = 2 the first two
take 63 and 151 exact roots (``BENCH_near.json``).
"""

from __future__ import annotations

import bisect
import collections
import math
import os
from collections.abc import Iterable, Iterator

from .partitions import (
    PartitionTable,
    build_table,
    is_partition_number,
)
from .roots import (
    PowerWitness,
    _grow_plan,
    _power_neighbours,
    _power_residues,
    floor_kth_root,
    is_perfect_power,
)

PRIMES_UNDER_100 = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

BUNDLED_LIST_NAME = "exceptional_tuples.txt"

# Listing one y^q and bisecting the open values for it takes 1.1-1.7 us,
# screening one open p(n), its share of the survivors' exact roots
# included, 0.10-0.20 us (at n_max 6000 and 25000, for q = 17..67, where
# the two paths cost about the same): about ten to one, so the scan lists
# the q whose bases number below a tenth of the open n.  The later screen
# moduli of an odd q barely move the ratio: at these q almost no value
# outlives the first two.
_LIST_COST = 10


class CoverageWitness(collections.namedtuple("CoverageWitness", "n x prime exponent")):
    """p(n) = x^2 + prime^exponent, with prime < 100 not dividing x."""

    __slots__ = ()


# Moduli of the square screen: 64 and the CRT factors of 45045.
_SQUARE_MODULI = (64, 9, 5, 7, 11, 13)
# q -> (length, one list per modulus of the exponent masks by residue),
# filled on first use and lengthened when a larger v needs more exponents
_MASKS: dict[int, tuple[int, tuple[list[int], ...]]] = {}


def _witness_masks(q: int, length: int) -> tuple[list[int], ...]:
    """Per modulus m in _SQUARE_MODULI, a list over r = v mod m of masks
    whose bit a (1 <= a <= at least ``length``) is set exactly when
    r - q^a is a square modulo m.

    q^a mod m runs through a preperiod of ``head`` residues (nonempty
    only when q divides m) and then a period; the masks of one period
    are built bit by bit and repeated by a repunit multiplication.
    """
    entry = _MASKS.get(q)
    if entry is not None and entry[0] >= length:
        return entry[1]
    # at least double, so a scan of growing values rebuilds rarely
    length = max(length, 2 * entry[0] if entry else 64)
    tables = []
    for m in _SQUARE_MODULI:
        squares = _power_residues(2, m)
        seen: dict[int, int] = {}  # q^a mod m -> a - 1, until one repeats
        p = q % m
        while p not in seen:
            seen[p] = len(seen)
            p = p * q % m
        head = seen[p]
        period = len(seen) - head
        # bit a of head_rows for a <= head, bit a - head - 1 of period_rows after
        head_rows, period_rows = [0] * m, [0] * m
        for p, j in seen.items():
            rows, bit = (head_rows, 1 << (j + 1)) if j < head else (period_rows, 1 << (j - head))
            for s in squares:
                rows[(s + p) % m] |= bit  # r - q^a = s is a square mod m
        reps = -(-(length - head) // period)
        repunit = ((1 << (period * reps)) - 1) // ((1 << period) - 1)
        tables.append([h | (c * repunit) << (head + 1) for h, c in zip(head_rows, period_rows)])
    _MASKS[q] = (length, tuple(tables))
    return tuple(tables)


def _witness_search(v: int):
    # x = 0 never qualifies (every q divides 0), so q^a stays below v.
    # q^a < v needs a <= bit_length(v) // (bit_length(q) - 1); of those
    # a, the masks keep the ones where v - q^a is a square modulo 64 and
    # modulo each of 9, 5, 7, 11, 13, i.e. modulo 45045 by the CRT
    r64, r45045 = v % 64, v % 45045
    r9, r5, r7, r11, r13 = r45045 % 9, r45045 % 5, r45045 % 7, r45045 % 11, r45045 % 13
    bits = v.bit_length()
    for q in PRIMES_UNDER_100:
        top = bits // (q.bit_length() - 1)
        t64, t9, t5, t7, t11, t13 = _witness_masks(q, top)
        mask = (
            t64[r64] & t9[r9] & t5[r5] & t7[r7] & t11[r11] & t13[r13]
            & ((2 << top) - 1)
        )
        while mask:
            low = mask & -mask
            a = low.bit_length() - 1
            power = q**a
            if power >= v:
                break
            rest = v - power
            x = math.isqrt(rest)
            if x * x == rest and x % q != 0:
                yield x, q, a
            mask ^= low


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


class CoverageStatus(collections.namedtuple("CoverageStatus", "n witness")):
    # witness is a CoverageWitness, or None when n is not covered
    __slots__ = ()

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
    not dividing x, a >= 1), ascending: the list of :func:`_missed`."""
    return list(_missed(bound))


def _missed(bound: int) -> Iterator[int]:
    """The values of :func:`missed_values`, read off the sieve one by one.

    Sieve over all (x, q^a) pairs in range, then read off the unmarked
    values.  x runs over positive integers only, since q divides 0.
    About nine in ten values are unmarked, so a reader that writes each
    one as it comes holds only the sieve, one byte per value.
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
    return (m for m in range(1, bound + 1) if not marked[m])


class ExceptionalTuple(collections.namedtuple("ExceptionalTuple", "prime exponent base power")):
    """One entry (prime, exponent, base, power) of the published finite
    list of solutions x^2 + prime^exponent = base^power with the prime
    below 100 not dividing x and power >= 3."""

    __slots__ = ()


def _validate_tuple(t: ExceptionalTuple, where: str) -> None:
    q, a, y, k = t
    if q not in PRIMES_UNDER_100:
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
    the line number on non-ASCII or malformed rows, or on tuples that
    fail the defining identity.
    """
    out: list[ExceptionalTuple] = []
    for lineno, raw in enumerate(lines, start=1):
        where = "line %d" % lineno
        if not raw.isascii():
            raise ValueError("%s: not ASCII" % where)
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
    """Read an exceptional-tuple file; an error names the file and line."""
    # a byte past ASCII decodes to a lone surrogate, which the parse
    # rejects with its line number
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        try:
            return parse_exceptional_lines(fh)
        except ValueError as e:
            raise ValueError("%s: %s" % (path, e)) from None


def bundled_exceptional_list() -> tuple[ExceptionalTuple, ...]:
    """The exceptional tuples shipped with the package (the explicitly
    published ones; a fuller list can be supplied in the same format).

    Read from ``data/`` beside this module by :func:`load_exceptional_list`,
    the reader of ``--bs-list`` files, so both share one error path.
    """
    here = os.path.dirname(__file__)
    return load_exceptional_list(os.path.join(here, "data", BUNDLED_LIST_NAME))


class PowerCheck(collections.namedtuple("PowerCheck", "candidate value lookup")):
    # the value base^power of an ExceptionalTuple, and its IndexLookup
    __slots__ = ()


class ExceptionalReport(collections.namedtuple("ExceptionalReport", "n_max checks")):
    """Outcome of testing each exceptional base^power for partition-hood:
    a tuple of PowerCheck, one per candidate, against p(0..n_max)."""

    __slots__ = ()

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
        table = PartitionTable(values=covering.values[: n + 1])
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

    The table need not be ascending: the open n (p(n) >= 2) are sorted
    by value once.  Each prime q up to the largest bit length, ascending,
    as the screen plan of :mod:`partgap.roots` lists it, drops the open
    p(n) below 2^q, which no y^q with y >= 2 reaches, and takes
    Y = floor(max open p(n)^(1/q)).  When _LIST_COST * Y is below the
    number of open n, the candidates are the open p(n) equal to some
    y^q, y <= Y, found by bisection; otherwise they are the open p(n)
    that pass q's residue screens in that plan, the ones
    :func:`partgap.roots.is_perfect_power` walks.  Both paths keep every
    open q-th power, so after the exact roots of the candidates the hits and
    witnesses are those of :func:`partgap.roots._is_perfect_power_oracle`
    value by value: the first exact root of n is kept, and a later q
    that roots n again leaves the smallest prime exponent's witness.
    """
    if n_hi is None:
        n_hi = table.n_max
    if n_lo < 0 or n_hi > table.n_max:
        raise ValueError(
            "scan range [%d, %d] outside table 0..%d" % (n_lo, n_hi, table.n_max)
        )
    vals = table.values
    found: dict[int, PowerWitness] = {}
    candidates = []
    for n in range(n_lo, n_hi + 1):
        if vals[n] < 2:
            found[n] = is_perfect_power(vals[n])  # 0^2, 1^2, or raises
        else:
            candidates.append(n)
    # the open n ascending by value, and their values for the bisection
    candidates.sort(key=vals.__getitem__)
    open_vals = [vals[n] for n in candidates]
    top = open_vals[-1].bit_length() if candidates else 0
    for q, m, residues, rest in _grow_plan(top)[1]:
        cut = bisect.bisect_left(open_vals, 1 << q)  # p(n) < 2^q is no q-th power
        del candidates[:cut], open_vals[:cut]
        if not candidates:
            break  # at the first prime q >= top, in a plan grown past it
        bases = floor_kth_root(open_vals[-1], q).root
        if _LIST_COST * bases < len(candidates):
            listed = _power_neighbours(open_vals, q, 0, 0, len(open_vals) - 1, bases)
            survivors = [candidates[i] for i in listed]
        else:
            survivors = candidates
            for m, residues in ((m, residues), *rest):
                survivors = [n for n in survivors if vals[n] % m in residues]
        for n in survivors:
            root, exact = floor_kth_root(vals[n], q)
            if exact:
                found.setdefault(n, PowerWitness(base=root, exponent=q))
    return sorted(found.items())
