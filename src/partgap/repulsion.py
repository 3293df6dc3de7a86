"""How far partition numbers stay from perfect powers.

Central quantities, all relative to a finite table p(0..n_max):

* ``m_k_d``       largest n whose p(n) lies within d of some k-th power
* ``limit_L``     largest n with p(n) - 1 <= d; every m_k_d is >= this,
                  and for k past the stabilization threshold they agree
* ``n_d``         smallest N >= 2 such that m_k_d(k, d) == limit_L(d)
                  for every k >= N

Everything is a finite-range computation over the whole table: results
are exact for its n_max and agree with the idealized (all-n) quantities
only as verified lower bounds.  A caller that wants a shorter range
passes a cut table, ``PartitionTable(table.values[:n + 1])``.  The
expensive unit of work is an exact root, and one kernel,
``_distances``, takes them all: for one k and the n it is given, it
yields the distance from p(n) to the nearest k-th power, one root
bracket per value, lazily and in the order asked.  The record walk
reads it over n = n_max..0, once per k and table.  The near-power
event sweep runs k upward.  A composite k reads it only over the events
of its largest proper divisor, since every k-th power is also a power
of each divisor of k.  A prime k takes one of two paths.  Where the
k-th powers up to p(n_max) number under a sixth of the n to test, it
reads the kernel over the few n whose p(n) lies near one of them.
Otherwise it reads the kernel over the n that ``_screened`` cannot
prove farther than the cap from every k-th power: below a cut only
the few smallest powers can be near, from there to 2^(40k) a double
screens p(n)^(1/k) against the nearest integer, and past both an
exact near test takes one root of p(n) plus the cap.  The sweep keeps
each k's events apart, ascending in n, for the divisor path and the
records.
``_near_power_events_oracle`` keeps one ``nearest_power_distance``
call per pair, so the oracle stays independent of the kernel.  The work
is paid once and shared by every table, figure, and N_d query built on
top.

``save_walk`` and ``load_walk`` keep a record walk in a file, checked
against the table when it is read back; with them the CLI walks each k
once per cache directory, not once per process.
"""

from __future__ import annotations

import bisect
import collections
import heapq
import math
from collections.abc import Iterable, Iterator, Sequence
from operator import itemgetter

from .partitions import PartitionTable, write_atomically
from .roots import _SCREEN_REL, _bracket, _power_neighbours, floor_kth_root, nearest_power_distance

DEFAULT_EXPONENTS = tuple(range(0, 71))
DEFAULT_N_MAX = 25000
_RUN_START = itemgetter(0)  # d_lo of a run (d_lo, d_hi, N)
_N_DISTANCE = itemgetter(0, 2)  # (n, distance) of an event (n, k, distance)


def _distances(values: Sequence[int], k: int, ns: Iterable[int]) -> Iterator[tuple[int, int]]:
    # (n, distance from values[n] to the nearest k-th power) for n in ns,
    # in the order given: one root bracket per value and no argument
    # checks, so callers check k >= 2 and values[n] >= 1 themselves.
    for n in ns:
        v = values[n]
        _, power, upper = _bracket(v, k)
        yield n, min(v - power, upper - v)


def _minima(pairs: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    # Over (n, distance) pairs in the order given, yield (distance, n) at
    # each new strict minimum.  Distance 0 can fall no further, so it
    # stops there.
    current = None
    for n, dist in pairs:
        if current is None or dist < current:
            current = dist
            yield dist, n
            if dist == 0:
                return


def _records(table: PartitionTable, k: int) -> Iterator[tuple[int, int]]:
    # The minima of k's distances over n = n_max..0.  The largest n with
    # distance <= d is always one of these records, so every threshold
    # query is a bisect over all of them; p(1) = 1^k ends the walk at
    # distance 0 by n = 1.
    return _minima(_distances(table.values, k, range(table.n_max, -1, -1)))


def _walk(table: PartitionTable, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # The record walk of k over the table, as (ascending distances, their
    # n), kept in table.walks[k]: walked on the first call for k only.
    walk = table.walks.get(k)
    if walk is None:
        walk = table.walks[k] = tuple(zip(*reversed(list(_records(table, k)))))
    return walk


def save_walk(table: PartitionTable, k: int, path: str) -> str:
    """Write the record walk of k over the table to ``path``, walking it
    first unless ``table.walks`` holds it, and return ``path``.

    The file is a header line ``n_max k count`` and then one line
    ``distance n`` per record, ascending: distances rise strictly from
    0, and n rise strictly up to n_max.  The lines are written one at a
    time, so no copy of the whole file is held in memory, to a temporary
    file renamed over ``path`` (``partitions.write_atomically``).
    """
    dists, ns = _walk(table, k)

    def write(fh) -> None:
        fh.write("%d %d %d\n" % (table.n_max, k, len(ns)))
        for record in zip(dists, ns):
            fh.write("%d %d\n" % record)

    write_atomically(path, write)
    return path


def _walk_ints(path: str, lineno: int, line: bytes, width: int) -> list[int]:
    # Line lineno of a walk file as exactly ``width`` integers.
    fields = line.split()
    if len(fields) == width:
        try:
            return [int(f) for f in fields]
        except ValueError:
            pass
    shown = repr(line.strip())[1:]  # as a str literal: '3 x', ''
    raise ValueError(
        "walk file %s: line %d is not %d integers: %s" % (path, lineno, width, shown)
    )


def load_walk(path: str, table: PartitionTable, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Inverse of :func:`save_walk`, checked against ``table`` before it
    is trusted; returns (ascending distances, their n) as
    ``table.walks[k]`` holds them.

    The header must name this table's n_max and this k, and its count
    must match the records that follow.  The distances must rise
    strictly from 0, the n strictly from at least 1 to n_max, and each
    distance must equal the distance from p(n) to the nearest k-th
    power (as :func:`nearest_power_distance` gives it), taken again on
    ``table`` by the walk's own kernel.  That catches any one changed
    record and a file left from another table or k.  It cannot catch a
    record deleted together with a matching edit of the count: the rest
    still passes, and answers that record would have given change.
    Raises ValueError naming the file otherwise.
    """
    with open(path, "rb") as fh:
        n_max, file_k, count = _walk_ints(path, 1, fh.readline(), 3)
        if (n_max, file_k) != (table.n_max, k):
            raise ValueError(
                "walk file %s: header says n_max=%d k=%d, want n_max=%d k=%d"
                % (path, n_max, file_k, table.n_max, k)
            )
        dists, ns = [], []
        for lineno, line in enumerate(fh, start=2):
            dist, n = _walk_ints(path, lineno, line, 2)
            dists.append(dist)
            ns.append(n)
    if count != len(ns):
        raise ValueError(
            "walk file %s: header says %d records but %d follow" % (path, count, len(ns))
        )
    if not ns or dists[0] != 0 or ns[0] < 1 or ns[-1] != n_max:
        raise ValueError(
            "walk file %s: records must run from distance 0 at n >= 1 up to n = %d"
            % (path, n_max)
        )
    for i in range(1, len(ns)):
        if dists[i] <= dists[i - 1] or ns[i] <= ns[i - 1]:
            raise ValueError(
                "walk file %s: record %d does not rise above record %d" % (path, i + 1, i)
            )
    for (n, dist), kept in zip(_distances(table.values, k, ns), dists):
        if dist != kept:
            raise ValueError(
                "walk file %s: p(%d) lies %d from the nearest k-th power for k=%d, not %d"
                % (path, n, dist, k, kept)
            )
    return tuple(dists), tuple(ns)


def m_k_d(table: PartitionTable, k: int, d: int) -> int:
    """Largest n in the table with p(n) within distance d of a k-th power.

    Always defined for d >= 0: p(1) = 1 is exactly 1^k, so the answer is
    at least 1.  One bisect over the record walk in ``table.walks[k]``,
    which the first query for k on a table, here or in
    :func:`threshold_rows`, walks over the whole table.
    """
    if d < 0:
        raise ValueError("d must be >= 0, got %d" % d)
    if k < 2:
        raise ValueError("k must be >= 2, got %d" % k)
    dists, ns = _walk(table, k)
    # the walk's last record has distance 0, so the bisect never misses
    return ns[bisect.bisect_right(dists, d) - 1]


def threshold_rows(
    table: PartitionTable,
    d_values: Sequence[int],
    k_values: Sequence[int],
) -> list[tuple[int, tuple[int, ...]]]:
    """Rows (d, (m_k_d for each k)) at arbitrary exact thresholds.

    The published grids mix a d = 0 row with powers of ten; this is the
    row-oriented builder for those layouts.  Each cell is
    :func:`m_k_d`, one bisect over the walk kept in ``table.walks[k]``,
    so every query on one table walks each k once; a cut table is
    another object and walks its own range.
    """
    if any(k < 2 for k in k_values):
        raise ValueError("every k must be >= 2")
    if any(d < 0 for d in d_values):
        raise ValueError("thresholds must be >= 0")
    return [(d, tuple(m_k_d(table, k, d) for k in k_values)) for d in d_values]


def _check_decidable(table: PartitionTable, d: int) -> None:
    # d >= 0, then d < p(n_max) - 1, where limit_L(d) is attained inside
    # the table: two comparisons, shared by limit_L and the n_d family
    if d < 0:
        raise ValueError("d must be >= 0, got %d" % d)
    if d >= table.values[table.n_max] - 1:
        raise ValueError(
            "d=%d is not below p(n_max) - 1; extend the table" % d
        )


def limit_L(table: PartitionTable, d: int) -> int:
    """Largest n with p(n) - 1 <= d.

    This is where every m_k_d series bottoms out: for n in this range,
    p(n) sits within d of the k-th power 1 for every k.  Requires
    d < p(n_max) - 1 so the maximum is attained inside the table, and
    p(1..n_max) ascending, as every built or loaded table is; one bisect
    reads it, unchecked, and a table out of order gives a wrong answer
    (:func:`near_power_events` checks, once per sweep).  The n_d family
    makes the same two checks on d, in the same order, but never takes
    the bisect: its runs already account for limit_L.
    """
    _check_decidable(table, d)
    # values[1:] is ascending and p(n) <= d + 1 iff p(n) - 1 <= d
    return bisect.bisect_right(table.values, d + 1, 1) - 1


def stabilization_threshold(table: PartitionTable) -> int:
    """Smallest K with 2^K >= 2 p(n_max), certified for the whole range:
    for every k >= K and 1 <= n <= n_max, the k-th power nearest p(n)
    is 1, so the distance is p(n) - 1 and m_k_d(k, d) equals limit_L(d)
    whenever limit_L(d) <= n_max.

    Once 2^k >= 2 p(n), the power below p(n) is 1^k and the power above
    is 2^k >= p(n) away, so the distance freezes at p(n) - 1.  The bound
    is monotone in n, hence driven by p(n_max) alone.
    """
    return (2 * table.values[table.n_max] - 1).bit_length()


class NearPowerEvent(collections.namedtuple("NearPowerEvent", "n k distance")):
    """A pair (n, k) with p(n) unusually close to a k-th power."""

    __slots__ = ()


class EventSet(collections.namedtuple("EventSet", "table d_cap events runs")):
    """All near-power events with distance <= d_cap, n in 2..n_max of
    ``table``, the one swept, and the runs of n_d they decide.  The n_d
    family takes the set for that table's values only.  Equality covers
    all four fields, the table by its values; the repr leaves the table
    out.

    Only k below the per-n freeze bound (2^k < 2 p(n)) are recorded.
    For larger k the distance equals p(n) - 1, and such a pair can never
    separate m_k_d from limit_L: p(n) - 1 <= d already forces
    n <= limit_L(d).

    ``runs`` holds the maximal runs (d_lo, d_hi, N) with n_d constant,
    ascending and covering d = 0..min(d_cap, p(n_max) - 2): past
    p(n_max) - 2, limit_L over p(0..n_max) is undecided, and at n_max 1
    that leaves no d at all, so no runs.  They are built once, from the
    records of each k's events (see :func:`_event_set`), and every n_d
    query is one bisect over their starts.  ``events`` stays complete:
    every event, records or not, in (n, k) order.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "EventSet(d_cap=%r, events=%r, runs=%r)" % (self.d_cap, self.events, self.runs)


def _event_set(
    table: PartitionTable, d_cap: int, by_k: dict[int, list[NearPowerEvent]]
) -> EventSet:
    """The EventSet of the events in ``by_k``, each k's list ascending
    in n, with its runs; ``events`` is their union in (n, k) order.

    An event (n, k, distance) applies at d exactly when distance <= d <=
    p(n) - 2, since n > limit_L(d) means p(n) - 1 > d; n_d(d) is one
    more than the largest k applying there, or 2.  Only the records of
    k need reading: the minima of its events' distances, n descending
    (:func:`_minima`, as a record walk reads them).  Any other event has
    a record at a larger n with no larger distance, and p is ascending,
    so its interval lies inside that record's.  Record j covers
    [dist_j, min(p(n_j) - 2, d_max)]; both ends fall as n does, so the
    covers of one k that touch merge in one pass.  n_d can change only
    at a cover's start or one past its end, and one sweep over those
    points, with a max-heap of the covering k, yields the runs.
    """
    values = table.values
    d_max = min(d_cap, values[table.n_max] - 2)
    covers = []  # (start, k, last), at most one per record
    for k, group in by_k.items():
        for dist, n in _minima(map(_N_DISTANCE, reversed(group))):
            last = min(values[n] - 2, d_max)
            if dist > last:
                continue
            if covers and covers[-1][1] == k and last + 1 >= covers[-1][0]:
                covers[-1] = (dist, k, covers[-1][2])  # touches k's cover above
            else:
                covers.append((dist, k, last))
    covers.sort()
    bounds = {c for start, _, last in covers for c in (start, last + 1)}
    bounds.add(0)
    cuts = sorted(c for c in bounds if c <= d_max)
    # heap of (-k, last d it applies at): the largest applying k on top
    applying: list[tuple[int, int]] = []
    out: list[tuple[int, int, int]] = []
    i = 0
    for j, lo in enumerate(cuts):
        while i < len(covers) and covers[i][0] <= lo:
            heapq.heappush(applying, (-covers[i][1], covers[i][2]))
            i += 1
        while applying and applying[0][1] < lo:
            heapq.heappop(applying)
        value = 1 - applying[0][0] if applying else 2
        upper = cuts[j + 1] - 1 if j + 1 < len(cuts) else d_max
        if out and out[-1][2] == value:
            out[-1] = (out[-1][0], upper, value)
        else:
            out.append((lo, upper, value))
    events = sorted(e for group in by_k.values() for e in group)
    return EventSet(table, d_cap, tuple(events), tuple(out))


def _near_power_events_oracle(table: PartitionTable, d_cap: int) -> EventSet:
    """Reference sweep for :func:`near_power_events`: one exact root per
    (n, k) pair below the freeze bound, about n_max * log2(p(n_max)) / 2
    of them.  Kept for cross-checks only; never feeds production paths.
    """
    if d_cap < 0:
        raise ValueError("d_cap must be >= 0, got %d" % d_cap)
    by_k: dict[int, list[NearPowerEvent]] = {}
    for n in range(2, table.n_max + 1):
        v = table.values[n]
        freeze = (2 * v - 1).bit_length()
        for k in range(2, freeze):
            dist = nearest_power_distance(v, k)[1]
            if dist <= d_cap:
                by_k.setdefault(k, []).append(NearPowerEvent(n=n, k=k, distance=dist))
    return _event_set(table, d_cap, by_k)


# The float screen.  For v = p(n) with z = v^(1/k) < 2^b, b <= 40, the
# double x = 2.0 ** (math.log2(v) / k) lies within _SCREEN_REL 2^b =
# 2^(b-46) of z, by the rounding argument beside roots._SEED_BITS.
# Second, past a cut the d_cap window in x is at most
# w = 2^-_SCREEN_WINDOW = 2^-12.  Take an integer
# y with |v - y^k| <= d_cap and z >= B, where B >= 2 and
# k (B-1)^(k-1) >= d_cap / w.  If y <= z - 1, then
# v - y^k >= z^k - (z-1)^k >= k (z-1)^(k-1) >= k (B-1)^(k-1) > d_cap
# for d_cap >= 1 (and d_cap = 0 means y = z), so y > z - 1.  By the mean
# value theorem |z - y| = |v - y^k| / (k xi^(k-1)) for some xi between
# y and z, so xi > z - 1 >= B - 1, and
# |z - y| <= d_cap / (k (B-1)^(k-1)) <= w.
#
# Hence every such n has an integer within tol = 2^(b-46) + w of x,
# and x % 1.0 lies in [0, tol] or [1 - tol, 1).  Both x % 1.0 (fmod of
# doubles) and tol and 1 - tol (sums of powers of two spanning under 53
# bits) are exact, so the test drops an n only when its distance
# provably exceeds d_cap.  Below the cut (p(n) < B^k) the window is too
# wide for the screen to pay, and _screened lists or passes those n.  The
# choice of w only trades those n against the screen's survivors: 2^-12
# brackets the fewest at n_max 3000 and 25000 with d_cap 270343.
_SCREEN_BITS = 40
_SCREEN_WINDOW = 12
# Listing one power y^k and bisecting for its window costs about as
# much as screening six p(n) (1.2 against 0.2 us at n_max 3000 and
# 25000), so the sweep lists only the k whose bases number under a
# sixth of the suffix, and screens the others it can.
_SCREEN_COST = 6


def _screen_base(k: int, d_cap: int) -> int:
    # B >= 2 with k (B-1)^(k-1) >= d_cap 2^_SCREEN_WINDOW, the smallest
    # one when d_cap >= 1: (B-1)^(k-1) must reach ceil(d_cap 2^12 / k)
    need = -(-(d_cap << _SCREEN_WINDOW) // k)
    return floor_kth_root(max(need - 1, 0), k - 1).root + 2


def _screened(
    values: Sequence[int], logs: Sequence[float], k: int, d_cap: int, lo: int, hi: int
) -> list[int]:
    """The n in lo..hi, ascending, that may lie within d_cap of a k-th
    power: a superset of those that do.  logs[n] is math.log2(values[n]).

    B = :func:`_screen_base` (k, d_cap) splits the range in three:

    * Below the cut B^k, no base y > B is within d_cap of p(n): then
      y^k - p(n) > (B+1)^k - B^k >= k (B-1)^(k-1) >= 2^12 d_cap, which
      exceeds d_cap, and is above 0 when d_cap = 0.  Listing y = 1..B
      (:func:`partgap.roots._power_neighbours`) costs less than
      bracketing the n there once B is below their number; otherwise
      every n there is a candidate.
    * From B^k to 2^(40k), the float screen above drops what it can.
    * Past both, k-th powers lie at least 2^12 d_cap apart, so few n
      pass an exact near test: a k-th power lies in
      [p(n) - d_cap, p(n) + d_cap] exactly when the floor root r of
      p(n) + d_cap has r^k >= p(n) - d_cap.  That is one root and one
      power, and no distance.
    """
    base = _screen_base(k, d_cap)
    cut = bisect.bisect_left(values, base ** k, lo, hi + 1)
    switch = bisect.bisect_left(values, 1 << (_SCREEN_BITS * k), cut, hi + 1)
    if base < cut - lo:
        candidates = list(_power_neighbours(values, k, d_cap, lo, cut - 1, base))
    else:
        candidates = list(range(lo, cut))
    # p(n)^(1/k) < 2^bits <= 2^40 for every n below the switch
    bits = -(-values[switch - 1].bit_length() // k)
    tol = _SCREEN_REL * 2.0 ** bits + 2.0 ** -_SCREEN_WINDOW
    far = 1.0 - tol
    candidates += [
        n
        for n, log in zip(range(cut, switch), logs[cut:switch])
        if not tol < 2.0 ** (log / k) % 1.0 < far
    ]
    candidates += [
        n for n in range(switch, hi + 1) if _bracket(values[n] + d_cap, k)[1] >= values[n] - d_cap
    ]
    return candidates


def near_power_events(table: PartitionTable, d_cap: int) -> EventSet:
    """One sweep over (n, k): the only expensive step of the n_d family.

    Runs per k, ascending, and needs p(1..n_max) ascending: a table
    that is not raises ValueError, found in one pass.  The n with k
    below their freeze bound are those with p(n) > 2^(k-1), a suffix of
    the table found by bisection, and the suffix shrinks as k grows.

    A composite k brackets only the events of its largest proper
    divisor a = k/p, p the smallest prime factor of k, that lie in k's
    own suffix.  Every y^k = (y^p)^a is an a-th power, so the distance
    from p(n) to the nearest a-th power is at most its distance to the
    nearest k-th power, and every event at k is an event at a, which the
    ascending sweep has already found over a suffix holding k's.

    A prime k takes one of two paths.  A p(n) within d_cap of a k-th
    power is within d_cap of some y^k with 1 <= y <= Y =
    floor((p(n_max) + d_cap)^(1/k)), and both paths give the oracle's
    events:

    * when Y is below a sixth of the suffix length, list y^k for
      y = 1..Y, bisect the suffix for p(n) within d_cap of each, and
      take exact roots of those candidates only;
    * else :func:`_screened` picks the candidates over the whole
      suffix, and only they get the exact bracket.  Below a cut B^k,
      past which k-th powers lie more than 2^12 d_cap apart, only bases
      y <= B can be near: it lists those when they are fewer than the n
      there, and passes every n there otherwise.  From B^k to 2^(40k)
      it runs the float screen.  Past both it takes an exact near test,
      one root of p(n) + d_cap and one power, and keeps the few n with
      a k-th power in [p(n) - d_cap, p(n) + d_cap].

    The screen takes L(n) = math.log2(p(n)) once per n and, per k, the
    double x = 2^(L(n)/k).  Its error, derived from the roundings of
    log2, the division and the power, is below 2^-46 relative.  Past
    the cut, every base y with y^k within d_cap of p(n) lies within
    2^-12 of p(n)^(1/k), so an n whose x is farther from every integer
    than both bounds together is provably more than d_cap from every
    k-th power and is dropped.  So no path drops a pair that could be
    an event.

    Each n takes at most one root per k, and a second only where its
    near test finds a k-th power within d_cap.  The result lists
    events in (n, k) order.  Its ``runs``, n_d at every d <= min(d_cap,
    p(n_max) - 2), come from the records of each k's events
    (:func:`_event_set`), and the n_d family reads them by bisection.
    """
    if d_cap < 0:
        raise ValueError("d_cap must be >= 0, got %d" % d_cap)
    values, hi = table.values, table.n_max
    rest = values[1:]
    if sorted(rest) != list(rest):  # one pass over sorted input
        n = next(n for n in range(2, hi + 1) if values[n] < values[n - 1])
        raise ValueError(
            "the sweep needs p(1..n_max) ascending, but p(%d) < p(%d)" % (n, n - 1)
        )
    top = values[hi]
    by_k: dict[int, list[NearPowerEvent]] = {}  # k -> its events, ascending in n
    logs = [math.log2(v) for v in values[: hi + 1]]
    for k in range(2, stabilization_threshold(table)):
        # k < freeze bound (2 p(n) - 1).bit_length()  <=>  p(n) > 2^(k-1)
        first = bisect.bisect_right(values, 1 << (k - 1), 2, hi + 1)
        # k's largest proper divisor, k over its smallest prime factor
        a = next((k // p for p in range(2, math.isqrt(k) + 1) if k % p == 0), 1)
        if a > 1:
            candidates = [e.n for e in by_k[a] if e.n >= first]
        else:
            bases = floor_kth_root(top + d_cap, k).root
            suffix = hi + 1 - first
            if _SCREEN_COST * bases < suffix:
                candidates = _power_neighbours(values, k, d_cap, first, hi, bases)
            else:
                candidates = _screened(values, logs, k, d_cap, first, hi)
        pairs = _distances(values, k, candidates)
        by_k[k] = [NearPowerEvent(n, k, dist) for n, dist in pairs if dist <= d_cap]
    return _event_set(table, d_cap, by_k)


def _require_events(table: PartitionTable, d: int, events: EventSet | None) -> EventSet:
    # Every check runs before the sweep, so input the table cannot
    # decide costs no sweep: d, then the table edge, then a given set's
    # cap and the table it was swept on: this table object, checked in
    # O(1) per query, or else one with equal values.
    _check_decidable(table, d)
    if events is None:
        return near_power_events(table, d)
    if events.d_cap < d:
        raise ValueError(
            "event set capped at d=%d, need %d" % (events.d_cap, d)
        )
    if events.table is not table and events.table.values != table.values:
        raise ValueError(
            "event set was swept on other values than this table's p(0..%d)"
            % table.n_max
        )
    return events


def _n_d_from_events(table: PartitionTable, d: int, events: EventSet) -> int:
    """n_d(d) by a scan over every event: the plain definition that the
    runs in :class:`EventSet` are tested against.  Kept for cross-checks
    only; never feeds production paths.
    """
    limit = limit_L(table, d)
    worst = 1
    for ev in events.events:
        if ev.n > limit and ev.distance <= d and ev.k > worst:
            worst = ev.k
    return worst + 1


def _n_d_at(runs: Sequence[tuple[int, int, int]], d: int) -> int:
    # the N of the last run starting at or below d
    return runs[bisect.bisect_right(runs, d, key=_RUN_START) - 1][2]


def n_d(
    table: PartitionTable,
    d: int,
    events: EventSet | None = None,
) -> int:
    """Smallest N >= 2 with m_k_d(k, d) == limit_L(d) for every k >= N.

    m_k_d(k, d) >= limit_L(d) for every k, since each n <= limit_L(d)
    has distance at most p(n) - 1 <= d from 1^k.  Equality fails only
    when some n > limit_L(d) has a k-th power within d, and those pairs
    are exactly the recorded events; so N is one more than the largest
    event k at this d, or 2 when no event applies.  k at or above the
    freeze bound needs no check (see EventSet), which is what makes the
    quantity finitely computable.  Given a set, a query costs two
    comparisons on d, the set's cap and table checks, and one bisect of
    d over the starts of the event set's ``runs``, which cover d <=
    p(n_max) - 2; limit_L is never taken.  Raises ValueError for d < 0
    and for d >= p(n_max) - 1, where limit_L over p(0..n_max) is
    undecided, before any sweep.
    """
    return _n_d_at(_require_events(table, d, events).runs, d)


def n_d_batch(
    table: PartitionTable,
    d_values: Sequence[int],
    events: EventSet | None = None,
) -> dict[int, int]:
    """n_d at many thresholds off a single event sweep."""
    if len(d_values) == 0:
        return {}
    if min(d_values) < 0:
        raise ValueError("d must be >= 0, got %d" % min(d_values))
    runs = _require_events(table, max(d_values), events).runs
    return {d: _n_d_at(runs, d) for d in d_values}


def n_d_intervals(
    table: PartitionTable,
    d_max: int,
    events: EventSet | None = None,
) -> list[tuple[int, int, int]]:
    """Maximal runs (d_lo, d_hi, N) with n_d constant, covering 0..d_max.

    These are the event set's ``runs`` (see :class:`EventSet`) cut at
    d_max.  Like n_d, raises ValueError once d_max reaches p(n_max) - 1,
    where the table no longer decides limit_L, and does so before any
    sweep.
    """
    if d_max < 0:
        raise ValueError("d_max must be >= 0, got %d" % d_max)
    runs = _require_events(table, d_max, events).runs
    return [(lo, min(hi, d_max), value) for lo, hi, value in runs if lo <= d_max]
