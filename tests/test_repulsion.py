import bisect
import collections
import fractions
import functools
import math
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partgap.repulsion
from partgap.artifacts import TABLE1
from partgap.partitions import PartitionTable, build_table, p1
from partgap.repulsion import (
    _SCREEN_REL,
    _distances,
    _event_set,
    _n_d_from_events,
    _near_power_events_oracle,
    _screen_base,
    limit_L,
    load_walk,
    m_k_d,
    n_d,
    n_d_batch,
    n_d_intervals,
    near_power_events,
    save_walk,
    stabilization_threshold,
    threshold_rows,
)
from partgap.roots import (
    _power_neighbours,
    floor_kth_root,
    nearest_power_distance,
)

D_SAMPLES = (0, 1, 2, 5, 6, 7, 21, 22, 100, 950)


def cut(table, n_max):
    # p(0..n_max) of a longer table: how a caller asks about a shorter range
    return PartitionTable(values=table.values[: n_max + 1])


def pointwise_distances(table, k):
    # one nearest_power_distance per n, independent of the sweep kernel
    return [nearest_power_distance(v, k)[1] for v in table.values]


def brute_m_k_d(series, d):
    best = None
    for n, dist in enumerate(series):
        if dist <= d:
            best = n
    return best


def test_m_k_d_matches_brute_force(table_small):
    for k in (2, 3, 50):
        series = pointwise_distances(table_small, k)
        for d in (0, 1, 2, 5, 10, 100, 10**6, 10**40):
            assert m_k_d(table_small, k, d) == brute_m_k_d(series, d)


def test_m_k_d_witness_and_exclusion(table_small):
    for k in (2, 3, 4):
        series = pointwise_distances(table_small, k)
        for d in (0, 3, 17, 2000):
            m = m_k_d(table_small, k, d)
            assert series[m] <= d
            assert all(series[n] > d for n in range(m + 1, 121))


def test_m_k_d_monotone_in_d(table_small):
    prev = 0
    for d in (0, 1, 2, 3, 10, 50, 1000, 10**8):
        m = m_k_d(table_small, 2, d)
        assert m >= prev
        prev = m


def test_m_k_d_floor_is_one(table_small):
    # p(0) = p(1) = 1 is every k-th power, so n = 1 qualifies at d = 0
    for k in (2, 3, 11, 200):
        assert m_k_d(table_small, k, 0) >= 1


def test_grid_cells_monotone_and_consistent(table_small):
    ks = (2, 3, 50)
    rows = threshold_rows(table_small, [10**i for i in range(0, 9)], ks)
    assert [d for d, _ in rows] == [10**i for i in range(0, 9)]
    for j, k in enumerate(ks):
        series = [cells[j] for _, cells in rows]
        assert series == sorted(series)
        for (d, _), m in zip(rows, series):
            assert m == m_k_d(table_small, k, d)


def test_threshold_rows_shape(table_small):
    rows = threshold_rows(table_small, (0, 1, 6), (2, 3))
    assert [d for d, _ in rows] == [0, 1, 6]
    for d, cells in rows:
        assert cells == tuple(m_k_d(table_small, k, d) for k in (2, 3))


def test_grid_rejects_bad_args(table_small):
    # the grid builder takes k >= 2 and d >= 0 only; duplicate k and
    # negative d exponents are refused where the CLI parses them
    with pytest.raises(ValueError, match="every k must be >= 2"):
        threshold_rows(table_small, (0,), (2, 1))
    with pytest.raises(ValueError, match="every k must be >= 2"):
        threshold_rows(table_small, (0, 1), (1,))
    with pytest.raises(ValueError, match="thresholds must be >= 0"):
        threshold_rows(table_small, (0, -1), (2,))
    with pytest.raises(ValueError, match="thresholds must be >= 0"):
        threshold_rows(table_small, (-(10**40),), (2, 3))


def test_limit_values(table_small):
    # L(d) for small d: 1, 2, then runs of length p(n+1) - p(n)
    assert limit_L(table_small, 0) == 1
    assert limit_L(table_small, 1) == 2
    for d in (2, 3):
        assert limit_L(table_small, d) == 3
    for d in (4, 5):
        assert limit_L(table_small, d) == 4
    for d in range(6, 10):
        assert limit_L(table_small, d) == 5


def test_limit_run_lengths_follow_p1(table_small):
    # the run of d values with L(d) = n has length p(n+1) - p(n) = p1(n+1)
    runs = {}
    for d in range(0, table_small.p(51) - 1):
        n = limit_L(table_small, d)
        if n > 50:
            break
        runs[n] = runs.get(n, 0) + 1
    for n in range(2, 51):
        assert runs[n] == p1(table_small, n + 1)


def test_limit_domain(table_small):
    # largest decidable d is p(n_max) - 2: answer 119, one below the top
    top = table_small.p(120) - 1
    assert limit_L(table_small, top - 1) == 119
    assert limit_L(table_small, table_small.p(119) - 1) == 119
    assert limit_L(table_small, table_small.p(119) - 2) == 118
    with pytest.raises(ValueError):
        limit_L(table_small, top)
    with pytest.raises(ValueError):
        limit_L(table_small, -1)


def test_stabilization_guarantee(table_small):
    k_threshold = stabilization_threshold(cut(table_small, 60))
    for k in (k_threshold, k_threshold + 1, k_threshold + 9):
        for n in range(0, 61):
            assert nearest_power_distance(table_small.p(n), k)[1] == table_small.p(n) - 1


def test_events_complete_and_sound(table_small):
    events = near_power_events(cut(table_small, 90), 1000)
    k_threshold = stabilization_threshold(cut(table_small, 90))
    seen = {(e.n, e.k): e.distance for e in events.events}
    for n in range(2, 91):
        for k in range(2, k_threshold + 1):
            d = nearest_power_distance(table_small.p(n), k)[1]
            if d <= 1000 and d < table_small.p(n) - 1:
                assert seen[(n, k)] == d
    for e in events.events:
        assert 2 <= e.n <= 90
        assert e.distance <= 1000
        assert nearest_power_distance(table_small.p(e.n), e.k)[1] == e.distance


def test_event_set_repr_leaves_the_table_out(table_small):
    events = near_power_events(table_small, 10)
    text = repr(events)
    assert text.startswith("EventSet(d_cap=10, events=(NearPowerEvent(")
    assert "PartitionTable" not in text and str(table_small.values[-1]) not in text
    # equality covers the table, by its values
    assert events == near_power_events(PartitionTable(table_small.values), 10)
    assert events != events._replace(table=cut(table_small, 100))


cached_table = functools.lru_cache(maxsize=None)(build_table)


def test_distances_match_pointwise():
    # the sweep kernel against one nearest_power_distance per pair, over
    # each kind of n its callers pass: a range up, a range down, and the
    # n near the powers y^k, y <= 40, within 10^4
    values = cached_table(600).values
    for k in (2, 3, 4, 7, 12, 13, 20, 50, 64):
        neighbours = list(_power_neighbours(values, k, 10**4, 2, 600, 40))
        assert neighbours
        for ns in (range(601), range(600, -1, -1), neighbours):
            assert list(_distances(values, k, ns)) == [
                (n, nearest_power_distance(values[n], k)[1]) for n in ns
            ]


thresholds = st.lists(
    st.integers(min_value=0, max_value=10**4)
    | st.integers(min_value=0, max_value=40).map(lambda i: 10**i),
    min_size=1,
    max_size=8,
)


@given(
    st.integers(min_value=1, max_value=600),
    st.integers(min_value=1, max_value=600),
    st.lists(st.integers(min_value=2, max_value=70), min_size=1, max_size=4, unique=True),
    thresholds,
    thresholds,
)
@settings(max_examples=40, deadline=None)
def test_threshold_rows_from_table_walks(size, other, ks, d_first, d_second):
    # two d sets and two k orders on one cut, then a second cut: each
    # answer equals a fresh table's and max{n : distance <= d} by brute
    # force, and each cut keeps the walk of every k asked of it
    table = cached_table(600)
    tables = {n_max: cut(table, n_max) for n_max in (size, other)}
    for n_max, k_values, d_values in (
        (size, ks, d_first),
        (size, ks[::-1], d_second),
        (other, ks, d_first),
    ):
        rows = threshold_rows(tables[n_max], d_values, k_values)
        assert rows == threshold_rows(cut(table, n_max), d_values, k_values)
        for j, k in enumerate(k_values):
            dists = [nearest_power_distance(table.p(n), k)[1] for n in range(n_max + 1)]
            for d, cells in rows:
                assert cells[j] == max(n for n, dist in enumerate(dists) if dist <= d)
    assert all(set(t.walks) == set(ks) for t in tables.values())


def test_threshold_rows_walks_belong_to_their_table():
    # a table of the same n_max with other values is answered from its
    # own walk: p(290) = 17^20 puts a 20th power at the top of the fake
    real = build_table(290)
    fake = PartitionTable(real.values[:290] + (17**20,))
    assert threshold_rows(real, (0,), (20,)) == [(0, (1,))]
    assert threshold_rows(fake, (0,), (20,)) == [(0, (290,))]
    assert threshold_rows(real, (0,), (20,)) == [(0, (1,))]


def test_threshold_rows_walks_each_k_once_per_table(monkeypatch):
    table = build_table(300)
    want = m_k_d(cut(table, 200), 2, 10**6)
    calls = collections.Counter()
    real = partgap.repulsion._records

    def counted(table, k):
        calls[table.n_max, k] += 1
        return real(table, k)

    monkeypatch.setattr(partgap.repulsion, "_records", counted)
    first = threshold_rows(table, (0, 10**6), (2, 3))
    assert calls == {(300, 2): 1, (300, 3): 1}
    again = threshold_rows(table, (0, 10**6), (3, 2))
    assert calls == {(300, 2): 1, (300, 3): 1}
    assert [cells[::-1] for _, cells in again] == [cells for _, cells in first]
    # a cut is a new table: it walks its own range, the original is untouched
    short = cut(table, 200)
    assert threshold_rows(short, (10**6,), (2,)) == [(10**6, (want,))]
    assert calls == {(300, 2): 1, (300, 3): 1, (200, 2): 1}
    assert set(short.walks) == {2}
    assert set(table.walks) == {2, 3}


def test_m_k_d_and_threshold_rows_share_one_walk(monkeypatch):
    table = build_table(300)
    calls = collections.Counter()
    real = partgap.repulsion._records

    def counted(table, k):
        calls[table.n_max, k] += 1
        return real(table, k)

    monkeypatch.setattr(partgap.repulsion, "_records", counted)
    singles = [m_k_d(table, k, d) for k in (2, 3) for d in (0, 10**6)]
    assert calls == {(300, 2): 1, (300, 3): 1}
    rows = threshold_rows(table, (0, 10**6), (2, 3))
    assert calls == {(300, 2): 1, (300, 3): 1}
    assert [cells[j] for j in (0, 1) for _, cells in rows] == singles


@given(
    st.integers(min_value=1, max_value=600),
    st.sampled_from((*range(2, 13), 50, 100)),
)
@settings(max_examples=80, deadline=None)
def test_saved_walk_loads_as_a_fresh_walk(n_max, k):
    values = cached_table(600).values[: n_max + 1]
    fresh = tuple(zip(*reversed(list(partgap.repulsion._records(PartitionTable(values), k)))))
    with tempfile.TemporaryDirectory() as tmp:
        path = save_walk(PartitionTable(values), k, os.path.join(tmp, "walk.txt"))
        assert load_walk(path, PartitionTable(values), k) == fresh


@pytest.mark.parametrize("n_max", [0, 1])
@pytest.mark.parametrize("k", [2, 3, 50])
def test_walk_round_trip_on_the_shortest_tables(tmp_path, n_max, k):
    # p(0) = 1 = 1^k ends the walk at n = 0 when the table holds no p(1)
    table = PartitionTable(cached_table(1).values[: n_max + 1])
    path = save_walk(table, k, str(tmp_path / "walk.txt"))
    assert open(path).read() == "%d %d 1\n0 %d\n" % (n_max, k, n_max)
    assert load_walk(path, PartitionTable(table.values), k) == ((0,), (n_max,))
    assert m_k_d(table, k, 0) == n_max


@st.composite
def sweep_cases(draw):
    size = draw(st.integers(min_value=1, max_value=600))
    n_max = draw(st.none() | st.integers(min_value=1, max_value=size))
    top = cached_table(size).p(size if n_max is None else n_max)
    d_cap = draw(
        st.just(0)
        | st.integers(min_value=1, max_value=10**6)
        | st.integers(min_value=top, max_value=2 * top)
    )
    return size, n_max, d_cap


@given(sweep_cases())
@settings(max_examples=60, deadline=None)
def test_events_match_oracle(case):
    # small k take per-pair roots and large k enumerate powers at any
    # d_cap; d_cap >= p(n_max) makes the power windows overlap, so each
    # n must still be examined once per k
    size, n_max, d_cap = case
    table = cached_table(size)
    if n_max is not None:
        table = cut(table, n_max)
    assert near_power_events(table, d_cap) == _near_power_events_oracle(table, d_cap)


def test_events_oracle_edges(table_small):
    for d_cap in (0, 1, 10**9):
        for n_max in (1, 2, 3, 120):
            table = cut(table_small, n_max)
            assert near_power_events(table, d_cap) == _near_power_events_oracle(table, d_cap)
    with pytest.raises(ValueError):
        near_power_events(table_small, -1)


def test_screen_float_error_within_derived_bound():
    # x = 2^(log2(v) / k) against z = v^(1/k), known to 2^-64 from an
    # integer root, for z below 2^40: |x - z| <= _SCREEN_REL z
    rng = random.Random(11)
    for _ in range(3000):
        k = rng.randrange(2, 60)
        y = rng.randrange(2, 1 << rng.randrange(2, 41))
        v = y**k + rng.choice((0, 1, -1, -rng.randrange(y**k // 2)))
        x = fractions.Fraction(2.0 ** (math.log2(v) / k))
        low = fractions.Fraction(floor_kth_root(v << (64 * k), k).root, 1 << 64)
        err = max(abs(x - low), abs(x - low - fractions.Fraction(1, 1 << 64)))
        assert err <= _SCREEN_REL * low


def power_table(k, roots, d_cap):
    # strictly increasing: 1, 1, then y^k + j for j in 0, +-d_cap,
    # +-(d_cap + 1), so some p(n) sit exactly at the cap and just past it
    offsets = (0, d_cap, -d_cap, d_cap + 1, -d_cap - 1)
    values = sorted({y**k + j for y in roots for j in offsets if y**k + j > 1})
    return PartitionTable(values=(1, 1, *values))


def screened_ks(monkeypatch):
    # the k the sweep hands to the float screen, recorded per call
    seen = []
    screened = partgap.repulsion._screened

    def record(values, logs, k, *rest):
        seen.append(k)
        return screened(values, logs, k, *rest)

    monkeypatch.setattr(partgap.repulsion, "_screened", record)
    return seen


def sweep_work(monkeypatch):
    # per k, the root brackets the sweep takes and the distances it reads
    # off brackets; the brackets beyond the distances are near tests
    brackets, distances = collections.Counter(), collections.Counter()
    bracket, kernel = partgap.repulsion._bracket, partgap.repulsion._distances

    def counted(v, k):
        brackets[k] += 1
        return bracket(v, k)

    def read(values, k, ns):
        for pair in kernel(values, k, ns):
            distances[k] += 1
            yield pair

    monkeypatch.setattr(partgap.repulsion, "_bracket", counted)
    monkeypatch.setattr(partgap.repulsion, "_distances", read)
    return brackets, distances


def listings(monkeypatch):
    # (k, bases) of every list of powers y^k, y = 1..bases, the sweep makes
    listed = []
    neighbours = partgap.repulsion._power_neighbours

    def listing(values, k, d_cap, lo, hi, bases):
        listed.append((k, bases))
        return neighbours(values, k, d_cap, lo, hi, bases)

    monkeypatch.setattr(partgap.repulsion, "_power_neighbours", listing)
    return listed


@pytest.mark.parametrize("k", (3, 7))
@pytest.mark.parametrize("d_cap", (0, 1, 270343))
def test_screen_at_the_40_bit_switch(monkeypatch, k, d_cap):
    # roots just below 2^40 are screened with the widest tolerance and
    # take no near test; from a root of 2^40 on, each p(n) takes one
    # exact near test in the same _screened call instead
    seen = screened_ks(monkeypatch)
    brackets, distances = sweep_work(monkeypatch)
    below = power_table(k, range(2**40 - 8, 2**40), d_cap)
    across = power_table(k, (2**40 - 1, 2**40, 2**40 + 1), d_cap)
    for table, crosses in ((below, False), (across, True)):
        seen.clear()
        brackets.clear()
        distances.clear()
        events = near_power_events(table, d_cap)
        assert events == _near_power_events_oracle(table, d_cap)
        assert k in seen
        past = sum(v >= 1 << (40 * k) for v in table.values)
        assert (past > 0) == crosses
        assert brackets[k] - distances[k] == past
        assert {e.distance for e in events.events if e.k == k} >= {0, d_cap}


@pytest.mark.parametrize("k, d_cap", ((3, 1), (3, 270343), (5, 270343), (7, 270343)))
def test_screen_at_the_window_cut(monkeypatch, k, d_cap):
    # roots B - 1, B, B + 1 around the base where the screen takes over
    # from the exact prefix: at B the d_cap window nearly fills 2^-12
    seen = screened_ks(monkeypatch)
    base = _screen_base(k, d_cap)
    table = power_table(k, (base - 1, base, base + 1), d_cap)
    events = near_power_events(table, d_cap)
    assert events == _near_power_events_oracle(table, d_cap)
    assert k in seen
    edge = {(e.n, e.distance) for e in events.events if e.k == k}
    for y in (base, base + 1):
        for j in (d_cap, -d_cap):
            assert (table.values.index(y**k + j), d_cap) in edge


def zone_cases():
    # every (k, d_cap), bracketed prefix and listed prefix, except where
    # B is too large for a listed prefix to fit a test table
    for k in (3, 7, 13):
        for d_cap in (0, 1, 270343, 10**30):
            for filled in (False, True):
                if not filled or _screen_base(k, d_cap) < 10**5:
                    yield k, d_cap, filled


@pytest.mark.parametrize("k, d_cap, filled", zone_cases())
def test_screened_zones_match_oracle(monkeypatch, k, d_cap, filled):
    # y^k + j at the roots B - 1, B, B + 1 around the window cut B^k and
    # 2^40 - 1, 2^40, 2^40 + 1 around 2^(40k), all in one _screened call.
    # The prefix below B^k lists y = 1..B when it holds more n than B,
    # as it does when filled with B + 1 more values above 2^(k-1), and
    # is bracketed otherwise.  Near tests start at the larger of B^k and
    # 2^(40k).
    base = _screen_base(k, d_cap)
    roots = (base - 1, base, base + 1, 2**40 - 1, 2**40, 2**40 + 1)
    filler = range(2 ** (k - 1) + 1, 2 ** (k - 1) + base + 2) if filled else ()
    table = PartitionTable(tuple(sorted(power_table(k, roots, d_cap).values + tuple(filler))))
    seen, listed = screened_ks(monkeypatch), listings(monkeypatch)
    brackets, distances = sweep_work(monkeypatch)
    events = near_power_events(table, d_cap)
    assert events == _near_power_events_oracle(table, d_cap)
    assert k in seen
    first = bisect.bisect_right(table.values, 2 ** (k - 1), 2)
    prefix = bisect.bisect_left(table.values, base**k) - first
    assert ((k, base) in listed) == (base < prefix)
    if filled:
        assert base < prefix
    near = max(base**k, 1 << (40 * k))
    assert brackets[k] - distances[k] == sum(v >= near for v in table.values)
    found = {(e.n, e.k) for e in events.events}
    for y in roots:
        for j in (0, d_cap, -d_cap):
            if y**k + j > 2 ** (k - 1):
                assert (table.values.index(y**k + j), k) in found


def test_prefix_lists_only_when_its_bases_are_fewer(table25k, monkeypatch):
    # k = 17 at n_max 25000: at d_cap 10^70, B = 33,411 is more than the
    # 5,306 n below B^17, so they are bracketed; at 270343, B = 5 and the
    # prefix lists y = 1..5.  Either way no event is dropped.
    listed = listings(monkeypatch)
    values = table25k.values
    logs = [math.log2(v) for v in values]
    first = bisect.bisect_right(values, 1 << 16, 2)
    for d_cap, lists in ((10**70, False), (270343, True)):
        listed.clear()
        got = set(partgap.repulsion._screened(values, logs, 17, d_cap, first, 25000))
        assert listed == ([(17, _screen_base(17, d_cap))] if lists else [])
        near = (nearest_power_distance(values[n], 17)[1] <= d_cap for n in range(first, 25001))
        assert got >= {n for n, is_near in enumerate(near, start=first) if is_near}
    assert (_screen_base(17, 10**70), _screen_base(17, 270343)) == (33411, 5)
    assert bisect.bisect_left(values, 33411**17) - first == 5306


def test_screen_stays_live(monkeypatch):
    # at n_max 3000 and d_cap 270343 the sweep takes 5,551 root brackets:
    # 4,087 exact near tests and 591 distances at k = 2 and 3, 228
    # distances at the screened k = 5..19 and 645 at composite k.  One
    # bracket per pair at k = 2 and 3 made 7,410, and one per pair on
    # every prime k it screens would make 24,478
    table = cached_table(3000)
    expected = _near_power_events_oracle(table, 270343)
    brackets, distances = sweep_work(monkeypatch)
    assert near_power_events(table, 270343) == expected
    assert len(expected.events) == 843
    assert sum(brackets.values()) == 5551
    assert sum(brackets[k] - distances[k] for k in brackets) == 4087
    assert distances[2] + distances[3] == 591


PLANTED_ROOTS = (60, 61, 97)


@pytest.mark.parametrize("a, b", ((2, 2), (2, 3), (3, 3), (3, 4)))
@pytest.mark.parametrize("d_cap", (0, 1, 270343))
def test_divisor_path_matches_oracle(monkeypatch, a, b, d_cap):
    # y^(ab) + j for j in 0, +-d_cap, +-(d_cap + 1): the composite ab
    # brackets only the events of its largest proper divisor, and those
    # hold every planted n within the cap, at a, b and ab alike
    seen = screened_ks(monkeypatch)
    k = a * b
    table = power_table(k, PLANTED_ROOTS, d_cap)
    events = near_power_events(table, d_cap)
    assert events == _near_power_events_oracle(table, d_cap)
    assert k not in seen
    pairs = {(e.n, e.k) for e in events.events}
    for y in PLANTED_ROOTS:
        for j in (0, d_cap, -d_cap):
            n = table.values.index(y**k + j)
            assert (n, k, abs(j)) in events.events
            assert {(n, a), (n, b)} <= pairs


def test_composite_k_bracket_their_divisor_events(monkeypatch):
    # at n_max 3000 and d_cap 270343 each composite k brackets exactly
    # the events of k/p, p its smallest prime factor, that lie in its own
    # suffix p(n) > 2^(k-1), and never reaches the screen
    table = cached_table(3000)
    seen = screened_ks(monkeypatch)
    calls = collections.defaultdict(list)
    bracket = partgap.repulsion._bracket

    def counted(v, k):
        calls[k].append(v)
        return bracket(v, k)

    monkeypatch.setattr(partgap.repulsion, "_bracket", counted)
    events = near_power_events(table, 270343).events
    composite = 0
    for k in range(4, stabilization_threshold(table)):
        p = next(p for p in range(2, k + 1) if k % p == 0)
        if p < k:
            assert k not in seen
            values = (table.values[e.n] for e in events if e.k == k // p)
            assert calls[k] == [v for v in values if v > 2 ** (k - 1)]
            composite += len(calls[k])
    assert composite == 645
    assert sum(map(len, calls.values())) <= 7410


def primes_between(lo, hi):
    # by the sieve of Eratosthenes, sharing nothing with roots.py
    composite = set()
    for i in range(2, math.isqrt(hi) + 1):
        composite.update(range(i * i, hi + 1, i))
    return set(range(max(lo, 2), hi + 1)) - composite


@pytest.mark.parametrize(
    "n_max, near, listed",
    (
        (3000, (2, 3), (23, 181)),
        (25000, (2, 13), (53, 563)),
    ),
    ids=("3000", "25000"),
)
def test_each_prime_k_keeps_its_path(request, monkeypatch, n_max, near, listed):
    # at d_cap 270343 the sweep lists the powers of the largest prime k,
    # up to the largest prime below the freeze bound, and takes one
    # _screened call over the suffix of each smaller one.  Inside it
    # k = 2 and 3 bracket the n below B^k and the others list y = 1..B
    # there; the k whose root of p(n_max) passes 40 bits take near tests
    table = cached_table(3000) if n_max == 3000 else request.getfixturevalue("table25k")
    seen, calls = screened_ks(monkeypatch), listings(monkeypatch)
    brackets, distances = sweep_work(monkeypatch)
    near_power_events(table, 270343)
    primes = primes_between(2, stabilization_threshold(table) - 1)
    prefix = {k for k, bases in calls if k in seen and bases == _screen_base(k, 270343)}
    assert set(seen) == primes_between(2, listed[0] - 1)
    assert {k for k, _ in calls} - prefix == primes_between(*listed)
    assert prefix == set(seen) - {2, 3}
    assert {k for k in seen if brackets[k] > distances[k]} == primes_between(*near)
    assert max(primes) == listed[1]


def test_event_set_orders_events_for_any_k_order():
    # the events come out in (n, k) order whatever order by_k holds k in
    table = cached_table(600)
    swept = near_power_events(table, 270343)
    by_k = {
        k: [e for e in swept.events if e.k == k]
        for k in sorted({e.k for e in swept.events}, reverse=True)
    }
    assert len(by_k) > 2 and list(swept.events) == sorted(swept.events)
    assert _event_set(table, 270343, by_k) == swept


def test_sweep_refuses_values_out_of_order():
    # the sweep bisects p(1..n_max), so values out of order would lose
    # events or repeat them; no table holds them, so no sweep sees them
    values = cached_table(200).values
    shuffled = list(values[2:])
    random.Random(17).shuffle(shuffled)
    swapped = values[:199] + (values[200], values[199])
    for bad in ((1, 1, *shuffled), swapped):
        with pytest.raises(ValueError, match="ascends"):
            PartitionTable(bad)
    with pytest.raises(ValueError, match=r"p\(200\) < p\(199\)"):
        PartitionTable(swapped)
    # a repeated value keeps the order, and the sweep still answers
    tied = PartitionTable(values[:151] + values[150:])
    for d_cap in (0, 1, 270343):
        assert near_power_events(tied, d_cap) == _near_power_events_oracle(tied, d_cap)


def brute_n_d(table, d):
    # direct definition: largest k whose threshold exceeds the limit, plus 1
    limit = limit_L(table, d)
    best = 1
    for k in range(2, stabilization_threshold(table) + 2):
        if m_k_d(table, k, d) > limit:
            best = k
    return best + 1 if best > 1 else 2


def test_n_d_matches_direct_definition():
    table = build_table(300)
    events = near_power_events(table, 1000)
    for d in D_SAMPLES:
        assert n_d(table, d, events=events) == brute_n_d(table, d)


def test_n_d_batch_and_intervals():
    table = build_table(300)
    events = near_power_events(table, 1000)
    ds = list(D_SAMPLES)
    batch = n_d_batch(table, ds, events=events)
    assert batch == {d: n_d(table, d, events=events) for d in ds}
    intervals = n_d_intervals(table, 950, events=events)
    assert intervals[0][0] == 0
    assert intervals[-1][1] == 950
    for (lo1, hi1, v1), (lo2, hi2, v2) in zip(intervals, intervals[1:]):
        assert hi1 + 1 == lo2
        assert v1 != v2
    for lo, hi, v in intervals:
        assert n_d(table, lo, events=events) == v
        assert n_d(table, hi, events=events) == v


def per_cut_intervals(table, d_max, events):
    # n_d evaluated at every threshold where limit_L jumps or an event
    # activates, equal neighbours merged
    cuts = {0}
    cuts.update(table.p(n) - 1 for n in range(2, table.n_max + 1))
    cuts.update(e.distance for e in events.events)
    cuts = sorted(c for c in cuts if c <= d_max)
    out = []
    for i, lo in enumerate(cuts):
        upper = cuts[i + 1] - 1 if i + 1 < len(cuts) else d_max
        value = _n_d_from_events(table, lo, events)
        if out and out[-1][2] == value:
            out[-1] = (out[-1][0], upper, value)
        else:
            out.append((lo, upper, value))
    return out


def test_n_d_intervals_match_per_cut_evaluation():
    table = build_table(300)
    for n_max in (300, 200, 60):
        # up to the last decidable threshold p(n_max) - 2 at n_max 60
        part = cut(table, n_max)
        edge = part.p(n_max) - 2
        for d_max in (0, 1, 950, min(10**6, edge), min(10**9, edge)):
            events = near_power_events(part, d_max)
            assert n_d_intervals(part, d_max, events=events) == per_cut_intervals(
                part, d_max, events
            )
    # past the table edge limit_L is undecided, so the runs are too
    events = near_power_events(table, table.p(300))
    with pytest.raises(ValueError):
        n_d_intervals(table, table.p(300) - 1, events=events)


def test_n_d_family_undecided_past_explicit_n_max():
    # A 300-entry table cut at 200 decides exactly what a 200-entry
    # table decides: nothing from p(200) - 1 on.
    table, exact = cut(build_table(300), 200), build_table(200)
    edge = exact.p(200) - 1
    events = near_power_events(table, edge + 5)
    for t in (table, exact):
        for d in (edge, edge + 5):
            with pytest.raises(ValueError, match="not below p"):
                n_d_intervals(t, d, events=events)
            with pytest.raises(ValueError, match="not below p"):
                n_d(t, d, events=events)
            with pytest.raises(ValueError, match="not below p"):
                n_d_batch(t, (0, d), events=events)
    assert n_d_intervals(table, edge - 1, events=events) == n_d_intervals(
        exact, edge - 1, events=events
    )


def test_events_belong_to_their_values():
    # same n_max, other values: p(290) = 17^20 on the fake gives n_d 21
    # at d = 1000, where the real table's events answer 14
    real = build_table(290)
    fake = PartitionTable(real.values[:290] + (17**20,))
    events = near_power_events(real, 1000)
    for query in (
        lambda: n_d(fake, 1000, events=events),
        lambda: n_d_batch(fake, (0, 1000), events=events),
        lambda: n_d_intervals(fake, 1000, events=events),
    ):
        with pytest.raises(ValueError, match="other values"):
            query()
    assert n_d(fake, 1000) == 21
    assert n_d(real, 1000, events=events) == n_d(real, 1000) == 14
    # a table object with the same values takes the set
    assert n_d(PartitionTable(real.values), 1000, events=events) == 14


def test_events_argument_validation(table_small):
    events = near_power_events(cut(table_small, 90), 100)
    with pytest.raises(ValueError):
        n_d(cut(table_small, 90), 101, events=events)
    with pytest.raises(ValueError):
        n_d_intervals(cut(table_small, 90), 500, events=events)
    with pytest.raises(ValueError):
        n_d(table_small, 50, events=events)  # table covers 120, events only 90


@st.composite
def n_d_cases(draw):
    size = draw(st.integers(min_value=2, max_value=600))
    n_max = draw(st.sampled_from((None, 1, 2)) | st.integers(min_value=1, max_value=size))
    top = cached_table(size).p(size if n_max is None else n_max)
    d_cap = draw(
        st.just(0)
        | st.integers(min_value=1, max_value=10**4)
        | st.integers(min_value=10**4, max_value=max(top, 10**4))
        | st.integers(min_value=top, max_value=2 * top)
    )
    return size, n_max, d_cap


@given(n_d_cases(), st.data())
@settings(max_examples=40, deadline=None)
def test_n_d_family_reads_the_runs(case, data):
    # the runs answer exactly what a scan over every event answers, at
    # each run's ends, one past each end and at random d, and cut at any
    # d_max they are the per-cut evaluation
    size, n_max, d_cap = case
    table = cached_table(size)
    if n_max is not None:
        table = cut(table, n_max)
    events = near_power_events(table, d_cap)
    last = min(d_cap, table.p(table.n_max) - 2)
    if last < 0:  # n_max 1 decides no d
        assert events.runs == ()
        with pytest.raises(ValueError, match="not below p"):
            n_d(table, 0, events=events)
        return
    assert events.runs[0][0] == 0 and events.runs[-1][1] == last
    assert all(a[1] + 1 == b[0] and a[2] != b[2] for a, b in zip(events.runs, events.runs[1:]))
    ds = {d for lo, up, _ in events.runs for d in (lo, up, up + 1)}
    ds.update(data.draw(st.lists(st.integers(min_value=0, max_value=last), max_size=5)))
    ds = sorted(d for d in ds if d <= last)
    want = {d: _n_d_from_events(table, d, events) for d in ds}
    assert {d: n_d(table, d, events=events) for d in ds} == want
    assert n_d_batch(table, ds, events=events) == want
    for d_max in (0, data.draw(st.integers(min_value=0, max_value=min(last, 10**4)))):
        # the per-cut oracle scans every event per cut, so it reads a set
        # capped at d_max; the runs come from the full set
        capped = near_power_events(table, d_max)
        assert n_d_intervals(table, d_max, events=events) == per_cut_intervals(
            table, d_max, capped
        )


@given(st.lists(st.integers(min_value=2, max_value=3000), min_size=1, max_size=12, unique=True))
@settings(max_examples=300, deadline=None)
def test_runs_of_small_tables_at_every_d(sample):
    # any ascending p(2..n_max), swept with d_cap at its top: the runs
    # give the plain event scan's n_d at every d they cover
    table = PartitionTable((1, 1, *sorted(sample)))
    top = table.p(table.n_max)
    events = near_power_events(table, top)
    assert events.runs[-1][1] == top - 2
    for d in range(top - 1):
        assert n_d(table, d, events=events) == _n_d_from_events(table, d, events)


def test_run_painted_at_the_cap_just_past_a_larger_k():
    # k = 4 covers d = 7 alone (|9 - 16| = 7 = p(2) - 2), k = 3 covers
    # 1..7 (|9 - 8| = 1), and k = 2 covers 0..7 at p(2) = 9 = 3^2 and
    # 4..43 at p(3) = 45 = 7^2 - 4, which d_cap 8 cuts to 4..8.  So d = 8,
    # the cap, lies just past k = 4's end and only k = 2 reaches it.
    table = PartitionTable((1, 1, 9, 45))
    events = near_power_events(table, 8)
    assert events.runs == ((0, 0, 3), (1, 6, 4), (7, 7, 5), (8, 8, 3))
    assert [n_d(table, d, events=events) for d in range(9)] == [
        _n_d_from_events(table, d, events) for d in range(9)
    ]


def test_n_d_family_never_takes_limit_L(monkeypatch):
    # given a set, a query checks d with two comparisons and bisects the
    # runs; limit_L, a bisect over the whole table, is never taken
    table = cached_table(600)
    events = near_power_events(table, 10**4)
    ds = sorted({d for lo, up, _ in events.runs for d in (lo, up)})
    want = {d: _n_d_from_events(table, d, events) for d in ds}
    intervals = per_cut_intervals(table, 10**4, events)

    def refused(*args):
        raise AssertionError("limit_L called")

    monkeypatch.setattr(partgap.repulsion, "limit_L", refused)
    assert {d: n_d(table, d, events=events) for d in ds} == want
    assert n_d_batch(table, ds, events=events) == want
    assert n_d_intervals(table, 10**4, events=events) == intervals
    with pytest.raises(ValueError, match="d must be >= 0, got -1"):
        n_d(table, -1, events=events)
    with pytest.raises(ValueError, match="not below p"):
        n_d_intervals(table, table.p(600) - 1, events=events)


def test_undecidable_d_rejected_before_any_sweep(monkeypatch):
    table = cached_table(600)
    sweeps = []

    def counted(*args, **kwargs):
        sweeps.append(args)
        return near_power_events(*args, **kwargs)

    monkeypatch.setattr(partgap.repulsion, "near_power_events", counted)
    with pytest.raises(ValueError, match="not below p"):
        n_d(table, 10**200)
    with pytest.raises(ValueError, match="not below p"):
        n_d_batch(table, (0, 10**200))
    with pytest.raises(ValueError, match="not below p"):
        n_d_intervals(table, 10**200)
    assert sweeps == []
    assert n_d(table, 5) == n_d_batch(table, (5,))[5]  # the counter counts
    assert len(sweeps) == 2


def test_edge_reported_before_event_cap():
    # d past both a given set's cap and the table edge: the edge decides
    table = cut(cached_table(300), 200)
    events = near_power_events(table, 100)
    edge = table.p(200) - 1
    with pytest.raises(ValueError, match="not below p"):
        n_d(table, edge, events=events)
    with pytest.raises(ValueError, match="not below p"):
        n_d_batch(table, (0, edge), events=events)
    with pytest.raises(ValueError, match="capped at d=100"):
        n_d(table, edge - 1, events=events)
    with pytest.raises(ValueError, match="d must be >= 0, got -3"):
        n_d_batch(table, (-1, -3, 5), events=events)


def test_distance_samples(table_small):
    rows = TABLE1.compute(table_small)
    assert [r[0] for r in rows] == [10, 20, 30, 40, 50]
    for n, p, *distances in rows:
        assert p == table_small.p(n)
        assert distances == [
            nearest_power_distance(table_small.p(n), k)[1] for k in (2, 3, 4)
        ]


def test_spot_values_at_full_size(table25k):
    rows = dict(threshold_rows(table25k, (0, 1, 10**70), (2, 50, 100)))
    assert rows[1][0] == 35  # k = 2, d = 1
    assert rows[0][1] == 1  # k = 50, d = 0
    assert rows[1][1] == 2  # k = 50, d = 1
    assert rows[10**70][2] == 4502  # k = 100, d = 10^70
