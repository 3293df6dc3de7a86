import collections
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partgap.witnesses
from partgap.partitions import PartitionTable, build_table
from partgap.roots import (
    PowerWitness,
    _is_perfect_power_oracle,
    _power_neighbours,
    _simple_factor,
    floor_kth_root,
    is_perfect_power,
)
from partgap.witnesses import (
    PRIMES_UNDER_100,
    CoverageWitness,
    ExceptionalTuple,
    bundled_exceptional_list,
    check_exceptional_powers,
    coverage_scan,
    coverage_witness,
    index_covering,
    load_exceptional_list,
    missed_values,
    parse_exceptional_lines,
    perfect_power_scan,
    _witness_masks,
    _witness_search,
    _witness_search_oracle,
)

SIX_TUPLES = (
    ExceptionalTuple(2, 1, 3, 3),
    ExceptionalTuple(2, 2, 5, 3),
    ExceptionalTuple(2, 5, 3, 4),
    ExceptionalTuple(89, 1, 5, 3),
    ExceptionalTuple(97, 2, 12545, 3),
    ExceptionalTuple(97, 1, 7, 4),
)


def oracle_decompositions(v):
    # independent enumeration of v = x^2 + q^a, prime q < 100, q not | x
    out = []
    for q in PRIMES_UNDER_100:
        power, a = q, 1
        while power < v:
            x = math.isqrt(v - power)
            if x * x == v - power and x >= 1 and x % q:
                out.append((q, a, x))
            power *= q
            a += 1
    return out


def test_missed_values_published_prefix():
    assert missed_values(176) == [1, 2, 37, 64, 121, 136, 139, 156, 165, 166]


def test_missed_values_against_oracle():
    got = set(missed_values(10000))
    for v in range(1, 10001):
        assert (v in got) == (not oracle_decompositions(v))


def test_missed_values_rejects_empty_bound():
    with pytest.raises(ValueError):
        missed_values(0)
    assert missed_values(1) == [1]


def test_witness_validity(table_mid):
    for n in range(0, 401):
        w = coverage_witness(table_mid, n)
        if w is None:
            continue
        assert w.n == n
        assert w.x >= 1
        assert w.prime in PRIMES_UNDER_100
        assert w.exponent >= 1
        assert w.x % w.prime != 0
        assert w.x**2 + w.prime**w.exponent == table_mid.p(n)


def test_witness_search_order(table_small):
    for n in range(2, 121):
        found = oracle_decompositions(table_small.p(n))
        w = coverage_witness(table_small, n)
        if not found:
            assert w is None
            continue
        q, a, x = found[0]
        assert (w.prime, w.exponent, w.x) == (q, a, x)
        all_w = list(_witness_search(table_small.p(n)))
        assert [(q, a, x) for x, q, a in all_w] == found
        pairs = [(q, a) for _, q, a in all_w]
        assert pairs == sorted(pairs)


@given(st.integers(min_value=0, max_value=120))
@settings(max_examples=50, deadline=None)
def test_witness_matches_oracle_anywhere(n):
    table = build_table(120)
    w = coverage_witness(table, n)
    assert (w is not None) == bool(oracle_decompositions(table.p(n)))


def test_scan_published_examples(table_small):
    assert all(s.covered for s in coverage_scan(table_small, 3, 15))
    assert not coverage_scan(table_small, 16, 16)[0].covered
    scan = coverage_scan(table_small, 0, 19)
    uncovered = [s.n for s in scan if not s.covered and s.n >= 2]
    assert uncovered == [2, 16, 19]


def test_scan_edge_cases(table_small):
    assert coverage_scan(table_small, 2, 1) == []
    with pytest.raises(ValueError):
        coverage_scan(table_small, 0, 121)
    with pytest.raises(ValueError):
        coverage_witness(table_small, -1)


def test_bundled_list():
    assert bundled_exceptional_list() == SIX_TUPLES


def test_parse_accepts_comments_and_blanks():
    text = "# header\n\n2 1 3 3\n  # indented comment\n97 1 7 4\n"
    got = parse_exceptional_lines(text.splitlines())
    assert got == (ExceptionalTuple(2, 1, 3, 3), ExceptionalTuple(97, 1, 7, 4))


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("2 1 3", "line 2"),  # wrong field count
        ("2 1 3 x", "line 2"),  # non-integer field
        ("4 1 5 3", "line 2"),  # 125 - 4 = 121 = 11^2 but 4 is not prime
        ("101 1 13 3", "line 2"),  # prime but not < 100
        ("2 0 3 3", "line 2"),  # exponent below 1
        ("3 1 2 2", "line 2"),  # 4 - 3 = 1^2 but power exponent below 3
        ("2 1 1 3", "line 2"),  # base below 2
        ("2 1 3 4", "line 2"),  # 81 - 2 = 79 is not a square
        ("2 2 2 3", "line 2"),  # 8 - 4 = 2^2 but q divides x
        ("2 1 \u0663 3", "line 2: not ASCII"),  # int() reads this digit as 3
    ],
)
def test_parse_rejects_with_line_numbers(line, fragment):
    with pytest.raises(ValueError) as err:
        parse_exceptional_lines(["2 1 3 3", line])
    assert fragment in str(err.value)


def test_load_round_trip(tmp_path):
    path = tmp_path / "list.txt"
    path.write_text("".join("%d %d %d %d\n" % t for t in SIX_TUPLES))
    assert load_exceptional_list(str(path)) == SIX_TUPLES
    one = tmp_path / "one.txt"
    one.write_text("2 1 3 3\n")
    assert load_exceptional_list(str(one)) == (ExceptionalTuple(2, 1, 3, 3),)


def test_index_covering():
    assert index_covering(1) == 0
    assert index_covering(2) == 2
    assert index_covering(42) == 10
    assert index_covering(43) == 11
    table = build_table(index_covering(10**9))
    assert table.values[table.n_max] >= 10**9
    assert table.values[table.n_max - 1] < 10**9


def test_check_auto_sized_is_conclusive():
    report = check_exceptional_powers(SIX_TUPLES)
    assert report.all_clear
    assert len(report.checks) == 6
    for c in report.checks:
        assert c.value == c.candidate.base ** c.candidate.power
        assert c.lookup.index is None
        assert c.lookup.out_of_range is False


def test_check_auto_sized_builds_once(monkeypatch):
    built = []

    def counted(n_max):
        built.append(n_max)
        return build_table(n_max)

    monkeypatch.setattr(partgap.witnesses, "build_table", counted)
    report = check_exceptional_powers(bundled_exceptional_list())
    assert len(built) == 1
    assert report.n_max == 192 == index_covering(12545**3)
    assert report.all_clear


def test_check_rejects_short_table(table_small):
    with pytest.raises(ValueError) as err:
        check_exceptional_powers(SIX_TUPLES, table_small)
    assert "n_max" in str(err.value)


def test_check_rejects_empty_list(table_small):
    for table in (None, table_small):
        with pytest.raises(ValueError, match="no exceptional tuples"):
            check_exceptional_powers((), table)


def test_check_flags_planted_hit():
    # doctor one table entry to equal 3^3; ordering stays intact
    values = list(build_table(200).values)
    assert values[8] < 27 < values[10]
    values[9] = 27
    fake = PartitionTable(values=tuple(values))
    report = check_exceptional_powers(SIX_TUPLES, fake)
    assert not report.all_clear
    hits = [c for c in report.checks if c.lookup.index is not None]
    assert [c.candidate for c in hits] == [ExceptionalTuple(2, 1, 3, 3)]
    assert hits[0].lookup.index == 9


def test_power_scan_clear_range(table_mid):
    assert perfect_power_scan(table_mid, 2, 2000) == []


def test_power_scan_default_skips_trivial(table_small):
    assert perfect_power_scan(table_small) == []
    with_front = perfect_power_scan(table_small, 0, 5)
    assert [(n, w.base, w.exponent) for n, w in with_front] == [
        (0, 1, 2),
        (1, 1, 2),
    ]


def test_power_scan_finds_planted_power():
    values = list(build_table(60).values)
    assert values[9] < 49 < values[11]
    values[10] = 49
    fake = PartitionTable(values=tuple(values))
    hits = perfect_power_scan(fake)
    assert [(n, w.base, w.exponent) for n, w in hits] == [(10, 7, 2)]


def test_power_scan_empty_and_bad_ranges(table_small):
    assert perfect_power_scan(table_small, 5, 4) == []
    with pytest.raises(ValueError):
        perfect_power_scan(table_small, 2, 121)


@given(
    st.integers(min_value=1, max_value=10**60),
    st.sampled_from(PRIMES_UNDER_100),
    st.integers(min_value=1, max_value=150),
    st.integers(min_value=-2, max_value=2),
)
@settings(max_examples=300, deadline=None)
def test_screened_witnesses_match_oracle_on_constructed_values(x, q, a, step):
    v = x * x + q**a + step
    table = PartitionTable(values=(v,))
    want = list(_witness_search_oracle(v))
    assert list(_witness_search(v)) == want
    assert coverage_witness(table, 0) == (CoverageWitness(0, *want[0]) if want else None)
    if step == 0 and x % q:
        assert (x, q, a) in want


def test_screened_witnesses_match_oracle_on_partition_numbers(table_mid):
    for n in range(0, 2001, 7):
        v = table_mid.p(n)
        assert list(_witness_search(v)) == list(_witness_search_oracle(v))


@pytest.mark.parametrize("q", PRIMES_UNDER_100)
@pytest.mark.parametrize("m", (64, 9, 5, 7, 11, 13))
def test_witness_mask_bits(q, m):
    # preperiod and period of q^a mod m, then bit a of the mask at
    # residue r, up to the length the masks claim: is r - q^a a square
    # mod m?
    powers = [q**a % m for a in range(1, 2 * m + 2)]
    head = next(i for i in range(m) if powers[i] in powers[i + 1 :])
    period = powers[head + 1 :].index(powers[head]) + 1
    tables = _witness_masks(q, head + 2 * period)
    top = partgap.witnesses._MASKS[q][0]
    assert top >= head + 2 * period
    rows = tables[partgap.witnesses._SQUARE_MODULI.index(m)]
    squares = {x * x % m for x in range(m)}
    assert len(rows) == m
    for r in range(m):
        for a in range(top + 1):
            want = a >= 1 and (r - q**a) % m in squares
            assert (rows[r] >> a) & 1 == want, (q, m, r, a)


@st.composite
def witness_probes(draw):
    # values at the edges of the exponent search: q^a itself, its
    # neighbours, q^a + x^2 with q dividing x or not, and values near
    # the bit-length bound 2^(a (bit_length(q) - 1)) on the exponent
    q = draw(st.sampled_from((2, 3, 5, 7, 11, 13) + PRIMES_UNDER_100[6:]))
    a = draw(st.integers(min_value=1, max_value=60))
    x = draw(st.integers(min_value=1, max_value=10**12))
    kind = draw(st.sampled_from(("power", "below", "above", "x", "qx", "bound")))
    power = q**a
    if kind == "bound":
        return (1 << a * (q.bit_length() - 1)) + draw(st.integers(-2, 2))
    return {
        "power": power,
        "below": power - 1,
        "above": power + 1,
        "x": power + x * x,
        "qx": power + (q * x) ** 2,
    }[kind]


@given(witness_probes(), witness_probes())
@settings(max_examples=300, deadline=None)
def test_witness_masks_grow_and_match_oracle(v, w):
    # start from no masks, search the smaller value, then the larger:
    # the masks are first built short and then lengthened
    partgap.witnesses._MASKS.clear()
    small, large = sorted((v, w))
    for u in (small, large, small):
        assert list(_witness_search(u)) == list(_witness_search_oracle(u))
    assert partgap.witnesses._MASKS[2][0] >= large.bit_length()


def column_scan_table():
    # ascending, with 0 and 1 repeated at n = 0..4, repeated values,
    # powers whose smallest prime exponent must win (2^30 = (2^15)^2 and
    # 3^35 = (3^7)^5), q-th powers up to q = 61 and their neighbours
    values = [1, 0, 0, 1, 5, 1, 2**30, 3**35, 2**30, 10**40, 7]
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        for y in (2, 3, 10, 6**5):
            values += [y**q, y**q - 1, y**q + 1]
    return PartitionTable(values=tuple(sorted(values)))


@pytest.mark.parametrize("lo,hi", [(0, None), (1, None), (2, None), (0, 0), (1, 1), (9, 9), (30, 20), (40, 90)])
def test_column_scan_matches_oracle(lo, hi):
    table = column_scan_table()
    hi = table.n_max if hi is None else hi
    want = [
        (n, w)
        for n in range(lo, hi + 1)
        if (w := _is_perfect_power_oracle(table.values[n])) is not None
    ]
    assert perfect_power_scan(table, lo, hi) == want


def test_column_scan_smallest_exponent_and_trivial_values():
    values = (0, 1, 1, 1, 2**30, 3**35, 2**61, 2**61 + 1)
    table = PartitionTable(values=values)
    hits = [(n, w.base, w.exponent) for n, w in perfect_power_scan(table, 0)]
    assert hits == [
        (0, 0, 2), (1, 1, 2), (2, 1, 2), (3, 1, 2), (4, 2**15, 2),
        (5, 3**7, 5), (6, 2, 61),
    ]


def test_column_scan_rejects_negative_values():
    table = PartitionTable(values=(-8, 1, 1, 4))
    with pytest.raises(ValueError):
        perfect_power_scan(table, 0)


def listing_scan_table():
    # real p(2..1200), sorted together with planted powers: y^q for q
    # on both sides of the switch to listing, their neighbours, repeated
    # listed powers, and 2^122 = (2^61)^2 = 4^61, a listed 61st power
    # whose witness must keep exponent 2
    values = list(build_table(1200).values[2:])
    for q in (29, 31, 61, 67, 97, 101):
        for y in (2, 3, 5):
            values += [y**q, y**q - 1, y**q + 1]
    values += [3**67, 5**61, 2**122, 2**122, 2**122 + 1]
    return PartitionTable(values=(1, 1) + tuple(sorted(values)))


def test_listing_scan_matches_oracle(monkeypatch):
    listed = []

    def recording(values, k, d_cap, lo, hi, bases):
        # the list path runs only where its bases are few
        assert d_cap == 0 and partgap.witnesses._LIST_COST * bases < hi + 1 - lo
        listed.append(k)
        return _power_neighbours(values, k, d_cap, lo, hi, bases)

    monkeypatch.setattr(partgap.witnesses, "_power_neighbours", recording)
    table = listing_scan_table()
    want = [
        (n, w)
        for n in range(2, table.n_max + 1)
        if (w := _is_perfect_power_oracle(table.values[n])) is not None
    ]
    hits = perfect_power_scan(table)
    assert hits == want
    assert {w for n, w in hits if table.values[n] == 2**122} == {PowerWitness(2**61, 2)}
    assert {61, 67, 97, 101} <= set(listed) and 2 not in listed


def plan_scan_table():
    # 3000 random values of 40 to 200 bits, sorted together with powers
    # at screened q (2, 3, 5), at listed q (31, 37), and their neighbours
    rng = random.Random(33)
    values = [rng.getrandbits(rng.randrange(40, 201)) for _ in range(3000)]
    for q, bases in ((2, (3, 10**30, 2**99)), (3, (7, 10**20)), (5, (11, 10**12)),
                     (31, (2, 3, 50)), (37, (5, 40))):
        for y in bases:
            values += [y**q, y**q - 1, y**q + 1]
    return PartitionTable(values=(1, 1) + tuple(sorted(values)))


@pytest.mark.parametrize("plan", ["empty", "grown"])
def test_power_scan_walks_the_plan(monkeypatch, plan):
    # from no plan, the scan grows one to the top bit length; from a
    # plan past it, the scan stops at the first q above that length
    listed = []

    def recording(values, k, d_cap, lo, hi, bases):
        listed.append(k)
        return _power_neighbours(values, k, d_cap, lo, hi, bases)

    monkeypatch.setattr(partgap.witnesses, "_power_neighbours", recording)
    monkeypatch.setattr(partgap.roots, "_PLAN", (0, ()))
    table = plan_scan_table()
    top = max(table.values).bit_length()
    if plan == "grown":
        partgap.roots._grow_plan(top + 100)
    want = [
        (n, w)
        for n in range(2, table.n_max + 1)
        if (w := _is_perfect_power_oracle(table.values[n])) is not None
    ]
    assert perfect_power_scan(table) == want
    assert {w.exponent for _, w in want} >= {2, 3, 5, 31, 37}
    assert {31, 37} <= set(listed) and not {2, 3, 5} & set(listed)
    assert max(listed) <= top
    assert partgap.roots._PLAN[0] == (top if plan == "empty" else top + 100)


def test_power_scan_roots_few_values(monkeypatch):
    # the screens leave almost only true powers: at n_max 6000 two
    # moduli per odd q left 2,233 exact roots, and 60 remain, 58 of them
    # for the bases of the q
    calls = []

    def counted(v, k):
        calls.append(k)
        return floor_kth_root(v, k)

    monkeypatch.setattr(partgap.witnesses, "floor_kth_root", counted)
    assert perfect_power_scan(build_table(6000)) == []
    assert len(calls) <= 200


def screen_edge_scan_table():
    # real p(2..1200), sorted together with 6^q and 30^q, which pass the
    # multiplicity screen, and 2 * 3^q, which it rejects, for q on both
    # sides of the switch to listing, and their neighbours
    values = list(build_table(1200).values[2:])
    for q in (2, 3, 5, 7, 13, 31, 61, 67):
        for v in (6**q, 30**q, 2 * 3**q):
            values += [v - 1, v, v + 1]
    return PartitionTable(values=(1, 1) + tuple(sorted(values)))


def test_power_scan_matches_oracle_at_the_screen_edge():
    table = screen_edge_scan_table()
    want = [
        (n, w)
        for n in range(0, table.n_max + 1)
        if (w := _is_perfect_power_oracle(table.values[n])) is not None
    ]
    assert perfect_power_scan(table, 0) == want
    planted = {table.values[n] for n, _ in want}
    for q in (2, 3, 5, 7, 13, 31, 61, 67):
        assert {6**q, 30**q} <= planted and 2 * 3**q not in planted


def test_both_power_tests_match_oracle_on_partition_numbers():
    # every p(0..6000), value by value and by the scan
    table = build_table(6000)
    want = [_is_perfect_power_oracle(v) for v in table.values]
    assert [is_perfect_power(v) for v in table.values] == want
    assert perfect_power_scan(table, 0) == [(n, w) for n, w in enumerate(want) if w]


def test_power_scan_and_value_test_find_nothing_to_25000(table25k):
    assert perfect_power_scan(table25k) == []
    assert not any(is_perfect_power(v) for v in table25k.values[2:])


def test_power_scan_screens_only_what_the_multiplicity_screen_keeps(monkeypatch):
    # at n_max 6000 the multiplicity screen keeps 1,481 of the 5,999 open
    # p(n), and only those reach the residue screens: the first modulus
    # of each screened q tests exactly the kept values at or above 2^q
    tested = collections.Counter()

    class CountedResidues(frozenset):
        def __contains__(self, r):
            tested[self.q] += 1
            return frozenset.__contains__(self, r)

    def counted_plan(bits):
        covered, steps = partgap.roots._grow_plan(bits)
        out = []
        for q, m, residues, rest in steps:
            residues = CountedResidues(residues)
            residues.q = q
            out.append((q, m, residues, rest))
        return covered, tuple(out)

    monkeypatch.setattr(partgap.witnesses, "_grow_plan", counted_plan)
    table = build_table(6000)
    assert perfect_power_scan(table) == []
    kept = [v for v in table.values[2:] if not _simple_factor(v)]
    assert len(kept) == 1481
    assert tested[2] == 1481
    for q, count in tested.items():
        assert count == sum(v >= 1 << q for v in kept), q
