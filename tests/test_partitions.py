import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partgap.partitions import (
    MAX_TABLE_SIZE,
    PartitionTable,
    build_table,
    count_partitions_oracle,
    dump_values,
    hardy_ramanujan_estimate,
    is_partition_number,
    load_table,
    p1,
    psi,
    save_table,
)

FIRST_VALUES = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_first_values(table_small):
    assert table_small.values[:11] == FIRST_VALUES


def test_known_larger_values(table_mid):
    assert table_mid.p(50) == 204226
    assert table_mid.p(100) == 190569292
    assert table_mid.p(200) == 3972999029388
    assert table_mid.p(1000) == 24061467864032622473692149727991


def test_matches_dp_oracle(table_mid):
    for n in range(0, 301):
        assert table_mid.p(n) == count_partitions_oracle(n)


def test_strictly_increasing_from_one(table_mid):
    vals = table_mid.values
    assert vals[0] == vals[1] == 1
    for n in range(2, 2001):
        assert vals[n] > vals[n - 1]


def test_build_segments_meet_at_pentagonal_numbers():
    # build_table rebuilds its per-sign getters where n reaches a
    # generalized pentagonal number g and stops at n_max: every n_max
    # next to such a g gives the prefix of one longer table, which
    # matches the oracle value by value
    full = build_table(300).values
    assert list(full) == [count_partitions_oracle(n) for n in range(301)]
    pentagonal = [j * (3 * j + s) // 2 for j in range(1, 15) for s in (-1, 1)]
    edges = {0, 1} | {g + e for g in pentagonal if g <= 300 for e in (-1, 0, 1)}
    for n in sorted(edges):
        assert build_table(n).values == full[: n + 1], n


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=60, deadline=None)
def test_recurrence_equals_oracle(n):
    assert build_table(n).p(n) == count_partitions_oracle(n)


def test_build_rejects_negative():
    with pytest.raises(ValueError):
        build_table(-1)


def test_build_rejects_oversize():
    with pytest.raises(ValueError):
        build_table(MAX_TABLE_SIZE + 1)


def test_table_length_validated():
    # n_max is derived from the values, which must hold p(0) at least
    with pytest.raises(ValueError, match="values is empty"):
        PartitionTable(values=())
    with pytest.raises(TypeError):
        PartitionTable(values=(1, 1, 2), n_max=2)
    assert PartitionTable(values=(1, 1, 2)).n_max == 2
    assert build_table(40).n_max == 40
    assert build_table(40) == PartitionTable(build_table(50).values[:41])


def test_table_equality_hash_and_immutability():
    # equality, hash and repr go by the values; the walks memo takes no
    # part, and no attribute can be assigned or deleted
    table, same = build_table(40), PartitionTable(values=build_table(50).values[:41])
    assert table == same and hash(table) == hash(same)
    assert table != PartitionTable(table.values[:40]) and table != table.values
    table.walks[2] = ((0,), (40,))
    assert table == same and hash(table) == hash(same) and same.walks == {}
    assert repr(table) == repr(same) == "PartitionTable(values=%r)" % (same.values,)
    for name in ("values", "n_max", "walks", "other"):
        with pytest.raises(AttributeError):
            setattr(table, name, ())
    with pytest.raises(AttributeError):
        del table.values
    assert table.n_max == 40 and table.values == same.values


def test_p1_prefix(table_small):
    # 1 + q^2 + q^3 + 2q^4 + 2q^5 + 4q^6 + 4q^7 + 7q^8 + 8q^9 + 12q^10
    got = [p1(table_small, n) for n in range(11)]
    assert got == [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12]


def test_p1_equals_no_ones_count(table_small):
    for n in range(0, 81):
        assert p1(table_small, n) == count_partitions_oracle(n, smallest_part=2)


def test_psi_prefix(table_small):
    # q^2 + 2q^3 + 4q^4 + 6q^5 + 10q^6 + 14q^7 + 21q^8 + 29q^9 + 41q^10
    got = [psi(table_small, n) for n in range(1, 11)]
    assert got == [0, 1, 2, 4, 6, 10, 14, 21, 29, 41]


def test_psi_is_p_minus_one(table_mid):
    for n in range(1, 2001):
        assert psi(table_mid, n) == table_mid.p(n) - 1


def test_psi_rejects_zero(table_small):
    with pytest.raises(ValueError):
        psi(table_small, 0)


def test_estimate_converges(table_mid):
    r100 = hardy_ramanujan_estimate(100) / table_mid.p(100)
    r2000 = hardy_ramanujan_estimate(2000) / table_mid.p(2000)
    assert 1.0 < r2000 < r100 < 1.1


def test_estimate_overflow_is_inf():
    assert hardy_ramanujan_estimate(10**9) == math.inf


def test_estimate_rejects_zero():
    with pytest.raises(ValueError):
        hardy_ramanujan_estimate(0)


def test_membership_hits_every_table_value(table_small):
    for n in range(1, 121):
        lookup = is_partition_number(table_small, table_small.p(n))
        assert lookup.out_of_range is False
        # smallest index wins: p(0) = p(1) = 1 reports n = 1
        expect = 1 if table_small.p(n) == 1 else n
        assert lookup.index == expect


def test_membership_rejects_non_values(table_small):
    values = set(table_small.values)
    for v in range(1, 500):
        if v in values:
            continue
        lookup = is_partition_number(table_small, v)
        assert lookup.index is None
        assert lookup.out_of_range is False


def test_membership_out_of_range(table_small):
    lookup = is_partition_number(table_small, table_small.p(120) + 1)
    assert lookup.index is None
    assert lookup.out_of_range is True
    top = is_partition_number(table_small, table_small.p(120))
    assert top.index == 120


def test_save_load_round_trip(tmp_path, table_small):
    path = tmp_path / "table.txt"
    save_table(table_small, path)
    loaded = load_table(path)
    assert loaded == table_small


def test_load_rejects_truncated(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("10\n1\n1\n2\n")
    with pytest.raises(ValueError):
        load_table(path)


@pytest.mark.parametrize(
    "content, message",
    [
        ("", "line 1 is not an integer: ''"),
        ("ten\n1\n", "line 1 is not an integer: 'ten'"),
        ("3\n1\n1\n\n2\n3.0\n", "line 6 is not an integer: '3.0'"),
    ],
)
def test_load_names_the_line_that_is_no_integer(tmp_path, content, message):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ValueError) as err:
        load_table(str(path))
    assert str(err.value) == "cache file %s: %s" % (path, message)


@pytest.mark.parametrize(
    "n, fragment",
    [(10, "differ from the recurrence"), (119, "by 5"), (117, "by 7"), (116, "by 11")],
)
def test_load_rejects_values_off_the_sequence(tmp_path, table_small, n, fragment):
    # p(119), p(117), p(116) sit on the residue classes 5n+4, 7n+5, 11n+6
    values = list(table_small.values)
    values[n] += 1
    path = tmp_path / "bad.txt"
    path.write_text("120\n" + "".join("%d\n" % v for v in values))
    with pytest.raises(ValueError, match=fragment):
        load_table(path)


def test_dump_values(table_small):
    buf = io.StringIO()
    dump_values(table_small, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 121
    assert lines[0] == "1"
    assert lines[-1] == str(table_small.p(120))
