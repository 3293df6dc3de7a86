"""Acceptance gate: one test per published-result criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASSED or
FAILED line per criterion.  Exact-integer criteria use equality; the
fit criteria use the stated percentage tolerances.
"""

import random
import time

from partgap import reference
from partgap.artifacts import TABLE1, TABLE2, TABLE3, diff, figure_data, table4
from partgap.fitting import LogPolyModel, evaluate, fit_log_poly
from partgap.partitions import build_table, count_partitions_oracle, p1, psi
from partgap.repulsion import n_d_batch, n_d_intervals, threshold_rows
from partgap.roots import floor_kth_root
from partgap.witnesses import (
    bundled_exceptional_list,
    check_exceptional_powers,
    coverage_scan,
    missed_values,
    perfect_power_scan,
)


def test_criterion_01_table1_exact():
    start = time.perf_counter()
    rows = TABLE1.compute(build_table(50))
    assert diff(TABLE1.cells(rows), TABLE1.want) == []
    assert time.perf_counter() - start < 1.0
    print("criterion 1 PASS: table 1 exact, %d cells" % len(TABLE1.want))


def test_criterion_02_table2_exact(table25k):
    rows = TABLE2.compute(table25k)
    assert diff(TABLE2.cells(rows), TABLE2.want) == []
    print(
        "criterion 2 PASS: table 2 exact, %d cells at n_max=25000" % len(TABLE2.want)
    )


def test_criterion_03_figure_series_exact(table25k):
    artifact = figure_data((2,))
    rows = artifact.compute(table25k)
    assert diff(artifact.cells(rows), artifact.want) == []
    coords = dict(rows)
    assert coords[3] == 143
    assert coords[35] == 5030
    assert coords[70] == 18237
    print("criterion 3 PASS: figure series for k=2 exact, %d points" % len(rows))


def test_criterion_04_table3_exact(table25k):
    rows = TABLE3.compute(table25k)
    assert diff(TABLE3.cells(rows), TABLE3.want) == []
    cells = {d: tuple(row) for d, *row in rows}
    assert cells[2][reference.REFERENCE_K_VALUES.index(4)] == 20
    assert cells[4][reference.REFERENCE_K_VALUES.index(6)] == 4
    print("criterion 4 PASS: table 3 exact, %d cells" % len(TABLE3.want))


def test_criterion_05_table4_endpoints(table25k, events_full):
    # n_d at both ends of the first ten published runs
    want = {d: n for lo, hi, n in reference.TABLE4_INTERVALS[:10] for d in (lo, hi)}
    endpoints = sorted(want)
    assert n_d_batch(table25k, endpoints, events=events_full) == want
    # full interval decomposition, including the ranges above 2534:
    # the event sweep answers every d at once, so the long-running
    # part costs nothing extra here
    artifact = table4()
    runs = n_d_intervals(table25k, 270343, events=events_full)
    assert diff(artifact.cells(runs), artifact.want) == []
    print(
        "criterion 5 PASS: table 4 exact at %d endpoints and all %d runs"
        % (len(endpoints), len(runs))
    )


def test_criterion_06_example_reproduction(table_small):
    assert missed_values(176) == list(reference.MISSED_176)
    assert all(s.covered for s in coverage_scan(table_small, 3, 15))
    print("criterion 6 PASS: ten missed values and covered scan 3..15")


def test_criterion_07_uncovered_indices(table_small):
    scan = coverage_scan(table_small, 2, 19)
    absent = tuple(s.n for s in scan if not s.covered)
    assert absent == reference.UNCOVERED_2_TO_19
    print("criterion 7 PASS: uncovered indices in 2..19 are exactly 2, 16, 19")


def test_criterion_08_exceptional_list_clear():
    tuples = bundled_exceptional_list()
    report = check_exceptional_powers(tuples)
    assert len(report.checks) == 6
    assert max(c.value for c in report.checks) == 12545**3
    for c in report.checks:
        assert c.lookup.index is None
        assert c.lookup.out_of_range is False  # table reached past the value
    assert report.all_clear
    print("criterion 8 PASS: all six exceptional powers miss the sequence")


def test_criterion_09_no_perfect_powers(table25k):
    assert perfect_power_scan(table25k, 2, 25000) == []
    print("criterion 9 PASS: no perfect power p(n) for 1 < n <= 25000")


def test_criterion_10_identity_suite(table25k):
    for n in range(1, 10001):
        assert psi(table25k, n) == table25k.p(n) - 1
    assert tuple(p1(table25k, n) for n in range(0, 11)) == reference.P1_THROUGH_10
    assert (
        tuple(psi(table25k, n) for n in range(1, 11)) == reference.PSI_THROUGH_10
    )
    print("criterion 10 PASS: psi identity to 10000 and series prefixes")


def test_criterion_11_oracle_and_congruences(table25k):
    for n in range(0, 501):
        assert table25k.p(n) == count_partitions_oracle(n)
    values = table25k.values
    for n in range(4, 25001, 5):
        assert values[n] % 5 == 0
    for n in range(5, 25001, 7):
        assert values[n] % 7 == 0
    for n in range(6, 25001, 11):
        assert values[n] % 11 == 0
    print("criterion 11 PASS: DP oracle to 500, congruence suite to 25000")


def test_criterion_12_root_correctness():
    for k in range(2, 21):
        boundary = []
        r = 1
        while r**k <= 10**6:
            boundary.append(r**k)
            r += 1
        want = []
        r = 0
        walker = iter(boundary + [None])
        nxt = next(walker)
        for v in range(0, 10**6 + 1):
            if nxt is not None and v == nxt:
                r += 1
                nxt = next(walker)
            want.append(r)
        got = [floor_kth_root(v, k).root for v in range(0, 10**6 + 1)]
        assert got == want, "floor root disagrees for k=%d" % k
    rng = random.Random(20260816)
    for _ in range(10**4):
        v = rng.randrange(0, 10**200)
        k = rng.randrange(2, 129)
        root, exact = floor_kth_root(v, k)
        assert root**k <= v < (root + 1) ** k
        assert exact == (root**k == v)
    print("criterion 12 PASS: exhaustive roots to 10^6 and 10^4 random sandwiches")


def test_criterion_13_fit_evaluation(table25k):
    # the degree-5 fit, the one over the whole published d range
    degree, window, coefficients = reference.PUBLISHED_FITS[-1]
    published = LogPolyModel(degree, coefficients, window)
    for d, m in reference.FIT_ANCHORS:
        got = evaluate(published, d)
        assert abs(got - m) <= 0.05 * m, "published model off at d=%d" % d
    d_values = [10**i for i in range(window + 1)]
    rows = threshold_rows(table25k, d_values, (50,))
    refit = fit_log_poly([(d, m) for d, (m,) in rows], degree)
    for d, m in reference.FIT_ANCHORS:
        got = evaluate(refit, d)
        assert abs(got - m) <= 0.10 * m, "refit off at d=%d" % d
    print("criterion 13 PASS: published model within 5%, refit within 10%")
