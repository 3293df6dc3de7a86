#!/usr/bin/env python3
"""Regenerate every shipped table and data series, then diff against
the frozen reference values.

Computes each artifact of ``partgap.artifacts.REGISTRY`` off one table,
which keeps one record walk per k, and one near-power event sweep,
writes it as CSV into --out and prints one OK/MISMATCH line per
artifact.  Then it refits each published k = 50 model shape off the
k = 50 walk already on the table, prints the refit and published
coefficients and their values at the anchor thresholds in the shape's
window, and prints one OK/MISMATCH line per shape: OK when the refit is
within 10% of the series at each of those anchors.  Coefficient-by-
coefficient agreement is not expected (the low-order terms of such fits
are numerically tender).  Last it checks the paper's first claim, Sun's
conjecture that no p(n) with n > 1 is a perfect power, over the same
table, and prints one sun-scan line: OK when the perfect-power scan
finds none in p(2..n_max) and no power on the bundled exceptional list
is a partition number.  That line writes no CSV.  Exits 1 when anything
differs from the reference.
"""

import argparse
import sys
import time
from pathlib import Path

from partgap import artifacts, reference
from partgap.fitting import LogPolyModel, evaluate, fit_log_poly
from partgap.partitions import build_table
from partgap.repulsion import threshold_rows
from partgap.witnesses import (
    bundled_exceptional_list,
    check_exceptional_powers,
    perfect_power_scan,
)

# Table 1 reads p(10..50), and table 4's runs reach d = 270343, which
# needs p(n_max) - 2 >= 270343: p(51) = 239943, p(52) = 281589.
MIN_N_MAX = 52


def report(name, ok):
    print("%-12s %s" % (name, "OK" if ok else "MISMATCH"))
    return ok


def report_fits(table):
    """Refit each published k = 50 shape off the table's k = 50 walk,
    which in main the figure data has already taken, and report it; True
    when every refit is within 10% of the series at the anchors in its
    window."""
    all_ok = True
    for degree, window, coefficients in reference.PUBLISHED_FITS:
        rows = threshold_rows(table, [10**i for i in range(window + 1)], (50,))
        refit = fit_log_poly([(d, m) for d, (m,) in rows], degree)
        published = LogPolyModel(degree, coefficients, window)
        print("degree %d over d <= 10^%d (k = 50):" % (degree, window))
        for j, (mine, ref) in enumerate(zip(refit.coefficients, coefficients)):
            print("  c%d  refit % .6g   published % .6g" % (j, mine, ref))
        anchors_ok = True
        for d, m in reference.FIT_ANCHORS:
            if d > 10**window:
                continue
            got = evaluate(refit, d)
            print(
                "  at d = 10^%-3d  refit %8.1f   published %8.1f   series %d"
                % (len(str(d)) - 1, got, evaluate(published, d), m)
            )
            anchors_ok &= abs(got - m) <= 0.10 * m
        all_ok &= report("fit-k50-deg%d" % degree, anchors_ok)
    return all_ok


def report_sun_scan(table):
    """Sun's claim over the table: no p(n), 2 <= n <= n_max, is a
    perfect power, and no base^power of the bundled exceptional list is
    a partition number.  True when both hold."""
    exceptional = check_exceptional_powers(bundled_exceptional_list())
    return report("sun-scan", not perfect_power_scan(table) and exceptional.all_clear)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="reproduction", help="output directory")
    ap.add_argument("--n-max", type=int, default=25000)
    args = ap.parse_args(argv)
    if args.n_max < MIN_N_MAX:
        ap.error("--n-max must be >= %d, got %d" % (MIN_N_MAX, args.n_max))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    table = build_table(args.n_max)
    print("built p(0..%d) in %.1fs" % (args.n_max, time.time() - t0))
    all_ok = True
    for artifact in artifacts.REGISTRY:
        rows = artifact.compute(table)
        with open(out / ("%s.csv" % artifact.name.replace("-", "_")), "w", newline="") as fh:
            artifacts.write_csv(fh, artifact.header, rows)
        mismatches = artifacts.diff(artifact.cells(rows), artifact.want)
        all_ok &= report(artifact.name, not mismatches)

    all_ok &= report_fits(table)
    all_ok &= report_sun_scan(table)
    print("total %.1fs, outputs in %s" % (time.time() - t0, out))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
