#!/usr/bin/env python3
"""Regenerate every shipped table and data series, then diff against
the frozen reference values.

Computes each artifact of ``partgap.artifacts.REGISTRY`` off one table,
which keeps one record walk per k, and one near-power event sweep,
writes it as CSV into --out and prints one OK/MISMATCH line per
artifact, plus one for the refit of the k = 50 model.  Exits 1 when
anything differs from the reference.
"""

import argparse
import sys
import time
from pathlib import Path

from partgap import artifacts, reference
from partgap.fitting import evaluate, fit_log_poly
from partgap.partitions import build_table
from partgap.repulsion import DEFAULT_EXPONENTS, threshold_rows

# Table 1 reads p(10..50), and table 4's runs reach d = 270343, which
# needs p(n_max) - 2 >= 270343: p(51) = 239943, p(52) = 281589.
MIN_N_MAX = 52


def report(name, ok):
    print("%-12s %s" % (name, "OK" if ok else "MISMATCH"))
    return ok


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

    # the k = 50 walk the figure data kept on the table
    d_values = [10**i for i in DEFAULT_EXPONENTS]
    rows = threshold_rows(table, d_values, (50,))
    refit = fit_log_poly([(d, m) for d, (m,) in rows], 5)
    anchors_ok = all(
        abs(evaluate(refit, d) - m) <= 0.10 * m for d, m in reference.FIT_ANCHORS
    )
    all_ok &= report("fit-k50", anchors_ok)

    print("total %.1fs, outputs in %s" % (time.time() - t0, out))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
