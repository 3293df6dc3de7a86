#!/usr/bin/env python3
"""Fit the two shipped log-polynomial model shapes for the k = 50
series and compare them with the published coefficients.

Coefficient-by-coefficient agreement is not expected (the low-order
terms of such fits are numerically tender); what should and does agree
is the evaluation at the anchor thresholds.
"""

import argparse
import sys
import time

from partgap import reference
from partgap.fitting import LogPolyModel, evaluate, fit_log_poly
from partgap.partitions import build_table
from partgap.repulsion import threshold_rows

SHAPES = (
    (3, 12, reference.PUBLISHED_DEG3_WINDOW12),
    (5, 70, reference.PUBLISHED_DEG5_WINDOW70),
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=25000)
    ap.add_argument("--k", type=int, default=50)
    args = ap.parse_args()
    if args.n_max < 1:
        ap.error("--n-max must be >= 1, got %d" % args.n_max)
    if args.k < 2:
        ap.error("--k must be >= 2, got %d" % args.k)

    t0 = time.time()
    table = build_table(args.n_max)
    print("table ready in %.1fs" % (time.time() - t0))

    for degree, window, published_coeffs in SHAPES:
        rows = threshold_rows(table, [10**i for i in range(window + 1)], (args.k,))
        model = fit_log_poly([(d, m) for d, (m,) in rows], degree)
        published = LogPolyModel(
            degree=degree,
            coefficients=published_coeffs,
            window_exponent=window,
        )
        print()
        print(
            "degree %d over d <= 10^%d (k = %d):" % (degree, window, args.k)
        )
        for j, (mine, ref) in enumerate(
            zip(model.coefficients, published.coefficients)
        ):
            print("  c%d  refit % .6g   published % .6g" % (j, mine, ref))
        for d, m in reference.FIT_ANCHORS:
            if d > 10**window:
                continue
            print(
                "  at d = 10^%-3d  refit %8.1f   published %8.1f   series %d"
                % (len(str(d)) - 1, evaluate(model, d), evaluate(published, d), m)
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
