"""Command-line front end.

Subcommands build partition tables, print the published table layouts
(optionally checking them against the frozen reference values), scan
for near-power and perfect-power behaviour, and fit log-polynomial
models.  Exit status: 0 success / verification passed, 1 verification
failed (reference mismatch, uncovered index, counterexample found),
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections.abc import Sequence

from . import artifacts, fitting, repulsion, witnesses
from .partitions import (
    PartitionTable,
    build_table,
    cache_int,
    dump_values,
    hardy_ramanujan_estimate,
    load_table,
    log_hardy_ramanujan,
    save_table,
)
from .roots import nearest_power_distance

CACHE_ENV = "PARTGAP_CACHE_DIR"
_CACHE_PATTERN = re.compile(r"^ptable_(\d+)\.txt$")


def _cache_dir(args) -> str | None:
    if getattr(args, "cache", None):
        return args.cache
    return os.environ.get(CACHE_ENV) or None


def _acquire_table(args, n_max: int, ks: Sequence[int] = ()) -> PartitionTable:
    """Build p(0..n_max), reusing a cached table when one suffices.

    Of a longer cached table only p(0..n_max) is read and checked, so
    what a command reports never depends on what the cache holds, and a
    small query pays little for a large cache.  With a cache directory,
    the record walk of each k in ``ks`` is read from its walk file
    ``pwalk_<n_max>_k<k>.txt`` into ``table.walks``, or walked and saved
    there when the file is missing.  Commands call it after every check
    of their input that needs no table, so input they reject leaves no
    cache file behind.
    """
    if n_max < 1:
        raise ValueError("--n-max must be >= 1, got %d" % n_max)
    directory = _cache_dir(args)
    if directory is None:
        return build_table(n_max)
    table = _cached_table(directory, n_max)
    for k in ks:
        path = os.path.join(directory, "pwalk_%d_k%d.txt" % (n_max, k))
        if os.path.exists(path):
            table.walks[k] = repulsion.load_walk(path, table, k)
        else:
            repulsion.save_walk(table, k, path)
    return table


def _cached_table(directory: str, n_max: int) -> PartitionTable:
    # p(0..n_max) from the smallest cached table that holds it, or built
    # and saved as ptable_<n_max>.txt
    names = os.listdir(directory) if os.path.isdir(directory) else []
    candidates = [
        (int(m.group(1)), name) for name in names
        if (m := _CACHE_PATTERN.match(name)) and int(m.group(1)) >= n_max
    ]
    if candidates:
        size, name = min(candidates)
        path = os.path.join(directory, name)
        with open(path, "rb") as fh:
            header = cache_int(path, 1, fh.readline())
        if header != size:
            raise ValueError(
                "cache file %s: file name says n_max=%d but header says %d"
                % (path, size, header)
            )
        return load_table(path, n_max)
    table = build_table(n_max)
    os.makedirs(directory, exist_ok=True)
    save_table(table, os.path.join(directory, "ptable_%d.txt" % n_max))
    return table


def _parse_exponents(text: str) -> tuple[int, ...]:
    """Exponent list syntax: 'LO..HI' or comma-separated integers >= 0."""
    text = text.strip()
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            raise ValueError("empty exponent range %r" % text)
        return tuple(range(lo, hi + 1))
    try:
        exponents = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError("bad exponent list %r (use LO..HI or a,b,c)" % text)
    if any(i < 0 for i in exponents):
        raise ValueError("d exponents must be >= 0")
    return exponents


def _parse_k_list(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError("bad k list %r (use a comma-separated list)" % text)
    if any(k < 2 for k in ks):
        raise ValueError("every k must be >= 2")
    if len(set(ks)) != len(ks):
        raise ValueError("k values must be distinct")
    return ks


def _parse_threshold(text: str) -> int:
    """Exact threshold: plain decimal or 10^i."""
    m = re.fullmatch(r"10\^(\d+)", text.strip())
    if m:
        return 10 ** int(m.group(1))
    try:
        return int(text)
    except ValueError:
        raise ValueError("bad threshold %r (use an integer or 10^i)" % text)


# ---------------------------------------------------------------- pn

def _require_n(n: int) -> None:
    # checked before any table is built or cached
    if n < 0:
        raise ValueError("n must be >= 0, got %d" % n)


def cmd_pn(args) -> int:
    _require_n(args.n)
    if args.estimate and args.n < 1:
        raise ValueError("--estimate needs n >= 1")
    table = _acquire_table(args, max(args.n, 1))
    if args.export:
        # before any output, so a failed export prints no result; the
        # table reaches p(1) at least, the file holds p(0..n) only
        with open(args.export, "w", encoding="ascii") as fh:
            dump_values(PartitionTable(table.values[: args.n + 1]), fh)
    value = table.p(args.n)
    print(value)
    if args.estimate:
        est = hardy_ramanujan_estimate(args.n)
        # from logs: past float range est is inf and p(n) has no float
        ratio = math.exp(log_hardy_ramanujan(args.n) - math.log(value))
        print("estimate=%.6g ratio=%.6g" % (est, ratio))
    return 0


# ------------------------------------------------------------- delta

def cmd_delta(args) -> int:
    _require_n(args.n)
    if args.k < 2:
        raise ValueError("k must be >= 2, got %d" % args.k)
    table = _acquire_table(args, max(args.n, 1))
    base, distance = nearest_power_distance(table.p(args.n), args.k)
    if args.verbose:
        print("n=%d k=%d nearest_base=%d distance=%d" % (args.n, args.k, base, distance))
    else:
        print(distance)
    return 0


# ------------------------------------------------------------ tables

def cmd_table(args) -> int:
    """Every table command: ``args.artifact_of(args)`` checks the
    command's own input and names its artifact and n_max; the rows are
    then checked against the artifact's reference or printed in one of
    its layouts."""
    artifact, n_max = args.artifact_of(args)
    if args.check and artifact.unchecked:
        raise ValueError(artifact.unchecked)
    rows = artifact.compute(_acquire_table(args, n_max, artifact.ks))
    if args.check:
        mismatches = artifacts.diff(artifact.cells(rows), artifact.want)
        for line in mismatches:
            print("MISMATCH %s" % line)
        if mismatches:
            print("%s: FAILED (%d mismatches)" % (artifact.name, len(mismatches)))
            return 1
        print("%s: OK (%d cells)" % (artifact.name, len(artifact.want)))
        return 0
    if args.format == "csv":
        artifacts.write_csv(sys.stdout, artifact.header, rows)
    elif args.format == "json":
        print(json.dumps(artifact.json(rows, n_max), indent=2))
    else:
        for line in artifact.lines(rows):
            print(line)
    return 0


def _figure_data(args) -> tuple[artifacts.Artifact, int]:
    k_values = _parse_k_list(args.k)
    exponents = _parse_exponents(args.d_exp)
    return artifacts.figure_data(k_values, exponents), args.n_max


# ----------------------------------------------------------- s-check

def cmd_s_check(args) -> int:
    if (args.n is None) == (args.range is None):
        raise ValueError("give exactly one of N or --range LO HI")
    if args.n is not None:
        lo = hi = args.n
    else:
        lo, hi = args.range
        if lo > hi:
            raise ValueError("--range needs LO <= HI, got %d %d" % (lo, hi))
    n_max = max(hi, 1)
    if lo < 0:  # coverage_scan's message for the table this would build
        raise ValueError("scan range [%d, %d] outside table 0..%d" % (lo, hi, n_max))
    table = _acquire_table(args, n_max)
    statuses = witnesses.coverage_scan(table, lo, hi)
    uncovered = 0
    for st in statuses:
        if st.witness is not None:
            w = st.witness
            print(
                "n=%d covered: p(n) = %d^2 + %d^%d" % (st.n, w.x, w.prime, w.exponent)
            )
        else:
            uncovered += 1
            print("n=%d uncovered" % st.n)
    print("covered %d/%d" % (len(statuses) - uncovered, len(statuses)))
    return 1 if uncovered else 0


# ------------------------------------------------------------ missed

def cmd_missed(args) -> int:
    # each value is written as the sieve is read: no list of them is kept
    try:
        values = witnesses._missed(args.bound)
    except MemoryError:
        raise ValueError(
            "missed --bound %d ran out of memory: its sieve needs %d bytes"
            % (args.bound, args.bound + 1)
        ) from None
    sys.stdout.writelines(map("%d\n".__mod__, values))
    return 0


# --------------------------------------------------------- verify-bs

def cmd_verify_bs(args) -> int:
    if args.bs_list:
        tuples = witnesses.load_exceptional_list(args.bs_list)
    else:
        tuples = witnesses.bundled_exceptional_list()
    table = _acquire_table(args, args.n_max) if args.n_max is not None else None
    report = witnesses.check_exceptional_powers(tuples, table)
    for c in report.checks:
        t = c.candidate
        verdict = (
            "IS p(%d)" % c.lookup.index
            if c.lookup.index is not None
            else "not a partition number"
        )
        print(
            "%d^%d + x^2 = %d^%d -> %d: %s"
            % (t.prime, t.exponent, t.base, t.power, c.value, verdict)
        )
    if report.all_clear:
        print("all clear: %d powers checked against n_max=%d" % (len(report.checks), report.n_max))
        return 0
    print("FAILED: some listed power is a partition number")
    return 1


# ---------------------------------------------------------- sun-scan

def cmd_sun_scan(args) -> int:
    if args.n_max < 2:
        raise ValueError("--n-max must be >= 2, got %d" % args.n_max)
    table = _acquire_table(args, args.n_max)
    hits = witnesses.perfect_power_scan(table, 2, args.n_max)
    for n, w in hits:
        print("n=%d: p(n) = %d^%d" % (n, w.base, w.exponent))
    if hits:
        print("FOUND %d perfect powers" % len(hits))
        return 1
    print("no perfect powers among p(2..%d)" % args.n_max)
    return 0


# --------------------------------------------------------------- fit

def cmd_fit(args) -> int:
    d_values = [10**i for i in _parse_exponents(args.d_exp)]
    if args.k < 2:
        raise ValueError("every k must be >= 2")
    fitting._require_fit(d_values, args.degree)
    at = [_parse_threshold(s) for s in args.eval or []]
    for d in at:
        if d < 1:
            raise ValueError("model is defined for d >= 1, got %r" % (d,))
    table = _acquire_table(args, args.n_max, (args.k,))
    rows = repulsion.threshold_rows(table, d_values, (args.k,))
    model = fitting.fit_log_poly([(d, m) for d, (m,) in rows], args.degree)
    evals = [(d, fitting.evaluate(model, d)) for d in at]
    if args.format == "json":
        obj = model._asdict()
        obj["k"] = args.k
        obj["n_max"] = args.n_max
        if evals:
            obj["evaluations"] = [[d, v] for d, v in evals]
        print(json.dumps(obj, indent=2))
    else:
        print(
            "k=%d degree=%d window_exponent=%d n_max=%d"
            % (args.k, model.degree, model.window_exponent, args.n_max)
        )
        for j, c in enumerate(model.coefficients):
            print("c%d=%.6g" % (j, c))
        for d, v in evals:
            print("f(%d)=%.6g" % (d, v))
    return 0


# ------------------------------------------------------------ parser

def _add_cache(p) -> None:
    p.add_argument(
        "--cache",
        metavar="DIR",
        help="directory for table cache files (env %s)" % CACHE_ENV,
    )


def _add_format(p, choices=("csv", "json", "text"), default="csv") -> None:
    p.add_argument("--format", choices=list(choices), default=default)


def _add_table(p, artifact_of, default_format="csv") -> None:
    # Added after the command's own options, so --help keeps its order.
    p.add_argument("--check", action="store_true")
    _add_format(p, default=default_format)
    _add_cache(p)
    p.set_defaults(func=cmd_table, artifact_of=artifact_of)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partgap",
        description="Exact partition numbers and their distances to perfect powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pn", help="print p(n)")
    p.add_argument("n", type=int)
    p.add_argument("--estimate", action="store_true", help="also print the asymptotic estimate and ratio")
    p.add_argument("--export", metavar="FILE", help="write p(0..n) to FILE, one value per line")
    _add_cache(p)
    p.set_defaults(func=cmd_pn)

    p = sub.add_parser("delta", help="distance from p(n) to the nearest k-th power")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--verbose", action="store_true", help="print the full distance record")
    _add_cache(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("table1", help="sample distances for n = 10..50, k = 2..4")
    _add_table(p, lambda args: (artifacts.TABLE1, 50))

    p = sub.add_parser("table2", help="largest n within d of a k-th power, d = 0 and powers of ten")
    p.add_argument("--n-max", type=int, default=repulsion.DEFAULT_N_MAX)
    _add_table(p, lambda args: (artifacts.TABLE2, args.n_max))

    p = sub.add_parser("table3", help="largest n within d of a k-th power, d = 0..6")
    p.add_argument("--n-max", type=int, default=repulsion.DEFAULT_N_MAX)
    _add_table(p, lambda args: (artifacts.TABLE3, args.n_max))

    p = sub.add_parser("table4", help="stabilization indices n_d as constant runs over d")
    p.add_argument("--n-max", type=int, default=repulsion.DEFAULT_N_MAX)
    p.add_argument("--d-max", default="2534", metavar="D", help="last d of the runs (integer or 10^i)")
    _add_table(p, lambda args: (artifacts.table4(_parse_threshold(args.d_max)), args.n_max))

    p = sub.add_parser("figure-data", help="per-k series at d = 10^i, plot-ready")
    p.add_argument("--n-max", type=int, default=repulsion.DEFAULT_N_MAX)
    p.add_argument("--k", default="2,3,4,5,6,7,8,50", help="comma-separated k list")
    p.add_argument("--d-exp", default="0..70", help="exponent range LO..HI or list a,b,c")
    _add_table(p, _figure_data, default_format="text")

    p = sub.add_parser("s-check", help="square-plus-prime-power decompositions of p(n)")
    p.add_argument("n", type=int, nargs="?")
    p.add_argument("--range", type=int, nargs=2, metavar=("LO", "HI"))
    _add_cache(p)
    p.set_defaults(func=cmd_s_check)

    p = sub.add_parser("missed", help="values with no square-plus-prime-power form")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=cmd_missed)

    p = sub.add_parser("verify-bs", help="check the exceptional powers against the partition sequence")
    p.add_argument("--bs-list", metavar="PATH", help="tuple file (default: bundled list)")
    p.add_argument("--n-max", type=int, help="table size (default: sized automatically)")
    _add_cache(p)
    p.set_defaults(func=cmd_verify_bs)

    p = sub.add_parser("sun-scan", help="scan p(n) for perfect powers")
    p.add_argument("--n-max", type=int, default=10000)
    _add_cache(p)
    p.set_defaults(func=cmd_sun_scan)

    p = sub.add_parser("fit", help="least-squares log-polynomial model of a series")
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--degree", type=int, default=5)
    p.add_argument("--n-max", type=int, default=repulsion.DEFAULT_N_MAX)
    p.add_argument("--d-exp", default="0..70", help="exponent range LO..HI or list a,b,c")
    p.add_argument("--eval", action="append", metavar="D", help="evaluate the model at D (integer or 10^i); repeatable")
    _add_format(p, choices=("json", "text"), default="text")
    _add_cache(p)
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
