#!/usr/bin/env python3
"""Run the 40-item acceptance batch in one combined scan and write its report rows.

``batch()`` declares the items in ledger order: the closed-form density grid
(quadratic tables for d = -7, -8, -11, the quartic table for d = -4, the cubic
table for d = -3), then the six scaling-law benchmarks, each compared with the
rescaled gcd(m, w)-class partition over the same set (the d = -3, m = 6 rows
also with the product rule).  At --pmax 10000000 the CSV is byte for byte
``tests/data/acceptance_1e7.csv``.  Every row that fails the |z| <= 4 /
gap <= 0.004 rule or has N = 0 is printed, and then the exit code is 1, else 0;
at 1e7 these are the two documented d = -4, t = 3 octic rows.  A row that passes
on its gap alone while |z| > 4 is named on stderr, one line per row.  A range or
worker count the scan refuses exits 2 with a one-line error.

Usage: python3 scripts/run_acceptance_batch.py [--pmax 10000000] [--workers 1]
                                               [--out results/acceptance_batch.csv]
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmresidues.density import (
    Report, ReportRow, ScanItem, conjecture_moduli, density_rows, scaling_rows, scan_batch,
)
from cmresidues.prime_sets import CongMod


def batch() -> list[tuple[ScanItem, str, int]]:
    """(item, "density" or "scaling", symbol modulus m) for the 40 items, in ledger order.

    Twists stay integral and 6-smooth, so the eligible prime set inside each
    family is independent of t (bad primes are < 5)."""
    out = []
    for d in (-7, -8, -11):
        for t in (1, 3, -1, 2):
            out.append((ScanItem(d, Fraction(t), (2,)), "density", 2))
            out.append((ScanItem(d, Fraction(t), (2,), CongMod(4, (1,))), "density", 2))
    for t in (1, 2, -2, 3, 6, -8):
        out.append((ScanItem(-4, Fraction(t), (4,)), "density", 4))
    for t in (1, 2):
        out.append((ScanItem(-3, Fraction(t), (3,)), "density", 3))
        out.append((ScanItem(-3, Fraction(t), (3,), CongMod(9, (1,))), "density", 3))
    for d, t, m in ((-4, 1, 8), (-4, 3, 8), (-7, 1, 4), (-7, 3, 4), (-3, 2, 6), (-3, 2, 9)):
        out.append((ScanItem(d, Fraction(t), conjecture_moduli(d, m)), "scaling", m))
    return out


def batch_rows(results) -> list[ReportRow]:
    """The report rows of ``scan_batch``'s results for ``batch()``'s items, in order."""
    rows = []
    for (_, kind, m), res in zip(batch(), results, strict=True):
        rows += (density_rows if kind == "density" else scaling_rows)(res, m)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pmax", type=int, default=10**7)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", type=str, default="results/acceptance_batch.csv")
    args = parser.parse_args(argv)

    items = [item for item, _, _ in batch()]
    t0 = time.time()
    try:
        report = Report(batch_rows(scan_batch(items, args.pmax, workers=args.workers)))
    except ValueError as e:  # a bad range or worker count, refused as the CLI does
        print(f"error: {e}", file=sys.stderr)
        return 2
    elapsed = time.time() - t0

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.to_csv())

    bad = Report([r for r in report.rows if r.verdict == "fail" or r.N == 0])
    worst = max((abs(r.z) for r in report.rows if r.z is not None), default=0.0)
    print(f"{len(items)} items, {len(report.rows)} rows, p < {args.pmax}, {elapsed:.1f}s -> {out}")
    print(f"worst |z| = {worst:.3f}; {len(bad.rows)} rows fail or have N = 0")
    if bad.rows:
        print(bad.to_csv(), end="")
    for line in report.gap_only_notes():
        print(line, file=sys.stderr)
    return 0 if report.all_pass() else 1


if __name__ == "__main__":
    sys.exit(main())
