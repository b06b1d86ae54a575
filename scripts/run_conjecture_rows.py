#!/usr/bin/env python3
"""Check the scaling law on its benchmark rows in one combined scan.

Rows: (d = -4, m = 8, t in {1, 3}), (d = -7, m = 4, t in {1, 3}),
(d = -3, m in {6, 9}, t = 2).  Each m-class partition is compared against
the rescaled empirical gcd(m, w)-class partition over the same conditioned
set (both tallied in the same pass, so the denominators agree exactly);
the d = -3, m = 6 rows also get the product-rule comparison
δ_6^n vs δ_2^(n,2) · δ_3^(n,3).

Usage: python3 scripts/run_conjecture_rows.py [--pmax 10000000] [--workers 1]
                                              [--out results/conjecture_rows.csv]
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmresidues.density import (
    Report,
    ScanItem,
    base_meta,
    conjecture_moduli,
    scaling_rows,
    scan_batch,
)

ROWS = [(-4, 1, 8), (-4, 3, 8), (-7, 1, 4), (-7, 3, 4), (-3, 2, 6), (-3, 2, 9)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pmax", type=int, default=10**7)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", type=str, default="results/conjecture_rows.csv")
    args = parser.parse_args()

    items = [ScanItem(d, Fraction(t), conjecture_moduli(d, m)) for d, t, m in ROWS]
    t0 = time.time()
    results = scan_batch(items, args.pmax, workers=args.workers)
    elapsed = time.time() - t0

    report = Report(meta=base_meta(args.pmax))
    for (d, t, m), res in zip(ROWS, results):
        report.rows.extend(scaling_rows(res, m))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.to_csv())

    fails = [r for r in report.rows if r.verdict == "fail"]
    worst = max((abs(r.z) for r in report.rows if r.z is not None), default=0.0)
    print(f"{len(ROWS)} benchmark rows, {len(report.rows)} report rows, p < {args.pmax}, {elapsed:.0f}s")
    print(f"worst |z| = {worst:.3f}; {len(fails)} failing rows -> {out}")
    for r in fails:
        print(f"  FAIL d={r.d} t={r.t} m={r.m} n={r.n} src={r.source} "
              f"emp={r.empirical:.6f} pred={r.predicted} z={r.z}")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
