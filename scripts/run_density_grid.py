#!/usr/bin/env python3
"""Run the closed-form density grid in one combined scan.

Covers the three table families at once (a_p is computed once per (d, t, p)
across all rows that share a curve):

* quadratic: d in {-7, -8, -11}, t in {1, 3, -1, 2}, symbol m = 2,
  conditioning mod 2 and mod 4;
* quartic:   d = -4, t in {1, 2, -2, 3, 6, -8}, symbol m = 4, conditioning
  mod 4;
* cubic:     d = -3, t in {1, 2}, symbol m = 3, conditioning mod 3 and mod 9.

Writes one CSV (all rows) and prints a verdict summary.  Exit 1 if any row
fails the |z| <= 4 / gap <= 0.004 rule.

Usage: python3 scripts/run_density_grid.py [--pmax 10000000] [--workers 1]
                                           [--out results/density_grid.csv]
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmresidues.density import Report, ScanItem, base_meta, density_rows, scan_batch
from cmresidues.prime_sets import CongMod


def grid_items() -> list[tuple[ScanItem, int]]:
    """(item, symbol modulus) pairs for the whole closed-form grid."""
    items: list[tuple[ScanItem, int]] = []
    for d in (-7, -8, -11):
        for t in (1, 3, -1, 2):
            items.append((ScanItem(d, Fraction(t), (2,)), 2))
            items.append((ScanItem(d, Fraction(t), (2,), CongMod(4, (1,))), 2))
    for t in (1, 2, -2, 3, 6, -8):
        items.append((ScanItem(-4, Fraction(t), (4,)), 4))
    for t in (1, 2):
        items.append((ScanItem(-3, Fraction(t), (3,)), 3))
        items.append((ScanItem(-3, Fraction(t), (3,), CongMod(9, (1,))), 3))
    return items


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pmax", type=int, default=10**7)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", type=str, default="results/density_grid.csv")
    args = parser.parse_args()

    pairs = grid_items()
    t0 = time.time()
    results = scan_batch([item for item, _ in pairs], args.pmax, workers=args.workers)
    elapsed = time.time() - t0

    report = Report(meta=base_meta(args.pmax))
    for (item, m), res in zip(pairs, results):
        report.rows.extend(density_rows(res, m))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.to_csv())

    fails = [r for r in report.rows if r.verdict == "fail"]
    worst = max((abs(r.z) for r in report.rows if r.z is not None), default=0.0)
    print(f"{len(pairs)} grid cells, {len(report.rows)} rows, p < {args.pmax}, {elapsed:.0f}s")
    print(f"worst |z| = {worst:.3f}; {len(fails)} failing rows -> {out}")
    for r in fails:
        print(f"  FAIL d={r.d} t={r.t} m={r.m} n={r.n} set={r.set!r} "
              f"emp={r.empirical:.6f} pred={r.predicted} z={r.z}")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
