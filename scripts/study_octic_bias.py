#!/usr/bin/env python3
"""Track the octic order-1 vs order-2 bias for d = -4, t = 3 with height.

The scaling law predicts that among split p ≡ 1 (mod 8) with quartic class
of a_p trivial, octic order 1 and 2 each take half.  Empirically the
order-1 side is ahead, and the excess does not behave like noise: the raw
gap decays with height, but more slowly than 1/sqrt(x), so its conditional
significance keeps growing.  This script measures that directly with
cumulative scans over increasing ranges (each segment is scanned once and
merged, so the total cost is one pass to the final height).

Columns: eligible N, octic order-1/2 densities, quartic-trivial density,
their gap, and the gap in units of its binomial sigma sqrt(q/N) (the
standard deviation of d1 - d2 given the quartic-trivial mass q).  A height
with N = 0 prints only N, and one with q = 0 no gap/sigma; the script exits 1
if the final N is 0, and 2 with a one-line error for a height, worker count
or --t the scan refuses.

Usage: python3 scripts/study_octic_bias.py [--heights 1e7 2e7 4e7 6e7]
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmresidues.density import ScanItem, scan_batch
from cmresidues.primes import parse_rational


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--heights", type=float, nargs="+", default=[1e7, 2e7, 4e7, 6e7])
    ap.add_argument("--t", type=str, default="3")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    heights = sorted(int(h) for h in args.heights)
    lo, acc = 5, None
    for hi in heights:
        t0 = time.time()
        try:
            item = ScanItem(-4, parse_rational(args.t), (8, 4))
            res = scan_batch([item], hi, p_min=lo, workers=args.workers)[0]
        except ValueError as e:  # a bad --t, height or worker count, refused as the CLI does
            print(f"error: {e}", file=sys.stderr)
            return 2
        acc = res if acc is None else (acc.merge(res) or acc)
        lo = hi
        N = acc.total
        line = f"x={hi:.0e}: N={N}"
        if N:
            d1, d2 = acc.count(8, 1) / N, acc.count(8, 2) / N
            q = acc.count(4, 1) / N
            line += f" d8_1={d1:.6f} d8_2={d2:.6f} q4_1={q:.6f} gap={d1 - d2:.6f}"
            if q:
                line += f" gap/sigma={(d1 - d2) / math.sqrt(q / N):.2f}"
        print(f"{line} [{time.time() - t0:.0f}s]", flush=True)
    return 0 if acc.total else 1  # no eligible prime: nothing was measured


if __name__ == "__main__":
    raise SystemExit(main())
