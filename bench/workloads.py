"""Workload definitions: item lists, heights, suite sizes and seed-derived inputs.

A plan is plain data (ints, strings, lists and dicts), so the harness, which
never imports cmresidues, and the workload processes, which do, read one
description of a run.  The item lists are written out here rather than
imported from the test suite or the scripts, so the benchmark keeps its
inputs when those files change.

Each plan has a scan part and a suite part.  The part a workload does not
time is a small probe that only the traced run executes, so that every
per-layer metric exists on every workload:

* sweep:  scan = the 40-item acceptance batch to SWEEP_HEIGHT, one worker;
          suites = probe sizes.
* octic:  scan = the d = -4, t = 3 octic item to OCTIC_HEIGHT in cumulative
          steps, two workers; suites = probe sizes.
* verify: suites = the nine exact suites at VERIFY_SIZES;
          scan = the octic item to PROBE_HEIGHT.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "octic", "verify")

# Width of one engine segment: the default chunk of cmresidues.density.scan_batch.
SCAN_CHUNK = 250_000

SWEEP_HEIGHT = 60_000
OCTIC_HEIGHT = 4_000_000
PROBE_HEIGHT = 500_000
POOL_WORKERS = 2  # the machine the benchmark was written on has two cores

# Suites in the order they run, with the prime bound each one scans to.
# The sizes give every suite a measurable share of a round of about 4 s.
VERIFY_SIZES = {
    "trace-oracle": 6_000,
    "odd-factor": 120_000,
    "two-factor": 120_000,
    "trace-symbol": 30_000,
    "nine-cells": 20_000,
    "quadratic": 12_000,
    "cubic": 30_000,
    "sextic-order1": 30_000,
    "twist": 1_500,
}
PROBE_SIZES = {name: 2_000 for name in VERIFY_SIZES} | {"twist": 1_000}

W2_DISCRIMINANTS = [-7, -8, -11, -19, -43, -67, -163]
QUADRATIC_DISCRIMINANTS = [-3] + W2_DISCRIMINANTS + [-4]

# Twist pools the seed draws from.  Every member was run through its suites
# at VERIFY_SIZES with zero violations, so no seed can pick a failing input.
QUARTIC_TWISTS = ["1", "2", "-2", "3", "-3", "5", "6", "-8", "7", "10", "1/2", "3/4"]
SEXTIC_TWISTS = ["1", "2", "3", "5", "6", "7", "-2", "10", "1/2", "4/9"]
QUADRATIC_TWISTS = ["1", "2", "3", "5", "6", "7", "-1", "-2", "-3", "10", "1/2", "3/5"]

# (pool, how many twists the seed draws, discriminants passed as ds)
_SUITE_INPUTS = {
    "trace-oracle": (QUARTIC_TWISTS, 6, None),
    "odd-factor": (None, 0, None),
    "two-factor": (None, 0, None),
    "trace-symbol": (QUARTIC_TWISTS, 6, None),
    "nine-cells": (QUARTIC_TWISTS, 6, None),
    "quadratic": (QUADRATIC_TWISTS, 3, QUADRATIC_DISCRIMINANTS),
    "cubic": (SEXTIC_TWISTS, 3, None),
    "sextic-order1": (SEXTIC_TWISTS, 3, None),
    "twist": (QUADRATIC_TWISTS, 3, W2_DISCRIMINANTS),
}

# The two rows of the documented d = -4, t = 3 octic prime race: judged by
# the same rule as every other row, but not required to pass.
ANOMALY_ROWS = {(-4, "3", 8, 1), (-4, "3", 8, 2)}


def _item(d, t, moduli, report, extra=None):
    """extra is None or [M, [r, ...]] for the congruence condition mod(M; r, ...)."""
    return {"d": d, "t": t, "moduli": list(moduli), "extra": extra, "report": list(report)}


def sweep_items() -> list[dict]:
    """The 40-item combined acceptance sweep (criteria 7 and 8)."""
    items = []
    for d in (-7, -8, -11):
        for t in ("1", "3", "-1", "2"):
            items.append(_item(d, t, [2], ["density", 2]))
            items.append(_item(d, t, [2], ["density", 2], [4, [1]]))
    for t in ("1", "2", "-2", "3", "6", "-8"):
        items.append(_item(-4, t, [4], ["density", 4]))
    for t in ("1", "2"):
        items.append(_item(-3, t, [3], ["density", 3]))
        items.append(_item(-3, t, [3], ["density", 3], [9, [1]]))
    # scaling-law items, with every modulus their report rows read
    for d, t, m, moduli in (
        (-4, "1", 8, [8, 4]),
        (-4, "3", 8, [8, 4]),
        (-7, "1", 4, [4, 2]),
        (-7, "3", 4, [4, 2]),
        (-3, "2", 6, [6, 2, 3]),
        (-3, "2", 9, [9, 3]),
    ):
        items.append(_item(d, t, moduli, ["conjecture", m]))
    return items


def octic_item() -> dict:
    return _item(-4, "3", [8, 4], ["conjecture", 8])


def _octic_scan(rng: random.Random, height: int) -> dict:
    # Cut points on segment boundaries keep the number of engine segments,
    # and so the work, the same for every seed.
    n_seg = height // SCAN_CHUNK
    cuts = sorted(rng.sample(range(1, n_seg), min(3, n_seg - 1)))
    steps = [5] + [c * SCAN_CHUNK for c in cuts] + [height]
    return {"items": [octic_item()], "steps": steps, "workers": POOL_WORKERS,
            "prefix": rng.randrange(2_000, 4_000)}


def _suites(rng: random.Random, sizes: dict) -> list[dict]:
    out = []
    for name, p_max in sizes.items():
        pool, k, ds = _SUITE_INPUTS[name]
        ts = rng.sample(pool, k) if pool else None
        out.append({"name": name, "p_max": p_max, "ds": ds, "ts": ts})
    return out


def make_plan(workload: str, seed: int) -> dict:
    """The inputs of one run: a pure function of (workload, seed)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        items = sweep_items()
        rng.shuffle(items)  # the batch result must not depend on item order
        scan = {
            "items": items,
            "steps": [5, SWEEP_HEIGHT],
            "workers": 1,
            "prefix": rng.randrange(2_000, 4_000),
        }
        return {"workload": workload, "seed": seed, "primary": "scan", "scan": scan,
                "suites": _suites(rng, PROBE_SIZES)}
    if workload == "octic":
        return {"workload": workload, "seed": seed, "primary": "scan",
                "scan": _octic_scan(rng, OCTIC_HEIGHT), "suites": _suites(rng, PROBE_SIZES)}
    return {"workload": workload, "seed": seed, "primary": "suites",
            "scan": _octic_scan(rng, PROBE_HEIGHT), "suites": _suites(rng, VERIFY_SIZES)}


def segments(steps: list[int]) -> list[tuple[int, int]]:
    """Engine segments of a stepped scan: each step cut into SCAN_CHUNK pieces."""
    out = []
    for lo, hi in zip(steps, steps[1:]):
        while lo < hi:
            out.append((lo, min(lo + SCAN_CHUNK, hi)))
            lo = out[-1][1]
    return out


def extra_text(extra) -> str | None:
    """The set expression of an item's congruence condition, in the package grammar."""
    if extra is None:
        return None
    modulus, residues = extra
    return f"mod({modulus};{','.join(map(str, residues))})"
