"""Correctness checks on workload outputs.

Every check compares against the reference computations or against a
property the method must have, never against a stored copy of an earlier
output.  Each returns a list of human-readable errors; empty means correct.

Result shapes (as the workload processes emit them, JSON-decoded):

* scan result of one item: ``{"total": N, "tallies": {m: {n: count}}}``,
  with m and n as strings after a JSON round trip;
* report row: ``{"d", "t", "m", "n", "N", "predicted", "z", "verdict"}``;
* suite result: ``{"name", "checked", "violations"}``.
"""

from __future__ import annotations

import math
from math import gcd

GAP_MAX = 0.004  # the package's documented pass rule: gap <= GAP_MAX or |z| <= Z_MAX
Z_MAX = 4.0


def _int_tallies(tallies: dict) -> dict[int, dict[int, int]]:
    return {int(m): {int(n): int(c) for n, c in counts.items()} for m, counts in tallies.items()}


def check_structure(item: dict, res: dict, where: str) -> list[str]:
    """Each modulus's tallies sum to the total, sit on divisors of m, and push forward.

    Pushing forward: for m' | m, the m'-class of a_p is the m-class raised
    to m/m', so order n at level m lands on n / gcd(n, m/m') at level m'.
    """
    errors = []
    tallies = _int_tallies(res["tallies"])
    label = f"{where} d={item['d']} t={item['t']} moduli={item['moduli']}"
    for m in item["moduli"]:
        counts = tallies.get(m, {})
        if sum(counts.values()) != res["total"]:
            errors.append(f"{label}: tallies mod {m} sum to {sum(counts.values())}, total {res['total']}")
        off = [n for n in counts if m % n]
        if off:
            errors.append(f"{label}: orders {off} do not divide {m}")
    for m in item["moduli"]:
        for mp in item["moduli"]:
            if mp == m or m % mp:
                continue
            k = m // mp
            pushed: dict[int, int] = {}
            for n, c in tallies.get(m, {}).items():
                pushed[n // gcd(n, k)] = pushed.get(n // gcd(n, k), 0) + c
            if {n: c for n, c in pushed.items() if c} != {n: c for n, c in tallies.get(mp, {}).items() if c}:
                errors.append(f"{label}: tallies mod {mp} are not those mod {m} pushed forward")
    return errors


def check_scan(items: list[dict], snapshots: list[list[dict]], counts: list[list[int]], where: str) -> list[str]:
    """Cumulative results after every step against the reference eligible counts.

    snapshots[s][i] is item i after step s; counts[i][s] the reference count.
    """
    heights = len(counts[0]) if counts else 0
    if len(snapshots) != heights:
        return [f"{where}: {len(snapshots)} step results for {heights} heights"]
    errors = []
    for s, snap in enumerate(snapshots):
        for i, (item, res) in enumerate(zip(items, snap)):
            if res["total"] != counts[i][s]:
                errors.append(
                    f"{where} step {s} d={item['d']} t={item['t']} moduli={item['moduli']}: "
                    f"eligible {res['total']}, reference {counts[i][s]}"
                )
            errors += check_structure(item, res, f"{where} step {s}")
    return errors


def check_same(a: list[dict], b: list[dict], what: str) -> list[str]:
    """Two computations of the same tallies (worker layouts, merge vs one scan) agree."""
    if len(a) != len(b):
        return [f"{what}: {len(a)} items vs {len(b)}"]
    errors = []
    for i, (x, y) in enumerate(zip(a, b)):
        if x["total"] != y["total"] or _int_tallies(x["tallies"]) != _int_tallies(y["tallies"]):
            errors.append(f"{what}: item {i} differs ({x['total']} vs {y['total']} eligible)")
    return errors


def judge(N: int, count: int, predicted: float | None) -> str:
    """The gap-or-z verdict of one report row, recomputed from its counts."""
    if N == 0 or predicted is None:
        return "n/a"
    emp = count / N
    ok = abs(emp - predicted) <= GAP_MAX
    if 0.0 < predicted < 1.0:
        z = (emp - predicted) / math.sqrt(predicted * (1.0 - predicted) / N)
        ok = ok or abs(z) <= Z_MAX
    return "pass" if ok else "fail"


def check_rows(items: list[dict], results: list[dict], rows: list[list[dict]], anomalies) -> list[str]:
    """Every row is judged pass by the recomputed rule, and the package agrees.

    Rows keyed (d, t, m, n) in anomalies are judged the same way but need not pass.
    """
    errors = []
    for item, res, item_rows in zip(items, results, rows):
        tallies = _int_tallies(res["tallies"])
        if not item_rows:
            errors.append(f"rows d={item['d']} t={item['t']}: no report rows")
        for row in item_rows:
            key = (row["d"], row["t"], row["m"], row["n"])
            if row["N"] != res["total"]:
                errors.append(f"row {key}: N = {row['N']}, scan total {res['total']}")
            if row["predicted"] is None:
                errors.append(f"row {key}: no prediction")
            mine = judge(res["total"], tallies.get(row["m"], {}).get(row["n"], 0), row["predicted"])
            if mine != row["verdict"]:
                errors.append(f"row {key}: package says {row['verdict']}, recomputed {mine}")
            if mine != "pass" and key not in anomalies:
                errors.append(f"row {key}: {mine} (z = {row['z']})")
    return errors


def check_prefix(items: list[dict], program: list[dict], naive: list[dict]) -> list[str]:
    """The package's tallies on a prefix equal tallies made from naive point counts."""
    errors = check_same(program, naive, "prefix vs naive point counts")
    for item, want in zip(items, naive):
        if want["total"] == 0:
            errors.append(f"prefix d={item['d']} t={item['t']}: no eligible prime, check is vacuous")
    return errors


def check_suites(results: list[dict], expected: list[int], where: str) -> list[str]:
    """Zero violations, and each suite checked exactly the reference count (> 0)."""
    errors = []
    for res, want in zip(results, expected):
        if res["violations"]:
            errors.append(f"{where} {res['name']}: {res['violations']} violations")
        if res["checked"] != want or want == 0:
            errors.append(f"{where} {res['name']}: checked {res['checked']}, reference {want}")
    if len(results) != len(expected):
        errors.append(f"{where}: {len(results)} suite results for {len(expected)} suites")
    return errors
