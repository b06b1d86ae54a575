"""The benchmark's checks catch wrong outputs.

Run with: python3 -m pytest bench/test_checks.py -q

The good outputs below are built by the reference computations (no package
involved); each test then breaks one thing the way a faulty engine would
and asserts that the matching check reports it.
"""

import copy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

P_MAX = 3_000


@pytest.fixture(scope="module")
def scan():
    """Items with nested moduli, their reference counts and naive tallies below P_MAX."""
    items = [it for it in workloads.sweep_items() if it["report"][0] == "conjecture"]
    items.append(workloads.sweep_items()[1])  # an item with a congruence condition
    steps = [5, 1_000, P_MAX]
    counts = reference.eligible_counts(items, steps)
    table = reference.curve_table(HERE.parent)
    snapshots = [reference.naive_tallies(items, h, table) for h in steps[1:]]
    return items, counts, snapshots


def test_reference_scan_passes(scan):
    items, counts, snapshots = scan
    assert checks.check_scan(items, snapshots, counts, "scan") == []
    assert all(res["total"] > 0 for res in snapshots[-1])


def test_tally_off_by_one_is_caught(scan):
    items, counts, snapshots = scan
    bad = copy.deepcopy(snapshots)
    tallies = bad[-1][0]["tallies"]
    m = items[0]["moduli"][0]
    n = next(iter(tallies[m]))
    tallies[m][n] += 1
    assert any("sum to" in e for e in checks.check_scan(items, bad, counts, "scan"))

    bad = copy.deepcopy(snapshots)
    bad[0][-1]["total"] -= 1
    assert any("reference" in e for e in checks.check_scan(items, bad, counts, "scan"))


def test_tally_moved_between_orders_is_caught(scan):
    """Same sums, wrong split: only the push-forward to the lower modulus sees it."""
    items, counts, snapshots = scan
    i = next(k for k, it in enumerate(items) if it["moduli"][:2] == [8, 4])
    bad = copy.deepcopy(snapshots)
    t8 = bad[-1][i]["tallies"][8]
    assert t8[1] > 0
    t8[1] -= 1
    t8[4] = t8.get(4, 0) + 1
    errors = checks.check_scan(items, bad, counts, "scan")
    assert any("pushed forward" in e for e in errors)


def test_prefix_against_naive_counts(scan):
    items, _, snapshots = scan
    assert checks.check_prefix(items, snapshots[-1], snapshots[-1]) == []
    bad = copy.deepcopy(snapshots[-1])
    t = bad[0]["tallies"][items[0]["moduli"][0]]
    k = sorted(t)
    t[k[0]], t[k[-1]] = t[k[-1]], t[k[0]]
    assert checks.check_prefix(items, bad, snapshots[-1])


def test_worker_layouts_that_disagree_are_caught(scan):
    _, _, snapshots = scan
    one_worker = snapshots[-1]
    two_workers = copy.deepcopy(one_worker)
    tallies = two_workers[-1]["tallies"]
    m = next(iter(tallies))
    orders = sorted(tallies[m])
    if len(orders) > 1:
        tallies[m][orders[0]] += 1
        tallies[m][orders[1]] -= 1
    else:
        two_workers[-1]["total"] += 1
    assert checks.check_same(one_worker, copy.deepcopy(one_worker), "layouts") == []
    assert checks.check_same(one_worker, two_workers, "layouts")


def test_vacuous_suite_is_caught():
    expected = [reference.suite_checks("twist", 1_000, workloads.W2_DISCRIMINANTS, ["2", "3"])]
    good = [{"name": "twist", "checked": expected[0], "violations": 0}]
    assert expected[0] > 0
    assert checks.check_suites(good, expected, "verify") == []
    empty = [{"name": "twist", "checked": 0, "violations": 0}]
    assert checks.check_suites(empty, expected, "verify")
    # a suite whose own reference count is zero is a vacuous pass, not a pass
    assert checks.check_suites(empty, [0], "verify")
    violated = [{"name": "twist", "checked": expected[0], "violations": 1}]
    assert checks.check_suites(violated, expected, "verify")


def test_row_verdicts_are_recomputed():
    item = {"d": -7, "t": "1", "moduli": [2], "extra": None, "report": ["density", 2]}
    res = {"total": 1000, "tallies": {2: {1: 520, 2: 480}}}

    def row(n, predicted, verdict):
        return {"d": -7, "t": "1", "m": 2, "n": n, "N": 1000, "predicted": predicted, "z": None, "verdict": verdict}

    ok = [[row(1, 0.5, "pass"), row(2, 0.5, "pass")]]
    assert checks.check_rows([item], [res], ok, set()) == []
    far = [[row(1, 0.25, "pass"), row(2, 0.75, "pass")]]  # z ~ 17: the package must not say pass
    assert checks.check_rows([item], [res], far, set())
    assert checks.check_rows([item], [res], [[]], set())


def test_suite_check_counts_match_a_direct_count():
    """The derived counts agree with counting the suite definitions by brute force."""
    primes = [int(p) for p in reference.sieve(500) if p >= 5]
    assert reference.suite_checks("two-factor", 500, None, None) == sum(p % 4 == 1 for p in primes)
    # odd-factor: 5 = 1 + 4 (a = 1, nothing), 13 = 9 + 4 (a = 3), 17 = 1 + 16, 29 = 25 + 4 (a = 5)
    assert reference.suite_checks("odd-factor", 30, None, None) == 2
    assert reference.suite_checks("nine-cells", 20, None, ["1"]) == 2 + 2 + 3  # p = 5, 13, 17


def test_naive_trace_small_cases():
    table = reference.curve_table(HERE.parent)
    # y^2 = x^3 - x over F_5 has 8 points, so a_5 = 5 + 1 - 8 = -2
    assert reference.naive_trace(-4, Fraction(1), 5, table) == -2
    # supersingular: -7 is not a square mod 5
    assert reference.naive_trace(-7, Fraction(1), 5, table) == 0


def test_plans_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_plan(w, 3) == workloads.make_plan(w, 3)
    assert workloads.make_plan("verify", 3) != workloads.make_plan("verify", 4)
    steps = workloads.make_plan("octic", 5)["scan"]["steps"]
    assert len(workloads.segments(steps)) == workloads.OCTIC_HEIGHT // workloads.SCAN_CHUNK
