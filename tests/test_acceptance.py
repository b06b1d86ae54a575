"""Acceptance gate: every headline guarantee of the package, at full scale.

Each test is one criterion and prints a single summary line.  The slow part
is a combined 40-item density sweep to 1e7 shared by criteria 7, 8 and 10
(module-scoped fixture, one sieve pass) over the batch that
``scripts/run_acceptance_batch.py`` declares; everything else runs directly.

Expected wall time for the whole module: about 50 seconds on a two-core machine.

Criteria
  1. fast a_p routes agree with brute-force point counts, all nine
     discriminants, six twists, good p <= 2e4, under two minutes
  2. quartic-symbol trace formula for d = -4, six twists, to 1e6
  3. odd-part and two-part closed forms for quartic symbols, norms to 1e6,
     under five minutes
  4. trace-symbol closed form on the d = -4 family to 1e6
  5. the nine congruence/symbol cells partition split primes and pin the
     trace-symbol order, to 1e6
  6. quadratic and cubic per-prime residue laws on the other eight
     discriminants to 1e5
  7. closed-form density tables match empirical frequencies at 1e7
     (gap <= 0.004 or |z| <= 4 on every row)
  8. higher-order scaling predictions at 1e7 under the same rule -- except
     the documented d = -4, t = 3 octic anomaly, which is pinned to its
     exact observed counts and must keep FAILING the tolerance
  9. reports are byte-identical across worker counts (1 vs 8)
 10. every density and scaling row of the 1e7 sweep, every n, is byte-identical
     to the committed ledger ``tests/data/acceptance_1e7.csv``

Criteria 2-6 pin the exact number of checks each suite makes and print
their elapsed seconds.
"""

import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from cmresidues.curves import DISCRIMINANTS, CurveSpec, ap, naive_traces
from cmresidues.density import (
    GAP_MAX,
    Z_MAX,
    Report,
    density_report,
    density_rows,
    scaling_rows,
    scan_batch,
    verify_suite,
)
from cmresidues.primes import primes_in_range

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from run_acceptance_batch import batch, batch_rows  # noqa: E402

PMAX_BIG = 10**7
LEDGER = Path(__file__).parent / "data" / "acceptance_1e7.csv"

# Eligible-set sizes below 1e7, frozen from the first full run.  Equal
# numbers are not accidents: e.g. the d = -8 conditioning-4 set and the
# d = -4 octic set are both exactly {split p == 1 mod 8}.
N_COND = {
    (-7, 2): 332199,
    (-7, 4): 166011,
    (-8, 2): 332136,
    (-8, 4): 165976,
    (-11, 2): 332118,
    (-11, 4): 165973,
    (-4, 4): 332180,
    (-3, 3): 332194,
    (-3, 9): 110772,
}
N_CONJ = {(-4, 8): 165976, (-7, 4): 166011, (-3, 6): 332194, (-3, 9): 110772}

# The one genuine discrepancy at this height: among the 165976 split
# p == 1 mod 8 below 1e7 with t = 3, the octic order-1 and order-2 counts
# are lopsided (42160 vs 40748) while the halving prediction from the
# quartic level says 82908/2 each.  z = +/-4.003, gap 0.00425 -- just past
# both tolerances, and a longer run to 6e7 shows the conditional z GROWING
# (a secondary-term prime race, not noise).  The gate pins the exact
# counts so any engine change that shifts them is caught, and insists the
# verdict stays "fail": making this row pass would mean the code stopped
# telling the truth.
ANOMALY_TOTAL = 165976
ANOMALY_COUNTS = {(8, 1): 42160, (8, 2): 40748, (8, 4): 83068, (4, 1): 82908}


@pytest.fixture(scope="module")
def big_scan():
    t0 = time.time()
    results = scan_batch([item for item, _, _ in batch()], PMAX_BIG, workers=1)
    elapsed = time.time() - t0
    return {"results": list(zip(batch(), results)), "elapsed": elapsed}


def test_01_fast_traces_match_point_counts():
    t0 = time.time()
    specs = [CurveSpec(d, F(t)) for d in DISCRIMINANTS for t in (1, 2, -2, 3, 5, 6)]
    checked = 0
    for p in primes_in_range(3, 20_001):
        good = [spec for spec in specs if spec.is_good(p)]
        fast = [ap(spec, p).ap for spec in good]
        assert fast == naive_traces(good, p).tolist(), p
        checked += len(good)
    elapsed = time.time() - t0
    assert checked == 122_027
    assert elapsed < 120.0
    print(f"criterion 1 PASS: {checked} traces vs point counts, {elapsed:.1f}s")


def test_02_quartic_trace_formula_to_1e6():
    t0 = time.time()
    res = verify_suite("trace-oracle", ts=[1, 2, -2, 3, 5, 6], p_max=10**6)
    elapsed = time.time() - t0
    assert res.ok(), res.violations
    assert res.checked == 470_975
    print(f"criterion 2 PASS: trace-oracle suite, {res.checked} checks, 0 violations, {elapsed:.1f}s")


def test_03_symbol_factorisations_to_1e6():
    t0 = time.time()
    odd = verify_suite("odd-factor", p_max=10**6)
    two = verify_suite("two-factor", p_max=10**6)
    elapsed = time.time() - t0
    assert odd.ok(), odd.violations
    assert two.ok(), two.violations
    assert (odd.checked, two.checked) == (65_085, 39_175)
    assert elapsed < 300.0
    print(
        f"criterion 3 PASS: odd-part {odd.checked} + two-part {two.checked} checks, "
        f"{elapsed:.1f}s"
    )


def test_04_trace_symbol_closed_form_to_1e6():
    t0 = time.time()
    res = verify_suite("trace-symbol", p_max=10**6)
    elapsed = time.time() - t0
    assert res.ok(), res.violations
    assert res.checked == 235_050
    print(f"criterion 4 PASS: trace-symbol suite, {res.checked} checks, 0 violations, {elapsed:.1f}s")


def test_05_nine_cells_partition_to_1e6():
    t0 = time.time()
    res = verify_suite("nine-cells", p_max=10**6)
    elapsed = time.time() - t0
    assert res.ok(), res.violations
    assert res.checked == 587_412
    print(f"criterion 5 PASS: nine-cells suite, {res.checked} checks, 0 violations, {elapsed:.1f}s")


def test_06_quadratic_and_cubic_laws_to_1e5():
    t0 = time.time()
    ds = [-3, -7, -8, -11, -19, -43, -67, -163]
    quad = verify_suite("quadratic", ds=ds, ts=[1, 2, 3], p_max=10**5)
    cub = verify_suite("cubic", ts=[1, 2, 3], p_max=10**5)
    elapsed = time.time() - t0
    assert quad.ok(), quad.violations
    assert cub.ok(), cub.violations
    assert (quad.checked, cub.checked) == (114_768, 14_352)
    print(
        f"criterion 6 PASS: quadratic {quad.checked} + cubic {cub.checked} checks, "
        f"0 violations, {elapsed:.1f}s"
    )


def test_07_density_tables_at_1e7(big_scan):
    rows_checked = 0
    for (item, kind, m), res in big_scan["results"]:
        if kind != "density":
            continue
        cond = m if item.extra is None else item.extra.modulus
        assert res.total == N_COND[(item.d, cond)], (item, res.total)
        for row in density_rows(res, m):
            assert row.predicted is not None and row.source, row
            assert row.verdict == "pass", row
            rows_checked += 1
    # the per-family wall budget is 10 minutes; the whole sweep shares one
    # sieve pass and must come in well under a single budget
    assert big_scan["elapsed"] < 600.0
    print(
        f"criterion 7 PASS: {rows_checked} closed-form density rows at 1e7, "
        f"sweep {big_scan['elapsed']:.0f}s"
    )


def test_08_scaling_predictions_at_1e7(big_scan):
    passed = 0
    anomalies = []
    for (item, kind, m), res in big_scan["results"]:
        if kind != "scaling":
            continue
        assert res.total == N_CONJ[(item.d, m)], (item, res.total)
        for row in scaling_rows(res, m):
            if (row.d, row.t, row.m, row.n) in {(-4, 3, 8, 1), (-4, 3, 8, 2)}:
                anomalies.append(row)
                continue
            assert row.verdict == "pass", row
            if row.source == "product-rule" and row.z is not None:
                # independence of the quadratic and cubic components is a
                # sharper statement than the scaling law; check it bites
                assert abs(row.z) < Z_MAX
            passed += 1

    # the documented octic anomaly: exact counts, tolerance genuinely missed
    assert len(anomalies) == 2
    res = next(res for (item, _, m), res in big_scan["results"] if (item.d, item.t, m) == (-4, 3, 8))
    assert res.total == ANOMALY_TOTAL
    for (m, n), count in ANOMALY_COUNTS.items():
        assert res.count(m, n) == count, (m, n, res.count(m, n))
    for row in anomalies:
        assert row.verdict == "fail", row
        assert Z_MAX < abs(row.z) < 4.01
        assert GAP_MAX < abs(row.empirical - row.predicted) < 0.0043
    print(
        f"criterion 8 PASS: {passed} scaling rows within tolerance; octic "
        f"bias for t=3 pinned at 42160/40748 and still correctly flagged"
    )


def test_09_reports_byte_identical_across_workers():
    big = dict(p_max=PMAX_BIG)
    a = density_report(-4, 3, 4, workers=1, **big)
    b = density_report(-4, 3, 4, workers=8, **big)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()
    assert a.all_pass()

    small = dict(p_max=10**6)
    c = density_report(-7, 1, 2, workers=1, **small)
    d = density_report(-7, 1, 2, workers=8, **small)
    assert c.to_csv() == d.to_csv()
    assert c.to_json() == d.to_json()
    assert c.all_pass()
    print("criterion 9 PASS: worker counts 1 vs 8 give byte-identical reports")


def test_10_ledger_at_1e7_byte_identical(big_scan):
    # criteria 7 and 8 judge verdicts; this pins every count behind them, as
    # scripts/run_acceptance_batch.py writes them
    rows = batch_rows([res for _, res in big_scan["results"]])
    assert Report(rows).to_csv() == LEDGER.read_text()
    print(f"criterion 10 PASS: {len(rows)} rows of the 1e7 sweep match the ledger byte for byte")
