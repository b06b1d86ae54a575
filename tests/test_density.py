"""Density engine: closed-form tables, conditioned scans, verdicts, reports.

The scan oracle below recounts everything from scratch: naive traces,
sympy multiplicative orders, and inline eligibility — none of the engine's
bookkeeping.  Table values are frozen from runs that were themselves
checked against scans, so a regression in either direction trips a test.
"""

import json
import math
import os
import signal
import time
from fractions import Fraction
from multiprocessing import active_children
from multiprocessing.context import ForkProcess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import n_order

from cmresidues import density
from cmresidues.curves import CurveModel, CurveSpec, ap, ap_naive, default_table
from cmresidues.density import (
    GAP_MAX,
    Z_MAX,
    ItemResult,
    Report,
    ReportRow,
    ScanItem,
    _conditioning_modulus,
    _judge,
    _map_segments,
    base_meta,
    calibrate_eisenstein,
    cm4_order_densities,
    conjecture_moduli,
    conjecture_report,
    cubic_trivial_density,
    density_report,
    density_rows,
    predict_orders,
    quadratic_trivial_density,
    run_scan,
    scaling_parameters,
    scaling_rows,
    scan_batch,
    trivial_symbol_density,
    verify_suite,
)
from cmresidues.gaussian import split_prime
from cmresidues.prime_sets import CongMod, G8, SymOrder, classify, parse_set
from cmresidues.primes import jacobi, primes_in_range

# ---------------------------------------------------------------------------
# Closed-form tables (frozen values; each was cross-checked against scans)


def test_quadratic_trivial_density_frozen():
    q = quadratic_trivial_density
    assert q(-7, 1, 2) == Fraction(1, 4)
    assert q(-7, -1, 2) == Fraction(3, 4)
    assert q(-7, 3, 2) == Fraction(1, 2)   # 3 ∤ 2·7
    assert q(-7, 7, 2) == Fraction(3, 4)   # 7 | 2·7, 7 ≡ 3 (4)
    assert q(-7, 1, 4) == Fraction(1, 2)   # 4 | m kills the bias
    assert q(-11, 2, 2) == Fraction(1, 2)
    assert q(-11, -11, 2) == Fraction(1, 4)  # -11 ≡ 1 (4)
    assert q(-11, -1, 2) == Fraction(3, 4)   # -1 ≡ 3 (4)
    assert q(-8, 2, 2) == Fraction(3, 4)   # 2 ≡ 2 (8), ramified interaction
    assert q(-8, -2, 2) == Fraction(1, 4)  # -2 ≡ 6 (8)
    assert q(-8, 6, 2) == Fraction(1, 2)   # 6 ∤ 2·8: no bias
    assert q(-3, 2, 6) == Fraction(1, 2)
    assert q(-163, 163, 2) == Fraction(3, 4)


def test_quadratic_trivial_density_guards():
    with pytest.raises(ValueError):
        quadratic_trivial_density(-4, 1, 2)
    with pytest.raises(ValueError):
        quadratic_trivial_density(-7, 1, 3)


def test_cm4_order_densities_frozen():
    F = Fraction
    assert cm4_order_densities(1, 4) == {1: F(1, 4), 2: F(1, 4), 4: F(1, 2)}
    assert cm4_order_densities(2, 4) == {1: F(3, 4), 2: F(1, 4), 4: 0}
    assert cm4_order_densities(-2, 4) == {1: F(1, 4), 2: F(3, 4), 4: 0}
    assert cm4_order_densities(3, 4) == {1: F(3, 8), 2: F(3, 8), 4: F(1, 4)}
    assert cm4_order_densities(6, 4) == {1: F(3, 8), 2: F(3, 8), 4: F(1, 4)}
    assert cm4_order_densities(-8, 4) == {1: F(3, 4), 2: F(1, 4), 4: 0}
    assert cm4_order_densities(3, 8) == {1: F(1, 2), 2: F(1, 2), 4: 0}
    # cond 12 forces (3/p) = +1, so 3/2 is a non-residue on the whole
    # p ≡ 5 (mod 8) half — which is exactly the order-4 condition there
    assert cm4_order_densities(3, 12) == {1: F(1, 4), 2: F(1, 4), 4: F(1, 2)}
    # fourth-power reduction happens internally
    assert cm4_order_densities(16, 4) == cm4_order_densities(1, 4)
    assert cm4_order_densities(Fraction(1, 2), 4) == cm4_order_densities(8, 4)
    # quadratic-only table when 4 does not divide the conditioning
    assert cm4_order_densities(1, 2) == {1: F(1, 2), 2: F(1, 2)}
    assert cm4_order_densities(2, 2) == {1: F(1), 2: 0}
    assert cm4_order_densities(3, 6) == {1: F(1, 2), 2: F(1, 2)}
    assert cm4_order_densities(5, 2) == {1: F(3, 4), 2: F(1, 4)}


@given(
    st.fractions(min_value=-30, max_value=30, max_denominator=12).filter(bool),
    st.sampled_from([2, 4, 6, 8, 12, 24]),
)
@settings(max_examples=200, deadline=None)
def test_cm4_densities_form_a_distribution(t, cond):
    dens = cm4_order_densities(t, cond)
    assert sum(dens.values()) == 1
    assert all(0 <= v <= 1 for v in dens.values())
    assert set(dens) == ({1, 2, 4} if cond % 4 == 0 else {1, 2})


def test_cubic_trivial_density_frozen():
    assert cubic_trivial_density(2, 3) == Fraction(5, 9)
    assert cubic_trivial_density(2, 9) == Fraction(1)   # 9 | m forces triviality
    assert cubic_trivial_density(1, 3) == Fraction(1)
    assert cubic_trivial_density(8, 3) == Fraction(1)   # 8 reduces to 1 mod cubes
    assert cubic_trivial_density(3, 3) == Fraction(5, 9)
    with pytest.raises(ValueError):
        cubic_trivial_density(2, 4)


def test_trivial_symbol_density_frozen():
    tsd = trivial_symbol_density
    assert tsd(-4, 1, 4) == Fraction(1, 4)
    assert tsd(-4, 3, 8) == Fraction(1, 4)
    assert tsd(-3, 2, 6) == Fraction(5, 18)
    assert tsd(-3, 2, 3) == Fraction(5, 9)
    assert tsd(-7, 1, 2) == Fraction(1, 4)
    assert tsd(-7, 1, 10) == Fraction(1, 20)
    assert tsd(-7, 1, 3) == Fraction(1, 3)  # g = 1: uniform
    assert tsd(-11, -1, 2) == Fraction(3, 4)
    assert tsd(-11, -1, 4) == Fraction(1, 4)  # (2/4) · δ₂¹ with 4 | m ⇒ δ₂¹ = 1/2


def test_trivial_symbol_density_requires_reduced_t():
    for d, t in ((-4, 16), (-3, 64), (-7, 4), (-4, Fraction(1, 16))):
        with pytest.raises(ValueError, match="free"):
            trivial_symbol_density(d, t, 4 if d == -4 else 6 if d == -3 else 2)


def test_predict_orders_structure():
    # full tables are distributions and carry their source tag
    for d, t, m in ((-4, 3, 4), (-7, 1, 2), (-3, 2, 3), (-3, 2, 6), (-4, 5, 2)):
        dens, source = predict_orders(d, t, m, m)
        assert sum(dens.values()) == 1
        assert source.endswith("-table") or source == "sextic-product"
    # g = 1: uniform partition by φ
    dens, source = predict_orders(-7, 1, 5, 10)
    assert dens == {1: Fraction(1, 5), 5: Fraction(4, 5)} and source == "leading-table"
    # 1 < g < m: only the trivial class is pinned
    dens, source = predict_orders(-7, 1, 4, 4)
    assert dens == {1: Fraction(1, 4)} and source == "leading-table"
    dens, _ = predict_orders(-3, 1, 12, 12)
    assert dens == {1: Fraction(1, 4)}
    dens, _ = predict_orders(-4, 3, 2, 8)  # folded quartic: order ≤ 2 vs 4
    assert dens == {1: Fraction(1), 2: Fraction(0)}


def test_predict_orders_rejects_coarser_conditioning():
    # the 8-class of a_p exists only at p ≡ 1 (mod 8), so conditioning on
    # C_4^1 is an input error; a ValueError, so python -O keeps the check
    with pytest.raises(ValueError, match="not a multiple"):
        predict_orders(-4, 1, 8, 4)


def test_predict_orders_branches_frozen():
    F = Fraction
    frozen = {
        (-4, 3, 2, 8): ({1: 1, 2: 0}, "quartic-table"),  # quartic order ≤ 2 vs 4
        (-4, 3, 2, 2): ({1: F(3, 4), 2: F(1, 4)}, "quartic-table"),
        (-4, 2, 6, 12): ({1: F(1, 3)}, "leading-table"),
        (-4, 1, 8, 8): ({1: F(1, 4)}, "leading-table"),
        (-3, 2, 9, 9): ({1: F(1, 3)}, "leading-table"),
        (-3, 2, 12, 12): ({1: F(5, 36)}, "leading-table"),
        (-3, 1, 4, 4): ({1: F(1, 4)}, "leading-table"),
        (-7, 3, 6, 6): ({1: F(1, 4)}, "leading-table"),
    }
    for args, expected in frozen.items():
        assert predict_orders(*args) == expected, args


def test_scaling_parameters_frozen():
    F = Fraction
    assert scaling_parameters(8, 1, 4) == (4, 1, F(1, 2))
    assert scaling_parameters(8, 2, 4) == (4, 1, F(1, 2))
    assert scaling_parameters(8, 4, 4) == (4, 2, F(1))
    assert scaling_parameters(8, 8, 4) == (4, 4, F(1))
    assert scaling_parameters(4, 1, 2) == (2, 1, F(1, 2))
    assert scaling_parameters(4, 4, 2) == (2, 2, F(1))
    assert scaling_parameters(9, 1, 6) == (3, 1, F(1, 3))
    assert scaling_parameters(9, 3, 6) == (3, 1, F(2, 3))
    assert scaling_parameters(9, 9, 6) == (3, 3, F(1))
    assert scaling_parameters(6, 6, 6) == (6, 6, F(1))
    with pytest.raises(ValueError):
        scaling_parameters(8, 3, 4)


@given(st.integers(min_value=1, max_value=24), st.sampled_from([2, 4, 6]))
@settings(max_examples=200, deadline=None)
def test_scaling_factors_conserve_mass(m, w):
    # pushing δ̂_{m'} mass through the law must conserve it: for each target
    # class n', the factors of the n mapping there sum to 1
    bucket = {}
    for n in range(1, m + 1):
        if m % n:
            continue
        mp, np_, factor = scaling_parameters(m, n, w)
        assert mp == math.gcd(m, w) and mp % np_ == 0
        bucket[np_] = bucket.get(np_, Fraction(0)) + factor
    assert all(v == 1 for v in bucket.values())


def test_conjecture_moduli():
    assert conjecture_moduli(-4, 8) == (8, 4)
    assert conjecture_moduli(-7, 4) == (4, 2)
    assert conjecture_moduli(-3, 6) == (6, 2, 3)
    assert conjecture_moduli(-3, 9) == (9, 3)
    assert conjecture_moduli(-4, 4) == (4,)


# ---------------------------------------------------------------------------
# Scan engine vs an independent tally


def _oracle_tally(item, p_max, p_min=5, table=None):
    spec = CurveSpec(item.d, item.t)
    lcm_all = math.lcm(*item.moduli)
    total = 0
    tallies = {m: {} for m in item.moduli}
    for p in primes_in_range(p_min, p_max):
        if not spec.is_good(p, table) or jacobi(item.d, p) != 1 or (p - 1) % lcm_all:
            continue
        if item.extra is not None and not classify(p, item.extra):
            continue
        a = ap_naive(spec, p, table)
        total += 1
        for m in item.moduli:
            v = pow(a % p, (p - 1) // m, p)
            n = 1 if v == 1 else n_order(v, p)
            tallies[m][n] = tallies[m].get(n, 0) + 1
    return total, tallies


SCAN_ITEMS = [
    ScanItem(-4, Fraction(3), (4, 8)),
    ScanItem(-7, Fraction(2), (2,)),
    ScanItem(-3, Fraction(2), (2, 3, 6)),
    ScanItem(-4, Fraction(1), (4,), CongMod(8, (1,))),
    ScanItem(-4, Fraction(3), (4,), parse_set("g8(5) & symord(2;3;1)")),
    ScanItem(-11, Fraction(-1), (2,), CongMod(3, (2,))),
]


def test_scan_matches_independent_tally(monkeypatch):
    monkeypatch.setattr(density, "_CHUNK", 6_000)
    results = scan_batch(SCAN_ITEMS, 20_000)
    assert len(results) == len(SCAN_ITEMS)
    for item, res in zip(SCAN_ITEMS, results):
        total, tallies = _oracle_tally(item, 20_000)
        assert res.item == item and res.p_max == 20_000
        assert res.total == total, item
        assert {m: c for m, c in res.tallies.items()} == tallies, item
        assert total > 0  # the comparison must not be vacuous
        for m in item.moduli:
            assert sum(res.tallies[m].values()) == res.total


@pytest.mark.parametrize("chunk", [6_000, 7_000, 7_919, 250_000])
def test_scan_is_worker_invariant(chunk, monkeypatch):
    # segment edges at multiples of chunk must neither lose nor repeat a
    # norm-form lattice point: every layout equals the one-segment scan
    monkeypatch.setattr(density, "_CHUNK", 60_000)
    whole = scan_batch(SCAN_ITEMS[:3], 60_000)
    monkeypatch.setattr(density, "_CHUNK", chunk)
    one = scan_batch(SCAN_ITEMS[:3], 60_000, workers=1)
    many = scan_batch(SCAN_ITEMS[:3], 60_000, workers=3)
    for a, b, c in zip(one, many, whole):
        assert a.total == b.total == c.total
        assert a.tallies == b.tallies == c.tallies


def test_workers_are_the_caller_and_one_child_per_other_segment(monkeypatch, tmp_path):
    # 10**6 is four segments: eight requested workers are the caller and
    # three forked children, one segment each
    single = density_report(-7, 1, 2, p_max=10**6).to_csv()
    log, scan, start, started = tmp_path / "pids", density._scan_chunk, ForkProcess.start, []

    def logged_scan(plan, bounds):
        with open(log, "a") as f:
            f.write(f"{bounds[0]} {os.getpid()}\n")
        return scan(plan, bounds)

    def counted_start(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(density, "_scan_chunk", logged_scan)
    monkeypatch.setattr(ForkProcess, "start", counted_start)
    pooled = density_report(-7, 1, 2, p_max=10**6, workers=8)
    assert len(started) == 3
    pids = dict(line.split() for line in log.read_text().splitlines())
    assert len(pids) == 4 and len(set(pids.values())) == 4
    assert pids["5"] == str(os.getpid())  # share 0 is the caller's
    assert pooled.to_csv() == single
    assert not active_children()


def test_map_segments_keeps_segment_order():
    got = _map_segments(lambda s: (s, os.getpid()), list(range(7)), 3)
    assert [s for s, _ in got] == list(range(7))
    assert [pid == os.getpid() for _, pid in got] == [s % 3 == 0 for s in range(7)]
    assert len({pid for _, pid in got}) == 3
    assert not active_children()


def test_map_segments_raises_a_childs_exception():
    def fn(s):
        if s == 3:
            raise ValueError(f"bad segment {s}")
        return s

    with pytest.raises(ValueError, match="bad segment 3"):
        _map_segments(fn, list(range(4)), 2)
    assert not active_children()


def test_map_segments_names_a_child_that_died():
    def fn(s):
        if s == 2:
            os._exit(3)
        return s

    with pytest.raises(RuntimeError, match=r"share 2 of 3 \(segments 2::3\).*code 3"):
        _map_segments(fn, list(range(6)), 3)
    assert not active_children()


@pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
def test_map_segments_stops_children_when_the_caller_fails(exc):
    # the children's shares are far past the 64 KiB pipe buffer, so they are
    # blocked in send when the caller's own share raises
    caller = os.getpid()

    def fn(s):
        if os.getpid() == caller:
            time.sleep(0.3)
            raise exc("caller's share")
        return bytes(1 << 20)

    def expire(*_):  # not an OSError, which multiprocessing's waitpid would swallow
        pytest.fail("_map_segments is still waiting on a child")

    before = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)  # a deadlock fails the test instead of hanging the suite
    try:
        with pytest.raises(exc, match="caller's share"):
            _map_segments(fn, list(range(6)), 3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)
    assert not active_children()


def test_scan_merge_over_split_ranges():
    whole = scan_batch(SCAN_ITEMS[:2], 30_000)[0]
    lo = scan_batch(SCAN_ITEMS[:2], 11_000)[0]
    hi = scan_batch(SCAN_ITEMS[:2], 30_000, p_min=11_000)[0]
    lo.merge(hi)
    assert lo.total == whole.total
    assert lo.tallies == whole.tallies


def test_item_result_accessors():
    item = ScanItem(-7, Fraction(1), (2,))
    res = ItemResult(item, 100, 10, {2: {1: 3, 2: 7}})
    assert res.count(2, 1) == 3 and res.count(2, 4) == 0
    assert res.density(2, 2) == 0.7
    empty = ItemResult(item, 100, 0, {2: {}})
    assert empty.density(2, 1) == 0.0


def test_merge_rejects_mismatched_items():
    # a ValueError, not an assert: under python -O an assert would let one
    # item's tallies be added to another's
    res = ItemResult(ScanItem(-7, Fraction(1), (2,)), 100, 10, {2: {1: 3, 2: 7}})
    other = ItemResult(ScanItem(-7, Fraction(2), (2,)), 100, 5, {2: {1: 5}})
    with pytest.raises(ValueError, match="cannot merge"):
        res.merge(other)
    assert res.total == 10 and res.tallies == {2: {1: 3, 2: 7}}


def test_scan_skips_bad_primes_of_a_table_model():
    # the twist by 11 of the shipped d = -7 model has bad reduction at 11,
    # which splits in Q(√-7): the scan leaves it out instead of failing there
    c4, c6 = default_table()[-7].c_invariants()
    table = dict(default_table())
    table[-7] = CurveModel(0, 0, 0, -27 * c4 * 11**2, -54 * c6 * 11**3)
    item = ScanItem(-7, Fraction(1), (2,))
    res = run_scan(-7, 1, 2, p_max=2_000, table=table)
    total, tallies = _oracle_tally(item, 2_000, table=table)
    assert res.total == total == run_scan(-7, 1, 2, p_max=2_000).total - 1
    assert res.tallies == tallies


def test_scan_item_validation():
    with pytest.raises(ValueError):
        ScanItem(-5, Fraction(1), (2,))
    with pytest.raises(ValueError):
        ScanItem(-7, Fraction(0), (2,))
    with pytest.raises(ValueError):
        ScanItem(-7, Fraction(1), ())
    with pytest.raises(ValueError):
        ScanItem(-7, Fraction(1), (0,))
    assert isinstance(ScanItem(-7, 2, (2,)).t, Fraction)


def test_run_scan_convenience():
    res = run_scan(-7, 1, 2, p_max=10_000)
    total, tallies = _oracle_tally(ScanItem(-7, Fraction(1), (2,)), 10_000)
    assert res.total == total and res.tallies[2] == tallies[2]


# ---------------------------------------------------------------------------
# Verdicts


def test_judge_edges():
    assert _judge(0, 0, Fraction(1, 2)) == (None, None, "n/a")
    emp, z, verdict = _judge(100, 25, None)
    assert (emp, z, verdict) == (0.25, None, "n/a")
    # exact zero/one predictions have no z; the gap rule decides
    assert _judge(100, 0, Fraction(0)) == (0.0, None, "pass")
    assert _judge(100, 100, Fraction(1)) == (1.0, None, "pass")
    assert _judge(100, 2, Fraction(0)) == (0.02, None, "fail")
    # tiny gap passes even when z blows up
    n, k = 10**8, 50_100_000
    emp, z, verdict = _judge(n, k, Fraction(1, 2))
    assert abs(z) > Z_MAX and abs(emp - 0.5) <= GAP_MAX and verdict == "pass"
    # small z passes even when the gap is visible
    emp, z, verdict = _judge(100, 52, Fraction(1, 2))
    assert abs(emp - 0.5) > GAP_MAX and abs(z) <= Z_MAX and verdict == "pass"
    # both out: fail
    emp, z, verdict = _judge(10_000, 6_000, Fraction(1, 2))
    assert verdict == "fail" and z == pytest.approx(20.0)


def test_conditioning_modulus():
    assert _conditioning_modulus(ScanItem(-4, Fraction(1), (4, 8))) == 8
    assert _conditioning_modulus(ScanItem(-7, Fraction(1), (2,), CongMod(8, (1,)))) == 8
    assert _conditioning_modulus(ScanItem(-7, Fraction(1), (2,), CongMod(8, (3,)))) is None
    assert _conditioning_modulus(ScanItem(-4, Fraction(1), (4,), G8("1"))) is None


# ---------------------------------------------------------------------------
# Reports


def _tiny_report():
    rows = [
        ReportRow(-7, Fraction(1), 2, 1, "", 1000, 0.25, Fraction(1, 4), "quadratic-table", 0.0, "pass"),
        ReportRow(-7, Fraction(1, 2), 2, 2, "mod(8;1)", 1000, 0.751234567891, Fraction(3, 4), "quadratic-table", 0.0901, "pass"),
        ReportRow(-4, Fraction(3), 8, 8, "", 0, None, None, "", None, "n/a"),
    ]
    return Report(rows, base_meta(10**6))


def test_report_csv_format():
    text = _tiny_report().to_csv()
    lines = text.splitlines()
    assert lines[0] == "d,t,m,n,set,N,empirical,predicted,source,z,verdict"
    assert lines[1] == "-7,1,2,1,,1000,0.250000000,1/4,quadratic-table,0.0000,pass"
    assert lines[2] == "-7,1/2,2,2,mod(8;1),1000,0.751234568,3/4,quadratic-table,0.0901,pass"
    assert lines[3] == "-4,3,8,8,,0,,,,,n/a"
    assert text.endswith("\n")
    assert _tiny_report().to_csv() == text  # repeatable byte for byte


def test_report_json_format():
    rep = _tiny_report()
    payload = json.loads(rep.to_json())
    assert set(payload) == {"meta", "rows"}
    assert set(payload["meta"]) == {"version", "p_max", "eisenstein_convention"}
    assert payload["meta"]["eisenstein_convention"] == "two-mod-three"
    assert payload["rows"][0]["predicted"] == "1/4"
    assert payload["rows"][0]["t"] == "1"
    assert payload["rows"][2]["empirical"] == ""
    assert rep.to_json().endswith("\n")


def test_report_all_pass():
    rep = _tiny_report()
    assert not rep.all_pass()  # a row over an empty eligible set (N = 0) is no pass
    rep.rows.pop()
    assert rep.all_pass()
    rep.rows[0].verdict = "n/a"
    assert rep.all_pass()  # n/a with N > 0 does not fail a report
    rep.rows[1].verdict = "fail"
    assert not rep.all_pass()


def test_density_rows_on_fabricated_result():
    item = ScanItem(-7, Fraction(1), (2,))
    res = ItemResult(item, 10**6, 40_000, {2: {1: 10_050, 2: 29_950}})
    rows = density_rows(res, 2)
    assert [r.n for r in rows] == [1, 2]
    assert rows[0].predicted == Fraction(1, 4)
    assert rows[0].source == "quadratic-table"
    assert all(r.verdict == "pass" for r in rows)
    # same tallies under a non-plain conditioning: no prediction applies
    g8item = ScanItem(-7, Fraction(1), (2,), G8("1"))
    res2 = ItemResult(g8item, 10**6, 40_000, {2: {1: 10_050, 2: 29_950}})
    rows2 = density_rows(res2, 2)
    assert all(r.predicted is None and r.verdict == "n/a" for r in rows2)
    assert rows2[0].set == "g8(1)"


def test_scaling_rows_on_fabricated_result():
    # octic over quartic: the n = 4, 8 rows are exact identities by design
    item = ScanItem(-4, Fraction(3), (8, 4))
    tallies = {
        4: {1: 500, 2: 300, 4: 200},
        8: {1: 260, 2: 240, 4: 300, 8: 200},
    }
    res = ItemResult(item, 10**6, 1000, tallies)
    rows = scaling_rows(res, 8)
    by_n = {r.n: r for r in rows}
    assert set(by_n) == {1, 2, 4, 8}
    assert all(r.source == "scaling" for r in rows)
    assert by_n[1].predicted == pytest.approx(0.25)  # (1/2)·δ̂₄¹
    assert by_n[4].empirical == pytest.approx(by_n[4].predicted)  # identity row
    assert by_n[8].empirical == pytest.approx(by_n[8].predicted)
    assert by_n[4].z == pytest.approx(0.0) and by_n[4].verdict == "pass"
    # the biased-looking 260/240 split is well within tolerance at N=1000
    assert by_n[1].verdict == "pass" and by_n[2].verdict == "pass"


def test_scaling_rows_product_rule():
    item = ScanItem(-3, Fraction(2), (6, 2, 3))
    tallies = {
        2: {1: 520, 2: 480},
        3: {1: 530, 3: 470},
        6: {1: 280, 2: 250, 3: 240, 6: 230},
    }
    res = ItemResult(item, 10**6, 1000, tallies)
    rows = scaling_rows(res, 6)
    assert [r.source for r in rows] == ["scaling"] * 4 + ["product-rule"] * 4
    prod = {r.n: r for r in rows if r.source == "product-rule"}
    assert prod[1].predicted == pytest.approx(0.52 * 0.53)
    assert prod[6].predicted == pytest.approx(0.48 * 0.47)


def test_density_report_end_to_end(monkeypatch):
    monkeypatch.setattr(density, "_CHUNK", 6_000)
    rep = density_report(-7, 1, 2, p_max=20_000)
    assert [(r.n, r.predicted) for r in rep.rows] == [
        (1, Fraction(1, 4)),
        (2, Fraction(3, 4)),
    ]
    total, tallies = _oracle_tally(ScanItem(-7, Fraction(1), (2,)), 20_000)
    assert rep.rows[0].N == total
    assert rep.rows[0].empirical == pytest.approx(tallies[2].get(1, 0) / total)
    assert rep.all_pass()
    assert rep.meta["p_max"] == 20_000


def test_density_report_workers_byte_identical(monkeypatch):
    monkeypatch.setattr(density, "_CHUNK", 5_000)
    a = density_report(-4, 3, 4, p_max=30_000, workers=1)
    b = density_report(-4, 3, 4, p_max=30_000, workers=4)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_conjecture_report_end_to_end(monkeypatch):
    monkeypatch.setattr(density, "_CHUNK", 6_000)
    rep = conjecture_report(-4, 1, 8, p_max=20_000)
    by_n = {r.n: r for r in rep.rows}
    assert set(by_n) == {1, 2, 4, 8}
    # identity rows: octic order 4 (resp. 8) is exactly quartic order 2 (resp. 4)
    for n in (4, 8):
        if by_n[n].N:
            assert by_n[n].empirical == pytest.approx(by_n[n].predicted)
    assert rep.all_pass()


# ---------------------------------------------------------------------------
# Per-prime suites


@pytest.mark.parametrize(
    "name", ["twist", "trace-oracle", "quadratic", "cubic", "sextic-order1",
             "odd-factor", "two-factor", "trace-symbol", "nine-cells"]
)
def test_suites_green_on_small_range(name):
    res = verify_suite(name, p_max=2_500)
    assert res.suite == name
    assert res.checked > 0
    assert res.ok(), res.violations[:3]


def test_verify_suite_restrictions_and_errors():
    res = verify_suite("quadratic", ds=[-11], ts=[2], p_max=2_000)
    assert res.ok() and res.params["ds"] == [-11]
    with pytest.raises(ValueError, match="unknown suite"):
        verify_suite("frobenius")
    # nothing the suite cannot honour is silently dropped
    with pytest.raises(ValueError, match="twist suite covers"):
        verify_suite("twist", ds=[-7, -4], p_max=2_000)
    with pytest.raises(ValueError, match="fixes its own discriminant"):
        verify_suite("nine-cells", ds=[-4], p_max=2_000)
    with pytest.raises(ValueError, match="takes no twist"):
        verify_suite("odd-factor", ts=[3], p_max=2_000)


def test_oracle_bound_and_naive_limit_checked_up_front():
    with pytest.raises(ValueError, match="takes no oracle bound"):
        verify_suite("cubic", oracle_bound=100, p_max=2_000)
    with pytest.raises(ValueError, match="must be non-negative"):
        verify_suite("trace-oracle", oracle_bound=-5, p_max=2_000)
    # twist counts every good p < p_max, trace-oracle the split p up to its bound
    with pytest.raises(ValueError, match="int64-safe limit"):
        verify_suite("twist", p_max=2_000_002)
    with pytest.raises(ValueError, match="int64-safe limit"):
        verify_suite("trace-oracle", oracle_bound=2_000_001, p_max=2_000_002)
    res = verify_suite("trace-oracle", oracle_bound=3_000_000, p_max=2_000)
    assert res.ok() and res.params["oracle_bound"] == 3_000_000
    # a zero bound leaves the structure checks only
    assert verify_suite("trace-oracle", oracle_bound=0, p_max=2_000).checked == res.checked


def test_empty_suite_is_not_a_pass():
    res = verify_suite("odd-factor", p_max=5)
    assert res.checked == 0 and res.violations == []
    assert not res.ok()


def _doctored_table():
    """Default table with the d = -11 model replaced by its twist by -1.

    The twist stays inside the quadratic family (so every route still
    computes a coherent trace) but flips a_p at p ≡ 3 (mod 4) — exactly the
    orientation the quadratic law pins down.
    """
    table = dict(default_table())
    m = table[-11]
    b2 = m.a1 * m.a1 + 4 * m.a2
    b4 = 2 * m.a4 + m.a1 * m.a3
    b6 = m.a3 * m.a3 + 4 * m.a6
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    # twist by u: c4 -> u²c4, c6 -> u³c6; here u = -1
    table[-11] = type(m)(0, 0, 0, -27 * c4, -54 * -c6)
    return table


def test_doctored_model_is_caught_by_quadratic_suite():
    clean = verify_suite("quadratic", ds=[-11], ts=[1], p_max=2_000)
    assert clean.ok()
    res = verify_suite("quadratic", ds=[-11], ts=[1], p_max=2_000, table=_doctored_table())
    assert not res.ok()
    assert all(v["suite"] == "quadratic" for v in res.violations)
    # and by the density layer: the trivial-class density flips 1/4 -> 3/4
    rep = density_report(-11, 1, 2, p_max=20_000, table=_doctored_table())
    assert not rep.all_pass()


SUITE_NAMES = ["twist", "trace-oracle", "quadratic", "cubic", "sextic-order1",
               "odd-factor", "two-factor", "trace-symbol", "nine-cells"]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_is_segment_invariant(name, monkeypatch):
    # the suite analogue of test_scan_is_worker_invariant: checks, params and
    # violations (the doctored model makes the quadratic suite's non-empty)
    # do not depend on where the segments are cut
    kwargs = dict(p_max=6_000, table=_doctored_table())
    whole = verify_suite(name, **kwargs)
    monkeypatch.setattr(density, "_CHUNK", 977)
    cut = verify_suite(name, **kwargs)
    assert (cut.checked, cut.params, cut.violations) == (whole.checked, whole.params, whole.violations)
    assert whole.checked > 0


def _quadratic_violations(ds, ts, p_max, table):
    """The quadratic law for d ≠ -4 and integral t, prime by prime from ``ap`` and ``jacobi``."""
    out = []
    for d in ds:
        for t in ts:
            spec = CurveSpec(d, Fraction(t))
            for p in primes_in_range(5, p_max):
                if not spec.is_good(p, table) or jacobi(d, p) != 1:
                    continue
                if p % 4 == 1:
                    expected = 1 if pow(d % p, (p - 1) // 4, p) == 1 else -1
                else:
                    expected = -jacobi(t, p)
                got = jacobi(ap(spec, p, table=table).ap, p)
                if expected != got:
                    out.append({"p": p, "suite": "quadratic", "expected": str(expected), "got": str(got)})
    return out


@pytest.mark.parametrize("cap", [5, 1000])
def test_violation_list_and_order(cap, monkeypatch):
    # five segments; the list runs in case order (t = 1, then t = 2), then p,
    # not segment by segment
    monkeypatch.setattr(density, "_CHUNK", 2_500)
    table = _doctored_table()
    res = verify_suite("quadratic", ds=[-11], ts=[1, 2], p_max=12_000, table=table, max_violations=cap)
    expected = _quadratic_violations([-11], [1, 2], 12_000, table)
    assert 5 < len(expected) < 1000 and expected[-1]["p"] > 10_000
    assert res.violations == expected[:cap]


def test_violation_cap():
    res = verify_suite(
        "quadratic", ds=[-11], ts=[1], p_max=4_000, table=_doctored_table(), max_violations=5
    )
    assert len(res.violations) == 5
    assert res.checked > 5


def test_calibrate_eisenstein_both_conventions_clean():
    out = calibrate_eisenstein(p_max=3_000)
    assert out == {"two-mod-three": 0, "one-mod-three": 0}
