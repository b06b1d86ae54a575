"""The vectorised segment engine against the scalar per-prime route.

Every stage of ``cmresidues.engine`` is compared prime by prime with the
scalar function it replaces in a scan: traces with ``ap``, set masks with
``classify``, and whole segment tallies with ``_reference_chunk`` below,
the per-prime loop the engine replaced.  The last tests pin the engine's
width limit, p < 2³², at its edge.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from cmresidues import density, engine
from cmresidues.cli import main
from cmresidues.curves import DISCRIMINANTS, CurveModel, CurveSpec, ap, default_table
from cmresidues.density import ScanItem, _scan_chunk, scan_batch
from cmresidues.eisenstein import cubic_exponent, split_prime_eis
from cmresidues.engine import (
    P_LIMIT,
    Segment,
    _form,
    mod_array,
    order_array,
    pow_array,
    residue_orders,
    set_mask,
    symbol_exponents,
)
from cmresidues.gaussian import quartic_exponent, split_prime
from cmresidues.prime_sets import QuarticCell, SymOrder, classify, parse_set, quartic_cell_expr
from cmresidues.primes import jacobi, order_dividing, prime_array, primes_in_range
from test_acceptance import _big_items

BIG = Fraction(-(3**43 + 4), 7**25)  # numerator and denominator both above 2⁶⁴
TWISTS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(3, 4), Fraction(-7, 4), Fraction(6), BIG)
EDGE = (P_LIMIT - 20_000, P_LIMIT)


def _reference_chunk(plan, bounds):
    """The per-prime scan loop: sieve, split test, ``ap``, ``classify``, ``order_dividing``."""
    items, table = plan
    lo, hi = bounds
    groups = {}
    for idx, it in enumerate(items):
        groups.setdefault(CurveSpec(it.d, it.t), []).append(idx)
    totals = [0] * len(items)
    tallies = [{m: {} for m in it.moduli} for it in items]
    for p in primes_in_range(lo, hi):
        for spec, idxs in groups.items():
            if not spec.is_good(p, table) or jacobi(spec.d, p) != 1:
                continue
            members = [
                i
                for i in idxs
                if (p - 1) % math.lcm(*items[i].moduli) == 0
                and (items[i].extra is None or classify(p, items[i].extra))
            ]
            if not members:
                continue
            am = ap(spec, p, table=table).ap % p
            for i in members:
                for m in items[i].moduli:
                    o = order_dividing(pow(am, (p - 1) // m, p), m, p)
                    tallies[i][m][o] = tallies[i][m].get(o, 0) + 1
                totals[i] += 1
    return totals, tallies


def _scalar_traces(spec, lo, hi, table=None):
    ps = [p for p in primes_in_range(lo, hi) if spec.is_good(p, table) and jacobi(spec.d, p) == 1]
    return ps, [ap(spec, p, table=table).ap for p in ps]


def _twisted_model(d, D):
    """Short model of the quadratic twist by D of the shipped E^d."""
    c4, c6 = default_table()[d].c_invariants()
    return CurveModel(0, 0, 0, -27 * D * D * c4, -54 * D**3 * c6)


# ---------------------------------------------------------------------------
# Arithmetic stages


def test_mod_and_pow_arrays():
    ps = prime_array(2, 3_000)
    for n in (0, 1, -1, 7, -(2**64) - 3, 3**90 + 5, BIG.numerator):
        assert mod_array(n, ps).tolist() == [n % p for p in ps.tolist()]
    edge = prime_array(*EDGE)
    base = mod_array(3**50, edge)
    assert pow_array(base, edge - 2, edge).tolist() == [
        pow(3**50, p - 2, p) for p in edge.tolist()
    ]


ORDER_MODULI = [(8, 4), (2,), (6, 2, 3), (9, 3), (12, 8, 3), (5, 10)]


@pytest.mark.parametrize("bounds", [(2, 30_000), EDGE])
def test_residue_orders_match_order_dividing(bounds):
    ps = prime_array(*bounds)
    rng = np.random.default_rng(2006)
    a = rng.integers(1, ps) * rng.choice([-1, 1], len(ps))  # signed, as traces are
    for moduli in ORDER_MODULI:
        M = math.lcm(*moduli)
        g = np.gcd(ps - 1, M)
        assert M == 2 or ((1 < g) & (g < M)).any()  # a power w of order below M, not only M
        got = residue_orders(a, ps, moduli)
        assert set(got) == set(moduli)
        for m in moduli:
            want = [
                order_dividing(pow(x, (p - 1) // m, p), m, p) if (p - 1) % m == 0 else 0
                for x, p in zip(a.tolist(), ps.tolist())
            ]
            assert got[m].tolist() == want, (moduli, m)


def test_residue_orders_reject_zero():
    ps = prime_array(2, 200)
    a = np.ones(len(ps), dtype=np.int64)
    a[ps == 3] = 3  # ≡ 0 at a prime where no modulus divides p - 1: order 0, no error
    assert residue_orders(a, ps, (8, 4))[8][ps == 3].tolist() == [0]
    a[ps == 17] = -17  # ≡ 0 at a selected prime
    with pytest.raises(ValueError, match="no multiplicative order"):
        residue_orders(a, ps, (8, 4))


@pytest.mark.parametrize("m", [1, 2, 5, 8, 12, 72])
def test_order_array_matches_order_dividing(m):
    ps = prime_array(2, 200_000)
    ps = ps[(ps - 1) % m == 0]
    rng = np.random.default_rng(m)
    v = pow_array(rng.integers(1, ps), (ps - 1) // m, ps)  # v^m = 1
    want = [order_dividing(x, m, p) for x, p in zip(v.tolist(), ps.tolist())]
    assert order_array(v, m, ps).tolist() == want
    assert set(want) == {n for n in range(1, m + 1) if m % n == 0}  # every order occurs


def test_order_array_rejects_non_roots():
    ps = prime_array(3, 2_000)
    ps = ps[ps % 8 == 1]
    ones = np.ones(len(ps), dtype=np.int64)
    for bad in (0, 3):  # 0, and 3 with 3^8 ≠ 1 at every such p > 41
        v = ones.copy()
        v[-1] = bad
        with pytest.raises(ValueError, match="no multiplicative order dividing 8"):
            order_array(v, 8, ps)
    with pytest.raises(ValueError, match="dividing 1"):
        order_array(v, 1, ps)
    assert order_array(ones, 1, ps).tolist() == ones.tolist()


# ---------------------------------------------------------------------------
# Traces and masks, prime by prime


@pytest.mark.parametrize("d", DISCRIMINANTS)
def test_engine_traces_match_ap(d):
    seg = Segment(2, 30_000)
    for t in TWISTS:
        spec = CurveSpec(d, t)
        ps, a = seg.traces(spec)
        assert (ps.tolist(), a.tolist()) == _scalar_traces(spec, 2, 30_000), t
    if d in (-8, -11):  # 3 splits in both and is good for t = 1
        assert 3 in seg.traces(CurveSpec(d))[0]


@pytest.mark.parametrize("d", [-7, -8, -11, -19, -43, -67, -163])
def test_engine_traces_on_twisted_table_models(d):
    seg = Segment(2, 30_000)
    for D in (-1, 2, -3):
        table = dict(default_table())
        table[d] = _twisted_model(d, D)
        for t in (Fraction(1), Fraction(-5, 3)):
            spec = CurveSpec(d, t)
            ps, a = seg.traces(spec, table)
            assert (ps.tolist(), a.tolist()) == _scalar_traces(spec, 2, 30_000, table), (D, t)


def test_traces_filtered_by_modulus():
    seg = Segment(2, 30_000)
    for d in DISCRIMINANTS:
        for t in (Fraction(1), Fraction(-7, 4)):
            ps, a = seg.traces(CurveSpec(d, t))
            for L in (1, 3, 4, 8, 9, 24):
                sel = (ps - 1) % L == 0
                got = seg.traces(CurveSpec(d, t), modulus=L)
                assert (got[0].tolist(), got[1].tolist()) == (ps[sel].tolist(), a[sel].tolist()), (d, t, L)


@pytest.mark.parametrize("lo", [5, 10**6, P_LIMIT - 250_000])
def test_form_solves_the_norm_equation(lo):
    # the solution with x, y > 0 and the parity of _FORMS is unique, so these
    # checks pin (p, x, y) whichever way the lattice points are collected
    seg = Segment(lo, lo + 250_000)
    for d in DISCRIMINANTS:
        D, scale, _, _, alpha, beta = _form(d)
        ps, x, y = (arr.tolist() for arr in seg.form(d))
        assert ps == [p for p in seg.primes.tolist() if jacobi(d, p) == 1], d
        for p, u, v in zip(ps, x, y):
            assert u > 0 and v > 0 and u * u + D * v * v == scale * p, (d, p)
            assert (u - alpha * v - beta) % 2 == 0 and (d != -4 or v % 2 == 0), (d, p)


def test_good_traces_are_zero_at_inert_primes():
    seg = Segment(2, 30_000)
    for d in (-4, -3, -19):
        spec = CurveSpec(d, Fraction(-7, 4))
        ps, a = seg.good_traces(spec)
        assert ps.tolist() == [p for p in primes_in_range(2, 30_000) if spec.is_good(p)]
        assert a.tolist() == [ap(spec, p).ap for p in ps.tolist()]


def test_divisors_and_exponents_match_the_scalar_route():
    seg = Segment(13, 30_000)
    for d, k, convention, scalar in (
        (-4, 4, "two-mod-three", quartic_exponent),
        (-3, 3, "two-mod-three", cubic_exponent),
        (-3, 3, "one-mod-three", cubic_exponent),
    ):
        ps = seg.form(d)[0]
        a, b = seg.primary(d, ps, convention)
        if d == -4:
            pis = [split_prime(p) for p in ps.tolist()]
        else:
            pis = [split_prime_eis(p, convention) for p in ps.tolist()]
        assert list(zip(a.tolist(), b.tolist())) == [tuple(vars(pi).values()) for pi in pis]
        for x in (2, 3, 7, 11):
            got = symbol_exponents(np.full(len(ps), x), a, b, ps, k)
            assert got.tolist() == [scalar(x, pi, p) for pi, p in zip(pis, ps.tolist())]


def _set_exprs():
    exprs = []
    for t in (Fraction(1), Fraction(3), Fraction(-2), Fraction(5, 3)):
        cells = [quartic_cell_expr(c, t) for c in QuarticCell]
        exprs += cells + [~e for e in cells] + [cells[0] | cells[6]]
    exprs += [SymOrder(6, Fraction(-7, 4), n) for n in (1, 2, 3, 6)]
    exprs += [parse_set("symord(1;2;1) | mod(12;1,7) & !g8(5+4i)"), SymOrder(1, Fraction(3), 1)]
    return exprs


def test_set_masks_match_classify():
    seg = Segment(2, 30_000)
    ps = seg.primes
    for expr in _set_exprs():
        assert set_mask(expr, ps, seg).tolist() == [classify(p, expr) for p in ps.tolist()], expr


# ---------------------------------------------------------------------------
# Whole segments against the per-prime loop


def test_scan_chunk_matches_reference_on_the_sweep():
    items = tuple(_big_items()[0])
    assert len(items) == 40
    # m = 1: every split prime is ≡ 1 (mod 1), and its 1-class has order 1
    plan = (items + (ScanItem(-7, Fraction(1), (1,)), ScanItem(-3, Fraction(2), (1, 6))), None)
    assert _scan_chunk(plan, (5, 60_000)) == _reference_chunk(plan, (5, 60_000))


def test_scan_chunk_matches_reference_with_a_table():
    table = dict(default_table())
    table[-11] = _twisted_model(-11, 2)
    items = (ScanItem(-11, Fraction(1), (2, 4)), ScanItem(-11, Fraction(-3, 4), (2,), parse_set("g8(5)")))
    plan = (items, table)
    assert _scan_chunk(plan, (2, 30_000)) == _reference_chunk(plan, (2, 30_000))


def test_octic_scan_takes_two_full_powers(monkeypatch):
    # one power for the trace symbol, one for the orders of both moduli, and
    # only at p ≡ 1 (mod 8), the one class the item tallies; the order of
    # w = a^((p-1)/8) then takes three squarings, not powers to 1, 2, 4 and 8
    full, scalar = [], []

    def counting_pow(base, exp, ps):
        (full if isinstance(exp, np.ndarray) else scalar).append((ps.copy(), exp))
        return pow_array(base, exp, ps)

    monkeypatch.setattr(engine, "pow_array", counting_pow)
    plan = ((ScanItem(-4, Fraction(3), (8, 4)),), None)
    totals, _ = _scan_chunk(plan, (10**6, 10**6 + 250_000))
    assert totals[0] > 0
    assert len(full) == 2
    assert [exp for _, exp in scalar] == [2, 2, 2]
    for ps, _ in full + scalar:
        assert len(ps) > 0 and (ps % 8 == 1).all()


# ---------------------------------------------------------------------------
# The width limit p < 2³²


def test_engine_at_the_width_edge(monkeypatch):
    seg = Segment(*EDGE)
    for d in DISCRIMINANTS:
        spec = CurveSpec(d, Fraction(-7, 4))
        ps, a = seg.traces(spec)
        assert len(ps) > 300
        assert (ps.tolist(), a.tolist()) == _scalar_traces(spec, *EDGE), d
    items = tuple(_big_items()[0])
    monkeypatch.setattr(density, "_CHUNK", 7_919)
    got = scan_batch(items, EDGE[1], p_min=EDGE[0])
    totals, tallies = _reference_chunk((items, None), EDGE)
    assert [r.total for r in got] == totals and sum(totals) > 0
    assert [r.tallies for r in got] == tallies


def test_width_limit_is_enforced(capsys):
    item = ScanItem(-7, Fraction(1), (2,))
    with pytest.raises(ValueError, match="limit 2\\*\\*32"):
        scan_batch([item], P_LIMIT + 1, p_min=P_LIMIT - 100)
    code = main(["density", "--d", "-7", "--m", "2", "--pmax", str(P_LIMIT + 1)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "limit 2**32" in captured.err
