"""The vectorised segment engine against the scalar per-prime route.

Every stage of ``cmresidues.engine`` is compared prime by prime with the
scalar function it replaces in a scan: traces with ``ap``, set masks with
``classify``, and whole segment tallies with ``_reference_chunk`` below,
the per-prime loop the engine replaced.  The last tests pin the engine's
width limit, p < 2³², at its edge.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

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
from test_acceptance import batch

SWEEP = tuple(item for item, _, _ in batch())  # the 40-item acceptance batch
BIG = Fraction(-(3**43 + 4), 7**25)  # numerator and denominator both above 2⁶⁴
TWISTS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(3, 4), Fraction(-7, 4), Fraction(6), BIG)
EDGE = (P_LIMIT - 20_000, P_LIMIT)


def _plan(items, table=None):
    """A scan chunk's plan: the items and the curve of each, as ``scan_batch`` builds them."""
    return items, tuple(CurveSpec(it.d, it.t, table and table[it.d]) for it in items)


def _reference_chunk(plan, bounds):
    """The per-prime scan loop: sieve, split test, ``ap``, ``classify``, ``order_dividing``."""
    items, specs = plan
    lo, hi = bounds
    groups = {}
    for idx, spec in enumerate(specs):
        groups.setdefault(spec, []).append(idx)
    totals = [0] * len(items)
    tallies = [{m: {} for m in it.moduli} for it in items]
    for p in primes_in_range(lo, hi):
        for spec, idxs in groups.items():
            if not spec.is_good(p) or jacobi(spec.d, p) != 1:
                continue
            members = [
                i
                for i in idxs
                if (p - 1) % math.lcm(*items[i].moduli) == 0
                and (items[i].extra is None or classify(p, items[i].extra))
            ]
            if not members:
                continue
            am = ap(spec, p).ap % p
            for i in members:
                for m in items[i].moduli:
                    o = order_dividing(pow(am, (p - 1) // m, p), m, p)
                    tallies[i][m][o] = tallies[i][m].get(o, 0) + 1
                totals[i] += 1
    return totals, tallies


def _scalar_traces(spec, lo, hi):
    ps = [p for p in primes_in_range(lo, hi) if spec.is_good(p) and jacobi(spec.d, p) == 1]
    return ps, [ap(spec, p).ap for p in ps]


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
    big = mod_array(3**50, edge)
    low = np.choose(np.arange(len(edge)) % 3, [0, 1, edge - 1])  # bases 0, 1 and -1 only: the edge cases
    exps = edge - 2
    exps[::3] = 0
    for base in (big, low, np.where(low == 1, big, low)):
        for exp in (0, 1, 2, 3, 2**31 + 5, EDGE[1] - 1):  # scalar and array exponents agree
            want = [pow(x, exp, p) for x, p in zip(base.tolist(), edge.tolist())]
            assert pow_array(base, exp, edge).tolist() == want, exp
            assert pow_array(base, np.full(len(edge), exp), edge).tolist() == want, exp
        want = [pow(x, e, p) for x, e, p in zip(base.tolist(), exps.tolist(), edge.tolist())]
        assert pow_array(base, exps, edge).tolist() == want


ORDER_MODULI = [(8, 4), (2,), (6, 2, 3), (9, 3), (12, 8, 3), (5, 10)]


def _scalar_orders(a, ps, m):
    return [
        order_dividing(pow(x, (p - 1) // m, p), m, p) if (p - 1) % m == 0 else 0
        for x, p in zip(a.tolist(), ps.tolist())
    ]


@pytest.mark.parametrize("bounds", [(2, 30_000), EDGE])
def test_residue_orders_match_order_dividing(bounds):
    ps = prime_array(*bounds)
    rng = np.random.default_rng(2006)
    a = rng.integers(1, ps) * rng.choice([-1, 1], len(ps))  # signed, as traces are
    odd_k = False
    for moduli in ORDER_MODULI:
        M = math.lcm(*moduli)
        g = np.gcd(ps - 1, M)
        assert M == 2 or ((1 < g) & (g < M)).any()  # a power w of order below M, not only M
        odd_k |= ((ps - 1) // g % 2 == 1).any()  # k = (p-1)/g odd: the sign of a counts
        orders = residue_orders(a, ps, moduli)
        assert set(orders) == set(moduli)
        for m in moduli:
            assert orders[m].tolist() == _scalar_orders(a, ps, m), (moduli, m)
    assert odd_k


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
            spec = CurveSpec(d, t, table[d])
            ps, a = seg.traces(spec)
            assert (ps.tolist(), a.tolist()) == _scalar_traces(spec, 2, 30_000), (D, t)


def test_traces_filtered_by_modulus():
    seg = Segment(2, 30_000)
    for d in DISCRIMINANTS:
        for t in (Fraction(1), Fraction(-7, 4)):
            ps, c, e = seg.units(CurveSpec(d, t))
            for L in (1, 3, 4, 8, 9, 24):
                sel = (ps - 1) % L == 0
                got = seg.units(CurveSpec(d, t), modulus=L)
                want = (ps[sel], c[:, sel], e[sel])
                assert [v.tolist() for v in got] == [v.tolist() for v in want], (d, t, L)


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
        # a restricted walk: a subset of the full one that holds every p ≡ 1 (mod gcd(q, 8))
        for q in (2, 4, 8, 24):
            walked = Segment(lo, lo + 250_000, {d: q}).form(d)[0].tolist()
            assert set(walked) <= set(ps), (d, q)
            assert set(walked) >= {p for p in ps if (p - 1) % math.gcd(q, 8) == 0}, (d, q)


@pytest.mark.parametrize(
    "bounds",
    [(5, 5), (2, 3), (0, 50), "one split prime", (10**6, 10**6 + 1), (10**6, 10**6 + 2), (P_LIMIT - 5, P_LIMIT)],
)
def test_form_of_tiny_and_empty_segments(bounds):
    # segments so narrow that most rows of the lattice hold no point: the walk
    # still finds every odd split prime, 2 never (it splits in -7, and no curve
    # is good there), and a restricted walk still holds every p ≡ 1 (mod 8)
    for d in DISCRIMINANTS:
        if bounds == "one split prime":  # the least split prime of d above 10⁶
            lo = next(p for p in primes_in_range(10**6, 10**6 + 1000) if jacobi(d, p) == 1)
            hi = lo + 1
        else:
            lo, hi = bounds
        split = [p for p in primes_in_range(lo, hi) if p > 2 and jacobi(d, p) == 1]
        assert Segment(lo, hi).form(d)[0].tolist() == split, (d, lo, hi)
        walked = Segment(lo, hi, {d: 8}).form(d)[0].tolist()
        assert set(walked) <= set(split), (d, lo, hi)
        assert set(walked) >= {p for p in split if p % 8 == 1}, (d, lo, hi)
        if bounds == "one split prime":
            assert split == [lo], d


def test_good_traces_are_zero_at_inert_primes():
    seg = Segment(2, 30_000)
    for d in (-4, -3, -19):
        spec = CurveSpec(d, Fraction(-7, 4))
        ps, a = seg.good_traces(spec)
        assert ps.tolist() == [p for p in primes_in_range(2, 30_000) if spec.is_good(p)]
        assert a.tolist() == [ap(spec, p).ap for p in ps.tolist()]


def test_divisors_and_exponents_match_the_scalar_route():
    seg = Segment(13, 30_000)
    for d, k, negate, scalar in (
        (-4, 4, False, quartic_exponent),
        (-3, 3, False, cubic_exponent),
        (-3, 3, True, cubic_exponent),  # -π, the generator ≡ 1 (mod 3): the same symbols
    ):
        ps = seg.form(d)[0]
        a, b = seg.primary(d, ps)
        if d == -4:
            pis = [split_prime(p) for p in ps.tolist()]
        elif negate:
            a, b = -a, -b
            pis = [-split_prime_eis(p) for p in ps.tolist()]
        else:
            pis = [split_prime_eis(p) for p in ps.tolist()]
        assert list(zip(a.tolist(), b.tolist())) == [tuple(vars(pi).values()) for pi in pis]
        for x in (2, 3, 7, 11):
            got = symbol_exponents(np.full(len(ps), x), ps, k, (a, b))
            assert got.tolist() == [scalar(x, pi, p) for pi, p in zip(pis, ps.tolist())]


HUGE = 10**30 + 57  # prime, past the factoring limit: its own Euler base
CHAR_ARGS = (1, -1, 2, -2, 3, 6, -8, 12, 1_000_003, 1_000_003 * 1_000_033, HUGE)


def _divisors_of(d, ps):
    split = split_prime if d == -4 else split_prime_eis
    return [split(p) for p in ps.tolist()]


@pytest.mark.parametrize("bounds", [(3, 30_000), (10**6, 10**6 + 40_000), EDGE])
def test_character_matches_the_scalar_symbols(bounds):
    # the second segment holds 1000003 and 1000033, which divide two of the
    # arguments: the character is asked for only at the primes prime to them
    seg = Segment(*bounds)
    for k, d, scalar in ((2, None, None), (4, -4, quartic_exponent), (3, -3, cubic_exponent)):
        ps = seg.primes[seg.primes % 2 == 1] if d is None else seg.form(d)[0]
        pis = None if d is None else _divisors_of(d, ps)
        for n in CHAR_ARGS:
            keep = [n % p != 0 for p in ps.tolist()]
            q = ps[keep]
            got = seg.character(n, q, k, None if d is None else seg.primary(d, q)).tolist()
            if d is None:
                assert [(-1) ** e for e in got] == [jacobi(n, p) for p in q.tolist()], (n, k)
            else:
                want = [scalar(n, pi, p) for pi, p, kept in zip(pis, ps.tolist(), keep) if kept]
                assert got == want, (n, k)
            assert len(q) > 100


def test_character_of_a_rational_matches_the_scalar_symbols():
    seg = Segment(3, 30_000)
    for k, d, scalar in ((2, -7, None), (4, -4, quartic_exponent), (3, -3, cubic_exponent)):
        ps = seg.form(d)[0]
        for t in (Fraction(3, 4), Fraction(-1_000_003, 12), Fraction(2, HUGE), Fraction(-8, 1_000_003 * 1_000_033)):
            q = ps[[bool(t.numerator % p and t.denominator % p) for p in ps.tolist()]]
            got = seg.character(t, q, k, None if scalar is None else seg.primary(d, q)).tolist()
            if scalar is None:
                assert [(-1) ** e for e in got] == [jacobi(t.numerator * t.denominator, p) for p in q.tolist()], t
            else:
                assert got == [scalar(t, pi, p) for pi, p in zip(_divisors_of(d, q), q.tolist())], (t, k)


def test_huge_and_rational_twists_through_traces():
    seg = Segment(2, 30_000)
    for d in DISCRIMINANTS:
        for t in (Fraction(HUGE), Fraction(-HUGE, 12), Fraction(1_000_003, 1_000_033), Fraction(-8, 1_000_003 * 1_000_033)):
            spec = CurveSpec(d, t)
            ps, a = seg.traces(spec)
            assert (ps.tolist(), a.tolist()) == _scalar_traces(spec, 2, 30_000), (d, t)


def test_closed_forms_for_minus_one_and_two_match_euler(monkeypatch):
    # (-1/p), (2/p), (-1/π)_4, (2/π)_4 = i^(-b/2), (-1/π)_3 = 1 and (2/π)_3 ≡ π (mod 2)
    # at every prime below 10⁶ where they are defined, with no modular power;
    # (2/π)_3 at π and at -π, the generators ≡ 2 and ≡ 1 (mod 3)
    seg = Segment(3, 10**6)
    powers = []

    def counting_pow(base, exp, ps):
        powers.append(len(ps))
        return pow_array(base, exp, ps)

    for k, d, negate in ((2, -4, False), (4, -4, False), (3, -3, False), (3, -3, True)):
        ps = seg.primes if k == 2 else seg.form(d)[0]
        pi = None if k == 2 else seg.primary(d, ps)
        if negate:
            pi = (-pi[0], -pi[1])
        with monkeypatch.context() as patch:
            patch.setattr(engine, "pow_array", counting_pow)
            got = [seg.character(n, ps, k, pi) for n in (-1, 2)]
        assert powers == []
        for n, e in zip((-1, 2), got):
            x = n % ps
            want = symbol_exponents(x, ps, k, pi)
            assert e.tolist() == want.tolist(), (n, k, negate)
            assert len(set(e.tolist())) == {(-1, 3): 1, (-1, 4): 2}.get((n, k), k)  # every value occurs


def test_one_euler_power_per_base_and_segment(monkeypatch):
    # 257 is the least prime past the tables' bound; 257, 514, 1028, -257/4 and
    # 1/257 share it as a base, so each k powers it once at each prime asked
    # for; asking again, or at a subset, takes no power
    assert engine.TABLE_BOUND < 257 and prime_array(engine.TABLE_BOUND, 258).tolist() == [257]
    seg = Segment(3, 60_000)
    full = []

    def counting_pow(base, exp, ps):
        if isinstance(exp, np.ndarray):
            full.append(len(ps))
        return pow_array(base, exp, ps)

    monkeypatch.setattr(engine, "pow_array", counting_pow)
    for k, d in ((2, -7), (4, -4), (3, -3)):
        ps = seg.form(d)[0]
        ps = ps[ps != 257]
        pi = None if k == 2 else seg.primary(d, ps)
        for t in (Fraction(257), Fraction(514), Fraction(1028), Fraction(-257, 4), Fraction(1, 257)):
            seg.character(t, ps, k, pi)
            seg.character(t, ps[::2], k, None if k == 2 else (pi[0][::2], pi[1][::2]))
        assert full == [len(ps)], k
        full.clear()


@pytest.mark.parametrize("k, d", [(2, None), (4, -4), (3, -3)])
def test_reciprocity_tables_match_euler(k, d):
    # every entry that a prime below 2·10⁵ reaches, for every odd prime base below
    # the bound, against Euler's criterion or ``symbol_exponents``; (ℓ/π)_3 at π
    # and at -π, the generators ≡ 2 and ≡ 1 (mod 3)
    seg = Segment(3, 200_000)
    ps = seg.primes if d is None else seg.form(d)[0]
    for negate in (False, True) if k == 3 else (False,):
        pi = None if d is None else seg.primary(d, ps)
        if negate:
            pi = (-pi[0], -pi[1])
        for ell in prime_array(3, engine.TABLE_BOUND).tolist():
            keep = ps % ell != 0
            q, x = ps[keep], np.full(keep.sum(), ell)
            pq = None if d is None else (pi[0][keep], pi[1][keep])
            want = symbol_exponents(x, q, k, pq)
            got = seg.character(ell, q, k, pq)
            assert got.tolist() == want.tolist(), (ell, k, negate)
            assert len(set(got.tolist())) == k, (ell, k, negate)


def test_bases_below_the_bound_take_no_power(monkeypatch):
    # t's odd primes below the bound read tables: no modular power at all, full or scalar
    powers = []

    def counting_pow(base, exp, ps):
        powers.append(len(ps))
        return pow_array(base, exp, ps)

    monkeypatch.setattr(engine, "pow_array", counting_pow)
    t = Fraction(-3 * 5 * 7 * 251, 11 * 13 * 17 * 4)
    for bounds in ((3, 30_000), (10**6, 10**6 + 30_000)):
        seg = Segment(*bounds)
        for k, d in ((2, -7), (4, -4), (3, -3)):
            ps = seg.form(d)[0]
            ps = ps[np.gcd(ps, t.numerator * t.denominator) == 1]
            seg.character(t, ps, k, None if k == 2 else seg.primary(d, ps))
    assert powers == []


def test_importing_the_package_builds_no_table():
    # the tables and the walk classes are built on first use, so start-up does not pay for them
    code = (
        "import cmresidues; cmresidues.load_curve_table(); from cmresidues import engine; "
        "print(engine._reciprocity_table.cache_info().currsize, engine._walk_classes.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["0", "0"]


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
    for ps in (seg.primes[::3], seg.primes):  # symord orders kept from a subset, then completed
        for expr in _set_exprs():
            assert set_mask(expr, ps, seg).tolist() == [classify(p, expr) for p in ps.tolist()], expr


def test_symord_mask_with_a_large_m_and_a_rational_t():
    # den^(m-1) is reduced mod p before its power: a 3-million-bit integer
    # reduced limb by limb took seconds per segment
    seg = Segment(29_900_000, 30_100_000)  # holds 30000001 = 10·m + 1
    ps = seg.primes
    for n in (1, 46_875):  # 46875 is the order of the m-class of 1/2 at 30000001
        expr = SymOrder(3_000_000, Fraction(1, 2), n)
        t0 = time.perf_counter()
        mask = set_mask(expr, ps, seg)
        assert time.perf_counter() - t0 < 1.0
        assert mask.tolist() == [classify(p, expr) for p in ps.tolist()], expr
        assert mask.sum() == (n == 46_875)


# ---------------------------------------------------------------------------
# Whole segments against the per-prime loop


def test_scan_chunk_matches_reference_on_the_sweep():
    assert len(SWEEP) == 40
    # m = 1: every split prime is ≡ 1 (mod 1), and its 1-class has order 1
    plan = _plan(SWEEP + (ScanItem(-7, Fraction(1), (1,)), ScanItem(-3, Fraction(2), (1, 6))))
    assert _scan_chunk(plan, (5, 60_000)) == _reference_chunk(plan, (5, 60_000))


def test_scan_chunk_matches_reference_with_a_table():
    table = dict(default_table())
    table[-11] = _twisted_model(-11, 2)
    items = (ScanItem(-11, Fraction(1), (2, 4)), ScanItem(-11, Fraction(-3, 4), (2,), parse_set("g8(5)")))
    plan = _plan(items, table)
    assert _scan_chunk(plan, (2, 30_000)) == _reference_chunk(plan, (2, 30_000))


def test_a_restricted_walk_serves_another_d_s_g8_mask():
    # the d = -4 walk visits only p ≡ 1 (mod 8); g8(...) on the d = -7 item reads
    # primary divisors there, and only there
    items = (ScanItem(-4, Fraction(3), (8,)), ScanItem(-7, Fraction(1), (2,), parse_set("g8(5+4i) | g8(1)")))
    plan = _plan(items)
    assert _scan_chunk(plan, (5, 60_000)) == _reference_chunk(plan, (5, 60_000))
    assert all(total > 0 for total in _scan_chunk(plan, (5, 60_000))[0])


def test_a_restricted_walk_refuses_the_primes_it_skipped():
    seg = Segment(5, 30_000, {-4: 8})
    with pytest.raises(ValueError, match="did not visit p = 13"):
        seg.primary(-4, np.array([13]))  # 13 ≡ 5 (mod 8)
    with pytest.raises(ValueError, match="skips primes"):
        seg.good_traces(CurveSpec(-4, 3))
    with pytest.raises(ValueError, match="skips primes"):
        seg.units(CurveSpec(-4, 3), 4)
    a, b = seg.primary(-4, np.array([17, 41]))
    assert list(zip(a.tolist(), b.tolist())) == [tuple(vars(split_prime(p)).values()) for p in (17, 41)]


def test_octic_scan_takes_one_full_power(monkeypatch):
    # (3/π)_4 comes from its table, so the one power left is the orders' for
    # both moduli, and only at p ≡ 1 (mod 8), the one class the item tallies;
    # the order of w = a^((p-1)/8) then takes three squarings, not powers to
    # 1, 2, 4 and 8; the walk of d = -4 visits exactly the split p ≡ 1 (mod 8)
    full, scalar, forms = [], [], []
    form = Segment.form

    def counting_pow(base, exp, ps):
        (full if isinstance(exp, np.ndarray) else scalar).append((ps.copy(), exp))
        return pow_array(base, exp, ps)

    def recording_form(seg, d):
        out = form(seg, d)
        forms.append((d, seg.lo, seg.hi, out[0]))
        return out

    monkeypatch.setattr(engine, "pow_array", counting_pow)
    monkeypatch.setattr(Segment, "form", recording_form)
    plan = _plan((ScanItem(-4, Fraction(3), (8, 4)),))
    totals, _ = _scan_chunk(plan, (10**6, 10**6 + 250_000))
    assert totals[0] > 0
    assert len(full) == 1
    assert [exp for _, exp in scalar] == [2, 2, 2]
    for ps, _ in full + scalar:
        assert len(ps) > 0 and (ps % 8 == 1).all()
    monkeypatch.undo()
    d, lo, hi, walked = forms[0]
    split = Segment(lo, hi).form(-4)[0]
    assert d == -4 and walked.tolist() == split[split % 8 == 1].tolist()


def _count_full_powers(monkeypatch, ordered=None):
    """(inside ``Segment.orders``, ps, base) of every full-exponent ``pow_array`` call; given a
    list ``ordered``, the ps of every ``order_array`` call inside ``Segment.orders`` go to it."""
    full, stage = [], []
    orders = Segment.orders

    def counting_pow(base, exp, ps):
        if isinstance(exp, np.ndarray):
            full.append((bool(stage), ps.copy(), base.copy()))
        return pow_array(base, exp, ps)

    def recording_order(v, m, ps):
        if stage:
            ordered.append(ps.copy())
        return order_array(v, m, ps)

    def orders_stage(*args):
        stage.append(True)
        try:
            return orders(*args)
        finally:
            stage.pop()

    monkeypatch.setattr(engine, "pow_array", counting_pow)
    monkeypatch.setattr(Segment, "orders", orders_stage)
    if ordered is not None:
        monkeypatch.setattr(engine, "order_array", recording_order)
    return full


def test_sweep_scan_powers_each_distinct_trace_once(monkeypatch):
    # at a split prime the twists of one d have a_p = ±c for one of w_d/2
    # candidates c, so the orders power each (p, |c|) that some item tallies
    # once for all of the d's twists, and nothing else
    full = _count_full_powers(monkeypatch)
    _scan_chunk(_plan(SWEEP), (5, 60_000))
    powered = [(p, x) for inside, ps, base in full if inside for p, x in zip(ps.tolist(), base.tolist())]
    monkeypatch.undo()
    seg = Segment(5, 60_000)
    tallied = set()
    for it in SWEEP:
        ps, a = seg.traces(CurveSpec(it.d, it.t))
        keep = (ps - 1) % math.lcm(*it.moduli) == 0
        if it.extra is not None:
            keep &= set_mask(it.extra, ps, seg)
        tallied |= set(zip(ps[keep].tolist(), (np.abs(a[keep]) % ps[keep]).tolist()))
    assert sorted(powered) == sorted(tallied)  # each pair once, and no other
    # a (d, t) group whose pairs are all powered already takes no call, and the
    # twists' characters read tables: every full power is the orders'
    assert all(inside for inside, _, _ in full)
    assert len(full) == 8 and sum(len(ps) for _, ps, _ in full) == 19_380


CENSUS = tuple(ScanItem(-4, Fraction(t), (8, 4)) for t in range(-40, 3) if t and t % 16)  # fourth-power-free


@pytest.mark.parametrize(
    "items",
    [
        CENSUS,
        (
            ScanItem(-3, Fraction(2), (6, 3)),
            ScanItem(-3, Fraction(2), (2,)),
            ScanItem(-3, Fraction(-5, 4), (3, 2)),
            ScanItem(-3, Fraction(7), (2,), parse_set("mod(4;3)")),
            ScanItem(-3, Fraction(1), (6,)),
        ),
    ],
    ids=["census", "d-3"],
)
def test_many_twists_share_the_orders_of_each_prime(items, monkeypatch):
    # however many twists of d tally a prime, its orders take at most w_d/2 full
    # powers and ``order_array`` runs, one per unit up to sign, and each twist reads
    # its sign off the order; the tallies stay those of the per-prime loop
    bounds = (5, 30_000)
    ordered = []
    full = _count_full_powers(monkeypatch, ordered)
    plan = _plan(items)
    assert _scan_chunk(plan, bounds) == _reference_chunk(plan, bounds)
    powered = np.concatenate([ps for inside, ps, _ in full if inside])
    w = 4 if items[0].d == -4 else 6
    assert np.unique(powered, return_counts=True)[1].max() == w // 2
    assert np.unique(np.concatenate(ordered), return_counts=True)[1].max() == w // 2
    monkeypatch.undo()
    seg = Segment(*bounds)
    units = [seg.units(spec) for spec in dict.fromkeys(plan[1])]
    assert set(np.concatenate([e for _, _, e in units]).tolist()) == set(range(w))  # every unit index
    # k = (p-1)/gcd(p-1, lcm of the moduli) odd at a tallied negative a_p: (-1)^k counts
    ps, c, e = units[0]  # the first twist, whose first item tallies every p ≡ 1 mod its lcm
    odd_k = (ps - 1) // np.gcd(ps - 1, math.lcm(*(m for it in items for m in it.moduli))) % 2 == 1
    tallied = (ps - 1) % math.lcm(*items[0].moduli) == 0
    assert (odd_k & tallied & (np.choose(e, [*c, *-c]) < 0)).any()


def test_nine_cells_take_one_symord_power_per_m_and_t(monkeypatch):
    # per twist: symord(2;t;n) and symord(4;t/2;n) for every n the nine cells
    # name, and the quartic symbol of a_p; (3/π)_4 in the trace comes from its table
    full = []

    def counting_pow(base, exp, ps):
        if isinstance(exp, np.ndarray):
            full.append(len(ps))
        return pow_array(base, exp, ps)

    monkeypatch.setattr(engine, "pow_array", counting_pow)
    check = density.SUITES["nine-cells"][0]
    checked, found = density._check_segment("nine-cells", check, [CurveSpec(-4, 3)], (5, 20_000))
    assert checked > 0 and found == []
    assert len(full) == 3


def test_suites_catch_a_wrong_character_in_the_table(monkeypatch):
    # the suites' claimed side takes (t/p) and (t/π)_3 from its own Euler powers
    # of t, so a wrong character for 3 in the segment's table cannot cancel
    character = Segment._base_character

    def wrong_for_three(self, base, ps, k, pi):
        e = character(self, base, ps, k, pi)
        return (e + 1) % k if base == 3 else e

    clean = [density.verify_suite("quadratic", ts=(3,), p_max=20_000), density.verify_suite("cubic", ts=(2, 3), p_max=20_000)]
    assert all(res.ok() for res in clean)
    monkeypatch.setattr(Segment, "_base_character", wrong_for_three)
    quadratic = density.verify_suite("quadratic", ts=(3,), p_max=20_000)
    cubic = density.verify_suite("cubic", ts=(2, 3), p_max=20_000)
    assert quadratic.checked == clean[0].checked and len(quadratic.violations) > 100
    assert cubic.checked == clean[1].checked and len(cubic.violations) > 100


def test_suites_catch_one_wrong_entry_of_a_reciprocity_table(monkeypatch):
    # trace-symbol and nine-cells take their claimed side from the scalar symbols,
    # so one wrong entry of the (3/π)_4 table (p ≡ 1 mod 8, π ≡ 1 + 0i mod 3)
    # shows as violations, over the same checks
    table = engine._reciprocity_table

    def corrupt(ell, k):
        out = table(ell, k)
        if (ell, k) == (3, 4):
            out = out.copy()
            out[0, 1, 0] = (out[0, 1, 0] + 1) % 4
        return out

    names = ("trace-symbol", "nine-cells")
    clean = [density.verify_suite(name, ts=(3, 6), p_max=20_000) for name in names]
    assert all(res.ok() for res in clean)
    monkeypatch.setattr(engine, "_reciprocity_table", corrupt)
    for name, res in zip(names, clean):
        wrong = density.verify_suite(name, ts=(3, 6), p_max=20_000)
        assert wrong.checked == res.checked and len(wrong.violations) > 20, name


# ---------------------------------------------------------------------------
# The width limit p < 2³²


def test_engine_at_the_width_edge(monkeypatch):
    seg = Segment(*EDGE)
    for d in DISCRIMINANTS:
        spec = CurveSpec(d, Fraction(-7, 4))
        ps, a = seg.traces(spec)
        assert len(ps) > 300
        assert (ps.tolist(), a.tolist()) == _scalar_traces(spec, *EDGE), d
    monkeypatch.setattr(density, "_CHUNK", 7_919)
    got = scan_batch(SWEEP, EDGE[1], p_min=EDGE[0])
    totals, tallies = _reference_chunk(_plan(SWEEP), EDGE)
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


@pytest.mark.parametrize("kind", ["item", "mod", "symord"])
def test_moduli_width_limit(kind, monkeypatch):
    # no prime below 2³² is ≡ 1 mod a modulus of 2³² or more: 2³² - 1 is
    # scanned, 2³² is refused before any segment runs
    def item(m):
        if kind == "item":
            return ScanItem(-7, Fraction(1), (m,))
        extra = f"mod({m};1)" if kind == "mod" else f"mod(8;1) & !symord({m};3;1)"
        return ScanItem(-7, Fraction(1), (2,), parse_set(extra))

    mod8 = scan_batch([ScanItem(-7, Fraction(1), (2,), parse_set("mod(8;1)"))], 2_000)[0].total
    assert scan_batch([item(P_LIMIT - 1)], 2_000)[0].total == (mod8 if kind == "symord" else 0) and mod8 > 0

    def no_scan(*args):
        raise AssertionError("a segment ran")

    monkeypatch.setattr(density, "_map_segments", no_scan)
    with pytest.raises(ValueError, match="modulus 4294967296 is past the engine's limit 2\\*\\*32"):
        scan_batch([item(P_LIMIT)], 2_000)
