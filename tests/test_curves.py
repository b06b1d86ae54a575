"""Trace computation: fast CM routes vs the naive character-sum count.

The closed-form route reads a spec's model only for the twist class of a
non-shipped model, and the naive route only counts points on it, so
agreement over a dense grid of small primes, and a sample of large ones, is
a genuine cross-check; the naive count itself is pinned by Hasse +
supersingularity structure.
"""

import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from sympy import factorint

from cmresidues import curves
from cmresidues.curves import (
    DISCRIMINANTS,
    ApRecord,
    CurveModel,
    CurveSpec,
    _NAIVE_BLOCK,
    _NAIVE_LIMIT,
    _count_cubic,
    _chi_table,
    _reduce,
    ap,
    ap_naive,
    ap_order,
    cornacchia,
    cornacchia_4p,
    default_table,
    load_curve_table,
    model_twist,
    naive_traces,
    unit_count,
)
from cmresidues.eisenstein import split_prime_eis
from cmresidues.gaussian import split_prime
from cmresidues.primes import jacobi, order_dividing, primes_in_range

SMALL_PRIMES = list(primes_in_range(3, 400))
PRIMES_BELOW_3000 = set(primes_in_range(2, 3000))


# ---------------------------------------------------------------------------
# Model table parsing


def test_default_table_complete():
    table = default_table()
    assert sorted(table) == sorted(DISCRIMINANTS)
    assert all(isinstance(m, CurveModel) for m in table.values())


def _write(tmp_path, text):
    f = tmp_path / "curves.txt"
    f.write_text(text)
    return f


def test_table_parses_comments_and_blanks(tmp_path):
    rows = ["# full table", ""]
    for d, m in default_table().items():
        rows.append(f"{d} {m.a1} {m.a2} {m.a3} {m.a4} {m.a6}  # model {d}")
    table = load_curve_table(_write(tmp_path, "\n".join(rows)))
    assert table == default_table()


@pytest.mark.parametrize(
    "mutation, message",
    [
        (lambda rows: rows[:-1], "missing"),
        (lambda rows: rows + [rows[0]], "duplicate"),
        (lambda rows: rows + ["-5 0 0 0 0 1"], "unknown discriminant"),
        (lambda rows: rows[:-1] + [rows[-1] + " 9"], "expected 6 fields"),
        (lambda rows: rows[:-1] + [rows[-1].replace(" ", " x", 1)], "non-integer"),
    ],
)
def test_table_rejects_malformed(tmp_path, mutation, message):
    rows = [
        f"{d} {m.a1} {m.a2} {m.a3} {m.a4} {m.a6}"
        for d, m in default_table().items()
    ]
    with pytest.raises(ValueError, match=message):
        load_curve_table(_write(tmp_path, "\n".join(mutation(rows))))


# ---------------------------------------------------------------------------
# Norm equations


def test_cornacchia_properties():
    for p in primes_in_range(5, 2000):
        for D in (1, 2, 3):
            if p == D or jacobi(-D, p) != 1:
                continue
            x, y = cornacchia(D, p)
            assert x >= 0 and y >= 0
            assert x * x + D * y * y == p


def test_cornacchia_4p_properties():
    for p in primes_in_range(5, 2000):
        for d in (-7, -11, -19, -43, -67, -163):
            if jacobi(d, p) != 1 or p == -d:
                continue
            u, v = cornacchia_4p(d, p)
            assert u > 0 and v > 0
            assert u * u - d * v * v == 4 * p


def test_cornacchia_rejects_nonsplit():
    with pytest.raises(ValueError):
        cornacchia(1, 7)  # -1 non-residue mod 7
    with pytest.raises(ValueError):
        cornacchia_4p(-7, 5)  # -7 non-residue mod 5


def test_norm_equations_reject_every_non_prime():
    # the forms represent composites too (703 = 19·37 = 26² + 3·3², 4·207 = 17² + 11·7²),
    # and 1 = 1² + 0²
    solvers = [partial(cornacchia, D) for D in (1, 2, 3)] + [split_prime, split_prime_eis]
    solvers += [partial(cornacchia_4p, d) for d in (-7, -11, -19, -43, -67, -163)]
    for n in range(3000):
        if n in PRIMES_BELOW_3000:
            continue
        for route in solvers:
            with pytest.raises(ValueError, match="not prime|does not split"):
                route(n)
    with pytest.raises(ValueError, match="not prime"):
        ap(CurveSpec(-11), 207)  # gave a_207 = 17


# ---------------------------------------------------------------------------
# CurveSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        CurveSpec(-5)
    with pytest.raises(ValueError):
        CurveSpec(-4, 0)
    spec = CurveSpec(-4, 2)
    assert spec.t == Fraction(2) and isinstance(spec.t, Fraction)
    assert CurveSpec(-3).w == 6 and CurveSpec(-4).w == 4 and CurveSpec(-7).w == 2
    assert [unit_count(d) for d in (-3, -4, -163)] == [6, 4, 2]


def test_good_reduction_predicate():
    spec = CurveSpec(-7, Fraction(3, 5))
    assert not spec.is_good(2)
    assert not spec.is_good(3)   # p | num t
    assert not spec.is_good(5)   # p | den t
    assert not spec.is_good(7)   # p | d
    assert spec.is_good(11)
    for p in (2, 3, 5, 7):
        with pytest.raises(ValueError):
            ap(spec, p)
        with pytest.raises(ValueError):
            ap_naive(spec, p)


# ---------------------------------------------------------------------------
# The two trace routes agree


TWISTS = (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-3, 4))


@pytest.mark.parametrize("d", DISCRIMINANTS)
def test_fast_route_matches_naive(d):
    for t in TWISTS:
        spec = CurveSpec(d, t)
        for p in SMALL_PRIMES:
            if not spec.is_good(p):
                continue
            rec = ap(spec, p)
            assert rec.ap == ap_naive(spec, p), (d, t, p)
            assert rec.p == p
            if p >= 5:
                assert (rec.kind == "supersingular") == (jacobi(d, p) == -1)
                if rec.kind == "supersingular":
                    assert rec.ap == 0


def test_spot_checks_larger_primes():
    rng = random.Random(7)
    pool = [p for p in primes_in_range(1000, 6000)]
    for d in DISCRIMINANTS:
        for p in rng.sample(pool, 8):
            spec = CurveSpec(d, 5)
            if spec.is_good(p):
                assert ap(spec, p).ap == ap_naive(spec, p), (d, p)


def test_hasse_and_norm_equation():
    from math import isqrt

    for d in DISCRIMINANTS:
        spec = CurveSpec(d, 3)
        for p in primes_in_range(5, 1000):
            if not spec.is_good(p):
                continue
            a = ap(spec, p).ap
            assert a * a <= 4 * p
            if a == 0:
                continue
            # ordinary CM trace: 4p = a² + |d'|·v² with d' = -4, -8 or odd d
            quot = {-4: 4, -8: 8}.get(d, -d)
            rem = 4 * p - a * a
            assert rem % quot == 0, (d, p, a)
            v = isqrt(rem // quot)
            assert quot * v * v == rem, (d, p, a)


def test_isomorphism_invariance():
    # scaling t by a w-th power is an isomorphism, so traces must match
    cases = {-4: 4, -3: 6, -7: 2, -19: 2}
    for d, k in cases.items():
        base = Fraction(3)
        scaled = CurveSpec(d, base * Fraction(5) ** k)
        plain = CurveSpec(d, base)
        for p in primes_in_range(7, 500):
            if plain.is_good(p) and scaled.is_good(p):
                assert ap(plain, p).ap == ap(scaled, p).ap, (d, p)


def test_quadratic_twist_law():
    # for the quadratic families, t -> t·s multiplies a_p by (s/p)
    for d in (-7, -8, -11, -43):
        for s in (2, -1, 3):
            for p in primes_in_range(11, 500):
                a, b = CurveSpec(d, 1), CurveSpec(d, s)
                if not (a.is_good(p) and b.is_good(p)) or p < 5:
                    continue
                assert ap(b, p).ap == jacobi(s % p, p) * ap(a, p).ap, (d, s, p)


def test_char_three_path():
    # p = 3 has no short Weierstrass model; the closed forms hold there too
    for d in (-8, -11):
        spec = CurveSpec(d, 1)
        assert spec.is_good(3)
        rec = ap(spec, 3)
        assert rec.ap == ap_naive(spec, 3)
        assert rec.ap * rec.ap <= 4 * 3


def test_closed_forms_match_naive_near_1e6():
    # far past criterion 1's 2·10⁴: ~30 split primes per family in [9·10⁵, 10⁶]
    rng = random.Random(2006)
    pool = rng.sample(list(primes_in_range(900_000, 1_000_000)), 64)
    twists = (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(7, 4), Fraction(-3, 4))
    cases = []
    for d in DISCRIMINANTS:
        split = [p for p in pool if jacobi(d, p) == 1]
        assert len(split) >= 25, d
        cases += [(p, CurveSpec(d, twists[i % len(twists)])) for i, p in enumerate(split)]
    for p, spec in sorted(cases, key=lambda c: c[0]):  # prime-major: one character table per p
        assert ap(spec, p).ap == ap_naive(spec, p), (spec.d, spec.t, p)


def test_chi_table_keeps_one_table():
    # a table above 10⁶ is 1 MB, and the prime-major callers never revisit a prime
    for p in (1_000_003, 1_000_033, 1_000_037):
        ap_naive(CurveSpec(-4, 1), p)
    assert _chi_table.cache_info().currsize == 1


def _twisted_model(d, D):
    """Short model of the quadratic twist by D of the shipped E^d."""
    c4, c6 = default_table()[d].c_invariants()
    return CurveModel(0, 0, 0, -27 * D * D * c4, -54 * D**3 * c6)


@pytest.mark.parametrize("d", [-7, -8, -11, -19, -43, -67, -163])
def test_twisted_table_models(d):
    for D in (-1, 2, -3):
        table = dict(default_table())
        table[d] = _twisted_model(d, D)
        assert model_twist(d, table[d]) == D
        for t in (Fraction(1), Fraction(-5, 3)):
            spec = CurveSpec(d, t, table[d])
            for p in primes_in_range(5, 700):  # the short model is singular at 2 and 3
                if spec.is_good(p):
                    assert ap(spec, p).ap == ap_naive(spec, p), (D, t, p)


def test_table_model_bad_primes():
    # the short model of the -1 twist of E^-8 is singular mod 3, although 3
    # is good for the shipped model and splits in Q(√-2): both routes refuse it
    table = dict(default_table())
    table[-8] = _twisted_model(-8, -1)
    spec, twisted = CurveSpec(-8), CurveSpec(-8, 1, table[-8])
    assert spec.is_good(3) and not twisted.is_good(3)
    for route in (lambda: ap(twisted, 3), lambda: ap_naive(twisted, 3)):
        with pytest.raises(ValueError, match="bad reduction"):
            route()
    # the shipped models' own discriminants bring no bad prime beyond 2·d
    for d, model in default_table().items():
        assert CurveSpec(d, 1, model).bad_product() == 2 * d
        assert set(factorint(abs(model.discriminant()))) <= {2, 3, -d}, d


def test_non_twist_model_rejected():
    table = dict(default_table())
    table[-11] = default_table()[-19]  # CM by another order: a different j
    for p in (13, 23):  # inert and split for d = -11
        with pytest.raises(ValueError, match="not a twist"):
            ap(CurveSpec(-11, 1, table[-11]), p)


def test_spec_carries_its_model(monkeypatch):
    shipped = default_table()
    spec = CurveSpec(-11, 3, _twisted_model(-11, 2))
    assert spec.twist() == 2 and spec != CurveSpec(-11, 3)
    assert spec.bad_product() == 2 * -11 * 3 * spec.model.discriminant()
    # the shipped model is stored as None, for every d
    for d, model in shipped.items():
        assert CurveSpec(d, 3, model) == CurveSpec(d, 3) and CurveSpec(d, 3, model).model is None
        assert CurveSpec(d, 3).twist() == 1
    # the families t alone fixes take no other model
    for d, model in ((-4, CurveModel(0, 0, 0, -4, 0)), (-3, CurveModel(0, 0, 0, 0, 1))):
        with pytest.raises(ValueError, match="fixed by t alone"):
            CurveSpec(d, 1, model)
    # a spec without a model never reads the table, nor does its closed-form trace
    monkeypatch.setattr(curves, "default_table", lambda: pytest.fail("the table was read"))
    for d in DISCRIMINANTS:
        assert ap(CurveSpec(d, 3), 97).p == 97


def test_naive_count_limit_edge():
    # 1999993 is the largest prime <= 2·10⁶, 2000003 the next one
    spec = CurveSpec(-4, 1)
    batch = [spec, CurveSpec(-3, 2), CurveSpec(-163, Fraction(-3, 4))]
    assert ap_naive(spec, 1_999_993) == ap(spec, 1_999_993).ap
    assert naive_traces(batch, 1_999_993).tolist() == [ap(s, 1_999_993).ap for s in batch]
    with pytest.raises(ValueError, match="int64-safe limit"):
        ap_naive(spec, 2_000_003)
    with pytest.raises(ValueError, match="int64-safe limit"):
        naive_traces(batch, 2_000_003)
    with pytest.raises(ValueError, match="int64-safe limit"):
        _count_cubic([(1, 0, -1, 0)], 2_000_003)


# ---------------------------------------------------------------------------
# The batched naive count


def _euler(v: int, p: int) -> int:
    v %= p
    return 0 if v == 0 else (1 if pow(v, (p - 1) // 2, p) == 1 else -1)


def _count_by_hand(spec, p, table):
    """-Σ_x (f(x)/p) for the family's own cubic, in plain Python: x³ - tx, x³ + 16t, or
    s·D(x) with D the discriminant in y of the table's Weierstrass model (s = -t or t)."""
    t = spec.t.numerator * pow(spec.t.denominator, -1, p)
    m, s = table[spec.d], -t if spec.d == -7 else t
    total = 0
    for x in range(p):
        if spec.d == -4:
            fx = x**3 - t * x
        elif spec.d == -3:
            fx = x**3 + 16 * t
        else:
            fx = s * ((m.a1 * x + m.a3) ** 2 + 4 * (x**3 + m.a2 * x**2 + m.a4 * x + m.a6))
        total -= _euler(fx, p)
    return total


def test_naive_reduction_at_its_edges():
    # floor-division reduction of the count's values, 0 <= v <= 4(p - 1)² + p - 1,
    # at the largest prime under the naive limit
    p = 1_999_993
    assert p < _NAIVE_LIMIT < 2_000_003
    values = [0, p - 1, p, 4 * (p - 1) ** 2 + p - 1]
    assert _reduce(np.array(values, dtype=np.int64), p).tolist() == [v % p for v in values]
    # the cubic with every coefficient p - 1 takes the largest values the count meets
    for q in (1_009, 1_493, 1_777, 1_951, 1_999, 65_521):
        by_hand = -sum(_euler(-(x**3 + x**2 + x + 1), q) for x in range(q))
        assert _count_cubic([(q - 1,) * 4], q).tolist() == [by_hand], q


def test_naive_traces_match_a_count_by_hand():
    # all nine families, five twists, and a twisted table model, in one batch per prime
    table = dict(default_table())
    table[-19] = _twisted_model(-19, -3)
    twists = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 4), Fraction(7, 4))
    specs = [CurveSpec(d, t, table[d]) for d in DISCRIMINANTS for t in twists]
    for p in (5, 11, 13, 17, 29, 37, 41, 43, 67, 101, 163, 389):
        good = [s for s in specs if s.is_good(p)]
        assert {s.d for s in good} >= {-4, -3, -19}, p
        assert naive_traces(good, p).tolist() == [_count_by_hand(s, p, table) for s in good], p


def test_naive_traces_across_block_sizes():
    # 2**16 // p rows per 2-D pass: all 18 at 1009, 4 (a short last block) at 16381,
    # 2 below 2**15, 1 above it, and clamped to 1 past 2**16
    assert _NAIVE_BLOCK == 2**16
    specs = [CurveSpec(d, t) for d in DISCRIMINANTS for t in (Fraction(1), Fraction(-3, 4))]
    for p in (1009, 16_381, 32_749, 32_771, 65_521, 65_537, 262_147):
        good = [s for s in specs if s.is_good(p)]
        assert len(good) == len(specs)
        assert naive_traces(good, p).tolist() == [ap_naive(s, p) for s in good], p


def test_naive_traces_bad_reduction_in_batch():
    # CurveSpec(-8, 3) is bad at 3; its neighbours are good there
    with pytest.raises(ValueError, match="bad reduction"):
        naive_traces([CurveSpec(-7, 1), CurveSpec(-8, 3), CurveSpec(-4, 2)], 3)
    assert naive_traces([], 7).tolist() == []


# ---------------------------------------------------------------------------
# Residue order of the trace


def test_ap_order_matches_direct_computation():
    for d, m in ((-4, 4), (-3, 3), (-3, 6), (-7, 2), (-4, 8)):
        spec = CurveSpec(d, 3)
        for p in primes_in_range(5, 2000):
            if p % m != 1 or not spec.is_good(p) or jacobi(d, p) != 1:
                continue
            a = ap(spec, p).ap
            got = ap_order(spec, p, m)
            assert got == order_dividing(pow(a % p, (p - 1) // m, p), m, p)
            assert m % got == 0
            # n = 1 exactly when a_p is an m-th power residue
            assert (got == 1) == (pow(a % p, (p - 1) // m, p) == 1)


def test_ap_order_error_paths():
    with pytest.raises(ValueError, match="not 1 mod"):
        ap_order(CurveSpec(-4, 1), 7, 4)
    # supersingular prime: no multiplicative order to speak of
    with pytest.raises(ValueError, match="supersingular"):
        ap_order(CurveSpec(-4, 1), 7, 2)


def test_record_shape():
    rec = ap(CurveSpec(-4, 1), 13)
    assert isinstance(rec, ApRecord)
    assert (rec.p, rec.kind) == (13, "ordinary")
