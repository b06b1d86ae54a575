"""Prime-set grammar and the nine-cell partition of p ≡ 1 (mod 4).

The parser is checked by round-trip against hypothesis-generated trees, the
classifier against an independently-coded evaluator, and the cell table
against actual traces of y² = x³ - tx (the partition must pin the symbol
order per cell, and the g8 rows the symbol value too).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmresidues.curves import CurveSpec, ap
from cmresidues.gaussian import G8_CLASSES, primary_class_mod8, quartic_exponent, split_prime
from cmresidues.prime_sets import (
    And,
    CongMod,
    G8,
    Not,
    Or,
    QuarticCell,
    SetExprError,
    SymOrder,
    classify,
    parse_set,
    quartic_cell,
    quartic_cell_expr,
)
from cmresidues.primes import jacobi, order_dividing, primes_in_range

# ---------------------------------------------------------------------------
# Strategies


def _symord(m):
    divisors = [n for n in range(1, m + 1) if m % n == 0]
    return st.builds(
        SymOrder,
        st.just(m),
        st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
        st.sampled_from(divisors),
    )


atoms = st.one_of(
    st.builds(
        CongMod,
        st.integers(min_value=1, max_value=24),
        st.lists(st.integers(min_value=-10, max_value=40), min_size=1, max_size=3).map(tuple),
    ),
    st.integers(min_value=1, max_value=12).flatmap(_symord),
    st.sampled_from([G8(c) for c in G8_CLASSES]),
)

exprs = st.recursive(
    atoms,
    lambda ch: st.one_of(
        st.tuples(ch, ch).map(lambda ab: ab[0] & ab[1]),
        st.tuples(ch, ch).map(lambda ab: ab[0] | ab[1]),
        ch.map(lambda e: ~e),
    ),
    max_leaves=8,
)


# ---------------------------------------------------------------------------
# Parser


@given(exprs)
@settings(max_examples=300, deadline=None)
def test_parse_round_trips_str(e):
    assert parse_set(str(e)) == e


def test_docstring_normalisation():
    assert str(parse_set("mod(8;5,1) & symord(2;3;2)")) == "mod(8;1,5) & symord(2;3;2)"
    assert parse_set("g8(5+4i)") == G8("5+4i")


def test_precedence_and_parens():
    a, b, c = CongMod(4, (1,)), G8("1"), SymOrder(2, 3, 1)
    assert parse_set("mod(4;1) & g8(1) | symord(2;3;1)") == Or(((a & b), c))
    assert parse_set("mod(4;1) & (g8(1) | symord(2;3;1))") == a & Or((b, c))
    assert parse_set("!mod(4;1) & g8(1)") == And((Not(a), b))
    assert parse_set("!(mod(4;1) & g8(1))") == Not(a & b)
    assert parse_set("!!mod(4;1)") == a  # involution


def test_operator_flattening():
    a, b, c = CongMod(4, (1,)), CongMod(3, (1,)), CongMod(5, (2,))
    assert (a & b) & c == And((a, b, c))
    assert a | (b | c) == Or((a, b, c))
    assert parse_set("mod(4;1) & mod(3;1) & mod(5;2)") == And((a, b, c))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "expected an atom"),
        ("foo(3)", "unknown atom 'foo'"),
        ("mod(4;1) &", "expected an atom"),
        ("mod(4;1", "unterminated"),
        ("(mod(4;1)", "expected ')'"),
        ("mod(4;1) mod(3;1)", "unexpected"),
        ("mod(0;1)", "modulus"),
        ("mod(4)", "expects mod"),
        ("symord(4;3;3)", "does not divide"),
        ("symord(4;0;1)", "nonzero"),
        ("symord(4;3)", "expects symord"),
        ("g8(7)", "class"),
        ("g8(1;2)", "single class"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(SetExprError, match="position") as err:
        parse_set(text)
    assert fragment in str(err.value)
    assert 0 <= err.value.pos <= len(text)


def test_atom_validation_direct():
    assert CongMod(8, (13, 5, -3)).residues == (5,)  # normalised, deduplicated
    with pytest.raises(ValueError):
        CongMod(8, ())
    s = SymOrder(4, 3, 2)
    assert isinstance(s.t, Fraction)
    with pytest.raises(ValueError):
        G8("3+4i")


# ---------------------------------------------------------------------------
# Classifier semantics


def _eval(p, e):
    """Independent reference evaluator (same semantics, separate code path)."""
    if isinstance(e, CongMod):
        return any(p % e.modulus == r for r in e.residues)
    if isinstance(e, SymOrder):
        if p == 1 or (p - 1) % e.m or (e.t.numerator * e.t.denominator) % p == 0:
            return False
        tm = e.t.numerator * pow(e.t.denominator, -1, p) % p
        v = pow(tm, (p - 1) // e.m, p)
        order = next(n for n in range(1, e.m + 1) if e.m % n == 0 and pow(v, n, p) == 1)
        return order == e.n
    if isinstance(e, G8):
        return p % 8 == 1 and primary_class_mod8(p) == e.klass
    if isinstance(e, And):
        return all(_eval(p, q) for q in e.parts)
    if isinstance(e, Or):
        return any(_eval(p, q) for q in e.parts)
    return not _eval(p, e.inner)


@given(exprs, st.sampled_from(list(primes_in_range(3, 500))))
@settings(max_examples=400, deadline=None)
def test_classify_matches_reference(e, p):
    assert classify(p, e) == _eval(p, e)


def test_symord_two_is_quadratic_residue():
    for p in primes_in_range(3, 300):
        for t in (2, 3, Fraction(-5, 7)):
            if (t.numerator if isinstance(t, Fraction) else t) % p == 0:
                continue
            e = SymOrder(2, t, 1)
            tm = Fraction(t)
            if tm.denominator % p == 0:
                continue
            expected = jacobi(tm.numerator * pow(tm.denominator, -1, p) % p, p) == 1
            assert classify(p, e) == expected


def test_classify_rejects_non_expressions():
    with pytest.raises(TypeError):
        classify(13, "mod(4;1)")


# ---------------------------------------------------------------------------
# Nine-cell partition


def test_cell_frozen_examples():
    assert quartic_cell(13, 1) is QuarticCell.C85_Q4
    assert quartic_cell(17, 1) is QuarticCell.G8_1P4I


_CELL_SPELLING = {
    QuarticCell.G8_1: "g8(1)",
    QuarticCell.G8_1P4I: "g8(1+4i)",
    QuarticCell.G8_5_PLUS: "g8(5) & symord(2;{t};1)",
    QuarticCell.G8_5_MINUS: "g8(5) & symord(2;{t};2)",
    QuarticCell.G8_5P4I_PLUS: "g8(5+4i) & symord(2;{t};1)",
    QuarticCell.G8_5P4I_MINUS: "g8(5+4i) & symord(2;{t};2)",
    QuarticCell.C85_Q1: "mod(8;5) & symord(4;{h};1)",
    QuarticCell.C85_QM1: "mod(8;5) & symord(4;{h};2)",
    QuarticCell.C85_Q4: "mod(8;5) & symord(4;{h};4)",
}


@pytest.mark.parametrize("t, h", [(Fraction(3), "3/2"), (Fraction(1, 2), "1/4")])
def test_cell_exprs_frozen_spelling(t, h):
    # the public spelling of every cell: g8 cells ask (t/p), the p ≡ 5 (mod 8)
    # cells the quartic class of t/2
    for cell in QuarticCell:
        assert str(quartic_cell_expr(cell, t)) == _CELL_SPELLING[cell].format(t=t, h=h), cell


def test_cell_error_paths():
    with pytest.raises(ValueError, match="not 1 mod 4"):
        quartic_cell(7, 1)
    with pytest.raises(ValueError, match="divides 2t"):
        quartic_cell(13, 13)
    with pytest.raises(ValueError, match="divides 2t"):
        quartic_cell(13, Fraction(1, 13))


@pytest.mark.parametrize("t", [Fraction(1), Fraction(3), Fraction(5, 2), Fraction(-6)])
def test_cells_partition_and_match_exprs(t):
    cells = list(QuarticCell)
    for p in primes_in_range(5, 3000):
        if p % 4 != 1 or (2 * t.numerator * t.denominator) % p == 0:
            continue
        cell = quartic_cell(p, t)
        hits = [c for c in cells if classify(p, quartic_cell_expr(c, t))]
        assert hits == [cell], (p, t)


@pytest.mark.parametrize("t", [Fraction(1), Fraction(2), Fraction(-3), Fraction(3, 7)])
def test_cells_pin_trace_symbol(t):
    spec = CurveSpec(-4, t)
    for p in primes_in_range(5, 2000):
        if p % 4 != 1 or not spec.is_good(p):
            continue
        a = ap(spec, p).ap
        assert a != 0  # split p: ordinary
        pi = split_prime(p)
        e = quartic_exponent(a, pi, p)
        order = {0: 1, 1: 4, 2: 2, 3: 4}[e]  # order of i^e
        cell = quartic_cell(p, t)
        assert order == cell.trace_symbol_order, (p, t, e)
        if cell.trace_symbol_exp is not None:
            assert e == cell.trace_symbol_exp, (p, t)


def test_cell_metadata_shape():
    # g8 cells pin a value (i^0 or i^2); mod-5 cells pin only the order
    for cell in QuarticCell:
        if cell.value.startswith("G8"):
            assert cell.trace_symbol_exp in (0, 2)
            assert cell.trace_symbol_order == (1 if cell.trace_symbol_exp == 0 else 2)
        else:
            assert cell.trace_symbol_exp is None
    assert {c.trace_symbol_order for c in QuarticCell} == {1, 2, 4}
