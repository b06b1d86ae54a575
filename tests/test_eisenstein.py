"""Z[ω] arithmetic, primary conventions, and the cubic residue symbol.

The independent oracle here is a full discrete-log table at small primes:
for a generator g of F_p* with s = g^(k(p-1)/3), the exponent of (x/π)_3
must equal ind_g(x) * k^{-1} mod 3.  Everything else is structural
(ideal-independence, conjugation, multiplicativity, class counts).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmresidues.eisenstein import (
    CUBIC_ONE,
    CubicSymbol,
    EisInt,
    cubic_exponent,
    cubic_symbol,
    omega_image,
    primary_associate_eis,
    split_prime_eis,
)
from cmresidues.primes import primes_in_range

eis = st.builds(
    EisInt,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)


@given(eis, eis, eis)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert (x - y) + y == x
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x * y).norm() == x.norm() * y.norm()
    assert x.times_omega() == x * EisInt(0, 1)


def test_omega_arithmetic():
    w = EisInt(0, 1)
    assert w * w == EisInt(-1, -1)          # ω² = -1 - ω
    assert w * w + w + EisInt(1, 0) == EisInt(0, 0)
    assert w * w * w == EisInt(1, 0)        # ω³ = 1
    assert w.conj() == w * w                # ω̄ = ω²
    assert w.norm() == 1


@given(eis)
@settings(max_examples=300, deadline=None)
def test_norm_is_z_times_conj(z):
    prod = z * z.conj()
    assert prod == EisInt(z.norm(), 0)
    assert z.norm() >= 0


@given(eis.filter(lambda z: z.norm() % 3 != 0 and z.norm() != 0))
@settings(max_examples=300, deadline=None)
def test_primary_unique_among_associates(z):
    # six associates hit the six invertible residues mod 3 exactly once each,
    # so residue 2 and residue 1 each pick a unique representative: the
    # primary associate and its negative
    pi = primary_associate_eis(z)
    for target, want in ((2, pi), (1, -pi)):
        prim = [
            w for w in z.associates() if w.a % 3 == target and w.b % 3 == 0
        ]
        assert prim == [want]


def test_primary_rejects_norm_divisible_by_three():
    with pytest.raises(ValueError):
        primary_associate_eis(EisInt(1, 2))  # norm 3


def test_split_prime_frozen():
    pi7 = split_prime_eis(7)
    assert (pi7.a, pi7.b) == (-1, -3)
    assert split_prime_eis(13) == EisInt(-1, 3)
    assert -split_prime_eis(13) == EisInt(1, -3)  # the generator ≡ 1 (mod 3)


def test_split_prime_properties():
    for p in primes_in_range(5, 3000):
        if p % 3 != 1:
            continue
        pi = split_prime_eis(p)
        assert pi.norm() == p
        assert pi.a % 3 == 2 and pi.b % 3 == 0
        s = omega_image(pi, p)
        # omega_image realizes reduction mod pi: the hom Z[ω] -> F_p, ω |-> s,
        # must kill pi itself
        assert (pi.a + pi.b * s) % p == 0
        assert (s * s + s + 1) % p == 0
        # the generator ≡ 1 (mod 3) is -π, which generates the same ideal
        assert (-pi).a % 3 == 1 and -pi in pi.associates()


def test_split_prime_rejects_inert():
    with pytest.raises(ValueError):
        split_prime_eis(5)
    with pytest.raises(ValueError):
        split_prime_eis(3)


def test_non_prime_input_raises():
    # an odd square hung the root search; 55 failed an assert; 703 = 19·37,
    # 1891 = 31·61 and 2821 = 7·13·31 gave 29 + 6ω and the like, and 1 a unit
    for n in (49, 55, 703, 1891, 2821, 1):
        with pytest.raises(ValueError, match="not prime"):
            split_prime_eis(n)
    with pytest.raises(ValueError, match="does not divide"):
        omega_image(EisInt(3, 1), 13)  # 3 + ω has norm 7


def test_conjugate_omega_image_is_other_root():
    for p in primes_in_range(5, 500):
        if p % 3 != 1:
            continue
        pi = split_prime_eis(p)
        s = omega_image(pi, p)
        t = omega_image(pi.conj(), p)
        assert t == s * s % p and t != s


def test_exponent_is_ideal_invariant():
    for p in (7, 13, 31, 103, 499):
        pi = split_prime_eis(p)
        for x in (2, 3, 5, p - 1):
            exps = {cubic_exponent(x, gen, p) for gen in pi.associates()}
            assert len(exps) == 1


def _dlog_table(p):
    """Full index table for F_p*, from the smallest generator."""
    for g in range(2, p):
        seen = {}
        acc = 1
        for k in range(p - 1):
            seen[acc] = k
            acc = acc * g % p
        if len(seen) == p - 1:
            return g, seen
    raise AssertionError(f"no generator mod {p}?")


def test_exponent_against_discrete_log():
    for p in primes_in_range(5, 200):
        if p % 3 != 1:
            continue
        pi = split_prime_eis(p)
        s = omega_image(pi, p)
        g, ind = _dlog_table(p)
        k = ind[s] // ((p - 1) // 3)        # s = g^(k(p-1)/3), k in {1,2}
        assert k in (1, 2) and ind[s] == k * (p - 1) // 3
        kinv = pow(k, -1, 3)
        for x in range(1, p):
            assert cubic_exponent(x, pi, p) == ind[x] * kinv % 3


def test_exponent_class_counts():
    # each of the three symbol classes contains exactly (p-1)/3 residues
    for p in (7, 13, 31, 61):
        pi = split_prime_eis(p)
        counts = [0, 0, 0]
        for x in range(1, p):
            counts[cubic_exponent(x, pi, p)] += 1
        assert counts == [(p - 1) // 3] * 3


@given(st.sampled_from([7, 13, 19, 31, 37, 43]), st.data())
@settings(max_examples=150, deadline=None)
def test_symbol_algebra(p, data):
    pi = split_prime_eis(p)
    x = data.draw(st.integers(min_value=1, max_value=p - 1))
    y = data.draw(st.integers(min_value=1, max_value=p - 1))
    # multiplicative in numerator
    assert (cubic_symbol(x, pi) * cubic_symbol(y, pi)).exp == cubic_exponent(
        x * y, pi, p
    )
    # cubes are trivial
    assert cubic_exponent(x * x * x, pi, p) == 0
    # conjugating the modulus conjugates the value
    assert cubic_exponent(x, pi.conj(), p) == CubicSymbol(
        cubic_exponent(x, pi, p)
    ).conj().exp


def test_rational_arguments():
    pi = split_prime_eis(13)
    p = 13
    inv5 = pow(5, -1, p)
    assert cubic_exponent(Fraction(2, 5), pi, p) == cubic_exponent(
        2 * inv5, pi, p
    )
    with pytest.raises(ValueError):
        cubic_exponent(Fraction(13, 5), pi, p)
    with pytest.raises(ValueError):
        cubic_exponent(0, pi, p)


def test_symbol_value_api():
    assert cubic_symbol(2, EisInt(3, 1)).exp == 1
    assert str(CubicSymbol(0)) == "1"
    assert str(CubicSymbol(1)) == "w"
    assert str(CubicSymbol(2)) == "w^2"
    assert str(CubicSymbol(5)) == "w^2"     # exponent reduced mod 3
    assert CUBIC_ONE.order() == 1
    assert CubicSymbol(1).order() == CubicSymbol(2).order() == 3
    assert (CubicSymbol(1) * CubicSymbol(2)) == CUBIC_ONE
    assert CubicSymbol(1).conj() == CubicSymbol(2)
