"""Z[i] arithmetic, primary normalization, and the quartic residue symbol.

The symbol oracle throughout is the Euler criterion x^((p-1)/4) compared in
F_p via the image of i; closed forms are tested against it, never against
themselves.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmresidues.gaussian import (
    G8_CLASSES,
    GaussInt,
    closed_form_odd_factor,
    closed_form_trace_symbol,
    closed_form_two,
    i_image,
    odd_factor_exp,
    primary_associate,
    primary_class_mod8,
    quartic_exp,
    quartic_exponent,
    quartic_symbol,
    split_prime,
    trace_symbol_exp,
    two_exp,
)
from cmresidues.curves import CurveSpec, ap_naive
from cmresidues.primes import jacobi, primes_in_range

gauss = st.builds(
    GaussInt,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)


@given(gauss, gauss, gauss)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x * y).norm() == x.norm() * y.norm()
    assert x.times_i() == x * GaussInt(0, 1)


@given(gauss.filter(lambda z: z.norm() % 2 == 1))
@settings(max_examples=300, deadline=None)
def test_primary_unique_among_associates(z):
    prim = [w for w in z.associates() if w.is_primary]
    assert len(prim) == 1
    assert primary_associate(z) == prim[0]
    # primary is stable under conjugation (a odd, b even survives conj)
    assert primary_associate(z).conj().is_primary


def test_split_prime_frozen():
    assert split_prime(13) == GaussInt(3, 2)
    assert split_prime(5) == GaussInt(-1, 2)
    assert split_prime(17) == GaussInt(1, 4)


def test_split_prime_properties():
    for p in primes_in_range(5, 3000):
        if p % 4 != 1:
            continue
        pi = split_prime(p)
        assert pi.norm() == p
        assert pi.is_primary
        assert pi.im > 0
        with_r = i_image(pi, p)
        # i_image realizes reduction mod pi: the hom Z[i] -> F_p, i |-> r,
        # must kill pi itself
        assert (pi.re + pi.im * with_r) % p == 0
        assert (with_r * with_r + 1) % p == 0


def test_split_prime_rejects_inert():
    with pytest.raises(ValueError):
        split_prime(7)


def test_non_prime_input_raises():
    for n in (169, 1):  # 1 gave the unit 1 + 0i
        with pytest.raises(ValueError, match="not prime"):
            split_prime(n)
    with pytest.raises(ValueError, match="does not divide"):
        i_image(GaussInt(3, 2), 17)  # 3+2i divides 13, not 17


def _euler_exp(x: int, p: int, pi: GaussInt) -> int:
    """Independent symbol computation: match x^((p-1)/4) against powers of r."""
    r = i_image(pi, p)
    target = pow(x % p, (p - 1) // 4, p)
    for e in range(4):
        if pow(r, e, p) == target:
            return e
    raise AssertionError(f"{x}^((p-1)/4) not a power of i mod {p}")


def test_quartic_exponent_vs_euler():
    for p in primes_in_range(5, 2000):
        if p % 4 != 1:
            continue
        pi = split_prime(p)
        for x in (2, 3, 5, -1, 7, 11, Fraction(1, 2), Fraction(-3, 4)):
            xi = x if isinstance(x, int) else x.numerator * pow(x.denominator, -1, p)
            if xi % p == 0:
                continue
            assert quartic_exponent(x, pi, p) == _euler_exp(xi, p, pi)


def test_quartic_symbol_algebra():
    p = 13
    pi = split_prime(p)
    for x in (2, 3, 5, 6):
        for y in (2, 3, 5, 6):
            assert (quartic_symbol(x, pi) * quartic_symbol(y, pi)) == quartic_symbol(x * y, pi)
    # conjugation equivariance: (x / conj pi)_4 = conj (x / pi)_4
    for x in (2, 3, 5, 6):
        assert quartic_symbol(x, pi.conj()) == quartic_symbol(x, pi).conj()
    assert str(quartic_symbol(1, pi)) == "1"
    assert quartic_symbol(3, pi).order() in (1, 2, 4)


def test_squares_have_even_exponent():
    for p in primes_in_range(5, 500):
        if p % 4 != 1:
            continue
        pi = split_prime(p)
        for x in (2, 3, 5):
            if x % p == 0:
                continue
            e = quartic_exponent(x * x, pi, p)
            assert e % 2 == 0
            # (x^2/pi)_4 = (x/pi)_4^2 = (x/p), the Legendre symbol of x
            assert (e // 2) % 2 == (0 if jacobi(x, p) == 1 else 1)


def test_closed_form_two_vs_euler():
    for p in primes_in_range(5, 5000):
        if p % 4 != 1:
            continue
        pi = split_prime(p)
        assert closed_form_two(pi).exp == quartic_exponent(2, pi, p)


def _odd_prime_factors(n):
    n = abs(n)
    f = 3
    while f * f <= n:
        if n % f == 0:
            yield f
            while n % f == 0:
                n //= f
        f += 2
    if n > 1:
        yield n


def test_closed_form_odd_factor_vs_euler():
    for p in primes_in_range(5, 5000):
        if p % 4 != 1:
            continue
        pi = split_prime(p)
        for ell in _odd_prime_factors(pi.re):
            assert closed_form_odd_factor(ell, pi).exp == quartic_exponent(ell, pi, p)


def test_closed_form_trace_symbol_conj_equivariant():
    # the trace lives in Z, so its symbol at conj(pi) must be the conjugate
    for p in primes_in_range(5, 800):
        if p % 4 != 1:
            continue
        pi = split_prime(p)
        for t in (1, 2, -2, 3, 6, Fraction(-8)):
            a = closed_form_trace_symbol(pi, t)
            b = closed_form_trace_symbol(pi.conj(), t)
            assert b == a.conj(), (p, t)


def test_trace_symbol_frozen_values():
    # hand-checked smallest cases of the quartic-family trace symbol
    assert str(closed_form_trace_symbol(split_prime(13), 1)) == "-i"
    assert str(closed_form_trace_symbol(split_prime(5), 1)) == "i"


def _rational_mod(x, p):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def test_int_level_closed_forms_match_public_and_euler():
    # both primary divisors of p, so the conjugate (negative b) is covered
    twists = (1, 2, -2, 3, 6, -8, Fraction(3, 5), Fraction(-1, 2))
    for p in primes_in_range(5, 3000):
        if p % 4 != 1:
            continue
        for pi in (split_prime(p), split_prime(p).conj()):
            a, b = pi.re, pi.im
            assert two_exp(a, b) == closed_form_two(pi).exp == _euler_exp(2, p, pi)
            for x in (2, 3, 5, -1, 7, -12, Fraction(1, 2), Fraction(-3, 4)):
                xi = _rational_mod(x, p)
                if xi:
                    assert quartic_exp(x, a, b, p) == quartic_exponent(x, pi, p) == _euler_exp(xi, p, pi)
            for ell in _odd_prime_factors(a):
                assert odd_factor_exp(ell, a, b) == closed_form_odd_factor(ell, pi).exp == _euler_exp(ell, p, pi)
            for t in twists:
                if (2 * Fraction(t).numerator * Fraction(t).denominator) % p == 0:
                    continue
                e = trace_symbol_exp(a, b, t, p)
                assert e == closed_form_trace_symbol(pi, t).exp
                if p < 400:  # the symbol of the point-counted trace, by Euler
                    assert e == _euler_exp(ap_naive(CurveSpec(-4, t), p), p, pi), (p, pi, t)


def test_int_level_closed_forms_refuse_what_the_public_ones_refuse():
    p, (a, b) = 13, (3, 2)  # 3+2i is primary; -3-2i, 2-3i and 3+3i are not
    for bad in ((-3, -2), (2, -3), (3, 3)):
        with pytest.raises(ValueError, match="not primary"):
            two_exp(*bad)
        with pytest.raises(ValueError, match="not primary"):
            closed_form_two(GaussInt(*bad))
        with pytest.raises(ValueError, match="not primary"):
            trace_symbol_exp(*bad, 1, p)
        with pytest.raises(ValueError, match="not primary"):
            closed_form_trace_symbol(GaussInt(*bad), 1)
    for ell in (5, 2, 4, -3, 0):  # ℓ ∤ a, ℓ even, ℓ not positive
        with pytest.raises(ValueError, match="odd divisor"):
            odd_factor_exp(ell, a, b)
        with pytest.raises(ValueError, match="odd divisor"):
            closed_form_odd_factor(ell, GaussInt(a, b))
    for t in (13, -26, Fraction(13, 2)):  # p | t
        with pytest.raises(ValueError, match="quartic symbol of 0"):
            trace_symbol_exp(a, b, t, p)
        with pytest.raises(ValueError, match="quartic symbol of 0"):
            closed_form_trace_symbol(GaussInt(a, b), t)
        with pytest.raises(ValueError, match="quartic symbol of 0"):
            quartic_exp(t, a, b, p)
    with pytest.raises(ValueError):  # a denominator p has no inverse mod p
        trace_symbol_exp(a, b, Fraction(1, 13), p)
    for pi, q in ((GaussInt(3, 2), 17), (GaussInt(13, 0), 13)):  # π ∤ q
        with pytest.raises(ValueError, match="does not divide"):
            quartic_exp(2, pi.re, pi.im, q)
        with pytest.raises(ValueError, match="does not divide"):
            quartic_exponent(2, pi, q)
    with pytest.raises(ValueError, match="not a power of i"):  # 7+4i has the composite norm 65
        quartic_exp(2, 7, 4, 65)


def test_primary_class_mod8():
    assert primary_class_mod8(73) == "5"
    assert primary_class_mod8(113) == "1"
    seen = set()
    for p in primes_in_range(5, 6000):
        if p % 8 != 1:
            continue
        klass = primary_class_mod8(p)
        assert klass in G8_CLASSES
        # direct definition: reduce the primary divisor mod 8; for p = 1 mod 8
        # primariness forces a = 1 mod 4 and 4 | b
        pi = split_prime(p)
        a8, b8 = pi.re % 8, pi.im % 8
        assert a8 in (1, 5) and b8 in (0, 4)
        want = {(1, 0): "1", (5, 0): "5", (1, 4): "1+4i", (5, 4): "5+4i"}[(a8, b8)]
        assert klass == want
        seen.add(klass)
    assert seen == set(G8_CLASSES), "all four classes occur"
