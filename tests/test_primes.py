"""prime_engine: sieve, modular arithmetic, and rational reductions.

Oracles: sympy (primerange, jacobi_symbol, n_order, totient, factorint,
divisors) for everything that has an independent implementation there;
frozen values for the rest.  The package itself never imports sympy.
"""

import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cmresidues.density import _segments
from cmresidues.primes import (
    _divisors,
    _trial_divide,
    euler_phi,
    is_prime,
    jacobi,
    kfree_reduce,
    order_dividing,
    parse_rational,
    primes_in_range,
    reduce_mod,
    sqrt_mod,
    squarefree_part,
)


@pytest.mark.parametrize(
    "lo,hi", [(1, 10), (13, 14), (0, 2), (90, 114), (7900, 8000), (2, 2 * 10**5), (2**32 - 10**6, 2**32)]
)
def test_primes_in_range_vs_sympy(lo, hi):
    assert list(primes_in_range(lo, hi)) == list(sympy.primerange(lo, hi))


def test_prime_count_below_1e6():
    # classic benchmark value; exercises the segmented path (several chunks)
    assert sum(1 for _ in primes_in_range(2, 10**6)) == 78498


def test_prime_range_segments_partition():
    segs = _segments(5, 10**6)
    assert segs[0][0] == 5 and segs[-1][1] == 10**6
    assert all(a[1] == b[0] for a, b in zip(segs, segs[1:]))
    # segment boundaries are a pure function of the range: workers may
    # divide them up but can never change them
    assert segs == _segments(5, 10**6)
    merged = [p for a, b in segs for p in primes_in_range(a, b)]
    assert merged == list(primes_in_range(5, 10**6))


@pytest.mark.parametrize("lo,hi", [(-1, 100), (100, 99)])
def test_bad_prime_range_raises(lo, hi):
    with pytest.raises(ValueError, match="bad prime range"):
        _segments(lo, hi)


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=10**4))
@settings(max_examples=200, deadline=None)
def test_jacobi_vs_sympy(a, n):
    n = 2 * n + 1  # odd modulus
    assert jacobi(a, n) == sympy.jacobi_symbol(a, n)


@pytest.mark.parametrize("p", [5, 13, 17, 97, 10007, 1000003, 999999999989])
def test_sqrt_mod_roundtrip(p):
    found = 0
    for a in range(1, 60):
        if jacobi(a, p) != 1:
            continue
        r = sqrt_mod(a, p)
        assert 0 < r <= p - r, "canonical (smaller) root expected"
        assert r * r % p == a % p
        found += 1
    assert found > 10


def test_sqrt_mod_composite_modulus_raises():
    # (5/21) = (5/3)(5/7) = +1, yet 5 is no square mod 3: Tonelli-Shanks runs
    # past its order bound, which must raise rather than return a wrong root
    assert jacobi(5, 21) == 1
    with pytest.raises(ValueError, match="not prime"):
        sqrt_mod(5, 21)
    # modulo an odd square every unit has Jacobi symbol +1, so a search for
    # a non-residue never ends unless it is bounded
    for n in (25, 49, 169):
        with pytest.raises(ValueError, match="not prime"):
            sqrt_mod(-1, n)


def test_is_prime_vs_sympy():
    assert [n for n in range(-3, 30_000) if is_prime(n)] == list(sympy.primerange(30_000))
    # ψ_1 … ψ_11, the least strong pseudoprimes to the first k prime bases, where
    # is_prime adds a base; Carmichael numbers; both sides of 2³² and 2⁶⁴
    hard = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321]
    hard += [3825123056546413051, 561, 41041, 825265, 2**32 - 5, 2**32 - 1, 2**32 + 15, 2**32 + 1]
    hard += [2**61 - 1, 2**64 - 59, 2**64 - 1, 2**64 + 13, 2**89 - 1, (2**31 - 1) * (2**61 - 1)]
    rng = random.Random(2006)
    hard += [rng.randrange(10**k, 10**(k + 1)) | 1 for k in (6, 9, 12, 15, 18, 21) for _ in range(300)]
    for n in hard:
        assert is_prime(n) == sympy.isprime(n), n


def test_order_dividing_vs_sympy():
    p = 10007
    for m in (2, 3, 4, 6, 8, 9, 12):
        if (p - 1) % m:
            continue
        for g in range(2, 40):
            x = pow(g, (p - 1) // m, p)
            want = 1 if x == 1 else sympy.n_order(x, p)
            assert order_dividing(x, m, p) == want


def test_euler_phi_vs_sympy():
    for n in list(range(1, 200)) + [720, 5040, 2**10, 3**7]:
        assert euler_phi(n) == sympy.totient(n)


# -- the factoriser: trial division to 10⁶, then 1, q, q² or q·r below 10¹⁸ ----

Q, R = 1_000_003, 1_000_033  # the first two primes above 10⁶
P18 = 10**18 - 11  # the last prime below 10¹⁸


_factor = lru_cache(maxsize=None)(sympy.factorint)


def _kfree_oracle(t, k):
    t = Fraction(t)
    out = 1
    for part, power in ((t.numerator, 1), (t.denominator, k - 1)):
        for q, e in _factor(abs(part)).items():
            out *= q ** (e * power % k)
    return -out if t < 0 and k % 2 == 0 else out


def _check_kfree(ts):
    for t in ts:
        for k in (2, 3, 4, 6):
            assert kfree_reduce(t, k) == _kfree_oracle(t, k), (t, k)
        assert squarefree_part(t) == _kfree_oracle(t, 2), t


def _check_against_sympy(n, full=True):
    _check_kfree((n, -n, Fraction(1, n), Fraction(-7, n)))
    if full:
        assert euler_phi(n) == sympy.totient(n), n
        assert _divisors(n) == tuple(sympy.divisors(n)), n


def test_factoriser_vs_sympy_to_2e4():
    phi = np.arange(20_001)  # φ(n) = n·∏(1 - 1/q) over the primes q | n, by a sieve
    for q in sympy.primerange(20_001):
        phi[q::q] -= phi[q::q] // q
    for n in range(1, 20_001):
        assert euler_phi(n) == phi[n], n
        assert _divisors(n) == tuple(sympy.divisors(n)), n
        _check_kfree((n, Fraction(-1, n)))


@pytest.mark.parametrize("n", [Q * Q, P18, 2**90, 3**43 * 5, 2**5 * 3 * P18, 6 * Q * Q, 10**12 - 11])
def test_factoriser_vs_sympy_past_the_trial_bound(n):
    assert sympy.isprime(P18) and sympy.isprime(10**12 - 11)
    _check_against_sympy(n)


def test_factoriser_keeps_a_two_prime_block_whole_for_reduction_only():
    # q·r with q, r > 10⁶ is never split: k-th-power-free reduction needs no split,
    # full factorisation (φ, divisors, orders) refuses it
    just_below = Q * sympy.prevprime(10**18 // Q)  # a q·r just below 10¹⁸
    for n in (Q * R, 12 * Q * R, 2**7 * 3**4 * Q * R, just_below):
        _check_against_sympy(n, full=False)
    for n in (Q * R, 12 * Q * R):
        with pytest.raises(ValueError, match="cannot factor"):
            euler_phi(n)
        with pytest.raises(ValueError, match="cannot factor"):
            _divisors(n)
    t = Fraction(P18, P18 - 2)  # each part below 10¹⁸, their product far past it
    assert kfree_reduce(t, 2) == _kfree_oracle(t, 2)


def test_factoriser_refuses_past_1e18():
    # composite, no prime factor below 10⁶, past 10¹⁸, and not a prime's square
    qr = (10**9 + 7) * (10**9 + 9)
    for n in (qr, 2 * qr, qr**2, Q * R * R):
        with pytest.raises(ValueError, match="cannot factor"):
            kfree_reduce(n, 2)
        with pytest.raises(ValueError, match="cannot factor"):
            euler_phi(n)
    with pytest.raises(ValueError, match="cannot factor"):
        kfree_reduce(Fraction(1, Q * R * R), 3)
    # the square of a prime that is_prime passes is factored, whatever its size
    for n in (sympy.nextprime(10**9) ** 2, 18 * (10**9 + 7) ** 2, (10**30 + 57) ** 2):
        _check_against_sympy(n)


@pytest.mark.parametrize("big", [sympy.nextprime(10**18), 10**30 + 57])
def test_factoriser_takes_a_prime_cofactor_past_1e18(big):
    # is_prime passes it (exactly below ψ₁₂ ≈ 3.2·10²³, as a strong probable prime above)
    assert sympy.isprime(big)
    for n in (big, 2 * big, 6 * 7**3 * big):
        _check_against_sympy(n)


@pytest.mark.parametrize("n", [1, 14, 2**90, 10**30 + 57, 2**5 * 3 * (10**30 + 57), 12 * Q * R, 7**25 * (3**43 + 4)])
def test_trial_division_splits_any_size(n):
    # primes below 10⁶ and one cofactor: 1, a prime, or past 10¹² with no prime
    # factor below 10⁶, whatever its size (the engine's character bases)
    small, rest = _trial_divide(n)
    assert math.prod(q**e for q, e in small.items()) * rest == n
    assert all(q < 10**6 and sympy.isprime(q) for q in small)
    assert rest == 1 or sympy.isprime(rest) or (rest >= 10**12 and min(_factor(rest)) > 10**6)


# -- rational reductions ----------------------------------------------------


def test_kfree_reduce_frozen():
    assert kfree_reduce(32, 4) == 2
    assert kfree_reduce(-64, 6) == -1
    assert kfree_reduce(Fraction(1, 2), 4) == 8
    assert kfree_reduce(-8, 3) == 1
    assert kfree_reduce(7, 2) == 7


@given(
    st.integers(min_value=-3000, max_value=3000).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=300),
    st.sampled_from([2, 3, 4, 6]),
)
@settings(max_examples=200, deadline=None)
def test_kfree_reduce_properties(num, den, k):
    t = Fraction(num, den)
    r = kfree_reduce(t, k)
    assert isinstance(r, int) and r != 0
    # the quotient is a perfect k-th power of a rational (negative root only
    # possible for odd k, e.g. -8 ~ 1 via (-2)^3)
    q = t / r
    assert q.numerator > 0 or k % 2 == 1
    root_num = round(abs(q.numerator) ** (1 / k))
    root_den = round(q.denominator ** (1 / k))
    assert root_num**k == abs(q.numerator) and root_den**k == q.denominator
    # and r itself carries no k-th power
    for c in range(2, 12):
        assert r % (c**k), f"{r} still divisible by {c}^{k}"


@given(st.integers(min_value=-3000, max_value=3000).filter(lambda n: n != 0),
       st.integers(min_value=1, max_value=300))
@settings(max_examples=200, deadline=None)
def test_squarefree_part_properties(num, den):
    t = Fraction(num, den)
    s = squarefree_part(t)
    assert squarefree_part(Fraction(s)) == s
    q = t / s
    assert q > 0
    r = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    assert r * r == q


def test_squarefree_part_frozen():
    assert squarefree_part(-12) == -3
    assert squarefree_part(8) == 2
    assert squarefree_part(Fraction(8, 9)) == 2
    assert squarefree_part(Fraction(-1, 2)) == -2


def test_parse_rational():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational(" 4/6 ") == Fraction(2, 3)
    with pytest.raises(ValueError):
        parse_rational("three")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_reduce_mod_agrees_with_the_inverse_formula():
    # the integral case skips the inverse; it must give what numerator · denominator⁻¹ gives
    for p in (2, 3, 5, 13, 97, 2**31 - 1):
        for n in (-2 * p - 1, -p, -7, -1, 0, 1, 6, p, 3 * p + 2, 10**12 + 1):
            for d in (1, 2, 3, 10, 2**40 + 1):
                if d % p == 0:
                    continue
                assert reduce_mod(Fraction(n, d), p) == n % p * pow(d, -1, p) % p
            assert reduce_mod(n, p) == reduce_mod(Fraction(n), p) == reduce_mod(np.int64(n), p) == n % p
    for x in (Fraction(1, 13), Fraction(-5, 26), Fraction(7, 13**2)):  # denominator ≡ 0 (mod 13)
        with pytest.raises(ValueError):
            reduce_mod(x, 13)
