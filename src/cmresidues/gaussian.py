"""Arithmetic in Z[i]: primary prime divisors and quartic residue symbols.

A Gaussian integer a+bi of odd norm is *primary* when a is odd, b is even
and a + b ≡ 1 (mod 4); equivalently a+bi ≡ 1 (mod (1+i)^3).  Every element
of odd norm has exactly one primary associate, and the conjugate of a
primary element is again primary, so for a split rational prime
p ≡ 1 (mod 4) there are exactly two primary divisors of p and they are
conjugate.  ``split_prime`` returns the one with positive imaginary part:

>>> str(split_prime(13))
'3+2i'
>>> str(split_prime(5))
'-1+2i'
>>> str(split_prime(17))
'1+4i'

The quartic residue symbol (x/π)_4 for π of prime norm p is the unique
power of i congruent to x^((p-1)/4) mod π; concretely we work in the residue
field F_p = Z[i]/(π), where i maps to r = -a/b mod p, and read off which of
{1, r, -1, -r} the Euler power equals.  Closed forms evaluated here without
any modular exponentiation:

* ``closed_form_odd_factor``: (ℓ/π)_4 ∈ {±1} for an odd prime ℓ dividing a;
* ``closed_form_two``: (2/π)_4 = (-i)^(b/2);
* ``closed_form_trace_symbol``: the quartic symbol of the Frobenius trace of
  the quartic-twist family y² = x³ - tx at p, as an explicit function of
  (a, b, (t/π)_4) alone.

Each of these, and ``quartic_exponent``, has one implementation on plain
ints, taking π as (a, b) and returning the exponent e of i^e:
``odd_factor_exp``, ``two_exp``, ``trace_symbol_exp`` and ``quartic_exp``.
The public functions wrap it, and the per-prime suites call it directly,
so a check pays for its modular arithmetic and not for the value types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .primes import Rational, cornacchia, reduce_mod


@dataclass(frozen=True)
class GaussInt:
    re: int
    im: int

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussInt(a * c - b * d, a * d + b * c)

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def times_i(self) -> "GaussInt":
        return GaussInt(-self.im, self.re)

    @property
    def is_primary(self) -> bool:
        return _is_primary(self.re, self.im)

    def associates(self) -> tuple["GaussInt", ...]:
        zi = self.times_i()
        return (self, zi, -self, -zi)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            re_part = ""
        else:
            re_part = str(self.re)
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        im_part = "i" if mag == 1 else f"{mag}i"
        if not re_part:
            return im_part if self.im > 0 else f"-{im_part}"
        return f"{re_part}{sign}{im_part}"


def _is_primary(a: int, b: int) -> bool:
    return a % 2 == 1 and b % 2 == 0 and (a + b) % 4 == 1


def primary_associate(z: GaussInt) -> GaussInt:
    """The unique primary associate of z (norm must be odd)."""
    if z.norm() % 2 == 0:
        raise ValueError(f"{z} has even norm, no primary associate")
    for w in z.associates():
        if w.is_primary:
            return w
    raise ValueError(f"no primary associate of {z}")  # unreachable for odd norm


@lru_cache(maxsize=1)  # callers ask about one prime for many twists, then move on
def split_prime(p: int) -> GaussInt:
    """Canonical primary divisor of p ≡ 1 (mod 4) in Z[i], imaginary part > 0.

    The primary associate of x + yi, p = x² + y² by ``cornacchia``.
    Deterministic because sqrt_mod is.
    """
    if p % 4 != 1:
        raise ValueError(f"{p} does not split in Z[i]")
    z = primary_associate(GaussInt(*cornacchia(1, p)))
    return z.conj() if z.im < 0 else z


def i_image(pi: GaussInt, p: int) -> int:
    """The residue r ∈ F_p that i maps to under Z[i]/(π) ≅ F_p."""
    # a + b·r ≡ 0 (mod p) and r² ≡ -1.
    r = -pi.re * pow(pi.im, -1, p) % p
    if (r * r + 1) % p:
        raise ValueError(f"{pi} does not divide {p}")
    return r


@dataclass(frozen=True)
class QuarticSymbol:
    """A fourth root of unity i^exp, the value of a quartic residue symbol."""

    exp: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "exp", self.exp % 4)

    def __mul__(self, other: "QuarticSymbol") -> "QuarticSymbol":
        return QuarticSymbol(self.exp + other.exp)

    def conj(self) -> "QuarticSymbol":
        return QuarticSymbol(-self.exp)

    def order(self) -> int:
        return {0: 1, 2: 2}.get(self.exp, 4)

    def __str__(self) -> str:
        return ("1", "i", "-1", "-i")[self.exp]


def quartic_exp(x: int | Rational, a: int, b: int, p: int) -> int:
    """Exponent e with (x/π)_4 = i^e for π = a+bi of prime norm p ≡ 1 (mod 4).

    x may be a rational with denominator prime to p.  One modular
    exponentiation v = x^((p-1)/4): i maps to r with a + b·r ≡ 0 (mod p), so
    v ≡ ±r reads as v·b ≡ ∓a, with no inverse of b.

    >>> quartic_exp(2, 3, 2, 13), quartic_exp(2, 3, -2, 13)
    (3, 1)
    """
    xm = reduce_mod(x, p)
    if xm == 0:
        raise ValueError(f"quartic symbol of 0 (x ≡ 0 mod {p})")
    if b % p == 0 or (a * a + b * b) % p:  # r² ≡ -1 iff a² + b² ≡ 0, as ``i_image`` checks
        raise ValueError(f"{GaussInt(a, b)} does not divide {p}")
    v = pow(xm, (p - 1) // 4, p)
    if v == 1:
        return 0
    if v == p - 1:
        return 2
    vb = v * b % p
    if vb == -a % p:
        return 1
    if vb == a % p:
        return 3
    raise ValueError(f"{v} is not a power of i mod {p}; norm of {GaussInt(a, b)} not prime?")


def quartic_exponent(x: int | Rational, pi: GaussInt, p: int | None = None) -> int:
    """Exponent e with (x/π)_4 = i^e, for π of prime norm p ≡ 1 (mod 4).

    ``quartic_exp`` on π's parts; p defaults to the norm of π.
    """
    return quartic_exp(x, pi.re, pi.im, pi.norm() if p is None else p)


def quartic_symbol(x: int | Rational, pi: GaussInt) -> QuarticSymbol:
    """(x/π)_4 for π of prime norm ≡ 1 (mod 4).

    >>> str(quartic_symbol(2, GaussInt(3, 2)))
    '-i'
    >>> str(quartic_symbol(Fraction(1, 2), GaussInt(3, 2)))
    'i'
    """
    return QuarticSymbol(quartic_exponent(x, pi))


def odd_factor_exp(ell: int, a: int, b: int) -> int:
    """Exponent of (ℓ/π)_4, 0 or 2, for an odd prime ℓ dividing a, π = a+bi of prime norm.

    The value is the sign (-1)^((ℓ-1)/2 · (p-1)/4) · (2|ℓ), with
    (2|ℓ) = (-1)^((ℓ²-1)/8); in particular it is always ±1.

    >>> odd_factor_exp(3, 3, 2), odd_factor_exp(5, 5, 2)  # p = 13, 29
    (0, 2)
    """
    if ell < 1 or ell % 2 == 0 or a % ell != 0:
        raise ValueError(f"{ell} is not an odd divisor of re({GaussInt(a, b)})")
    p = a * a + b * b
    return 2 * (((ell - 1) // 2 * ((p - 1) // 4) + (ell * ell - 1) // 8) % 2)


def closed_form_odd_factor(ell: int, pi: GaussInt) -> QuarticSymbol:
    """(ℓ/π)_4 for an odd prime ℓ dividing re(π), without exponentiation: ``odd_factor_exp``."""
    return QuarticSymbol(odd_factor_exp(ell, pi.re, pi.im))


def two_exp(a: int, b: int) -> int:
    """Exponent of (2/π)_4 = (-i)^(b/2) for primary π = a+bi.

    >>> two_exp(3, 2), two_exp(3, -2)
    (3, 1)
    """
    if not _is_primary(a, b):
        raise ValueError(f"{GaussInt(a, b)} is not primary")
    return -(b // 2) % 4


def closed_form_two(pi: GaussInt) -> QuarticSymbol:
    """(2/π)_4 = (-i)^(b/2) for primary π = a+bi: ``two_exp``."""
    return QuarticSymbol(two_exp(pi.re, pi.im))


def trace_symbol_exp(a: int, b: int, t: int | Rational, p: int) -> int:
    """Exponent of the quartic symbol of the trace a_p of y² = x³ - tx at p = a² + b².

    For primary π = a+bi and p ∤ 2t the symbol of the (nonzero) trace equals
    i^((a-1)/2) · (-1)^((b²+2b)/8) · (t/π)_4^((p-1)/4) — no point counting and
    no knowledge of a_p itself required.  Conjugation-equivariant, so either
    primary divisor of p gives the conjugate value, consistently.

    >>> trace_symbol_exp(3, 2, 1, 13), trace_symbol_exp(3, -2, 1, 13)
    (3, 1)
    """
    if not _is_primary(a, b):
        raise ValueError(f"{GaussInt(a, b)} is not primary")
    e_t = quartic_exp(t, a, b, p)
    # (b² + 2b)/8 is exact: b even makes b²+2b ≡ 0 (mod 8).
    return ((a - 1) // 2 + 2 * ((b * b + 2 * b) // 8) + e_t * ((p - 1) // 4)) % 4


def closed_form_trace_symbol(pi: GaussInt, t: int | Rational) -> QuarticSymbol:
    """Quartic symbol of the trace a_p of y² = x³ - tx at p = norm(π): ``trace_symbol_exp``."""
    return QuarticSymbol(trace_symbol_exp(pi.re, pi.im, t, pi.norm()))


# g8 class token -> (a mod 8, b mod 8) of the primary divisors a+bi of p ≡ 1 (mod 8)
G8_CLASSES = {"1": (1, 0), "5": (5, 0), "1+4i": (1, 4), "5+4i": (5, 4)}
_G8_TOKEN = {ab: klass for klass, ab in G8_CLASSES.items()}


def primary_class_mod8(p: int) -> str:
    """Class of the primary divisors of p ≡ 1 (mod 8) modulo 8.

    Both primary divisors a±bi of p share a, and b ≡ 0 (mod 4), so π mod 8
    lands in {1, 5, 1+4i, 5+4i} · (units fixed by primarity); returned as one
    of the four tokens of ``G8_CLASSES``.

    >>> primary_class_mod8(73)
    '5'
    >>> primary_class_mod8(113)
    '1'
    """
    if p % 8 != 1:
        raise ValueError(f"{p} is not 1 mod 8")
    pi = split_prime(p)
    klass = _G8_TOKEN.get((pi.re % 8, pi.im % 8))
    if klass is None:
        raise ValueError(f"{pi} is not a primary divisor of a prime {p} ≡ 1 (mod 8)")
    return klass
