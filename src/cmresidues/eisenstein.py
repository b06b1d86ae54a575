"""Arithmetic in Z[ω] (ω² + ω + 1 = 0): split primes and cubic residue symbols.

For p ≡ 1 (mod 3) we have p = u² + 3v², and π = (u+v) + 2vω is a divisor of
p of norm p.  Among the six associates of π exactly one is ≡ 2 (mod 3)
(meaning a ≡ 2, b ≡ 0 when written a + bω) and exactly one is ≡ 1 (mod 3);
these are the two classical "primary" normalisations.  The cubic residue
symbol (x/π)_3 — the power of ω congruent to x^((p-1)/3) mod π — depends
only on the ideal (π), not on the choice of generator: any generator induces
the same image s of ω in the residue field F_p, because a² - ab + b² ≡ 0
(mod p) forces b/(a-b) ≡ -a/b.  The generator ≡ 2 (mod 3) is therefore only a
canonical choice for display and for reproducibility of reports; the one
≡ 1 (mod 3) is its negative.

>>> pi = split_prime_eis(7)
>>> (pi.a, pi.b, pi.norm())
(-1, -3, 7)
>>> cubic_symbol(2, EisInt(3, 1)).exp
1
"""

from __future__ import annotations

from dataclasses import dataclass

from .primes import Rational, cornacchia, reduce_mod

PRIMARY_CONVENTION = "two-mod-three"  # π ≡ 2 (mod 3): the token reports write for the generator


@dataclass(frozen=True)
class EisInt:
    """a + bω with ω a primitive cube root of unity (ω² = -ω - 1)."""

    a: int
    b: int

    def __add__(self, other: "EisInt") -> "EisInt":
        return EisInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "EisInt") -> "EisInt":
        return EisInt(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "EisInt") -> "EisInt":
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return EisInt(a1 * a2 - b1 * b2, a1 * b2 + a2 * b1 - b1 * b2)

    def __neg__(self) -> "EisInt":
        return EisInt(-self.a, -self.b)

    def conj(self) -> "EisInt":
        return EisInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def times_omega(self) -> "EisInt":
        return EisInt(-self.b, self.a - self.b)

    def associates(self) -> tuple["EisInt", ...]:
        zw = self.times_omega()
        zww = zw.times_omega()
        return (self, zw, zww, -self, -zw, -zww)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        mag = abs(self.b)
        w = "w" if mag == 1 else f"{mag}w"
        if self.a == 0:
            return w if self.b > 0 else f"-{w}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{w}"


def primary_associate_eis(z: EisInt) -> EisInt:
    """The unique associate ≡ 2 (mod 3)."""
    found = [w for w in z.associates() if w.a % 3 == 2 and w.b % 3 == 0]
    if len(found) != 1:
        raise ValueError(f"{z}: {len(found)} associates ≡ 2 mod 3; norm divisible by 3?")
    return found[0]


def split_prime_eis(p: int) -> EisInt:
    """Canonical divisor of p ≡ 1 (mod 3) in Z[ω], ≡ 2 (mod 3).

    From p = u² + 3v² (``cornacchia``): u + v√-3 = (u+v) + 2vω.
    """
    if p % 3 != 1:
        raise ValueError(f"{p} does not split in Z[ω]")
    u, v = cornacchia(3, p)
    return primary_associate_eis(EisInt(u + v, 2 * v))


def omega_image(pi: EisInt, p: int | None = None) -> int:
    """The residue s ∈ F_p that ω maps to under Z[ω]/(π) ≅ F_p."""
    if p is None:
        p = pi.norm()
    s = -pi.a * pow(pi.b, -1, p) % p
    if (s * s + s + 1) % p:
        raise ValueError(f"{pi} does not divide {p}")
    return s


@dataclass(frozen=True)
class CubicSymbol:
    """A cube root of unity ω^exp, the value of a cubic residue symbol."""

    exp: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "exp", self.exp % 3)

    def __mul__(self, other: "CubicSymbol") -> "CubicSymbol":
        return CubicSymbol(self.exp + other.exp)

    def conj(self) -> "CubicSymbol":
        return CubicSymbol(-self.exp)

    def order(self) -> int:
        return 1 if self.exp == 0 else 3

    def __str__(self) -> str:
        return ("1", "w", "w^2")[self.exp]


CUBIC_ONE = CubicSymbol(0)


def cubic_exponent(x: int | Rational, pi: EisInt, p: int | None = None) -> int:
    """Exponent e with (x/π)_3 = ω^e, for π of prime norm p ≡ 1 (mod 3)."""
    if p is None:
        p = pi.norm()
    xm = reduce_mod(x, p)
    if xm == 0:
        raise ValueError(f"cubic symbol of 0 (x ≡ 0 mod {p})")
    s = omega_image(pi, p)
    v = pow(xm, (p - 1) // 3, p)
    if v == 1:
        return 0
    if v == s:
        return 1
    if v == s * s % p:
        return 2
    raise ValueError(f"{v} is not a power of ω mod {p}; norm of {pi} not prime?")


def cubic_symbol(x: int | Rational, pi: EisInt) -> CubicSymbol:
    """(x/π)_3 for π of prime norm ≡ 1 (mod 3)."""
    return CubicSymbol(cubic_exponent(x, pi))
