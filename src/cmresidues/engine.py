"""Vectorised segment engine: the scan chain as numpy stages over one segment.

Scans (``density.scan_batch``) and the exact suites (``density.verify_suite``)
both read their per-prime data from a ``Segment``, one per segment of the
prime range, spread over the workers of ``density._map_segments``.

Class number one makes the primes that split in d exactly the prime values
of one norm form, so a segment of the prime range needs no per-prime Python
work at all:

* sieve: ``primes.prime_array`` lists the primes of the segment;
* norm form: ``Segment.form`` walks the lattice points of p = x² + y²,
  x² + 3y², x² + 2y² or 4p = u² + |d|v² over the segment in one numpy
  pass, only through the admissible parity, keeps the prime values and
  sorts them by p once; the segment's width bounds the points (at most
  about 1.2·10⁵ per d in a segment of 250 000, whatever its height).  The
  primary divisors in Z[i] and Z[ω] follow from them.  A scan gives each d
  the gcd q of its items' lcm(moduli), and the walk visits only the rows y
  whose class mod a power of 2 can give p ≡ 1 (mod gcd(q, 8))
  (``_walk_classes``): b ≡ 0 (mod 4) for the octic item.  A lookup of a
  prime the walk skipped raises;
* trace: ``Segment.units`` evaluates a_p by the closed forms of
  ``curves.ap`` at the primes ≡ 1 mod a given modulus only, with Legendre
  tables mod |d| and mod 8 for the base traces.  The twist's characters
  (t/π)_4, (t/π)_3 and (t/p) come from the segment's one character table
  (``Segment.character``): each is the sum of the characters of the bases
  of t's numerator and denominator — the sign, the primes below 10⁶ and
  the cofactor left by trial division (``_bases``, once per t).  -1 and 2
  take the supplementary laws, and every odd prime below ``TABLE_BOUND``
  its reciprocity table (``_reciprocity_table``: (ℓ/π)_4 from π mod ℓ and
  (p-1)/4 mod 2, (ℓ/π)_3 from π mod ℓ, or mod 9 for ℓ = 3, and (ℓ/p) from
  p mod 4ℓ), built once per (ℓ, k) on first use.  Every other base takes
  one Euler power per segment and k through ``symbol_exponents``, the one
  Euler kernel, which reads the quartic and cubic ones by comparing v·b
  with ∓a mod p (so no modular inverse);
* eligibility: ``set_mask`` is the array form of ``prime_sets.classify``;
* order: a twist multiplies Frobenius by a unit of O_K, so at a split
  prime every twist of d has a_p = ±c for one of w/2 traces c that p
  alone fixes (``Segment.units``).  With g = gcd(p - 1, lcm of the d's
  moduli) and k = (p-1)/g, ``Segment.orders`` keeps the order of |c|^k per
  (p, unit) for all the twists of d: one full power and the repeated ℓ-th
  powers of ``order_array``, at most w/2 a prime.  Each twist reads the
  order of w = a^k = ±|c|^k off it, and each m-class a^((p-1)/m) = w^(g/m)
  off ord(w) (``residue_orders``).  ``Segment.symord`` keeps the orders of
  the symord(m; t; ·) atoms per (m, t), whatever n.

Every residue is held below p and every product of two residues is formed
in uint64 before it is reduced, so the engine needs p < 2³² (``P_LIMIT``),
and ``density.scan_batch`` refuses every modulus of 2³² or more.
The scalar functions (``ap``, ``classify``, ``order_dividing``,
``split_prime``, ``quartic_exponent``, …) are the reference the engine is
tested against prime by prime.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

import numpy as np

from .curves import CurveSpec
from .gaussian import G8_CLASSES
from .prime_sets import And, CongMod, G8, Not, Or, SetExpr, SymOrder
from .primes import _factorint, _trial_divide, jacobi, prime_array

P_LIMIT = 1 << 32
TABLE_BOUND = 1 << 8  # odd prime bases below it take their characters from ``_reciprocity_table``


def mod_array(n: int, ps: np.ndarray) -> np.ndarray:
    """n mod p for every p in ps, for an integer n of any size.

    |n| is reduced one 32-bit limb at a time, most significant first;
    r·2³² + limb < 2⁶⁴ because r < p < 2³².
    """
    pu = ps.astype(np.uint64)
    r = np.zeros(len(ps), dtype=np.uint64)
    a = abs(n)
    for shift in range(32 * ((a.bit_length() - 1) // 32), -1, -32):
        r = ((r << np.uint64(32)) | np.uint64((a >> shift) & 0xFFFFFFFF)) % pu
    if n < 0:
        r = (pu - r) % pu
    return r.astype(np.int64)


def pow_array(base: np.ndarray, exp, ps: np.ndarray) -> np.ndarray:
    """base**exp mod p elementwise, 0 <= base < p < 2³², exp >= 0 an int or an array.

    A scalar exponent walks its bits in Python, most significant first; an
    array exponent takes one masked square-and-multiply step per bit of its
    largest element.
    """
    p = ps.astype(np.uint64)
    b = base.astype(np.uint64)
    if np.ndim(exp) == 0:
        if exp == 0:
            return np.ones(len(ps), dtype=np.int64)
        r = b.copy()
        for bit in bin(int(exp))[3:]:  # in place, after the leading 1
            r *= r
            r %= p
            if bit == "1":
                r *= b
                r %= p
        return r.astype(np.int64)
    e = np.broadcast_to(np.asarray(exp, dtype=np.int64), ps.shape).astype(np.uint64)
    r = np.ones(len(ps), dtype=np.uint64)
    rb = np.empty_like(r)
    one = np.uint64(1)
    while e.any():  # in place: a segment's temporaries stay a few arrays
        np.multiply(r, b, out=rb)
        rb %= p
        np.copyto(r, rb, where=(e & one).astype(bool))
        e >>= one
        b *= b
        b %= p
    return r.astype(np.int64)


def order_array(v: np.ndarray, m: int, ps: np.ndarray) -> np.ndarray:
    """Multiplicative order of v mod p elementwise, given that it divides m.

    For each prime power ℓ^e ‖ m, u = v^(m/ℓ^e) has the ℓ-part of ord(v) as
    its order, read off e ℓ-th powers of u; the last of them is v^m.
    Raises ValueError where v^m ≠ 1 (v ≡ 0 included), as ``order_dividing`` does.
    """
    order = np.ones(len(ps), dtype=np.int64)
    vm = v  # ends as v^m
    for ell, e in _factorint(m).items():
        vm = v if m == ell**e else pow_array(v, m // ell**e, ps)
        for _ in range(e):
            order[vm != 1] *= ell
            vm = pow_array(vm, ell, ps)
    if (vm != 1).any():
        raise ValueError(f"order_array: a value has no multiplicative order dividing {m}")
    return order


def residue_orders(a: np.ndarray, ps: np.ndarray, moduli, memo=None) -> dict[int, np.ndarray]:
    """m -> order of the m-th power-residue class a^((p-1)/m) at each p ≡ 1 (mod m),
    0 elsewhere, for every m in moduli.

    With M = lcm(moduli), g = gcd(p - 1, M) and k = (p-1)/g, w = a^k has order dividing g, and
    for m | g the m-class a^((p-1)/m) = w^(g/m) has order ord(w)/gcd(ord(w), g/m).  n = ord(|a|^k)
    is ``order_array(pow_array(|a| mod q, k, q), M, q)`` at the q = ps[sel] where some m divides
    p - 1 (it raises where a ≡ 0), kept by ``memo(sel, fill)`` if given (``Segment.orders``;
    fill(new) is n at q[new]).  Where k is odd and a < 0, w = -|a|^k has order 2n/gcd(n + 2, 4).

    The sign of a counts where k is odd, as at 13 (k = 3):

    >>> orders = residue_orders(np.array([3, -3, 3]), np.array([13, 13, 17]), (4, 2))
    >>> {m: o.tolist() for m, o in orders.items()}
    {4: [1, 2, 4], 2: [1, 1, 2]}
    """
    M = lcm(*moduli)
    g = np.gcd(ps - 1, M)
    sel = np.logical_or.reduce([g % m == 0 for m in moduli])  # some m divides p - 1
    q, aq = ps[sel], a[sel]
    k = (q - 1) // g[sel]
    v = np.abs(aq) % q

    def fill(new):
        return order_array(pow_array(v[new], k[new], q[new]), M, q[new])

    n = fill(np.ones(len(q), dtype=bool)) if memo is None else memo(sel, fill)
    order = np.zeros(len(ps), dtype=np.int64)  # ord(w)
    order[sel] = np.where((k % 2 == 1) & (aq < 0), 2 * n // np.gcd(n + 2, 4), n)
    out = {}
    for m in moduli:
        at = g % m == 0
        out[m] = np.zeros(len(ps), dtype=np.int64)
        out[m][at] = order[at] // np.gcd(order[at], g[at] // m)
    return out


def symbol_exponents(x: np.ndarray, ps: np.ndarray, k: int, pi=None) -> np.ndarray:
    """e with (x/p)_k = ζ^e at each p in ps, 0 < x < p, by Euler's criterion (the engine's
    one Euler kernel): k = 2, ζ = -1, the Legendre symbol; k = 4 at π = a + bi, ζ = i
    (``quartic_exponent``), or k = 3 at π = a + bω, ζ = ω (``cubic_exponent``), pi = (a, b).

    ζ ≡ -a/b (mod π), so x^((p-1)/k) ≡ ζ^e is tested on products with b:
    no modular inverse.
    """
    v = pow_array(x, (ps - 1) // k, ps)
    if k == 2:
        roots = [v == 1, v == ps - 1]
    else:
        a, b = pi
        vb = v * b % ps
        # ζ, then the higher powers: i² = -1 and i³ ≡ a/b, or ω² ≡ (a - b)/b
        roots = [v == 1, vb == -a % ps] + ([v == ps - 1, vb == a % ps] if k == 4 else [vb == (a - b) % ps])
    e = np.select(roots, list(range(k)), default=-1)
    if (e < 0).any():
        raise ValueError("character value is not a root of unity of the expected order")
    return e


@lru_cache(maxsize=None)
def _bases(n: int) -> tuple[tuple[int, int], ...]:
    """(base, multiplicity) with n = ∏ base^multiplicity, n ≠ 0: -1 if n < 0, then the
    primes that trial division by the primes below 10⁶ takes out, then the cofactor
    it leaves, of any size.  Kept per n, so a scan splits each twist once, not once
    per segment."""
    primes, rest = _trial_divide(abs(n))
    return ((-1, 1),) * (n < 0) + tuple(primes.items()) + ((rest, 1),) * (rest > 1)


def _ring_mul(u, v, ell: int, c: int):
    """u·v in Z[ζ]/ℓ, elements as pairs (x, y) = x + yζ, ζ² = -1 - cζ: ζ = i (c = 0) or ω (c = 1)."""
    (x1, y1), (x2, y2) = u, v
    return (x1 * x2 - y1 * y2) % ell, (x1 * y2 + x2 * y1 - c * y1 * y2) % ell


def _ring_power(u, n: int, ell: int, c: int):
    """u**n in Z[ζ]/ℓ (``_ring_mul``), n >= 1."""
    r = u
    for bit in bin(n)[3:]:
        r = _ring_mul(r, r, ell, c)
        if bit == "1":
            r = _ring_mul(r, u, ell, c)
    return r


@lru_cache(maxsize=None)
def _reciprocity_table(ell: int, k: int) -> np.ndarray:
    """The exponents of (ℓ/p) or (ℓ/π)_k for an odd prime ℓ < ``TABLE_BOUND``, read off
    quartic, cubic or quadratic reciprocity over every residue (Ireland & Rosen, ch. 9):

    * k = 2, at p mod 4ℓ: (ℓ/p) = (p/ℓ)·(-1)^((ℓ-1)/2·(p-1)/2), (p/ℓ) by Euler in F_ℓ;
    * k = 4, at ((p-1)/4 mod 2, a mod ℓ, b mod ℓ) for the primary π = a + bi;
    * k = 3, at (a mod ℓ, b mod ℓ) for π = ±(a + bω) ≡ ±1 (mod 3), at (a mod 9, b mod 9) for ℓ = 3.

    An inert ℓ gives (ℓ/π)_k = (-1/π)_k·(π/ℓ)_k, (π/ℓ)_k ≡ π^((ℓ²-1)/k) in F_ℓ²; a split
    ℓ = λλ̄ gives (π/λ)_k(π/λ̄)_k = u·σ(u)^(k-1) in Z[ζ]/ℓ with u = π^((ℓ-1)/k) and σ the
    conjugation.  Entries that no prime p ≠ ℓ reaches hold 0."""
    if k == 2:
        r = np.arange(4 * ell)
        euler = _ring_power((r % ell, 0 * r), (ell - 1) // 2, ell, 0)[0]
        return ((euler == ell - 1) ^ ((ell % 4 == 3) & (r % 4 == 3))).astype(np.int64)
    n = 9 if (ell, k) == (3, 3) else ell
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    if n == 9:  # 3 = -ω²(1 - ω)², so (3/π)_3 = ω^(2b/3) for π = a + bω ≡ 2 (mod 3) (the supplements)
        return 2 * (np.where(a % 3 == 2, b, -b) % 9 // 3) % 3
    c = k % 2
    if (ell - 1) % k:
        v = _ring_power((a, b), (ell * ell - 1) // k, ell, c)
    else:
        u = _ring_power((a, b), (ell - 1) // k, ell, c)
        v = _ring_mul(u, _ring_power(((u[0] - c * u[1]) % ell, -u[1] % ell), k - 1, ell, c), ell, c)
    roots = [(1, 0)]
    for _ in range(k - 1):
        roots.append(_ring_mul(roots[-1], (0, 1), ell, c))
    e = np.select([(v[0] == x) & (v[1] == y) for x, y in roots], range(k), default=0)
    return e if k == 3 else np.stack([e, (e + 2 * (ell % 4 == 3)) % 4])  # (-1/π)_4 = (-1)^((p-1)/4)


# d -> (D, scale, first y, y step, alpha, beta): the prime values
# p = (x² + D·y²)/scale with x, y > 0 and x ≡ alpha·y + beta (mod 2).
_FORMS = {
    -4: (1, 1, 2, 2, 0, 1),  # p = a² + b², a odd, b even
    -3: (3, 1, 1, 1, 1, 1),  # p = x² + 3y², x + y odd
    -8: (2, 1, 1, 1, 0, 1),  # p = x² + 2y², x odd
    -7: (7, 4, 2, 2, 0, 0),  # 4p = u² + 7v², u and v even
}


def _form(d: int) -> tuple[int, ...]:
    return _FORMS.get(d, (-d, 4, 1, 1, 1, 0))  # 4p = u² + |d|v², u ≡ v (mod 2)


@lru_cache(maxsize=None)
def _walk_classes(d: int, r: int) -> np.ndarray:
    """Mask on y mod 8·scale: the y for which some admissible x gives (x² + D·y²)/scale ≡ 1
    (mod r), r | 8, found over every residue; x and y mod 8·scale fix x² + D·y² mod 16·scale."""
    D, scale, _, _, alpha, beta = _form(d)
    x, y = np.meshgrid(np.arange(8 * scale), np.arange(8 * scale), indexing="ij")
    n = x * x + D * y * y
    hit = ((x - alpha * y - beta) % 2 == 0) & (n % scale == 0) & ((n // scale - 1) % r == 0)
    return hit.any(axis=0)


def isqrt_array(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) for int64 n >= 0, exact (a float estimate, corrected by one)."""
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def _gaussian_primary(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The primary divisor a + bi (b > 0) of p = x² + y², x odd, y even (``split_prime``)."""
    return np.where((x + y) % 4 == 1, x, -x), y


def _eisenstein_primary(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The divisor a + bω ≡ 2 (mod 3) of p = x² + 3y², x, y > 0 (``split_prime_eis``)."""
    a, b = x + y, 2 * y  # norm (x+y)² - 2y(x+y) + 4y² = p
    rotations = [(a, b), (-b, a - b), (b - a, -a)]  # times 1, ω, ω²
    on_axis = [rb % 3 == 0 for _, rb in rotations]  # exactly one, as 3 ∤ p
    a = np.select(on_axis, [ra for ra, _ in rotations])
    b = np.select(on_axis, [rb for _, rb in rotations])
    sign = np.where(a % 3 == 2, 1, -1)
    return sign * a, sign * b


class Segment:
    """The primes of [lo, hi) and, on demand, the norm-form solutions of each d.

    walks maps d to a modulus q: the walk of d visits only the lattice classes that can
    give p ≡ 1 (mod gcd(q, 8)), and every lookup of a prime it skipped raises ValueError;
    a d it does not name is walked in full."""

    def __init__(self, lo: int, hi: int, walks: dict[int, int] | None = None):
        self.lo, self.hi = lo, hi
        self._walks = {d: gcd(q, 8) for d, q in (walks or {}).items()}
        self.primes = prime_array(lo, hi)
        self._place = np.full(max(0, hi - lo), -1, dtype=np.int32)  # n's index in primes, -1 off them
        self._place[self.primes - lo] = np.arange(len(self.primes), dtype=np.int32)
        self._forms: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._memos: dict[tuple, np.ndarray] = {}  # per key, a value >= 0 at each prime asked for

    def form(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p, x, y), increasing in p: every prime p of the segment split in d that the walk
        of d visits (all of them, or for a q in ``walks`` every p ≡ 1 mod gcd(q, 8) and
        perhaps others), with its unique solution x, y > 0 of the norm form of d (``_FORMS``)."""
        if d in self._forms:
            return self._forms[d]
        D, scale, y0, ystep, alpha, beta = _form(d)
        lo, hi = scale * self.lo, scale * self.hi  # the form's values lie in [lo, hi)
        ys = np.arange(y0, isqrt(max(0, hi - 2) // D) + 1, ystep, dtype=np.int64)
        classes = _walk_classes(d, self._walks.get(d, 1))
        ys = ys[classes[ys % len(classes)]]
        dy = D * ys * ys
        x0 = isqrt_array(np.maximum(lo - dy, 1) - 1) + 1  # least x > 0 with x² + Dy² >= lo
        x1 = isqrt_array(hi - 1 - dy)  # greatest x with x² + Dy² < hi
        x0 += (x0 - alpha * ys - beta) % 2  # first x of the admissible parity
        counts = np.maximum((x1 - x0) // 2 + 1, 0)  # a row with no points repeats zero times
        starts = np.cumsum(counts) - counts  # index of the first point of each row
        # every point at once, in place: the k-th is x = x0 + 2(k - start) on its row, and
        # n = (x² + Dy²)/scale - self.lo its offset in the segment
        x = np.repeat(x0 - 2 * starts, counts)
        x += np.arange(0, 2 * len(x), 2)
        n = x * x
        n += np.repeat(dy - lo, counts)
        n //= scale
        prime = self._place[n] >= 0
        p, x, y = n[prime] + self.lo, x[prime], np.repeat(ys, counts)[prime]
        by_p = np.argsort(p)  # one solution per split prime, so p has no repeats
        self._forms[d] = out = (p[by_p], x[by_p], y[by_p])
        return out

    def _memo(self, key: tuple, ps: np.ndarray, fill, slot=0, slots: int = 1) -> np.ndarray:
        """fill(new) >= 0 at ps[new] (ps primes of the segment, new a mask on ps), kept per
        key in ``slots`` entries per prime of ``self.primes`` (slot an int or an array on ps),
        -1 where not yet asked, so that fill meets each (prime, slot) once, when asked."""
        if key not in self._memos:
            self._memos[key] = np.full(len(self.primes) * slots, -1, dtype=np.int64)
        memo = self._memos[key]
        at = self._place[ps - self.lo] * slots + slot
        new = memo[at] < 0
        if new.any():
            memo[at[new]] = fill(new)
        return memo[at]

    def symord(self, m: int, t: Fraction, ps: np.ndarray) -> np.ndarray:
        """The order of the m-class of t at each p in ps (primes of the segment), 0 at
        p ≢ 1 (mod m) and where p divides t's numerator or denominator (cf.
        ``prime_sets.SymOrder``); kept per (m, t), so each prime is powered once."""

        def orders(new):
            q = ps[new]
            # t ≡ num·den^(m-1) mod m-th powers, den reduced mod p before its power
            num, den = (mod_array(v, q).astype(np.uint64) for v in (t.numerator, t.denominator))
            tm = (num * pow_array(den, m - 1, q).astype(np.uint64) % q.astype(np.uint64)).astype(np.int64)
            nz = tm != 0
            out = np.zeros(len(q), dtype=np.int64)
            out[nz] = residue_orders(tm[nz], q[nz], (m,))[m]
            return out

        return self._memo(("symord", m, t), ps, orders)

    def character(self, x: Fraction | int, ps: np.ndarray, k: int, pi=None) -> np.ndarray:
        """e with (x/p)_k = ζ^e at each p in ps (primes of the segment prime to x's
        numerator and denominator): k = 2, ζ = -1, the Legendre symbol; k = 4 or 3 at
        primes split in -4 or -3, the quartic or cubic symbol over the primary π = a + bi
        or a + bω (pi, the arrays a and b at ps), ζ = i or ω.  Read off the characters of
        the bases of the numerator and denominator (``_bases``): -1 and 2 in closed form,
        odd primes below ``TABLE_BOUND`` from their reciprocity tables, every other base
        by one Euler power per segment, k and base, whatever the twist it comes from."""
        x = Fraction(x)
        e = np.zeros(len(ps), dtype=np.int64)
        for n, sign in ((x.numerator, 1), (x.denominator, -1)):
            for base, mult in _bases(n):
                e += sign * mult * self._base_character(base, ps, k, pi)
        return e % k

    def _base_character(self, base: int, ps: np.ndarray, k: int, pi) -> np.ndarray:
        """``character`` of one base: -1, 2, or a positive integer with no factor 2."""
        if base == -1:  # (-1/p) = (-1)^((p-1)/2), (-1/π)_4 = (-1)^((p-1)/4), (-1/π)_3 = 1
            return np.zeros(len(ps), dtype=np.int64) if k == 3 else (ps - 1) // k % 2 * (k // 2)
        if base == 2 and k == 2:  # (2/p) = -1 exactly at p ≡ ±3 (mod 8)
            return np.isin(ps % 8, (3, 5)).astype(np.int64)
        if base == 2:  # (2/π)_4 = i^(-b/2) (``closed_form_two``); (2/π)_3 ≡ π (mod 2)
            a, b = pi  # the units 1, ω, ω² ≡ 1 + ω mod 2
            return -b // 2 % 4 if k == 4 else b % 2 * (1 + a % 2)
        if base < TABLE_BOUND:  # an odd prime ℓ: its reciprocity table
            table = _reciprocity_table(base, k)
            if k == 2:
                return table[ps % (4 * base)]
            a, b = (v % table.shape[-1] for v in pi)
            return table[a, b] if k == 3 else table[(ps - 1) // 4 % 2, a, b]

        def euler(new):
            q = ps[new]
            return symbol_exponents(mod_array(base, q), q, k, None if k == 2 else (pi[0][new], pi[1][new]))

        return self._memo(("character", k, base), ps, euler)

    def units(self, spec: CurveSpec, modulus: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p, c, e) at every good prime p ≡ 1 (mod modulus) of E_t split in d, increasing in
        p: the w/2 traces c (rows) that p fixes for all twists of d, and E_t's unit index e,
        a_p = c[e] or -c[e - w/2] (cf. ``curves.ap``); other primes cost no modular power."""
        d, t = spec.d, spec.t
        if modulus % self._walks.get(d, 1):
            raise ValueError(f"the walk of d = {d} skips primes ≡ 1 (mod {modulus})")
        ps, x, y = self.form(d)
        keep = (ps - 1) % modulus == 0
        keep[keep] = mod_array(spec.bad_product(), ps[keep]) != 0
        ps, x, y = ps[keep], x[keep], y[keep]
        if d == -4:  # (2a, 2b, -2a, -2b) by (t/π)_4 = i^e
            a, b = _gaussian_primary(x, y)
            return ps, np.array([2 * a, 2 * b]), self.character(t, ps, 4, (a, b))
        if d == -3:  # -(t/p)·Tr(ω^e·π) by (t/π)_3 = ω^e
            a, b = _eisenstein_primary(x, y)
            e = self.character(t, ps, 3, (a, b)) + 3 * (1 - self.character(t, ps, 2))
            return ps, np.array([2 * a - b, -a - b, 2 * b - a]), e
        # the base trace of the shipped model (``curves._base_trace``) from Legendre tables
        if d == -8:  # (-2/x)·2x, negated when y ≡ 2 (mod 4)
            chi = np.array([jacobi(-2, r) if r % 2 else 0 for r in range(8)])
            base = np.where(y % 4 == 2, -2, 2) * chi[x % 8] * x
        else:  # (u/7)·u for d = -7, -(u/|d|)·u otherwise
            chi = np.array([jacobi(r, -d) for r in range(-d)])
            base = (1 if d == -7 else -1) * chi[x % -d] * x
        s = -t if d == -7 else t
        return ps, base[None], self.character(s * spec.twist(), ps, 2)  # (s·D/p)·base

    def traces(self, spec: CurveSpec) -> tuple[np.ndarray, np.ndarray]:
        """(p, a_p) at the primes of ``units``: c[e] for e < w/2, else -c[e - w/2]."""
        ps, c, e = self.units(spec)
        return ps, np.choose(e, [*c, *-c])

    def orders(self, d: int, units, moduli) -> dict[int, np.ndarray]:
        """``residue_orders`` of a_p at units, ``units`` of a twist of d or a subset of its
        primes.  |a_p| = |c[e mod w/2]|, so one memo per d and lcm(moduli), shared by the twists
        of d, keeps ord(|a_p|^k) per (p, e mod w/2): at most w/2 full powers and orders a prime."""
        ps, c, e = units
        key, j = ("order", d, lcm(*moduli)), e % len(c)
        return residue_orders(
            np.choose(e, [*c, *-c]), ps, moduli, lambda sel, fill: self._memo(key, ps[sel], fill, j[sel], len(c))
        )

    def good_traces(self, spec: CurveSpec) -> tuple[np.ndarray, np.ndarray]:
        """(p, a_p) at every good prime of E_t, a_p = 0 at the inert ones (cf. ``curves.ap``)."""
        ps = self.primes[mod_array(spec.bad_product(), self.primes) != 0]
        split, a = self.traces(spec)
        out = np.zeros(len(ps), dtype=np.int64)
        out[np.searchsorted(ps, split)] = a
        return ps, out

    def index(self, d: int, ps: np.ndarray) -> np.ndarray:
        """The place of each p in ps in ``form(d)``; ValueError for a prime the walk of d skipped."""
        pd = self.form(d)[0]
        idx = np.searchsorted(pd, ps)
        hit = idx < len(pd)
        hit[hit] = pd[idx[hit]] == ps[hit]
        if not hit.all():
            raise ValueError(f"the walk of d = {d} did not visit p = {ps[~hit][0]}")
        return idx

    def primary(self, d: int, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The primary divisor of each p in ps (primes of the segment split in d): a + bi,
        b > 0, for d = -4 (``split_prime``); a + bω ≡ 2 (mod 3) for d = -3
        (``split_prime_eis``); a cubic symbol belongs to the ideal, so at -π it is the same."""
        _, x, y = self.form(d)
        idx = self.index(d, ps)
        return (_gaussian_primary if d == -4 else _eisenstein_primary)(x[idx], y[idx])


def set_mask(expr: SetExpr, ps: np.ndarray, seg: Segment) -> np.ndarray:
    """``classify(p, expr)`` for every prime p in ps (primes of ``seg``)."""
    if isinstance(expr, CongMod):
        return np.isin(ps % expr.modulus, expr.residues)
    if isinstance(expr, SymOrder):  # n >= 1, and the order is 0 outside the set
        return seg.symord(expr.m, expr.t, ps) == expr.n
    if isinstance(expr, G8):
        out = ps % 8 == 1
        a, b = seg.primary(-4, ps[out])
        a8, b8 = G8_CLASSES[expr.klass]
        out[out] = (a % 8 == a8) & (b % 8 == b8)
        return out
    if isinstance(expr, And):
        return np.logical_and.reduce([set_mask(q, ps, seg) for q in expr.parts])
    if isinstance(expr, Or):
        return np.logical_or.reduce([set_mask(q, ps, seg) for q in expr.parts])
    if isinstance(expr, Not):
        return ~set_mask(expr.inner, ps, seg)
    raise TypeError(f"not a set expression: {expr!r}")
