"""Vectorised segment engine: the scan chain as numpy stages over one segment.

Scans (``density.scan_batch``) and the exact suites (``density.verify_suite``)
both read their per-prime data from a ``Segment``.

Class number one makes the primes that split in d exactly the prime values
of one norm form, so a segment of the prime range needs no per-prime Python
work at all:

* sieve: ``primes.prime_array`` lists the primes of the segment;
* norm form: ``Segment.form`` walks the lattice points of p = x² + y²,
  x² + 3y², x² + 2y² or 4p = u² + |d|v² over the segment, in blocks of
  ``_BLOCK`` points and only through the admissible parity, keeps the
  prime values and sorts them by p once; the primary divisors in Z[i]
  and Z[ω] follow from them;
* trace: ``Segment.traces`` evaluates a_p by the closed forms of
  ``curves.ap`` — quadratic characters by Euler's criterion, the quartic
  and cubic characters by comparing v·b with ∓a mod p (so no modular
  inverse: ``symbol_exponents``), and Legendre tables mod |d| and mod 8
  for the base traces — at the primes ≡ 1 mod a given modulus only;
* eligibility: ``set_mask`` is the array form of ``prime_sets.classify``;
* order: ``residue_orders`` takes one modular power per prime for every
  modulus, w = a^((p-1)/g) with g = gcd(p - 1, lcm of the moduli), and
  reads each m-class a^((p-1)/m) = w^(g/m) off the order of w, which
  ``order_array`` finds by repeated ℓ-th powers for each prime ℓ of the lcm.

Every residue is held below p and every product of two residues is formed
in uint64 before it is reduced, so the engine needs p < 2³² (``P_LIMIT``).
The scalar functions (``ap``, ``classify``, ``order_dividing``,
``split_prime``, ``quartic_exponent``, …) are the reference the engine is
tested against prime by prime.
"""

from __future__ import annotations

from math import isqrt, lcm

import numpy as np

from .curves import CurveModel, CurveSpec, model_twist
from .eisenstein import _TARGETS, PRIMARY_CONVENTION
from .prime_sets import And, CongMod, G8, Not, Or, SetExpr, SymOrder
from .primes import jacobi, prime_array

P_LIMIT = 1 << 32
_BLOCK = 4096  # lattice points per enumeration block


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
    """base**exp mod p elementwise, 0 <= base < p < 2³², exp an int or an array."""
    p = ps.astype(np.uint64)
    b = base.astype(np.uint64)
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


def legendre_array(n: int, ps: np.ndarray) -> np.ndarray:
    """(n/p) for every odd prime p in ps by Euler's criterion: 1, -1, or 0 where p | n."""
    v = pow_array(mod_array(n, ps), (ps - 1) // 2, ps)
    return np.where(v == 1, 1, np.where(v == 0, 0, -1))


def order_array(v: np.ndarray, m: int, ps: np.ndarray) -> np.ndarray:
    """Multiplicative order of v mod p elementwise, given that it divides m.

    For each prime power ℓ^e ‖ m, u = v^(m/ℓ^e) has the ℓ-part of ord(v) as
    its order, read off e ℓ-th powers of u; the last of them is v^m.
    Raises ValueError where v^m ≠ 1 (v ≡ 0 included), as ``order_dividing`` does.
    """
    order = np.ones(len(ps), dtype=np.int64)
    vm, rest = v, m  # vm ends as v^m
    for ell in range(2, m + 1):
        e = 0
        while rest % ell == 0:
            rest //= ell
            e += 1
        if e:
            vm = v if m == ell**e else pow_array(v, m // ell**e, ps)
            for _ in range(e):
                order[vm != 1] *= ell
                vm = pow_array(vm, ell, ps)
    if (vm != 1).any():
        raise ValueError(f"order_array: a value has no multiplicative order dividing {m}")
    return order


def residue_orders(a: np.ndarray, ps: np.ndarray, moduli) -> dict[int, np.ndarray]:
    """m -> order of the m-th power-residue class a^((p-1)/m) at each p ≡ 1 (mod m),
    0 elsewhere, for every m in moduli.

    One modular power per prime for all of them: with M = lcm(moduli) and
    g = gcd(p - 1, M), w = a^((p-1)/g) has order dividing g, and for m | g
    a^((p-1)/m) = w^(g/m) has order ord(w)/gcd(ord(w), g/m).
    """
    M = lcm(*moduli)
    g = np.gcd(ps - 1, M)
    sel = np.logical_or.reduce([g % m == 0 for m in moduli])  # some m divides p - 1
    q = ps[sel]
    order = np.zeros(len(ps), dtype=np.int64)  # ord(w)
    order[sel] = order_array(pow_array(a[sel] % q, (q - 1) // g[sel], q), M, q)
    out = {}
    for m in moduli:
        at = g % m == 0
        out[m] = np.zeros(len(ps), dtype=np.int64)
        out[m][at] = order[at] // np.gcd(order[at], g[at] // m)
    return out


def symbol_exponents(x: np.ndarray, a: np.ndarray, b: np.ndarray, ps: np.ndarray, k: int) -> np.ndarray:
    """e with (x/π)_k = ζ^e at each p, 0 < x < p: k = 4, π = a + bi, ζ = i
    (``quartic_exponent``), or k = 3, π = a + bω, ζ = ω (``cubic_exponent``).

    ζ ≡ -a/b (mod π), so x^((p-1)/k) ≡ ζ^e is tested on products with b:
    no modular inverse.
    """
    v = pow_array(x, (ps - 1) // k, ps)
    vb = v * b % ps
    # the higher powers: i² = -1 and i³ ≡ a/b, or ω² ≡ (a - b)/b
    rest = [v == ps - 1, vb == a % ps] if k == 4 else [vb == (a - b) % ps]
    e = np.select([v == 1, vb == -a % ps] + rest, list(range(k)), default=-1)
    if (e < 0).any():
        raise ValueError("character value is not a root of unity of the expected order")
    return e


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
    """The primes of [lo, hi) and, on demand, the norm-form solutions of each d."""

    def __init__(self, lo: int, hi: int):
        self.lo, self.hi = lo, hi
        self.primes = prime_array(lo, hi)
        self._is_prime: np.ndarray | None = None
        self._forms: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def form(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p, x, y), increasing in p: every prime p of the segment split in d, with
        its unique solution x, y > 0 of the norm form of d (see ``_FORMS``)."""
        if d in self._forms:
            return self._forms[d]
        if self._is_prime is None:
            self._is_prime = np.zeros(max(0, self.hi - self.lo), dtype=bool)
            self._is_prime[self.primes - self.lo] = True
        D, scale, y0, ystep, alpha, beta = _form(d)
        lo, hi = scale * self.lo, scale * self.hi  # the form's values lie in [lo, hi)
        ys = np.arange(y0, isqrt(max(0, hi - 2) // D) + 1, ystep, dtype=np.int64)
        dy = D * ys * ys
        x0 = isqrt_array(np.maximum(lo - dy, 1) - 1) + 1  # least x > 0 with x² + Dy² >= lo
        x1 = isqrt_array(hi - 1 - dy)  # greatest x with x² + Dy² < hi
        x0 += (x0 - alpha * ys - beta) % 2  # first x of the admissible parity
        counts = np.maximum((x1 - x0) // 2 + 1, 0)
        rows = counts > 0
        ys, x0, counts = ys[rows], x0[rows], counts[rows]
        starts = np.cumsum(counts) - counts  # index of the first point of each row
        total = int(counts.sum())
        hits = [(np.empty(0, dtype=np.int64),) * 3]  # (p, x, y) of the prime values, block by block
        for k0 in range(0, total, _BLOCK):
            k = np.arange(k0, min(k0 + _BLOCK, total), dtype=np.int64)
            row = np.searchsorted(starts, k, side="right") - 1
            x = x0[row] + 2 * (k - starts[row])
            y = ys[row]
            p = (x * x + D * y * y) // scale
            prime = self._is_prime[p - self.lo]
            hits.append((p[prime], x[prime], y[prime]))
        p, x, y = (np.concatenate(c) for c in zip(*hits))
        by_p = np.argsort(p)  # one solution per split prime, so p has no repeats
        self._forms[d] = out = (p[by_p], x[by_p], y[by_p])
        return out

    def traces(
        self, spec: CurveSpec, table: dict[int, CurveModel] | None = None, modulus: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """(p, a_p) at every good prime p ≡ 1 (mod modulus) of E_t split in d, increasing
        in p (cf. ``curves.ap``); the other primes cost no modular power."""
        d, t = spec.d, spec.t
        twist = model_twist(d, table[d]) if table is not None and d <= -7 else 1
        ps, x, y = self.form(d)
        keep = (ps - 1) % modulus == 0
        keep[keep] = mod_array(spec.bad_product(table), ps[keep]) != 0
        ps, x, y = ps[keep], x[keep], y[keep]
        tn, td = t.numerator, t.denominator
        if d == -4:
            a, b = _gaussian_primary(x, y)
            e = symbol_exponents(mod_array(tn * td**3, ps), a, b, ps, 4)  # (t/π)_4 = i^e
            return ps, np.choose(e, [2 * a, 2 * b, -2 * a, -2 * b])
        if d == -3:
            a, b = _eisenstein_primary(x, y)
            e = symbol_exponents(mod_array(tn * td**2, ps), a, b, ps, 3)  # (t/π)_3 = ω^e
            trace = np.choose(e, [2 * a - b, -a - b, 2 * b - a])  # Tr(ω^e·π)
            return ps, -legendre_array(tn * td, ps) * trace
        # the base trace of the shipped model (``curves._base_trace``) from Legendre tables
        if d == -8:  # (-2/x)·2x, negated when y ≡ 2 (mod 4)
            chi = np.array([jacobi(-2, r) if r % 2 else 0 for r in range(8)])
            base = np.where(y % 4 == 2, -2, 2) * chi[x % 8] * x
        else:  # (u/7)·u for d = -7, -(u/|d|)·u otherwise
            chi = np.array([jacobi(r, -d) for r in range(-d)])
            base = (1 if d == -7 else -1) * chi[x % -d] * x
        s = -t if d == -7 else t
        return ps, legendre_array(s.numerator * s.denominator * twist, ps) * base

    def good_traces(
        self, spec: CurveSpec, table: dict[int, CurveModel] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(p, a_p) at every good prime of E_t, a_p = 0 at the inert ones (cf. ``curves.ap``)."""
        ps = self.primes[mod_array(spec.bad_product(table), self.primes) != 0]
        split, a = self.traces(spec, table)
        out = np.zeros(len(ps), dtype=np.int64)
        out[np.searchsorted(ps, split)] = a
        return ps, out

    def primary(
        self, d: int, ps: np.ndarray, convention: str = PRIMARY_CONVENTION
    ) -> tuple[np.ndarray, np.ndarray]:
        """The primary divisor of each p in ps (primes of the segment split in d): a + bi,
        b > 0, for d = -4 (``split_prime``); a + bω ≡ 2 or 1 (mod 3) by ``convention``
        for d = -3 (``split_prime_eis``)."""
        pd, x, y = self.form(d)
        idx = np.searchsorted(pd, ps)
        if d == -4:
            return _gaussian_primary(x[idx], y[idx])
        a, b = _eisenstein_primary(x[idx], y[idx])
        return (a, b) if _TARGETS[convention] == 2 else (-a, -b)


def set_mask(expr: SetExpr, ps: np.ndarray, seg: Segment) -> np.ndarray:
    """``classify(p, expr)`` for every prime p in ps (primes of ``seg``)."""
    if isinstance(expr, CongMod):
        return np.isin(ps % expr.modulus, expr.residues)
    if isinstance(expr, SymOrder):
        m, t = expr.m, expr.t
        tm = mod_array(t.numerator * t.denominator ** (m - 1), ps)  # t ≡ num·den^(m-1) mod m-th powers
        out = tm != 0
        out[out] = residue_orders(tm[out], ps[out], (m,))[m] == expr.n  # 0 at p ≢ 1 (mod m), and n >= 1
        return out
    if isinstance(expr, G8):
        out = ps % 8 == 1
        a, b = seg.primary(-4, ps[out])
        a8, b8 = int(expr.klass[0]), 4 if expr.klass.endswith("4i") else 0
        out[out] = (a % 8 == a8) & (b % 8 == b8)
        return out
    if isinstance(expr, And):
        return np.logical_and.reduce([set_mask(q, ps, seg) for q in expr.parts])
    if isinstance(expr, Or):
        return np.logical_or.reduce([set_mask(q, ps, seg) for q in expr.parts])
    if isinstance(expr, Not):
        return ~set_mask(expr.inner, ps, seg)
    raise TypeError(f"not a set expression: {expr!r}")
