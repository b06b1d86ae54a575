"""The nine class-number-one CM families and their Frobenius traces.

For each imaginary quadratic discriminant d with class number one we fix a
rational model E^d (``data/curves.txt``) and study the family

* d = -4:   E_t : y² = x³ - t x              (quartic twists),
* d = -3:   E_t : y² = x³ + 16 t             (sextic twists),
* d = -7:   E_t = quadratic twist of E^-7 by -t,
* d <= -8:  E_t = quadratic twist of E^d by t,

with t a nonzero rational.  A good odd prime p is *supersingular* exactly
when d is a non-residue mod p, and then a_p = 0 (p >= 5).  For split p the
trace is pinned down by the norm equation up to a unit, and the Hecke
character of the family picks the unit (Ireland & Rosen, *A Classical
Introduction to Modern Number Theory*, ch. 18).  There are two independent
routes to a_p:

* ``ap``: closed forms, one norm equation and one character value per prime:
  - d = -4: the entry of [2a, 2b, -2a, -2b] selected by the quartic
    character of t at the primary divisor a+bi of p;
  - d = -3: a_p = -(t/p)·Tr(ω^e·π), with π ≡ 2 (mod 3) the primary divisor
    of p in Z[ω], (t/π)_3 = ω^e and Tr(a + bω) = 2a - b;
  - d <= -7: a_p = (s·D/p)·b_d(p), where s is the twist (-t for d = -7, t
    otherwise), D that of the spec's model (``CurveSpec.twist``) and b_d(p)
    the trace of the shipped E^d from the norm equation (``_base_trace``).
* ``ap_naive``: a direct character-sum point count, O(p) per prime;
  ``naive_traces`` counts many curves at one prime in one batch.

Keeping the two routes independent is the whole point — every identity
checked downstream is only as credible as the trace computation, so the
fast path never silently feeds the oracle and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .eisenstein import cubic_exponent, split_prime_eis
from .gaussian import split_prime, quartic_exponent
from .primes import Rational, cornacchia, cornacchia_4p, jacobi, order_dividing, reduce_mod, squarefree_part

DISCRIMINANTS = (-3, -4, -7, -8, -11, -19, -43, -67, -163)

_NAIVE_LIMIT = 2_000_000  # int64 safety margin for the character-sum count
_NAIVE_BLOCK = 2**16  # values per 2-D pass of the naive count (one row at least): bounds its memory


def unit_count(d: int) -> int:
    """Number of roots of unity in the CM order: 6, 4 or 2."""
    return {-3: 6, -4: 4}.get(d, 2)


@dataclass(frozen=True)
class CurveModel:
    """Integral Weierstrass model y² + a1·xy + a3·y = x³ + a2·x² + a4·x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def b_invariants(self) -> tuple[int, int, int]:
        b2 = self.a1 * self.a1 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3 * self.a3 + 4 * self.a6
        return b2, b4, b6

    def c_invariants(self) -> tuple[int, int]:
        b2, b4, b6 = self.b_invariants()
        return b2 * b2 - 24 * b4, -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6

    def discriminant(self) -> int:
        c4, c6 = self.c_invariants()
        return (c4**3 - c6**2) // 1728


@dataclass(frozen=True)
class CurveSpec:
    """A member E_t of the twist family of d, on ``model``: None for the shipped E^d, else
    a quadratic twist of it (ValueError here otherwise, and for d = -4 and d = -3, which
    t alone fixes).

    >>> CurveSpec(-11, 3, default_table()[-11]) == CurveSpec(-11, 3)
    True
    >>> CurveSpec(-4, 1, CurveModel(0, 0, 0, -4, 0))
    Traceback (most recent call last):
    ...
    ValueError: the d = -4 family is fixed by t alone: vary --t, not the model
    """

    d: int
    t: Rational = Fraction(1)
    model: CurveModel | None = None

    def __post_init__(self) -> None:
        if self.d not in DISCRIMINANTS:
            raise ValueError(f"unsupported discriminant {self.d}")
        t = Fraction(self.t)
        if t == 0:
            raise ValueError("twist parameter t must be nonzero")
        object.__setattr__(self, "t", t)
        if self.model is not None and self.model == default_table()[self.d]:
            object.__setattr__(self, "model", None)
        self.twist()  # ValueError unless the model is a quadratic twist of the shipped one

    @property
    def w(self) -> int:
        return unit_count(self.d)

    def twist(self) -> int:
        """Squarefree D: the model is the quadratic twist by D of the shipped E^d."""
        return 1 if self.model is None else model_twist(self.d, self.model)

    def is_good(self, p: int) -> bool:
        """Good odd primes of E_t: p ∤ ``bad_product()``.  p = 2 is never good."""
        return p > 2 and self.bad_product() % p != 0

    def bad_product(self) -> int:
        """2·d·num(t)·den(t), times the discriminant of a model other than the shipped one."""
        bad = 2 * self.d * self.t.numerator * self.t.denominator
        return bad if self.model is None else bad * self.model.discriminant()

    def __str__(self) -> str:
        return f"E[{self.d}]_t={self.t}"


@dataclass(frozen=True)
class ApRecord:
    p: int
    ap: int
    kind: str  # "ordinary" | "supersingular"


def load_curve_table(path: str | Path | None = None) -> dict[int, CurveModel]:
    """Parse a model table (rows ``d a1 a2 a3 a4 a6``); all nine d required, and each
    row of a table read from ``path`` a model that ``CurveSpec`` takes (ValueError)."""
    if path is None:
        text = resources.files("cmresidues.data").joinpath("curves.txt").read_text()
    else:
        text = Path(path).read_text()
    table: dict[int, CurveModel] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"curve table line {lineno}: expected 6 fields, got {len(parts)}")
        try:
            d, *coeffs = (int(x) for x in parts)
        except ValueError as exc:
            raise ValueError(f"curve table line {lineno}: non-integer field") from exc
        if d not in DISCRIMINANTS:
            raise ValueError(f"curve table line {lineno}: unknown discriminant {d}")
        if d in table:
            raise ValueError(f"curve table line {lineno}: duplicate discriminant {d}")
        table[d] = CurveModel(*coeffs)
        if path is not None:  # CurveSpec's rule, which checks a model against the shipped table
            CurveSpec(d, 1, table[d])
    missing = [d for d in DISCRIMINANTS if d not in table]
    if missing:
        raise ValueError(f"curve table is missing discriminants {missing}")
    return table


@lru_cache(maxsize=1)
def default_table() -> dict[int, CurveModel]:
    return load_curve_table()


# ---------------------------------------------------------------------------
# Naive point counts (the oracle route)


def _reduce(v: np.ndarray, p: int) -> np.ndarray:
    """v mod p in place for int64 v >= 0, as v - (v // p)·p: numpy divides an array by a
    scalar on a fast path that its remainder does not take."""
    q = v // p
    q *= p  # in place, so the reduction holds one temporary
    v -= q
    return v


@lru_cache(maxsize=1)  # callers count one prime for many curves, then move on
def _chi_table(p: int) -> np.ndarray:
    """chi[v] = quadratic character of v mod p (0 at 0), as int8."""
    xs = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int8)
    chi[_reduce(xs * xs, p)] = 1
    chi[0] = 0
    return chi


def _count_cubic(rows, p: int) -> np.ndarray:
    """-Σ_x chi(c3x³ + c2x² + c1x + c0) for each row (c3, c2, c1, c0): the trace of
    y² = cubic over F_p, in 2-D passes of whole rows, ``_NAIVE_BLOCK`` values or one row."""
    if p > _NAIVE_LIMIT:
        raise ValueError(f"naive count at p = {p} is past its int64-safe limit {_NAIVE_LIMIT}")
    chi = _chi_table(p)
    xs = np.arange(p, dtype=np.int64)
    x2 = _reduce(xs * xs, p)
    x3 = _reduce(x2 * xs, p)
    coeffs = np.array([[c % p for c in row] for row in rows], dtype=np.int64).reshape(-1, 4, 1)
    out = np.empty(len(coeffs), dtype=np.int64)
    step = max(1, _NAIVE_BLOCK // p)
    for i in range(0, len(coeffs), step):
        c3, c2, c1, c0 = coeffs[i : i + step].transpose(1, 0, 2)
        fx = c3 * x3  # in place from here: values < 4p² and one array per block
        fx += c2 * x2
        fx += c1 * xs
        fx += c0
        out[i : i + step] = -chi[_reduce(fx, p)].sum(axis=1)
    return out


def naive_traces(specs, p: int) -> np.ndarray:
    """Frobenius trace of each spec at p by direct point count, one batch for all of them.

    Each spec's own cubic is evaluated at every x in F_p; nothing is shared
    between specs but the character table, so a twist is counted, not inferred.
    """
    rows = []
    for spec in specs:
        if not spec.is_good(p):
            raise ValueError(f"{spec} has bad reduction at {p}")
        tm = reduce_mod(spec.t, p)
        if spec.d == -4:
            rows.append((1, 0, -tm, 0))
        elif spec.d == -3:
            rows.append((1, 0, 0, 16 * tm))
        else:
            b2, b4, b6 = (spec.model or default_table()[spec.d]).b_invariants()
            # complete the square: counting y² = 4x³+b2x²+2b4x+b6 matches the model;
            # the twist by s multiplies the cubic through by s (s·y² = g ~ y² = s·g up to squares)
            s = -tm if spec.d == -7 else tm
            rows.append((4 * s, b2 * s, 2 * b4 * s, b6 * s))
    return _count_cubic(rows, p)


def ap_naive(spec: CurveSpec, p: int) -> int:
    """Frobenius trace by direct point count — the slow, assumption-free route."""
    return int(naive_traces([spec], p)[0])


# ---------------------------------------------------------------------------
# Production trace


@lru_cache(maxsize=None)
def model_twist(d: int, model: CurveModel) -> int:
    """Squarefree D such that ``model`` is the quadratic twist by D of the shipped E^d.

    For d <= -7 (j ≠ 0, 1728) two models with the same j are quadratic
    twists of each other, and the twist by D scales (c4, c6) to
    (D²u⁴·c4, D³u⁶·c6), so D is the squarefree part of (c6/c4) / (r6/r4),
    where (r4, r6) are the invariants of E^d.
    Raises ValueError for d = -4 and d = -3, which t alone fixes (``CurveSpec``
    keeps their shipped model as None), and when ``model`` has another j.
    """
    if d in (-4, -3):
        raise ValueError(f"the d = {d} family is fixed by t alone: vary --t, not the model")
    ref = default_table()[d]
    c4, c6 = model.c_invariants()
    r4, r6 = ref.c_invariants()
    if c4 * c6 == 0 or c4**3 * r6**2 != r4**3 * c6**2:
        raise ValueError(f"model {model} for d = {d} is not a twist of the CM curve {ref}")
    return squarefree_part(Fraction(c6 * r4, r6 * c4))


def _base_trace(d: int, p: int) -> int:
    """Trace of the shipped model E^d at split p, for the d <= -7 families.

    The Hecke character of E^d is χ(α)·α with χ quadratic mod the conductor,
    which fixes the sign of the norm-equation solution:

    * d = -8: p = x² + 2y², a_p = (-2/x)·2x, negated when y ≡ 2 (mod 4);
    * d = -7: 4p = u² + 7v², a_p = (u/7)·u;
    * d = -11, -19, -43, -67, -163: 4p = u² + |d|v², a_p = -(u/|d|)·u.

    ``scripts/calibrate_models.py`` re-derives each rule from naive counts.
    """
    if d == -8:
        x, y = cornacchia(2, p)
        trace = jacobi(-2, x) * 2 * x
        return -trace if y % 4 == 2 else trace
    u, _v = cornacchia_4p(d, p)
    return (jacobi(u, 7) if d == -7 else -jacobi(u, -d)) * u


def ap(spec: CurveSpec, p: int) -> ApRecord:
    """Frobenius trace of E_t at a good odd prime p, in closed form.

    Supersingular primes are dispatched by the splitting of d alone; at split
    p the norm equation gives the trace up to a unit, and a character value
    picks the unit (see the module docstring and ``CurveSpec.twist``).
    """
    if not spec.is_good(p):
        raise ValueError(f"{spec} has bad reduction at {p}")
    d = spec.d
    if jacobi(d, p) == -1:
        return ApRecord(p, 0, "supersingular")
    if d == -4:
        pi = split_prime(p)
        e = quartic_exponent(spec.t, pi, p)
        a, b = pi.re, pi.im
        trace = (2 * a, 2 * b, -2 * a, -2 * b)[e]
    elif d == -3:
        pi = split_prime_eis(p)
        for _ in range(cubic_exponent(spec.t, pi, p)):
            pi = pi.times_omega()
        tn = spec.t.numerator * spec.t.denominator
        trace = -jacobi(tn, p) * (2 * pi.a - pi.b)
    else:
        s = -spec.t if d == -7 else spec.t
        trace = jacobi(s.numerator * s.denominator * spec.twist(), p) * _base_trace(d, p)
    return ApRecord(p, trace, "ordinary")


def ap_order(spec: CurveSpec, p: int, m: int) -> int:
    """Order of the m-th power-residue class of a_p, i.e. of a_p^((p-1)/m) in F_p^×.

    Requires p ≡ 1 (mod m) and ordinary reduction (nonzero trace).
    """
    if (p - 1) % m:
        raise ValueError(f"p = {p} is not 1 mod {m}")
    rec = ap(spec, p)
    if rec.ap == 0:
        raise ValueError(f"a_{p} = 0 (supersingular); no residue order")
    return order_dividing(pow(rec.ap % p, (p - 1) // m, p), m, p)
