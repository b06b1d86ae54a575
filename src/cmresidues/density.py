"""Density laboratory: conditioned scans, closed-form tables, verdicts.

Two kinds of statements are checked against the trace pipeline:

* *per-prime identities* (``verify_suite``): exact, any single violation is
  a bug (in the code or in the identity) and is recorded as
  ``{p, suite, expected, got}``;
* *density statements* (``density_report`` / ``conjecture_report``): the
  order partition of the m-th power-residue class of a_p over a conditioned
  set of split primes, compared against closed-form tables where they exist,
  or against the rescaled lower-level empirical densities (the scaling law)
  where they don't.  The verdict is statistical: pass iff |z| <= 4 or
  |empirical - predicted| <= 0.004.

Scan determinism: the prime range is cut into fixed segments, each segment
is tallied independently (workers only change who computes which segment),
and integer tallies are merged in range order — so reports are
byte-identical for any worker count.  The suites run on the same segments
and the same ``_map_segments``, one ``engine.Segment`` per segment for all
of a suite's cases: each segment keeps its first violations by (case, p,
sub), the merge adds the checks and sorts the kept lists by key, so
violations list in case order, then by p, wherever the segments are cut
and however many workers check them.  Every ``CurveSpec`` is built before any
segment runs, and nothing time- or host-dependent goes into a report.
"""

from __future__ import annotations

import csv
import io
import json
import math
import signal
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd
from multiprocessing import get_context

import numpy as np

from .curves import _NAIVE_LIMIT, DISCRIMINANTS, CurveModel, CurveSpec, naive_traces, unit_count
from .engine import (
    P_LIMIT,
    Segment,
    isqrt_array,
    mod_array,
    pow_array,
    set_mask,
    symbol_exponents,
)
from .eisenstein import PRIMARY_CONVENTION
from .gaussian import odd_factor_exp, trace_symbol_exp, two_exp
from .prime_sets import And, CongMod, Not, Or, QuarticCell, SetExpr, SymOrder, quartic_cell, quartic_cell_expr
from .primes import (
    Rational,
    _divisors,
    euler_phi,
    jacobi,
    kfree_reduce,
    prime_array,
    reduce_mod,
    squarefree_part,
)

Z_MAX = 4.0
GAP_MAX = 0.004
_CHUNK = 250_000
_VIOLATION_CAP = 1000

# ---------------------------------------------------------------------------
# Closed-form density tables
#
# All tables give densities over C = C_M^1 ∩ {split in d} (M the
# conditioning modulus), relative to that C.  They depend on t only through
# invariants of k-th-power-free reduction, so rational t is fine.


def quadratic_trivial_density(d: int, t: Rational | int, cond_m: int) -> Fraction:
    """Density of (a_p/p) = +1 over C_{cond_m}^1 ∩ split(d), for d ≠ -4.

    Everything is driven by the squarefree part t' of t: the density leaves
    1/2 only when 4 ∤ cond_m and t' | cond_m·d, where the congruence class
    of t' (mod 4, resp. mod 8 when d = -8 lets the even part of t' interact
    with the ramified 2) decides between 3/4 and 1/4.
    """
    if d == -4:
        raise ValueError("use cm4_order_densities for the quartic family")
    if cond_m % 2:
        raise ValueError("conditioning modulus must be even for the quadratic class")
    tp = squarefree_part(t)
    if cond_m % 4 == 0:
        return Fraction(1, 2)
    if (cond_m * d) % tp == 0:  # divisibility is sign-blind under Python %
        if tp % 4 == 3:
            return Fraction(3, 4)
        if tp % 4 == 1:
            return Fraction(1, 4)
        if d == -8:
            if tp % 8 == 2:
                return Fraction(3, 4)
            if tp % 8 == 6:
                return Fraction(1, 4)
    return Fraction(1, 2)


def cm4_order_densities(t: Rational | int, cond_m: int) -> dict[int, Fraction]:
    """Order densities for the quartic family (d = -4) over C_{cond_m}^1.

    When 4 | cond_m the quartic class of a_p is the natural object: returns
    {1: δ¹, 2: δ², 4: δ⁴}.  Otherwise only the quadratic class is
    well-defined on all of C and the dict is {1: δ, 2: 1-δ}.  t is reduced
    mod fourth powers internally (the family only depends on that class).
    """
    tp = squarefree_part(t)  # of t itself: its fourth-power-free form may be past the factoring limit
    t = kfree_reduce(t, 4)
    if cond_m % 4:
        # quadratic table
        if cond_m % tp == 0:
            d1 = Fraction(1) if tp % 2 == 0 else Fraction(1, 2)
        else:
            d1 = Fraction(3, 4)
        return {1: d1, 2: 1 - d1}
    # quartic table; branch order matters (t = ±2 and ±8 interact with 8 | m)
    if cond_m % 8 and t in (2, -8):
        d1 = Fraction(3, 4)
    elif cond_m % 8 == 0:
        d1 = Fraction(1, 2)
    elif t in (-2, 8):
        d1 = Fraction(1, 4)
    elif cond_m % tp == 0:
        d1 = Fraction(1, 2) if tp % 2 == 0 else Fraction(1, 4)
    else:
        d1 = Fraction(3, 8)
    # order-4 density from the p ≡ 5 (mod 8) cell: there (a_p/π)_4 has order 4
    # exactly when t/2 is a quadratic non-residue, which kills or fills the
    # cell according to the odd part u of t'.
    if cond_m % 8 == 0:
        d4 = Fraction(0)
    else:
        e = 0 if tp % 2 else 1
        u = abs(tp) if e == 0 else abs(tp) // 2
        if cond_m % u == 0:
            d4 = Fraction(1, 2) if e == 0 else Fraction(0)
        else:
            d4 = Fraction(1, 4)
    return {1: d1, 2: 1 - d1 - d4, 4: d4}


def cubic_trivial_density(t: Rational | int, cond_m: int) -> Fraction:
    """Density of trivial cubic class of a_p (d = -3) over C_{cond_m}^1."""
    if cond_m % 3:
        raise ValueError("conditioning modulus must be divisible by 3")
    t0 = kfree_reduce(t, 3)
    if cond_m % 9 == 0 or t0 == 1:
        return Fraction(1)
    return Fraction(5, 9)


def _family_table(d: int, t: Rational | int, g: int, cond_m: int) -> tuple[dict[int, Fraction], str]:
    """(densities-per-order, source-tag) of the g-class over C_{cond_m}^1 ∩ split(d), 1 < g | w_d."""
    if d == -4:
        full = cm4_order_densities(t, cond_m)
        if g == 2 and 4 in full:
            # quadratic class trivial ⇔ quartic order ≤ 2
            return {1: full[1] + full[2], 2: full[4]}, "quartic-table"
        return full, "quartic-table"
    if g == 2:
        q = quadratic_trivial_density(d, t, cond_m)
        return {1: q, 2: 1 - q}, "quadratic-table"
    c = cubic_trivial_density(t, cond_m)
    if g == 3:
        return {1: c, 3: 1 - c}, "cubic-table"
    q = quadratic_trivial_density(-3, t, cond_m)
    return {1: q * c, 2: (1 - q) * c, 3: q * (1 - c), 6: (1 - q) * (1 - c)}, "sextic-product"


def predict_orders(
    d: int, t: Rational | int, sym_m: int, cond_m: int
) -> tuple[dict[int, Fraction], str] | None:
    """Closed-form order densities of the sym_m-class over C_{cond_m}^1 ∩ split(d).

    Returns (densities-per-order, source-tag), or None when no table applies.
    With g = gcd(sym_m, w_d): g = sym_m gives the full family table; g = 1
    the uniform φ(n)/m partition; 1 < g < sym_m only pins the trivial class
    at (g/m) · δ_g¹ (the leading table) — the dict is then partial, and the
    remaining orders belong to the scaling law.
    """
    if cond_m % sym_m:
        raise ValueError(f"conditioning modulus {cond_m} is not a multiple of the symbol modulus {sym_m}")
    g = gcd(sym_m, unit_count(d))
    if g == 1:
        return {n: Fraction(euler_phi(n), sym_m) for n in _divisors(sym_m)}, "leading-table"
    table, source = _family_table(d, t, g, cond_m)
    if g == sym_m:
        return table, source
    return {1: Fraction(g, sym_m) * table[1]}, "leading-table"


def trivial_symbol_density(d: int, t: Rational | int, m: int) -> Fraction:
    """Density of trivial m-th power-residue class of a_p over C_m^1 ∩ split(d).

    The master table: with g = gcd(m, w_d), only a degree-g slice of the
    m-th-power conditions is constrained, and the constrained part follows
    the g-family tables above.  t must already be reduced (4th-, 6th-, resp.
    square-free for d = -4, -3, other): the reduction is a twist of the
    family, so densities are invariants of it, but the caller should be
    explicit about which member it means.
    """
    k = unit_count(d)
    t = Fraction(t)
    if t != kfree_reduce(t, k):
        raise ValueError(f"t = {t} is not {k}-th-power-free; reduce it first (kfree_reduce)")
    return predict_orders(d, t, m, m)[0][1]


def scaling_parameters(m: int, n: int, w: int) -> tuple[int, int, Fraction]:
    """(m', n', factor): the scaling law predicts δ_m^n = factor · δ_{m'}^{n'}.

    m' = gcd(m, w) is the largest symbol order actually constrained by the
    CM unit group; n' is where order n lands downstream; the factor spreads
    the unconstrained part uniformly: factor = (φ(n)/m) · (m'/φ(n')).
    """
    if m % n:
        raise ValueError(f"order {n} does not divide {m}")
    mp = gcd(m, w)
    np_ = mp // gcd(m // n, w)
    return mp, np_, Fraction(euler_phi(n), m) * Fraction(mp, euler_phi(np_))


# ---------------------------------------------------------------------------
# Scan engine


@dataclass(frozen=True)
class ScanItem:
    """One conditioned tally: order partition of the m-class(es) of a_p(E_t).

    Eligible primes: good for E_t, split in d, ≡ 1 mod every modulus, and
    inside `extra` (if given).  All moduli share the same eligible set, so
    one pass yields directly comparable tallies (same denominator).
    """

    d: int
    t: Rational
    moduli: tuple[int, ...]
    extra: SetExpr | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", Fraction(self.t))
        if not self.moduli or any(m < 1 for m in self.moduli):
            raise ValueError(f"bad moduli {self.moduli}")
        CurveSpec(self.d, self.t)  # validates d and t


@dataclass
class ItemResult:
    item: ScanItem
    p_max: int
    total: int
    tallies: dict[int, dict[int, int]]  # modulus -> (order -> count)

    def count(self, m: int, n: int) -> int:
        return self.tallies[m].get(n, 0)

    def density(self, m: int, n: int) -> float:
        return self.count(m, n) / self.total if self.total else 0.0

    def merge(self, other: "ItemResult") -> None:
        if self.item != other.item:
            raise ValueError(f"cannot merge tallies of {other.item} into {self.item}")
        self.total += other.total
        for m, counts in other.tallies.items():
            mine = self.tallies[m]
            for o, c in counts.items():
                mine[o] = mine.get(o, 0) + c


def _segments(p_min: int, p_max: int) -> list[tuple[int, int]]:
    """The segment cut of [p_min, p_max) every ``_CHUNK`` integers, a pure
    function of the range; ValueError for a bad range or p_max past 2**32
    (the engine's residues are uint64)."""
    if p_min < 0 or p_max < p_min:
        raise ValueError(f"bad prime range {p_min}..{p_max}")
    if p_max > P_LIMIT:
        raise ValueError(f"p_max = {p_max} is past the engine's limit 2**32 (uint64 products)")
    return [(lo, min(lo + _CHUNK, p_max)) for lo in range(p_min, p_max, _CHUNK)]


def _scan_chunk(plan, bounds):
    """Tallies of every item over the primes of one segment, as numpy stages.

    Sieve and norm form run once per d, the walk only through the classes
    that can give p ≡ 1 mod the gcd of the d's items' lcm(moduli), the trace
    once per (d, t) group and only at primes ≡ 1 mod the gcd of its items'
    lcm(moduli), where every eligible set lies; the eligible set of each item
    is one mask (good, split, ≡ 1 mod every modulus, in ``extra``).  Each twist takes the orders
    of all the moduli of its d at the primes that some of its items tally
    (``Segment.orders``, which the twists of d share), and each item's tally
    is one ``np.bincount`` over the divisors of m.  plan is (items, the curve of each).
    """
    items, specs = plan
    groups: dict[int, dict[CurveSpec, list[int]]] = {}
    for idx, spec in enumerate(specs):
        groups.setdefault(spec.d, {}).setdefault(spec, []).append(idx)
    lcms = [math.lcm(*it.moduli) for it in items]
    walks = {d: math.gcd(*(lcms[i] for idxs in twists.values() for i in idxs)) for d, twists in groups.items()}
    seg = Segment(*bounds, walks)
    divisors = {m: np.array(_divisors(m)) for it in items for m in it.moduli}  # an order divides m: no array of length m
    totals = [0] * len(items)
    tallies: list[dict[int, dict[int, int]]] = [{} for _ in items]
    for d, twists in groups.items():
        moduli = sorted({m for idxs in twists.values() for i in idxs for m in items[i].moduli})
        for spec, idxs in twists.items():
            ps, c, e = seg.units(spec, math.gcd(*(lcms[i] for i in idxs)))
            keeps = [(ps - 1) % lcms[i] == 0 for i in idxs]
            for keep, i in zip(keeps, idxs):
                if items[i].extra is not None:
                    keep &= set_mask(items[i].extra, ps, seg)
            some = np.logical_or.reduce(keeps)
            orders = seg.orders(d, (ps[some], c[:, some], e[some]), moduli)
            for i, keep in zip(idxs, keeps):
                keep = keep[some]
                totals[i] = int(keep.sum())
                for m in items[i].moduli:
                    counts = np.bincount(np.searchsorted(divisors[m], orders[m][keep]))
                    found = np.flatnonzero(counts)
                    tallies[i][m] = dict(zip(divisors[m][found].tolist(), counts[found].tolist()))
    return totals, tallies


def _run_share(fn, share, reader, writer):
    """A forked child's body: fn over its share of the segments, sent back as
    one list, or the exception it raised."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    reader.close()  # so a send to a caller that is gone fails instead of blocking
    try:
        out = list(map(fn, share))
    except Exception as exc:
        out = exc
    writer.send(out)


def _map_segments(fn, segments, workers):
    """[fn(s) for s in segments] on k = min(workers, len(segments)) processes.

    The caller maps segments[0::k] itself; forked child i maps segments[i::k]
    and sends back its results, or the exception it raised (raised here), in
    one message over its own pipe.  Every child is joined before this returns
    or raises, after ``terminate()`` on a failure, so none outlives the call
    and ``RUSAGE_CHILDREN`` counts them all.  At k = 1 nothing is forked.
    ValueError for workers < 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    k = min(workers, len(segments))
    if k <= 1:
        return list(map(fn, segments))
    ctx = get_context("fork")
    children = []
    try:
        for i in range(1, k):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_share, args=(fn, segments[i::k], reader, writer), daemon=True)
            proc.start()
            writer.close()
            children.append((proc, reader))
        shares = [list(map(fn, segments[0::k]))]
        for i, (proc, reader) in enumerate(children, 1):
            try:
                got = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"share {i} of {k} (segments {i}::{k}): its process exited "
                    f"with code {proc.exitcode} without sending a result"
                ) from None
            if isinstance(got, BaseException):
                raise got
            shares.append(got)
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, reader in children:
            proc.join()
            reader.close()
    out = [None] * len(segments)
    for i, share in enumerate(shares):
        out[i::k] = share
    return out


def _atom_moduli(expr: SetExpr | None) -> list[int]:
    """M of every mod(M;…) atom and m of every symord(m;…) atom of expr."""
    if isinstance(expr, (And, Or)):
        return [m for q in expr.parts for m in _atom_moduli(q)]
    if isinstance(expr, Not):
        return _atom_moduli(expr.inner)
    return [expr.modulus] if isinstance(expr, CongMod) else [expr.m] if isinstance(expr, SymOrder) else []


def scan_batch(
    items,
    p_max: int,
    *,
    p_min: int = 5,
    workers: int = 1,
    table: dict[int, CurveModel] | None = None,
) -> list[ItemResult]:
    """Tally all items over primes in [p_min, p_max).

    Segment boundaries depend only on (p_min, p_max), cut every 250 000
    integers, and integer tallies merge in segment order, so the result is a
    pure function of the arguments regardless of `workers`: the caller plus
    `workers` - 1 forked children, at most one process per segment.  The
    engine's residues are uint64, so p_max may be at most 2**32, and every
    item modulus and every mod(M;…) or symord(m;…) modulus must be below it
    (no prime below 2**32 is ≡ 1 mod such a modulus); ValueError otherwise,
    before any segment runs, as for a ``table`` row that ``CurveSpec`` refuses.
    """
    items = tuple(items)
    wide = [m for it in items for m in (*it.moduli, *_atom_moduli(it.extra)) if m >= P_LIMIT]
    if wide:
        raise ValueError(f"modulus {wide[0]} is past the engine's limit 2**32: moduli must be below it")
    specs = tuple(CurveSpec(it.d, it.t, table and table[it.d]) for it in items)
    parts = _map_segments(partial(_scan_chunk, (items, specs)), _segments(p_min, p_max), workers)
    results = [
        ItemResult(item, p_max, 0, {m: {} for m in item.moduli}) for item in items
    ]
    for totals, tals in parts:
        for i, res in enumerate(results):
            res.merge(ItemResult(res.item, p_max, totals[i], tals[i]))
    return results


def run_scan(
    d: int,
    t: Rational | int,
    m: int,
    set_expr: SetExpr | None = None,
    p_max: int = 10**6,
    **kwargs,
) -> ItemResult:
    """Single-item convenience wrapper around scan_batch."""
    return scan_batch([ScanItem(d, Fraction(t), (m,), set_expr)], p_max, **kwargs)[0]


# ---------------------------------------------------------------------------
# Reports


@dataclass
class ReportRow:
    d: int
    t: Fraction
    m: int
    n: int
    set: str
    N: int
    empirical: float | None
    predicted: Fraction | float | None
    source: str
    z: float | None
    verdict: str  # "pass" | "fail" | "n/a"


@dataclass
class Report:
    rows: list[ReportRow] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def all_pass(self) -> bool:
        """No failing verdict, and no row over an empty eligible set (N = 0)."""
        return all(r.verdict != "fail" and r.N > 0 for r in self.rows)

    def gap_only_notes(self) -> list[str]:
        """One line per row that passes on the gap clause alone while |z| > Z_MAX: at
        height the gap clause passes a row whatever its z, so callers print these to stderr."""
        return [
            f"note: d={r.d} t={r.t} m={r.m} n={r.n}{f' set={r.set}' if r.set else ''} passes on "
            f"gap {abs(r.empirical - float(r.predicted)):.6f} <= {GAP_MAX} alone; |z| = {abs(r.z):.4f} > {Z_MAX}"
            for r in self.rows
            if r.verdict == "pass" and r.z is not None and abs(r.z) > Z_MAX
        ]

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.DictWriter(out, _FIELDS, lineterminator="\n")
        w.writeheader()
        w.writerows(_cells(r) for r in self.rows)
        return out.getvalue()

    def to_json(self) -> str:
        payload = {"meta": self.meta, "rows": [_cells(r) for r in self.rows]}
        return json.dumps(payload, indent=2) + "\n"


def _fmt_float(v: float | None) -> str:
    return "" if v is None else f"{v:.9f}"


def _fmt_pred(v: Fraction | float | None) -> str:
    return str(v) if isinstance(v, Fraction) else _fmt_float(v)


def _fmt_z(v: float | None) -> str:
    return "" if v is None else f"{v:.4f}"


_FIELDS = tuple(f.name for f in fields(ReportRow))  # the column order of both formats
_FORMATS = {"t": str, "empirical": _fmt_float, "predicted": _fmt_pred, "z": _fmt_z}


def _cells(r: ReportRow) -> dict:
    """One report row as its output cells, keyed by field name in ``_FIELDS`` order."""
    return {f: _FORMATS.get(f, lambda v: v)(getattr(r, f)) for f in _FIELDS}


def base_meta(p_max: int) -> dict:
    from . import __version__

    # deliberately no worker count and no timestamps: reports must be
    # bit-identical across worker layouts and repeat runs
    return {
        "version": __version__,
        "p_max": p_max,
        "eisenstein_convention": PRIMARY_CONVENTION,
    }


def _judge(N: int, count: int, predicted: Fraction | float | None):
    """(empirical, z, verdict) under the gap-or-z rule."""
    if N == 0:
        return None, None, "n/a"
    emp = count / N
    if predicted is None:
        return emp, None, "n/a"
    pf = float(predicted)
    gap = abs(emp - pf)
    z = None
    if 0.0 < pf < 1.0:
        z = (emp - pf) / math.sqrt(pf * (1.0 - pf) / N)
    ok = gap <= GAP_MAX or (z is not None and abs(z) <= Z_MAX)
    return emp, z, "pass" if ok else "fail"


def _conditioning_modulus(item: ScanItem) -> int | None:
    """Effective C_M^1 conditioning modulus of an item, None if not plain.

    Predictions from the closed-form tables only apply when the eligible set
    is exactly split primes ≡ 1 mod M; arbitrary extra expressions get
    empirical-only rows.
    """
    m0 = math.lcm(*item.moduli)
    if item.extra is None:
        return m0
    if isinstance(item.extra, CongMod) and item.extra.residues == (1 % item.extra.modulus,):
        return math.lcm(m0, item.extra.modulus)
    return None


def _predictions(item: ScanItem, m: int) -> tuple[dict[int, Fraction], str] | None:
    """``predict_orders`` for the m-class over the item's conditioning, None if it is not plain."""
    cond_m = _conditioning_modulus(item)
    return predict_orders(item.d, item.t, m, cond_m) if cond_m is not None else None


def density_rows(res: ItemResult, m: int, orders=None, preds=None) -> list[ReportRow]:
    """Closed-form-vs-empirical rows for the m-class of one scan result; ``preds`` is
    ``_predictions(res.item, m)``, looked up here when not given."""
    item = res.item
    preds = preds or _predictions(item, m)
    set_str = str(item.extra) if item.extra is not None else ""
    rows = []
    for n in orders or _divisors(m):
        pred, source = (None, "")
        if preds is not None and n in preds[0]:
            pred, source = preds[0][n], preds[1]
        emp, z, verdict = _judge(res.total, res.count(m, n), pred)
        rows.append(ReportRow(item.d, item.t, m, n, set_str, res.total, emp, pred, source, z, verdict))
    return rows


def scaling_rows(res: ItemResult, m: int, orders=None) -> list[ReportRow]:
    """Scaling-law rows δ_m^n vs factor · δ̂_{m'}^{n'} for one scan result.

    The item must have tallied both m and m' = gcd(m, w); for the sextic
    identity case (d = -3, m = 6, tallies at 2 and 3 present) product-rule
    rows are appended.
    """
    item = res.item
    w = unit_count(item.d)
    set_str = str(item.extra) if item.extra is not None else ""
    N = res.total
    rows = []
    for n in orders or _divisors(m):
        mp, np_, factor = scaling_parameters(m, n, w)
        pred = float(factor) * res.density(mp, np_) if N else None
        emp, z, verdict = _judge(N, res.count(m, n), pred)
        rows.append(ReportRow(item.d, item.t, m, n, set_str, N, emp, pred, "scaling", z, verdict))
    if item.d == -3 and m == 6 and 2 in res.tallies and 3 in res.tallies:
        for n in orders or _divisors(6):
            pred = res.density(2, gcd(n, 2)) * res.density(3, gcd(n, 3)) if N else None
            emp, z, verdict = _judge(N, res.count(6, n), pred)
            rows.append(ReportRow(item.d, item.t, 6, n, set_str, N, emp, pred, "product-rule", z, verdict))
    return rows


def conjecture_moduli(d: int, m: int) -> tuple[int, ...]:
    """Moduli an item must tally for the scaling rows of the m-class."""
    w = unit_count(d)
    moduli = [m]
    if gcd(m, w) != m:
        moduli.append(gcd(m, w))
    if d == -3 and m == 6:
        moduli += [k for k in (2, 3) if k not in moduli]
    return tuple(moduli)


def density_report(
    d: int,
    t: Rational | int,
    m: int,
    *,
    set_expr: SetExpr | None = None,
    orders=None,
    p_max: int = 10**6,
    workers: int = 1,
    table: dict[int, CurveModel] | None = None,
) -> Report:
    """Empirical order partition of the m-class of a_p, with closed-form verdicts.

    Closed-form predictions are attached when the conditioning is a plain
    C_M^1 cell (set_expr None or mod(M;1)) and a table covers (d, m); other
    conditionings report empirical densities with verdict n/a.
    """
    item = ScanItem(d, Fraction(t), (m,), set_expr)
    preds = _predictions(item, m)  # before the scan: a table past the factoring limit fails at once
    res = scan_batch([item], p_max, workers=workers, table=table)[0]
    return Report(density_rows(res, m, orders, preds), base_meta(p_max))


def conjecture_report(
    d: int,
    t: Rational | int,
    m: int,
    *,
    set_expr: SetExpr | None = None,
    orders=None,
    p_max: int = 10**6,
    workers: int = 1,
    table: dict[int, CurveModel] | None = None,
) -> Report:
    """Check the scaling law: δ_m^n against rescaled empirical δ_{m'}^{n'}.

    Both sides are tallied in one pass over the same conditioned set, so the
    reference density has exactly the same denominator.  When m = m' the law
    is an identity (z = 0 by construction); for d = -3, m = 6 the report
    additionally carries product-rule rows δ_6^n vs δ_2^(n,2) · δ_3^(n,3).
    """
    item = ScanItem(d, Fraction(t), conjecture_moduli(d, m), set_expr)
    res = scan_batch([item], p_max, workers=workers, table=table)[0]
    return Report(scaling_rows(res, m, orders), base_meta(p_max))


# ---------------------------------------------------------------------------
# Per-prime verification suites


@dataclass
class SuiteResult:
    suite: str
    checked: int
    violations: list[dict]
    params: dict

    def ok(self) -> bool:
        """Clean only if something was checked: an empty suite is not a pass."""
        return self.checked > 0 and not self.violations


class _Recorder:
    """Check count and violations, keyed (case, p, sub) and unique, of one suite over one segment."""

    def __init__(self, suite: str):
        self.suite, self.checked = suite, 0
        self.found: list[tuple[tuple, dict]] = []

    def check(self, case: int, ps: np.ndarray, expected, got, sub: int = 0, show=str) -> None:
        """One check per p in ps: expected[i] == got[i], a scalar standing for every i."""
        expected, got = (np.broadcast_to(np.asarray(v), ps.shape) for v in (expected, got))
        self.checked += len(ps)
        for i in np.flatnonzero(expected != got)[:_VIOLATION_CAP].tolist():  # ps ascend: the first by key
            v = {"p": int(ps[i]), "suite": self.suite, "expected": show(expected[i]), "got": show(got[i])}
            self.found.append(((case, v["p"], sub), v))


_W2_DISCRIMINANTS = tuple(d for d in DISCRIMINANTS if unit_count(d) == 2)
_QUARTIC_TWISTS = (1, 2, -2, 3, 6, -8)
ORACLE_BOUND = 20_000  # trace-oracle's default: the split p it point-counts

# A suite is a per-segment check fn(seg, rec, specs): case c is the curve specs[c].
# The computed side of each identity is read from the segment's arrays; the
# claimed side calls the identity's own scalar implementation, on ints and with
# its own Python pow: ``odd_factor_exp``, ``two_exp`` and ``trace_symbol_exp``
# (which the public ``closed_form_*`` wrap), ``quartic_cell`` and ``_sextic_rhs``.


def _by_prime(cases, values) -> list[list]:
    """``values(keys, p)`` at every p of each (key, ps) case, prime-major: one call per
    prime with the keys of the cases that reach it, in case order.  One list per case,
    aligned with its ps, so a per-prime cost (a naive count's character table, a split)
    is paid once for all the cases."""
    lists = [ps.tolist() for _, ps in cases]
    out: list[list] = [[] for _ in cases]
    for p in sorted(set().union(*lists)):
        here = [c for c, ps in enumerate(lists) if len(out[c]) < len(ps) and ps[len(out[c])] == p]
        for c, v in zip(here, values([cases[c][0] for c in here], p)):
            out[c].append(v)
    return out


def _naive_by_prime(cases) -> list[list[int]]:
    """``ap_naive`` at every p of each (spec, ps) case, one ``naive_traces`` batch per prime."""
    return _by_prime(cases, lambda specs, p: naive_traces(specs, p).tolist())


def _suite_twist(seg, rec, specs):
    """Quadratic twist law: a_p(E_t) = (t/p) · a_p(E_1) for the w=2 families.

    The left side is the naive count (independent of the twist bookkeeping in
    the traces), so this is not a tautology.  Inert primes check a_p(E_t) = 0.
    """
    cases, rhs, ones = [], [], {}
    for spec in specs:
        one = CurveSpec(spec.d, 1, spec.model)  # E_1's traces, once for all the twists of d
        ps, a = ones[one] = ones.get(one) or seg.good_traces(one)
        good = mod_array(spec.bad_product(), ps) != 0
        ps, a = ps[good], a[good]
        cases.append((spec, ps))
        rhs.append((1 - 2 * symbol_exponents(mod_array(spec.t.numerator * spec.t.denominator, ps), ps, 2)) * a)
    for c, ((_, ps), expected, naive) in enumerate(zip(cases, rhs, _naive_by_prime(cases))):
        rec.check(c, ps, expected, naive)


def _suite_trace_oracle(seg, rec, specs, oracle_bound=ORACLE_BOUND):
    """d = -4 closed-form trace against the naive count, plus structure checks.

    For p <= oracle_bound the trace must equal the point count exactly; for
    every split p it must be even, nonzero, and satisfy the norm equation
    p = (a_p/2)² + b² exactly.  Inert p must give 0.
    """
    traces = [seg.good_traces(spec) for spec in specs]
    lows = [(ps % 4 == 1) & (ps <= oracle_bound) for ps, _ in traces]
    naive = _naive_by_prime([(spec, ps[low]) for spec, (ps, _), low in zip(specs, traces, lows)])
    for c, ((ps, a), low, counted) in enumerate(zip(traces, lows, naive)):
        split = ps % 4 == 1
        rec.check(c, ps[~split], 0, a[~split])
        rec.check(c, ps[low], counted, a[low])
        q, aq = ps[split & ~low], a[split & ~low]
        rem = q - (np.abs(aq) // 2) ** 2
        square = isqrt_array(np.maximum(rem, 0)) ** 2 == rem
        rec.check(c, q, True, (aq != 0) & (aq % 2 == 0) & (rem > 0) & square)


def _suite_quadratic(seg, rec, specs):
    """The quadratic residue class of a_p at every split prime.

    d ≠ -4: (a_p/p) = (d/p)_4 (Euler) for p ≡ 1 (mod 4) and -(t/p) for
    p ≡ 3 (mod 4).  d = -4: +1 for p ≡ 1 (mod 8) and -(t/p) for p ≡ 5 (mod 8).
    """
    for d in dict.fromkeys(spec.d for spec in specs):
        split = seg.form(d)[0]
        if d != -4:  # (d/p)_4 = 1 at the split p ≡ 1 (mod 4): one Euler power per d
            one = split % 4 == 1
            quartic_d = np.zeros(len(split), dtype=bool)
            quartic_d[one] = pow_array(mod_array(d, split[one]), (split[one] - 1) // 4, split[one]) == 1
        for c in (c for c, spec in enumerate(specs) if spec.d == d):
            ps, _, _ = units = seg.units(specs[c])
            minus_t = 2 * symbol_exponents(mod_array(specs[c].t.numerator * specs[c].t.denominator, ps), ps, 2) - 1
            if d == -4:
                expected = np.where(ps % 8 == 1, 1, minus_t)
            else:
                expected = np.where(ps % 4 == 1, np.where(quartic_d[seg.index(d, ps)], 1, -1), minus_t)
            rec.check(c, ps, expected, np.where(seg.orders(d, units, (2,))[2] == 1, 1, -1))


def _suite_cubic(seg, rec, specs):
    """The cubic residue class of a_p (d = -3) through the mod-9 cells.

    (a_p/π)_3 is trivial for p ≡ 1 (mod 9), and equals (t/π)_3^(±1) on the
    other two cells of split p.
    """
    for c, spec in enumerate(specs):
        ps, a = seg.traces(spec)
        pa, pb = seg.primary(-3, ps)
        e_t = symbol_exponents(mod_array(spec.t.numerator * spec.t.denominator**2, ps), ps, 3, (pa, pb))
        expected = np.where(ps % 9 == 1, 0, np.where(ps % 9 == 4, 2 * e_t % 3, e_t))
        rec.check(c, ps, expected, symbol_exponents(a % ps, ps, 3, (pa, pb)))


@lru_cache(maxsize=1)  # sextic-order1 asks prime-major (``_by_prime``): once per p for all the twists
def _minus_three_is_quartic(p: int) -> bool:
    return pow((-3) % p, (p - 1) // 4, p) == 1


def _sextic_rhs(p: int, tm: int) -> bool:
    if p % 36 in (1, 13, 25):  # so p ≡ 1 (mod 4)
        return _minus_three_is_quartic(p) and (p % 36 == 1 or pow(tm, (p - 1) // 3, p) == 1)
    if p % 36 == 19:
        return jacobi(tm, p) == -1
    # p ≡ 7, 31 (mod 36)
    return pow(tm, (p - 1) // 6, p) == p - 1


def _suite_sextic_order1(seg, rec, specs):
    """Two-sided cell description of {order of the sextic class of a_p = 1}.

    The left side is computed from a_p, the right side from congruence and
    residue conditions on p alone; they must agree prime by prime.
    """
    units = [seg.units(spec) for spec in specs]
    cases = [(spec.t, ps) for spec, (ps, _, _) in zip(specs, units)]
    claimed = _by_prime(cases, lambda ts, p: [_sextic_rhs(p, reduce_mod(t, p)) for t in ts])
    for c, (spec, u, rhs) in enumerate(zip(specs, units, claimed)):
        rec.check(c, u[0], rhs, seg.orders(spec.d, u, (6,))[6] == 1)


def _suite_odd_factor(seg, rec, specs):
    """Closed form for (ℓ/π)_4, ℓ an odd prime dividing re(π), vs Euler."""
    ps = seg.form(-4)[0]
    a, b = seg.primary(-4, ps)
    ells = prime_array(3, int(np.abs(a).max(initial=0)) + 1)  # ℓ is the sub-key
    at = [np.flatnonzero(a % ell == 0) for ell in ells.tolist()]
    sizes = [len(i) for i in at]
    k = np.concatenate([np.empty(0, dtype=np.int64)] + at)
    # every (ℓ, p) pair in one Euler power, cut back into one run per ℓ
    euler = symbol_exponents(np.repeat(ells, sizes), ps[k], 4, (a[k], b[k]))
    for ell, i, e in zip(ells.tolist(), at, np.split(euler, np.cumsum(sizes)[:-1])):
        closed = [odd_factor_exp(ell, x, y) for x, y in zip(a[i].tolist(), b[i].tolist())]
        rec.check(0, ps[i], e, closed, sub=ell)


def _suite_two_factor(seg, rec, specs):
    """Closed form for (2/π)_4 = (-i)^(b/2) vs Euler, all primary π."""
    ps = seg.form(-4)[0]
    a, b = seg.primary(-4, ps)
    closed = list(map(two_exp, a.tolist(), b.tolist()))
    rec.check(0, ps, symbol_exponents(np.full(len(ps), 2), ps, 4, (a, b)), closed)


def _suite_trace_symbol(seg, rec, specs):
    """Exponent-level closed form for (a_p/π)_4 in the quartic family."""
    for k, spec in enumerate(specs):  # the checks run p by p, then t by t
        ps, a = seg.traces(spec)
        pa, pb = seg.primary(-4, ps)
        closed = [trace_symbol_exp(x, y, spec.t, p) for x, y, p in zip(pa.tolist(), pb.tolist(), ps.tolist())]
        rec.check(0, ps, closed, symbol_exponents(a % ps, ps, 4, (pa, pb)), sub=k)


_CELLS = tuple(QuarticCell)
# cell -> (its bit in a membership set, the order of (a_p/π)_4 on it, the exponent it pins or -1)
_CELL_FACTS = {
    cell: (1 << k, cell.trace_symbol_order, -1 if cell.trace_symbol_exp is None else cell.trace_symbol_exp)
    for k, cell in enumerate(_CELLS)
}


def _cell_list(bits) -> str:
    """The values of the cells in a bit set, bit k standing for ``_CELLS[k]``."""
    return str([c.value for k, c in enumerate(_CELLS) if int(bits) >> k & 1])


def _suite_nine_cells(seg, rec, specs):
    """The nine-cell partition: membership, predicted order, pinned values.

    Checks that every eligible p lands in exactly the cell its set
    expression describes, that the order of the quartic class of a_p is the
    cell's, and — on the p ≡ 1 (mod 8) cells — that the symbol value itself
    matches.
    """
    traces = [seg.traces(spec) for spec in specs]
    # prime-major, so that ``split_prime`` splits each p once for all the twists
    cases = [(s.t, ps) for s, (ps, _) in zip(specs, traces)]
    claimed = _by_prime(cases, lambda tp, p: [_CELL_FACTS[quartic_cell(p, t)] for t in tp])
    for c, (spec, (ps, a), facts) in enumerate(zip(specs, traces, claimed)):
        bits, orders, exps = np.array(facts, dtype=np.int64).reshape(-1, 3).T
        masks = [set_mask(quartic_cell_expr(cell, spec.t), ps, seg) for cell in _CELLS]
        member = sum(mask.astype(np.int64) << k for k, mask in enumerate(masks))
        rec.check(c, ps, bits, member, show=_cell_list)
        e = symbol_exponents(a % ps, ps, 4, seg.primary(-4, ps))
        rec.check(c, ps, orders, np.choose(e, [1, 4, 2, 4]), sub=1)
        pinned = exps >= 0
        rec.check(c, ps[pinned], exps[pinned], e[pinned], sub=2)


# name -> (check, discriminants, default twists): a suite with one discriminant fixes
# it, one without default twists takes none; its cases run d by d, then t by t
SUITES = {
    "twist": (_suite_twist, _W2_DISCRIMINANTS, (2, 3, 5)),
    "trace-oracle": (_suite_trace_oracle, (-4,), _QUARTIC_TWISTS),
    "quadratic": (_suite_quadratic, (-3,) + _W2_DISCRIMINANTS + (-4,), (1, 2, 3)),
    "cubic": (_suite_cubic, (-3,), (1, 2, 3)),
    "sextic-order1": (_suite_sextic_order1, (-3,), (2, 3, 5)),
    "odd-factor": (_suite_odd_factor, (-4,), None),
    "two-factor": (_suite_two_factor, (-4,), None),
    "trace-symbol": (_suite_trace_symbol, (-4,), _QUARTIC_TWISTS),
    "nine-cells": (_suite_nine_cells, (-4,), _QUARTIC_TWISTS),
}


def _check_segment(name: str, check, specs, bounds: tuple[int, int]) -> tuple[int, list]:
    """(checks, first violations by key) of a suite over one Segment, shared by all of its cases."""
    rec = _Recorder(name)
    check(Segment(*bounds), rec, specs)
    return rec.checked, sorted(rec.found)[:_VIOLATION_CAP]


def _run_suite(name: str, check, specs, params: dict, p_max: int, workers: int = 1):
    """The segments of [5, p_max) on ``workers`` processes, as a scan's; the violations,
    in case order and then by p for any segment cut, merge by key and are cut to the cap once."""
    fn = partial(_check_segment, name, check, specs)
    parts = _map_segments(fn, _segments(5, max(p_max, 5)), workers)
    found = sorted(kv for _, kept in parts for kv in kept)[:_VIOLATION_CAP]
    return SuiteResult(name, sum(n for n, _ in parts), [v for _, v in found], params)


def verify_suite(
    name: str,
    *,
    ds=None,
    ts=None,
    p_max: int = 100_000,
    oracle_bound: int = ORACLE_BOUND,
    table: dict[int, CurveModel] | None = None,
    workers: int = 1,
) -> SuiteResult:
    """Run one exact per-prime suite; see SUITES for the tokens.

    Only the twist and quadratic suites take discriminants; every other suite
    fixes its own d, odd-factor and two-factor take no twists, and only
    trace-oracle reads ``oracle_bound``.  Passing what a suite cannot honour
    raises ValueError instead of being ignored, and so do an empty ds or ts, a
    negative bound, p_max > 2**32 (the engine's limit), a case's curve that
    ``CurveSpec`` refuses and a range that could need a naive count past
    ``curves._NAIVE_LIMIT`` (twist counts every good p < p_max, trace-oracle the
    split p <= oracle_bound).
    ``workers`` is ``scan_batch``'s: the result does not depend on it.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {sorted(SUITES)}")
    if oracle_bound < 0:
        raise ValueError(f"oracle_bound must be non-negative, got {oracle_bound}")
    if name != "trace-oracle" and oracle_bound != ORACLE_BOUND:
        raise ValueError(f"suite {name!r} takes no oracle bound; only trace-oracle reads one")
    naive_max = {"twist": p_max - 1, "trace-oracle": min(oracle_bound, p_max - 1)}.get(name, 0)
    if naive_max > _NAIVE_LIMIT:
        raise ValueError(
            f"suite {name!r} would count points naively up to p = {naive_max}, "
            f"past the int64-safe limit {_NAIVE_LIMIT}"
        )
    check, default_ds, default_ts = SUITES[name]
    if ds is not None and len(default_ds) == 1:
        with_ds = tuple(n for n, suite in SUITES.items() if len(suite[1]) > 1)
        raise ValueError(f"suite {name!r} fixes its own discriminant; only {with_ds} take one")
    if ts is not None and default_ts is None:
        raise ValueError(f"suite {name!r} takes no twist parameter")
    for key, given in (("ds", ds), ("ts", ts)):
        if given is not None and len(given) == 0:
            raise ValueError(f"{key} is empty; pass None for the {name} suite's defaults")
    if ds and not set(ds) <= set(default_ds):
        raise ValueError(f"{name} suite covers the discriminants {default_ds}, got {ds}")
    ds, ts = ds or default_ds, tuple(Fraction(t) for t in ts or default_ts or ())
    params = {"ds": list(ds)} if len(default_ds) > 1 else {}
    if default_ts:
        params["ts"] = [str(t) for t in ts]
    params["p_max"] = p_max
    if name == "trace-oracle":
        params["oracle_bound"] = oracle_bound
        check = partial(check, oracle_bound=oracle_bound)
    if name == "cubic":
        params["convention"] = PRIMARY_CONVENTION
    specs = [CurveSpec(d, t, table and table[d]) for d in ds for t in ts]
    return _run_suite(name, check, specs, params, p_max, workers)
