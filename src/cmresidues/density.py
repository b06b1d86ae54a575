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
byte-identical for any worker count.  The suites walk the same segments,
one ``engine.Segment`` each for all of a suite's cases, and list violations
in case order, then by p, wherever the segments are cut.  Nothing time- or
host-dependent goes into a report.
"""

from __future__ import annotations

import csv
import io
import json
import math
import signal
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd
from multiprocessing import get_context

import numpy as np

from .curves import _NAIVE_LIMIT, CurveModel, CurveSpec, naive_traces, unit_count
from .engine import (
    P_LIMIT,
    Segment,
    isqrt_array,
    legendre_array,
    mod_array,
    pow_array,
    residue_orders,
    set_mask,
    symbol_exponents,
)
from .eisenstein import PRIMARY_CONVENTION
from .gaussian import GaussInt, closed_form_odd_factor, closed_form_trace_symbol, closed_form_two
from .prime_sets import CongMod, QuarticCell, SetExpr, quartic_cell, quartic_cell_expr
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
    t = kfree_reduce(t, 4)
    tp = squarefree_part(t)
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
    k = {-4: 4, -3: 6}.get(d, 2)
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
    label: str = ""

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

    Sieve, norm form and trace run once per (d, t) group, the trace only at
    primes ≡ 1 mod the gcd of its items' lcm(moduli), where every eligible
    set lies; the eligible set of each item is one mask (good, split, ≡ 1
    mod every modulus, in ``extra``), and the orders of all the group's
    moduli take one modular power per prime that some item tallies.
    """
    items, table = plan
    seg = Segment(*bounds)
    groups: dict[CurveSpec, list[int]] = {}
    for idx, it in enumerate(items):
        groups.setdefault(CurveSpec(it.d, it.t), []).append(idx)
    totals = [0] * len(items)
    tallies: list[dict[int, dict[int, int]]] = [{} for _ in items]
    for spec, idxs in groups.items():
        group = [items[i] for i in idxs]
        lcms = [math.lcm(*it.moduli) for it in group]
        ps, a = seg.traces(spec, table, math.gcd(*lcms))
        keeps = [(ps - 1) % L == 0 for L in lcms]
        for keep, it in zip(keeps, group):
            if it.extra is not None:
                keep &= set_mask(it.extra, ps, seg)
        some = np.logical_or.reduce(keeps)
        orders = residue_orders(a[some], ps[some], sorted({m for it in group for m in it.moduli}))
        for i, it, keep in zip(idxs, group, keeps):
            keep = keep[some]
            totals[i] = int(keep.sum())
            for m in it.moduli:
                counts = np.bincount(orders[m][keep], minlength=m + 1).tolist()
                tallies[i][m] = {n: c for n, c in enumerate(counts) if c}
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
    """
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
                    f"scan share {i} of {k} (segments {i}::{k}): its process exited "
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
    engine's residues are uint64, so p_max may be at most 2**32 (ValueError
    otherwise).
    """
    items = tuple(items)
    parts = _map_segments(partial(_scan_chunk, (items, table)), _segments(p_min, p_max), workers)
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


def density_rows(res: ItemResult, m: int, orders=None) -> list[ReportRow]:
    """Closed-form-vs-empirical rows for the m-class of one scan result."""
    item = res.item
    cond_m = _conditioning_modulus(item)
    preds = predict_orders(item.d, item.t, m, cond_m) if cond_m is not None else None
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
    res = run_scan(d, t, m, set_expr, p_max, workers=workers, table=table)
    return Report(density_rows(res, m, orders), base_meta(p_max))


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
    """Check count and the first ``cap`` violations of one suite run.

    Checks arrive as aligned arrays, a segment and a case at a time.  Each
    violation is keyed (case, p, sub) and the kept list is sorted by the key,
    so it reads in case order, then by p, for any segment cut.
    """

    def __init__(self, suite: str, cap: int):
        self.suite, self.cap, self.checked = suite, cap, 0
        self.found: list[tuple[tuple, dict]] = []

    def check(self, case: int, ps: np.ndarray, expected, got, sub: int = 0, show=str) -> None:
        """One check per p in ps: expected[i] == got[i], a scalar standing for every i."""
        expected, got = (np.broadcast_to(np.asarray(v), ps.shape) for v in (expected, got))
        self.checked += len(ps)
        for i in np.flatnonzero(expected != got)[: self.cap].tolist():
            v = {"p": int(ps[i]), "suite": self.suite, "expected": show(expected[i]), "got": show(got[i])}
            self.found.append(((case, v["p"], sub), v))
        self.found.sort(key=lambda kv: kv[0])  # what falls past the first cap stays past it
        del self.found[self.cap :]


_W2_DISCRIMINANTS = (-7, -8, -11, -19, -43, -67, -163)
_QUARTIC_TWISTS = (1, 2, -2, 3, 6, -8)
ORACLE_BOUND = 20_000  # trace-oracle's default: the split p it point-counts

# A suite is a per-segment check fn(seg, rec, ds, ts, oracle_bound, table)
# over all of its (d, t) cases.  The computed side of each identity is read
# from the segment's arrays; the claimed side calls the identity's own
# scalar implementation.


def _naive_by_prime(cases, table) -> list[np.ndarray]:
    """``ap_naive(spec, p, table)`` at every p of each (spec, ps) case, counted prime-major:
    one ``naive_traces`` batch per prime for all the cases that reach it."""
    at: dict[int, list[int]] = {}  # p -> the cases that reach it
    for c, (_, ps) in enumerate(cases):
        for p in ps.tolist():
            at.setdefault(p, []).append(c)
    out = [np.empty(len(ps), dtype=np.int64) for _, ps in cases]
    filled = [0] * len(cases)  # each case's ps ascend, and so do the primes below
    for p in sorted(at):
        for c, a in zip(at[p], naive_traces([cases[c][0] for c in at[p]], p, table).tolist()):
            out[c][filled[c]] = a
            filled[c] += 1
    return out


def _suite_twist(seg, rec, ds, ts, oracle_bound, table):
    """Quadratic twist law: a_p(E_t) = (t/p) · a_p(E_1) for the w=2 families.

    The left side is the naive count (independent of the twist bookkeeping in
    the traces), so this is not a tautology.  Inert primes check a_p(E_t) = 0.
    """
    cases, rhs = [], []
    for d, t in product(ds, ts):
        spec = CurveSpec(d, t)
        ps, a = seg.good_traces(CurveSpec(d), table)
        good = mod_array(spec.bad_product(table), ps) != 0
        cases.append((spec, ps[good]))
        rhs.append(legendre_array(t.numerator * t.denominator, ps[good]) * a[good])
    for c, ((_, ps), expected, naive) in enumerate(zip(cases, rhs, _naive_by_prime(cases, table))):
        rec.check(c, ps, expected, naive)


def _suite_trace_oracle(seg, rec, ds, ts, oracle_bound, table):
    """d = -4 closed-form trace against the naive count, plus structure checks.

    For p <= oracle_bound the trace must equal the point count exactly; for
    every split p it must be even, nonzero, and satisfy the norm equation
    p = (a_p/2)² + b² exactly.  Inert p must give 0.
    """
    specs = [CurveSpec(-4, t) for t in ts]
    traces = [seg.good_traces(spec, table) for spec in specs]
    lows = [(ps % 4 == 1) & (ps <= oracle_bound) for ps, _ in traces]
    naive = _naive_by_prime([(spec, ps[low]) for spec, (ps, _), low in zip(specs, traces, lows)], table)
    for c, ((ps, a), low, counted) in enumerate(zip(traces, lows, naive)):
        split = ps % 4 == 1
        rec.check(c, ps[~split], 0, a[~split])
        rec.check(c, ps[low], counted, a[low])
        q, aq = ps[split & ~low], a[split & ~low]
        rem = q - (np.abs(aq) // 2) ** 2
        square = isqrt_array(np.maximum(rem, 0)) ** 2 == rem
        rec.check(c, q, True, (aq != 0) & (aq % 2 == 0) & (rem > 0) & square)


def _suite_quadratic(seg, rec, ds, ts, oracle_bound, table):
    """The quadratic residue class of a_p at every split prime.

    d ≠ -4: (a_p/p) = (d/p)_4 (Euler) for p ≡ 1 (mod 4) and -(t/p) for
    p ≡ 3 (mod 4).  d = -4: +1 for p ≡ 1 (mod 8) and -(t/p) for p ≡ 5 (mod 8).
    """
    for c, (d, t) in enumerate(product(ds, ts)):
        ps, a = seg.traces(CurveSpec(d, t), table)
        minus_t = -legendre_array(t.numerator * t.denominator, ps)
        if d == -4:
            expected = np.where(ps % 8 == 1, 1, minus_t)
        else:
            quartic_d = pow_array(mod_array(d, ps), (ps - 1) // 4, ps) == 1
            expected = np.where(ps % 4 == 1, np.where(quartic_d, 1, -1), minus_t)
        rec.check(c, ps, expected, np.where(residue_orders(a, ps, (2,))[2] == 1, 1, -1))


def _suite_cubic(seg, rec, ds, ts, oracle_bound, table, convention=PRIMARY_CONVENTION):
    """The cubic residue class of a_p (d = -3) through the mod-9 cells.

    (a_p/π)_3 is trivial for p ≡ 1 (mod 9), and equals (t/π)_3^(±1) on the
    other two cells of split p.
    """
    for c, t in enumerate(ts):
        ps, a = seg.traces(CurveSpec(-3, t), table)
        pa, pb = seg.primary(-3, ps, convention)
        e_t = symbol_exponents(mod_array(t.numerator * t.denominator**2, ps), pa, pb, ps, 3)
        expected = np.where(ps % 9 == 1, 0, np.where(ps % 9 == 4, 2 * e_t % 3, e_t))
        rec.check(c, ps, expected, symbol_exponents(a % ps, pa, pb, ps, 3))


def _sextic_rhs(p: int, tm: int) -> bool:
    if p % 36 in (1, 13, 25):
        quartic_plus = p % 4 == 1 and pow((-3) % p, (p - 1) // 4, p) == 1
        if p % 36 == 1:
            return quartic_plus
        return quartic_plus and pow(tm, (p - 1) // 3, p) == 1
    if p % 36 == 19:
        return jacobi(tm, p) == -1
    # p ≡ 7, 31 (mod 36)
    return pow(tm, (p - 1) // 6, p) == p - 1


def _suite_sextic_order1(seg, rec, ds, ts, oracle_bound, table):
    """Two-sided cell description of {order of the sextic class of a_p = 1}.

    The left side is computed from a_p, the right side from congruence and
    residue conditions on p alone; they must agree prime by prime.
    """
    for c, t in enumerate(ts):
        ps, a = seg.traces(CurveSpec(-3, t), table)
        rhs = [_sextic_rhs(p, reduce_mod(t, p)) for p in ps.tolist()]
        rec.check(c, ps, rhs, residue_orders(a, ps, (6,))[6] == 1)


def _suite_odd_factor(seg, rec, ds, ts, oracle_bound, table):
    """Closed form for (ℓ/π)_4, ℓ an odd prime dividing re(π), vs Euler."""
    ps = seg.form(-4)[0]
    a, b = seg.primary(-4, ps)
    for ell in prime_array(3, int(np.abs(a).max(initial=0)) + 1).tolist():  # ℓ is the sub-key
        k = np.flatnonzero(a % ell == 0)
        q, qa, qb = ps[k], a[k], b[k]
        closed = [closed_form_odd_factor(ell, GaussInt(*pi)).exp for pi in zip(qa.tolist(), qb.tolist())]
        rec.check(0, q, symbol_exponents(np.full(len(q), ell), qa, qb, q, 4), closed, sub=ell)


def _suite_two_factor(seg, rec, ds, ts, oracle_bound, table):
    """Closed form for (2/π)_4 = (-i)^(b/2) vs Euler, all primary π."""
    ps = seg.form(-4)[0]
    a, b = seg.primary(-4, ps)
    closed = [closed_form_two(GaussInt(*ab)).exp for ab in zip(a.tolist(), b.tolist())]
    rec.check(0, ps, symbol_exponents(np.full(len(ps), 2), a, b, ps, 4), closed)


def _suite_trace_symbol(seg, rec, ds, ts, oracle_bound, table):
    """Exponent-level closed form for (a_p/π)_4 in the quartic family."""
    for k, t in enumerate(ts):  # the checks run p by p, then t by t
        ps, a = seg.traces(CurveSpec(-4, t), table)
        pa, pb = seg.primary(-4, ps)
        closed = [closed_form_trace_symbol(GaussInt(*ab), t).exp for ab in zip(pa.tolist(), pb.tolist())]
        rec.check(0, ps, closed, symbol_exponents(a % ps, pa, pb, ps, 4), sub=k)


_CELLS = tuple(QuarticCell)


def _cell_list(bits) -> str:
    """The values of the cells in a bit set, bit k standing for ``_CELLS[k]``."""
    return str([c.value for k, c in enumerate(_CELLS) if int(bits) >> k & 1])


def _suite_nine_cells(seg, rec, ds, ts, oracle_bound, table):
    """The nine-cell partition: membership, predicted order, pinned values.

    Checks that every eligible p lands in exactly the cell its set
    expression describes, that the order of the quartic class of a_p is the
    cell's, and — on the p ≡ 1 (mod 8) cells — that the symbol value itself
    matches.
    """
    for c, t in enumerate(ts):
        ps, a = seg.traces(CurveSpec(-4, t), table)
        cells = [quartic_cell(p, t) for p in ps.tolist()]
        masks = [set_mask(quartic_cell_expr(cell, t), ps, seg) for cell in _CELLS]
        member = sum(mask.astype(np.int64) << k for k, mask in enumerate(masks))
        rec.check(c, ps, [1 << _CELLS.index(cell) for cell in cells], member, show=_cell_list)
        e = symbol_exponents(a % ps, *seg.primary(-4, ps), ps, 4)
        rec.check(c, ps, [cell.trace_symbol_order for cell in cells], np.choose(e, [1, 4, 2, 4]), sub=1)
        exps = np.array([-1 if cell.trace_symbol_exp is None else cell.trace_symbol_exp for cell in cells])
        pinned = exps >= 0
        rec.check(c, ps[pinned], exps[pinned], e[pinned], sub=2)


# name -> (check, default discriminants, default twists); a suite without a
# default fixes its own discriminant, or takes no twist
SUITES = {
    "twist": (_suite_twist, _W2_DISCRIMINANTS, (2, 3, 5)),
    "trace-oracle": (_suite_trace_oracle, None, _QUARTIC_TWISTS),
    "quadratic": (_suite_quadratic, (-3,) + _W2_DISCRIMINANTS + (-4,), (1, 2, 3)),
    "cubic": (_suite_cubic, None, (1, 2, 3)),
    "sextic-order1": (_suite_sextic_order1, None, (2, 3, 5)),
    "odd-factor": (_suite_odd_factor, None, None),
    "two-factor": (_suite_two_factor, None, None),
    "trace-symbol": (_suite_trace_symbol, None, _QUARTIC_TWISTS),
    "nine-cells": (_suite_nine_cells, None, _QUARTIC_TWISTS),
}


def _run_suite(name: str, check, args: tuple, params: dict, p_max: int, cap: int) -> SuiteResult:
    """Walk the segments of [5, p_max), one Segment each for all of the suite's cases."""
    rec = _Recorder(name, cap)
    for bounds in _segments(5, max(p_max, 5)):
        check(Segment(*bounds), rec, *args)
    return SuiteResult(name, rec.checked, [v for _, v in rec.found], params)


def verify_suite(
    name: str,
    *,
    ds=None,
    ts=None,
    p_max: int = 100_000,
    oracle_bound: int = ORACLE_BOUND,
    table: dict[int, CurveModel] | None = None,
    max_violations: int = _VIOLATION_CAP,
) -> SuiteResult:
    """Run one exact per-prime suite; see SUITES for the tokens.

    Only the twist and quadratic suites take discriminants; every other suite
    fixes its own d, odd-factor and two-factor take no twists, and only
    trace-oracle reads ``oracle_bound``.  Passing what a suite cannot honour
    raises ValueError instead of being ignored, and so do a negative bound,
    p_max > 2**32 (the engine's limit) and a range that could need a naive
    count past ``curves._NAIVE_LIMIT``: twist counts every good p < p_max,
    trace-oracle the split p <= oracle_bound.
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
    if ds is not None and default_ds is None:
        with_ds = tuple(n for n, suite in SUITES.items() if suite[1])
        raise ValueError(f"suite {name!r} fixes its own discriminant; only {with_ds} take one")
    if ts is not None and default_ts is None:
        raise ValueError(f"suite {name!r} takes no twist parameter")
    if ds and not set(ds) <= set(default_ds):
        raise ValueError(f"{name} suite covers the discriminants {default_ds}, got {ds}")
    ds, ts = ds or default_ds, tuple(Fraction(t) for t in ts or default_ts or ())
    params = {"ds": list(ds)} if default_ds else {}
    if default_ts:
        params["ts"] = [str(t) for t in ts]
    params["p_max"] = p_max
    if name == "trace-oracle":
        params["oracle_bound"] = oracle_bound
    if name == "cubic":
        params["convention"] = PRIMARY_CONVENTION
    return _run_suite(name, check, (ds, ts, oracle_bound, table), params, p_max, max_violations)


def calibrate_eisenstein(p_max: int = 10_000, ts=(2, 3, 5), **kwargs) -> dict[str, int]:
    """Violation counts of the cubic law under both primary conventions.

    Both are expected to be zero — the cubic symbol is attached to the ideal,
    not the generator — which is exactly what makes hard-coding
    PRIMARY_CONVENTION safe.  Kept as a harness so the frozen choice stays
    an observable fact rather than an assumption.
    """
    args = (None, tuple(Fraction(t) for t in ts), None, kwargs.get("table"))
    out = {}
    for convention in ("two-mod-three", "one-mod-three"):
        check = partial(_suite_cubic, convention=convention)
        out[convention] = len(_run_suite("cubic", check, args, {}, p_max, _VIOLATION_CAP).violations)
    return out
