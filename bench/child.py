"""One workload process: set up from a cold interpreter, say ready, run, report.

Usage: python3 bench/child.py MODE PLAN_JSON [first | TRACE_BASE]

The harness (run.py) starts one of these per round so that the package's
caches start cold, as they do for a command-line user.  The first line on
standard output is ``ready``, printed once set-up is done; the harness
times set-up from the start of the process to that line.  The last line is
a JSON object with the results and timings.

Modes:

* ``setup``  -- set up and exit (extra set-up samples);
* ``op``     -- the workload's operations, timed, untraced;
* ``engine`` -- traced run: the scan one engine segment at a time with one
  worker, each segment timed, merged with ``ItemResult.merge``, then
  replayed through the public per-prime functions with a span around every
  call; the report rows; and every suite timed;
* ``pool``   -- traced run: the scan's steps with a pool of two workers;
* ``replay`` -- traced run: the suites replayed call for call through the
  public per-prime functions, with a span around every call.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction
from inspect import signature
from math import lcm
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

# --- set-up: what a command-line user pays before the first call ---------
import sympy  # noqa: E402,F401  (the report's closed forms factor with it)

import cmresidues  # noqa: E402
from cmresidues import (  # noqa: E402
    CurveSpec,
    QuarticCell,
    ScanItem,
    ap,
    ap_naive,
    classify,
    load_curve_table,
    parse_set,
    quartic_cell,
    scan_batch,
    split_prime,
    split_prime_eis,
    verify_suite,
)
from cmresidues.curves import cornacchia, cornacchia_4p  # noqa: E402
from cmresidues.eisenstein import cubic_exponent  # noqa: E402
from cmresidues.density import ItemResult, density_rows, scaling_rows  # noqa: E402
from cmresidues.gaussian import (  # noqa: E402
    closed_form_odd_factor,
    closed_form_trace_symbol,
    closed_form_two,
    quartic_exponent,
)
from cmresidues.prime_sets import And, CongMod, G8, SymOrder, quartic_cell_expr  # noqa: E402
from cmresidues.primes import jacobi, order_dividing, primes_in_range  # noqa: E402

from reference import odd_prime_factors  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import POOL_WORKERS, extra_text, segments  # noqa: E402

load_curve_table()

if not Path(cmresidues.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
    sys.exit(f"cmresidues was imported from {cmresidues.__file__}, not from {ROOT / 'src'}")


# --- shared helpers --------------------------------------------------------


def scan_items(scan: dict) -> list[ScanItem]:
    out = []
    for it in scan["items"]:
        text = extra_text(it["extra"])
        out.append(ScanItem(it["d"], Fraction(it["t"]), tuple(it["moduli"]), parse_set(text) if text else None))
    return out


def dump(results) -> list[dict]:
    return [{"total": r.total, "tallies": {m: dict(c) for m, c in r.tallies.items()}} for r in results]


def report_rows(plan_items: list[dict], results) -> list[list[dict]]:
    out = []
    for it, res in zip(plan_items, results):
        kind, m = it["report"]
        rows = density_rows(res, m) if kind == "density" else scaling_rows(res, m)
        out.append(
            [
                {
                    "d": r.d, "t": str(r.t), "m": r.m, "n": r.n, "N": r.N,
                    "predicted": None if r.predicted is None else float(r.predicted),
                    "z": r.z, "verdict": r.verdict,
                }
                for r in rows
            ]
        )
    return out


def run_suite(s: dict):
    return verify_suite(s["name"], ds=s["ds"], ts=s["ts"], p_max=s["p_max"])


def suite_dump(s: dict, res) -> dict:
    return {"name": s["name"], "checked": res.checked, "violations": len(res.violations)}


def usage() -> tuple[float, int]:
    """CPU seconds and peak RSS (KiB) of this process plus its reaped workers."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, me.ru_maxrss + kids.ru_maxrss


def stepped_scan(items, steps, workers):
    """Cumulative scans over the steps, merged; a snapshot after every step."""
    acc, snaps = None, []
    for lo, hi in zip(steps, steps[1:]):
        part = scan_batch(items, hi, p_min=lo, workers=workers)
        if acc is None:
            acc = part
        else:
            for a, b in zip(acc, part):
                a.merge(b)
        snaps.append(dump(acc))
    return acc, snaps


# --- untraced operations ---------------------------------------------------


def mode_op(plan: dict, first_round: bool) -> dict:
    if plan["primary"] == "suites":
        out, total_s, cpu0 = [], 0.0, usage()[0]
        for s in plan["suites"]:
            t0 = time.perf_counter()
            res = run_suite(s)
            total_s += time.perf_counter() - t0
            out.append(suite_dump(s, res))
        cpu, rss = usage()
        return {"op_s": total_s, "cpu_s": cpu - cpu0, "rss_kb": rss, "ops": len(out),
                "results_done": sum(r["checked"] for r in out), "suites": out}

    scan = plan["scan"]
    items = scan_items(scan)
    cpu0 = usage()[0]
    t0 = time.perf_counter()
    acc, snaps = stepped_scan(items, scan["steps"], scan["workers"])
    rows = report_rows(scan["items"], acc)
    op_s = time.perf_counter() - t0
    cpu, rss = usage()
    out = {"op_s": op_s, "cpu_s": cpu - cpu0, "rss_kb": rss, "ops": len(scan["steps"]) - 1,
           "results_done": sum(r.total for r in acc), "snapshots": snaps, "rows": rows}
    # checks' inputs, outside the timed region
    out["prefix"] = dump(scan_batch(items, scan["prefix"]))
    if first_round and (scan["workers"] > 1 or len(scan["steps"]) > 2):
        out["single"] = dump(scan_batch(items, scan["steps"][-1], p_min=scan["steps"][0], workers=1))
    return out


# --- traced run: the engine itself, timed per segment ----------------------


def clear_caches() -> None:
    """Empty every functools cache in the package, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "cmresidues" or name.startswith("cmresidues."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def mode_engine(plan: dict, trace_base: Path) -> dict:
    """Each engine segment timed untraced, then replayed with spans, both from cold caches.

    Timing a segment and replaying it in one process, one right after the
    other, keeps drifts in machine speed out of their difference, which is
    density.loop_us_per_prime.
    """
    tr, scan_tr = Tracer(), Tracer()
    scan = plan["scan"]
    items = scan_items(scan)
    acc = [ItemResult(it, scan["steps"][-1], 0, {m: {} for m in it.moduli}) for it in items]
    replay = Replay(scan_tr)
    totals = [0] * len(items)
    tallies = [{m: {} for m in it.moduli} for it in items]
    ends, snaps, replay_s = set(scan["steps"][1:]), [], 0.0
    for lo, hi in segments(scan["steps"]):
        clear_caches()
        with tr.span("density.scan_batch"):
            part = scan_batch(items, hi, p_min=lo, workers=1)
        for a, b in zip(acc, part):
            with tr.span("density.merge"):
                a.merge(b)
        if hi in ends:
            snaps.append(dump(acc))
        clear_caches()
        t0 = time.perf_counter()
        replay.scan_segment(items, lo, hi, totals, tallies)
        replay_s += time.perf_counter() - t0
    with tr.span("density.report"):
        rows = report_rows(scan["items"], acc)
    clear_caches()
    suites = []
    for s in plan["suites"]:
        with tr.span(f"density.verify_suite.{s['name']}"):
            res = run_suite(s)
        suites.append(suite_dump(s, res))
    tr.write(trace_base.with_name(trace_base.name + "-engine.npz"))
    scan_tr.write(trace_base.with_name(trace_base.name + "-replay-scan.npz"))
    return {
        "spans": tr.summary(),
        "scan_spans": scan_tr.summary(),
        "snapshots": snaps,
        "rows": rows,
        "suites": suites,
        "segments": len(segments(scan["steps"])),
        "prefix": dump(scan_batch(items, scan["prefix"])),
        "replay_final": [{"total": n, "tallies": t} for n, t in zip(totals, tallies)],
        "replay_s": replay_s,
        "primes_sieved": replay.primes_sieved,
        "split_primes": replay.split_primes,
        "ap_primes": {str(d): len(ps) for d, ps in replay.ap_primes.items()},
    }


def mode_pool(plan: dict) -> dict:
    scan = plan["scan"]
    items = scan_items(scan)
    t0 = time.perf_counter()
    _, snaps = stepped_scan(items, scan["steps"], POOL_WORKERS)
    return {"pool_s": time.perf_counter() - t0, "final": snaps[-1]}


# --- traced run: the chain replayed through the public functions ----------

# The suites point-count every trace at p <= oracle_bound (default); the replay mirrors that.
_BOUND = signature(verify_suite).parameters.get("oracle_bound")
ORACLE_BOUND = _BOUND.default if _BOUND is not None else 0


def _order(am: int, m: int, p: int) -> int:
    return order_dividing(pow(am, (p - 1) // m, p), m, p)


def _primes(lo: int, hi: int) -> list[int]:
    return list(primes_in_range(lo, hi))


def _norm_equation(d: int, p: int):
    if d == -3:
        return cornacchia(3, p)
    if d == -8:
        return cornacchia(2, p)
    return cornacchia_4p(d, p)


_ATOM_KIND = {CongMod: "mod", SymOrder: "symord", G8: "g8"}


class Replay:
    """Drives the per-prime chain with a span around every call into a layer."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        self.ap_primes: dict[int, set] = {}  # d -> split primes ap was called at
        ids = tr.id
        self.SIEVE, self.JACOBI, self.ORDER = ids("primes.primes_in_range"), ids("primes.jacobi"), ids("primes.order_dividing")
        self.NAIVE, self.NORM, self.INERT = ids("curves.ap_naive"), ids("curves.cornacchia"), ids("curves.ap.inert")
        self.SPLIT, self.QEXP, self.CLOSED = ids("gaussian.split_prime"), ids("gaussian.quartic_exponent"), ids("gaussian.closed_form")
        self.EIS, self.CEXP = ids("eisenstein.split_prime_eis"), ids("eisenstein.cubic_exponent")
        self.CELL = ids("prime_sets.quartic_cell")
        self.primes_sieved = 0
        self.split_primes = 0

    def primes(self, lo: int, hi: int) -> list[int]:
        ps = self.tr.call(self.SIEVE, _primes, lo, hi)
        self.primes_sieved += len(ps)
        return ps

    def ap(self, spec: CurveSpec, p: int) -> int:
        """ap(spec, p), plus the norm-equation or symbol calls it makes inside, timed apart."""
        t0 = time.perf_counter_ns()
        rec = ap(spec, p)
        t1 = time.perf_counter_ns()
        d = spec.d
        if rec.kind == "supersingular":
            self.tr.record(self.INERT, t0, t1)
            return rec.ap
        self.tr.record(self.tr.id(f"curves.ap.d{d}"), t0, t1)
        seen = self.ap_primes.setdefault(d, set())
        if d == -4:
            pi = self.tr.call(self.SPLIT, split_prime, p)
            self.tr.call(self.QEXP, quartic_exponent, spec.t, pi, p)
        elif p not in seen:
            self.tr.call(self.NORM, _norm_equation, d, p)
        seen.add(p)
        return rec.ap

    def classify(self, p: int, expr) -> bool:
        """classify(p, expr), one span per atom, with the short-circuit of And."""
        if isinstance(expr, And):
            return all(self.classify(p, part) for part in expr.parts)
        kind = _ATOM_KIND[type(expr)]
        return self.tr.call(self.tr.id(f"prime_sets.classify.{kind}"), classify, p, expr)

    # The scan engine's per-prime loop, call for call.
    def scan_segment(self, items, lo, hi, totals, tallies) -> None:
        groups: dict[tuple, list[int]] = {}
        for idx, it in enumerate(items):
            groups.setdefault((it.d, it.t), []).append(idx)
        specs = {key: CurveSpec(*key) for key in groups}
        bad = {key: 2 * key[0] * key[1].numerator * key[1].denominator for key in groups}
        lcms = [lcm(*it.moduli) for it in items]
        tr = self.tr
        with tr.span("bench.segment"):
            for p in self.primes(lo, hi):
                jac: dict[int, int] = {}
                for key, idxs in groups.items():
                    if bad[key] % p == 0:
                        continue
                    d = key[0]
                    jd = jac.get(d)
                    if jd is None:
                        jd = jac[d] = tr.call(self.JACOBI, jacobi, d, p)
                        self.split_primes += jd == 1
                    if jd != 1:
                        continue
                    members = [
                        i for i in idxs
                        if p % lcms[i] == 1 and (items[i].extra is None or self.classify(p, items[i].extra))
                    ]
                    if not members:
                        continue
                    am = self.ap(specs[key], p) % p
                    orders: dict[int, int] = {}
                    for i in members:
                        for m in items[i].moduli:
                            o = orders.get(m)
                            if o is None:
                                o = orders[m] = tr.call(self.ORDER, _order, am, m, p)
                            tallies[i][m][o] = tallies[i][m].get(o, 0) + 1
                        totals[i] += 1

    # The exact suites, call for call; each returns the number of checks made.
    def suite(self, name: str, p_max: int, ds, ts) -> int:
        ts = [Fraction(t) for t in ts] if ts else []
        with self.tr.span(f"bench.suite.{name}"):
            return getattr(self, "_" + name.replace("-", "_"))(p_max, ds, ts)

    def _twist(self, p_max, ds, ts):
        n, call = 0, self.tr.call
        for d in [d for d in ds if d not in (-3, -4)]:
            base = CurveSpec(d, Fraction(1))
            for t in ts:
                spec = CurveSpec(d, t)
                for p in self.primes(5, p_max):
                    if not spec.is_good(p) or not base.is_good(p):
                        continue
                    n += 1
                    call(self.NAIVE, ap_naive, spec, p)
                    if call(self.JACOBI, jacobi, d, p) == 1:
                        call(self.JACOBI, jacobi, spec.t.numerator * spec.t.denominator % p, p)
                        self.ap(base, p)
        return n

    def _trace_oracle(self, p_max, ds, ts):
        n = 0
        for t in ts:
            spec = CurveSpec(-4, t)
            for p in self.primes(5, p_max):
                if not spec.is_good(p):
                    continue
                n += 1
                self.ap(spec, p)
                if p % 4 == 1 and p <= ORACLE_BOUND:
                    self.tr.call(self.NAIVE, ap_naive, spec, p)
        return n

    def _quadratic(self, p_max, ds, ts):
        n, call = 0, self.tr.call
        for d in ds:
            for t in ts:
                spec = CurveSpec(d, t)
                for p in self.primes(5, p_max):
                    if not spec.is_good(p) or call(self.JACOBI, jacobi, d, p) != 1:
                        continue
                    if d == -4 and p % 4 != 1:
                        continue
                    n += 1
                    a = self.ap(spec, p)
                    if (d == -4 and p % 8 != 1) or (d != -4 and p % 4 == 3):
                        call(self.JACOBI, jacobi, spec.t.numerator * spec.t.denominator % p, p)
                    call(self.JACOBI, jacobi, a, p)
        return n

    def _cubic(self, p_max, ds, ts):
        n, call = 0, self.tr.call
        for t in ts:
            spec = CurveSpec(-3, t)
            for p in self.primes(5, p_max):
                if not spec.is_good(p) or p % 3 != 1:
                    continue
                n += 1
                pi = call(self.EIS, split_prime_eis, p)
                a = self.ap(spec, p)
                call(self.CEXP, cubic_exponent, spec.t, pi, p)
                call(self.CEXP, cubic_exponent, a, pi, p)
        return n

    def _sextic_order1(self, p_max, ds, ts):
        n = 0
        for t in ts:
            spec = CurveSpec(-3, t)
            for p in self.primes(5, p_max):
                if not spec.is_good(p) or p % 3 != 1:
                    continue
                n += 1
                self.tr.call(self.ORDER, _order, self.ap(spec, p) % p, 6, p)
        return n

    def _odd_factor(self, p_max, ds, ts):
        n, call = 0, self.tr.call
        for p in self.primes(5, p_max):
            if p % 4 != 1:
                continue
            pi = call(self.SPLIT, split_prime, p)
            for ell in odd_prime_factors(pi.re):
                n += 1
                call(self.QEXP, quartic_exponent, ell, pi, p)
                call(self.CLOSED, closed_form_odd_factor, ell, pi)
        return n

    def _two_factor(self, p_max, ds, ts):
        n, call = 0, self.tr.call
        for p in self.primes(5, p_max):
            if p % 4 != 1:
                continue
            n += 1
            pi = call(self.SPLIT, split_prime, p)
            call(self.QEXP, quartic_exponent, 2, pi, p)
            call(self.CLOSED, closed_form_two, pi)
        return n

    def _trace_symbol(self, p_max, ds, ts):
        n, call = 0, self.tr.call
        specs = [CurveSpec(-4, t) for t in ts]
        for p in self.primes(5, p_max):
            if p % 4 != 1:
                continue
            pi = call(self.SPLIT, split_prime, p)
            for spec in specs:
                if not spec.is_good(p):
                    continue
                n += 1
                a = self.ap(spec, p)
                call(self.CLOSED, closed_form_trace_symbol, pi, spec.t)
                call(self.QEXP, quartic_exponent, a, pi, p)
        return n

    def _nine_cells(self, p_max, ds, ts):
        n, call = 0, self.tr.call
        for t in ts:
            spec = CurveSpec(-4, t)
            exprs = [quartic_cell_expr(cell, t) for cell in QuarticCell]
            for p in self.primes(5, p_max):
                if p % 4 != 1 or not spec.is_good(p):
                    continue
                cell = call(self.CELL, quartic_cell, p, spec.t)
                for expr in exprs:
                    self.classify(p, expr)
                a = self.ap(spec, p)
                pi = call(self.SPLIT, split_prime, p)
                call(self.QEXP, quartic_exponent, a, pi, p)
                n += 2 + (cell.trace_symbol_exp is not None)
        return n


def mode_replay(plan: dict, trace_base: Path) -> dict:
    """The suites replayed with spans, in order, from a cold start like the workload's."""
    tr = Tracer()
    replay = Replay(tr)
    checks = [replay.suite(s["name"], s["p_max"], s["ds"], s["ts"]) for s in plan["suites"]]
    tr.write(trace_base.with_name(trace_base.name + "-replay-suites.npz"))
    return {
        "spans": tr.summary(),
        "checks": checks,
        "primes_sieved": replay.primes_sieved,
        "ap_primes": {str(d): len(ps) for d, ps in replay.ap_primes.items()},
    }


def main() -> int:
    mode, plan = sys.argv[1], json.loads(sys.argv[2])
    arg = sys.argv[3] if len(sys.argv) > 3 else ""  # op: "first" or ""; traced: trace file prefix
    print("ready", flush=True)
    if mode == "setup":
        out = {}
    elif mode == "op":
        out = mode_op(plan, first_round=arg == "first")
    elif mode == "engine":
        out = mode_engine(plan, Path(arg))
    elif mode == "pool":
        out = mode_pool(plan)
    elif mode == "replay":
        out = mode_replay(plan, Path(arg))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
