#!/usr/bin/env python3
"""Benchmark of the cmresidues prime-scan chain.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {sweep,octic,verify} --seed N --seconds S --trace {0,1}

Runs whole rounds of the workload, each in a fresh interpreter, until S
seconds have passed (at least one round), checks every round's output
against reference computations made without the package, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones (medians over rounds);
with --trace 1 a round is a traced run and the metrics are per layer.
Span files go to bench/out/.  Exit code 0 when every check passed, 1 when
a check failed or a round crashed, 2 when the package is not there.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 7  # set-up is sampled at least this often per untraced run
LAYERS = ("primes", "curves", "gaussian", "eisenstein", "prime_sets", "density")
AP_FAMILIES = (-3, -4, -7, -8, -11)
# The calls the scan engine makes per prime; the rest of its time is its own loop.
ENGINE_CALLS = ("primes.primes_in_range", "primes.jacobi", "prime_sets.classify.", "curves.ap.d", "primes.order_dividing")


class RoundFailed(Exception):
    pass


def run_child(mode: str, plan: dict, arg: str = "") -> tuple[float, dict]:
    """Start a workload process; return (set-up seconds, its JSON result)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), mode, json.dumps(plan)] + ([arg] if arg else [])
    t0 = time.perf_counter()
    # own process group, so that a kill reaches the pool workers too
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True, start_new_session=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0 or not rest.strip():
        raise RoundFailed(f"{mode} process failed (exit code {proc.returncode})")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def scan_errors(plan: dict, ref: dict, snapshots, rows, where: str) -> list[str]:
    scan = plan["scan"]
    errors = checks.check_scan(scan["items"], snapshots, ref["counts"], where)
    if rows is not None and snapshots:
        errors += checks.check_rows(scan["items"], snapshots[-1], rows, workloads.ANOMALY_ROWS)
    return errors


# --- untraced run ------------------------------------------------------------


def untraced(plan: dict, ref: dict, seconds: float):
    samples = {k: [] for k in ("setup_s", "wall_s", "results_per_s", "cpu_s", "peak_rss_mb")}
    attempted, errors, rounds = 0, [], 0
    t_start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t_start < seconds:
        setup_s, out = run_child("op", plan, "first" if rounds == 0 else "")
        rounds += 1
        attempted += out["ops"]
        samples["setup_s"].append(setup_s)
        samples["wall_s"].append(out["op_s"])
        samples["results_per_s"].append(out["results_done"] / out["op_s"])
        samples["cpu_s"].append(out["cpu_s"])
        samples["peak_rss_mb"].append(out["rss_kb"] / 1024)
        if plan["primary"] == "suites":
            errors += checks.check_suites(out["suites"], ref["checks"], "verify")
            continue
        errors += scan_errors(plan, ref, out["snapshots"], out["rows"], "scan")
        errors += checks.check_prefix(plan["scan"]["items"], out["prefix"], ref["prefix"])
        if "single" in out:
            errors += checks.check_same(out["snapshots"][-1], out["single"],
                                        "merged steps with workers vs one scan with one worker")
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        samples["setup_s"].append(run_child("setup", plan)[0])
    units = {"setup_s": "s", "wall_s": "s", "results_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items()}
    print(f"untraced: {rounds} rounds, wall_s samples {[round(w, 3) for w in samples['wall_s']]}",
          file=sys.stderr)
    return metrics, attempted, errors


# --- traced run --------------------------------------------------------------


def _add(acc: dict, spans: dict) -> None:
    for name, (count, total, own) in spans.items():
        a = acc.setdefault(name, [0, 0, 0])
        a[0] += count
        a[1] += total
        a[2] += own


def traced(plan: dict, ref: dict, seconds: float):
    spans: dict[str, list[int]] = {}  # every span of every traced process
    scan_spans: dict[str, list[int]] = {}  # the scan replay's spans only
    tot = {"pool_s": 0.0, "replay_s": 0.0, "primes": 0, "split": 0, "eligible": 0, "checks": 0, "sieved_all": 0}
    ap_primes = {d: 0 for d in AP_FAMILIES}
    attempted, errors, rounds = 0, [], 0
    t_start = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    while rounds == 0 or time.perf_counter() - t_start < seconds:
        base = str(OUT / f"{plan['workload']}-seed{plan['seed']}")  # each round overwrites the last
        _, eng = run_child("engine", plan, base)
        _, rep = run_child("replay", plan, base)
        _, pool = run_child("pool", plan)
        rounds += 1
        attempted += eng["segments"] + len(plan["suites"])
        errors += scan_errors(plan, ref, eng["snapshots"], eng["rows"], "traced scan")
        errors += checks.check_prefix(plan["scan"]["items"], eng["prefix"], ref["prefix"])
        errors += checks.check_suites(eng["suites"], ref["checks"], "traced suites")
        errors += checks.check_same(eng["snapshots"][-1], pool["final"], "one worker per segment vs two workers")
        errors += checks.check_same(eng["snapshots"][-1], eng["replay_final"],
                                    "engine vs replay through the public functions")
        if rep["checks"] != ref["checks"]:
            errors.append(f"replayed suites made {rep['checks']} checks, reference {ref['checks']}")
        for part in (eng["spans"], eng["scan_spans"], rep["spans"]):
            _add(spans, part)
        _add(scan_spans, eng["scan_spans"])
        tot["pool_s"] += pool["pool_s"]
        tot["replay_s"] += eng["replay_s"]
        tot["primes"] += eng["primes_sieved"]
        tot["split"] += eng["split_primes"]
        tot["eligible"] += sum(r["total"] for r in eng["snapshots"][-1])
        tot["checks"] += sum(s["checked"] for s in eng["suites"])
        tot["sieved_all"] += eng["primes_sieved"] + rep["primes_sieved"]
        for d in AP_FAMILIES:
            ap_primes[d] += eng["ap_primes"].get(str(d), 0) + rep["ap_primes"].get(str(d), 0)
    metrics = layer_metrics(plan, spans, scan_spans, tot, ap_primes, rounds)
    engine_s = spans["density.scan_batch"][1] / 1e9
    covered = sum(v[1] for k, v in scan_spans.items() if k.startswith(ENGINE_CALLS)) / 1e9
    print(f"traced: {rounds} rounds; scan replay {tot['replay_s']:.3f} s vs engine {engine_s:.3f} s "
          f"(ratio {tot['replay_s'] / engine_s:.3f}); engine-call spans cover {covered:.3f} s",
          file=sys.stderr)
    return metrics, attempted, errors


def layer_metrics(plan, spans, scan_spans, tot, ap_primes, rounds) -> dict:
    def total(name: str) -> float:
        return spans.get(name, (0, 0, 0))[1]

    def mean(name: str) -> float:
        count = spans.get(name, (0, 0, 0))[0]
        return total(name) / count if count else 0.0

    m: dict[str, tuple[float, str]] = {
        "primes.sieve_us": (total("primes.primes_in_range") / tot["sieved_all"] / 1e3, "us"),
        "primes.jacobi_us": (mean("primes.jacobi") / 1e3, "us"),
        "primes.order_us": (mean("primes.order_dividing") / 1e3, "us"),
    }
    for d in AP_FAMILIES:
        m[f"curves.ap_us.d{d}"] = (total(f"curves.ap.d{d}") / max(ap_primes[d], 1) / 1e3, "us")
    m["curves.cornacchia_us"] = (mean("curves.cornacchia") / 1e3, "us")
    m["curves.ap_naive_us"] = (mean("curves.ap_naive") / 1e3, "us")
    m["gaussian.split_prime_us"] = (mean("gaussian.split_prime") / 1e3, "us")
    m["gaussian.quartic_exponent_us"] = (mean("gaussian.quartic_exponent") / 1e3, "us")
    m["eisenstein.split_prime_eis_us"] = (mean("eisenstein.split_prime_eis") / 1e3, "us")
    m["eisenstein.cubic_exponent_us"] = (mean("eisenstein.cubic_exponent") / 1e3, "us")
    for kind in ("mod", "symord", "g8"):
        m[f"prime_sets.classify_us.{kind}"] = (mean(f"prime_sets.classify.{kind}") / 1e3, "us")
    engine_ns = total("density.scan_batch")
    calls_ns = sum(v[1] for k, v in scan_spans.items() if k.startswith(ENGINE_CALLS))
    m["density.segment_s"] = (mean("density.scan_batch") / 1e9, "s")
    m["density.loop_us_per_prime"] = ((engine_ns - calls_ns) / max(tot["primes"], 1) / 1e3, "us")
    m["density.parallel_speedup"] = (engine_ns / 1e9 / tot["pool_s"], "ratio")
    m["density.merge_ms"] = (mean("density.merge") / 1e6, "ms")
    m["density.report_ms"] = (mean("density.report") / 1e6, "ms")
    for s in plan["suites"]:
        m[f"density.suite_s.{s['name']}"] = (mean(f"density.verify_suite.{s['name']}") / 1e9, "s")
    m["density.primes_sieved"] = (tot["primes"] // rounds, "count")
    m["density.split_primes"] = (tot["split"] // rounds, "count")
    m["density.eligible_tallies"] = (tot["eligible"] // rounds, "count")
    m["density.suite_checks"] = (tot["checks"] // rounds, "count")
    m["density.eligible_per_sieved"] = (tot["eligible"] / max(tot["primes"], 1), "ratio")
    for layer in LAYERS:
        own = sum(v[2] for k, v in spans.items() if k.split(".", 1)[0] == layer)
        m[f"{layer}.self_s"] = (own / rounds / 1e9, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# --- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated harness unwinds, and so stops the workload process it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "cmresidues" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'cmresidues'}; run from a checkout", file=sys.stderr)
        return 2

    plan = workloads.make_plan(args.workload, args.seed)
    ref = reference.compute(plan, ROOT, with_probe=bool(args.trace))
    try:
        if args.trace:
            metrics, attempted, errors = traced(plan, ref, args.seconds)
        else:
            metrics, attempted, errors = untraced(plan, ref, args.seconds)
        failed = 0
    except RoundFailed as exc:
        metrics, attempted, failed, errors = {}, 1, 1, [str(exc)]
    for e in errors[:50]:
        print(f"check failed: {e}", file=sys.stderr)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
