"""Command-line front end: verification suites, density scans, scaling checks.

Three subcommands over the same engine:

* ``verify``     — exact per-prime suites (JSON report; exit 1 on violations)
* ``density``    — conditioned order-density scan vs closed-form tables
* ``conjecture`` — the scaling law, m-scan vs rescaled m'-scan (one pass)

A config file (plain ``key = value`` lines, ``#`` comments) can carry any
flag's value; explicit flags win.  Exit codes: 0 all checks pass, 1
violations, failed verdicts, or nothing checked (a suite with no checks, a
scan over an empty eligible set), 2 usage/config errors and flags a command
cannot honour.  Reports are pure functions of the run configuration: the
worker count changes wall time, never bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .curves import DISCRIMINANTS, load_curve_table
from .density import (
    ORACLE_BOUND,
    SUITES,
    base_meta,
    conjecture_report,
    density_report,
    verify_suite,
)
from .prime_sets import SetExprError, parse_set
from .primes import parse_rational


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    d: int | None = None
    t: Fraction | None = None
    m: int | None = None
    n: int | None = None
    set_expr_text: str | None = None
    p_max: int = 100_000
    oracle_bound: int | None = None
    workers: int | None = None
    out_format: str = "csv"
    out_path: str | None = None
    curve_table: str | None = None
    suite: str | None = None

    def __post_init__(self) -> None:
        if self.p_max < 5:
            raise UsageError(f"--pmax must be at least 5, got {self.p_max}")
        if self.workers is not None and self.workers < 1:
            raise UsageError(f"--workers must be positive, got {self.workers}")
        if self.out_format not in ("csv", "json"):
            raise UsageError(f"--format must be csv or json, got {self.out_format!r}")
        if self.d is not None and self.d not in DISCRIMINANTS:
            raise UsageError(f"--d must be one of {DISCRIMINANTS}, got {self.d}")
        if self.t is not None and self.t == 0:
            raise UsageError("--t must be nonzero")


_CONFIG_KEYS = {
    "d": int,
    "t": str,
    "m": int,
    "n": int,
    "set": str,
    "pmax": int,
    "oracle-bound": int,
    "workers": int,
    "format": str,
    "out": str,
    "curve-table": str,
    "suite": str,
}


def read_config_file(path: str) -> dict:
    """Parse a ``key = value`` file into flag-value strings."""
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read config file {path}: {e}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r} (known: {sorted(_CONFIG_KEYS)})")
        out[key] = value
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmresidues",
        description="Power-residue classes of CM Frobenius traces: "
        "exact per-prime verification and conditioned density scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--d", type=int, default=None, help="field discriminant (one of the nine)")
        p.add_argument("--t", type=str, default=None, help="twist parameter, rational like 3 or -1/2")
        p.add_argument("--m", type=int, default=None, help="power-residue symbol modulus")
        p.add_argument("--n", type=int, default=None, help="restrict to one symbol order n | m")
        p.add_argument("--set", dest="set_expr", type=str, default=None,
                       help="conditioning set expression, e.g. 'mod(8;1,5) & symord(2;3;2)'")
        p.add_argument("--pmax", type=int, default=None, help="scan primes p < pmax")
        p.add_argument("--workers", type=int, default=None, help="parallel scan processes")
        p.add_argument("--format", choices=("csv", "json"), default=None, help="report format")
        p.add_argument("--out", type=str, default=None, help="write report here instead of stdout")
        p.add_argument("--curve-table", type=str, default=None,
                       help="alternate Weierstrass model table (curves.txt format)")
        p.add_argument("--config", type=str, default=None, help="key = value defaults file")

    pv = sub.add_parser("verify", help="run an exact per-prime identity suite")
    pv.add_argument("--suite", type=str, default=None,
                    help=f"suite name, one of {', '.join(sorted(SUITES))}")
    pv.add_argument("--oracle-bound", type=int, default=None,
                    help="trace-oracle suite: compare traces with naive counts for p <= this bound")
    common(pv)
    pd = sub.add_parser("density", help="order densities of the m-class over a conditioned set")
    common(pd)
    pc = sub.add_parser("conjecture", help="scaling-law check: m-scan vs rescaled gcd(m,w)-scan")
    common(pc)
    return parser


# keys only one side uses: verify runs no scan, the scans run no suite
_SCAN_ONLY = ("m", "n", "set", "workers")
_VERIFY_ONLY = ("suite", "oracle-bound")


def _merge(args: argparse.Namespace) -> RunConfig:
    file_values = read_config_file(args.config) if args.config else {}
    unused = _SCAN_ONLY if args.command == "verify" else _VERIFY_ONLY
    for key in unused:
        if key in file_values:
            raise UsageError(f"{args.command} does not take config key {key!r}")

    def pick(flag: str, attr: str, default=None):
        v = getattr(args, attr, None)
        if v is not None:
            return v
        if flag in file_values:
            return _CONFIG_KEYS[flag](file_values[flag])
        return default

    t_text = pick("t", "t")
    try:
        t = parse_rational(t_text) if t_text is not None else None
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad --t value {t_text!r}: {e}") from None
    return RunConfig(
        command=args.command,
        d=pick("d", "d"),
        t=t,
        m=pick("m", "m"),
        n=pick("n", "n"),
        set_expr_text=pick("set", "set_expr"),
        p_max=pick("pmax", "pmax", 100_000),
        oracle_bound=pick("oracle-bound", "oracle_bound"),
        workers=pick("workers", "workers"),
        out_format=pick("format", "format", "csv"),
        out_path=pick("out", "out"),
        curve_table=pick("curve-table", "curve_table"),
        suite=pick("suite", "suite"),
    )


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out_path:
        Path(cfg.out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_table(cfg: RunConfig):
    return load_curve_table(cfg.curve_table) if cfg.curve_table else None


def cmd_verify(cfg: RunConfig) -> int:
    if not cfg.suite:
        raise UsageError("verify needs --suite; pick from " + ", ".join(sorted(SUITES)))
    if cfg.suite not in SUITES:
        raise UsageError(f"unknown suite {cfg.suite!r}; pick from " + ", ".join(sorted(SUITES)))
    given = {"--m": cfg.m, "--n": cfg.n, "--set": cfg.set_expr_text, "--workers": cfg.workers}
    unused = [flag for flag, value in given.items() if value is not None]
    if unused:
        raise UsageError(f"verify does not take {', '.join(unused)}: suites run no scan")
    if cfg.oracle_bound is not None and cfg.suite != "trace-oracle":
        raise UsageError(f"suite {cfg.suite!r} takes no oracle bound; only trace-oracle reads --oracle-bound")
    res = verify_suite(
        cfg.suite,
        ds=[cfg.d] if cfg.d is not None else None,
        ts=[cfg.t] if cfg.t is not None else None,
        p_max=cfg.p_max,
        oracle_bound=ORACLE_BOUND if cfg.oracle_bound is None else cfg.oracle_bound,
        table=_load_table(cfg),
    )
    payload = {
        "meta": base_meta(cfg.p_max),
        "suite": res.suite,
        "params": res.params,
        "checked": res.checked,
        "ok": res.ok(),
        "violations": res.violations,
    }
    _emit(json.dumps(payload, indent=2) + "\n", cfg)
    return 0 if res.ok() else 1


def _parsed_set(cfg: RunConfig):
    if cfg.set_expr_text is None:
        return None
    return parse_set(cfg.set_expr_text)


def _cmd_scan(cfg: RunConfig, make_report) -> int:
    if cfg.d is None or cfg.m is None:
        raise UsageError(f"{cfg.command} needs --d and --m")
    if cfg.n is not None and (cfg.n < 1 or cfg.m % cfg.n):
        raise UsageError(f"--n {cfg.n} does not divide --m {cfg.m}")
    report = make_report(
        cfg.d,
        cfg.t if cfg.t is not None else Fraction(1),
        cfg.m,
        set_expr=_parsed_set(cfg),
        orders=[cfg.n] if cfg.n is not None else None,
        p_max=cfg.p_max,
        workers=cfg.workers or 1,
        table=_load_table(cfg),
    )
    _emit(report.to_csv() if cfg.out_format == "csv" else report.to_json(), cfg)
    return 0 if report.all_pass() else 1


def cmd_density(cfg: RunConfig) -> int:
    return _cmd_scan(cfg, density_report)


def cmd_conjecture(cfg: RunConfig) -> int:
    return _cmd_scan(cfg, conjecture_report)


_DISPATCH = {"verify": cmd_verify, "density": cmd_density, "conjecture": cmd_conjecture}


def _glue_negative_t(argv: list[str]) -> list[str]:
    """``--t -1/2`` as ``--t=-1/2``: argparse takes a value that starts with
    '-' and is not a plain number for a flag."""
    out = []
    for arg in argv:
        if out and out[-1] == "--t" and re.match(r"-[\d.]", arg):
            out[-1] = f"--t={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_glue_negative_t(sys.argv[1:] if argv is None else list(argv)))
    try:
        cfg = _merge(args)
        return _DISPATCH[args.command](cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SetExprError as e:
        print(f"error: bad set expression: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
