"""Command-line front end: verification suites, density scans, scaling checks.

Three subcommands over the same engine:

* ``verify``     — exact per-prime suites (JSON report; exit 1 on violations)
* ``density``    — conditioned order-density scan vs closed-form tables
* ``conjecture`` — the scaling law, m-scan vs rescaled m'-scan (one pass)

A config file (plain ``key = value`` lines, ``#`` comments) can carry any
flag's value; explicit flags win.  Exit codes: 0 all checks pass, 1
violations, failed verdicts, or nothing checked (a suite with no checks, a
scan over an empty eligible set), 2 usage/config errors and flags a command
cannot honour.  A scan row that passes on its gap alone while |z| > 4 is
named on stderr; its report and exit code stay.  Reports are pure functions
of the run configuration: the worker count changes wall time, never bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
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


_SCANS = ("density", "conjecture")
_ALL = ("verify",) + _SCANS

# name (the flag without "--", also the config key): type, commands that
# honour it, help; every other command refuses it with exit 2
_OPTIONS = {
    "d": (int, _ALL, "field discriminant (one of the nine)"),
    "t": (parse_rational, _ALL, "twist parameter, rational like 3 or -1/2"),
    "m": (int, _SCANS, "power-residue symbol modulus"),
    "n": (int, _SCANS, "restrict to one symbol order n | m"),
    "set": (str, _SCANS, "conditioning set expression, e.g. 'mod(8;1,5) & symord(2;3;2)'"),
    "pmax": (int, _ALL, "scan primes p < pmax"),
    "oracle-bound": (int, ("verify",),
                     "trace-oracle suite: compare traces with naive counts for p <= this bound"),
    "workers": (int, _ALL,
                "processes for the segments of a scan or suite: the calling one plus WORKERS-1 forked "
                "children, at most one per segment"),
    "format": (str, _ALL, "report format, csv or json (verify writes json)"),
    "out": (str, _ALL, "write report here instead of stdout"),
    "curve-table": (str, _ALL, "alternate Weierstrass model table (curves.txt format)"),
    "suite": (str, ("verify",), f"suite name, one of {', '.join(sorted(SUITES))}"),
}


def _check(cfg: argparse.Namespace) -> None:
    """Refuse the values a run cannot honour, whether given as flags or in the config file."""
    if cfg.pmax < 5:
        raise UsageError(f"--pmax must be at least 5, got {cfg.pmax}")
    if cfg.workers is not None and cfg.workers < 1:
        raise UsageError(f"--workers must be positive, got {cfg.workers}")
    if cfg.format not in (None, "csv", "json"):
        raise UsageError(f"--format must be csv or json, got {cfg.format!r}")
    if cfg.command == "verify" and cfg.format == "csv":
        raise UsageError("verify does not take --format csv: suites write JSON")
    if cfg.d is not None and cfg.d not in DISCRIMINANTS:
        raise UsageError(f"--d must be one of {DISCRIMINANTS}, got {cfg.d}")
    if cfg.t is not None and cfg.t == 0:
        raise UsageError("--t must be nonzero")


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
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r} (known: {sorted(_OPTIONS)})")
        out[key] = value
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmresidues",
        description="Power-residue classes of CM Frobenius traces: "
        "exact per-prime verification and conditioned density scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in _DISPATCH.items():
        p = sub.add_parser(command, help=run.__doc__)
        for name, (_, commands, text) in _OPTIONS.items():
            p.add_argument(f"--{name}", help=text if command in commands else argparse.SUPPRESS)
        p.add_argument("--config", help="key = value defaults file")
    return parser


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    """The run configuration: ``command`` and every ``_OPTIONS`` field, from flags over config
    values, each typed by ``_OPTIONS``, None where neither gives it, except ``pmax``
    (100 000); an option the command does not honour is refused wherever it is given."""
    file_values = read_config_file(args.config) if args.config else {}
    cfg = argparse.Namespace(**{name.replace("-", "_"): None for name in _OPTIONS})
    cfg.command, cfg.pmax = args.command, 100_000
    for name, (kind, commands, _) in _OPTIONS.items():
        field = name.replace("-", "_")
        flag = getattr(args, field)
        if flag is not None:
            text, where, given = flag, "", f"--{name}"
        elif name in file_values:
            text, where, given = file_values[name], f"{args.config}: ", f"config key {name!r}"
        else:
            continue
        if args.command not in commands:
            raise UsageError(f"{where}{args.command} does not take {given}")
        try:
            setattr(cfg, field, kind(text))
        except ValueError as e:
            raise UsageError(f"{where}bad {given} value {text!r}: {e}") from None
    _check(cfg)
    return cfg


def _emit(text: str, cfg: argparse.Namespace) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_table(cfg: argparse.Namespace):
    return load_curve_table(cfg.curve_table) if cfg.curve_table else None


def cmd_verify(cfg: argparse.Namespace) -> int:
    """run an exact per-prime identity suite"""
    if not cfg.suite:
        raise UsageError("verify needs --suite; pick from " + ", ".join(sorted(SUITES)))
    if cfg.oracle_bound is not None and cfg.suite != "trace-oracle":
        raise UsageError(f"suite {cfg.suite!r} takes no oracle bound; only trace-oracle reads --oracle-bound")
    res = verify_suite(
        cfg.suite,
        ds=[cfg.d] if cfg.d is not None else None,
        ts=[cfg.t] if cfg.t is not None else None,
        p_max=cfg.pmax,
        oracle_bound=ORACLE_BOUND if cfg.oracle_bound is None else cfg.oracle_bound,
        table=_load_table(cfg),
        workers=cfg.workers or 1,
    )
    payload = {
        "meta": base_meta(cfg.pmax),
        "suite": res.suite,
        "params": res.params,
        "checked": res.checked,
        "ok": res.ok(),
        "violations": res.violations,
    }
    _emit(json.dumps(payload, indent=2) + "\n", cfg)
    return 0 if res.ok() else 1


def _cmd_scan(cfg: argparse.Namespace, make_report) -> int:
    if cfg.d is None or cfg.m is None:
        raise UsageError(f"{cfg.command} needs --d and --m")
    if cfg.n is not None and (cfg.n < 1 or cfg.m % cfg.n):
        raise UsageError(f"--n {cfg.n} does not divide --m {cfg.m}")
    report = make_report(
        cfg.d,
        cfg.t if cfg.t is not None else Fraction(1),
        cfg.m,
        set_expr=parse_set(cfg.set) if cfg.set is not None else None,
        orders=[cfg.n] if cfg.n is not None else None,
        p_max=cfg.pmax,
        workers=cfg.workers or 1,
        table=_load_table(cfg),
    )
    _emit(report.to_json() if cfg.format == "json" else report.to_csv(), cfg)
    for line in report.gap_only_notes():
        print(line, file=sys.stderr)
    return 0 if report.all_pass() else 1


def cmd_density(cfg: argparse.Namespace) -> int:
    """order densities of the m-class over a conditioned set"""
    return _cmd_scan(cfg, density_report)


def cmd_conjecture(cfg: argparse.Namespace) -> int:
    """scaling-law check: m-scan vs rescaled gcd(m,w)-scan"""
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
