#!/usr/bin/env python3
"""Re-derive the orientation of every stored Weierstrass model from scratch.

The nine models in data/curves.txt are only correct up to quadratic twist a
priori: any table source may list the -1-twist of the model this package
needs.  Three facts pin each model exactly, and this script checks all of
them with the *naive* point count only (no trust in the trace pipeline):

1. CM pattern: every inert p (jacobi(d,p) = -1) has a_p = 0, every split p
   has a_p != 0.
2. Norm equation: split p satisfy 4p = a_p^2 + |d| v^2 with v integral.
3. Orientation: at t = 1 the quadratic residue class of a_p at split
   p ≡ 3 (mod 4) is forced (it is -(1/p) = -1); the -1-twist fails this at
   every such prime, so a handful of primes decides the sign.

It then re-derives each family's closed-form trace rule from naive counts.
Every rule has the shape a_p = c_d · χ(p) · u(p), where u(p) is read off the
norm equation and χ(p) is a character value (see ``cmresidues.curves``);
the script computes c_d = a_p / (χ(p)·u(p)) from the naive count at every
split p and every twist, and requires it to be one and the same unit for the
whole family.  A wrong character shows up as a c_d that changes sign.  The
derived c_d are printed, not assumed.

Finally it cross-checks the trace pipeline (``ap``) against the naive count
over twists, including rational t.

Usage: python3 scripts/calibrate_models.py [--pmax 2000] [--twist-pmax 800]
"""

import argparse
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmresidues.curves import DISCRIMINANTS, CurveSpec, ap, ap_naive, cornacchia, cornacchia_4p
from cmresidues.eisenstein import cubic_exponent, split_prime_eis
from cmresidues.gaussian import quartic_exponent, split_prime
from cmresidues.primes import jacobi, primes_in_range


def check_model(d: int, p_max: int) -> tuple[int, int, list[str]]:
    spec = CurveSpec(d, Fraction(1))
    problems = []
    checked = oriented = 0
    for p in primes_in_range(5, p_max):
        if not spec.is_good(p):
            continue
        a = ap_naive(spec, p)
        checked += 1
        if jacobi(d, p) == -1:
            if a != 0:
                problems.append(f"p={p}: inert but a_p={a}")
            continue
        if a == 0:
            problems.append(f"p={p}: split but a_p=0")
            continue
        rem = 4 * p - a * a
        v2, rem_d = divmod(rem, abs(d))
        if rem_d or isqrt(v2) ** 2 != v2:
            problems.append(f"p={p}: 4p - a_p^2 = {rem} not |d| * square")
        if p % 4 == 3:
            oriented += 1
            if jacobi(a, p) != -1:
                problems.append(f"p={p}: orientation fails, (a_p/p) = +1 at t=1")
    return checked, oriented, problems


def rule_without_sign(spec: CurveSpec, p: int) -> int:
    """χ(p)·u(p): the family's closed-form trace at split p, before the unit c_d."""
    d, t = spec.d, spec.t
    if d == -4:
        pi = split_prime(p)
        return (2 * pi.re, 2 * pi.im, -2 * pi.re, -2 * pi.im)[quartic_exponent(t, pi, p)]
    if d == -3:
        pi = split_prime_eis(p)
        for _ in range(cubic_exponent(t, pi, p)):
            pi = pi.times_omega()
        return jacobi(t.numerator * t.denominator, p) * (2 * pi.a - pi.b)
    s = -t if d == -7 else t
    chi = jacobi(s.numerator * s.denominator, p)
    if d == -8:
        x, y = cornacchia(2, p)
        return chi * jacobi(-2, x) * (-1 if y % 4 == 2 else 1) * 2 * x
    u, _v = cornacchia_4p(d, p)
    return chi * jacobi(u, -d) * u


def derive_rule_unit(d: int, p_max: int, ts) -> tuple[int, set[int], list[str]]:
    """The units a_p / (χ(p)·u(p)) seen over all split p and twists."""
    units: set[int] = set()
    problems = []
    checked = 0
    for t in ts:
        spec = CurveSpec(d, Fraction(t))
        for p in primes_in_range(5, p_max):
            if not spec.is_good(p) or jacobi(d, p) != 1:
                continue
            a, r = ap_naive(spec, p), rule_without_sign(spec, p)
            checked += 1
            if a not in (r, -r):
                problems.append(f"t={t} p={p}: naive {a} is not ±{r}")
                continue
            units.add(a // r)
    if len(units) > 1:
        problems.append(f"the rule's unit is not constant: both signs occur ({checked} primes)")
    return checked, units, problems


def check_pipeline(d: int, p_max: int, ts) -> tuple[int, list[str]]:
    problems = []
    checked = 0
    for t in ts:
        spec = CurveSpec(d, Fraction(t))
        for p in primes_in_range(3, p_max):
            if not spec.is_good(p):
                continue
            got = ap(spec, p).ap
            want = ap_naive(spec, p)
            checked += 1
            if got != want:
                problems.append(f"t={t} p={p}: pipeline {got} != naive {want}")
    return checked, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pmax", type=int, default=2000, help="orientation check range")
    parser.add_argument("--twist-pmax", type=int, default=800,
                        help="range of the rule derivation and the pipeline-vs-naive check")
    args = parser.parse_args(argv)

    ts = (1, 2, -2, 3, 5, Fraction(1, 2), Fraction(-3, 4))
    bad = 0
    for d in DISCRIMINANTS:
        checked, oriented, problems = check_model(d, args.pmax)
        rc, units, p2 = derive_rule_unit(d, args.twist_pmax, ts)
        pc, p3 = check_pipeline(d, args.twist_pmax, ts)
        problems += p2 + p3
        status = "ok" if not problems else "FAIL"
        unit = "/".join(f"{c:+d}" for c in sorted(units)) or "none"
        print(
            f"d={d:5d}: naive CM/norm/orientation on {checked} primes "
            f"({oriented} orientation-pinning), rule unit c_d = {unit} on {rc} "
            f"split (p,t) pairs, pipeline vs naive on {pc} (p,t) pairs ... {status}"
        )
        for line in problems[:10]:
            print(f"    {line}")
        bad += bool(problems)
    if bad:
        print(f"{bad} model(s) failed calibration")
        return 1
    print("all nine models calibrated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
