"""Reference computations made without the package.

Nothing here imports cmresidues.  The sieve is a plain Eratosthenes sieve,
the split test is Euler's criterion, the traces are naive point counts and
the orders are found by trial exponentiation, so a fault in the package's
sieve, ``jacobi``, ``ap`` or ``order_dividing`` cannot hide behind the same
fault here.  The only thing read from the package is its curve table
(``data/curves.txt``), which is input data, not computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from pathlib import Path

import numpy as np

def sieve(n: int) -> np.ndarray:
    """All primes < n."""
    if n < 3:
        return np.zeros(0, dtype=np.int64)
    is_p = np.ones(n, dtype=bool)
    is_p[:2] = False
    for q in range(2, isqrt(n - 1) + 1):
        if is_p[q]:
            is_p[q * q :: q] = False
    return np.flatnonzero(is_p).astype(np.int64)


def splits(d: int, p: int) -> bool:
    """Euler's criterion: d is a nonzero square mod the odd prime p."""
    return pow(d % p, (p - 1) // 2, p) == 1


def is_good(d: int, t: Fraction, p: int) -> bool:
    """E_t has good reduction at the odd prime p: p does not divide 2·d·num(t)·den(t)."""
    return (2 * d * t.numerator * t.denominator) % p != 0


def divisors(m: int) -> list[int]:
    return [n for n in range(1, m + 1) if m % n == 0]


def order_in(x: int, m: int, p: int) -> int:
    """Least n | m with x^n = 1 mod p."""
    for n in divisors(m):
        if pow(x, n, p) == 1:
            return n
    raise ValueError(f"order of {x} mod {p} does not divide {m}")


def _eligible(item: dict, t: Fraction, p: int) -> bool:
    d = item["d"]
    if not is_good(d, t, p) or not splits(d, p):
        return False
    extra = item["extra"]
    return extra is None or p % extra[0] in extra[1]


def eligible_counts(items: list[dict], steps: list[int]) -> list[list[int]]:
    """Per item, the number of eligible primes in [steps[0], h) for every h in steps[1:].

    Eligible: good for E_t, split in Q(sqrt d), 1 modulo every modulus, and
    in the item's congruence condition.
    """
    primes = sieve(steps[-1])
    primes = primes[primes >= steps[0]]
    out = []
    for item in items:
        t = Fraction(item["t"])
        cand = primes[primes % lcm(*item["moduli"]) == 1]  # congruence first: cheap
        keep = np.array([_eligible(item, t, int(p)) for p in cand], dtype=bool)
        hits = cand[keep] if len(cand) else cand
        out.append([int(np.searchsorted(hits, h)) for h in steps[1:]])
    return out


# ---------------------------------------------------------------------------
# Naive traces


def curve_table(root: Path) -> dict[int, tuple[int, ...]]:
    """Rows ``d a1 a2 a3 a4 a6`` of the package's model table."""
    table = {}
    for line in (root / "src/cmresidues/data/curves.txt").read_text().splitlines():
        fields = line.split("#", 1)[0].split()
        if fields:
            d, *coeffs = map(int, fields)
            table[d] = tuple(coeffs)
    return table


@lru_cache(maxsize=None)
def _chi(p: int) -> np.ndarray:
    """Quadratic character mod p as an int64 table (0 at 0)."""
    x = np.arange(p, dtype=np.int64)
    chi = -np.ones(p, dtype=np.int64)
    chi[x * x % p] = 1
    chi[0] = 0
    return chi


def naive_trace(d: int, t: Fraction, p: int, table: dict[int, tuple[int, ...]]) -> int:
    """a_p(E_t) = -sum over x of chi(f(x)), where y^2 = f(x) is a model of E_t over F_p.

    The families: d = -4: y^2 = x^3 - t x; d = -3: y^2 = x^3 + 16 t; d = -7:
    the table model twisted by -t; other d: the table model twisted by t.
    A model y^2 + a1 xy + a3 y = x^3 + ... is counted through
    (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6.
    """
    tm = t.numerator % p * pow(t.denominator, -1, p) % p
    x = np.arange(p, dtype=np.int64)
    x2 = x * x % p
    x3 = x2 * x % p
    if d == -4:
        f = (x3 - tm * x) % p
    elif d == -3:
        f = (x3 + 16 * tm) % p
    else:
        a1, a2, a3, a4, a6 = table[d]
        b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
        s = -tm % p if d == -7 else tm
        c3, c2, c1, c0 = (4 * s) % p, (b2 * s) % p, (2 * b4 * s) % p, (b6 * s) % p
        f = (c3 * x3 + c2 * x2 + c1 * x + c0) % p
    return -int(_chi(p)[f].sum())


def naive_tallies(items: list[dict], p_max: int, table) -> list[dict]:
    """Per item: eligible total and order tallies below p_max, from naive traces."""
    primes = [int(p) for p in sieve(p_max) if p >= 5]
    traces: dict[tuple, int] = {}
    out = []
    for item in items:
        d, t = item["d"], Fraction(item["t"])
        total, tallies = 0, {m: {} for m in item["moduli"]}
        for p in primes:
            if p % lcm(*item["moduli"]) != 1 or not _eligible(item, t, p):
                continue
            key = (d, t, p)
            if key not in traces:
                traces[key] = naive_trace(d, t, p, table)
            a = traces[key] % p
            for m in item["moduli"]:
                n = order_in(pow(a, (p - 1) // m, p), m, p)
                tallies[m][n] = tallies[m].get(n, 0) + 1
            total += 1
        out.append({"total": total, "tallies": tallies})
    return out


# ---------------------------------------------------------------------------
# Check counts of the exact suites


def _odd_parts(limit: int) -> dict[int, int]:
    """p -> |a| for every prime p = a^2 + b^2 < limit with a odd (a is unique)."""
    r = isqrt(limit) + 1
    a = np.arange(1, r, 2, dtype=np.int64)
    b = np.arange(2, r, 2, dtype=np.int64)
    s = a[:, None] ** 2 + b[None, :] ** 2
    ia, _ = np.nonzero(s < limit)
    sums = s[s < limit]
    return dict(zip(sums.tolist(), a[ia].tolist()))


def odd_prime_factors(n: int) -> list[int]:
    """The distinct odd primes dividing n, by trial division."""
    n, out, f = abs(n), [], 3
    while n % 2 == 0:
        n //= 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 2
    return out + ([n] if n > 1 else [])


def suite_checks(name: str, p_max: int, ds, ts) -> int:
    """The number of checks the suite makes over primes 5 <= p < p_max.

    Derived from the suite's definition, not from running it:
    trace-oracle, one per good p and twist; quadratic, one per good split p;
    cubic and sextic-order1, one per good p = 1 mod 3; odd-factor, one per
    odd prime factor of the odd part a of p = a^2 + b^2; two-factor, one per
    p = 1 mod 4; trace-symbol, one per good p = 1 mod 4 and twist;
    nine-cells, membership and order at every good p = 1 mod 4 plus the
    pinned value when p = 1 mod 8; twist, one per p good for E_t and E_1.
    """
    primes = [int(p) for p in sieve(p_max) if p >= 5]
    ts = [Fraction(t) for t in ts] if ts else []
    if name == "trace-oracle":
        return sum(is_good(-4, t, p) for t in ts for p in primes)
    if name == "quadratic":
        return sum(is_good(d, t, p) and splits(d, p) for d in ds for t in ts for p in primes)
    if name in ("cubic", "sextic-order1"):
        return sum(is_good(-3, t, p) and p % 3 == 1 for t in ts for p in primes)
    if name == "odd-factor":
        odd = _odd_parts(p_max)
        return sum(len(odd_prime_factors(odd[p])) for p in primes if p % 4 == 1)
    if name == "two-factor":
        return sum(p % 4 == 1 for p in primes)
    if name == "trace-symbol":
        return sum(p % 4 == 1 and is_good(-4, t, p) for t in ts for p in primes)
    if name == "nine-cells":
        return sum(
            2 + (p % 8 == 1) for t in ts for p in primes if p % 4 == 1 and is_good(-4, t, p)
        )
    if name == "twist":
        one = Fraction(1)
        return sum(
            is_good(d, t, p) and is_good(d, one, p)
            for d in ds if d not in (-3, -4) for t in ts for p in primes
        )
    raise ValueError(f"unknown suite {name!r}")


def compute(plan: dict, root: Path, with_probe: bool) -> dict:
    """Everything the checks of one run compare against."""
    scan, out = plan["scan"], {}
    if plan["primary"] == "scan" or with_probe:
        out["counts"] = eligible_counts(scan["items"], scan["steps"])
        out["prefix"] = naive_tallies(scan["items"], scan["prefix"], curve_table(root))
    if plan["primary"] == "suites" or with_probe:
        out["checks"] = [suite_checks(s["name"], s["p_max"], s["ds"], s["ts"]) for s in plan["suites"]]
    return out
