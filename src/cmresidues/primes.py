"""Prime streams and elementary modular arithmetic.

Everything downstream takes primes in bulk, so the one sieve is a numpy
segmented sieve over odd integers (``prime_array``, one byte per odd
integer of a segment); ``primes_in_range`` streams its output.  The
number-theoretic helpers here are deliberately hand-rolled: ``jacobi`` and
``sqrt_mod`` sit on the hot path of every per-prime computation and must
cost microseconds, not library-call overhead.
Factorisation (``_factorint``: twist parameters, moduli and their divisors,
Euler phi) trial-divides by the sieve's own primes below 10⁶ (``_trial_divide``,
which also splits the engine's character arguments of any size).  Whatever
is left has no prime factor below 10⁶, so below 10¹⁸ it is 1, q, q² or q·r,
and ``isqrt`` and ``is_prime`` tell these apart; past that, only a cofactor that
``is_prime`` passes, or the square of one, is factored, and any other raises ValueError.

Conventions used throughout the package:

* ``jacobi(a, n)`` is the Kronecker--Jacobi symbol for odd n > 0.
* ``sqrt_mod(a, p)`` returns the *smaller* of the two square roots, and the
  Tonelli--Shanks non-residue is the smallest one — both choices are part of
  the determinism contract (same inputs, same bits, any worker layout).
* ``kfree_reduce(t, k)`` maps a nonzero rational to the canonical k-th-power-free
  integer representing it modulo (Q^x)^k; for odd k the sign is absorbed
  (-1 is a k-th power), for even k it is preserved.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

Rational = Fraction

_SIEVE_CHUNK = 1 << 20


def prime_array(lo: int, hi: int) -> np.ndarray:
    """Primes p with lo <= p < hi, increasing, as an int64 array.

    One segmented-sieve pass over the odd integers of the range; each sieving
    prime clears its multiples with one strided slice assignment, so the
    python-level cost is one loop over the primes up to sqrt(hi).
    """
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    start = lo | 1  # first odd >= lo
    mask = np.ones((hi - start + 1) // 2, dtype=bool)  # odds in [start, hi)
    for p in prime_array(3, isqrt(hi - 1) + 1).tolist():  # the odd sieving primes
        first = max(p * p, ((start + p - 1) // p) * p)
        if first % 2 == 0:
            first += p
        mask[(first - start) // 2 :: p] = False  # strided clear
    odd = start + 2 * np.nonzero(mask)[0].astype(np.int64)
    return np.concatenate(([2], odd)) if lo == 2 else odd


def primes_in_range(lo: int, hi: int):
    """Yield primes p with lo <= p < hi in increasing order, from ``prime_array``
    in windows of 2·_SIEVE_CHUNK integers."""
    for seg_lo in range(max(lo, 2), hi, 2 * _SIEVE_CHUNK):
        yield from prime_array(seg_lo, min(seg_lo + 2 * _SIEVE_CHUNK, hi)).tolist()


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0.

    Iterative binary algorithm; the only facts used are (2|n) = (-1)^((n²-1)/8)
    and quadratic reciprocity for odd arguments.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"jacobi: modulus must be positive odd, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int:
    """Square root of a modulo prime p, returning the smaller root.

    Raises ValueError when a is a non-residue.  Tonelli--Shanks with the
    smallest quadratic non-residue, so the answer is a pure function of
    (a mod p, p).
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return 1
    if jacobi(a, p) != 1:
        raise ValueError(f"{a} is not a square modulo {p}")
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # p ≡ 1 (mod 4): full Tonelli--Shanks.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # a non-residue exists below every prime; none below an odd square
    z = next((z for z in range(2, p) if jacobi(z, p) == -1), None)
    if z is None:
        raise ValueError(f"sqrt_mod: no quadratic non-residue modulo {p}; {p} is not prime")
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i >= m:
                raise ValueError(f"sqrt_mod: Tonelli-Shanks failed modulo {p}; {p} is not prime")
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# ψ_k, the least strong pseudoprime to all of the first k prime bases (k = 1…12)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
           341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461)


def is_prime(n: int) -> bool:
    """Miller--Rabin to the first k prime bases, k the least with n < ψ_k: exact
    for n < ψ_12 ≈ 3.2·10²³, a strong probable-prime test to twelve bases above."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def cornacchia(D: int, p: int) -> tuple[int, int]:
    """Minimal-machinery Cornacchia: p = x² + D y² with x, y >= 0, D ∈ {1, 2, 3}.

    Tries both square roots of -D; for prime p one of them yields the
    (essentially unique, D > 1) representation, which exists whenever -D is
    a square mod p, as these forms have class number one.  Raises
    ValueError for a p that is not prime, even one the form represents.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == D:
        return 0, 1
    r0 = sqrt_mod(-D, p)  # raises if -D is a non-residue
    for r in (r0, p - r0):
        a, b = p, r
        while b * b > p:
            a, b = b, a % b
        rem = p - b * b
        if rem % D == 0:
            y = isqrt(rem // D)
            if D * y * y == rem:
                return b, y
    raise ValueError(f"{p} is not represented by x² + {D}y², so {p} is not prime")


def cornacchia_4p(D: int, p: int) -> tuple[int, int]:
    """Solve 4p = u² + |D| v² with u, v > 0 for odd D < 0 (|D| < 4p).

    The classical modified algorithm: root of D mod p with the parity of D,
    then the Euclidean walk down to 2√p.  Raises ValueError for a p that is
    not prime.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = -D
    x0 = sqrt_mod(D, p)
    if x0 % 2 != n % 2:
        x0 = p - x0
    a, b = 2 * p, x0
    limit = isqrt(4 * p)
    while b > limit:
        a, b = b, a % b
    rem = 4 * p - b * b
    if rem % n == 0:
        v = isqrt(rem // n)
        if n * v * v == rem:
            return b, v
    raise ValueError(f"4·{p} is not represented by u² + {n}v²")


@lru_cache(maxsize=None)
def _divisors(m: int) -> tuple[int, ...]:
    """The divisors of m >= 1, increasing."""
    out = [1]
    for q, e in _factorint(m).items():
        out = [d * q**i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


def order_dividing(x: int, m: int, p: int) -> int:
    """Multiplicative order of x mod p, given that it divides m.

    Raises ValueError if x^m != 1 mod p (caller promised a root of unity).
    """
    x %= p
    if x == 0:
        raise ValueError("order_dividing: x ≡ 0 has no multiplicative order")
    for n in _divisors(m):
        if pow(x, n, p) == 1:
            return n
    raise ValueError(f"order of {x} mod {p} does not divide {m}")


_TRIAL = 10**6  # factoring trial-divides by every prime below this


@lru_cache(maxsize=None)
def _trial_primes(bits: int) -> tuple[int, ...]:
    """The primes below min(2**bits, 10⁶): all that trial division of an n < 4**bits needs."""
    return tuple(prime_array(2, min(1 << bits, _TRIAL)).tolist())


def _trial_divide(n: int) -> tuple[dict[int, int], int]:
    """({q: e}, c) with n = c·∏ q^e for n >= 1, q the primes below 10⁶ that trial
    division takes out before q² > c: the cofactor c is 1, a prime, or of any size
    with no prime factor below 10⁶ (and then c >= 10¹²)."""
    out = {}
    for q in _trial_primes(isqrt(n).bit_length()):
        if q * q > n:
            break  # n is 1 or prime
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out[q] = e
    return out, n


def _factorint(n: int, *, semiprime_ok: bool = False) -> dict[int, int]:
    """{q: e} with n = ∏ q^e for n >= 1, q increasing.  Trial division by the primes
    below 10⁶ leaves a cofactor c with no prime factor below 10⁶: 1, a prime q that
    ``is_prime`` passes or its square q², of any size, or below 10¹⁸ q·r; q·r is kept
    whole, as {q·r: 1}, if ``semiprime_ok``.  Any other c raises ValueError."""
    out, n = _trial_divide(n)
    if n >= _TRIAL**2 and not is_prime(n):  # below 10¹², n is 1 or prime
        r = isqrt(n)
        if r * r == n and is_prime(r):
            return out | {r: 2}
        if n >= _TRIAL**3 or not semiprime_ok:
            raise ValueError(f"cannot factor {n}: no prime factor below 10⁶, and past 10¹⁸ or two above it")
    if n > 1:
        out[n] = 1
    return out


def euler_phi(n: int) -> int:
    if n <= 0:
        raise ValueError("euler_phi: n must be positive")
    phi = 1
    for q, e in _factorint(n).items():
        phi *= (q - 1) * q ** (e - 1)
    return phi


def parse_rational(text: str) -> Fraction:
    """Parse '3', '-8' or '3/4' into a Fraction (used by CLI and set grammar)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def reduce_mod(x: Rational | int, p: int) -> int:
    """x mod p for an integer, or a rational whose denominator is prime to p.

    >>> reduce_mod(-3, 7), reduce_mod(Fraction(1, 2), 7)
    (4, 4)
    """
    n, d = x.numerator, x.denominator
    return n % p if d == 1 else n % p * pow(d, -1, p) % p


def kfree_reduce(t: Rational | int, k: int) -> int:
    """Canonical k-th-power-free integer congruent to t modulo (Q^x)^k.

    >>> kfree_reduce(32, 4)
    2
    >>> kfree_reduce(-64, 6)
    -1
    >>> kfree_reduce(Fraction(1, 2), 4)
    8
    >>> kfree_reduce(-8, 3)
    1
    """
    if k < 2:
        raise ValueError("kfree_reduce: k must be >= 2")
    t = Fraction(t)
    if t == 0:
        raise ValueError("kfree_reduce: t must be nonzero")
    sign = -1 if t < 0 and k % 2 == 0 else 1  # -1 = (-1)^k is itself a k-th power for odd k
    out = 1
    # a/b ~ a * b^(k-1) mod k-th powers; a and b are coprime, so each is factored
    # on its own and a prime-product block q·r stays k-th-power-free
    for part, power in ((abs(t.numerator), 1), (t.denominator, k - 1)):
        for q, e in _factorint(part, semiprime_ok=True).items():
            out *= q ** (e * power % k)
    return sign * out


def squarefree_part(t: Rational | int) -> int:
    """Squarefree integer representing t modulo squares (sign preserved).

    >>> squarefree_part(-12)
    -3
    >>> squarefree_part(Fraction(8, 9))
    2
    """
    return kfree_reduce(t, 2)
