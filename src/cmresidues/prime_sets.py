"""Chebotarev-style prime sets: congruence cells and power-residue conditions.

Scans are conditioned on boolean combinations of three kinds of atoms:

* ``mod(M; r1, r2, ...)`` — p ≡ r_i (mod M) for some i;
* ``symord(m; t; n)``     — p ≡ 1 (mod m) and t^((p-1)/m) has order exactly n
  in F_p^× (t a nonzero rational, n | m).  ``symord(2; t; 1)`` is "t is a
  quadratic residue", which for square t holds at every odd p ∤ t;
* ``g8(c)``               — p ≡ 1 (mod 8) and the primary divisors of p in
  Z[i] are ≡ c (mod 8), c ∈ {1, 5, 1+4i, 5+4i}.

Atoms combine with ``&``, ``|``, ``!`` and parentheses; ``&`` binds tighter.
``parse_set`` round-trips with ``str``: parse(str(e)) == e.

The nine-cell partition of p ≡ 1 (mod 4) used for the quartic family lives
here too (``quartic_cell``): for p ≡ 1 (mod 8) the cell is the g8 class
refined by the quadratic character of t, for p ≡ 5 (mod 8) it is the order
of the quartic class of t/2.  Each cell pins the order (and for the g8 rows
the value) of the quartic residue symbol of the Frobenius trace of
y² = x³ - tx; ``quartic_cell_expr`` spells every cell in the grammar above.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .gaussian import G8_CLASSES, primary_class_mod8
from .primes import Rational, order_dividing, parse_rational, reduce_mod


class SetExprError(ValueError):
    """Parse error with the offending position in the source text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class SetExpr:
    """Base class; subclasses are frozen dataclasses, combinable with & | ~."""

    def __and__(self, other: "SetExpr") -> "SetExpr":
        a = self.parts if isinstance(self, And) else (self,)
        b = other.parts if isinstance(other, And) else (other,)
        return And(a + b)

    def __or__(self, other: "SetExpr") -> "SetExpr":
        a = self.parts if isinstance(self, Or) else (self,)
        b = other.parts if isinstance(other, Or) else (other,)
        return Or(a + b)

    def __invert__(self) -> "SetExpr":
        return self.inner if isinstance(self, Not) else Not(self)


@dataclass(frozen=True)
class CongMod(SetExpr):
    modulus: int
    residues: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"mod: modulus must be >= 1, got {self.modulus}")
        rs = sorted(set(r % self.modulus for r in self.residues))
        if not rs:
            raise ValueError("mod: at least one residue required")
        object.__setattr__(self, "residues", tuple(rs))

    def __str__(self) -> str:
        return f"mod({self.modulus};{','.join(map(str, self.residues))})"


@dataclass(frozen=True)
class SymOrder(SetExpr):
    m: int
    t: Rational
    n: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"symord: m must be >= 1, got {self.m}")
        if self.n < 1 or self.m % self.n != 0:
            raise ValueError(f"symord: order {self.n} does not divide {self.m}")
        t = Fraction(self.t)
        if t == 0:
            raise ValueError("symord: t must be nonzero")
        object.__setattr__(self, "t", t)

    def __str__(self) -> str:
        return f"symord({self.m};{self.t};{self.n})"


@dataclass(frozen=True)
class G8(SetExpr):
    klass: str

    def __post_init__(self) -> None:
        if self.klass not in G8_CLASSES:
            raise ValueError(f"g8: class must be one of {G8_CLASSES}, got {self.klass!r}")

    def __str__(self) -> str:
        return f"g8({self.klass})"


@dataclass(frozen=True)
class And(SetExpr):
    parts: tuple[SetExpr, ...]

    def __str__(self) -> str:
        return " & ".join(f"({q})" if isinstance(q, Or) else str(q) for q in self.parts)


@dataclass(frozen=True)
class Or(SetExpr):
    parts: tuple[SetExpr, ...]

    def __str__(self) -> str:
        return " | ".join(str(q) for q in self.parts)


@dataclass(frozen=True)
class Not(SetExpr):
    inner: SetExpr

    def __str__(self) -> str:
        if isinstance(self.inner, (And, Or)):
            return f"!({self.inner})"
        return f"!{self.inner}"


def classify(p: int, expr: SetExpr) -> bool:
    """Membership of the prime p in the set described by expr."""
    if isinstance(expr, CongMod):
        return p % expr.modulus in expr.residues
    if isinstance(expr, SymOrder):
        if (p - 1) % expr.m or p == 1:
            return False
        t = expr.t
        if t.numerator % p == 0 or t.denominator % p == 0:
            return False
        tm = reduce_mod(t, p)
        return order_dividing(pow(tm, (p - 1) // expr.m, p), expr.m, p) == expr.n
    if isinstance(expr, G8):
        return p % 8 == 1 and primary_class_mod8(p) == expr.klass
    if isinstance(expr, And):
        return all(classify(p, q) for q in expr.parts)
    if isinstance(expr, Or):
        return any(classify(p, q) for q in expr.parts)
    if isinstance(expr, Not):
        return not classify(p, expr.inner)
    raise TypeError(f"not a set expression: {expr!r}")


# ---------------------------------------------------------------------------
# Grammar:  or := and ('|' and)* ;  and := unary ('&' unary)* ;
#           unary := '!' unary | '(' or ')' | atom


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> SetExprError:
        return SetExprError(msg, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> SetExpr:
        expr = self.parse_or()
        if self.peek():
            raise self.error(f"unexpected {self.peek()!r}")
        return expr

    def parse_or(self) -> SetExpr:
        parts = [self.parse_and()]
        while self.peek() == "|":
            self.pos += 1
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> SetExpr:
        parts = [self.parse_unary()]
        while self.peek() == "&":
            self.pos += 1
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> SetExpr:
        ch = self.peek()
        if ch == "!":
            self.pos += 1
            return ~self.parse_unary()
        if ch == "(":
            self.pos += 1
            inner = self.parse_or()
            self.expect(")")
            return inner
        return self.parse_atom()

    def parse_atom(self) -> SetExpr:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        name = self.text[start : self.pos]
        if not name:
            raise self.error("expected an atom (mod/symord/g8)")
        if name not in ("mod", "symord", "g8"):
            self.pos = start
            raise self.error(f"unknown atom {name!r}")
        self.expect("(")
        depth_start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != ")":
            self.pos += 1
        if self.pos >= len(self.text):
            raise self.error("unterminated atom: missing ')'")
        body = self.text[depth_start : self.pos]
        self.pos += 1  # consume ')'
        try:
            return self.build_atom(name, body)
        except (ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, SetExprError):
                raise
            raise SetExprError(str(exc), depth_start) from exc

    @staticmethod
    def build_atom(name: str, body: str) -> SetExpr:
        fields = [f.strip() for f in body.split(";")]
        if name == "mod":
            if len(fields) != 2:
                raise ValueError(f"mod expects mod(M;r1,r2,...), got {len(fields)} fields")
            modulus = int(fields[0])
            residues = tuple(int(r) for r in fields[1].split(","))
            return CongMod(modulus, residues)
        if name == "symord":
            if len(fields) != 3:
                raise ValueError(f"symord expects symord(m;t;n), got {len(fields)} fields")
            return SymOrder(int(fields[0]), parse_rational(fields[1]), int(fields[2]))
        if len(fields) != 1:
            raise ValueError("g8 expects a single class, e.g. g8(5+4i)")
        return G8(fields[0])


def parse_set(text: str) -> SetExpr:
    """Parse the set grammar; raises SetExprError with a position on bad input.

    >>> str(parse_set("mod(8;5,1) & symord(2;3;2)"))
    'mod(8;1,5) & symord(2;3;2)'
    >>> parse_set("g8(5+4i)") == G8("5+4i")
    True
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# The nine-cell partition for the quartic family (d = -4)


class QuarticCell(enum.Enum):
    G8_1 = "G8_1"
    G8_1P4I = "G8_1p4i"
    G8_5_PLUS = "G8_5_plus"
    G8_5_MINUS = "G8_5_minus"
    G8_5P4I_PLUS = "G8_5p4i_plus"
    G8_5P4I_MINUS = "G8_5p4i_minus"
    C85_Q1 = "C85_q1"
    C85_QM1 = "C85_qm1"
    C85_Q4 = "C85_q4"

    @property
    def trace_symbol_order(self) -> int:
        """Order of the quartic symbol of the trace of y² = x³ - tx on this cell."""
        return _CELL_ORDER[self]

    @property
    def trace_symbol_exp(self) -> int | None:
        """Exponent e with (a_p/π)_4 = i^e on this cell, when pinned (g8 rows).

        On the p ≡ 5 (mod 8) cells only the order is pinned, not which
        primitive root appears; there the value is None.
        """
        return _CELL_EXP[self]


_CELL_ORDER = {
    QuarticCell.G8_1: 1,
    QuarticCell.G8_1P4I: 2,
    QuarticCell.G8_5_PLUS: 2,
    QuarticCell.G8_5_MINUS: 1,
    QuarticCell.G8_5P4I_PLUS: 1,
    QuarticCell.G8_5P4I_MINUS: 2,
    QuarticCell.C85_Q1: 1,
    QuarticCell.C85_QM1: 2,
    QuarticCell.C85_Q4: 4,
}

# symbol value on the g8 cells: +1 (exp 0) or -1 (exp 2)
_CELL_EXP = {
    QuarticCell.G8_1: 0,
    QuarticCell.G8_1P4I: 2,
    QuarticCell.G8_5_PLUS: 2,
    QuarticCell.G8_5_MINUS: 0,
    QuarticCell.G8_5P4I_PLUS: 0,
    QuarticCell.G8_5P4I_MINUS: 2,
    QuarticCell.C85_Q1: None,
    QuarticCell.C85_QM1: None,
    QuarticCell.C85_Q4: None,
}


def quartic_cell(p: int, t: Rational | int) -> QuarticCell:
    """The cell of p ≡ 1 (mod 4) in the nine-cell partition attached to t.

    >>> quartic_cell(13, 1).value
    'C85_q4'
    >>> quartic_cell(17, 1).value
    'G8_1p4i'
    """
    t = Fraction(t)
    if p % 4 != 1:
        raise ValueError(f"{p} is not 1 mod 4")
    if (2 * t.numerator * t.denominator) % p == 0:
        raise ValueError(f"cell undefined: {p} divides 2t")
    tm = reduce_mod(t, p)
    if p % 8 == 1:
        klass = primary_class_mod8(p)
        if klass == "1":
            return QuarticCell.G8_1
        if klass == "1+4i":
            return QuarticCell.G8_1P4I
        plus = pow(tm, (p - 1) // 2, p) == 1
        if klass == "5":
            return QuarticCell.G8_5_PLUS if plus else QuarticCell.G8_5_MINUS
        return QuarticCell.G8_5P4I_PLUS if plus else QuarticCell.G8_5P4I_MINUS
    # p ≡ 5 (mod 8): classify by the order of the quartic class of t/2
    half_t = tm * pow(2, -1, p) % p
    o = order_dividing(pow(half_t, (p - 1) // 4, p), 4, p)
    return {1: QuarticCell.C85_Q1, 2: QuarticCell.C85_QM1, 4: QuarticCell.C85_Q4}[o]


def quartic_cell_expr(cell: QuarticCell, t: Rational | int) -> SetExpr:
    """The cell as a set expression in the scan grammar."""
    t = Fraction(t)
    plus, minus = SymOrder(2, t, 1), SymOrder(2, t, 2)
    if cell is QuarticCell.G8_1:
        return G8("1")
    if cell is QuarticCell.G8_1P4I:
        return G8("1+4i")
    if cell is QuarticCell.G8_5_PLUS:
        return G8("5") & plus
    if cell is QuarticCell.G8_5_MINUS:
        return G8("5") & minus
    if cell is QuarticCell.G8_5P4I_PLUS:
        return G8("5+4i") & plus
    if cell is QuarticCell.G8_5P4I_MINUS:
        return G8("5+4i") & minus
    n = {QuarticCell.C85_Q1: 1, QuarticCell.C85_QM1: 2, QuarticCell.C85_Q4: 4}[cell]
    return CongMod(8, (5,)) & SymOrder(4, t / 2, n)
