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

The nine-cell partition of p ≡ 1 (mod 4) for y² = x³ - tx is declared once,
in ``_CELL_TABLE``: each row gives a cell's g8 class, the order it asks of
(t/p) (of the quartic class of t/2 on p ≡ 5 (mod 8)), and the order and, on
the g8 rows, the value of (a_p/π)_4 there.  ``quartic_cell``,
``quartic_cell_expr`` and the ``trace_symbol_*`` properties read the row; the
``nine-cells`` suite checks the first two against each other and the rest
against a_p from the engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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
            raise ValueError(f"g8: class must be one of {tuple(G8_CLASSES)}, got {self.klass!r}")

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


def _class_order(m: int, t: Rational | int, p: int) -> int:
    """Order of the m-class t^((p-1)/m) in F_p^×, for p ≡ 1 (mod m) prime to t."""
    return order_dividing(pow(reduce_mod(t, p), (p - 1) // m, p), m, p)


def classify(p: int, expr: SetExpr) -> bool:
    """Membership of the prime p in the set described by expr."""
    if isinstance(expr, CongMod):
        return p % expr.modulus in expr.residues
    if isinstance(expr, SymOrder):
        if (p - 1) % expr.m or p == 1 or expr.t.numerator * expr.t.denominator % p == 0:
            return False
        return _class_order(expr.m, expr.t, p) == expr.n
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
        return _CELL_TABLE[self].order

    @property
    def trace_symbol_exp(self) -> int | None:
        """Exponent e with (a_p/π)_4 = i^e on this cell, when pinned (g8 rows).

        On the p ≡ 5 (mod 8) cells only the order is pinned, not which
        primitive root appears; there the value is None.
        """
        return _CELL_TABLE[self].exp


class _CellRow(NamedTuple):
    klass: str | None  # g8 class of p ≡ 1 (mod 8); None for p ≡ 5 (mod 8)
    asks: int | None  # order asked of (t/p), or of the quartic class of t/2 on p ≡ 5 (mod 8); None: any
    order: int  # order of (a_p/π)_4 on the cell
    exp: int | None  # e with (a_p/π)_4 = i^e, when the cell pins it


# The paper's table: the order column is its claim, not derived from `asks`.
_CELL_TABLE = {
    QuarticCell.G8_1: _CellRow("1", None, 1, 0),
    QuarticCell.G8_1P4I: _CellRow("1+4i", None, 2, 2),
    QuarticCell.G8_5_PLUS: _CellRow("5", 1, 2, 2),
    QuarticCell.G8_5_MINUS: _CellRow("5", 2, 1, 0),
    QuarticCell.G8_5P4I_PLUS: _CellRow("5+4i", 1, 1, 0),
    QuarticCell.G8_5P4I_MINUS: _CellRow("5+4i", 2, 2, 2),
    QuarticCell.C85_Q1: _CellRow(None, 1, 1, None),
    QuarticCell.C85_QM1: _CellRow(None, 2, 2, None),
    QuarticCell.C85_Q4: _CellRow(None, 4, 4, None),
}
_CELL_OF = {(row.klass, row.asks): cell for cell, row in _CELL_TABLE.items()}


def _asked(klass: str | None, t: Rational | int) -> tuple[int, Rational | int]:
    """(m, s): a cell of this g8 class asks the order of the m-class of s."""
    return (4, Fraction(t) / 2) if klass is None else (2, t)


def quartic_cell(p: int, t: Rational | int) -> QuarticCell:
    """The cell of p ≡ 1 (mod 4) in the nine-cell partition attached to t.

    >>> quartic_cell(13, 1).value
    'C85_q4'
    >>> quartic_cell(17, 1).value
    'G8_1p4i'
    """
    if p % 4 != 1:
        raise ValueError(f"{p} is not 1 mod 4")
    if (2 * t.numerator * t.denominator) % p == 0:
        raise ValueError(f"cell undefined: {p} divides 2t")
    if p % 8 == 5:  # ``_asked``'s t/2, as t·2⁻¹ with 2⁻¹ ≡ (p+1)/2
        return _CELL_OF[None, _class_order(4, reduce_mod(t, p) * ((p + 1) // 2), p)]
    klass = primary_class_mod8(p)
    return _CELL_OF.get((klass, None)) or _CELL_OF[klass, _class_order(2, t, p)]


def quartic_cell_expr(cell: QuarticCell, t: Rational | int) -> SetExpr:
    """The cell as a set expression in the scan grammar."""
    row = _CELL_TABLE[cell]
    base = CongMod(8, (5,)) if row.klass is None else G8(row.klass)
    return base if row.asks is None else base & SymOrder(*_asked(row.klass, t), row.asks)
