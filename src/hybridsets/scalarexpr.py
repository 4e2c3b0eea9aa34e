"""The package's one text scanner, and the exact-arithmetic body language.

``Cursor`` reads workspace lines, inline expression and term text, and
function-atom bodies.  Tokens are separated by spaces and tabs; names are
ASCII (``[A-Za-z_][A-Za-z0-9_]*``), numbers are ``-?\\d+(/\\d+)?`` with no
inner spaces, and a coefficient or exponent literal, with its sign, must
fit in a signed 64-bit word.

Body grammar: integers, named parameters, the distinguished variable ``x``,
the four operations ``+ - * /``, unary minus and parentheses.  Rationals
are written as divisions (``2/3``), so every value stays a Fraction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import ContractError, ParseError, ValuationError
from .hybridset import INT64_MAX, INT64_MIN

_SPACE = re.compile(r"[ \t]*")
# Each token pattern also takes the whitespace after the token, so one
# match moves the cursor on to the next token; group 1 is the token.
_IDENT = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)[ \t]*")
_NUMBER = re.compile(r"(-?\d+(?:/\d+)?)[ \t]*")
_INTEGER = re.compile(r"(-?\d+)[ \t]*")


class Cursor:
    """Scanner over one line that reports 1-based columns in errors.

    ``pos`` always rests on the next token: whitespace is skipped once,
    when the cursor is made and right after each token is consumed.
    ``line_no`` is None for text that is not a workspace line.
    """

    def __init__(self, text: str, line_no: Optional[int] = None):
        self.text = text
        self.line_no = line_no
        self._advance(0)

    def _advance(self, end: int):
        self.pos = _SPACE.match(self.text, end).end()

    def error(self, message: str, pos: Optional[int] = None):
        at = self.pos if pos is None else pos
        raise ParseError(message, self.line_no, at + 1)

    def finish(self):
        """Fail unless every token has been consumed."""
        if self.pos < len(self.text):
            self.error("unexpected trailing input")

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self._advance(self.pos + len(literal))
            return True
        return False

    def take_any(self, chars: str) -> Optional[str]:
        """The one of ``chars`` found at the cursor, consumed, or None."""
        for ch in chars:
            if self.take(ch):
                return ch
        return None

    def expect(self, literal: str):
        if not self.take(literal):
            self.error(f"expected {literal!r}")

    def scan(self, pattern: re.Pattern) -> Optional[str]:
        """The text ``pattern`` matches at the cursor, consumed, or None."""
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group(1)

    def _token(self, pattern: re.Pattern, what: str) -> str:
        text = self.scan(pattern)
        if text is None:
            self.error(f"expected {what}")
        return text

    def ident(self, what: str = "a name") -> str:
        return self._token(_IDENT, what)

    def take_word(self, wanted: str) -> bool:
        m = _IDENT.match(self.text, self.pos)
        if m is None or m.group(1) != wanted:
            return False
        self.pos = m.end()
        return True

    def expect_word(self, wanted: str):
        if not self.take_word(wanted):
            self.error(f"expected {wanted!r}")

    def at_number(self) -> bool:
        return _NUMBER.match(self.text, self.pos) is not None

    def number(self) -> Fraction:
        return Fraction(self._token(_NUMBER, "a number"))

    def integer(self, sign: int) -> int:
        """The integer literal at the cursor times ``sign``, 1 or -1 (a minus
        written as its own token), which must fit in a signed 64-bit word."""
        start = self.pos
        k = sign * int(self._token(_INTEGER, "an integer"))
        if not INT64_MIN <= k <= INT64_MAX:
            self.error(f"integer {k} leaves the 64-bit range", start)
        return k


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Ref:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "BodyExpr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "BodyExpr"
    right: "BodyExpr"


BodyExpr = Union[Num, Ref, Neg, BinOp]


# Most parentheses and unary signs one body may nest; the descent takes
# up to three stack frames per level, so this keeps it well inside
# Python's default recursion limit.
MAX_NESTING = 200


def read_scalar(cur: Cursor, depth: int = 0) -> BodyExpr:
    """A body expression read from ``cur``, which is left on the next token.
    ``depth`` counts the parentheses and unary signs around it."""
    node = _term(cur, depth)
    while op := cur.take_any("+-"):
        node = BinOp(op, node, _term(cur, depth))
    return node


def _term(cur: Cursor, depth: int) -> BodyExpr:
    node = _factor(cur, depth)
    while op := cur.take_any("*/"):
        node = BinOp(op, node, _factor(cur, depth))
    return node


def _factor(cur: Cursor, depth: int) -> BodyExpr:
    start = cur.pos
    opener = cur.take_any("-+(")
    if opener is not None:
        if depth == MAX_NESTING:
            cur.error(f"body nests parentheses and unary signs more than {MAX_NESTING} deep", start)
        if opener == "-":
            return Neg(_factor(cur, depth + 1))
        if opener == "+":
            return _factor(cur, depth + 1)
        node = read_scalar(cur, depth + 1)
        cur.expect(")")
        return node
    # a leading '-' was taken above, so this reads unsigned digits
    digits = cur.scan(_INTEGER)
    if digits is not None:
        return Num(Fraction(digits))
    return Ref(cur.ident("a number, a name or '('"))


def parse_scalar(text: str) -> BodyExpr:
    cur = Cursor(text)
    node = read_scalar(cur)
    cur.finish()
    return node


def eval_scalar(expr: BodyExpr, x: Optional[Fraction], valuation) -> Fraction:
    """Evaluate with ``x`` bound to the point and names bound by the valuation."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Ref):
        if expr.name == "x":
            if x is None:
                raise ContractError("expression uses x but no point was supplied")
            if not isinstance(x, (int, Fraction)):
                raise ContractError(f"x must be a scalar here, got {x!r}")
            return Fraction(x)
        if valuation is None:
            raise ValuationError(f"no valuation supplied for parameter {expr.name!r}")
        return valuation.resolve(expr.name)
    if isinstance(expr, Neg):
        return -eval_scalar(expr.operand, x, valuation)
    if isinstance(expr, BinOp):
        a = eval_scalar(expr.left, x, valuation)
        b = eval_scalar(expr.right, x, valuation)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            if b == 0:
                raise ContractError("division by zero in body expression")
            return a / b
    raise TypeError(f"not a body expression: {expr!r}")


def _prec(expr) -> int:
    if isinstance(expr, (Num, Ref)):
        return 3
    if isinstance(expr, Neg):
        return 2
    return 1 if expr.op in ("+", "-") else 2


def render_scalar(expr: BodyExpr) -> str:
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Neg):
        inner = render_scalar(expr.operand)
        if _prec(expr.operand) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, BinOp):
        left = render_scalar(expr.left)
        right = render_scalar(expr.right)
        if _prec(expr.left) < _prec(expr):
            left = f"({left})"
        # right side needs parens at equal precedence: a - (b - c)
        if _prec(expr.right) <= _prec(expr) and not (
            expr.op in ("+", "*") and _prec(expr.right) == _prec(expr)
        ):
            right = f"({right})"
        return f"{left} {expr.op} {right}"
    raise TypeError(f"not a body expression: {expr!r}")
