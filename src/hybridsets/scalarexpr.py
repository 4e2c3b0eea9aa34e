"""The package's one text scanner, and the exact-arithmetic body language.

``Cursor`` reads workspace lines, inline expression and term text,
function-atom bodies, command-line numbers, points and valuations, and
hybrid-set literals; it is the only code that turns text into a number.
Tokens are separated by spaces and tabs; names are ASCII
(``[A-Za-z_][A-Za-z0-9_]*``), numbers are ``-?\\d+(/\\d+)?`` with no inner
spaces, a nonzero denominator and no part longer than the interpreter
converts from text (``sys.get_int_max_str_digits()``), and a coefficient,
exponent or multiplicity literal, with its sign, must fit in a signed
64-bit word.

Body grammar: integers, named parameters, the distinguished variable ``x``,
the four operations ``+ - * /``, unary minus and parentheses.  Rationals
are written as divisions (``2/3``), so every value stays a Fraction.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple, Union

from .errors import ContractError, ParseError, ValuationError

# The signed 64-bit range of coefficients, exponents and multiplicities.
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_SPACE = re.compile(r"[ \t]*")
# Each token pattern also takes the whitespace after the token, so one
# match moves the cursor on to the next token; group 1 is the token.
_IDENT = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)[ \t]*")
_NUMBER = re.compile(r"(-?\d+(?:/\d+)?)[ \t]*")
_INTEGER = re.compile(r"(-?\d+)[ \t]*")
# A hybrid-set element that is not a number: a name that may also hold
# dots and brackets, such as ``S.P1`` or ``a[2]``.
ELEMENT_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_.\[\]]*)[ \t]*")


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

    def read_all(self, read):
        """What ``read(self)`` reads, which must take every token left."""
        value = read(self)
        self.finish()
        return value

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

    def comma_list(self, read) -> list:
        """One or more items, each read by ``read(self)``, separated by commas."""
        items = [read(self)]
        while self.take(","):
            items.append(read(self))
        return items

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

    def _literal(self, pattern: re.Pattern, what: str) -> Tuple[int, int]:
        """Numerator and denominator of the number ``pattern`` matches at the
        cursor, consumed: the one conversion of number text in the package."""
        start = self.pos
        num, slash, den = self._token(pattern, what).partition("/")
        try:
            n, d = int(num), int(den) if slash else 1
        except ValueError:  # past sys.get_int_max_str_digits()
            self.error(f"number longer than {sys.get_int_max_str_digits()} digits", start)
        if d == 0:
            self.error("zero denominator", start)
        return n, d

    def number(self) -> Fraction:
        return Fraction(*self._literal(_NUMBER, "a number"))

    def integer(self, sign: int) -> int:
        """The integer literal at the cursor times ``sign``, 1 or -1 (a minus
        written as its own token), which must fit in a signed 64-bit word."""
        start = self.pos
        k = sign * self._literal(_INTEGER, "an integer")[0]
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
class Chain:
    """A left-associative run ``first op operand op operand ...`` whose
    operators are all additive (``+ -``) or all multiplicative (``* /``).
    However long the run, it is one node, so it is walked by a loop."""

    first: "BodyExpr"
    rest: Tuple[Tuple[str, "BodyExpr"], ...]

    @property
    def additive(self) -> bool:
        return self.rest[0][0] in "+-"


BodyExpr = Union[Num, Ref, Neg, Chain]


# Most parentheses and unary signs one body may nest; the descent takes
# up to three stack frames per level, so this keeps it well inside
# Python's default recursion limit.
MAX_NESTING = 200


def read_scalar(cur: Cursor, depth: int = 0) -> BodyExpr:
    """A body expression read from ``cur``, which is left on the next token.
    ``depth`` counts the parentheses and unary signs around it."""
    node, rest = _term(cur, depth), []
    while op := cur.take_any("+-"):
        rest.append((op, _term(cur, depth)))
    return _chain(node, rest)


def _term(cur: Cursor, depth: int) -> BodyExpr:
    node, rest = _factor(cur, depth), []
    while op := cur.take_any("*/"):
        rest.append((op, _factor(cur, depth)))
    return _chain(node, rest)


def _chain(first: BodyExpr, rest: list) -> BodyExpr:
    """The run ``first rest...``; a parenthesised run of the same kind in
    front is merged in, since ``(a + b) + c`` means ``a + b + c``."""
    if not rest:
        return first
    if isinstance(first, Chain) and first.additive == (rest[0][0] in "+-"):
        return Chain(first.first, first.rest + tuple(rest))
    return Chain(first, tuple(rest))


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
    if cur.at_number():
        return Num(Fraction(cur._literal(_INTEGER, "an integer")[0]))
    return Ref(cur.ident("a number, a name or '('"))


def parse_scalar(text: str) -> BodyExpr:
    return Cursor(text).read_all(read_scalar)


_APPLY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


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
    if isinstance(expr, Chain):
        acc = eval_scalar(expr.first, x, valuation)
        for op, operand in expr.rest:
            b = eval_scalar(operand, x, valuation)
            if op == "/" and b == 0:
                raise ContractError("division by zero in body expression")
            acc = _APPLY[op](acc, b)
        return acc
    raise TypeError(f"not a body expression: {expr!r}")


def render_scalar(expr: BodyExpr) -> str:
    """Canonical text that parses back to ``expr``.  A sign keeps the
    parentheses around a chain or another sign; a chain inside a chain
    keeps them unless it is multiplicative inside an additive chain; and so
    does a sign after ``/``."""
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, Neg):
        inner = render_scalar(expr.operand)
        return f"-({inner})" if isinstance(expr.operand, (Neg, Chain)) else f"-{inner}"
    if isinstance(expr, Chain):
        parts = []
        for op, operand in ((None, expr.first), *expr.rest):
            text = render_scalar(operand)
            if isinstance(operand, Chain) and (operand.additive or not expr.additive) or (
                op == "/" and isinstance(operand, Neg)
            ):
                text = f"({text})"
            parts.append(text if op is None else f"{op} {text}")
        return " ".join(parts)
    raise TypeError(f"not a body expression: {expr!r}")


def body_names(expr: BodyExpr) -> Iterator[str]:
    """The names a body refers to, ``x`` included, in reading order."""
    if isinstance(expr, Ref):
        yield expr.name
    elif isinstance(expr, Neg):
        yield from body_names(expr.operand)
    elif isinstance(expr, Chain):
        for _, operand in ((None, expr.first), *expr.rest):
            yield from body_names(operand)
