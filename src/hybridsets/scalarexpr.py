"""The package's one text scanner, and the exact-arithmetic body language.

``Cursor`` reads workspace lines, inline expression and term text,
function-atom bodies, command-line numbers, points and valuations; it is
the only code that turns text into a number.  It reads each token in
place: a name or a number by one pattern match, any other token by a
prefix test or, in ``take_any``, a one-character peek.
Tokens are separated by spaces and tabs; names are ASCII
(``[A-Za-z_][A-Za-z0-9_]*``), numbers are ``-?\\d+(/\\d+)?``, where ``\\d``
is any Unicode decimal digit (``str.isdecimal``), with no inner
spaces, a nonzero denominator and no part longer than the interpreter
converts from text (``sys.get_int_max_str_digits()``), and a coefficient,
exponent or multiplicity literal, with its sign, must fit in a signed
64-bit word.

The hot workspace declarations are read by one match each, with patterns
built from the same token patterns: ``param`` lists, ``region NAME =
interval...``, ``partition P of U = ...`` (coefficients and ``assumed``
included), ``valuation`` pairs, ``fn`` lines whose body is one literal
(``0``, ``-3/2``) or absent, and ``expr NAME = join(f^R, g^(U - R), ...)``
with single-atom words (``Cursor.take_form``).  Every other line, and
every line such a match or its checks refuse, is read token by token.

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
from functools import lru_cache
from typing import Callable, Iterator, Optional, Tuple, Union

from .errors import ContractError, HybridError, ParseError, ValuationError

# The signed 64-bit range of coefficients, exponents and multiplicities.
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# The tokens, as pattern text: the blank between tokens, a name, a number
# and an integer.  The token patterns and the declaration forms below are
# all built from these.
_S = r"[ \t]*"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUM = r"-?\d+(?:/\d+)?"
_INT = r"-?\d+"

_SPACE = re.compile(_S)
# Each token pattern also takes the whitespace after the token, so one
# match moves the cursor on to the next token; group 1 is the token.
_IDENT = re.compile(f"({_NAME}){_S}")
_NUMBER = re.compile(f"({_NUM}){_S}")
_INTEGER = re.compile(f"({_INT}){_S}")


def _ratio(literal: str) -> Tuple[int, int]:
    """Numerator and denominator of number text: the one conversion of
    number text in the package.  A part longer than
    ``sys.get_int_max_str_digits()`` raises ValueError; the denominator
    may be 0, which each caller refuses."""
    num, slash, den = literal.partition("/")
    return int(num), int(den) if slash else 1


# A declaration form: the pattern of the rest of one declaration after its
# keyword, and ``split``, which makes a match of it into the groups that a
# reader builds from: numbers converted, each repeated part split into its
# items.  ``split`` raises ValueError or ArithmeticError for a literal
# outside the grammar.
Form = Tuple[re.Pattern, Callable[[re.Match], tuple]]


class Cursor:
    """Scanner over one line that reports 1-based columns in errors.

    ``pos`` always rests on the next token: whitespace is skipped once,
    when the cursor is made and right after each token is consumed.  Each
    reader consumes its token itself, with at most one pattern match;
    ``take_form`` reads the rest of a line with one.
    ``take_any`` peeks at the one character at the cursor, so its
    candidates are single characters.  ``at_number`` tests characters
    too: a number starts at a decimal digit, or at a ``-`` right before
    one, and ``str.isdecimal`` holds for exactly the characters that
    ``\\d`` matches in a text pattern (the Unicode decimal digits,
    category Nd), so the test answers as a match of ``_NUMBER`` would.
    ``line_no`` is None for text that is not a workspace line.
    """

    def __init__(self, text: str, line_no: Optional[int] = None):
        self.text = text
        self.line_no = line_no
        self.pos = _SPACE.match(text).end()

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
        text, pos = self.text, self.pos
        if text.startswith(literal, pos):
            self.pos = _SPACE.match(text, pos + len(literal)).end()
            return True
        return False

    def take_any(self, chars: str) -> Optional[str]:
        """The character at the cursor, consumed, if it is one of ``chars``;
        else None."""
        text, pos = self.text, self.pos
        ch = text[pos:pos + 1]
        if ch and ch in chars:
            self.pos = _SPACE.match(text, pos + 1).end()
            return ch
        return None

    def comma_list(self, read) -> list:
        """One or more items, each read by ``read(self)``, separated by commas."""
        items = [read(self)]
        while self.take(","):
            items.append(read(self))
        return items

    def expect(self, literal: str):
        text, pos = self.text, self.pos
        if not text.startswith(literal, pos):
            self.error(f"expected {literal!r}")
        self.pos = _SPACE.match(text, pos + len(literal)).end()

    def ident(self, what: str = "a name") -> str:
        m = _IDENT.match(self.text, self.pos)
        if m is None:
            self.error(f"expected {what}")
        self.pos = m.end()
        return m.group(1)

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
        text, pos = self.text, self.pos
        if text.startswith("-", pos):
            pos += 1
        return text[pos:pos + 1].isdecimal()

    def _literal(self, pattern: re.Pattern, what: str) -> Tuple[int, int]:
        """Numerator and denominator of the number ``pattern`` matches at the
        cursor, consumed: the one conversion of number text in the package."""
        start = self.pos
        m = pattern.match(self.text, start)
        if m is None:
            self.error(f"expected {what}")
        self.pos = m.end()
        try:
            n, d = _ratio(m.group(1))
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

    def take_form(self, form: Form, build, *args) -> bool:
        """Whether ``build(*args, *groups)`` took the declaration that
        ``form`` matches from the cursor to the end of the line; if it did,
        the line is consumed.  If the form does not match, a literal in it
        is outside the grammar, or ``build`` refuses the groups (it returns
        False or raises a lookup or package error, before it stores
        anything), the cursor stays where it was: the token readers then
        read the line and report its first error."""
        pattern, split = form
        m = pattern.fullmatch(self.text, self.pos)
        if m is None:
            return False
        try:
            if not build(*args, *split(m)):
                return False
        except (ArithmeticError, LookupError, ValueError, HybridError):
            return False
        self.pos = len(self.text)
        return True


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
    return _chain(node, rest) if rest else node


def _term(cur: Cursor, depth: int) -> BodyExpr:
    node, rest = _factor(cur, depth), []
    while op := cur.take_any("*/"):
        rest.append((op, _factor(cur, depth)))
    return _chain(node, rest) if rest else node


def _chain(first: BodyExpr, rest: list) -> BodyExpr:
    """The run ``first rest...``, ``rest`` not empty; a parenthesised run of
    the same kind in front is merged in, since ``(a + b) + c`` means
    ``a + b + c``."""
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
            raise ValuationError(f"parameter {expr.name!r} has no value")
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


def body_names(expr: BodyExpr) -> Iterator[str]:
    """The names a body refers to, ``x`` included, in reading order."""
    if isinstance(expr, Ref):
        yield expr.name
    elif isinstance(expr, Neg):
        yield from body_names(expr.operand)
    elif isinstance(expr, Chain):
        for _, operand in ((None, expr.first), *expr.rest):
            yield from body_names(operand)


# --- the hot declaration forms (``Cursor.take_form``) -----------------------
# Each pattern reads what the token readers read from the same text: a
# token ends where its token pattern would end it, so a name or a number
# cannot be split by a shorter match, and a keyword after a name needs a
# blank before it.

def _integer(sign: str, literal: str) -> int:
    """A coefficient: ``literal`` with the sign written before it, which
    must fit in a signed 64-bit word."""
    k = _ratio(literal)[0]
    if sign == "-":
        k = -k
    if not INT64_MIN <= k <= INT64_MAX:
        raise OverflowError(k)
    return k


@lru_cache(maxsize=1024)
def _fraction(literal: str) -> Fraction:
    """The value of number text; a Fraction is immutable, so a literal
    written on many lines is converted once."""
    n, d = _ratio(literal)
    return Fraction(n) if d == 1 else Fraction(n, d)


def _endpoint(number: Optional[str], name: str):
    return name if number is None else _fraction(number)


# An integer combination of region names, as ``partition`` pieces and the
# regions of ``join`` terms write it; ``_COMBO_TERM`` reads its terms one
# by one: (comma before it, sign, coefficient, region name).
_TERM = rf"(?:{_INT}{_S}\*{_S})?{_NAME}"
_COMBO = rf"-?{_S}{_TERM}(?:{_S}[+-]{_S}{_TERM})*"
_COMBO_TERM = re.compile(rf"(,?){_S}([+-]?){_S}(?:({_INT}){_S}\*{_S})?({_NAME}){_S}")


def _combos(text: str) -> list:
    """The pieces of comma-separated combinations, each a list of
    (region name, coefficient) pairs."""
    pieces = []
    for comma, sign, k, region in _COMBO_TERM.findall(text):
        if comma or not pieces:
            pieces.append([])
        pieces[-1].append((region, _integer(sign, k) if k else -1 if sign == "-" else 1))
    return pieces


def _form(pattern: str, split) -> Form:
    return re.compile(pattern), split


_NAMES = re.compile(_NAME)
PARAM_FORM = _form(
    rf"{_NAME}(?:{_S},{_S}{_NAME})*",
    lambda m: (_NAMES.findall(m.group()),),
)

# name, opener, lower bound (number | name), upper bound, closer
_BOUND = rf"(?:({_NUM})|({_NAME}))"
REGION_FORM = _form(
    rf"({_NAME}){_S}={_S}interval{_S}([\[(]){_S}{_BOUND}{_S},{_S}{_BOUND}{_S}([\])])",
    lambda m: (m[1], m[2] == "[", _endpoint(m[3], m[4]), _endpoint(m[5], m[6]), m[7] == "]"),
)

# name, universe, pieces, "assumed"
PARTITION_FORM = _form(
    rf"({_NAME})[ \t]+of[ \t]+({_NAME}){_S}={_S}({_COMBO}(?:{_S},{_S}{_COMBO})*)"
    rf"(?:[ \t]+(assumed))?",
    lambda m: (m[1], m[2], _combos(m[3]), m[4] is not None),
)

_PAIR = re.compile(rf"({_NAME}){_S}={_S}({_NUM})")
VALUATION_FORM = _form(
    rf"({_NAME}){_S}:{_S}({_NAME}{_S}={_S}{_NUM}(?:{_S},{_S}{_NAME}{_S}={_S}{_NUM})*)",
    lambda m: (m[1], [(name, _fraction(v)) for name, v in _PAIR.findall(m[2])]),
)


def _literal_body(minus: str, num: str, den: Optional[str]) -> BodyExpr:
    """The body the token readers make of ``-num/den``: the minus applies
    to the numerator, and a division is a chain."""
    node = Num(Fraction(_ratio(num)[0]))
    if minus:
        node = Neg(node)
    return node if den is None else Chain(node, (("/", Num(Fraction(_ratio(den)[0]))),))


# name, body (None for an opaque atom)
FN_FORM = _form(
    rf"({_NAME})(?:{_S}={_S}(-?){_S}(\d+)(?:{_S}/{_S}(\d+))?)?",
    lambda m: (m[1], None if m[3] is None else _literal_body(m[2], m[3], m[4])),
)

# name, terms: (atom name, region name, combination or None)
_JOIN_TERM_TEXT = rf"{_NAME}{_S}\^{_S}(?:{_NAME}|\({_S}{_COMBO}{_S}\))"
_JOIN_TERM = re.compile(rf",?{_S}({_NAME}){_S}\^{_S}(?:({_NAME})|\({_S}({_COMBO}){_S}\)){_S}")
JOIN_FORM = _form(
    rf"({_NAME}){_S}={_S}join{_S}\({_S}({_JOIN_TERM_TEXT}(?:{_S},{_S}{_JOIN_TERM_TEXT})*){_S}\)",
    lambda m: (m[1], [(f, r, _combos(c)[0] if c else None) for f, r, c in _JOIN_TERM.findall(m[2])]),
)
