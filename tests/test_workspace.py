"""Workspace text: parsing, equal spellings, and error positions."""

import re
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridsets import (
    FinitePointSet,
    MultiplicityOverflowError,
    GridRect,
    Interval1D,
    ContractError,
    ParseError,
    Universe,
    Valuation,
    Workspace,
    parse_workspace,
)
from hybridsets import hybridset
from hybridsets.scalarexpr import Cursor, eval_scalar, parse_scalar
from hybridsets.workspace import parse_expr_text, parse_term_text

F = Fraction

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def parse_fixture(name):
    return parse_workspace((FIXTURES / name).read_text())


class TestFixtures:
    def test_declaration_order_is_not_compared(self):
        lines = [
            "param b", "param a", "region U = interval[0, 1)", "region A = interval[0, a)",
            "fn f = 2*x", "fn g = b", "valuation v: a = 1/3, b = 2/3",
        ]
        ws = parse_workspace("\n".join(lines))
        reordered = parse_workspace("\n".join([lines[1], lines[0], *lines[5:1:-1], lines[6]]))
        assert reordered == ws
        assert parse_workspace("\n".join(lines).replace("b = 2/3", "b = 3/4")) != ws

    def test_matrix_demo_declares_eight_regions_and_atoms(self):
        ws = parse_fixture("matrix_demo.ws")
        assert len(ws.regions) == 8
        assert len(ws.atoms) == 8
        assert set(ws.matrices) == {"M1", "M2"}
        assert set(ws.partitions) == {"M1", "M2"}
        assert set(ws.valuations) == {"v1", "v2", "v3"}
        assert ws.valuations["v1"].resolve("h2") == 2

    def test_piecewise_demo_exprs(self):
        ws = parse_fixture("piecewise_demo.ws")
        assert set(ws.exprs) == {"F", "G", "FG", "E0"}
        assert ws.exprs["E0"].terms == ()
        assert len(ws.exprs["FG"].terms) == 3
        assert ws.exprs["FG"].star is not None

    def test_spline_demo_splines(self):
        ws = parse_fixture("spline_demo.ws")
        assert set(ws.splines) == {"S", "T"}
        assert ws.splines["S"].knots == ("a", "c", "b")


class TestParsing:
    def test_empty_text_gives_an_empty_workspace(self):
        assert parse_workspace("") == Workspace()
        assert parse_workspace("\n  # only a comment\n\n") == Workspace()

    def test_interval_bounds_and_flags(self):
        ws = parse_workspace("param a\nregion P = interval[0, a)")
        shape = ws.regions["P"].shape
        assert shape == Interval1D(F(0), "a", True, False)
        ws = parse_workspace("region Q = interval(-1/2, 2]")
        assert ws.regions["Q"].shape == Interval1D(F(-1, 2), F(2), False, True)

    def test_rect_ranges_default_to_closed(self):
        ws = parse_workspace("param h, k\nregion A = rect(1..h, 1..k)")
        assert ws.regions["A"].shape == GridRect(Interval1D(F(1), "h"), Interval1D(F(1), "k"))
        ws = parse_workspace("param h, n\nregion B = rect((h..n], 1..3)")
        assert ws.regions["B"].shape == GridRect(
            Interval1D("h", "n", lo_closed=False), Interval1D(F(1), F(3))
        )

    def test_point_sets_and_universe(self):
        ws = parse_workspace("region P = points(0, 1/2, (2, 3))\nregion U = universe")
        assert ws.regions["P"].shape == FinitePointSet((F(0), F(1, 2), (F(2), F(3))))
        assert ws.regions["U"].shape == Universe()

    def test_fn_bodies_parse_and_opaque_fns_have_none(self):
        ws = parse_workspace("param a\nfn f = 2*x + a\nfn g1")
        assert ws.atoms["f"].body is not None
        assert ws.atoms["g1"].is_opaque

    def test_partition_checks_the_formal_sum(self):
        text = "region U = interval[0, 1)\nregion A = interval[0, 1/2)\npartition P of U = A, U - A"
        ws = parse_workspace(text)
        assert not ws.partitions["P"].assumed
        assert ws.partitions["P"].labels == ("1", "2")

    def test_partition_with_assumed_keyword(self):
        text = (
            "param a, b\nregion U = interval[0, 1)\n"
            "region A = interval[0, a)\nregion B = interval[a, b)\n"
            "partition P of U = A, B assumed"
        )
        assert parse_workspace(text).partitions["P"].assumed

    def test_expr_forms(self):
        text = (
            "param a\nregion U = interval[0, 1)\nregion A = interval[0, a)\n"
            "fn f = 1\nfn g = 2\n"
            "expr E1 = join(f^A, g^(U - A))\n"
            "expr E2 = mjoin(*, (f * g)^A, (f^2 * g^-1)^(U - A))\n"
            "expr E3 = f^A\n"
            "expr E0 = join()"
        )
        ws = parse_workspace(text)
        assert len(ws.exprs["E1"].terms) == 2
        assert ws.exprs["E2"].star.name == "*"
        assert ws.exprs["E2"].terms[1].word.coefficient("f") == 2
        assert ws.exprs["E2"].terms[1].word.coefficient("g") == -1
        assert ws.exprs["E3"].terms[0].word.coefficient("f") == 1
        assert ws.exprs["E0"].terms == ()

    def test_matrix_declaration_registers_blocks_and_partition(self):
        text = "param n, m, h, k\nmatrix M = dims(n, m) split(h, k) blocks(A, B, C, D)"
        ws = parse_workspace(text)
        assert set(ws.regions) == {"A", "B", "C", "D"}
        assert set(ws.atoms) == {"A", "B", "C", "D"}
        assert ws.partitions["M"].assumed
        assert ws.partitions["M"].labels == ("A", "B", "C", "D")

    def test_valuations_parse_rationals(self):
        ws = parse_workspace("param a, b\nvaluation v: a = 1/3, b = -2")
        assert ws.valuations["v"].resolve("a") == F(1, 3)
        assert ws.valuations["v"].resolve("b") == -2


class TestParseErrors:
    def test_undeclared_name_reports_line_and_column(self):
        text = "param a\nregion X = interval[b, a)"
        with pytest.raises(ParseError) as exc:
            parse_workspace(text)
        err = exc.value
        assert "unresolved name 'b'" in str(err)
        assert err.line == 2
        assert err.column == 21

    def test_duplicate_names_within_a_kind(self):
        with pytest.raises(ParseError, match="duplicate param name 'a'"):
            parse_workspace("param a\nparam a")
        with pytest.raises(ParseError, match="duplicate region name"):
            parse_workspace("region U = universe\nregion U = interval[0, 1)")

    def test_matrix_blocks_cannot_reuse_names(self):
        text = "param n, m, h, k\nregion A = universe\nmatrix M = dims(n, m) split(h, k) blocks(A, B, C, D)"
        with pytest.raises(ParseError, match="duplicate region name 'A'"):
            parse_workspace(text)
        text = "param n, m, h, k\nmatrix M = dims(n, m) split(h, k) blocks(A, A, C, D)"
        with pytest.raises(ParseError, match="duplicate region name 'A'"):
            parse_workspace(text)

    def test_unknown_declaration_keyword(self):
        with pytest.raises(ParseError, match="unknown declaration 'regionn'"):
            parse_workspace("regionn U = universe")

    def test_unbalanced_partition_sum_is_rejected(self):
        text = (
            "region U = interval[0, 1)\nregion A = interval[0, 1/2)\n"
            "partition P of U = A, A"
        )
        with pytest.raises(ParseError, match="do not sum to the universe"):
            parse_workspace(text)

    def test_fn_body_errors_point_into_the_line(self):
        with pytest.raises(ParseError) as exc:
            parse_workspace("fn f = 2 +")
        assert exc.value.line == 1

    def test_fn_body_cannot_reference_undeclared_params(self):
        with pytest.raises(ParseError, match="unresolved name 'y' in body"):
            parse_workspace("fn f = y + 1")

    def test_valuation_requires_declared_params(self):
        with pytest.raises(ParseError, match="unresolved name 'b'"):
            parse_workspace("param a\nvaluation v: b = 1")

    def test_trailing_input_is_rejected(self):
        with pytest.raises(ParseError, match="unexpected trailing input"):
            parse_workspace("region U = universe extra")

    def test_spline_needs_two_knots(self):
        with pytest.raises(ParseError, match="at least two knots"):
            parse_workspace("param a\nspline S = knots(a)")


class TestInlineExpressions:
    def make_ws(self):
        return parse_workspace(
            "param a\nregion U = interval[0, 1)\nregion A = interval[0, a)\n"
            "fn f = 1\nfn g = 2"
        )

    def test_expression_text_uses_workspace_names(self):
        ws = self.make_ws()
        e = parse_expr_text(ws, "join(f^A, g^(U - A))")
        assert len(e.terms) == 2
        bare = parse_expr_text(ws, "f^A")
        assert bare.star is None and len(bare.terms) == 1

    def test_term_text(self):
        ws = self.make_ws()
        t = parse_term_text(ws, "(f * g)^(U - A)")
        assert t.word.coefficient("f") == 1
        assert t.region.coefficient("A") == -1

    def test_inline_errors_have_no_line_number(self):
        ws = self.make_ws()
        with pytest.raises(ParseError) as exc:
            parse_expr_text(ws, "join(f^A,)")
        assert exc.value.line is None


class TestRendering:
    # Each written text parses to the same workspace as its canonical
    # spelling: one declaration per line, names one by one, a space around
    # each binary operator and after each comma.
    def test_rendered_lines_are_canonical(self):
        text = (
            "param a,b\n"
            "fn   f = 2*x+1\n"
            "region U = interval[0,1)\n"
            "region A = interval[0,a)\n"
            "partition P of U = A, U-A\n"
            "expr E = join(f^A)\n"
            "valuation v: b=2, a=1/3"
        )
        canonical = [
            "param a",
            "param b",
            "fn f = 2 * x + 1",
            "region U = interval[0, 1)",
            "region A = interval[0, a)",
            "partition P of U = A, U - A",
            "expr E = join(f^A)",
            "valuation v: a = 1/3, b = 2",
        ]
        assert parse_workspace(text) == parse_workspace("\n".join(canonical))

    # written body -> canonical body; parentheses stay where dropping them
    # would parse to a different body
    @pytest.mark.parametrize(
        "body, canonical",
        [
            ("a + (b + c)", "a + (b + c)"),
            ("a * (b * c)", "a * (b * c)"),
            ("a * (b / c)", "a * (b / c)"),
            ("-(-a)", "-(-a)"),
            ("--a", "-(-a)"),
            ("a - (b - c)", "a - (b - c)"),
            ("(a + b) * c", "(a + b) * c"),
            ("a * -b", "a * -b"),
            ("a / -b", "a / (-b)"),
            ("(a + b) + c", "a + b + c"),
            ("(a * b) / c", "a * b / c"),
            ("a + (b * c)", "a + b * c"),
            ("-(a * b) - c", "-(a * b) - c"),
            ("a / -b * x", "a / (-b) * x"),
        ],
    )
    def test_fn_bodies_round_trip(self, body, canonical):
        written = parse_workspace(f"param a, b, c\nfn f = {body}")
        assert written == parse_workspace(f"param a, b, c\nfn f = {canonical}")

    # a, b and x at each valuation; the third makes a - b, a - x and x - 2 zero
    VALUES = [(F(1, 3), F(-2), F(5, 7)), (F(0), F(2), F(-1, 2)), (F(2), F(2), F(2))]

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.sampled_from(["a", "b", "x", "2"]),
        lambda inner: st.one_of(
            st.builds("-{}".format, inner),
            st.builds("({})".format, inner),
            st.builds("{} {} {}".format, inner, st.sampled_from("+-*/"), inner),
        ),
        max_leaves=12,
    ))
    @example("a / -b * x")
    @example("x - 2 / -a * b / -x")
    def test_any_body_evaluates_as_python_does(self, body):
        # Python reads the same text with the same precedence, unary signs
        # and left-to-right chains, so it is the reference for the value
        expr = parse_scalar(body)
        python_text = body.replace("2", "Fraction(2)")
        for a, b, x in self.VALUES:
            v = Valuation({"a": a, "b": b})
            try:
                expected = eval(python_text, {"Fraction": Fraction, "a": a, "b": b, "x": x})
            except ZeroDivisionError:
                with pytest.raises(ContractError, match="division by zero"):
                    eval_scalar(expr, x, v)
            else:
                assert eval_scalar(expr, x, v) == expected

    def test_universe_points_rects_and_opaque_fns_round_trip(self):
        # every open/closed pair of range ends; a range closed at both ends
        # may go bare
        written = parse_workspace(
            "param h, k\n"
            "region U = universe\n"
            "region Q = points(0, -1/2, (2, 3))\n"
            "region R1 = rect([1..h], (1..k))\n"
            "region R2 = rect([1..h), (1..k])\n"
            "fn g\n"
        )
        canonical = [
            "param h",
            "param k",
            "region U = universe",
            "region Q = points(0, -1/2, (2, 3))",
            "region R1 = rect(1..h, (1..k))",
            "region R2 = rect([1..h), (1..k])",
            "fn g",
        ]
        assert written == parse_workspace("\n".join(canonical))


# A token the scanner must never see split: a number such as -1/2, the
# range mark "..", a name, or any other single character.
_TOKEN = re.compile(r"-?\d+(?:/\d+)?|\.\.|[A-Za-z_][A-Za-z0-9_]*|\S")
_FIXTURES = {
    name: (FIXTURES / name).read_text()
    for name in ("matrix_demo.ws", "piecewise_demo.ws", "spline_demo.ws", "steps_demo.ws")
}


class TestScanner:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(_FIXTURES)), data=st.data())
    def test_respaced_canonical_text_parses_to_an_equal_workspace(self, name, data):
        # each fixture line, its comment removed, with its tokens respaced:
        # tokens that touch may be spaced, and tokens apart stay apart
        original = _FIXTURES[name]
        lines = []
        for line in original.splitlines():
            line = line.split("#", 1)[0]
            tokens = list(_TOKEN.finditer(line))
            out = data.draw(st.text(" \t", max_size=2))
            for prev, tok in zip([None] + tokens, tokens):
                if prev is not None:
                    spaced = prev.end() < tok.start()
                    out += data.draw(st.text(" \t", min_size=int(spaced), max_size=3))
                out += tok.group()
            lines.append(out + data.draw(st.text(" \t", max_size=2)))
        assert parse_workspace("\n".join(lines)) == parse_workspace(original)

    PRELUDE = (
        "param a, n, m, h, k\nregion U = interval[0, 1)\n"
        "region A = interval[0, a)\nfn f = 1\n"
    )

    # one malformed line per declaration kind, after the four-line prelude
    @pytest.mark.parametrize(
        "line, message, column",
        [
            ("param a2, 1b", "expected a name", 11),
            ("fn 1f = x", "expected a name", 4),
            ("region I = interval[0, 1", "expected ']' or ')'", 25),
            ("region I = interval 0, 1)", "expected '[' or '('", 21),
            ("region R = rect(1..h, 1..)", "expected a number or parameter name", 26),
            ("region R = rect([1..h, 1..k)", "expected ']' or ')'", 22),
            ("region Q = points(0, (1, ))", "expected a number", 26),
            ("region Q = circle(0)", "unknown shape 'circle'", 12),
            ("partition P of U = A,, U - A", "expected a region name", 22),
            ("partition P of U = A, 2/3*U", "expected '*'", 24),
            ("expr E = mjoin(-, f^A)", "expected a star operation (+, *, merge)", 16),
            ("matrix M = dims(n, m) split(h, k) blocks(A2, B2, C2)", "expected ','", 52),
            ("matrix M = dims(n, m) splitt(h, k) blocks(A2, B2, C2, D2)", "expected 'split'", 23),
            ("spline S = knots(a b)", "expected ')'", 20),
            ("valuation v: a == 1", "expected a number", 17),
            # a number's minus touches its digits
            ("valuation v: a = - 3", "expected a number", 18),
            ("valuation v: a = -\t3", "expected a number", 18),
            ("region R = interval[- 1, 2]", "expected a number or parameter name", 21),
            ("valuation v: a = ٣/0", "zero denominator", 18),
            # lines that end right after '('
            ("region R = rect(", "expected a number or parameter name", 17),
            ("region R = points(", "expected a number", 19),
            ("expr E = join(", "expected a function name", 15),
            ("expr E = join((", "expected a function name", 16),
            ("fn g = (", "expected a number, a name or '('", 9),
            # a combination's first sign is a minus or none
            ("expr E = join(f^(+A))", "expected a region name", 18),
        ],
    )
    def test_malformed_lines_report_message_line_and_column(self, line, message, column):
        with pytest.raises(ParseError) as exc:
            parse_workspace(self.PRELUDE + line)
        err = exc.value
        assert (err.line, err.column) == (5, column)
        assert str(err) == f"line 5, col {column}: {message}"

    # what each accepted line declares, after the prelude
    @pytest.mark.parametrize(
        "line, registry, name, declared",
        [
            ("param b,\tc", "params", None, "a, n, m, h, k, b, c"),
            ("fn g = 2\t*\tx", "atoms", "g",
             "FunctionAtom(name='g', body=Chain(first=Num(value=Fraction(2, 1)), "
             "rest=(('*', Ref(name='x')),)))"),
            ("valuation v: a = -3", "valuations", "v", "Valuation(a=-3)"),
            # Unicode decimal digits are digits
            ("valuation v: a = ٣/٤", "valuations", "v", "Valuation(a=3/4)"),
            ("valuation v: a = -٣", "valuations", "v", "Valuation(a=-3)"),
            ("region R = interval[0, ٣]", "regions", "R",
             "RegionAtom(name='R', shape=Interval1D(lo=Fraction(0, 1), hi=Fraction(3, 1), "
             "lo_closed=True, hi_closed=True))"),
            ("fn g = -٣", "atoms", "g", "FunctionAtom(name='g', body=Neg(operand=Num(value=Fraction(3, 1))))"),
            ("partition P of U = ٢*A, U - ٢*A", "partitions", "P", "2*A | U - 2*A"),
            ("expr E = mjoin(⋈, f^A, f^U)", "exprs", "E", "⋈: f^{A} ⊛⋈ f^{U}"),
            ("expr E = mjoin(merge, f^A)", "exprs", "E", "⋈: f^{A}"),
            ("expr E = join(f^(-A + U))", "exprs", "E", "join: f^{U - A}"),
            ("region R = rect(1..h, 1..k)", "regions", "R",
             "RegionAtom(name='R', shape=GridRect(rows=Interval1D(lo=Fraction(1, 1), hi='h', "
             "lo_closed=True, hi_closed=True), cols=Interval1D(lo=Fraction(1, 1), hi='k', "
             "lo_closed=True, hi_closed=True)))"),
            ("region R = rect(1..h, [1..k))", "regions", "R",
             "RegionAtom(name='R', shape=GridRect(rows=Interval1D(lo=Fraction(1, 1), hi='h', "
             "lo_closed=True, hi_closed=True), cols=Interval1D(lo=Fraction(1, 1), hi='k', "
             "lo_closed=True, hi_closed=False)))"),
            ("fn g = 2 # a comment", "atoms", "g", "FunctionAtom(name='g', body=Num(value=Fraction(2, 1)))"),
            ("fn g = 2# a comment", "atoms", "g", "FunctionAtom(name='g', body=Num(value=Fraction(2, 1)))"),
            ("fn g = x\t# after a tab", "atoms", "g", "FunctionAtom(name='g', body=Ref(name='x'))"),
            ("param b # c, d", "params", None, "a, n, m, h, k, b"),
        ],
    )
    def test_accepted_lines_declare_what_they_say(self, line, registry, name, declared):
        ws = parse_workspace(self.PRELUDE + line)
        if registry == "params":
            assert ", ".join(ws.params) == declared
            return
        value = getattr(ws, registry)[name]
        if registry == "exprs":
            value = f"{value.star.name if value.is_marked else 'join'}: {value.render()}"
        elif registry == "partitions":
            value = " | ".join(piece.render() for piece in value.pieces)
        else:
            value = repr(value)
        assert value == declared

    def test_a_number_starts_at_exactly_the_characters_backslash_d_matches(self):
        # Cursor.at_number tests characters, not the number pattern; the two
        # agree on every code point, with or without a minus in front.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        digits = re.findall(r"\d", every)
        assert digits == [c for c in every if c.isdecimal()]
        digit_set = set(digits)
        for c in digits + ["²", "½", "Ⅻ", "٫", "a", "-", "/", " ", "\t"]:
            assert Cursor(c).at_number() == (c in digit_set) == Cursor("-" + c).at_number()
            assert not Cursor("- " + c).at_number()

    def test_malformed_inline_expression_has_a_column_but_no_line(self):
        ws = parse_workspace(self.PRELUDE)
        with pytest.raises(ParseError) as exc:
            parse_expr_text(ws, "mjoin(+, (f^2 * )^A)")
        err = exc.value
        assert (str(err), err.line, err.column) == ("col 17: expected a function name", None, 17)

    @pytest.mark.parametrize("body", ["2 +", "(x", "", "x )", "2x"])
    def test_fn_body_errors_stay_parse_errors_on_their_line(self, body):
        with pytest.raises(ParseError) as exc:
            parse_workspace(f"param a\nfn f = {body}")
        assert exc.value.line == 2
        with pytest.raises(ParseError):
            parse_scalar(body)

    @pytest.mark.parametrize("body", ["x\v+ 1", "x\xa0+ 1", "é", "x²"])
    def test_bodies_take_only_ascii_names_and_space_or_tab(self, body):
        with pytest.raises(ParseError):
            parse_scalar(body)

    def test_body_constants_are_not_capped_at_64_bits(self):
        ws = parse_workspace("fn f = 99999999999999999999 * x")
        assert ws.atoms["f"].value(F(2)) == 199999999999999999998

    @pytest.mark.parametrize(
        "line, column",
        [
            ("partition P of U = 99999999999999999999*A, U", 20),
            ("partition P of U = A, U - 9223372036854775809*A", 27),
            ("partition P of U = A, U - -9223372036854775808*A", 27),
            ("expr E = join((f^99999999999999999999)^A)", 18),
            ("expr E = join((f^-9223372036854775809)^A)", 18),
        ],
    )
    def test_integer_literals_outside_64_bits_are_parse_errors(self, line, column):
        with pytest.raises(ParseError) as exc:
            parse_workspace(self.PRELUDE + line)
        assert (exc.value.line, exc.value.column) == (5, column)
        assert "leaves the 64-bit range" in str(exc.value)

    LONG = "5" * 5000

    @pytest.mark.parametrize(
        "line, column, message",
        [
            ("valuation v: a = 1/0", 18, "zero denominator"),
            ("region R = interval[0, 1/0]", 24, "zero denominator"),
            (f"valuation v: a = {LONG}", 18, "number longer than {} digits"),
            (f"valuation v: a = 1/{LONG}", 18, "number longer than {} digits"),
            (f"region R = interval[0, {LONG}]", 24, "number longer than {} digits"),
            (f"fn g = 2 * {LONG}", 12, "number longer than {} digits"),
            (f"expr E = join((f^{LONG})^A)", 18, "number longer than {} digits"),
        ],
    )
    def test_number_literals_past_the_grammar_are_parse_errors(self, line, column, message):
        with pytest.raises(ParseError) as exc:
            parse_workspace(self.PRELUDE + line)
        err = exc.value
        assert (err.line, err.column) == (5, column)
        assert str(err) == f"line 5, col {column}: " + message.format(sys.get_int_max_str_digits())

    def test_a_coefficient_of_minus_2_to_the_63_round_trips(self):
        # the minus is its own token, so the literal after it may be 2**63
        ws = parse_workspace(
            self.PRELUDE + "expr E = join(f^(U - 9223372036854775807*A - A))"
        )
        assert ws.exprs["E"].terms[0].region.coefficient("A") == -(2**63)
        assert ws == parse_workspace(
            self.PRELUDE + "expr E = join(f^(U - 9223372036854775808*A))"
        )

    def test_the_64_bit_limits_themselves_are_accepted(self):
        ws = parse_workspace(
            self.PRELUDE
            + "expr E = join((f^9223372036854775807)^A, (f^-9223372036854775808)^U)"
        )
        assert ws.exprs["E"].terms[0].word.coefficient("f") == 2**63 - 1

    def test_in_range_literals_that_overflow_together_stay_overflow_errors(self):
        with pytest.raises(MultiplicityOverflowError):
            parse_workspace(
                self.PRELUDE + "expr E = join((f^9223372036854775807 * f)^A)"
            )


# Lines of each form that scalarexpr reads by one match, with literals at and
# past the grammar's edges, and names that are declared and that are not.
_HOT_PRELUDE = (
    "param a, b, c\nregion U = interval[0, 1)\nregion A = interval[0, a)\n"
    "region B = interval[a, 1)\nfn f = 1\nfn g\n"
)
# Most draws make a line the token reader accepts; the rest clash with a
# declared name, name an undeclared one, or write a literal it refuses.
_HOT_FRESH = ["d", "e", "p", "R", "S", "v"] * 3 + ["a", "U", "f", "x", "assumed", "of"]
_HOT_INTS = ["0", "1", "2", "-3", "٣"] * 3 + [
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "5" * 5000,
]
_HOT_NUMBERS = _HOT_INTS + ["1/3", "-7/2", "٣/٤"] * 3 + ["1/0", "2/" + "5" * 5000]


def _hot_line(draw):
    fresh = st.sampled_from(_HOT_FRESH)
    param = st.sampled_from(["a", "b", "c"] * 4 + ["d"])
    region = st.sampled_from(["U", "A", "B"] * 4 + ["R"])
    number = st.sampled_from(_HOT_NUMBERS)
    integer = st.sampled_from(_HOT_INTS)

    def listed(item):
        return ", ".join(draw(st.lists(item, min_size=1, max_size=4)))

    def combo():
        terms = draw(st.lists(st.tuples(st.sampled_from(["+", "-"]), st.none() | integer, region),
                              min_size=1, max_size=4))
        if draw(st.booleans()):
            # the first region again, so that its coefficients may sum to
            # one inside the 64-bit range that the literal alone leaves
            terms.append((draw(st.sampled_from(["+", "-"])), None, terms[0][2]))
        text = "-" if terms[0][0] == "-" else ""
        for i, (sign, k, r) in enumerate(terms):
            text += (f" {sign} " if i else "") + (f"{k}*" if k else "") + r
        return text

    kind = draw(st.sampled_from(["param", "region", "partition", "valuation", "fn", "expr"]))
    if kind == "param":
        return "param " + listed(fresh)
    if kind == "region":
        lo, hi = draw(st.one_of(number, param)), draw(st.one_of(number, param))
        return f"region {draw(fresh)} = interval{draw(st.sampled_from('[('))}{lo}, {hi}{draw(st.sampled_from('])'))}"
    if kind == "partition":
        pieces = draw(st.sampled_from(["A, U - A", "-B + U, B", "2*A, U - 2*A", ""]))
        pieces = pieces or ", ".join(combo() for _ in range(draw(st.integers(1, 3))))
        assumed = draw(st.sampled_from(["", " assumed"]))
        return f"partition {draw(fresh)} of {draw(region)} = {pieces}{assumed}"
    if kind == "valuation":
        return f"valuation {draw(fresh)}: " + listed(st.builds("{} = {}".format, param, number))
    if kind == "fn":
        body = draw(st.sampled_from(["", " = {}", " = -{}", " = {}/{}", " = -{}/{}"]))
        return f"fn {draw(fresh)}" + body.format(draw(integer), draw(integer))
    terms = [f"{draw(st.sampled_from(['f', 'g'] * 3 + ['h']))}^" + draw(st.sampled_from(["{}", "({})"]))
             .format(combo() if draw(st.booleans()) else draw(region))
             for _ in range(draw(st.integers(1, 3)))]
    return f"expr {draw(fresh)} = join({', '.join(terms)})"


def _declared(text):
    """What parsing ``text`` declares, in reading order, or the error."""
    try:
        ws = parse_workspace(text)
    except Exception as e:  # the outcome is compared, whatever it is
        return type(e).__name__, str(e)
    return ws, list(ws.params)


def _variants(line):
    """``line`` and its one-step mutants: each token deleted, duplicated or
    swapped with the next, and a blank put after each number's minus."""
    tokens = list(_TOKEN.finditer(line))
    yield line
    for tok, after in zip(tokens, tokens[1:] + [None]):
        a, b = tok.start(), tok.end()
        yield line[:a] + line[b:]
        yield line[:b] + " " + line[a:]
        if after is not None:
            yield line[:a] + after.group() + line[b:after.start()] + tok.group() + line[after.end():]
        if re.fullmatch(r"-\d.*", tok.group()):
            yield line[:a + 1] + " " + line[a + 1:]


class TestOneMatchForms:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_form_declares_what_the_token_reader_declares(self, data):
        # each line respaced as TestScanner respaces the fixtures, and each
        # of its one-step mutants
        tokens = list(_TOKEN.finditer(_hot_line(data.draw)))
        line = tokens[0].group()
        for prev, tok in zip(tokens, tokens[1:]):
            spaced = prev.end() < tok.start()
            line += data.draw(st.text(" \t", min_size=int(spaced), max_size=2)) + tok.group()

        reads = []  # (matched, taken) on the drawn line
        real = Cursor.take_form
        line_no = _HOT_PRELUDE.count("\n") + 1

        def spy(cur, form, build, *args):
            matched = form[0].fullmatch(cur.text, cur.pos) is not None
            taken = real(cur, form, build, *args)
            if cur.line_no == line_no:
                reads.append((matched, taken))
            return taken

        for variant in _variants(line):
            text = _HOT_PRELUDE + variant
            reads.clear()
            with mock.patch.object(Cursor, "take_form", spy):
                by_form = _declared(text)
            with mock.patch.object(Cursor, "take_form", lambda *args: False):
                by_tokens = _declared(text)
            assert by_form == by_tokens, variant
            matched, taken = reads[-1] if reads else (False, False)
            # a line the form matches and the token reader accepts is read
            # by the form alone
            assert taken == (matched and isinstance(by_tokens[0], Workspace)), variant


# Line breaks: only \n, \r\n and \r end a line.
_NOT_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineBreaks:
    @pytest.mark.parametrize("ch", _NOT_BREAKS)
    def test_other_line_separators_stay_inside_a_comment(self, ch):
        ws = parse_workspace(f"param a # x{ch}param b\nparam c # {ch}\nparam d")
        assert list(ws.params) == ["a", "c", "d"]
        with pytest.raises(ParseError) as exc:
            parse_workspace(f"param a # x{ch}y\nparam b\nparam b")
        assert (exc.value.line, exc.value.column) == (3, 7)

    @pytest.mark.parametrize("ch", _NOT_BREAKS)
    def test_other_line_separators_inside_a_declaration_are_errors(self, ch):
        with pytest.raises(ParseError) as exc:
            parse_workspace(f"param a\nparam b,{ch}c\nparam d")
        assert str(exc.value) == "line 2, col 9: expected a name"

    @pytest.mark.parametrize("ch", _NOT_BREAKS)
    def test_other_line_separators_at_the_end_of_a_declaration_are_errors(self, ch):
        # only spaces and tabs are white space, at the end of a line as in it
        with pytest.raises(ParseError) as exc:
            parse_workspace(f"param a\nparam b{ch}\nparam d")
        assert str(exc.value) == "line 2, col 8: unexpected trailing input"
        with pytest.raises(ParseError) as exc:
            parse_workspace(f"param a\n{ch}\nparam d")
        assert str(exc.value) == "line 2, col 1: expected a declaration keyword"
        assert list(parse_workspace(f"param a \t\nparam b\t # {ch}\n \t\n").params) == ["a", "b"]

    def test_cr_lf_and_cr_end_lines(self):
        ws = parse_workspace("param a\r\nparam b\rparam c\n\r\nparam d")
        assert list(ws.params) == ["a", "b", "c", "d"]
        with pytest.raises(ParseError) as exc:
            parse_workspace("param a\r\nparam b\rparam c\n\r\nparam a")
        assert exc.value.line == 5


class TestOneMatchPerHotLine:
    @staticmethod
    def chain_workspace(n):
        # one partition of n + 1 pieces over n nested regions, as the
        # refine-wide benchmark writes them
        lines = ["param " + ", ".join(f"a{i}" for i in range(1, n + 1)), "region U = interval[0, 1)"]
        lines += [f"region A{i} = interval[0, a{i}{')' if i % 4 else ']'}" for i in range(1, n + 1)]
        pieces = ["A1"] + [f"A{i} - A{i - 1}" for i in range(2, n + 1)] + [f"U - A{n}"]
        lines.append("partition P of U = " + ", ".join(pieces))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("n", [8, 64])
    def test_cursor_calls_per_line_do_not_grow_with_the_line(self, n):
        # a Cursor, its keyword, the form and the end test: four calls a
        # line, however many names or pieces the line holds; a line read
        # token by token would take several calls per token
        calls = []

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return wrapper

        methods = {name: f for name, f in vars(Cursor).items() if callable(f)}
        with mock.patch.multiple(Cursor, **{k: counted(k, f) for k, f in methods.items()}):
            ws = parse_workspace(self.chain_workspace(n))
        assert len(ws.partitions["P"].pieces) == n + 1
        lines = n + 3
        assert len(calls) == 4 * lines
        assert sorted(set(calls)) == ["__init__", "finish", "ident", "take_form"]


class TestPartitionFromPairs:
    # The partition form sums its (region, coefficient) pairs once and
    # builds each piece from them; it does not merge a piece whose names are
    # distinct, nor combine the pieces again to check their sum.
    @staticmethod
    def merges(monkeypatch):
        calls = []
        real = hybridset.merge
        monkeypatch.setattr(
            hybridset, "merge", lambda groups, clash, seed=None: calls.append(clash)
            or real(groups, clash, seed),
        )
        return calls

    def test_pieces_of_distinct_names_merge_nothing(self, monkeypatch):
        calls = self.merges(monkeypatch)
        ws = parse_workspace(TestOneMatchPerHotLine.chain_workspace(64))
        assert len(ws.partitions["P"].pieces) == 65
        assert calls == []

    def test_one_atom_words_and_regions_merge_nothing(self, monkeypatch):
        # the join and matrix lines of the fold-eval and matrix-table texts,
        # and a term read token by token, name one atom per word and per
        # region, which FreeCombination.from_atom builds without a merge
        calls = self.merges(monkeypatch)
        ws = parse_workspace(
            "param t, k\nregion U = interval[0, t]\nregion R = interval(k, t]\nfn z = 0\n"
            "fn a = 2/3\nexpr H = join(z^(U - R), a^R)\nexpr G = mjoin(+, a^R, z^U)\n"
            + (FIXTURES / "matrix_demo.ws").read_text()
        )
        m = ws.matrices["M1"]
        pieces = [b.piece for b in m.blocks]
        assert str(ws.exprs["H"]) == "z^{U - R} ⊛ a^{R}" and str(ws.exprs["G"]) == "a^{R} ⊛+ z^{U}"
        assert [str(p) for p in pieces] == ["A1", "B1", "C1", "D1"]
        assert calls == []

    @pytest.mark.parametrize("pieces", ["A + A - A, U - A", "0*B + A, U - A", "A + B - A, U - B"])
    def test_a_repeat_or_a_zero_is_merged_as_the_token_reader_merges_it(self, monkeypatch, pieces):
        text = _HOT_PRELUDE + f"partition P of U = {pieces}"
        real, taken = Cursor.take_form, []

        def spy(cur, form, build, *args):
            taken.append(real(cur, form, build, *args))
            return taken[-1]

        calls = self.merges(monkeypatch)
        with mock.patch.object(Cursor, "take_form", spy):
            by_form = parse_workspace(text)
        assert taken[-1] and len(calls) == 1
        with mock.patch.object(Cursor, "take_form", lambda *args: False):
            by_tokens = parse_workspace(text)
        assert by_form == by_tokens
