"""Workspace text: parsing, canonical rendering, and error positions."""

import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsets import (
    FinitePointSet,
    MultiplicityOverflowError,
    GridRect,
    Interval1D,
    ParseError,
    Universe,
    Workspace,
    parse_workspace,
    render_workspace,
)
from hybridsets.scalarexpr import parse_scalar
from hybridsets.workspace import parse_expr_text, parse_term_text

F = Fraction

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def parse_fixture(name):
    return parse_workspace((FIXTURES / name).read_text())


class TestFixtures:
    @pytest.mark.parametrize(
        "name",
        ["matrix_demo.ws", "piecewise_demo.ws", "spline_demo.ws", "steps_demo.ws"],
    )
    def test_fixtures_parse_and_round_trip(self, name):
        ws = parse_fixture(name)
        rendered = render_workspace(ws)
        assert parse_workspace(rendered) == ws
        # canonical text is a fixed point
        assert render_workspace(parse_workspace(rendered)) == rendered

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
        assert ws.regions["A"].shape == GridRect(F(1), "h", F(1), "k")
        ws = parse_workspace("param h, n\nregion B = rect((h..n], 1..3)")
        assert ws.regions["B"].shape == GridRect(
            "h", "n", F(1), F(3), row_lo_closed=False
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
        assert ws.exprs["E2"].terms[1].word.exponent("f") == 2
        assert ws.exprs["E2"].terms[1].word.exponent("g") == -1
        assert ws.exprs["E3"].terms[0].word.exponent("f") == 1
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
        assert t.word.exponent("f") == 1
        assert t.region.coefficient("A") == -1

    def test_inline_errors_have_no_line_number(self):
        ws = self.make_ws()
        with pytest.raises(ParseError) as exc:
            parse_expr_text(ws, "join(f^A,)")
        assert exc.value.line is None


class TestRendering:
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
        ws = parse_workspace(text)
        assert render_workspace(ws).splitlines() == [
            "param a",
            "param b",
            "fn f = 2 * x + 1",
            "region U = interval[0, 1)",
            "region A = interval[0, a)",
            "partition P of U = A, U - A",
            "expr E = join(f^A)",
            "valuation v: a = 1/3, b = 2",
        ]

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
        ],
    )
    def test_fn_bodies_round_trip(self, body, canonical):
        ws = parse_workspace(f"param a, b, c\nfn f = {body}")
        text = render_workspace(ws)
        assert text.splitlines()[-1] == f"fn f = {canonical}"
        assert parse_workspace(text) == ws

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
    def test_any_body_round_trips(self, body):
        ws = parse_workspace(f"param a, b\nfn f = {body}")
        text = render_workspace(ws)
        assert parse_workspace(text) == ws
        assert render_workspace(parse_workspace(text)) == text

    def test_matrix_line_round_trips_the_splits(self):
        text = "param n, m, h1, k1\nmatrix M1 = dims(n, m) split(h1, k1) blocks(A1, B1, C1, D1)"
        ws = parse_workspace(text)
        assert (
            "matrix M1 = dims(n, m) split(h1, k1) blocks(A1, B1, C1, D1)"
            in render_workspace(ws).splitlines()
        )


# A token the scanner must never see split: a number such as -1/2, the
# range mark "..", a name, or any other single character.
_TOKEN = re.compile(r"-?\d+(?:/\d+)?|\.\.|[A-Za-z_][A-Za-z0-9_]*|\S")
_CANONICAL = {
    name: render_workspace(parse_fixture(name))
    for name in ("matrix_demo.ws", "piecewise_demo.ws", "spline_demo.ws", "steps_demo.ws")
}


class TestScanner:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(_CANONICAL)), data=st.data())
    def test_respaced_canonical_text_parses_to_an_equal_workspace(self, name, data):
        canonical = _CANONICAL[name]
        lines = []
        for line in canonical.splitlines():
            tokens = list(_TOKEN.finditer(line))
            out = data.draw(st.text(" \t", max_size=2))
            for prev, tok in zip([None] + tokens, tokens):
                if prev is not None:
                    spaced = prev.end() < tok.start()
                    out += data.draw(st.text(" \t", min_size=int(spaced), max_size=3))
                out += tok.group()
            lines.append(out + data.draw(st.text(" \t", max_size=2)))
        respaced = parse_workspace("\n".join(lines))
        assert respaced == parse_workspace(canonical)
        assert render_workspace(respaced) == canonical

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
            ("spline S = knots(a b)", "expected ')'", 20),
            ("valuation v: a == 1", "expected a number", 17),
        ],
    )
    def test_malformed_lines_report_message_line_and_column(self, line, message, column):
        with pytest.raises(ParseError) as exc:
            parse_workspace(self.PRELUDE + line)
        err = exc.value
        assert (err.line, err.column) == (5, column)
        assert str(err) == f"line 5, col {column}: {message}"

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
        rendered = render_workspace(ws)
        assert "expr E = join(f^(U - 9223372036854775808*A))" in rendered.splitlines()
        assert parse_workspace(rendered) == ws

    def test_the_64_bit_limits_themselves_are_accepted(self):
        ws = parse_workspace(
            self.PRELUDE
            + "expr E = join((f^9223372036854775807)^A, (f^-9223372036854775808)^U)"
        )
        assert ws.exprs["E"].terms[0].word.exponent("f") == 2**63 - 1

    def test_in_range_literals_that_overflow_together_stay_overflow_errors(self):
        with pytest.raises(MultiplicityOverflowError):
            parse_workspace(
                self.PRELUDE + "expr E = join((f^9223372036854775807 * f)^A)"
            )
