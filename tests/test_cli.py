"""Command-line interface tests.

Most cases drive ``hybridsets.cli.main`` in-process and freeze the exact
text the tool prints; a couple of smoke tests go through the installed
console script (or ``python -m hybridsets.cli`` on this checkout when the
script is not installed) to make sure the entry point is wired up.
"""

import json
import os
import shutil
import subprocess
import signal
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hybridsets import HybridError, NonEvaluableError, cli, functions, regions
from hybridsets.cli import SIZE_CAP, main
from hybridsets.matrices import matrix_add_with_refinement
from hybridsets.hybridset import render_element
from hybridsets.regions import resolve_param
from hybridsets.scalarexpr import MAX_NESTING
from hybridsets.workspace import parse_workspace

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
PIECEWISE = str(FIXTURES / "piecewise_demo.ws")
MATRIX = str(FIXTURES / "matrix_demo.ws")
SPLINE = str(FIXTURES / "spline_demo.ws")
STEPS = str(FIXTURES / "steps_demo.ws")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_named_expression(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", PIECEWISE, "F", "--at", "1/6", "--with", "v1"
        )
        assert (code, out, err) == (0, "2\n", "")

    def test_empty_expression_is_undefined_but_succeeds(self, capsys):
        code, out, err = run_cli(capsys, "eval", PIECEWISE, "E0", "--at", "1/2")
        assert code == 0
        assert out == "undefined\n"
        assert err == ""

    def test_marked_product_expression(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", PIECEWISE, "FG", "--at", "1/6", "--with", "v1"
        )
        assert code == 0
        assert out == "10\n"

    def test_inline_expression(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", PIECEWISE, "join(f1^A1)", "--at", "1/6", "--with", "v1"
        )
        assert code == 0
        assert out == "2\n"

    def test_inline_valuation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval",
            PIECEWISE,
            "F",
            "--at",
            "1/6",
            "--with",
            "a = 1/3, b = 2/3",
        )
        assert code == 0
        assert out == "2\n"

    def test_multiplicity_is_reported(self, capsys):
        # a1 lives on both Q1 = [0, 4] and Q2 = [2, 6]; joining the two
        # marked terms at a shared point doubles the region multiplicity.
        code, out, _ = run_cli(
            capsys, "eval", STEPS, "mjoin(+, a1^Q1, a1^Q2)", "--at", "3"
        )
        assert code == 0
        assert out == "4 (multiplicity 2)\n"

    def test_exponent_written_in_few_digits_evaluates_quickly(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", PIECEWISE, "mjoin(+, (f1^1000000000000000000)^U)", "--at", "1/2"
        )
        assert (code, out) == (0, "2000000000000000000\n")

    def test_json_lines_defined(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval",
            PIECEWISE,
            "FG",
            "--at",
            "1/6",
            "--with",
            "v1",
            "--format",
            "json-lines",
        )
        assert code == 0
        record = json.loads(out)
        assert record == {
            "expr": "FG",
            "at": "1/6",
            "defined": True,
            "value": "10",
            "multiplicity": 1,
        }

    def test_json_lines_undefined_has_no_value_key(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", PIECEWISE, "E0", "--at", "1/2", "--format", "json-lines"
        )
        assert code == 0
        record = json.loads(out)
        assert record == {"expr": "E0", "at": "1/2", "defined": False}


class TestMergeOrders:
    """The orders a merge leaves its names in reach the output: exponent sums
    keep each atom's first place when it cancels and returns, and so does a
    region combination, whose order decides which parameter is asked first."""

    def test_formal_value_lists_atoms_by_first_appearance(self, capsys, tmp_path):
        ws = tmp_path / "order.ws"
        ws.write_text(
            "fn f = 2\nfn g = 3\n"
            "region A = interval[0, 1]\nregion B = interval[0, 2]\nregion C = interval[0, 3]\n"
            "expr E = mjoin(merge, (f * g)^A, (f^-1)^B, f^C)\n"
        )
        code, out, err = run_cli(capsys, "eval", str(ws), "E", "--at", "1/2")
        assert (code, out, err) == (0, "f ⋈ g (multiplicity 3)\n", "")

    def test_region_asks_its_first_parameter_first(self, capsys, tmp_path):
        ws = tmp_path / "order.ws"
        ws.write_text(
            "param a, b\nfn f = 2\n"
            "region A = interval[0, a]\nregion B = interval[0, b]\n"
            "expr E = join(f^(A + B - A + A))\n"
        )
        code, out, err = run_cli(capsys, "eval", str(ws), "E", "--at", "1/2")
        assert (code, out, err) == (1, "", "error: parameter 'a' has no value\n")


class TestRefine:
    def test_two_partition_refinement_full_output(self, capsys):
        code, out, err = run_cli(capsys, "refine", PIECEWISE, "P", "Q")
        assert code == 0
        assert err == ""
        assert out.splitlines() == [
            "refinement of P, Q: 3 pieces",
            "  P1 = U - A1 - B1",
            "  P2 = A1",
            "  P3 = B1",
            "rewrites:",
            "  P.1 = P2",
            "  P.2 = P1 + P3",
            "  Q.1 = P3",
            "  Q.2 = P1 + P2",
            "choice matrix (det 1):",
            "  U: [1 1 1]",
            "  P.1: [0 1 0]",
            "  Q.1: [0 0 1]",
        ]

    def test_upper_triangle_style(self, capsys):
        code, out, _ = run_cli(
            capsys, "refine", PIECEWISE, "P", "Q", "--style", "full-upper-triangle"
        )
        assert code == 0
        assert out.splitlines() == [
            "refinement of P, Q: 3 pieces",
            "  P1 = U - A1",
            "  P2 = A1 - B1",
            "  P3 = B1",
            "rewrites:",
            "  P.1 = P2 + P3",
            "  P.2 = P1",
            "  Q.1 = P3",
            "  Q.2 = P1 + P2",
            "choice matrix (det 1):",
            "  U: [1 1 1]",
            "  P.1: [0 1 1]",
            "  Q.1: [0 0 1]",
        ]

    def test_matrix_partitions_give_seven_pieces(self, capsys):
        code, out, _ = run_cli(capsys, "refine", MATRIX, "M1", "M2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "refinement of M1, M2: 7 pieces"
        assert "choice matrix (det 1):" in lines
        # every declared block is rewritten as a sum of refinement labels
        start = lines.index("rewrites:") + 1
        stop = lines.index("choice matrix (det 1):")
        rewrites = lines[start:stop]
        assert len(rewrites) == 8
        assert rewrites[0] == "  M1.A1 = P2"
        assert rewrites[3] == "  M1.D1 = P1 + P5 + P6 + P7"
        assert rewrites[7] == "  M2.D2 = P1 + P2 + P3 + P4"


class TestMatrixAdd:
    EXPR_LINE = (
        "(D1 + D2)^{U - A1 - A2 - B1 - B2 - C1 - C2}"
        " ⊛+ (A1 + D2)^{A1} ⊛+ (B1 + D2)^{B1} ⊛+ (C1 + D2)^{C1}"
        " ⊛+ (A2 + D1)^{A2} ⊛+ (B2 + D1)^{B2} ⊛+ (C2 + D1)^{C2}"
    )

    def test_expression_render(self, capsys):
        code, out, _ = run_cli(capsys, "matrix-add", MATRIX, "M1", "M2")
        assert code == 0
        assert out == self.EXPR_LINE + "\n"

    def test_cell_under_first_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys, "matrix-add", MATRIX, "M1", "M2", "--cell", "2,1", "--with", "v1"
        )
        assert code == 0
        assert out.splitlines() == [self.EXPR_LINE, "cell (2, 1): A2 + B1"]

    def test_cell_under_swapped_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys, "matrix-add", MATRIX, "M1", "M2", "--cell", "2,1", "--with", "v2"
        )
        assert code == 0
        assert out.splitlines()[-1] == "cell (2, 1): A1 + B2"

    def test_cell_json_lines(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "matrix-add",
            MATRIX,
            "M1",
            "M2",
            "--cell",
            "2,1",
            "--with",
            "v1",
            "--format",
            "json-lines",
        )
        assert code == 0
        record = json.loads(out)
        assert record == {
            "expr": "M1+M2",
            "at": "(2, 1)",
            "defined": True,
            "value": "A2 + B1",
            "multiplicity": 1,
        }

    def test_full_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "matrix-add", MATRIX, "M1", "M2", "--table", "--with", "v1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == self.EXPR_LINE
        assert len(lines) == 1 + 16
        assert lines[1] == "(1, 1): A1 + A2"
        assert lines[-1] == "(4, 4): D1 + D2"

    def test_table_json_lines_are_parseable(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "matrix-add",
            MATRIX,
            "M1",
            "M2",
            "--table",
            "--with",
            "v1",
            "--format",
            "json-lines",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 16
        assert all(r["defined"] for r in records)
        assert records[0]["at"] == "(1, 1)"


class TestSplineMerge:
    MERGE_LINE = (
        "(S[a,c] ⋈ T[d,b])^{S.P1} ⊛⋈ (S[c,b] ⋈ T[a,d])^{T.P1}"
        " ⊛⋈ (S[c,b] ⋈ T[d,b])^{U[a,b] - S.P1 - T.P1}"
    )

    def test_merge_render_without_point(self, capsys):
        code, out, _ = run_cli(capsys, "spline-merge", SPLINE, "S", "T")
        assert code == 0
        assert out == self.MERGE_LINE + "\n"

    @pytest.mark.parametrize(
        "valuation, at, described",
        [
            ("v1", "1/2", "S[a,c] ⋈ T[a,d] on [0, 1]"),
            ("v1", "3/2", "S[c,b] ⋈ T[a,d] on [1, 2]"),
            ("v1", "5/2", "S[c,b] ⋈ T[d,b] on [2, 3]"),
            ("v2", "3/2", "S[a,c] ⋈ T[d,b] on [1, 2]"),
            # interior knots, both end knots, and points outside U
            ("v1", "1", "S[a,c] ⋈ T[a,d] on [0, 1]"),
            ("v1", "2", "S[c,b] ⋈ T[a,d] on [1, 2]"),
            ("v1", "0", "S[a,c] ⋈ T[a,d] on [0, 1]"),
            ("v1", "3", "S[c,b] ⋈ T[d,b] on [2, 3]"),
            ("v1", "4", "undefined"),
            ("v1", "-1/2", "undefined"),
            # the empty-intersection and degenerate valuations of the spline tests
            ("a=0, c=1, d=2, b=3", "5/2", "S[c,b] ⋈ T[d,b] on [2, 3]"),
            ("a=0, c=1, d=1, b=3", "1", "S[a,c] ⋈ T[a,d] on [0, 1]"),
            ("a=0, c=1, d=1, b=3", "3", "S[c,b] ⋈ T[d,b] on [1, 3]"),
            ("a=0, c=0, d=0, b=0", "0", "S[a,c] ⋈ T[a,d] on [0, 0] (degenerate)"),
        ],
    )
    def test_merge_evaluation(self, capsys, valuation, at, described):
        code, out, _ = run_cli(
            capsys, "spline-merge", SPLINE, "S", "T", "--at", at, "--with", valuation
        )
        assert code == 0
        assert out.splitlines() == [self.MERGE_LINE, f"at {at}: {described}"]


class TestChecks:
    def test_karr_fixed_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "karr", STEPS, "--summand", "sq", "--bounds", "0,5,3"
        )
        assert code == 0
        assert out == "signed-sum identities for 'sq': OK (2 checks)\n"

    def test_karr_parametric_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            "karr",
            STEPS,
            "--summand",
            "lin",
            "--bounds",
            "0,k1,k2",
            "--with",
            "v1",
        )
        assert code == 0
        assert out == "signed-sum identities for 'lin': OK (2 checks)\n"

    def test_karr_unresolved_parameter_fails(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "karr", STEPS, "--summand", "lin", "--bounds", "0,k1,k2"
        )
        assert code == 1
        assert "parameter" in err and "no value" in err

    def test_invert_additive_star(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "invert", STEPS, "--term", "one^P", "--star", "+"
        )
        assert code == 0
        assert out == "inverse identity for 'one' under '+': OK (101 checks)\n"

    def test_invert_on_an_opaque_atom_lists_the_formal_residue(self, capsys, tmp_path):
        # ~g is g renamed, so the free group keeps g + ~g^-1 apart
        ws = tmp_path / "opaque.ws"
        ws.write_text("fn g\nregion Q1 = interval[0, 4]\nregion Q2 = interval[2, 6]\n")
        code, out, err = run_cli(
            capsys, "check", "invert", str(ws), "--term", "g^(Q1 + Q2)", "--grid", "0,6,4"
        )
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "inverse identity for 'g' under '+': FAIL (4 checks)",
            "  at 0: expected 0 with multiplicity 1, got g + ~g^-1 with multiplicity 1",
            "  at 2: expected 0 with multiplicity 2, got g^2 + ~g^-2 with multiplicity 2",
            "  at 4: expected 0 with multiplicity 2, got g^2 + ~g^-2 with multiplicity 2",
            "  at 6: expected 0 with multiplicity 1, got g + ~g^-1 with multiplicity 1",
        ]

    def test_invert_rejects_star_without_inverse(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "invert", STEPS, "--term", "one^P", "--star", "⋈"
        )
        assert code == 1
        assert "has no declared inverse" in err

    def test_linear_report_and_application(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check",
            "linear",
            STEPS,
            "--op",
            "sum",
            "--term",
            "one^P",
            "--grid",
            "0,10,11",
        )
        assert code == 0
        assert out.splitlines() == [
            "linearity of 'sum': OK (10 checks)",
            "sum over one^P = 11",
        ]

    def test_linear_reads_no_value_where_the_multiplicity_is_0(self, capsys, tmp_path):
        # 1/x is undefined at x = 0, which lies outside R
        ws = tmp_path / "reciprocal.ws"
        ws.write_text("region U = interval[0, 10]\nregion R = interval[1, 10]\nfn f = 1 / x\n")
        code, out, err = run_cli(
            capsys, "check", "linear", str(ws), "--term", "f^R", "--grid", "0,10,11"
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "linearity of 'sum': OK (10 checks)",
            "sum over f^R = 7381/2520",
        ]

    def test_linear_unknown_operator(self, capsys):
        code, _, err = run_cli(capsys, "check", "linear", STEPS, "--op", "max")
        assert code == 1
        assert "'max' is not declared" in err

    def test_partition_ok(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "partition", PIECEWISE, "P", "--with", "v1"
        )
        assert code == 0
        assert out == "partition P: OK (102 points)\n"

    def test_partition_on_grid_universe(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "partition", MATRIX, "M1", "--with", "v1"
        )
        assert code == 0
        assert out == "partition M1: OK (16 points)\n"

    def test_assumed_partition_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.ws"
        bad.write_text(
            "param a\n"
            "region U = interval[0, 1)\n"
            "region A1 = interval[0, a)\n"
            "partition BAD of U = A1, A1 assumed\n"
        )
        code, out, _ = run_cli(
            capsys, "check", "partition", str(bad), "BAD", "--with", "a = 1/2"
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "partition BAD: FAIL (101 points)"
        assert "  at 0: pieces sum to 2, universe gives 1" in lines


class TestExitCodes:
    def test_missing_workspace_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "no_such_file.ws", "F", "--at", "0")
        assert code == 2
        assert "cannot read workspace" in err

    def test_a_byte_order_mark_is_not_part_of_line_1(self, capsys, tmp_path):
        text = "param a\nregion U = interval[0, 2]\nfn f = x + a\nexpr E = join(f^U)\n"
        plain, bom = tmp_path / "plain.ws", tmp_path / "bom.ws"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        outs = [run_cli(capsys, "eval", str(ws), "E", "--at", "0", "--with", "a=1")
                for ws in (plain, bom)]
        assert outs[0] == outs[1] == (0, "1\n", "")
        # a mark anywhere else is still text, and an error at its column
        bom.write_text("param a\n\ufeffparam b\n", encoding="utf-8-sig")
        code, _, err = run_cli(capsys, "eval", str(bom), "E", "--at", "0")
        assert (code, err) == (2, "error: line 2, col 1: expected a declaration keyword\n")

    def test_unknown_partition_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "refine", PIECEWISE, "P", "NOPE")
        assert code == 2
        assert "unknown partition 'NOPE'" in err

    # A bare name is a workspace valuation, and one the workspace lacks is
    # named as such; a name followed by more text is read inline, where
    # every name must be a declared parameter.
    @pytest.mark.parametrize(
        "argv, err",
        [
            (["eval", PIECEWISE, "F", "--at", "0", "--with", "nope"],
             "no valuation 'nope' in the workspace"),
            (["eval", PIECEWISE, "F", "--at", "0", "--with", "a"],
             "no valuation 'a' in the workspace"),
            (["matrix-add", MATRIX, "M1", "M2", "--with", "v9"],
             "no valuation 'v9' in the workspace"),
            (["eval", PIECEWISE, "F", "--at", "0", "--with", " nope"],
             "bad valuation ' nope': col 2: unresolved name 'nope'"),
            (["eval", PIECEWISE, "F", "--at", "0", "--with", "nope x"],
             "bad valuation 'nope x': col 1: unresolved name 'nope'"),
        ],
    )
    def test_an_unknown_valuation_name_is_usage_error(self, capsys, argv, err):
        assert run_cli(capsys, *argv) == (2, "", f"error: {err}\n")

    RARE_WORKSPACES = {
        "rare": "param c\nregion U = universe\nregion A = interval[0, 2]\n"
                "region S = points(1, 2, (3, 4))\npartition PS of S = S\n"
                "fn f = 3\nfn g = 3\nfn h = x * c\nfn p = +x\n",
        "duplicate": "param n, m, h, k\nregion U = universe\npartition M of U = U\n"
                     "matrix M = dims(n, m) split(h, k) blocks(A, B, C, D)\n",
        "eager": "param k\nfn f = 1\nregion G = rect(1..2, 1..k)\nregion I = interval[1, k]\n",
        "span": "param a, b\nregion G = rect((0..a], [1..b))\nregion H = rect(1..1, 1..1)\n"
                "partition W of G = H, G - H\n",
    }

    # Inputs that reach a path no other test runs, each with its whole
    # output; "WS" stands for the workspace path.
    @pytest.mark.parametrize(
        "name, argv, want",
        [
            ("rare", ["eval", "WS", "join(f^Nope)", "--at", "1"],
             (2, "", "error: col 8: unresolved name 'Nope'\n")),
            ("rare", ["eval", "WS", "join((f * f^-1)^U)", "--at", "1"],
             (2, "", "error: col 6: term value word must be non-empty\n")),
            ("duplicate", ["eval", "WS", "X", "--at", "1"],
             (2, "", "error: line 4, col 8: duplicate partition name 'M'\n")),
            ("rare", ["check", "invert", "WS", "--term", "f^A", "--star", "nope"],
             (2, "", "error: unknown star 'nope'\n")),
            ("rare", ["check", "partition", "WS", "PS"], (0, "partition PS: OK (3 points)\n", "")),
            # equal values of distinct atoms cancel in a plain join
            ("rare", ["eval", "WS", "join(f^A, g^(-A))", "--at", "1"], (0, "undefined\n", "")),
            ("rare", ["eval", "WS", "join(p^U)", "--at", "7/2"], (0, "7/2\n", "")),
            # a body's parameter without a value; an inline valuation may
            # name declared parameters only
            ("rare", ["eval", "WS", "join(h^U)", "--at", "1"],
             (1, "", "error: parameter 'c' has no value\n")),
            ("rare", ["eval", "WS", "join(h^U)", "--at", "1", "--with", "d=1"],
             (2, "", "error: bad valuation 'd=1': col 1: unresolved name 'd'\n")),
            # an undeclared operator is refused before the term or grid is read
            ("rare", ["check", "linear", STEPS, "--op", "max", "--term", "one^P",
                      "--grid", "0,10,-2"],
             (1, "", "error: linear operator 'max' is not declared\n")),
            # a shape resolves all its ends before it tests a range: a cell
            # outside the rows 1..2, or a point below 1, still needs k
            ("eager", ["eval", "WS", "join(f^G)", "--at", "(5, 1)"],
             (1, "", "error: parameter 'k' has no value\n")),
            ("eager", ["eval", "WS", "join(f^I)", "--at", "0"],
             (1, "", "error: parameter 'k' has no value\n")),
            # the sampled grid of a rectangle universe holds the integers
            # strictly inside its open, rational ends: rows 1..3, columns 1..2
            ("span", ["check", "partition", "WS", "W", "--with", "a=7/2, b=3"],
             (0, "partition W: OK (6 points)\n", "")),
            ("span", ["check", "partition", "WS", "W", "--with", "a=3, b=5/2"],
             (0, "partition W: OK (6 points)\n", "")),
        ],
    )
    def test_rare_inputs_give_their_frozen_output(self, capsys, tmp_path, name, argv, want):
        ws = tmp_path / f"{name}.ws"
        ws.write_text(self.RARE_WORKSPACES[name])
        assert run_cli(capsys, *[str(ws) if a == "WS" else a for a in argv]) == want

    def test_bad_cell_spec_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "matrix-add", MATRIX, "M1", "M2", "--cell", "oops"
        )
        assert code == 2
        assert "bad cell 'oops'" in err

    def test_inline_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", PIECEWISE, "join(f1^A1", "--at", "0")
        assert code == 2
        assert "expected ')'" in err

    def test_unresolved_parameter_is_evaluation_failure(self, capsys):
        code, _, err = run_cli(capsys, "eval", PIECEWISE, "F", "--at", "1/6")
        assert code == 1
        assert "parameter 'a' has no value" in err

    def test_missing_required_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", PIECEWISE, "F"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()


def run_cli_within_a_second(capsys, *argv):
    """run_cli, stopped with TimeoutError if it is still running after 1 s.

    A build without the size cap would run for hours and, on a grid, grow
    its memory with the count; the alarm keeps such a failure cheap.
    """

    def stop(signum, frame):
        raise TimeoutError("the command was still running after 1 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return run_cli(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSizeCap:
    UNIVERSE_WS = (
        "region U = universe\nregion A = interval[0, 1)\npartition P of U = A, U - A\n"
    )

    @pytest.mark.parametrize("count", [SIZE_CAP + 1, 10**8, 10**18])
    @pytest.mark.parametrize(
        "command",
        [
            ["check", "invert", STEPS, "--term", "one^P"],
            ["check", "linear", STEPS, "--term", "one^P"],
            ["check", "partition", "UNIVERSE", "P"],
        ],
    )
    def test_grid_count_above_the_cap_is_a_usage_error(
        self, capsys, tmp_path, command, count
    ):
        ws = tmp_path / "universe.ws"
        ws.write_text(self.UNIVERSE_WS)
        argv = [str(ws) if arg == "UNIVERSE" else arg for arg in command]
        code, out, err = run_cli_within_a_second(capsys, *argv, "--grid", f"0,10,{count}")
        assert code == 2
        # check linear prints its operator report before it reads the grid
        assert "one^P" not in out
        assert err == (
            f"error: bad grid '0,10,{count}': "
            f"count {count} is above the cap of {SIZE_CAP} points\n"
        )

    def test_grid_count_at_the_cap_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "linear", STEPS, "--term", "one^P", "--grid", f"0,10,{SIZE_CAP}"
        )
        assert code == 0
        assert out.splitlines()[-1] == f"sum over one^P = {SIZE_CAP}"

    @pytest.mark.parametrize(
        "bounds, valuation",
        [
            ("0,100000000,5", None),
            (f"0,0,{SIZE_CAP + 1}", None),
            ("k1,k2,k1", "k1 = 0, k2 = 1000000000000000000"),
        ],
    )
    def test_karr_span_above_the_cap_is_a_usage_error(self, capsys, bounds, valuation):
        extra = ["--with", valuation] if valuation else []
        code, out, err = run_cli_within_a_second(
            capsys, "check", "karr", STEPS, "--summand", "sq", "--bounds", bounds, *extra
        )
        assert (code, out) == (2, "")
        assert err == f"error: summation span too large; cap is {SIZE_CAP} terms\n"

    # Counts that are both negative multiply to a positive product; the grid
    # is empty all the same.  An empty axis costs nothing in the other's value.
    @pytest.mark.parametrize("n, m", [(-100, -100), (-3, 5), (0, 10**12), (10**12, 0)])
    def test_a_negative_count_is_an_empty_grid(self, capsys, n, m):
        v = f"n={n},m={m},h1=1,k1=1,h2=2,k2=2"
        table = ["matrix-add", MATRIX, "M1", "M2", "--table", "--with", v]
        assert run_cli_within_a_second(capsys, *table) == (0, TestMatrixAdd.EXPR_LINE + "\n", "")
        assert run_cli_within_a_second(capsys, *table, "--format", "json-lines") == (0, "", "")
        assert run_cli_within_a_second(capsys, "check", "partition", MATRIX, "M1", "--with", v) == (
            0, "partition M1: OK (0 points)\n", ""
        )

    @pytest.mark.parametrize("count", [65, 10**9])
    def test_matrix_grid_above_the_cap_is_a_usage_error(self, capsys, count):
        v = f"n={count},m={count},h1=1,k1=1,h2=2,k2=2"
        assert run_cli_within_a_second(
            capsys, "matrix-add", MATRIX, "M1", "M2", "--table", "--with", v
        ) == (2, TestMatrixAdd.EXPR_LINE + "\n", f"error: table too large; cap is {SIZE_CAP} cells\n")
        assert run_cli_within_a_second(capsys, "check", "partition", MATRIX, "M1", "--with", v) == (
            2, "", f"error: universe grid too large; cap is {SIZE_CAP} cells\n"
        )

    def test_matrix_table_needs_integer_dimensions(self, capsys):
        v = "n=7/2,m=4,h1=1,k1=1,h2=2,k2=2"
        assert run_cli_within_a_second(
            capsys, "matrix-add", MATRIX, "M1", "M2", "--table", "--with", v
        ) == (2, TestMatrixAdd.EXPR_LINE + "\n", "error: matrix dimensions must resolve to integers\n")

    def test_karr_span_at_the_cap_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "karr", STEPS, "--summand", "lin", "--bounds", f"0,{SIZE_CAP},0"
        )
        assert code == 0
        assert out == "signed-sum identities for 'lin': OK (2 checks)\n"


class TestIntegerLiterals:
    def test_inline_exponent_outside_64_bits_is_a_parse_error(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", PIECEWISE, "mjoin(+, (f1^99999999999999999999)^U)", "--at", "1/2"
        )
        assert (code, out) == (2, "")
        assert err == "error: col 14: integer 99999999999999999999 leaves the 64-bit range\n"

    def test_workspace_coefficient_outside_64_bits_is_a_parse_error(self, capsys, tmp_path):
        ws = tmp_path / "big.ws"
        ws.write_text(
            "region U = interval[0, 1)\nregion A = interval[0, 1/2)\n"
            "partition P of U = 99999999999999999999*A, U\n"
        )
        code, _, err = run_cli(capsys, "refine", str(ws), "P")
        assert code == 2
        assert err == (
            "error: line 3, col 20: integer 99999999999999999999 leaves the 64-bit range\n"
        )

    def test_in_range_exponents_that_overflow_together_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys,
            "eval",
            PIECEWISE,
            "mjoin(+, (f1^9223372036854775807 * f1)^U)",
            "--at",
            "1/2",
        )
        assert code == 1
        assert "leaves the 64-bit range" in err


SPLINE_MERGE = (
    "(S[a,c] ⋈ T[d,b])^{S.P1} ⊛⋈ (S[c,b] ⋈ T[a,d])^{T.P1} ⊛⋈ "
    "(S[c,b] ⋈ T[d,b])^{U[a,b] - S.P1 - T.P1}\n"
)
LINEARITY = "linearity of 'sum': OK (10 checks)\n"


class TestNumberArguments:
    """--at, --with, --grid, --cell and --bounds read numbers, points and
    names with the workspace's readers and lexical rules."""

    # Arguments in the grammar, with what the commands printed before they
    # shared the workspace's readers: spaces and tabs between tokens,
    # unreduced fractions, -0, a repeated name, pairs, and errors raised
    # after the arguments were read.
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["eval", PIECEWISE, "F", "--at", " 1/2 ", "--with", "v1"], (0, "0\n", "")),
            (["eval", PIECEWISE, "FG", "--at", "4/8", "--with", "a = 1/3,b=2/3"], (0, "0\n", "")),
            (
                ["eval", PIECEWISE, "F", "--at", "-0", "--with", "\ta=1/2 , b=1/2",
                 "--format", "json-lines"],
                (0, '{"at": "0", "defined": true, "expr": "F", "multiplicity": 1, '
                    '"value": "2"}\n', ""),
            ),
            (["eval", STEPS, "join(sq^P)", "--at=-7/3"], (0, "undefined\n", "")),
            (
                ["eval", MATRIX, "join(A1^A1)", "--at", "( 1 ,1 )", "--with", "v1",
                 "--format", "json-lines"],
                (0, '{"at": "(1, 1)", "defined": true, "expr": "join(A1^A1)", '
                    '"multiplicity": 1, "value": "A1"}\n', ""),
            ),
            (["eval", PIECEWISE, "F", "--at", "2/3", "--with", "a=1/3, b=2/3, a=3/4"],
             (0, "2\n", "")),
            (
                ["matrix-add", MATRIX, "M1", "M2", "--cell", " 3,3",
                 "--with", "n=4,m=4,h1=1,k1=1,h2=2,k2=2", "--format", "json-lines"],
                (0, '{"at": "(3, 3)", "defined": true, "expr": "M1+M2", "multiplicity": 1, '
                    '"value": "D1 + D2"}\n', ""),
            ),
            (
                ["matrix-add", MATRIX, "M1", "M2", "--cell=-1, 2", "--with", "v2",
                 "--format", "json-lines"],
                (0, '{"at": "(-1, 2)", "defined": false, "expr": "M1+M2"}\n', ""),
            ),
            (
                ["spline-merge", SPLINE, "S", "T", "--at", "3/2", "--with", "a=0, c=1, d=1, b=3"],
                (0, SPLINE_MERGE + "at 3/2: S[c,b] ⋈ T[d,b] on [1, 3]\n", ""),
            ),
            (
                ["check", "karr", STEPS, "--summand", "sq", "--bounds", " 0, 5 ,3"],
                (0, "signed-sum identities for 'sq': OK (2 checks)\n", ""),
            ),
            (
                ["check", "karr", STEPS, "--summand", "lin", "--bounds", "0,k1,k2",
                 "--with", "k1 = -1, k2 = 3/2, k3 = 7"],
                (1, "", "error: summation bound 3/2 is not an integer\n"),
            ),
            (
                ["check", "linear", STEPS, "--term", "one^P", "--grid", " 0 , 10 , 5 "],
                (0, LINEARITY + "sum over one^P = 5\n", ""),
            ),
            (
                ["check", "invert", STEPS, "--term", "sq^P", "--grid", "1/2,3/2,5",
                 "--with", "v1"],
                (0, "inverse identity for 'sq' under '+': OK (5 checks)\n", ""),
            ),
            (
                ["check", "linear", STEPS, "--term", "lin^Q1", "--grid", "10,0,5"],
                (0, LINEARITY + "sum over lin^Q1 = 11/2\n", ""),
            ),
            (
                ["check", "linear", STEPS, "--term", "one^P", "--grid", "0,10,-2"],
                (2, LINEARITY, "error: bad grid '0,10,-2': grid needs at least one point\n"),
            ),
        ],
    )
    def test_forms_in_the_grammar_print_as_before(self, capsys, argv, expected):
        assert run_cli(capsys, *argv) == expected

    # A negative value given as the next argument reads as the attached form.
    @pytest.mark.parametrize(
        "argv, option, value",
        [
            (["eval", STEPS, "join(sq^P)"], "--at", "-7/3"),
            (["matrix-add", MATRIX, "M1", "M2", "--with", "v2"], "--cell", "-1,2"),
            (["check", "invert", STEPS, "--term", "sq^P", "--with", "v1"], "--grid", "-1,1,5"),
            (["check", "karr", STEPS, "--summand", "sq"], "--bounds", "-1,0,2"),
            (["eval", STEPS, "join(sq^P)"], "--at", "-(1, 2)"),
        ],
    )
    def test_a_negative_value_may_follow_its_option(self, capsys, argv, option, value):
        attached = run_cli(capsys, *argv, f"{option}={value}")
        assert attached[0] != 2 or "bad" in attached[2]
        assert run_cli(capsys, *argv, option, value) == attached
        assert run_cli(capsys, *argv[:2], option, value, *argv[2:]) == attached

    EVAL = ["eval", PIECEWISE, "F"]
    LINEAR = ["check", "linear", STEPS, "--term", "one^P", "--grid"]
    CELL = ["matrix-add", MATRIX, "M1", "M2", "--with", "v1", "--format", "json-lines", "--cell"]
    KARR = ["check", "karr", STEPS, "--summand", "sq", "--bounds"]

    # Forms outside the grammar (decimals, exponents, underscores, a leading
    # '+', a zero denominator, an empty or trailing entry) are usage errors,
    # and none of them costs time in proportion to the value it spells.
    @pytest.mark.parametrize(
        "argv, out, err",
        [
            (EVAL + ["--with", "v1", "--at", "1e100000000"], "",
             "bad point '1e100000000': col 2: unexpected trailing input"),
            (EVAL + ["--with", "v1", "--at", "1.5"], "",
             "bad point '1.5': col 2: unexpected trailing input"),
            (EVAL + ["--with", "v1", "--at", "+1"], "",
             "bad point '+1': col 1: expected a number"),
            (EVAL + ["--with", "v1", "--at", "1_0"], "",
             "bad point '1_0': col 2: unexpected trailing input"),
            (EVAL + ["--with", "v1", "--at", "1/0"], "",
             "bad point '1/0': col 1: zero denominator"),
            (EVAL + ["--with", "v1", "--at", "(1, 2, 3)"], "",
             "bad point '(1, 2, 3)': col 6: expected ')'"),
            (EVAL + ["--at", "0", "--with", "a=1e100000000"], "",
             "bad valuation 'a=1e100000000': col 4: unexpected trailing input"),
            (EVAL + ["--at", "0", "--with", "a=0.5, b=1"], "",
             "bad valuation 'a=0.5, b=1': col 4: unexpected trailing input"),
            (EVAL + ["--at", "0", "--with", "a=1/3,"], "",
             "bad valuation 'a=1/3,': col 7: expected a parameter name"),
            (EVAL + ["--at", "0", "--with", ""], "",
             "bad valuation '': col 1: expected a parameter name"),
            (EVAL + ["--at", "0", "--with", "a=1/0"], "",
             "bad valuation 'a=1/0': col 3: zero denominator"),
            (LINEAR + ["0,1e100000000,3"], LINEARITY,
             "bad grid '0,1e100000000,3': col 4: expected ','"),
            (LINEAR + ["0.5,1,3"], LINEARITY, "bad grid '0.5,1,3': col 2: expected ','"),
            (LINEAR + ["0,1/0,3"], LINEARITY, "bad grid '0,1/0,3': col 3: zero denominator"),
            (CELL + ["+1,2"], "", "bad cell '+1,2': col 1: expected an integer"),
            (CELL + ["1.0,2"], "", "bad cell '1.0,2': col 2: expected ','"),
            (CELL + ["oops"], "", "bad cell 'oops': col 1: expected an integer"),
            (CELL + ["1,9223372036854775808"], "", "bad cell '1,9223372036854775808': "
             "col 3: integer 9223372036854775808 leaves the 64-bit range"),
            (KARR + ["0,+1,2"], "", "bad bounds '0,+1,2': col 3: expected an integer or a parameter name"),
            (KARR + ["1/2,1,2"], "", "bad bounds '1/2,1,2': col 2: expected ','"),
            (KARR + ["0,9223372036854775808,1"], "", "bad bounds '0,9223372036854775808,1': "
             "col 3: integer 9223372036854775808 leaves the 64-bit range"),
            (["spline-merge", SPLINE, "S", "T", "--with", "v1", "--at", "(1, 2)"], SPLINE_MERGE,
             "bad point '(1, 2)': col 1: expected a number"),
        ],
    )
    def test_forms_outside_the_grammar_are_usage_errors(self, capsys, argv, out, err):
        assert run_cli_within_a_second(capsys, *argv) == (2, out, f"error: {err}\n")

    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    def test_a_result_too_long_to_print_is_an_evaluation_error(self, capsys, tmp_path, fmt):
        ws = tmp_path / "square.ws"
        ws.write_text("fn sq = x * x\nregion U = universe\n")
        # 3000 digits read in, 6000 digits out: past the int-to-text limit
        code, out, err = run_cli_within_a_second(
            capsys, "eval", str(ws), "join(sq^U)", "--at", "7" * 3000, "--format", fmt
        )
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (1, "")
        assert err == f"error: result too long to print: more than {limit} digits\n"

class TestBodyNesting:
    """A fn body nested past ``scalarexpr.MAX_NESTING`` is a parse error at
    the opener that crosses the limit, not a recursion failure."""

    def check_karr(self, capsys, tmp_path, body):
        ws = tmp_path / "deep.ws"
        ws.write_text(f"param a\nfn f = {body}\n")
        return run_cli(capsys, "check", "karr", str(ws), "--summand", "f", "--bounds", "0,1,2")

    @pytest.mark.parametrize(
        "body", ["(" * 3000 + "x" + ")" * 3000, "-" * 5000 + "x"], ids=["parens", "minus"]
    )
    def test_deep_body_is_a_parse_error(self, capsys, tmp_path, body):
        code, out, err = self.check_karr(capsys, tmp_path, body)
        assert (code, out) == (2, "")
        col = len("fn f = ") + MAX_NESTING + 1
        assert err == (
            f"error: line 2, col {col}: body nests parentheses and unary signs "
            f"more than {MAX_NESTING} deep\n"
        )

    @pytest.mark.parametrize(
        "body", ["(" * 100 + "x" + ")" * 100, "-" * 100 + "x", "-(" * 100 + "x" + ")" * 100]
    )
    def test_body_within_the_limit_parses_and_evaluates(self, capsys, tmp_path, body):
        code, out, err = self.check_karr(capsys, tmp_path, body)
        assert (code, out, err) == (0, "signed-sum identities for 'f': OK (2 checks)\n", "")

    # A flat run of one operator is one node however long it is, so only
    # the input text bounds it.
    @pytest.mark.parametrize(
        "body", ["+".join(["x"] * 990), "+".join(["x"] * 5000), "*".join(["x"] * 5000)],
        ids=["990 summands", "5000 summands", "5000 factors"],
    )
    def test_long_flat_body_evaluates(self, capsys, tmp_path, body):
        code, out, err = self.check_karr(capsys, tmp_path, body)
        assert (code, out, err) == (0, "signed-sum identities for 'f': OK (2 checks)\n", "")


class TestTableCost:
    def test_a_table_resolves_each_endpoint_once(self, capsys, tmp_path, monkeypatch):
        ws = tmp_path / "table.ws"
        ws.write_text(
            "param n, m, h1, k1, h2, k2\n"
            "matrix M1 = dims(n, m) split(h1, k1) blocks(A1, B1, C1, D1)\n"
            "matrix M2 = dims(n, m) split(h2, k2) blocks(A2, B2, C2, D2)\n"
            "valuation v: n = 64, m = 64, h1 = 20, k1 = 41, h2 = 33, k2 = 7\n"
        )
        resolved = []

        def counting(p, valuation):
            resolved.append(p)
            return resolve_param(p, valuation)

        monkeypatch.setattr(regions, "resolve_param", counting)
        code, out, _ = run_cli(
            capsys, "matrix-add", str(ws), "M1", "M2", "--table", "--with", "v"
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 64 * 64
        # the parameter endpoints are n, m, h1, k1, h2 and k2, and the
        # number endpoint 1 is taken as it is; a per-cell resolution would
        # make tens of thousands of calls
        assert set(resolved) == {"n", "m", "h1", "k1", "h2", "k2"}
        assert len(resolved) <= 2 * 6


class TestTableByClasses:
    TABLE_WS = (
        "param n, m, h1, k1, h2, k2\n"
        "matrix M1 = dims(n, m) split(h1, k1) blocks(A1, B1, C1, D1)\n"
        "matrix M2 = dims(n, m) split(h2, k2) blocks(A2, B2, C2, D2)\n"
        "valuation v: n = 64, m = 64, h1 = 20, k1 = 41, h2 = 33, k2 = 7\n"
    )

    @staticmethod
    def per_cell(ws_path, valuation, fmt):
        """The table ``matrix-add --table`` prints, one ``eval_expr`` call
        and one formatting per cell, and the error that ends it, if any."""
        ws = parse_workspace(Path(ws_path).read_text(encoding="utf-8"))
        m1 = ws.matrices["M1"]
        expr, _ = matrix_add_with_refinement(m1, ws.matrices["M2"])
        v = cli._valuation(ws, valuation)
        rows, cols = (int(resolve_param(d, v)) for d in (m1.rows, m1.cols))
        lines = [] if fmt == "json-lines" else [expr.render()]
        try:
            for i in range(1, rows + 1):
                for j in range(1, cols + 1):
                    out = cli.eval_expr(expr, (Fraction(i), Fraction(j)), v)
                    if fmt == "json-lines":
                        record = cli._outcome_json("M1+M2", (i, j), out)
                        lines.append(json.dumps(record, sort_keys=True, ensure_ascii=False))
                    else:
                        lines.append(f"({i}, {j}): {cli._outcome_text(out)}")
        except HybridError as e:
            return 1, "".join(line + "\n" for line in lines), f"error: {e}\n"
        return 0, "".join(line + "\n" for line in lines), ""

    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    @pytest.mark.parametrize(
        "valuation",
        ["v1", "v2", "v3",
         # splits at 0 and at n
         "n=5, m=3, h1=0, k1=3, h2=5, k2=0", "n=4, m=4, h1=4, k1=0, h2=0, k2=4",
         # tied splits, within one matrix and across the two
         "n=4, m=6, h1=2, k1=2, h2=2, k2=2", "n=5, m=5, h1=3, k1=2, h2=3, k2=2",
         # a negative count is an empty table
         "n=-2, m=3, h1=1, k1=1, h2=1, k2=1", "n=3, m=-1, h1=1, k1=1, h2=1, k2=1",
         # an unset split parameter, of the columns and of the rows
         "n=3, m=3, h1=1, k1=1, h2=2", "n=4, m=4, k1=1, h2=2, k2=2"],
    )
    def test_the_table_equals_a_per_cell_loop(self, capsys, fmt, valuation):
        got = run_cli(capsys, "matrix-add", MATRIX, "M1", "M2", "--table", "--with", valuation,
                      "--format", fmt)
        assert got == self.per_cell(MATRIX, valuation, fmt)

    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    def test_a_64_by_64_table_formats_each_distinct_outcome_once(
        self, capsys, tmp_path, monkeypatch, fmt
    ):
        ws = tmp_path / "table.ws"
        ws.write_text(self.TABLE_WS)
        formatted, tested = [], []
        value_text, place = cli._value_text, regions._Line.bits

        def counting_value_text(v):
            formatted.append(v)
            return value_text(v)

        def counting_place(line, value, resolve):
            tested.append(value)
            return place(line, value, resolve)

        monkeypatch.setattr(cli, "_value_text", counting_value_text)
        monkeypatch.setattr(regions._Line, "bits", counting_place)
        code, out, _ = run_cli(
            capsys, "matrix-add", str(ws), "M1", "M2", "--table", "--with", "v", "--format", fmt
        )
        assert code == 0
        assert len(out.splitlines()) == 64 * 64 + (fmt == "text")
        # rows split at 20 and 33, columns at 7 and 41: nine distinct sums,
        # each formatted once, not once per cell
        assert len(formatted) == len(set(formatted)) == 9
        # each row value and each column value is tested once
        assert len(tested) == 64 + 64


    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    def test_outcome_work_grows_with_classes_not_cells(self, capsys, tmp_path, monkeypatch, fmt):
        # Rows split at n/4 and n/2, columns at n/8 and 5n/8: three row
        # classes and three column classes at every n.  The outcomes are
        # made and formatted once per class pair, and the vectors come one
        # tuple per row, so the work is the same at every n.
        work = {}

        def counting(name, fn):
            def counted(*args):
                work[name] = work.get(name, 0) + 1
                return fn(*args)
            return counted

        places = [(functions._AdditiveSweep, "find"),
                  (functions, "_entry"), (functions, "_eval_plain"), (functions, "_eval_marked"),
                  (cli, "_outcome_text"), (cli, "_outcome_record")]
        for owner, name in places:
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        grid_keys = regions.IndicatorTable.grid_keys

        def counting_rows(table, rows, cols):
            for row in grid_keys(table, rows, cols):
                work["rows keyed"] = work.get("rows keyed", 0) + 1
                yield row

        monkeypatch.setattr(regions.IndicatorTable, "grid_keys", counting_rows)
        head = "".join(line + "\n" for line in self.TABLE_WS.splitlines()[:3])
        seen = []
        for n in (8, 16, 32, 64):
            ws = tmp_path / f"table{n}.ws"
            ws.write_text(head + f"valuation v: n = {n}, m = {n}, h1 = {n // 4}, "
                                 f"k1 = {5 * n // 8}, h2 = {n // 2}, k2 = {n // 8}\n")
            work.clear()
            code, out, _ = run_cli(capsys, "matrix-add", str(ws), "M1", "M2", "--table",
                                   "--with", "v", "--format", fmt)
            assert code == 0
            assert len(out.splitlines()) == n * n + (fmt == "text")
            assert work.pop("rows keyed") == n
            assert all(0 < count <= n + n + 3 * 3 for count in work.values()), work
            seen.append(dict(work))
        assert seen[0] == seen[1] == seen[2] == seen[3]
        assert seen[0][{"text": "_outcome_text", "json-lines": "_outcome_record"}[fmt]] == 9


class TestTableWrite:
    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    @pytest.mark.parametrize("k", [0, 1, 7, 10])
    def test_an_error_mid_table_follows_the_cells_before_it(self, capsys, monkeypatch, fmt, k):
        real_grid = cli.evaluate_grid

        def failing_grid(expr, rows, cols, valuation):
            # cell k + 1 raises: its row holds the cells before it, and the
            # next row raises (v1 is 4 by 4, so cell 11 is mid-row)
            left = k
            for row in real_grid(expr, rows, cols, valuation):
                if len(row) > left:
                    yield row[:left]
                    raise NonEvaluableError("cell broke")
                yield row
                left -= len(row)

        monkeypatch.setattr(cli, "evaluate_grid", failing_grid)
        got = run_cli(capsys, "matrix-add", MATRIX, "M1", "M2", "--table", "--with", "v1",
                      "--format", fmt)
        _, whole, _ = TestTableByClasses.per_cell(MATRIX, "v1", fmt)
        lines = whole.splitlines(keepends=True)
        head = lines[:k] if fmt == "json-lines" else lines[:1 + k]
        assert got == (1, "".join(head), "error: cell broke\n")

    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    def test_the_counted_bytes_of_a_table_are_its_stdout(self, capsys, tmp_path, monkeypatch, fmt):
        # A module global shadows the builtin print in cli, as the benchmark's
        # tracer does to count cli.bytes_out.
        counted = []

        def counting_print(*args, sep=" ", end="\n", file=None, flush=False):
            if file is None:
                counted.append(len((sep.join(map(str, args)) + end).encode("utf-8")))
            print(*args, sep=sep, end=end, file=file, flush=flush)

        ws = tmp_path / "table.ws"
        ws.write_text(TestTableByClasses.TABLE_WS)
        monkeypatch.setattr(cli, "print", counting_print, raising=False)
        code, out, _ = run_cli(
            capsys, "matrix-add", str(ws), "M1", "M2", "--table", "--with", "v", "--format", fmt
        )
        assert code == 0
        assert len(out.splitlines()) == 64 * 64 + (fmt == "text")
        assert sum(counted) == len(out.encode("utf-8"))


class TestParserReuse:
    @staticmethod
    def alone(capsys, monkeypatch, *argv):
        """run_cli with a parser built for this call only."""
        monkeypatch.setattr(cli, "_parser", None)
        return run_cli(capsys, *argv)

    def test_the_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        build = cli._build_parser

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "_build_parser", counting_build)
        for argv in (["matrix-add", MATRIX, "M1", "M2"], ["refine", PIECEWISE, "P", "Q"],
                     ["eval", PIECEWISE, "F", "--at", "0", "--with", "v1"]):
            run_cli(capsys, *argv)
        assert len(built) == 1

    @pytest.mark.parametrize(
        "first, then",
        [
            (["matrix-add", MATRIX, "M1", "M2", "--cell", "2,1", "--with", "v1",
              "--format", "json-lines"],
             ["matrix-add", MATRIX, "M1", "M2", "--cell", "2,1", "--with", "v1"]),
            (["matrix-add", MATRIX, "M1", "M2", "--cell", "2,1", "--with", "v1"],
             ["matrix-add", MATRIX, "M1", "M2", "--table", "--with", "v2"]),
            (["eval", PIECEWISE, "F", "--at", "0", "--with", "v1", "--format", "json-lines"],
             ["eval", PIECEWISE, "F", "--at", "0", "--with", "v1"]),
            (["check", "invert", PIECEWISE, "--term", "f1^A1", "--star", "*",
              "--grid", "0,1,3"],
             ["check", "invert", PIECEWISE, "--term", "f1^A1"]),
        ],
    )
    def test_calls_in_sequence_do_not_leak_options(self, capsys, monkeypatch, first, then):
        expected = self.alone(capsys, monkeypatch, *then)
        self.alone(capsys, monkeypatch, *first)
        assert run_cli(capsys, *then) == expected

    def test_a_usage_error_leaves_the_next_call_as_it_would_be(self, capsys, monkeypatch):
        good = ["matrix-add", MATRIX, "M1", "M2", "--table", "--with", "v1"]
        expected = self.alone(capsys, monkeypatch, *good)
        monkeypatch.setattr(cli, "_parser", None)
        with pytest.raises(SystemExit) as exc:
            main(["matrix-add", MATRIX, "M1", "--format", "yaml", "--cell", "1,1"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *good) == expected


def test_points_render_the_same_everywhere():
    # json-lines "at" fields and points(...) shapes both go through render_element
    cases = [Fraction(-1, 2), 3, (Fraction(1, 2), Fraction(2)), (1, 2)]
    assert [render_element(p) for p in cases] == ["-1/2", "3", "(1/2, 2)", "(1, 2)"]


def console_command():
    """The installed console script, or the module run from this checkout's
    ``src`` when the script is not on PATH; returns (argv prefix, env)."""
    path = shutil.which("hybridsets")
    if path is not None:
        return [path], None
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "hybridsets.cli"], env


class TestDeterminism:
    def test_refine_output_is_byte_identical_across_runs(self):
        command, env = console_command()
        argv = command + ["refine", MATRIX, "M1", "M2"]
        first = subprocess.run(argv, capture_output=True, env=env)
        second = subprocess.run(argv, capture_output=True, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # not trivially empty

    def test_table_json_is_byte_identical_across_runs(self):
        command, env = console_command()
        argv = command + [
            "matrix-add",
            MATRIX,
            "M1",
            "M2",
            "--table",
            "--with",
            "v3",
            "--format",
            "json-lines",
        ]
        first = subprocess.run(argv, capture_output=True, env=env)
        second = subprocess.run(argv, capture_output=True, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert len(first.stdout.splitlines()) == 64

    def test_console_script_eval(self):
        command, env = console_command()
        result = subprocess.run(
            command + ["eval", PIECEWISE, "F", "--at", "1/6", "--with", "v1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert result.stdout == "2\n"

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "hybridsets.cli", "eval", PIECEWISE, "E0", "--at", "0"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "undefined\n"
