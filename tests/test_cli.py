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

from hybridsets import regions
from hybridsets.cli import SIZE_CAP, main
from hybridsets.hybridset import render_element
from hybridsets.regions import resolve_param
from hybridsets.scalarexpr import MAX_NESTING

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
        " ⊛+ (D1 + A2)^{A2} ⊛+ (D1 + B2)^{B2} ⊛+ (D1 + C2)^{C2}"
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
        assert out.splitlines() == [self.EXPR_LINE, "cell (2, 1): B1 + A2"]

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
            "value": "B1 + A2",
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

    def test_unknown_partition_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "refine", PIECEWISE, "P", "NOPE")
        assert code == 2
        assert "unknown partition 'NOPE'" in err

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
        # the endpoints are 1, n, m, h1, k1, h2 and k2; a per-cell
        # resolution would make tens of thousands of calls
        assert set(resolved) == {1, "n", "m", "h1", "k1", "h2", "k2"}
        assert len(resolved) <= 2 * 7


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
