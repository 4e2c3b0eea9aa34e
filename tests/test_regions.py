"""Region atoms, parametric shapes, and integer combinations of regions."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridsets import (
    ContractError,
    FinitePointSet,
    GridRect,
    HybridSet,
    Interval1D,
    RegionAtom,
    SymbolicHybridSet,
    Universe,
    ParseError,
    Valuation,
    ValuationError,
    constant_atom,
    evaluate,
    evaluate_many,
    grid_cells,
    instantiate,
    join,
    rational_grid,
    term,
)

F = Fraction


def interval(name, lo, hi, lo_closed=True, hi_closed=True):
    return RegionAtom(name, Interval1D(lo, hi, lo_closed, hi_closed))


class TestValuation:
    def test_parse_and_resolve(self):
        v = Valuation.parse("a = 1/3, b = 2")
        assert v.resolve("a") == F(1, 3)
        assert v.resolve("b") == 2
        assert "a" in v and "c" not in v

    def test_missing_parameter_raises(self):
        v = Valuation({"a": F(1)})
        with pytest.raises(ValuationError):
            v.resolve("b")

    def test_items_are_sorted(self):
        v = Valuation({"b": F(2), "a": F(1)})
        assert [k for k, _ in v.items()] == ["a", "b"]

    def test_parse_rejects_bare_names(self):
        with pytest.raises(ContractError):
            Valuation.parse("a")

    @pytest.mark.parametrize(
        "text, column",
        [("a = 1/0", 5), ("a = 0.5", 6), ("a = 1e100000000", 6), ("a = +1", 5), ("a = 1,", 7)],
    )
    def test_parse_reads_numbers_as_a_workspace_does(self, text, column):
        with pytest.raises(ParseError) as exc:
            Valuation.parse(text)
        assert (exc.value.line, exc.value.column) == (None, column)

    @pytest.mark.parametrize("value", ["1e1000", "1/2", 0.5, None])
    def test_values_are_numbers_never_text(self, value):
        with pytest.raises(ContractError, match="the value of 'a' must be an int or a Fraction"):
            Valuation({"a": value})


class TestShapes:
    def test_universe_contains_everything(self):
        u = RegionAtom("U", Universe())
        assert u.indicator(F(7)) == 1
        assert u.indicator((F(1), F(2))) == 1

    def test_half_open_interval_excludes_upper_end(self):
        a = interval("A", F(0), F(1), hi_closed=False)
        assert a.indicator(F(0)) == 1
        assert a.indicator(F(1, 2)) == 1
        assert a.indicator(F(1)) == 0
        assert a.indicator(F(-1, 10)) == 0

    def test_open_lower_end(self):
        a = interval("A", F(0), F(1), lo_closed=False)
        assert a.indicator(F(0)) == 0
        assert a.indicator(F(1)) == 1

    def test_parametric_interval_needs_a_valuation(self):
        a = interval("A", F(0), "a", hi_closed=False)
        with pytest.raises(ValuationError):
            a.indicator(F(0))
        v = Valuation({"a": F(1, 3)})
        assert a.indicator(F(0), v) == 1
        assert a.indicator(F(1, 3), v) == 0

    def test_grid_rect_membership(self):
        # rows 1..h1, columns 1..k1 under h1=5, k1=4
        r = RegionAtom("A1", GridRect(F(1), "h1", F(1), "k1"))
        v = Valuation({"h1": F(5), "k1": F(4)})
        assert r.indicator((F(2), F(3)), v) == 1
        assert r.indicator((F(5), F(4)), v) == 1
        assert r.indicator((F(6), F(1)), v) == 0
        assert r.indicator((F(1), F(5)), v) == 0

    def test_grid_rect_open_low_bounds(self):
        # rows h+1..n written as (h..n] x [1..k]
        r = RegionAtom(
            "B1", GridRect("h", "n", F(1), "k", row_lo_closed=False)
        )
        v = Valuation({"h": F(2), "n": F(4), "k": F(3)})
        assert r.indicator((F(2), F(1)), v) == 0
        assert r.indicator((F(3), F(1)), v) == 1
        assert r.indicator((F(4), F(3)), v) == 1

    def test_grid_rect_wants_integer_pairs(self):
        r = RegionAtom("A", GridRect(F(1), F(3), F(1), F(3)))
        assert r.indicator((F(1, 2), F(1))) == 0
        assert r.indicator(F(2)) == 0

    def test_finite_point_set(self):
        p = RegionAtom("P", FinitePointSet((F(0), F(1, 2), (F(2), F(3)))))
        assert p.indicator(F(1, 2)) == 1
        assert p.indicator((F(2), F(3))) == 1
        assert p.indicator(F(1, 3)) == 0

    def test_interval_ignores_pairs(self):
        a = interval("A", F(0), F(1))
        assert a.indicator((F(0), F(0))) == 0


class TestSymbolicHybridSet:
    def test_combination_multiplicity(self):
        # Q = [-1, 2] - [-1, 0) - (1, 2]: the middle third with multiplicity 1
        whole = interval("W", F(-1), F(2))
        left = interval("L", F(-1), F(0), hi_closed=False)
        right = interval("R", F(1), F(2), lo_closed=False)
        q = (
            SymbolicHybridSet.from_atom(whole)
            - SymbolicHybridSet.from_atom(left)
            - SymbolicHybridSet.from_atom(right)
        )
        assert q.multiplicity(F(1, 2)) == 1
        assert q.multiplicity(F(3, 2)) == 0
        assert q.multiplicity(F(-1, 2)) == 0
        assert q.multiplicity(F(0)) == 1
        assert q.multiplicity(F(1)) == 1
        assert q.multiplicity(F(5)) == 0

    def test_cancellation_drops_atoms(self):
        a = interval("A", F(0), F(1))
        s = SymbolicHybridSet([(a, 2), (a, -2)])
        assert s.is_zero
        assert s.render() == "0"

    def test_same_name_different_shape_is_an_error(self):
        a1 = interval("A", F(0), F(1))
        a2 = interval("A", F(0), F(2))
        with pytest.raises(ContractError):
            SymbolicHybridSet([(a1, 1), (a2, 1)])

    def test_render_puts_positive_parts_first(self):
        u = RegionAtom("U", Universe())
        a = interval("A1", F(0), "a", hi_closed=False)
        b = interval("B1", F(0), "b", hi_closed=False)
        s = SymbolicHybridSet([(u, 1), (a, -1), (b, -1)])
        assert s.render() == "U - A1 - B1"
        assert (2 * SymbolicHybridSet.from_atom(a)).render() == "2*A1"
        assert (-SymbolicHybridSet.from_atom(a)).render() == "-A1"

    def test_instantiate_matches_brute_force(self):
        a = interval("A", F(0), "a", hi_closed=False)
        u = interval("U", F(0), F(1), hi_closed=False)
        s = SymbolicHybridSet([(u, 1), (a, -1)])
        v = Valuation({"a": F(1, 3)})
        sample = rational_grid(0, 1, 12)
        got = instantiate(s, v, sample)
        expected = HybridSet(
            [(x, 1) for x in sample if F(1, 3) <= x < 1]
        )
        assert got == expected

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-40, 40))
    def test_multiplicity_is_linear_in_coefficients(self, m, n, num):
        x = F(num, 10)
        a = interval("A", F(0), F(1), hi_closed=False)
        b = interval("B", F(1, 2), F(2))
        s = SymbolicHybridSet([(a, m), (b, n)])
        expect = m * a.indicator(x) + n * b.indicator(x)
        assert s.multiplicity(x) == expect


class TestGrids:
    def test_rational_grid_half_open(self):
        g = rational_grid(0, 1, 4)
        assert g == (F(0), F(1, 4), F(1, 2), F(3, 4))

    def test_rational_grid_closed(self):
        g = rational_grid(0, 1, 5, include_hi=True)
        assert g == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
        assert rational_grid(2, 7, 1, include_hi=True) == (F(2),)

    def test_rational_grid_denominators_stay_exact(self):
        g = rational_grid(0, 1, 100)
        assert all(x.denominator <= 100 for x in g)
        assert len(set(g)) == 100

    def test_rational_grid_needs_points(self):
        with pytest.raises(ContractError):
            rational_grid(0, 1, 0)

    def test_grid_cells_enumerates_rows_then_columns(self):
        cells = grid_cells(2, 3)
        assert len(cells) == 6
        assert cells[0] == (F(1), F(1))
        assert cells[-1] == (F(2), F(3))


class TestPointsAreNumbers:
    """A point is an int, a Fraction or a tuple of them; text is refused on
    the per-point reference and on the table path alike."""

    A = interval("A", F(0), F(1))
    G = RegionAtom("G", GridRect(1, 4, 1, 4))

    @pytest.mark.parametrize(
        "atom, point",
        [(A, "1/2"), (A, ("1/2",)), (A, 0.5), (G, ("1", "2")), (G, (F(1), "2"))],
    )
    def test_text_points_are_contract_errors_everywhere(self, atom, point):
        e = join(term(constant_atom("c", 3), SymbolicHybridSet.from_atom(atom)))
        with pytest.raises(ContractError, match="must be an int or a Fraction"):
            atom.indicator(point)
        with pytest.raises(ContractError, match="must be an int or a Fraction"):
            SymbolicHybridSet.from_atom(atom).multiplicity(point)
        with pytest.raises(ContractError, match="must be an int or a Fraction"):
            evaluate(e, point)
        with pytest.raises(ContractError, match="must be an int or a Fraction"):
            list(evaluate_many(e, [point]))

    @pytest.mark.parametrize("atom, point", [(A, F(1, 2)), (A, (F(1, 2),)), (G, (2, F(3)))])
    def test_number_points_agree_on_both_paths(self, atom, point):
        e = join(term(constant_atom("c", 3), SymbolicHybridSet.from_atom(atom)))
        assert atom.indicator(point) == 1
        assert evaluate(e, point).value == list(evaluate_many(e, [point]))[0].value == 3

    def test_grid_ends_and_constants_are_numbers(self):
        with pytest.raises(ContractError):
            rational_grid("0", 1, 3)
        with pytest.raises(ContractError):
            constant_atom("c", "3")
