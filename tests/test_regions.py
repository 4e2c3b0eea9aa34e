"""Region atoms, parametric shapes, and integer combinations of regions."""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hybridsets import (
    ContractError,
    FinitePointSet,
    GridRect,
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
    join,
    rational_grid,
    term,
)
from hybridsets import regions

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
        r = RegionAtom("A1", GridRect(Interval1D(F(1), "h1"), Interval1D(F(1), "k1")))
        v = Valuation({"h1": F(5), "k1": F(4)})
        assert r.indicator((F(2), F(3)), v) == 1
        assert r.indicator((F(5), F(4)), v) == 1
        assert r.indicator((F(6), F(1)), v) == 0
        assert r.indicator((F(1), F(5)), v) == 0

    def test_grid_rect_open_low_bounds(self):
        # rows h+1..n written as (h..n] x [1..k]
        r = RegionAtom(
            "B1", GridRect(Interval1D("h", "n", lo_closed=False), Interval1D(F(1), "k"))
        )
        v = Valuation({"h": F(2), "n": F(4), "k": F(3)})
        assert r.indicator((F(2), F(1)), v) == 0
        assert r.indicator((F(3), F(1)), v) == 1
        assert r.indicator((F(4), F(3)), v) == 1

    # Every endpoint of a shape that can hold the point is resolved before
    # any range is tested, so a point outside the known row range, or
    # below the known lo, still needs the missing end.
    @pytest.mark.parametrize(
        "shape, point",
        [
            (GridRect(Interval1D(F(1), F(2)), Interval1D(F(1), "k")), (F(5), F(1))),
            (Interval1D(F(1), "k"), F(0)),
        ],
    )
    def test_every_end_is_resolved_before_a_range_is_tested(self, shape, point):
        with pytest.raises(ValuationError, match="parameter 'k' has no value"):
            RegionAtom("R", shape).indicator(point)

    def test_grid_rect_wants_integer_pairs(self):
        r = RegionAtom("A", GridRect(Interval1D(F(1), F(3)), Interval1D(F(1), F(3))))
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

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-40, 40))
    def test_multiplicity_is_linear_in_coefficients(self, m, n, num):
        x = F(num, 10)
        a = interval("A", F(0), F(1), hi_closed=False)
        b = interval("B", F(1, 2), F(2))
        s = SymbolicHybridSet([(a, m), (b, n)])
        expect = m * a.indicator(x) + n * b.indicator(x)
        assert s.multiplicity(x) == expect


class TestGrids:
    def test_rational_grid_closed(self):
        g = rational_grid(0, 1, 5)
        assert g == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
        assert rational_grid(2, 7, 1) == (F(2),)

    def test_rational_grid_denominators_stay_exact(self):
        g = rational_grid(0, 1, 100)
        assert all(x.denominator <= 100 for x in g)
        assert len(set(g)) == 100

    def test_rational_grid_needs_points(self):
        with pytest.raises(ContractError):
            rational_grid(0, 1, 0)


class TestPointsAreNumbers:
    """A point is an int, a Fraction or a tuple of them; text is refused on
    the per-point reference and on the table path alike."""

    A = interval("A", F(0), F(1))
    G = RegionAtom("G", GridRect(Interval1D(1, 4), Interval1D(1, 4)))

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


class TestAsFraction:
    """``as_fraction`` hands a Fraction back as it is and makes every other
    number a Fraction; anything else is a ContractError."""

    def test_a_fraction_is_returned_as_it_is(self):
        x = F(3, 4)
        assert regions.as_fraction(x, "x") is x

    @pytest.mark.parametrize("value, want", [(7, F(7)), (-2, F(-2)), (True, F(1)), (False, F(0))])
    def test_an_int_or_a_bool_becomes_a_fraction(self, value, want):
        got = regions.as_fraction(value, "x")
        assert type(got) is Fraction and got == want

    def test_a_fraction_subclass_is_normalised(self):
        class Half(Fraction):
            pass

        got = regions.as_fraction(Half(1, 2), "x")
        assert type(got) is Fraction and got == F(1, 2)

    @pytest.mark.parametrize("value", ["1/2", 0.5, None, (1,)])
    def test_text_floats_and_the_rest_are_contract_errors(self, value):
        with pytest.raises(ContractError) as err:
            regions.as_fraction(value, "the value of 'a'")
        assert str(err.value) == f"the value of 'a' must be an int or a Fraction, got {value!r}"


class TestIntervalPlacement:
    """Scalars are placed among the interval endpoints scaled to integers
    by the lcm of their denominators; each point's bits must be what
    ``_contains`` says, on, just below and just above every endpoint."""

    BIG = 10**30 + 1
    ENDS = (F(1, 3), F(2, 7), F(1, BIG), F(-5, BIG), F(0), F(2))
    TINY = F(1, 10**70)

    @pytest.mark.parametrize("lo_closed", [True, False])
    @pytest.mark.parametrize("hi_closed", [True, False])
    @pytest.mark.parametrize("with_params", [False, True])
    def test_points_near_coprime_endpoints(self, lo_closed, hi_closed, with_params):
        ends = self.ENDS
        values = {f"e{i}": v for i, v in enumerate(ends)}
        names = list(values) if with_params else list(ends)
        pairs = [(names[i], names[j]) for i in range(len(ends)) for j in range(len(ends))]
        shapes = [Interval1D(lo, hi, lo_closed, hi_closed) for lo, hi in pairs]
        shapes += [Interval1D(lo, hi, not lo_closed, hi_closed) for lo, hi in pairs[::5]]
        layout = regions._Layout(
            [SymbolicHybridSet.from_atom(RegionAtom(f"I{k}", s)) for k, s in enumerate(shapes)]
        )
        valuation = Valuation(values)
        near = [F(1, 3 * self.BIG), F(1, 7), F(3, 10), -F(1, 2)]
        for e in ends:
            near += [e - self.TINY, e, e + self.TINY]
            near += [e - F(1, 3 * self.BIG), e + F(1, 7 * self.BIG)]
        table = regions.IndicatorTable(layout, valuation)
        resolve = lambda p: regions.resolve_param(p, valuation)
        for x, key in table.keys(near + near[::-1] + [int(e) for e in ends if e.denominator == 1]):
            want = sum(1 << k for k, s in enumerate(shapes) if regions._contains(s, x, resolve))
            assert key == want, x
        assert table._intervals.scale == 3 * 7 * self.BIG


# Endpoints from a small pool with mixed denominators, so that ranges tie
# at either end, with open and closed ends; a drawn range may be empty:
# (a, a) with an open end, or lo > hi.
line_ends = st.sampled_from((F(-1), F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(7, 6), F(5, 4), F(2)))
line_ranges = st.lists(st.builds(Interval1D, line_ends, line_ends, st.booleans(), st.booleans()),
                       min_size=1, max_size=8)


class TestLineCells:
    """A line makes the bits of every cell in the pass that sorts its
    endpoints.  Each must be the ranges whose ``_within`` holds at a point
    of that cell, and placing the point must give the same bits."""

    @seed(2037)
    @settings(max_examples=300, deadline=None)
    @given(line_ranges)
    def test_the_bits_made_by_the_sort_agree_with_within(self, intervals):
        ranges = list(enumerate(intervals))
        line = regions._Line(ranges)
        resolve = lambda p: regions.resolve_param(p, None)
        line.bits(F(0), resolve)  # the first placement sorts
        ends = [F(v, line.scale) for v in line.ends]
        assert len(line.cells) == 2 * len(ends) + 1
        # a point of each cell in turn: below the lowest endpoint, then
        # each endpoint after the middle of the gap below it, then above
        points = [ends[0] - 1, ends[0]]
        for lo, hi in zip(ends, ends[1:]):
            points += [(lo + hi) / 2, hi]
        points.append(ends[-1] + 1)
        for cell, x in enumerate(points):
            want = sum(1 << k for k, s in ranges if regions._within(s, regions._ends(s, resolve), x))
            assert line.cells[cell] == want, (cell, x)
            assert line.bits(x, resolve) == want, x


# Shapes over the parameters p and q and a few literal ends, and points of
# every kind a caller may pass: Fractions, ints, 1-tuples, pairs and text.
place_ends = st.one_of(st.sampled_from(("p", "q")), st.sampled_from((F(-1), F(0), F(1, 2), F(2))))
place_ranges = st.builds(Interval1D, place_ends, place_ends, st.booleans(), st.booleans())
place_coords = st.one_of(st.sampled_from((F(-1), F(0), F(1, 3), F(1, 2), F(2), F(3))),
                         st.integers(-1, 3))
place_points = st.one_of(
    place_coords, st.tuples(place_coords), st.tuples(place_coords, place_coords),
    st.sampled_from(("1/2", ("1",), ("1", 2), (F(1), "2"))),
)
place_layouts = st.one_of(
    st.lists(place_ranges, min_size=1, max_size=5),  # interval-only
    st.lists(st.one_of(st.builds(GridRect, place_ranges, place_ranges), st.just(Universe())),
             min_size=1, max_size=5),  # grid
    st.lists(st.one_of(place_ranges, st.builds(FinitePointSet, st.lists(place_points, max_size=3)
                                               .map(tuple))), min_size=1, max_size=5),  # point sets
)


class TestPlacementKinds:
    """``IndicatorTable._bits`` places every kind of point as ``_contains``
    does shape by shape, and raises where it raises, with the same error."""

    @seed(2041)
    @settings(max_examples=300, deadline=None)
    @given(place_layouts, st.lists(place_points, min_size=1, max_size=12),
           st.sampled_from((F(0), F(1, 2), F(5, 3))))
    def test_bits_agree_with_contains_for_every_point_kind(self, shapes, points, q):
        layout = regions._Layout(
            [SymbolicHybridSet.from_atom(RegionAtom(f"S{k}", s)) for k, s in enumerate(shapes)]
        )
        valuation = Valuation({"p": F(1), "q": q})
        table = regions.IndicatorTable(layout, valuation)
        resolve = lambda p: regions.resolve_param(p, valuation)
        for point in points:
            try:
                want = sum(1 << k for k, s in enumerate(layout.shapes)
                           if regions._contains(s, point, resolve))
            except ContractError as e:
                want = str(e)
            try:
                got = table._bits(point)
            except ContractError as e:
                got = str(e)
            assert got == want, point
