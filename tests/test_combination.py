"""The free-abelian core shared by region combinations and value words:
type checks, the name-clash check, and the two item orders."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hybridsets import (
    PLUS,
    ContractError,
    FreeWord,
    Interval1D,
    RegionAtom,
    SymbolicHybridSet,
    Valuation,
    constant_atom,
    evaluate,
    evaluate_many,
    join,
    marked_join,
    pointwise_star,
    term,
)
from hybridsets.functions import _accumulate

F = Fraction

NAMES = "abcd"
REGION_ATOMS = {n: RegionAtom(n, Interval1D(F(0), F(ord(n)))) for n in NAMES}
WORD_ATOMS = {n: constant_atom(n, ord(n)) for n in NAMES}

entry_lists = st.lists(st.tuples(st.sampled_from(NAMES), st.integers(-2, 2)), max_size=12)
scalars = st.integers(-3, 3)


def model(pairs, drop_early):
    """(name, coefficient) pairs summed in a plain dict, in the order the
    names are first inserted; with ``drop_early`` a zero sum deletes the
    name at once, otherwise zeros go at the end."""
    out = {}
    for name, c in pairs:
        total = out.get(name, 0) + c
        if total or not drop_early:
            out[name] = total
        else:
            out.pop(name, None)
    return [(name, c) for name, c in out.items() if c]


def names_of(items):
    return [(a.name, c) for a, c in items]


class TestOrders:
    @given(entry_lists)
    @example([("a", 1), ("b", 1), ("a", -1), ("a", 1)])
    def test_regions_keep_first_appearance_and_list_by_name(self, pairs):
        s = SymbolicHybridSet((REGION_ATOMS[n], c) for n, c in pairs)
        expected = model(pairs, drop_early=False)
        assert list(s._coeffs.items()) == expected
        assert names_of(s.items()) == sorted(expected)

    @given(entry_lists)
    @example([("a", 1), ("b", 1), ("a", -1), ("a", 1)])
    def test_words_list_an_atom_that_cancels_and_returns_last(self, pairs):
        w = FreeWord((WORD_ATOMS[n], c) for n, c in pairs)
        assert names_of(w.items()) == model(pairs, drop_early=True)

    @given(entry_lists, entry_lists, scalars, scalars)
    def test_combine_scales_then_merges_in_order(self, p, q, m, n):
        for cls, atoms, early in (
            (SymbolicHybridSet, REGION_ATOMS, False),
            (FreeWord, WORD_ATOMS, True),
        ):
            x = cls((atoms[name], c) for name, c in p)
            y = cls((atoms[name], c) for name, c in q)
            merged = cls.combine(((x, m), (y, n)))
            scaled = [(name, m * c) for name, c in x._coeffs.items()]
            scaled += [(name, n * c) for name, c in y._coeffs.items()]
            assert list(merged._coeffs.items()) == model(scaled, early)
            raw = [(name, m * c) for name, c in p] + [(name, n * c) for name, c in q]
            assert merged == cls((atoms[name], c) for name, c in raw)
            assert x.scale(m) - y == cls.combine(((x, m), (y, -1)))

    @given(st.lists(st.tuples(entry_lists, st.integers(-2, 2)), max_size=5))
    def test_accumulate_drops_zeros_at_the_end(self, terms):
        words = [tuple((n, c, WORD_ATOMS[n]) for n, c in pairs) for pairs, _ in terms]
        ms = [m for _, m in terms]
        net, surviving, atoms = _accumulate(words, iter(ms))
        assert net == sum(ms)
        scaled = [(n, m * c) for pairs, m in terms if m for n, c in pairs]
        assert list(surviving.items()) == model(scaled, drop_early=False)
        assert all(atoms[n] is WORD_ATOMS[n] for n in surviving)


class TestTypes:
    @pytest.mark.parametrize("k", [F(1, 2), F(2), True, 1.0])
    def test_exponents_must_be_ints(self, k):
        f = constant_atom("f", 1)
        with pytest.raises(TypeError, match="must be an int"):
            FreeWord([(f, k)])
        with pytest.raises(TypeError, match="must be an int"):
            FreeWord.from_atom(f).pow(k)

    def test_coefficients_must_be_ints(self):
        a = REGION_ATOMS["a"]
        with pytest.raises(TypeError, match="must be an int"):
            SymbolicHybridSet([(a, F(1, 2))])
        with pytest.raises(TypeError, match="must be an int"):
            SymbolicHybridSet.from_atom(a) * F(2)

    def test_atoms_of_the_other_kind_are_refused(self):
        with pytest.raises(TypeError, match="expected FunctionAtom"):
            FreeWord([(REGION_ATOMS["a"], 1)])
        with pytest.raises(TypeError, match="expected RegionAtom"):
            SymbolicHybridSet([(WORD_ATOMS["a"], 1)])
        with pytest.raises(TypeError, match="expected FreeWord"):
            FreeWord.combine([(SymbolicHybridSet.from_atom(REGION_ATOMS["a"]), 1)])


class TestNameClash:
    A1 = SymbolicHybridSet.from_atom(RegionAtom("A", Interval1D(F(0), F(1))))
    A2 = SymbolicHybridSet.from_atom(RegionAtom("A", Interval1D(F(0), F(2))))
    F5 = FreeWord.from_atom(constant_atom("f", 5))
    F2 = FreeWord.from_atom(constant_atom("f", 2))

    def test_regions_through_plus_minus_and_combine(self):
        for clash in (
            lambda: self.A1 + self.A2,
            lambda: self.A1 - self.A2,
            lambda: SymbolicHybridSet.combine([(self.A1, 1), (self.A2, 0)]),
        ):
            with pytest.raises(ContractError, match="region name 'A' bound to two shapes"):
                clash()

    def test_words_through_mul_plus_and_combine(self):
        for clash in (
            lambda: self.F5.mul(self.F2),
            lambda: self.F5 + self.F2,
            lambda: FreeWord.combine([(self.F5, 1), (self.F2, -1)]),
        ):
            with pytest.raises(ContractError, match="atom name 'f' bound to two definitions"):
                clash()

    def test_equal_atoms_under_one_name_merge(self):
        again = FreeWord.from_atom(constant_atom("f", 5))
        assert again is not self.F5
        assert self.F5.mul(again) == self.F5.pow(2)


class TestClashAcrossTerms:
    """One expression can bind an atom name to two definitions in different
    terms; evaluation must refuse it rather than read one of them."""

    U_ATOM = RegionAtom("U", Interval1D(F(0), F(2)))
    U = SymbolicHybridSet.from_atom(U_ATOM)
    B = SymbolicHybridSet.from_atom(RegionAtom("B", Interval1D(F(0), "b")))
    C = SymbolicHybridSet.from_atom(RegionAtom("C", Interval1D(F(0), "c")))
    f5, f2, z = constant_atom("f", 5), constant_atom("f", 2), constant_atom("z", 0)
    V = Valuation({"b": 1, "c": 1})

    def test_marked_and_plain_joins_raise_before_the_first_outcome(self):
        for e in (
            marked_join(PLUS, [term(self.f5, self.B), term(self.f2, self.C)]),
            join(term(self.f5, self.B), term(self.f2, self.C)),
        ):
            outcomes = evaluate_many(e, [F(3, 2), F(1, 2)], self.V)
            with pytest.raises(ContractError, match="atom name 'f' bound to two definitions"):
                next(outcomes)

    def test_pointwise_star_raises(self):
        op1 = join(term(self.f5, self.B), term(self.z, self.U - self.B))
        op2 = join(term(self.f2, self.C), term(self.z, self.U - self.C))
        with pytest.raises(ContractError, match="atom name 'f' bound to two definitions"):
            evaluate(pointwise_star(PLUS, op1, op2, universe=self.U_ATOM), F(1, 2), self.V)

    def test_equal_definitions_in_different_terms_evaluate(self):
        twin = constant_atom("f", 5)
        e = marked_join(PLUS, [term(self.f5, self.B), term(twin, self.C)])
        out = evaluate(e, F(1, 2), self.V)
        assert (out.value, out.multiplicity) == (10, 2)
