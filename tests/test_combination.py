"""The free-abelian core shared by region combinations and value words:
type checks, the name-clash check, and the two item orders."""

import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from hybridsets import (
    INT64_MAX,
    INT64_MIN,
    HybridSet,
    PLUS,
    ContractError,
    FreeWord,
    HybridError,
    Interval1D,
    MultiplicityOverflowError,
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

    # One region built from 1-4 (interval atom, coefficient) pairs over the
    # parameters a, b, c and t, in the drawn order and in a shuffled one,
    # under a valuation that may leave any of them unset.
    @seed(34)
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("PQRS"), st.sampled_from("abct"), st.sampled_from("abct"),
                      st.sampled_from([-2, -1, 1, 2])),
            min_size=1, max_size=4, unique_by=lambda pair: pair[0],
        ).flatmap(lambda pairs: st.tuples(st.just(pairs), st.permutations(pairs))),
        st.dictionaries(st.sampled_from("abct"), st.integers(0, 3).map(F)),
    )
    def test_a_region_is_read_in_print_order_whatever_built_it(self, orders, values):
        built = [
            SymbolicHybridSet((RegionAtom(name, Interval1D(lo, hi)), c) for name, lo, hi, c in pairs)
            for pairs in orders
        ]
        valuation = Valuation(values)

        def outcome(region, x):
            try:
                return region.multiplicity(x, valuation)
            except HybridError as exc:
                return type(exc), str(exc)

        for x in (F(k, 2) for k in range(-1, 8)):
            assert outcome(built[0], x) == outcome(built[1], x)

    @given(st.lists(st.tuples(entry_lists, st.integers(-2, 2)), max_size=5))
    def test_accumulate_drops_zeros_at_the_end(self, terms):
        words = [tuple((n, c, WORD_ATOMS[n]) for n, c in pairs) for pairs, _ in terms]
        ms = [m for _, m in terms]
        net, surviving, atoms = _accumulate(words, iter(ms))
        assert net == sum(ms)
        scaled = [(n, m * c) for pairs, m in terms if m for n, c in pairs]
        assert list(surviving.items()) == model(scaled, drop_early=False)
        assert all(atoms[n] is WORD_ATOMS[n] for n in surviving)


KINDS = ((SymbolicHybridSet, REGION_ATOMS, False), (FreeWord, WORD_ATOMS, True))


class TestSeededMerge:
    """A leading pair whose scalar is the int 1 seeds ``combine``'s merge:
    its dicts are copied, and every later pair is merged and checked."""

    @given(entry_lists, st.lists(st.tuples(entry_lists, scalars), max_size=4))
    @example([("a", 1), ("b", 1)], [([("a", -1), ("c", 1), ("a", 1)], 1)])
    def test_a_seed_gives_the_unseeded_merge_in_both_orders(self, p, rest):
        for cls, atoms, early in KINDS:
            seed = cls((atoms[n], c) for n, c in p)
            before = list(seed._coeffs.items()), list(seed._atoms.items())
            later = [(cls((atoms[n], c) for n, c in q), m) for q, m in rest]
            merged = cls.combine([(seed, 1), *later])
            pairs = list(seed._coeffs.items())
            pairs += [(n, m * c) for x, m in later for n, c in x._coeffs.items()]
            assert list(merged._coeffs.items()) == model(pairs, early)
            entries = [(n, c, seed._atoms[n]) for n, c in seed._coeffs.items()]
            unseeded = cls._from_checked([(entries, 1), *cls._groups(later)])
            assert list(merged._coeffs.items()) == list(unseeded._coeffs.items())
            assert list(merged._atoms.items()) == list(unseeded._atoms.items())
            assert (list(seed._coeffs.items()), list(seed._atoms.items())) == before
            assert merged._coeffs is not seed._coeffs and merged._atoms is not seed._atoms

    def test_later_pairs_are_checked_and_the_seed_is_left_alone(self):
        clashes = (
            (SymbolicHybridSet, RegionAtom("a", Interval1D(F(0), F(1))), "region name 'a'"),
            (FreeWord, constant_atom("a", 1), "atom name 'a'"),
        )
        for (cls, atoms, _), (_, twin, message) in zip(KINDS, clashes):
            seed = cls.from_atom(atoms["a"])
            other = cls([(atoms["b"], 1), (twin, 1)])
            with pytest.raises(ContractError, match=message):
                cls.combine([(seed, 1), (other, 1)])
            with pytest.raises(MultiplicityOverflowError):
                cls.combine([(seed.scale(INT64_MAX), 1), (cls.from_atom(atoms["b"]), 1), (seed, 1)])
            for scalar in (True, F(1)):
                with pytest.raises(TypeError, match="scalar must be an int"):
                    cls.combine([(seed, scalar), (other, 1)])
            assert list(seed._coeffs.items()) == [("a", 1)]
            assert list(seed._atoms.items()) == [("a", atoms["a"])]


class TestDifferences:
    def test_a_difference_that_fits_is_not_refused_for_its_negation(self):
        # -INT64_MIN leaves the 64-bit range, but a - b may fit where -b
        # does not: a sum is checked on its result, not on -b
        low = HybridSet([("a", INT64_MIN)])
        assert HybridSet([("a", INT64_MIN), ("b", 1)]).ominus(low).render() == "{b^1}"
        for cls, atoms, _ in KINDS:
            low = cls([(atoms["a"], INT64_MIN)])
            both = cls([(atoms["a"], INT64_MIN), (atoms["b"], 1)])
            b = cls.from_atom(atoms["b"])
            assert both - low == b
            assert cls.combine([(both, 1), (low, -1)]) == b
            assert cls.combine([(low, -1), (both, 1)]) == b
            assert cls.combine([(b, 2), (low, 1), (both, -1)]) == b
            for negate in (lambda: -low, lambda: low.scale(-1), lambda: cls.combine([(low, -1)])):
                with pytest.raises(MultiplicityOverflowError):
                    negate()


near_the_limits = st.one_of(
    st.integers(INT64_MIN, INT64_MIN + 2), st.integers(-2, 2), st.integers(INT64_MAX - 2, INT64_MAX)
)
OVERFLOW = re.compile(r"multiplicity (-?\d+) leaves the 64-bit range")


def outcome(sum_of, items):
    """``sum_of(items)``, or MultiplicityOverflowError and the value it names."""
    try:
        return sum_of(items)
    except MultiplicityOverflowError as e:
        return MultiplicityOverflowError, int(OVERFLOW.fullmatch(str(e)).group(1))


class TestOrderFreeSums:
    """A combination is an element of a free abelian group, so a sum's value,
    and whether it fits in 64 bits, does not depend on the order of its
    pairs: a sum that fits never raises, and one that does not raises
    MultiplicityOverflowError for a value of its result."""

    @seed(1990)
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from("ab"), near_the_limits), max_size=6),
        st.lists(
            st.tuples(
                st.dictionaries(st.sampled_from("ab"), near_the_limits, max_size=2),
                st.integers(-2, 2),
            ),
            max_size=6,
        ),
    )
    @example([("a", INT64_MAX), ("a", 1), ("a", -1)], [])
    @example([], [({"a": INT64_MIN, "b": 1}, 1), ({"a": INT64_MIN}, -1)])
    def test_every_order_of_the_pairs_gives_one_result(self, pairs, terms):
        for cls, atoms, _ in [(HybridSet, {n: n for n in NAMES}, None), *KINDS]:
            def make(items, cls=cls, atoms=atoms):
                return cls([(atoms[n], c) for n, c in items])

            cases = [(make, pairs, pairs)]
            if cls is not HybridSet:
                combos = [(make(coeffs.items()), k) for coeffs, k in terms]
                scaled = [(n, k * c) for coeffs, k in terms for n, c in coeffs.items()]
                cases.append((cls.combine, combos, scaled))
            for sum_of, items, flat in cases:
                totals = {}
                for n, c in flat:
                    totals[n] = totals.get(n, 0) + c
                wide = {t for t in totals.values() if not INT64_MIN <= t <= INT64_MAX}
                want = None if wide else make(totals.items())
                for order in permutations(items):
                    got = outcome(sum_of, list(order))
                    if wide:
                        assert got[0] is MultiplicityOverflowError and got[1] in wide
                    else:
                        assert got == want

    def test_every_constructor_checks_each_coefficient_it_is_given(self):
        # A given coefficient is a stored value, so one outside the 64-bit
        # range is refused even where the sum would fit; a sum that leaves
        # the range and comes back is not.
        assert outcome(HybridSet, [("a", -1), ("a", INT64_MAX + 1)]) == (
            MultiplicityOverflowError, INT64_MAX + 1
        )
        for cls, atoms, _ in KINDS:
            a = atoms["a"]
            assert outcome(cls, [(a, -1), (a, INT64_MAX + 1)]) == (
                MultiplicityOverflowError, INT64_MAX + 1
            )
            assert cls([(a, INT64_MAX), (a, 1), (a, -1)]) == cls.from_atom(a, INT64_MAX)
        a = REGION_ATOMS["a"]
        assert str(SymbolicHybridSet([(a, INT64_MAX), (a, 1), (a, -1)])) == "9223372036854775807*a"


class TestTypes:
    @pytest.mark.parametrize("k", [F(1, 2), F(2), True, 1.0])
    def test_exponents_must_be_ints(self, k):
        f = constant_atom("f", 1)
        with pytest.raises(TypeError, match="must be an int"):
            FreeWord([(f, k)])
        with pytest.raises(TypeError, match="must be an int"):
            FreeWord.from_atom(f).scale(k)

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
        assert self.F5.mul(again) == self.F5.scale(2)


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
