"""The free-abelian core shared by region combinations and value words:
type checks, the name-clash check, sums, and the one print order."""

import re
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from hybridsets import (
    INT64_MAX,
    INT64_MIN,
    MERGE,
    HybridSet,
    PLUS,
    TIMES,
    ContractError,
    Defined,
    FormalValue,
    FreeWord,
    HybridError,
    Interval1D,
    MultiplicityOverflowError,
    RegionAtom,
    SymbolicHybridSet,
    Valuation,
    atom,
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
KINDS = ((SymbolicHybridSet, REGION_ATOMS), (FreeWord, WORD_ATOMS))

entry_lists = st.lists(st.tuples(st.sampled_from(NAMES), st.integers(-2, 2)), max_size=12)
scalars = st.integers(-3, 3)


def names_of(items):
    return [(a.name, c) for a, c in items]


def totals_of(pairs) -> dict:
    """(name, coefficient) pairs summed in a plain dict, zeros dropped."""
    out = {}
    for name, c in pairs:
        out[name] = out.get(name, 0) + c
    return {name: c for name, c in out.items() if c}


def outcome_of(make):
    """``make()``, or the type and message of the HybridError it raises."""
    try:
        return make()
    except HybridError as exc:
        return type(exc), str(exc)


near_the_limits = st.one_of(
    st.integers(INT64_MIN, INT64_MIN + 2), st.integers(-2, 2), st.integers(INT64_MAX - 2, INT64_MAX)
)
# one entry list per term; each term's word built from its own list
limit_lists = st.lists(st.tuples(st.sampled_from(NAMES), near_the_limits), min_size=1, max_size=6)
# region atoms whose ends are parameters q_a .. q_d, which a valuation may leave unset
PARAM_REGIONS = {n: RegionAtom(n, Interval1D(F(0), f"q_{n}")) for n in NAMES}
UNIVERSE = SymbolicHybridSet.from_atom(RegionAtom("U", Interval1D(F(-10), F(10))))


class TestPrintOrder:
    """A combination is an element of a free abelian group, so its atoms
    have no order of their own (Blizard 1990): a word, a region and a
    formal value print, list and are read in print order, positive
    coefficients first, then negative ones, each by name, whatever order
    of entries, merges and terms built them."""

    @staticmethod
    def builds(cls, atoms, pairs, shuffled):
        """``cls`` from ``pairs`` three ways: in the drawn order, in a
        shuffled one, and by a combine that cancels every atom and brings
        it back in the shuffled order."""
        drawn = [(atoms[n], c) for n, c in pairs]
        again = [(atoms[n], c) for n, c in shuffled]
        return (
            lambda: cls(drawn),
            lambda: cls(again),
            lambda: cls.combine([(cls(drawn), 1), (cls(drawn), -1), (cls(again), 1)]),
        )

    @seed(36)
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(limit_lists.flatmap(lambda p: st.tuples(st.just(p), st.permutations(p))),
                 min_size=1, max_size=3),
        st.lists(st.sampled_from([-1, 1, 2]), min_size=3, max_size=3),
        st.booleans(),
        st.dictionaries(st.sampled_from([f"p_{n}" for n in NAMES] + [f"q_{n}" for n in NAMES]),
                        st.integers(0, 3).map(F)),
        st.permutations(range(3)),
    )
    @example([([("a", 1), ("b", 1), ("a", -1), ("a", 1)], [("a", 1), ("a", -1), ("b", 1), ("a", 1)])],
             [1, 1, 1], True, {}, [0, 1, 2])
    @example([([("a", INT64_MAX), ("b", INT64_MIN), ("b", -1), ("a", 1)],
               [("b", -1), ("a", 1), ("b", INT64_MIN), ("a", INT64_MAX)])], [1, 1, 1], False, {}, [0, 1, 2])
    def test_every_build_order_prints_lists_evaluates_and_raises_alike(
        self, words, ms, opaque, values, perm
    ):
        valuation = Valuation(values)
        word_atoms = {n: atom(n) if opaque else atom(n, f"p_{n}") for n in NAMES}
        for cls, atoms in ((SymbolicHybridSet, PARAM_REGIONS), (FreeWord, word_atoms)):
            for pairs, shuffled in words:
                seen = [outcome_of(build) for build in self.builds(cls, atoms, pairs, shuffled)]
                totals = totals_of(pairs)
                if not any(INT64_MIN > c or c > INT64_MAX for c in totals.values()):
                    want = sorted(totals.items(), key=lambda kv: (kv[1] < 0, kv[0]))
                    if cls is SymbolicHybridSet:
                        want.sort()  # a region lists its atoms by name
                    assert names_of(seen[0].items()) == want
                shown = [
                    x if isinstance(x, tuple) else (
                        x.render(), names_of(x.items()),
                        [outcome_of(lambda: x.multiplicity(F(k, 2), valuation)) for k in range(-1, 8)]
                        if cls is SymbolicHybridSet else None,
                    )
                    for x in seen
                ]
                assert shown[1:] == shown[:1] * 2

        # formal values and values: one term per word, over U scaled by its
        # multiplicity, the terms in the drawn order and in a shuffled one
        built = [[outcome_of(b) for b in self.builds(FreeWord, word_atoms, p, q)] for p, q in words]
        if any(isinstance(w, tuple) or w.is_empty for ws in built for w in ws):
            return
        order = [i for i in perm if i < len(words)]
        for star in (None, PLUS, TIMES, MERGE):
            def value(ws, order, star=star):
                terms = [term(ws[i], UNIVERSE.scale(ms[i])) for i in order]
                e = join(*terms) if star is None else marked_join(star, terms)
                out = outcome_of(lambda: evaluate(e, F(0), valuation))
                if isinstance(out, Defined) and isinstance(out.value, FormalValue):
                    return out.value.render(), names_of(out.value.combination.items())
                return out

            drawn = value([ws[0] for ws in built], range(len(words)))
            for k in (1, 2):
                assert value([ws[k] for ws in built], order) == drawn, (star, k)


class TestSums:
    @given(entry_lists, entry_lists, scalars, scalars)
    def test_combine_scales_then_merges(self, p, q, m, n):
        for cls, atoms in KINDS:
            x = cls((atoms[name], c) for name, c in p)
            y = cls((atoms[name], c) for name, c in q)
            merged = cls.combine(((x, m), (y, n)))
            raw = [(name, m * c) for name, c in p] + [(name, n * c) for name, c in q]
            assert dict(merged._coeffs) == totals_of(raw)
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

    @given(st.lists(st.tuples(entry_lists, st.integers(0, 3), st.integers(-2, 2)), max_size=5),
           st.lists(st.tuples(entry_lists, entry_lists), max_size=3))
    def test_accumulate_sums_the_scaled_words(self, terms, steps):
        # a plan's records: (own word, birth step b, region), one link and
        # one added word per step; term j's word is links[:b] plus its own
        # word plus added[b:]
        def word(pairs):
            return FreeWord((WORD_ATOMS[n], c) for n, c in pairs)

        links, added = [word(pairs) for pairs, _ in steps], [word(pairs) for _, pairs in steps]
        records = [(word(pairs), b % (len(added) + 1), None) for pairs, b, _ in terms]
        plan = SimpleNamespace(records=records, links=links, added=added, atoms=dict(WORD_ATOMS))
        ms = [m for _, _, m in terms]
        net, surviving, atoms = _accumulate(plan, iter(ms))
        assert net == sum(ms)
        scaled = [(n, m * c) for (w, b, _), m in zip(records, ms) if m
                  for x in (*links[:b], w, *added[b:]) for n, c in x._coeffs.items()]
        assert surviving == totals_of(scaled)
        assert atoms is plan.atoms
        assert all(atoms[n] is WORD_ATOMS[n] for n in surviving)


class TestSeededMerge:
    """A leading pair whose scalar is the int 1 seeds ``combine``'s merge:
    its dicts are copied, and every later pair is merged and checked."""

    @given(entry_lists, st.lists(st.tuples(entry_lists, scalars), max_size=4))
    @example([("a", 1), ("b", 1)], [([("a", -1), ("c", 1), ("a", 1)], 1)])
    def test_a_seed_gives_the_unseeded_merge_in_both_orders(self, p, rest):
        for cls, atoms in KINDS:
            seed = cls((atoms[n], c) for n, c in p)
            before = list(seed._coeffs.items()), list(seed._atoms.items())
            later = [(cls((atoms[n], c) for n, c in q), m) for q, m in rest]
            merged = cls.combine([(seed, 1), *later])
            pairs = list(seed._coeffs.items())
            pairs += [(n, m * c) for x, m in later for n, c in x._coeffs.items()]
            assert dict(merged._coeffs) == totals_of(pairs)
            entries = [(n, c, seed._atoms[n]) for n, c in seed._coeffs.items()]
            unseeded = cls._from_checked([(entries, 1), *cls._groups(later)])
            assert merged == unseeded
            assert (list(seed._coeffs.items()), list(seed._atoms.items())) == before
            assert merged._coeffs is not seed._coeffs and merged._atoms is not seed._atoms

    def test_later_pairs_are_checked_and_the_seed_is_left_alone(self):
        clashes = (
            (SymbolicHybridSet, RegionAtom("a", Interval1D(F(0), F(1))), "region name 'a'"),
            (FreeWord, constant_atom("a", 1), "atom name 'a'"),
        )
        for (cls, atoms), (_, twin, message) in zip(KINDS, clashes):
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
        for cls, atoms in KINDS:
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
        for cls, atoms in [(HybridSet, {n: n for n in NAMES}), *KINDS]:
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
        for cls, atoms in KINDS:
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


    @pytest.mark.parametrize("cls, atoms", KINDS, ids=["region", "word"])
    def test_from_atom_checks_as_the_constructor_checks(self, cls, atoms):
        # from_atom builds its dicts without a merge; its errors, types and
        # messages are the constructor's, and a coefficient of 0 is empty
        a = atoms["a"]
        other = (WORD_ATOMS if atoms is REGION_ATOMS else REGION_ATOMS)["a"]
        for given, k in ((other, 1), ("a", 1), (a, F(1, 2)), (a, True), (a, 1.0),
                         (a, INT64_MAX + 1), (a, INT64_MIN - 1)):
            with pytest.raises((TypeError, MultiplicityOverflowError)) as want:
                cls([(given, k)])
            with pytest.raises(type(want.value)) as got:
                cls.from_atom(given, k)
            assert str(got.value) == str(want.value)
        for k in (0, 1, -3, INT64_MAX, INT64_MIN):
            built = cls.from_atom(a, k)
            assert type(built) is cls and built == cls([(a, k)])
            assert list(built._atoms) == list(built._coeffs)
        assert cls.from_atom(a, 0).is_zero and cls.from_atom(a)._coeffs == {"a": 1}


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

    # Two words that both print f * g, bound to other definitions of f and
    # g than x's, built in either order: the error names the least
    # clashing name, f, whichever order built them.
    f1, g1, f2, g2 = (constant_atom(n, v) for v in (1, 2) for n in "fg")
    X = FreeWord([(f1, 1), (g1, 1)])
    ORDERS = ([(g2, 1), (f2, 1)], [(f2, 1), (g2, 1)])

    @pytest.mark.parametrize("built", ORDERS, ids=["g-first", "f-first"])
    def test_a_merge_names_the_least_clashing_name_whatever_the_order(self, built):
        y = FreeWord(built)
        for attempt in (lambda: self.X.mul(y), lambda: y.mul(self.X),
                        lambda: FreeWord([*built, (self.f1, 1), (self.g1, 1)])):
            with pytest.raises(ContractError, match="atom name 'f' bound to two definitions"):
                attempt()
        a, b = RegionAtom("a", Interval1D(F(0), F(1))), RegionAtom("b", Interval1D(F(0), F(1)))
        a2, b2 = RegionAtom("a", Interval1D(F(0), F(2))), RegionAtom("b", Interval1D(F(0), F(2)))
        twice = [(b2, 1), (a2, 1)] if built[0][0] is self.g2 else [(a2, 1), (b2, 1)]
        with pytest.raises(ContractError, match="region name 'a' bound to two shapes"):
            SymbolicHybridSet([(a, 1), (b, 1)]) + SymbolicHybridSet(twice)

    @pytest.mark.parametrize("built", ORDERS, ids=["g-first", "f-first"])
    @pytest.mark.parametrize("star", [None, PLUS, MERGE])
    def test_a_plan_names_the_least_clashing_name_whatever_the_order(self, built, star):
        y = FreeWord(built)
        for words in ((self.X, y), (y, self.X)):
            terms = [term(w, r) for w, r in zip(words, (self.B, self.C))]
            e = join(*terms) if star is None else marked_join(star, terms)
            for call in (lambda: evaluate(e, F(1, 2), self.V),
                         lambda: list(evaluate_many(e, [F(1, 2)], self.V))):
                with pytest.raises(ContractError, match="atom name 'f' bound to two definitions"):
                    call()
