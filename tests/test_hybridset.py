"""Signed-multiplicity sets: construction, rendering, and the module laws."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridsets import (
    ContractError,
    HybridSet,
    INT64_MAX,
    INT64_MIN,
    MultiplicityOverflowError,
    UniverseMismatchError,
)
from hybridsets.hybridset import checked_int

elements = st.one_of(
    st.integers(-20, 20).map(Fraction),
    st.sampled_from(["a", "b", "c", "f", "g", "left", "right"]),
    st.tuples(st.integers(-5, 5).map(Fraction), st.integers(-5, 5).map(Fraction)),
)

multiplicities = st.integers(-1000, 1000)

PAIR = (Fraction(1), Fraction(2))


@st.composite
def hybrid_sets(draw):
    pairs = draw(st.lists(st.tuples(elements, multiplicities), max_size=8))
    return HybridSet(pairs)


def test_zero_multiplicities_vanish():
    h = HybridSet([("a", 2), ("a", -2), ("b", 3)])
    assert "a" not in h
    assert h.multiplicity("b") == 3
    assert len(h) == 1


def test_construction_merges_and_render_sorts():
    h = HybridSet([("a", 2), ("b", 1), ("a", -3), ("b", 4)])
    assert h.render() == "{a^-1, b^5}"
    assert h.multiplicity("a") == -1
    assert h.multiplicity("b") == 5


def test_render_writes_mixed_elements_in_order():
    h = HybridSet([("a", -2), (PAIR, 4), (Fraction(-1, 2), 3)])
    assert h.render() == "{-1/2^3, a^-2, (1, 2)^4}"
    assert h.multiplicity(Fraction(-1, 2)) == 3
    assert h.multiplicity(PAIR) == 4


def test_render_writes_a_tuple_nested_200_deep():
    el = Fraction(1)
    for _ in range(200):
        el = (el,)
    assert HybridSet([(el, 2)]).render() == "{" + "(" * 200 + "1" + ")" * 200 + "^2}"


@pytest.mark.parametrize(
    "entries, text",
    [
        ([("a", 1)], "{a^1}"),
        ([("a", -1)], "{a^-1}"),
        ([(Fraction(3), 2)], "{3^2}"),
        ([(3, 2)], "{3^2}"),
        ([(Fraction(-7, 3), 1)], "{-7/3^1}"),
        ([(("x", Fraction(1, 2)), -5)], "{(x, 1/2)^-5}"),
        ([((), 1)], "{()^1}"),
        ([("b", 1), ("a", 1)], "{a^1, b^1}"),
        ([(Fraction(2), 1), (Fraction(-1), 1)], "{-1^1, 2^1}"),
        ([((Fraction(1),), 1), (Fraction(1), 1), ("a", 1)], "{1^1, a^1, (1)^1}"),
        ([("a", INT64_MIN), ("b", INT64_MAX)],
         "{a^-9223372036854775808, b^9223372036854775807}"),
    ],
)
def test_render_writes_each_element_kind(entries, text):
    # numbers before names before tuples; an int element renders as the
    # fraction it equals, and every multiplicity is written, 1 included
    assert HybridSet(entries).render() == text


def test_empty_set_renders_as_braces():
    assert HybridSet.empty().render() == "{}"
    assert not HybridSet.empty()
    assert HybridSet([("a", 1), ("a", -1)]) == HybridSet.empty()


def test_from_elements_builds_classical_set():
    h = HybridSet((el, 1) for el in ["x", "y"])
    assert h.support() == frozenset({"x", "y"})
    assert h.multiplicity("x") == h.multiplicity("y") == 1


def test_negative_multiplicities_are_first_class():
    h = HybridSet([("a", -1), ("b", 5)])
    assert h.multiplicity("a") == -1
    assert h.support() == frozenset({"a", "b"})
    assert (h + HybridSet([("a", 1)])).support() == frozenset({"b"})


def test_universe_tags_must_match():
    a = HybridSet([("a", 1)], universe_tag="U")
    b = HybridSet([("a", 1)], universe_tag="V")
    with pytest.raises(UniverseMismatchError):
        a.oplus(b)
    with pytest.raises(UniverseMismatchError):
        a.otimes(b)


def test_an_operand_that_is_not_a_hybrid_set_is_refused_by_type():
    h = HybridSet([("a", 1)])
    for op in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            op(h, 3)
        with pytest.raises(TypeError):
            op(3, h)
    for method in (h.oplus, h.ominus, h.otimes):
        with pytest.raises(ContractError, match="must be a HybridSet, got int"):
            method(3)


def test_multiplicity_overflow_is_detected():
    big = HybridSet([("a", INT64_MAX)])
    with pytest.raises(MultiplicityOverflowError):
        big.oplus(HybridSet([("a", 1)]))
    with pytest.raises(MultiplicityOverflowError):
        big.scale(2)
    with pytest.raises(MultiplicityOverflowError):
        HybridSet([("a", INT64_MIN)]).scale(-1)
    with pytest.raises(MultiplicityOverflowError):
        checked_int(INT64_MAX + 1)
    with pytest.raises(MultiplicityOverflowError):
        checked_int(-INT64_MIN)
    # the boundary itself is fine
    assert big.multiplicity("a") == INT64_MAX


def test_sums_check_each_multiplicity_and_each_total():
    # each given multiplicity must fit, even where the total would
    with pytest.raises(MultiplicityOverflowError):
        HybridSet([("a", -1), ("a", INT64_MAX + 1)])
    # a difference that fits is fine although -INT64_MIN does not
    low = HybridSet([("a", INT64_MIN)])
    assert HybridSet([("a", -1)]).ominus(low) == HybridSet([("a", INT64_MAX)])
    with pytest.raises(MultiplicityOverflowError):
        HybridSet.empty().ominus(low)
    # equal elements of different types are one element
    mixed = [(1, 1), (Fraction(1), 1), ((Fraction(2), "t"), 1), ((2, "t"), -1)]
    assert HybridSet(mixed) == HybridSet([(1, 2)])


def test_multiplicities_must_be_ints():
    with pytest.raises(TypeError):
        HybridSet([("a", 1.5)])
    with pytest.raises(TypeError):
        HybridSet([("a", True)])
    with pytest.raises(TypeError):
        HybridSet([("a", 1)]).scale("2")


@given(hybrid_sets(), hybrid_sets())
def test_oplus_commutes(a, b):
    assert a.oplus(b) == b.oplus(a)


@given(hybrid_sets(), hybrid_sets(), hybrid_sets())
def test_oplus_associates(a, b, c):
    assert a.oplus(b).oplus(c) == a.oplus(b.oplus(c))


@given(hybrid_sets())
def test_empty_is_the_identity(a):
    assert a.oplus(HybridSet.empty()) == a
    assert a.ominus(HybridSet.empty()) == a


@given(hybrid_sets())
def test_ominus_self_gives_empty(a):
    assert a.ominus(a) == HybridSet.empty()
    assert a.oplus(-a) == HybridSet.empty()


@given(hybrid_sets(), hybrid_sets())
def test_ominus_is_oplus_of_negation(a, b):
    assert a.ominus(b) == a.oplus(-b)


@given(st.integers(-50, 50), st.integers(-50, 50), hybrid_sets())
def test_scalars_distribute_over_scalar_sum(m, n, a):
    assert a.scale(m + n) == a.scale(m).oplus(a.scale(n))


@given(st.integers(-50, 50), hybrid_sets(), hybrid_sets())
def test_scalars_distribute_over_oplus(n, a, b):
    assert a.oplus(b).scale(n) == a.scale(n).oplus(b.scale(n))


@given(st.integers(-50, 50), st.integers(-50, 50), hybrid_sets())
def test_scalar_action_composes(m, n, a):
    assert a.scale(n).scale(m) == a.scale(m * n)


@given(hybrid_sets())
def test_scalar_one_and_zero(a):
    assert a.scale(1) == a
    assert a.scale(0) == HybridSet.empty()


@given(hybrid_sets(), hybrid_sets())
def test_otimes_commutes(a, b):
    assert a.otimes(b) == b.otimes(a)


@given(hybrid_sets(), hybrid_sets(), hybrid_sets())
def test_otimes_distributes_over_oplus(a, b, c):
    assert a.otimes(b.oplus(c)) == a.otimes(b).oplus(a.otimes(c))


@given(hybrid_sets(), hybrid_sets())
def test_disjointness_is_empty_product(a, b):
    assert a.is_disjoint(b) == (not a.support() & b.support())
    assert a.is_disjoint(b) == (a.otimes(b) == HybridSet.empty())


@given(hybrid_sets(), hybrid_sets())
def test_equality_agrees_with_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_operator_sugar_matches_named_ops():
    a = HybridSet([("a", 2), ("b", -1)])
    b = HybridSet([("b", 4)])
    assert a + b == a.oplus(b)
    assert a - b == a.ominus(b)
    assert 3 * a == a.scale(3) == a * 3
    assert -a == a.scale(-1)


def test_each_operation_merges_at_most_once(monkeypatch):
    # The operands are checked sums already, so a result is one merge of
    # their entries (none for a product), not merged again to be checked.
    from hybridsets import hybridset

    a = HybridSet([("a", 2), ("b", -1), (PAIR, 3)])
    b = HybridSet([("b", 4), ("c", 1)])
    want = {
        "oplus": HybridSet([("a", 2), ("b", 3), ("c", 1), (PAIR, 3)]),
        "ominus": HybridSet([("a", 2), ("b", -5), ("c", -1), (PAIR, 3)]),
        "scale": HybridSet([("a", 6), ("b", -3), (PAIR, 9)]),
        "otimes": HybridSet([("b", -4)]),
    }
    empty = HybridSet.empty()
    calls = []
    real = hybridset.merge
    monkeypatch.setattr(hybridset, "merge", lambda *args: calls.append(args) or real(*args))
    for name, build in (
        ("oplus", lambda: a.oplus(b)),
        ("ominus", lambda: a.ominus(b)),
        ("scale", lambda: a.scale(3)),
        ("otimes", lambda: a.otimes(b)),
    ):
        calls.clear()
        assert build() == want[name]
        assert len(calls) <= 1, name
    calls.clear()
    assert a.scale(0) == empty
    assert len(calls) == 1
