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
    NotReducibleError,
    ParseError,
    UniverseMismatchError,
    checked_add,
    checked_mul,
)

elements = st.one_of(
    st.integers(-20, 20).map(Fraction),
    st.sampled_from(["a", "b", "c", "f", "g", "left", "right"]),
    st.tuples(st.integers(-5, 5).map(Fraction), st.integers(-5, 5).map(Fraction)),
)

multiplicities = st.integers(-1000, 1000)


@st.composite
def hybrid_sets(draw):
    pairs = draw(st.lists(st.tuples(elements, multiplicities), max_size=8))
    return HybridSet(pairs)


def test_zero_multiplicities_vanish():
    h = HybridSet([("a", 2), ("a", -2), ("b", 3)])
    assert "a" not in h
    assert h.multiplicity("b") == 3
    assert len(h) == 1


def test_parse_merges_and_render_sorts():
    h = HybridSet.parse("{a^2, b, a^-3, b^4}")
    assert h.render() == "{a^-1, b^5}"
    assert h.multiplicity("a") == -1
    assert h.multiplicity("b") == 5


def test_parse_round_trip_mixed_elements():
    text = "{-1/2^3, a^-2, (1, 2)^4}"
    h = HybridSet.parse(text)
    assert HybridSet.parse(h.render()) == h
    assert h.multiplicity(Fraction(-1, 2)) == 3
    assert h.multiplicity((Fraction(1), Fraction(2))) == 4


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        HybridSet.parse("a^2, b")
    with pytest.raises(ParseError):
        HybridSet.parse("{a^x}")
    with pytest.raises(ParseError):
        HybridSet.parse("{a^2, , b}")


@pytest.mark.parametrize(
    "text",
    ["{+1}", "{1.5}", "{1e100000000}", "{1_0}", "{a^+2}", "{1/0}", "{(1, 2/0)}",
     "{a^99999999999999999999}"],
)
def test_parse_reads_numbers_as_a_workspace_does(text):
    with pytest.raises(ParseError):
        HybridSet.parse(text)


def test_parse_bounds_how_deep_tuples_nest():
    with pytest.raises(ParseError, match="nest more than 200 deep") as exc:
        HybridSet.parse("{" + "(" * 3000 + "1" + ")" * 3000 + "}")
    assert exc.value.column == 202
    nested = HybridSet.parse("{" + "(" * 200 + "1" + ")" * 200 + "^2}")
    assert nested.render() == "{" + "(" * 200 + "1" + ")" * 200 + "^2}"


def test_empty_set_renders_as_braces():
    assert HybridSet.empty().render() == "{}"
    assert not HybridSet.empty()
    assert HybridSet.parse("{}") == HybridSet.empty()


def test_from_elements_builds_classical_set():
    h = HybridSet((el, 1) for el in ["x", "y"])
    assert h.reduce() == frozenset({"x", "y"})


def test_reduce_refuses_nonunit_multiplicity():
    with pytest.raises(NotReducibleError):
        HybridSet.parse("{a^2}").reduce()
    with pytest.raises(NotReducibleError):
        HybridSet.parse("{a^-1, b}").reduce()


def test_negative_multiplicities_are_first_class():
    h = HybridSet.parse("{a^-1, b^5}")
    assert h.multiplicity("a") == -1
    assert h.support() == frozenset({"a", "b"})
    assert (h + HybridSet.parse("{a}")).support() == frozenset({"b"})


def test_universe_tags_must_match():
    a = HybridSet.parse("{a}", universe_tag="U")
    b = HybridSet.parse("{a}", universe_tag="V")
    with pytest.raises(UniverseMismatchError):
        a.oplus(b)
    with pytest.raises(UniverseMismatchError):
        a.otimes(b)


def test_an_operand_that_is_not_a_hybrid_set_is_refused_by_type():
    h = HybridSet.parse("{a}")
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
        checked_add(INT64_MAX, 1)
    with pytest.raises(MultiplicityOverflowError):
        checked_mul(INT64_MIN, -1)
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
        HybridSet.parse("{a}").scale("2")


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


@given(hybrid_sets())
def test_render_parse_round_trip(a):
    assert HybridSet.parse(a.render()) == a


@given(hybrid_sets(), hybrid_sets())
def test_equality_agrees_with_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_operator_sugar_matches_named_ops():
    a = HybridSet.parse("{a^2, b^-1}")
    b = HybridSet.parse("{b^4}")
    assert a + b == a.oplus(b)
    assert a - b == a.ominus(b)
    assert 3 * a == a.scale(3) == a * 3
    assert -a == a.scale(-1)


def test_each_operation_merges_at_most_once(monkeypatch):
    # The operands are checked sums already, so a result is one merge of
    # their entries (none for a product), not merged again to be checked.
    from hybridsets import hybridset

    a = HybridSet.parse("{a^2, b^-1, (1, 2)^3}")
    b = HybridSet.parse("{b^4, c}")
    want = {
        "oplus": HybridSet.parse("{a^2, b^3, c, (1, 2)^3}"),
        "ominus": HybridSet.parse("{a^2, b^-5, c^-1, (1, 2)^3}"),
        "scale": HybridSet.parse("{a^6, b^-3, (1, 2)^9}"),
        "otimes": HybridSet.parse("{b^-4}"),
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
