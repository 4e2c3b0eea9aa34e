"""Signed-multiplicity sets: construction, rendering, and the module laws."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridsets import (
    HybridSet,
    INT64_MAX,
    INT64_MIN,
    MultiplicityOverflowError,
    NotReducibleError,
    ParseError,
    UniverseMismatchError,
    checked_add,
    checked_mul,
    ominus,
    oplus,
    otimes,
    reduce_set,
    scalar,
    support,
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
    h = HybridSet.from_elements(["x", "y"])
    assert h.reduce() == frozenset({"x", "y"})
    assert h.is_reducible()


def test_reduce_refuses_nonunit_multiplicity():
    assert not HybridSet.parse("{a^2}").is_reducible()
    with pytest.raises(NotReducibleError):
        HybridSet.parse("{a^2}").reduce()
    with pytest.raises(NotReducibleError):
        reduce_set(HybridSet.parse("{a^-1, b}"))


def test_negative_multiplicities_are_first_class():
    h = HybridSet.parse("{a^-1, b^5}")
    assert h.multiplicity("a") == -1
    assert support(h) == frozenset({"a", "b"})
    assert (h + HybridSet.parse("{a}")).support() == frozenset({"b"})


def test_universe_tags_must_match():
    a = HybridSet.parse("{a}", universe_tag="U")
    b = HybridSet.parse("{a}", universe_tag="V")
    with pytest.raises(UniverseMismatchError):
        a.oplus(b)
    with pytest.raises(UniverseMismatchError):
        a.otimes(b)


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


def test_multiplicities_must_be_ints():
    with pytest.raises(TypeError):
        HybridSet([("a", 1.5)])
    with pytest.raises(TypeError):
        HybridSet([("a", True)])
    with pytest.raises(TypeError):
        HybridSet.parse("{a}").scale("2")


@given(hybrid_sets(), hybrid_sets())
def test_oplus_commutes(a, b):
    assert oplus(a, b) == oplus(b, a)


@given(hybrid_sets(), hybrid_sets(), hybrid_sets())
def test_oplus_associates(a, b, c):
    assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))


@given(hybrid_sets())
def test_empty_is_the_identity(a):
    assert oplus(a, HybridSet.empty()) == a
    assert ominus(a, HybridSet.empty()) == a


@given(hybrid_sets())
def test_ominus_self_gives_empty(a):
    assert ominus(a, a) == HybridSet.empty()
    assert oplus(a, -a) == HybridSet.empty()


@given(hybrid_sets(), hybrid_sets())
def test_ominus_is_oplus_of_negation(a, b):
    assert ominus(a, b) == oplus(a, -b)


@given(st.integers(-50, 50), st.integers(-50, 50), hybrid_sets())
def test_scalars_distribute_over_scalar_sum(m, n, a):
    assert scalar(m + n, a) == oplus(scalar(m, a), scalar(n, a))


@given(st.integers(-50, 50), hybrid_sets(), hybrid_sets())
def test_scalars_distribute_over_oplus(n, a, b):
    assert scalar(n, oplus(a, b)) == oplus(scalar(n, a), scalar(n, b))


@given(st.integers(-50, 50), st.integers(-50, 50), hybrid_sets())
def test_scalar_action_composes(m, n, a):
    assert scalar(m, scalar(n, a)) == scalar(m * n, a)


@given(hybrid_sets())
def test_scalar_one_and_zero(a):
    assert scalar(1, a) == a
    assert scalar(0, a) == HybridSet.empty()


@given(hybrid_sets(), hybrid_sets())
def test_otimes_commutes(a, b):
    assert otimes(a, b) == otimes(b, a)


@given(hybrid_sets(), hybrid_sets(), hybrid_sets())
def test_otimes_distributes_over_oplus(a, b, c):
    assert otimes(a, oplus(b, c)) == oplus(otimes(a, b), otimes(a, c))


@given(hybrid_sets(), hybrid_sets())
def test_disjointness_is_empty_product(a, b):
    assert a.is_disjoint(b) == (not support(a) & support(b))
    assert a.is_disjoint(b) == (otimes(a, b) == HybridSet.empty())


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
