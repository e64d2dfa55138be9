import pytest
from hypothesis import given
from hypothesis import strategies as st

from tokenslide import InputError, TokenMultiset

counts = st.dictionaries(st.integers(0, 15), st.integers(1, 4), max_size=8)


def test_union_adds_counts():
    assert TokenMultiset({1: 2}).union(TokenMultiset({1: 1})) == TokenMultiset({1: 3})


def test_intersection_takes_minimum():
    assert TokenMultiset({1: 2}).intersection(TokenMultiset({1: 1})) == TokenMultiset({1: 1})


def test_symmetric_difference_of_nested_counts():
    assert TokenMultiset({1: 2}).symmetric_difference(TokenMultiset({1: 1})) == TokenMultiset({1: 1})


def test_construction_from_iterable_counts_repeats():
    t = TokenMultiset([3, 3, 5])
    assert t.count(3) == 2 and t.count(5) == 1 and t.total == 3
    assert t.support == {3, 5}


def test_negative_count_rejected():
    with pytest.raises(InputError):
        TokenMultiset({0: -1})


def test_from_counts_list_rejects_negative_counts():
    with pytest.raises(InputError, match="negative multiplicity -1 for vertex 2"):
        TokenMultiset.from_counts_list([1, 0, -1, -2])


@given(st.lists(st.integers(0, 3), max_size=20))
def test_from_counts_list_equals_the_dict_form(dense):
    t = TokenMultiset.from_counts_list(dense)
    expected = TokenMultiset(dict(enumerate(dense)))
    assert t == expected and t.key() == expected.key() and t.total == expected.total
    assert t.items() == [(v, c) for v, c in enumerate(dense) if c]


def test_zero_counts_dropped():
    t = TokenMultiset({0: 0, 1: 2})
    assert 0 not in t and t.key() == ((1, 2),)


def test_slide_moves_one_token():
    t = TokenMultiset({0: 1, 2: 1})
    assert t.slide(2, 3) == TokenMultiset({0: 1, 3: 1})


def test_slide_decrements_multiplicity():
    assert TokenMultiset({0: 2}).slide(0, 1) == TokenMultiset({0: 1, 1: 1})


def test_slide_onto_same_vertex_is_identity():
    t = TokenMultiset({0: 1})
    assert t.slide(0, 0) == t


def test_slide_without_token_fails():
    with pytest.raises(InputError):
        TokenMultiset({0: 1}).slide(1, 0)


@given(counts, counts)
def test_cardinality_identities(a_counts, b_counts):
    a = TokenMultiset(a_counts)
    b = TokenMultiset(b_counts)
    assert a.union(b).total == a.total + b.total
    assert a.symmetric_difference(b).total + 2 * a.intersection(b).total == a.total + b.total
    assert a.symmetric_difference(b) == a.union(b).difference(a.intersection(b)).difference(
        a.intersection(b)
    )


@given(counts, counts)
def test_difference_clamps_at_zero(a_counts, b_counts):
    a = TokenMultiset(a_counts)
    b = TokenMultiset(b_counts)
    d = a.difference(b)
    for v in d.support:
        assert d.count(v) == a.count(v) - b.count(v) > 0


@given(counts, st.integers(0, 15))
def test_slide_round_trip(a_counts, u):
    a = TokenMultiset(a_counts)
    if a.count(u) == 0:
        return
    there = a.slide(u, 99)
    assert there.total == a.total
    assert there.slide(99, u) == a


@given(counts)
def test_key_is_canonical(a_counts):
    a = TokenMultiset(a_counts)
    b = TokenMultiset(dict(reversed(list(a_counts.items()))))
    assert a == b and a.key() == b.key() and hash(a) == hash(b)
