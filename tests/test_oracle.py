"""The oracle's tree walk against the per-case library routes, case by case.

Where a walk step shares code with its per-case route (the Euler fold step,
Ryser's table and the subset sweep), the case is also held to a reference
that shares none: the product of linear forms under MultilinearPoly.__mul__,
the backtracking representative count and the brute-force surplus.  The leaf
step (_leaves) is held to _extend, value for value, at every parent.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_max_surplus, brute_sdr_count
from projclass import oracle
from projclass.euler import MultilinearPoly, euler_class, indicator_vector, sdr_count
from projclass.family import FiniteFamily
from projclass.hall import BipartiteIncidence, max_matching


def assert_case_agrees(case):
    sets, matched, product, permanent, deficient = case
    fam = FiniteFamily(sets)
    assert matched == max_matching(BipartiteIncidence.from_family(fam))[0]
    poly = euler_class(indicator_vector(s) for s in sets)
    # ground element i is bit i - 1 of the walk's monomials
    assert product == {sum(1 << (i - 1) for i in m): c for m, c in poly.terms.items()}
    forms = MultilinearPoly.one()
    for s in sets:
        forms = forms * MultilinearPoly.linear_form(indicator_vector(s))
    assert poly == forms
    assert permanent == sdr_count(fam) == brute_sdr_count(sets)
    assert deficient == (not oracle._subset_sweep(sets)) == (brute_max_surplus(sets) > 0)


def node_of(max_ground, sets):
    node = oracle._root(max_ground)
    for s in sets:
        node = oracle._extend(node, oracle._piece(sum(1 << (i - 1) for i in s)))
    return node


def assert_leaves_equal_extend(node, max_ground):
    """Every leaf under node equals the case of the child _extend builds, and the routes."""
    pieces = [oracle._piece(mask) for mask in range(1 << max_ground)]
    leaves = list(oracle._leaves(node, pieces))
    assert len(leaves) == len(pieces)
    for piece, leaf in zip(pieces, leaves):
        assert leaf == oracle._case(oracle._extend(node, piece))
        assert_case_agrees(leaf)
    return leaves


@pytest.mark.parametrize("max_sets, max_ground", [(3, 3), (2, 4)])
def test_walk_equals_the_per_case_routes_at_every_node(max_sets, max_ground):
    by_size = {}
    for case in oracle._walk(max_sets, max_ground):
        assert_case_agrees(case)
        by_size.setdefault(len(case[0]), []).append(case[0])
    subsets = [oracle._piece(mask)[1] for mask in range(1 << max_ground)]
    # every ordered family once, each size in itertools.product order
    assert by_size == {
        s: list(itertools.product(subsets, repeat=s)) for s in range(1, max_sets + 1)
    }
    assert sum(map(len, by_size.values())) == sum(
        (2**max_ground) ** s for s in range(1, max_sets + 1)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda g: st.tuples(st.just(g), st.lists(st.integers(0, 2**g - 1), max_size=7))
    )
)
def test_walk_steps_equal_the_per_case_routes(case):
    max_ground, masks = case
    node = oracle._root(max_ground)
    for mask in masks:
        node = oracle._extend(node, oracle._piece(mask))
        assert_case_agrees(oracle._case(node))


@pytest.mark.parametrize("max_sets, max_ground", [(3, 3), (2, 4), (1, 5), (2, 6)])
def test_leaves_equal_extend_under_every_parent(max_sets, max_ground):
    pieces = [oracle._piece(mask) for mask in range(1 << max_ground)]
    parents = [oracle._root(max_ground)]
    for _ in range(max_sets - 1):
        parents = [oracle._extend(node, piece) for node in parents for piece in pieces]
    walked = [case for case in oracle._walk(max_sets, max_ground) if len(case[0]) == max_sets]
    leaves = [leaf for node in parents for leaf in assert_leaves_equal_extend(node, max_ground)]
    # the walk's last layer is exactly these leaves, in the same order
    assert walked == leaves


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda g: st.tuples(st.just(g), st.lists(st.integers(0, 2**g - 1), max_size=6))
    )
)
def test_leaves_equal_extend_under_random_parents(case):
    max_ground, masks = case
    node = oracle._root(max_ground)
    for mask in masks:
        node = oracle._extend(node, oracle._piece(mask))
    assert_leaves_equal_extend(node, max_ground)


def test_leaf_edges():
    # M empty: no representative, no product, a deficient singleton
    leaves = assert_leaves_equal_extend(node_of(3, [{1}, {2}]), 3)
    assert leaves[0] == (({1}, {2}, frozenset()), 2, {}, 0, True)
    # t > g': three rows over the two elements of {1} | {2} | {1, 2}
    assert leaves[0b011][3] == 0 and leaves[0b011][1] == 2
    # a new element outside the union: k = 1, g' = t = 3
    assert leaves[0b100][1:4] == (3, {0b111: 1}, 1)
    # a parent that is not fully matched, so deficient: every leaf is too
    node = node_of(4, [{1}, {1}, {2, 3}])
    assert node.matched == 2 and node.deficient
    leaves = assert_leaves_equal_extend(node, 4)
    assert all(leaf[4] and leaf[3] == 0 and not leaf[2] for leaf in leaves)
    assert [leaf[1] for leaf in leaves] == [2 + bool(mask & 0b1110) for mask in range(16)]
    # alternating paths: element 2 or 3, whichever the second set holds,
    # can pass it on to the other, but element 1 cannot move
    leaves = assert_leaves_equal_extend(node_of(3, [{1}, {2, 3}]), 3)
    assert [leaf[1] for leaf in leaves] == [2 + bool(mask & 0b110) for mask in range(8)]
    assert [leaf[3] for leaf in leaves] == [0, 0, 1, 1, 1, 1, 2, 2]
