"""The oracle's tree walk against the per-case library routes, case by case.

Every case the walk reports comes from _children, one read of its parent's
state, so every child of every parent tried here is held to the library
routes.  Where a walk step shares code with its per-case route (hall.augment,
the Euler fold step, Ryser's table and the subset sweep), the case is also
held to a reference that shares none: the backtracking matching size, the
product of linear forms under MultilinearPoly.__mul__, the backtracking
representative count and the brute-force surplus.  _extend builds the
parents, so its state is checked through their children.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_max_matching, brute_max_surplus, brute_sdr_count
from projclass import oracle
from projclass.euler import MultilinearPoly, euler_class, indicator_vector, sdr_count
from projclass.family import FiniteFamily
from projclass.hall import BipartiteIncidence, max_matching


def assert_case_agrees(case):
    sets, matched, product, permanent, deficient = case
    fam = FiniteFamily(sets)
    assert matched == max_matching(BipartiteIncidence.from_family(fam))[0] == brute_max_matching(sets)
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


def assert_children_agree(node, max_ground):
    """Every child _children yields under node, in mask order, against the routes."""
    pieces = [oracle._piece(mask) for mask in range(1 << max_ground)]
    children = list(oracle._children(node, pieces))
    assert [case[0] for case in children] == [node.sets + (piece[1],) for piece in pieces]
    for case in children:
        assert_case_agrees(case)
    return children


@pytest.mark.parametrize("max_sets, max_ground", [(3, 3), (2, 4), (1, 5), (2, 6)])
def test_leaves_equal_extend_under_every_parent(max_sets, max_ground):
    """The walk's cases of each size are the children of the parents _extend builds.

    Every ordered family comes out once, each size in itertools.product
    order, and no case of any other size.
    """
    pieces = [oracle._piece(mask) for mask in range(1 << max_ground)]
    subsets = [piece[1] for piece in pieces]
    parents = [oracle._root(max_ground)]
    walked = list(oracle._walk(max_sets, max_ground))
    assert len(walked) == sum((2**max_ground) ** s for s in range(1, max_sets + 1))
    for size in range(1, max_sets + 1):
        children = [case for node in parents for case in assert_children_agree(node, max_ground)]
        # in the same order
        assert [case for case in walked if len(case[0]) == size] == children
        assert [case[0] for case in children] == list(itertools.product(subsets, repeat=size))
        parents = [oracle._extend(node, piece) for node in parents for piece in pieces]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda g: st.tuples(st.just(g), st.lists(st.integers(0, 2**g - 1), max_size=6))
    )
)
def test_leaves_equal_extend_under_random_parents(case):
    # every prefix of up to 6 sets is a parent, so its children reach 7 sets
    max_ground, masks = case
    node = oracle._root(max_ground)
    assert_children_agree(node, max_ground)
    for mask in masks:
        node = oracle._extend(node, oracle._piece(mask))
        assert_children_agree(node, max_ground)


def test_leaf_edges():
    # the root's children: one set M has |M| representatives, and only the
    # empty set is deficient
    leaves = assert_children_agree(oracle._root(3), 3)
    assert [leaf[3] for leaf in leaves] == [mask.bit_count() for mask in range(8)]
    assert [leaf[4] for leaf in leaves] == [True] + [False] * 7
    # M empty: no representative, no product, a deficient singleton
    leaves = assert_children_agree(node_of(3, [{1}, {2}]), 3)
    assert leaves[0] == (({1}, {2}, frozenset()), 2, {}, 0, True)
    # three rows {1}, {2}, {1, 2} over two elements
    assert leaves[0b011][3] == 0 and leaves[0b011][1] == 2
    # a new element outside the parent's union
    assert leaves[0b100][1:4] == (3, {0b111: 1}, 1)
    # a parent that is not fully matched, so deficient: every leaf is too
    node = node_of(4, [{1}, {1}, {2, 3}])
    assert node.matched == 2 and node.deficient
    leaves = assert_children_agree(node, 4)
    assert all(leaf[4] and leaf[3] == 0 and not leaf[2] for leaf in leaves)
    assert [leaf[1] for leaf in leaves] == [2 + bool(mask & 0b1110) for mask in range(16)]
    # alternating paths: element 2 or 3, whichever the second set holds,
    # can pass it on to the other, but element 1 cannot move
    leaves = assert_children_agree(node_of(3, [{1}, {2, 3}]), 3)
    assert [leaf[1] for leaf in leaves] == [2 + bool(mask & 0b110) for mask in range(8)]
    assert [leaf[3] for leaf in leaves] == [0, 0, 1, 1, 1, 1, 2, 2]
