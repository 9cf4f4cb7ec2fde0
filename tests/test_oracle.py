"""The oracle's per-parent verdicts against the per-case library routes, child by child.

_verdicts answers every child of a parent at once, one bit per child and
route, so every child bit of every parent tried here is held to the library
routes (max_matching, euler_class, sdr_count and the subset sweep).  Where a
walk step shares code with its per-case route (hall.augment, the Euler fold
step, Ryser's table and the subset sweep), each child is also held to a
reference that shares none: the backtracking matching size, the product of
linear forms as a fold over frozenset supports, the backtracking representative
count and the brute-force surplus.  The masks the bits are read from (the
AND of the Euler product's supports, the elements every representative
system uses, and the elements no alternating path frees) are held to brute
force too.  _extend builds the parents, so its state is checked through
them and their children.
"""

import itertools
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_max_matching, brute_max_surplus, brute_sdr_count, euler_fold
from projclass import oracle
from projclass.euler import euler_class, indicator_vector, sdr_count
from projclass.family import FiniteFamily
from projclass.hall import BipartiteIncidence, max_matching


def answers(sets):
    """Each route's answer for one family: matching, Euler class, permanent, subset sweep.

    Each library route is held to its reference first.
    """
    fam = FiniteFamily(sets)
    matched = max_matching(BipartiteIncidence.from_family(fam))[0]
    assert matched == brute_max_matching(sets)
    poly = euler_class(indicator_vector(s) for s in sets)
    assert poly.terms == euler_fold(indicator_vector(s) for s in sets)
    count = sdr_count(fam)
    assert count == brute_sdr_count(sets)
    swept = oracle._subset_sweep(sets)
    assert swept == (brute_max_surplus(sets) == 0)
    return matched == len(sets), bool(poly), count > 0, swept


def node_of(max_ground, sets):
    node = oracle._root(max_ground)
    for s in sets:
        node = oracle._extend(node, oracle._piece(sum(1 << (i - 1) for i in s)))
    return node


def masks_of(elements):
    return sum(1 << (e - 1) for e in elements)


def assert_parent_state(node, max_ground):
    """node's own state and the masks _verdicts reads, against brute force."""
    sets, ground = node.sets, (1 << max_ground) - 1
    elements = range(1, max_ground + 1)
    matched = brute_max_matching(sets)
    assert len(node.owner) == matched
    assert node.deficient == (brute_max_surplus(sets) > 0)
    fold = euler_fold(indicator_vector(s) for s in sets)
    # ground element i is bit i - 1 of the walk's monomials
    assert node.product == {masks_of(m): c for m, c in fold.items()}
    # the positivity lemma: a 0/1 product has no negative coefficient, so
    # the child with new set M vanishes exactly when M lies inside every support
    assert all(c > 0 for c in node.product.values())
    meet = reduce(and_, node.product, ground)
    assert meet == masks_of(e for e in elements if all(e in m for m in fold))
    # the parent's representative systems that avoid e are the child's with new set {e}
    avoid = oracle._avoiding(node)
    assert avoid == {1 << (e - 1): brute_sdr_count(sets + (frozenset({e}),)) for e in elements}
    used = sum(bit for bit, n in avoid.items() if not n)
    assert used == masks_of(e for e in elements if brute_sdr_count(sets + (frozenset({e}),)) == 0)
    # the elements from which no alternating path reaches a free one
    stuck = ground & ~oracle._reach(node.owner, node.unions, ground)
    assert stuck == masks_of(e for e in elements if brute_max_matching(sets + (frozenset({e}),)) == matched)


def assert_verdicts_agree(node, max_ground):
    """Every child bit of node's four verdicts, in mask order, against the routes."""
    assert_parent_state(node, max_ground)
    verdicts = oracle._verdicts(node, oracle._below(max_ground))
    assert all(0 <= v < 1 << (1 << max_ground) for v in verdicts)
    for mask in range(1 << max_ground):
        child = node.sets + (oracle._members(mask),)
        assert tuple(bool(v >> mask & 1) for v in verdicts) == answers(child), child
    return verdicts


@pytest.mark.parametrize("max_sets, max_ground", [(3, 3), (2, 4), (1, 5), (2, 6)])
def test_leaves_equal_extend_under_every_parent(max_sets, max_ground):
    """The walk yields the parents _extend builds, each size in itertools.product order.

    It yields no node of any other size, and every child bit (every leaf of
    the product tree, and every inner case too) of every parent agrees with
    the routes.
    """
    subsets = [oracle._members(mask) for mask in range(1 << max_ground)]
    walked = list(oracle._walk(max_sets, max_ground))
    assert len(walked) == sum((2**max_ground) ** s for s in range(max_sets))
    parents = [oracle._root(max_ground)]
    for size in range(max_sets):
        # in the same order
        assert [node for node in walked if len(node.sets) == size] == parents
        assert [node.sets for node in parents] == list(itertools.product(subsets, repeat=size))
        for node in parents:
            assert_verdicts_agree(node, max_ground)
        parents = [oracle._extend(node, oracle._piece(m)) for node in parents for m in range(1 << max_ground)]


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
    assert_verdicts_agree(node, max_ground)
    for mask in masks:
        node = oracle._extend(node, oracle._piece(mask))
        assert_verdicts_agree(node, max_ground)


def test_below_holds_every_subset():
    for g in range(5):
        below = oracle._below(g)
        assert below == [sum(1 << m for m in range(1 << g) if m & x == m) for x in range(1 << g)]


def sdr_children(verdict, max_ground):
    return [mask for mask in range(1 << max_ground) if verdict >> mask & 1]


def test_leaf_edges():
    # the root's children: one set M has an SDR unless M is empty
    for verdict in assert_verdicts_agree(oracle._root(3), 3):
        assert sdr_children(verdict, 3) == list(range(1, 8))
    # {1}, {2} plus M: an SDR exactly when M holds 3, even for M = {1, 2}
    node = node_of(3, [{1}, {2}])
    for verdict in assert_verdicts_agree(node, 3):
        assert sdr_children(verdict, 3) == [0b100, 0b101, 0b110, 0b111]
    # a parent that is not fully matched, so deficient: no child has an SDR,
    # but elements 2 and 3 still free a position
    node = node_of(4, [{1}, {1}, {2, 3}])
    assert len(node.owner) == 2 and node.deficient
    assert assert_verdicts_agree(node, 4) == (0, 0, 0, 0)
    assert oracle._reach(node.owner, node.unions, 0b1111) == 0b1110
    # alternating paths: element 2 or 3, whichever the second set holds,
    # can pass it on to the other, but element 1 cannot move; every SDR uses 1
    node = node_of(3, [{1}, {2, 3}])
    assert oracle._reach(node.owner, node.unions, 0b111) == 0b110
    assert oracle._avoiding(node) == {0b001: 0, 0b010: 1, 0b100: 1}
    for verdict in assert_verdicts_agree(node, 3):
        assert sdr_children(verdict, 3) == [2, 3, 4, 5, 6, 7]
    # {1, 2} twice: the product 2 x1 x2 has the one support {1, 2}, so a
    # child survives exactly when M holds 3
    node = node_of(3, [{1, 2}, {1, 2}])
    assert node.product == {0b011: 2}
    for verdict in assert_verdicts_agree(node, 3):
        assert sdr_children(verdict, 3) == [4, 5, 6, 7]
