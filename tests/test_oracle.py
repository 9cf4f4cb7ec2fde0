"""The oracle's tree walk against the per-case library routes, node by node.

Where a walk step shares code with its per-case route (the Euler fold step,
Ryser's table and the subset sweep), the node is also held to a reference
that shares none: the product of linear forms under MultilinearPoly.__mul__,
the backtracking representative count and the brute-force surplus.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_max_surplus, brute_sdr_count
from projclass import oracle
from projclass.euler import (
    MultilinearPoly,
    euler_class,
    indicator_vector,
    ryser_permanent,
    sdr_count,
)
from projclass.family import FiniteFamily
from projclass.hall import BipartiteIncidence, max_matching


def assert_node_agrees(node):
    sets = node.sets
    fam = FiniteFamily(sets)
    assert node.matched == max_matching(BipartiteIncidence.from_family(fam))[0]
    poly = euler_class(indicator_vector(s) for s in sets)
    # ground element i is bit i - 1 of the walk's monomials
    assert node.product == {sum(1 << (i - 1) for i in m): c for m, c in poly.terms.items()}
    forms = MultilinearPoly.one()
    for s in sets:
        forms = forms * MultilinearPoly.linear_form(indicator_vector(s))
    assert poly == forms
    assert ryser_permanent(node.table, len(sets)) == sdr_count(fam) == brute_sdr_count(sets)
    assert node.deficient == (not oracle._subset_sweep(sets)) == (brute_max_surplus(sets) > 0)


@pytest.mark.parametrize("max_sets, max_ground", [(3, 3), (2, 4)])
def test_walk_equals_the_per_case_routes_at_every_node(max_sets, max_ground):
    by_size = {}
    for node in oracle._walk(max_sets, max_ground):
        assert_node_agrees(node)
        by_size.setdefault(len(node.sets), []).append(node.sets)
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
        assert_node_agrees(node)
