import itertools
import json
from math import comb, perm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import brute_sdr_count, euler_fold, finite, poly_product
from projclass import euler
from projclass.euler import (
    EULER_WORK_CAP,
    chern_vector,
    euler_class,
    fold_order,
    indicator_vector,
    product_work,
    sdr_count,
    times_form,
)
from projclass.errors import FamilyFormatError
from projclass.family import FiniteFamily
from projclass.hall import sdr_exists

families = st.lists(
    st.frozensets(st.integers(1, 6), max_size=4), min_size=0, max_size=5
).map(tuple)


def test_euler_square_vanishes():
    assert not euler_class([{1: 1}, {1: 1}])


def test_euler_of_repeated_pair():
    # (x1 + x2)^2 = 2 x1 x2 once squares drop
    poly = euler_class([{1: 1, 2: 1}, {1: 1, 2: 1}])
    assert poly.terms == {frozenset({1, 2}): 2}
    assert poly.to_doc() == [{"monomial": [1, 2], "coeff": "2"}]


def test_euler_empty_product_is_one():
    assert euler_class([]).terms == {frozenset(): 1}


def test_sdr_count_examples():
    assert sdr_count(finite({1, 2}, {1, 2})) == 2
    assert sdr_count(finite({1})) == 1
    assert sdr_count(finite({1}, {1})) == 0
    assert sdr_count(FiniteFamily(())) == 1


def test_chern_vector_drops_zeros():
    assert chern_vector({1: 0, 2: 5}) == {2: 5}


def test_indicator_vector():
    assert indicator_vector(frozenset({2, 4})) == {2: 1, 4: 1}


@given(sets=families)
def test_zero_one_euler_coefficients_are_nonnegative(sets):
    poly = euler_class(indicator_vector(s) for s in sets)
    assert all(c > 0 for c in poly.terms.values())


@given(a=families, b=families)
def test_euler_is_multiplicative_over_concatenation(a, b):
    whole = euler_class(indicator_vector(s) for s in a + b)
    parts = (euler_class(indicator_vector(s) for s in half) for half in (a, b))
    assert whole.terms == poly_product(*(p.terms for p in parts))


@given(
    sets=st.lists(
        # huge identifiers pin the sorted-ground bit coding
        st.frozensets(st.integers(1, 6) | st.sampled_from([2**64 + 3, 2**70]), max_size=4),
        max_size=5,
    ).map(tuple)
)
def test_sdr_count_matches_backtracking(sets):
    assert sdr_count(FiniteFamily(sets)) == brute_sdr_count(sets)


def test_sdr_count_is_an_exact_int():
    # 14 rows on 16 elements: Ryser's weights at sizes past 14 must be the
    # int 0, never a float from a negative power of -1, or the sum rounds
    got = sdr_count(FiniteFamily([range(1, 17)] * 14))
    assert got == perm(16, 14) and type(got) is int


@given(sets=families, avoid=st.frozensets(st.integers(1, 6)))
def test_ryser_weights_count_the_systems_that_avoid_a_set(sets, avoid):
    # the weights that avoid a mask, dotted with the table, count the
    # systems on the ground less the mask's elements
    g = 6
    table = [1] * (1 << g)
    for s in sets:
        table = euler.ryser_extend(table, sum(1 << (e - 1) for e in s))
    mask = sum(1 << (e - 1) for e in avoid)
    weights = euler.ryser_weights(g, len(sets), mask)
    assert all(type(w) is int for w in weights)
    assert sum(w * p for w, p in zip(weights, table)) == brute_sdr_count([s - avoid for s in sets])


@given(sets=families)
def test_triple_oracle_agreement(sets):
    fam = FiniteFamily(sets)
    by_matching = sdr_exists(fam)
    by_euler = bool(euler_class(indicator_vector(s) for s in sets))
    by_count = sdr_count(fam) > 0
    assert by_matching == by_euler == by_count


def test_triple_oracle_exhaustive_small():
    # every ordered family with up to 3 subsets of {1,2,3}
    subsets = [frozenset(s) for r in range(4) for s in itertools.combinations((1, 2, 3), r)]
    for size in range(4):
        for combo in itertools.product(subsets, repeat=size):
            fam = FiniteFamily(combo)
            by_matching = sdr_exists(fam)
            by_euler = bool(euler_class(indicator_vector(s) for s in combo))
            by_count = sdr_count(fam) > 0
            assert by_matching == by_euler == by_count, combo


def test_triple_oracle_unordered_multisets_four_by_four():
    # every multiset of up to 4 subsets of {1..4}, order irrelevant by the
    # permutation invariance of all three answers
    subsets = [
        frozenset(c)
        for r in range(5)
        for c in itertools.combinations((1, 2, 3, 4), r)
    ]
    cases = 0
    for size in range(5):
        for combo in itertools.combinations_with_replacement(subsets, size):
            fam = FiniteFamily(combo)
            a = sdr_exists(fam)
            b = bool(euler_class(indicator_vector(s) for s in combo))
            c = sdr_count(fam) > 0
            assert a == b == c, combo
            cases += 1
    assert cases == 4845


def test_triple_oracle_random_five_by_five():
    import random

    rng = random.Random(55)
    for _ in range(500):
        size = rng.randint(1, 5)
        combo = tuple(
            frozenset(rng.sample(range(1, 6), rng.randint(0, 5)))
            for _ in range(size)
        )
        fam = FiniteFamily(combo)
        a = sdr_exists(fam)
        b = bool(euler_class(indicator_vector(s) for s in combo))
        c = sdr_count(fam) > 0
        assert a == b == c, combo


# small coordinates make repeated variables and cancellation likely; the big
# ones (up to 2**70) would break any monomial encoding that shifts by them
coordinates = (
    st.integers(1, 4) | st.sampled_from([2**40, 2**64 + 3, 2**70]) | st.integers(1, 2**70)
)
signed_bundles = st.lists(
    st.dictionaries(coordinates, st.integers(-3, 3), max_size=4), max_size=7
)


@settings(max_examples=300, deadline=None)
@given(vs=signed_bundles)
def test_euler_class_equals_the_frozenset_fold(vs):
    assert euler_class(vs).terms == euler_fold(vs)


def test_euler_class_validates_bundles_after_the_product_vanished():
    with pytest.raises(FamilyFormatError):
        euler_class([{1: 1}, {1: 1}, {0: 1}])
    with pytest.raises(FamilyFormatError):
        euler_class([{1: 1}, {1: 1}, {2: True}])


@settings(max_examples=300, deadline=None)
@given(vs=signed_bundles)
def test_product_work_bounds_the_pairs_the_fold_multiplies(vs):
    vectors = [chern_vector(v) for v in vs]
    vectors = [vectors[j] for j in fold_order(vectors)]
    coords = sorted({i for v in vectors for i in v})
    bit = {i: 1 << k for k, i in enumerate(coords)}
    product, pairs = {0: 1}, 0
    for v in vectors:
        pairs += len(product) * len(v)
        product = times_form(product, [(bit[i], c) for i, c in v.items()])
    assert pairs <= product_work(vectors, len(coords))


def test_product_work_of_n_copies_of_one_n_coordinate_bundle():
    for n in (16, 18, 20):
        # every subset of the n coordinates is a term at some step
        assert product_work([indicator_vector(range(1, n + 1))] * n, n) == n * (2**n - 1)
    # many bundles over few coordinates: the clamp keeps the running product small
    assert product_work([{1: 1, 2: 1}] * 10_000, 2) == 2 + 2 * 2 + 1 * 2


def unheld_product_work(vectors, coords):
    """product_work's bound with exact binomials and products, however large."""
    work, terms = 0, 1
    for k, v in enumerate(vectors):
        work += min(comb(coords, k), terms) * len(v)
        terms *= len(v)
    return work


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda c: st.tuples(
            st.just(c), st.lists(st.frozensets(st.integers(1, c), max_size=c), max_size=30)
        )
    )
)
def test_product_work_equals_the_unheld_bound_up_to_the_cap(case):
    coords, supports = case
    vectors = [indicator_vector(s) for s in supports]
    held, unheld = product_work(vectors, coords), unheld_product_work(vectors, coords)
    assert held == unheld or held > EULER_WORK_CAP < unheld


def test_product_work_is_linear_in_the_bundles():
    # one coordinate each: C(c, k) has c-bit numerators, which the estimate
    # never builds; every step pairs one term with one coefficient
    assert product_work([{i: 1} for i in range(1, 100_001)], 100_000) == 100_000


def test_fold_order_of_a_small_product():
    # the empty bundle (nothing unseen); [1], which ties [3] and [2] on one
    # unseen coordinate, shares it more than [3] and comes before [2]; then
    # [1, 2] (one unseen, shared most), [2] (none unseen), and [3] before [4, 5]
    vectors = [{4: 1, 5: 1}, {3: 1}, {1: 1}, {1: 1, 2: 1}, {2: 1}, {}]
    assert fold_order(vectors) == [5, 2, 3, 4, 1, 0]


@given(vs=signed_bundles)
def test_fold_order_is_a_permutation(vs):
    vectors = [chern_vector(v) for v in vs]
    assert sorted(fold_order(vectors)) == list(range(len(vectors)))


@settings(max_examples=300, deadline=None)
@given(vs=signed_bundles, data=st.data())
def test_fold_order_ignores_coordinate_labels(vs, data):
    vectors = [chern_vector(v) for v in vs]
    coords = sorted({i for v in vectors for i in v})
    labels = data.draw(st.lists(coordinates, min_size=len(coords), max_size=len(coords), unique=True))
    relabel = dict(zip(coords, labels))
    # new labels, coefficients and key order; the same shared coordinates
    moved = [{relabel[i]: 2 * c for i, c in reversed(v.items())} for v in vectors]
    assert fold_order(moved) == fold_order(vectors)


def test_fold_stops_within_the_deficient_seven(monkeypatch):
    """The golden euler-wide-zero bundles: 9 wide supports, then 7 over 6 coordinates.

    The seven share their coordinates, so they come first; seven forms on
    six coordinates vanish, and no other bundle is multiplied.
    """
    golden = Path(__file__).parent / "golden" / "cases.json"
    case = next(c for c in json.loads(golden.read_text()) if c["name"] == "euler-wide-zero")
    supports = json.loads(case["argv"][case["argv"].index("--bundles") + 1])
    seven = set(range(9, 16))
    assert all(set(supports[j]) <= {1, 2, 3, 4, 5, 6} for j in seven)
    vectors = [indicator_vector(s) for s in supports]
    order = fold_order(vectors)
    assert set(order[:7]) == seven
    forms = []
    real = euler.times_form

    def recording(product, form):
        forms.append(form)
        return real(product, form)

    monkeypatch.setattr(euler, "times_form", recording)
    assert not euler_class(vectors)
    assert 1 <= len(forms) <= 7
    bit = {i: 1 << k for k, i in enumerate(range(1, 19))}
    assert forms == [[(bit[i], 1) for i in vectors[j]] for j in order[: len(forms)]]
