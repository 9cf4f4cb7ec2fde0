import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import CONSTANT_ONE, padded_triangular, triangular
from projclass.dynamics import (
    BAtom,
    Base,
    Nu,
    Transversal,
    _ordered_matching,
    alpha,
    build_transversal,
    gamma_iterate,
    hall_check_gamma,
    simulate,
    term_to_doc,
    verify_transversal,
)
from projclass.errors import FullFamilyError, HallViolationError, WindowTooLargeError
from projclass.classify import find_tight_set
from projclass.family import DisjointBlocks, ProjectionFamily, reindex_to_odd, window


def test_alpha_at_nonpositive_layer_adds_no_markers():
    got = alpha(0, frozenset({Base(1)}), 1)
    assert got == {Nu(0, Base(1)), BAtom(0, 1)}


def test_alpha_positive_layer_adds_marker_images():
    # markers for layer 2 are the reserved identifiers 2 and 4
    got = alpha(2, frozenset({Base(1)}), 0)
    assert got == {Nu(2, Base(1)), Nu(2, Base(2)), Nu(2, Base(4))}


def test_alpha_empty_input_keeps_the_pool():
    assert alpha(-3, frozenset(), 2) == {BAtom(-3, 1), BAtom(-3, 2)}


def test_alpha_rejects_negative_pool():
    with pytest.raises(ValueError):
        alpha(0, frozenset(), -1)


def test_terms_are_structural():
    assert Nu(1, Base(3)) == Nu(1, Base(3))
    assert Nu(1, Base(3)) != Nu(2, Base(3))
    assert Nu(1, Base(3)) != Base(3)
    assert len({Nu(1, Base(3)), Nu(1, Base(3)), BAtom(1, 1)}) == 2


def test_term_to_doc_nesting():
    assert term_to_doc(Nu(1, Base(3))) == ["nu", 1, ["base", 3]]
    assert term_to_doc(BAtom(-2, 1)) == ["batom", -2, 1]


def test_gamma_depth_zero_embeds_the_window():
    gamma = gamma_iterate(triangular(), prefix_len=2, window_w=0, depth=0, k=0)
    assert [e.terms for e in gamma.entries] == [
        frozenset({Base(1)}),
        frozenset({Base(2), Base(3)}),
    ]
    assert [e.path for e in gamma.entries] == [(), ()]


def test_gamma_depth_one_counts_layers():
    gamma = gamma_iterate(triangular(), prefix_len=1, window_w=1, depth=1, k=0)
    assert len(gamma.entries) == 3
    assert [e.path for e in gamma.entries] == [(-1,), (0,), (1,)]


def test_gamma_depth_two_entry_count():
    gamma = gamma_iterate(triangular(), prefix_len=2, window_w=1, depth=2, k=0)
    assert len(gamma.entries) == 18


def replayed_gamma(fam, prefix_len, w, depth, k):
    # every path from scratch: alpha applied innermost layer first
    entries = []
    for path in itertools.product(range(-w, w + 1), repeat=depth):
        for s, members in enumerate(window(fam, prefix_len).sets, 1):
            terms = frozenset(Base(i) for i in members)
            for j in reversed(path):
                terms = alpha(j, terms, k)
            entries.append((path, s, terms))
    return entries


@settings(max_examples=40, deadline=None)
@given(
    sets=st.lists(st.frozensets(st.integers(1, 6), max_size=3), max_size=3),
    a=st.integers(0, 2),
    b=st.integers(0, 2),
    t=st.integers(0, 4),
    depth=st.integers(0, 3),
    w=st.integers(0, 2),
    k=st.integers(0, 2),
)
def test_gamma_layers_equal_per_path_replay(sets, a, b, t, depth, w, k):
    assume((a, b) != (0, 0))
    fam = ProjectionFamily(tuple(sets), DisjointBlocks(a, b, 7))
    gamma = gamma_iterate(fam, t, w, depth, k)
    got = [(e.path, e.source, e.terms) for e in gamma.entries]
    assert got == replayed_gamma(fam, t, w, depth, k)


def test_gamma_entry_cap():
    with pytest.raises(WindowTooLargeError, match="window too large"):
        gamma_iterate(triangular(), prefix_len=4, window_w=2, depth=3, k=0, entry_cap=100)


def test_depth_one_entries_contain_their_pool():
    fam = reindex_to_odd(padded_triangular())
    gamma = gamma_iterate(fam, prefix_len=3, window_w=1, depth=1, k=1)
    for entry in gamma.entries:
        j = entry.path[0]
        assert BAtom(j, 1) in entry.terms


def test_build_transversal_triangular_depth_one():
    fam = reindex_to_odd(triangular())
    gamma = gamma_iterate(fam, prefix_len=2, window_w=1, depth=1, k=0)
    trans = build_transversal(gamma, fam, 0, find_tight_set(triangular()).positions)
    assert trans.assignment[((1,), 1)] == Nu(1, Base(1))
    assert verify_transversal(gamma, trans)


def test_build_transversal_uses_the_pool_for_tight_sources():
    odd = reindex_to_odd(padded_triangular())
    gamma = gamma_iterate(odd, prefix_len=2, window_w=0, depth=1, k=1)
    trans = build_transversal(gamma, odd, 1, find_tight_set(padded_triangular()).positions)
    assert trans.assignment[((0,), 1)] == Nu(0, Base(1))
    assert trans.assignment[((0,), 2)] == BAtom(0, 1)


def test_build_transversal_depth_zero_is_an_sdr():
    fam = reindex_to_odd(triangular())
    gamma = gamma_iterate(fam, prefix_len=3, window_w=0, depth=0, k=0)
    trans = build_transversal(gamma, fam, 0, find_tight_set(triangular()).positions)
    assert verify_transversal(gamma, trans)


def test_build_transversal_depth_zero_detects_collisions():
    fam = ProjectionFamily((frozenset({1}), frozenset({1})), None)
    gamma = gamma_iterate(fam, prefix_len=2, window_w=0, depth=0, k=0)
    with pytest.raises(HallViolationError, match="Hall violation"):
        build_transversal(gamma, fam, 0, find_tight_set(triangular()).positions)


def test_verify_transversal_rejects_duplicates_and_strays():
    fam = reindex_to_odd(triangular())
    gamma = gamma_iterate(fam, prefix_len=2, window_w=0, depth=0, k=0)
    dup = Transversal(0, {((), 1): Base(1), ((), 2): Base(1)})
    assert not verify_transversal(gamma, dup)
    stray = Transversal(0, {((), 1): Base(1), ((), 2): Base(99)})
    assert not verify_transversal(gamma, stray)


def test_hall_check_gamma_examples():
    odd = reindex_to_odd(triangular())
    for depth, w in itertools.product(range(3), range(3)):
        gamma = gamma_iterate(odd, 2, w, depth, 0)
        assert hall_check_gamma(gamma)
    codd = reindex_to_odd(CONSTANT_ONE)
    assert not hall_check_gamma(gamma_iterate(codd, 2, 0, 0, 0))
    assert hall_check_gamma(gamma_iterate(codd, 0, 0, 0, 0))


def test_lifting_identity():
    # deeper assignments are nu-wrapped copies of the shallower ones
    odd = reindex_to_odd(triangular())
    k, f0 = 0, find_tight_set(triangular()).positions
    shallow = build_transversal(gamma_iterate(odd, 3, 1, 1, k), odd, k, f0)
    deep = build_transversal(gamma_iterate(odd, 3, 1, 2, k), odd, k, f0)
    for (path, source), term in deep.assignment.items():
        assert term == Nu(path[0], shallow.assignment[(path[1:], source)])


def test_simulate_reports_all_checks():
    report = simulate(triangular(), depth=2, window_w=1, prefix_len=3)
    assert report.transversal_ok and report.hall_ok
    assert report.k == 0 and report.tight_positions == ()
    assert report.entries == 27
    doc = report.to_doc()
    assert set(doc) == {"entries", "transversal_ok", "hall_ok", "k", "F0"}


def test_simulate_accepts_matching_k_only():
    report = simulate(padded_triangular(), depth=1, window_w=1, prefix_len=2, k=1)
    assert report.k == 1 and report.tight_positions == (1, 2)
    with pytest.raises(ValueError, match="disagrees"):
        simulate(padded_triangular(), depth=1, window_w=1, prefix_len=2, k=3)


def test_simulate_refuses_full_families():
    with pytest.raises(FullFamilyError):
        simulate(CONSTANT_ONE, depth=1, window_w=1, prefix_len=2)


@settings(max_examples=20, deadline=None)
@given(
    depth=st.integers(1, 2),
    w=st.integers(0, 2),
    t=st.integers(1, 4),
)
def test_simulate_always_verifies_on_supported_families(depth, w, t):
    # depth 0 is the untouched family; once k > 0 it has no transversal,
    # which is the whole reason the pool exists, so start at depth 1
    for fam in (triangular(), padded_triangular()):
        report = simulate(fam, depth=depth, window_w=w, prefix_len=t)
        assert report.transversal_ok
        assert report.hall_ok
        assert report.entries == (2 * w + 1) ** depth * t


@given(
    j=st.integers(-3, 3),
    k=st.integers(0, 2),
    idents=st.frozensets(st.integers(1, 9), max_size=4),
)
def test_alpha_output_matches_its_definition(j, k, idents):
    terms = frozenset(Base(i) for i in idents)
    got = alpha(j, terms, k)
    expected = {Nu(j, t) for t in terms}
    expected |= {BAtom(j, r) for r in range(1, k + 1)}
    expected |= {Nu(j, Base(2 * l)) for l in range(1, j + 1)}
    assert got == expected


def test_ordered_matching_long_augmenting_path():
    # greedy gives source j its first candidate j; the last source then
    # needs one alternating path through all 5000 sources
    candidates = [[j, j + 1] for j in range(1, 5000)] + [[1]]
    choice = _ordered_matching(candidates)
    assert choice == list(range(2, 5001)) + [1]
