import itertools
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import CONSTANT_ONE, padded_triangular, triangular
from projclass.dynamics import (
    DEFAULT_ENTRY_CAP,
    TermTable,
    Transversal,
    _ordered_matching,
    alpha,
    build_transversal,
    entry_count,
    gamma_iterate,
    hall_check_gamma,
    simulate,
    term_to_doc,
    verify_transversal,
)
from projclass import hall
from projclass.errors import FullFamilyError, HallViolationError, WindowTooLargeError
from projclass.classify import TightSet, find_tight_set
from projclass.family import Constant, DisjointBlocks, ProjectionFamily, reindex_to_odd, window


def free_doc(doc):
    return tuple(free_doc(x) if isinstance(x, list) else x for x in doc)


def frees(table, terms):
    """Term ids decoded to free terms: nested tuples of their wire forms."""
    return frozenset(free_doc(term_to_doc(table, t)) for t in terms)


def test_alpha_at_nonpositive_layer_adds_no_markers():
    t = TermTable()
    got = alpha(t, 0, frozenset({t.base(1)}), 1)
    assert frees(t, got) == {("nu", 0, ("base", 1)), ("batom", 0, 1)}


def test_alpha_positive_layer_adds_marker_images():
    # markers for layer 2 are the reserved identifiers 2 and 4
    t = TermTable()
    got = alpha(t, 2, frozenset({t.base(1)}), 0)
    assert frees(t, got) == {("nu", 2, ("base", 1)), ("nu", 2, ("base", 2)), ("nu", 2, ("base", 4))}


def test_alpha_empty_input_keeps_the_pool():
    t = TermTable()
    assert frees(t, alpha(t, -3, frozenset(), 2)) == {("batom", -3, 1), ("batom", -3, 2)}


def test_alpha_rejects_negative_pool():
    with pytest.raises(ValueError):
        alpha(TermTable(), 0, frozenset(), -1)


def test_terms_are_structural():
    t = TermTable()
    assert t.nu(1, t.base(3)) == t.nu(1, t.base(3))
    assert t.nu(1, t.base(3)) != t.nu(2, t.base(3))
    assert t.nu(1, t.base(3)) != t.base(3)
    assert t.batom(1, 1) != t.base(1)
    assert len({t.nu(1, t.base(3)), t.nu(1, t.base(3)), t.batom(1, 1)}) == 2
    # one id per distinct node, all positive: base 3, nu(1, .), nu(2, .), batom, base 1
    assert sorted(t.ids.values()) == list(range(1, 6)) == list(range(1, len(t.nodes)))


def test_term_to_doc_nesting():
    t = TermTable()
    assert term_to_doc(t, t.nu(1, t.base(3))) == ["nu", 1, ["base", 3]]
    assert term_to_doc(t, t.batom(-2, 1)) == ["batom", -2, 1]


def test_term_to_doc_unwinds_deep_terms_without_recursion():
    t = TermTable()
    term = t.batom(0, 1)
    for _ in range(50_000):
        term = t.nu(-1, term)
    doc, wraps = term_to_doc(t, term), 0
    while doc[0] == "nu":
        doc, wraps = doc[2], wraps + 1
    assert (wraps, doc) == (50_000, ["batom", 0, 1])


def test_gamma_depth_zero_embeds_the_window():
    gamma = gamma_iterate(triangular(), prefix_len=2, window_w=0, depth=0, k=0)
    assert [frees(gamma.table, e.terms) for e in gamma.entries] == [
        {("base", 1)},
        {("base", 2), ("base", 3)},
    ]
    assert [e.path for e in gamma.entries] == [(), ()]


def test_gamma_depth_one_counts_layers():
    gamma = gamma_iterate(triangular(), prefix_len=1, window_w=1, depth=1, k=0)
    assert len(gamma.entries) == 3
    assert [e.path for e in gamma.entries] == [(-1,), (0,), (1,)]


def test_gamma_depth_two_entry_count():
    gamma = gamma_iterate(triangular(), prefix_len=2, window_w=1, depth=2, k=0)
    assert len(gamma.entries) == 18


def free_alpha(j, terms, k):
    # alpha's definition on free terms, sharing no code with the term table
    image = {("nu", j, t) for t in terms}
    image |= {("batom", j, r) for r in range(1, k + 1)}
    image |= {("nu", j, ("base", 2 * l)) for l in range(1, j + 1)}
    return frozenset(image)


def replayed_gamma(fam, prefix_len, w, depth, k):
    # every path from scratch: alpha applied innermost layer first
    entries = []
    for path in itertools.product(range(-w, w + 1), repeat=depth):
        for s, members in enumerate(window(fam, prefix_len).sets, 1):
            terms = frozenset(("base", i) for i in members)
            for j in reversed(path):
                terms = free_alpha(j, terms, k)
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
    got = [(e.path, e.source, frees(gamma.table, e.terms)) for e in gamma.entries]
    assert got == replayed_gamma(fam, t, w, depth, k)
    # hash-consing: one id per distinct free term, and every id is in use
    distinct = frozenset().union(*(e.terms for e in gamma.entries))
    assert len(frees(gamma.table, distinct)) == len(distinct)


def test_gamma_entry_cap():
    with pytest.raises(WindowTooLargeError, match="window too large"):
        gamma_iterate(triangular(), prefix_len=4, window_w=2, depth=3, k=0, entry_cap=100)


def test_entry_cap_refuses_deep_orbits_without_forming_their_count():
    t0 = time.perf_counter()
    with pytest.raises(WindowTooLargeError) as refused:
        entry_count(10**7, 1, 1, 10_000)
    assert time.perf_counter() - t0 < 0.5
    assert str(refused.value) == "window too large: 3^10000000 * 1 entries exceed the cap of 10000"
    # under the cap the count itself comes back; with w = 0 or p = 0 it never grows
    assert entry_count(8, 1, 1, 3**8) == 3**8
    assert entry_count(10**7, 0, 5, 10) == 5
    assert entry_count(10**7, 1, 0, 10) == 0
    with pytest.raises(WindowTooLargeError):
        entry_count(0, 1, 11, 10)


def layered_entry_count(depth, window_w, prefix_len, entry_cap):
    """The reference count: built one layer at a time, abandoned once past the cap."""
    if depth < 0 or window_w < 0 or prefix_len < 0:
        raise ValueError("depth, window and prefix length must be >= 0")
    factor = 2 * window_w + 1
    count = prefix_len
    for _ in range(depth if count and factor > 1 else 0):
        if count > entry_cap:
            break
        count *= factor
    if count > entry_cap:
        raise WindowTooLargeError(
            f"window too large: {factor}^{depth} * {prefix_len} entries "
            f"exceed the cap of {entry_cap}"
        )
    return count


# negative caps, the smallest ones, and each side of p * f^e for f = 3, 5, 7
ENTRY_CAPS = [-(2**64), -10, -1, 0, 1, 2] + [
    cap
    for f in (3, 5, 7)
    for e in (1, 2, 7, 13, 30, 45, 60)
    for cap in ((e % 6 + 1) * f**e - 1, (e % 6 + 1) * f**e)
]


def test_entry_count_closed_form_equals_the_layered_count():
    # depth 0-60, window 0-3, prefix 0-6 and 48 caps: the same count, or the
    # same refusal with the same message
    for depth, w, p, cap in itertools.product(range(61), range(4), range(7), ENTRY_CAPS):
        args = (depth, w, p, cap)
        assert outcome(entry_count, *args) == outcome(layered_entry_count, *args), args


def test_an_orbit_with_no_entries_is_decided_at_any_depth():
    t0 = time.perf_counter()
    assert entry_count(10**9, 1, 0, DEFAULT_ENTRY_CAP) == 0
    report = simulate(triangular(), 10**9, 1, 0)
    assert time.perf_counter() - t0 < 0.5
    assert report.to_doc() == {
        "entries": 0, "transversal_ok": True, "hall_ok": True, "k": 0, "F0": []
    }
    # the empty transversal is one at every depth, and only it is
    fam = reindex_to_odd(triangular())
    t = TermTable()
    assert verify_transversal(Transversal(t, {}), fam, 10**9, 1, 0, 0)
    assert not verify_transversal(Transversal(t, {((), 1): t.base(1)}), fam, 10**9, 1, 0, 0)


def test_depth_one_entries_contain_their_pool():
    fam = reindex_to_odd(padded_triangular())
    gamma = gamma_iterate(fam, prefix_len=3, window_w=1, depth=1, k=1)
    for entry in gamma.entries:
        j = entry.path[0]
        assert ("batom", j, 1) in frees(gamma.table, entry.terms)


def test_every_gamma_call_has_its_own_table():
    odd = reindex_to_odd(triangular())
    first = gamma_iterate(odd, 3, 1, 2, 0)
    size = len(first.table.nodes)
    second = gamma_iterate(odd, 3, 1, 2, 0)
    assert second.table is not first.table
    assert len(first.table.nodes) == len(second.table.nodes) == size


def in_gamma(gamma, trans):
    """The materialized membership check: every entry's term in its set, all distinct.

    Terms are compared as free terms, since the transversal has its own table.
    """
    if len(trans.assignment) != len(gamma.entries):
        return False
    seen = set()
    for entry in gamma.entries:
        term = trans.assignment.get((entry.path, entry.source))
        if term is None:
            return False
        free = free_doc(term_to_doc(trans.table, term))
        if free not in frees(gamma.table, entry.terms) or free in seen:
            return False
        seen.add(free)
    return True


def test_build_transversal_triangular_depth_one():
    fam = reindex_to_odd(triangular())
    gamma = gamma_iterate(fam, prefix_len=2, window_w=1, depth=1, k=0)
    trans = build_transversal(fam, 1, 1, 2, 0, find_tight_set(triangular()).positions)
    assert term_to_doc(trans.table, trans.assignment[((1,), 1)]) == ["nu", 1, ["base", 1]]
    assert verify_transversal(trans, fam, 1, 1, 2, 0)
    assert in_gamma(gamma, trans)


def test_build_transversal_uses_the_pool_for_tight_sources():
    odd = reindex_to_odd(padded_triangular())
    trans = build_transversal(odd, 1, 0, 2, 1, find_tight_set(padded_triangular()).positions)
    assert term_to_doc(trans.table, trans.assignment[((0,), 1)]) == ["nu", 0, ["base", 1]]
    assert term_to_doc(trans.table, trans.assignment[((0,), 2)]) == ["batom", 0, 1]


def test_build_transversal_depth_zero_is_an_sdr():
    fam = reindex_to_odd(triangular())
    gamma = gamma_iterate(fam, prefix_len=3, window_w=0, depth=0, k=0)
    trans = build_transversal(fam, 0, 0, 3, 0, find_tight_set(triangular()).positions)
    assert verify_transversal(trans, fam, 0, 0, 3, 0)
    assert in_gamma(gamma, trans)


def test_build_transversal_depth_zero_detects_collisions():
    fam = ProjectionFamily((frozenset({1}), frozenset({1})), None)
    with pytest.raises(HallViolationError, match="Hall violation"):
        build_transversal(fam, 0, 0, 2, 0, find_tight_set(triangular()).positions)


def test_verify_transversal_rejects_duplicates_and_strays():
    fam = reindex_to_odd(triangular())
    t = TermTable()
    dup = Transversal(t, {((), 1): t.base(1), ((), 2): t.base(1)})
    assert not verify_transversal(dup, fam, 0, 0, 2, 0)
    stray = Transversal(t, {((), 1): t.base(1), ((), 2): t.base(99)})
    assert not verify_transversal(stray, fam, 0, 0, 2, 0)
    # the same ids are meaningless under another table
    good = build_transversal(fam, 0, 0, 2, 0, ())
    assert verify_transversal(good, fam, 0, 0, 2, 0)
    assert not verify_transversal(Transversal(TermTable(), good.assignment), fam, 0, 0, 2, 0)


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
    shallow = build_transversal(odd, 1, 1, 3, k, f0)
    deep = build_transversal(odd, 2, 1, 3, k, f0)
    for (path, source), term in deep.assignment.items():
        inner = term_to_doc(shallow.table, shallow.assignment[(path[1:], source)])
        assert term_to_doc(deep.table, term) == ["nu", path[0], inner]


def test_simulate_reports_all_checks():
    report = simulate(triangular(), depth=2, window_w=1, prefix_len=3)
    assert report.transversal_ok
    assert report.tight == TightSet((), 0)
    assert report.entries == 27
    doc = report.to_doc()
    assert set(doc) == {"entries", "transversal_ok", "hall_ok", "k", "F0"}
    assert doc["hall_ok"] is doc["transversal_ok"] is report.transversal_ok


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
        assert report.entries == (2 * w + 1) ** depth * t


@given(
    j=st.integers(-3, 3),
    k=st.integers(0, 2),
    idents=st.frozensets(st.integers(1, 9), max_size=4),
)
def test_alpha_output_matches_its_definition(j, k, idents):
    t = TermTable()
    got = alpha(t, j, frozenset(map(t.base, idents)), k)
    assert frees(t, got) == free_alpha(j, frozenset(("base", i) for i in idents), k)


def test_ordered_matching_long_augmenting_path():
    # greedy gives source j its first candidate j; the last source then
    # needs one alternating path through all 5000 sources
    candidates = [[j, j + 1] for j in range(1, 5000)] + [[1]]
    choice = _ordered_matching(len(candidates), candidates.__getitem__)
    assert choice == list(range(2, 5001)) + [1]


def test_ordered_matching_searches_each_stuck_source_afresh():
    # greedy leaves sources 2 and 3 stuck; source 2's path frees 1 by moving
    # source 0 to 3, and source 3's path must try 3 again, so a seen set kept
    # from the first search would miss it
    candidates = [[1, 3, 4], [2, 3], [1], [2]]
    assert _ordered_matching(len(candidates), candidates.__getitem__) == [4, 3, 1, 2]


def test_build_transversal_prefers_members_then_markers_then_the_pool():
    # two copies of {1} and one pool atom, at window 1: each rank is taken
    # at some layer, and the marker of layer 1 goes before the pool
    fam = ProjectionFamily((frozenset({1}), frozenset({1})))
    assert find_tight_set(fam) == TightSet((1, 2), 1)

    def dump(tight_positions):
        trans = build_transversal(fam, 1, 1, 2, 1, tight_positions)
        return [(e["path"][0], e["source"], e["term"]) for e in trans.to_doc()]

    assert dump((1, 2)) == [
        (-1, 1, ["nu", -1, ["base", 1]]), (-1, 2, ["batom", -1, 1]),
        (0, 1, ["nu", 0, ["base", 1]]), (0, 2, ["batom", 0, 1]),
        (1, 1, ["nu", 1, ["base", 1]]), (1, 2, ["nu", 1, ["base", 2]]),
    ]
    # the pool is offered to tight positions only: where no marker is free,
    # source 2 takes identifier 1 off source 1 by an alternating path
    assert dump((1,)) == [
        (-1, 1, ["batom", -1, 1]), (-1, 2, ["nu", -1, ["base", 1]]),
        (0, 1, ["batom", 0, 1]), (0, 2, ["nu", 0, ["base", 1]]),
        (1, 1, ["nu", 1, ["base", 1]]), (1, 2, ["nu", 1, ["base", 2]]),
    ]


def test_build_transversal_interns_no_new_terms():
    # every depth-1 candidate it reads is already a subterm of Gamma
    odd = reindex_to_odd(padded_triangular())
    tight = find_tight_set(odd)
    for depth in (1, 2):
        gamma = gamma_iterate(odd, 6, 2, depth, tight.k)
        trans = build_transversal(odd, depth, 2, 6, tight.k, tight.positions)
        assert verify_transversal(trans, odd, depth, 2, 6, tight.k)
        assert in_gamma(gamma, trans)
        subterms = frees(gamma.table, range(1, len(gamma.table.nodes)))
        assert frees(trans.table, range(1, len(trans.table.nodes))) <= subterms


def test_simulate_makes_only_the_tight_set_matching(monkeypatch):
    # the verified transversal is the Hall certificate, so the one matching
    # is find_tight_set's, on the prefix: no orbit window is matched
    made = []
    engine = hall.max_matching

    def counted(g, capacity=1):
        made.append(len(g.positions))
        return engine(g, capacity)

    monkeypatch.setattr(hall, "max_matching", counted)
    for fam, positions in ((triangular(), [0]), (padded_triangular(), [2])):
        made.clear()
        assert simulate(fam, 2, 1, 3).transversal_ok
        assert made == positions


def materialized_simulate(fam, depth, w, p, cap=DEFAULT_ENTRY_CAP):
    """The materialized route: Gamma built, and every check reading its sets.

    Returns the report document and the transversal document, as simulate's
    to_doc() gives them.
    """
    odd = reindex_to_odd(fam)
    tight = find_tight_set(odd)
    gamma = gamma_iterate(odd, p, w, depth, tight.k, cap)
    table, sets = gamma.table, window(odd, p).sets
    if depth == 0:
        rows = [[table.base(i) for i in sorted(members)] for members in sets]
        choice = _ordered_matching(len(rows), rows.__getitem__)
        if choice is None:
            raise HallViolationError(
                "Hall violation: the identity layer has no distinct-representative system"
            )
        assignment = {((), s): term for s, term in enumerate(choice, 1)}
    else:
        depth1 = {}
        for j in range(-w, w + 1):
            # alpha's definition as a preference order: own nu-images, the
            # markers, and the pool for tight positions only
            rows = [
                [table.nu(j, table.base(i)) for i in sorted(members)]
                + [table.nu(j, table.base(2 * l)) for l in range(1, j + 1)]
                + [table.batom(j, r) for r in range(1, tight.k + 1) if s in tight.positions]
                for s, members in enumerate(sets, 1)
            ]
            choice = _ordered_matching(len(rows), rows.__getitem__)
            if choice is None:
                raise HallViolationError("Hall violation: premises inconsistent")
            depth1.update(((j, s), term) for s, term in enumerate(choice, 1))
        assignment = {}
        for entry in gamma.entries:
            term = depth1[(entry.path[-1], entry.source)]
            for j in reversed(entry.path[:-1]):
                term = table.nu(j, term)
            assignment[(entry.path, entry.source)] = term
    # membership by Gamma's sets, as ids of Gamma's own table, plus injectivity
    seen = set()
    ok = len(assignment) == len(gamma.entries)
    for entry in gamma.entries:
        term = assignment.get((entry.path, entry.source))
        if term is None or term not in entry.terms or term in seen:
            ok = False
            break
        seen.add(term)
    doc = {
        "entries": len(gamma.entries),
        "transversal_ok": ok,
        "hall_ok": hall_check_gamma(gamma),
        "k": tight.k,
        "F0": list(tight.positions),
    }
    return doc, Transversal(table, assignment).to_doc()


def outcome(route, *args):
    try:
        return route(*args)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


def simulated(fam, depth, w, p, cap=DEFAULT_ENTRY_CAP):
    report = simulate(fam, depth, w, p, cap)
    return report.to_doc(), report.transversal.to_doc()


idents = st.integers(1, 6)
tails = st.one_of(
    st.none(),
    st.builds(Constant, st.frozensets(idents, max_size=2)),
    st.tuples(st.integers(0, 2), st.integers(0, 2))
    .filter(lambda ab: ab != (0, 0))
    .map(lambda ab: DisjointBlocks(ab[0], ab[1], 7)),
)


@settings(max_examples=250, deadline=None)
@given(
    sets=st.lists(st.frozensets(idents, max_size=3), max_size=4),
    tail=tails,
    p=st.integers(0, 5),
    depth=st.integers(0, 3),
    w=st.integers(0, 2),
    cap=st.sampled_from([DEFAULT_ENTRY_CAP, 20]),
)
def test_simulate_equals_the_materialized_route(sets, tail, p, depth, w, cap):
    fam = ProjectionFamily(tuple(sets), tail)
    args = (fam, depth, w, p, cap)
    assert outcome(simulated, *args) == outcome(materialized_simulate, *args)


def lifted_good(t):
    """A valid depth-2, window-1 transversal of the one-set family {1}, as a dict."""
    return {
        ((i, j), 1): t.nu(i, t.nu(j, t.base(1))) for i in (-1, 0, 1) for j in (-1, 0, 1)
    }


@pytest.mark.parametrize(
    "key, make, member",
    [
        # members other than the own element: markers and pool atoms, inner and outer
        (((0, 1), 1), lambda t: t.nu(0, t.nu(1, t.base(2))), True),
        (((1, 0), 1), lambda t: t.nu(1, t.base(2)), True),
        (((1, 0), 1), lambda t: t.nu(1, t.batom(0, 1)), True),
        (((1, 0), 1), lambda t: t.batom(1, 1), True),
        # a stray: a ground identifier the source does not hold
        (((0, 0), 1), lambda t: t.nu(0, t.nu(0, t.base(3))), False),
        # a marker with l > j: layer 1 has only the marker base(2)
        (((0, 1), 1), lambda t: t.nu(0, t.nu(1, t.base(4))), False),
        (((1, 0), 1), lambda t: t.nu(1, t.base(4)), False),
        # markers never sit on non-positive layers
        (((1, 0), 1), lambda t: t.nu(1, t.nu(0, t.base(2))), False),
        # a pool atom past k = 1
        (((1, 0), 1), lambda t: t.nu(1, t.batom(0, 2)), False),
        # a pool atom of another layer
        (((1, 0), 1), lambda t: t.nu(1, t.batom(-1, 1)), False),
        (((1, 0), 1), lambda t: t.batom(0, 1), False),
        # wraps in the wrong order
        (((1, 0), 1), lambda t: t.nu(0, t.nu(1, t.base(1))), False),
        # one wrap too few
        (((1, 0), 1), lambda t: t.nu(1, t.base(1)), False),
    ],
    ids=["inner-marker", "outer-marker", "inner-pool", "outer-pool", "stray",
         "inner-marker-past-layer", "outer-marker-past-layer", "marker-on-layer-0",
         "pool-past-k", "inner-pool-of-another-layer", "outer-pool-of-another-layer",
         "swapped-wraps", "missing-wrap"],
)
def test_verify_transversal_reads_membership_off_the_term(key, make, member):
    fam = ProjectionFamily((frozenset({1}),))
    t = TermTable()
    good = lifted_good(t)
    assert verify_transversal(Transversal(t, good), fam, 2, 1, 1, 1)
    trans = Transversal(t, {**good, key: make(t)})
    assert verify_transversal(trans, fam, 2, 1, 1, 1) is member


def test_verify_transversal_rejects_a_member_taken_twice():
    # the pool atom of layer 1 is a member of every entry under outer layer 1
    fam = ProjectionFamily((frozenset({1}),))
    t = TermTable()
    once = {**lifted_good(t), ((1, 0), 1): t.batom(1, 1)}
    assert verify_transversal(Transversal(t, once), fam, 2, 1, 1, 1)
    twice = {**once, ((1, 1), 1): t.batom(1, 1)}
    assert not verify_transversal(Transversal(t, twice), fam, 2, 1, 1, 1)


def test_verify_transversal_rejects_missing_and_extra_entries():
    fam = ProjectionFamily((frozenset({1}),))
    t = TermTable()
    good = lifted_good(t)
    missing = dict(good)
    del missing[((1, 1), 1)]
    assert not verify_transversal(Transversal(t, missing), fam, 2, 1, 1, 1)
    # the count matches, but one key is not an entry of Gamma
    renamed = dict(missing)
    renamed[((1, 1), 2)] = good[((1, 1), 1)]
    assert not verify_transversal(Transversal(t, renamed), fam, 2, 1, 1, 1)
    # a transversal of another window or depth
    assert not verify_transversal(Transversal(t, good), fam, 2, 0, 1, 1)
    shallow = {((j,), 1): t.nu(j, t.base(1)) for j in (-1, 0, 1)}
    assert verify_transversal(Transversal(t, shallow), fam, 1, 1, 1, 1)
    assert not verify_transversal(Transversal(t, shallow), fam, 2, 1, 1, 1)


def test_verify_transversal_rejects_a_term_from_another_table():
    fam = ProjectionFamily((frozenset({1}),))
    t, other = TermTable(), TermTable()
    good = lifted_good(t)
    # an id the table never issued
    far = other.nu(0, other.nu(0, other.nu(0, other.base(1))))
    for _ in range(len(t.nodes)):
        far = other.nu(0, far)
    assert not verify_transversal(Transversal(t, {**good, ((0, 0), 1): far}), fam, 2, 1, 1, 1)
    # an id that the table did issue, but for another term
    other.batom(5, 1)
    foreign = other.nu(0, other.nu(0, other.base(1)))
    assert term_to_doc(t, foreign) != ["nu", 0, ["nu", 0, ["base", 1]]]
    assert not verify_transversal(Transversal(t, {**good, ((0, 0), 1): foreign}), fam, 2, 1, 1, 1)
    assert not verify_transversal(Transversal(t, {**good, ((0, 0), 1): 0}), fam, 2, 1, 1, 1)
    assert not verify_transversal(Transversal(t, {**good, ((0, 0), 1): -1}), fam, 2, 1, 1, 1)


def test_deep_orbit_interns_one_wrap_per_layer():
    # window 0: one entry per source at every depth, so the table grows
    # linearly in the depth (each layer wraps the one term once)
    depth = 20_000
    report = simulate(triangular(), depth=depth, window_w=0, prefix_len=1)
    assert report.transversal_ok and report.entries == 1
    assert len(report.transversal.table.nodes) <= depth + 10
