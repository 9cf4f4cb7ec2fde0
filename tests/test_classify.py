import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    CONSTANT_ONE,
    SINGLETON_BLOCKS,
    block_families,
    brute_max_surplus,
    padded_triangular,
    pattern_rows,
    triangular,
)
from projclass.classify import (
    LABEL_FULL,
    LABEL_NON_FULL,
    classify,
    compute_N,
    find_tight_set,
    surplus_sup,
    surplus_window_bound,
)
from projclass import hall
from projclass.errors import FullFamilyError
from projclass.family import (
    Constant,
    DisjointBlocks,
    ProjectionFamily,
    reindex_to_odd,
    window,
)
from projclass.dynamics import simulate
from projclass.hall import (
    INFINITE,
    decide_trivial_minorization,
    max_surplus,
)


# the maximal trivial multiplicity k: the surplus supremum at multiplicity 1
def test_max_trivial_multiplicity_triangular():
    assert surplus_sup(triangular(), 1).value == 0


def test_max_trivial_multiplicity_padded():
    assert surplus_sup(padded_triangular(), 1).value == 1


def test_max_trivial_multiplicity_constant_tail():
    assert surplus_sup(CONSTANT_ONE, 1).value is INFINITE


def test_compute_N_triangular_small():
    assert compute_N(triangular(), 1) == 1
    assert compute_N(triangular(), 2) == 2


def test_compute_N_constant_tail_unbounded():
    assert compute_N(CONSTANT_ONE, 1) is INFINITE


def test_compute_N_at_a_multiplicity_past_ssize_t():
    # 10**20 - 1 blocks lie below the multiplicity; they are summed, never listed
    assert compute_N(triangular(), 10**20) == 10**20 * (10**20 - 1) // 2 + 1


def test_classify_builds_only_the_tight_sets_witness(monkeypatch):
    # the N table reads values alone; F0, at multiplicity 1, is the one
    # witness classify prints
    built = []
    witness = hall.SurplusProfile.witness
    monkeypatch.setattr(
        hall.SurplusProfile, "witness", lambda self, t: built.append(self.n) or witness(self, t)
    )
    got = classify(triangular(), 200)
    assert got.n_table[200] == 200 * 199 // 2 + 1 and got.tight_set.positions == ()
    assert built == [1]


def test_a_decision_computes_the_supremum_once(monkeypatch):
    # the reaching window is searched under the supremum the decision holds:
    # a yes, (4, 4), and two noes each compute it once
    made = []
    sup = hall.SurplusProfile.sup
    monkeypatch.setattr(hall.SurplusProfile, "sup", lambda self: made.append(self.n) or sup(self))
    for m, n, answer in ((4, 4, True), (3, 2, False), (1, 1, False)):
        made.clear()
        assert decide_trivial_minorization(triangular(), m, n).decision is answer
        assert made == [n]


def test_compute_N_is_quadratic_for_growing_blocks():
    for m in range(1, 9):
        assert compute_N(triangular(), m) == m * (m - 1) // 2 + 1


def test_compute_N_nondecreasing_in_m():
    for fam in (triangular(), padded_triangular()):
        values = [compute_N(fam, m) for m in range(1, 9)]
        assert values == sorted(values)


def test_classify_triangular():
    got = classify(triangular())
    assert got.label == LABEL_NON_FULL
    assert got.n_table == {1: 1, 2: 2, 3: 4, 4: 7, 5: 11, 6: 16}
    assert got.tight_set.k == 0
    assert got.tight_set.positions == ()


def test_classify_singleton_blocks_is_full():
    got = classify(SINGLETON_BLOCKS)
    assert got.label == LABEL_FULL
    assert got.witness_m == 2
    surpluses = [s for _, s in got.surplus_samples]
    assert surpluses == sorted(surpluses) and len(set(surpluses)) == len(surpluses)


def test_classify_constant_is_full():
    got = classify(CONSTANT_ONE)
    assert got.label == LABEL_FULL
    assert got.witness_m == 1


def test_classify_doc_shapes():
    doc = classify(triangular()).to_doc()
    assert doc == {
        "label": "non_full_stably_finite",
        "N_table": {"1": 1, "2": 2, "3": 4, "4": 7, "5": 11, "6": 16},
        "k": 0,
        "F0": [],
    }
    doc = classify(CONSTANT_ONE).to_doc()
    assert set(doc) == {"label", "witness_m", "surplus_samples"}
    assert len(doc["surplus_samples"]) == 10


def test_find_tight_set_examples():
    assert find_tight_set(triangular()).positions == ()
    assert find_tight_set(triangular()).k == 0
    got = find_tight_set(padded_triangular())
    assert (got.positions, got.k) == ((1, 2), 1)


def test_find_tight_set_four_pad():
    fam = ProjectionFamily(
        (frozenset({1}), frozenset({1}), frozenset({2}), frozenset({2})),
        DisjointBlocks(1, 0, 3),
    )
    got = find_tight_set(fam)
    assert (got.positions, got.k) == ((1, 2, 3, 4), 2)


def test_find_tight_set_refuses_full_families():
    with pytest.raises(FullFamilyError, match="full"):
        find_tight_set(CONSTANT_ONE)


def test_tight_set_balance_invariant():
    for fam in (padded_triangular(), triangular()):
        ts = find_tight_set(fam)
        union = set()
        for j in ts.positions:
            union |= window(fam, max(ts.positions, default=0)).sets[j - 1]
        assert len(union) + ts.k == len(ts.positions)


def test_every_window_respects_the_reported_bound():
    fam = triangular()
    for m in (1, 2, 3):
        bound = compute_N(fam, m)
        for t in (1, 2, 5, 20, 100, 200):
            assert max_surplus(window(fam, t), m).max_surplus < bound


def test_surplus_sup_finite_families_use_their_length():
    fam = ProjectionFamily((frozenset({1}), frozenset({1})), None)
    sup = surplus_sup(fam, 1)
    assert sup.value == 1 and sup.window == 2


@settings(max_examples=60, deadline=None)
@given(
    fam=st.one_of(
        block_families(), block_families(constant=True), block_families(finite=True)
    )
)
@example(fam=CONSTANT_ONE)
@example(fam=SINGLETON_BLOCKS)
def test_surplus_window_bound_reaches_target(fam):
    # the exact first reaching window, against the windowed matching; p + 24
    # windows expose every reachable target up to 20, as in
    # test_decision_window_is_the_smallest_reaching_window
    last = len(fam.prefix) if fam.tail is None else len(fam.prefix) + 24
    for n in range(1, 6):
        surpluses = [max_surplus(window(fam, t), n).max_surplus for t in range(last + 1)]
        for m in range(1, 21):
            if surpluses[-1] >= m:
                first = next(t for t, s in enumerate(surpluses) if s >= m)
                assert surplus_window_bound(fam, n, m) == first


def test_surplus_window_bound_of_a_target_at_most_zero_is_the_empty_window():
    # window 0 has no positions and surplus 0, which reaches any target <= 0
    assert surplus_window_bound(triangular(), 1, 0) == 0
    assert surplus_window_bound(triangular(), 2, -3) == 0
    assert surplus_window_bound(CONSTANT_ONE, 1, 0) == 0


def test_surplus_window_bound_refuses_targets_past_the_supremum():
    # the supremum of the triangular family is 0 at n = 1 and 3 at n = 3;
    # no window reaches more, so no window is returned
    for n, target in ((1, 1), (1, 5), (3, 4), (3, 100)):
        with pytest.raises(ValueError, match="no window reaches"):
            surplus_window_bound(triangular(), n, target)
    fam = ProjectionFamily((frozenset({1}), frozenset({1})), None)
    assert surplus_window_bound(fam, 1, 1) == 2
    with pytest.raises(ValueError, match="no window reaches"):
        surplus_window_bound(fam, 1, 2)


def test_classify_invariant_under_reindex():
    for fam in (triangular(), padded_triangular(), CONSTANT_ONE, SINGLETON_BLOCKS):
        a = classify(fam)
        b = classify(reindex_to_odd(fam))
        assert (a.label, a.n_table, a.tight_set, a.witness_m) == (
            b.label,
            b.n_table,
            b.tight_set,
            b.witness_m,
        )


@settings(max_examples=30)
@given(perm=st.permutations([0, 1, 2, 3]))
def test_classify_invariant_under_prefix_permutation(perm):
    base = (frozenset({1}), frozenset({1}), frozenset({2}), frozenset({2}))
    fam = ProjectionFamily(tuple(base[i] for i in perm), DisjointBlocks(1, 0, 3))
    got = classify(fam)
    assert got.label == LABEL_NON_FULL
    assert got.tight_set.k == 2
    assert got.n_table == classify(ProjectionFamily(base, DisjointBlocks(1, 0, 3))).n_table


@settings(max_examples=25, deadline=None)
@given(a=st.integers(0, 2), b=st.integers(0, 2), m=st.integers(1, 3))
def test_dichotomy_matches_block_growth(a, b, m):
    if a == 0 and b == 0:
        return
    fam = ProjectionFamily((), DisjointBlocks(a, b, 1))
    got = classify(fam, m_max=m)
    # bounded block sizes leave room for ever more trivial summands
    assert got.label == (LABEL_NON_FULL if a >= 1 else LABEL_FULL)


def test_verify_minorization_pattern_triangular():
    rows = pattern_rows(triangular(), 4)
    assert [(m, dec.n) for m, _, dec in rows] == [(1, 2), (2, 3), (3, 4), (4, 5)]
    for m, n, dec in rows:
        assert n == m * (m - 1) // 2 + 1
        assert dec.certificate.max_surplus >= n


def test_verify_minorization_pattern_finds_l_past_the_old_scan():
    # blocks of sizes 101, 102, ...: no surplus at m = 1, so N(1) = 1, and the
    # first block alone reaches it once l - 101 >= 1
    ((_, n, dec),) = pattern_rows(ProjectionFamily((), DisjointBlocks(1, 100, 1)), 1)
    assert (n, dec.n, dec.window, dec.certificate.max_surplus) == (1, 102, 1, 1)


@settings(max_examples=150, deadline=None)
@given(fam=block_families(finite=True), m_max=st.integers(1, 4))
def test_verify_minorization_pattern_rows_hold_to_brute_force(fam, m_max):
    # each row against brute_max_surplus, which shares no code with the
    # engine: N(m) is blocked at m, l is the least multiplicity admitting
    # it, and the answer's window the least window that does at l
    assume(fam.prefix)
    sets = fam.prefix
    for m, n, dec in pattern_rows(fam, m_max):
        l, t = dec.n, dec.window
        assert n == brute_max_surplus(sets, m) + 1
        assert brute_max_surplus(sets, l) >= n > brute_max_surplus(sets, l - 1)
        assert brute_max_surplus(sets[:t], l) == dec.certificate.max_surplus >= n
        assert n > brute_max_surplus(sets[: t - 1], l)


@settings(max_examples=80, deadline=None)
@given(
    fam=st.one_of(
        block_families(), block_families(constant=True), block_families(finite=True)
    ),
    depth=st.integers(1, 2),
    w=st.integers(0, 1),
    p=st.integers(0, 6),
    m=st.integers(1, 8),
    n=st.integers(1, 4),
)
def test_each_record_holds_the_record_its_decision_read(fam, depth, w, p, m, n):
    # the held TightSet or SurplusSup equals a fresh one, and every document
    # key the record prints is read off it
    decision = decide_trivial_minorization(fam, m, n)
    assert decision.sup == surplus_sup(fam, n)
    doc = decision.to_doc()
    assert doc.get("unbounded_reason") == decision.sup.reason
    assert ("unbounded_reason" in doc) == (decision.sup.reason is not None)
    got = classify(fam, 2)
    if got.label == LABEL_NON_FULL:
        assert got.tight_set == find_tight_set(fam)
        assert got.to_doc()["k"] == got.tight_set.k
    if surplus_sup(fam, 1).value is INFINITE:
        return  # simulate refuses: there is no tight set
    p = p if fam.tail is not None else min(p, len(fam.prefix))
    report = simulate(fam, depth, w, p)
    assert report.tight == find_tight_set(reindex_to_odd(fam))
    doc = report.to_doc()
    assert (doc["k"], doc["F0"]) == (report.tight.k, list(report.tight.positions))
