import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CONSTANT_ONE,
    assert_certificate_replays,
    block_families,
    brute_max_matching,
    brute_max_surplus,
    finite,
    padded_triangular,
    triangular,
)
from projclass import hall
from projclass.classify import LABEL_FULL, classify
from projclass.family import (
    Constant,
    DisjointBlocks,
    FiniteFamily,
    ProjectionFamily,
    expand_multiplicity,
    parse_family,
    reindex_to_odd,
    window,
)
from projclass.hall import (
    INFINITE,
    BipartiteIncidence,
    augment,
    decide_trivial_minorization,
    max_matching,
    max_surplus,
    sdr_exists,
)

FAMILIES = Path(__file__).parent / "golden" / "families"

small_sets = st.lists(
    st.frozensets(st.integers(1, 8), max_size=5), min_size=0, max_size=6
).map(tuple)


def test_max_matching_disjoint_singletons():
    g = BipartiteIncidence.from_family(finite({1}, {2}, {3}))
    size, matching, _ = max_matching(g)
    assert size == 3
    assert sorted(matching.items()) == [(1, 1), (2, 2), (3, 3)]


def test_max_matching_shared_element():
    size, matching, _ = max_matching(BipartiteIncidence.from_family(finite({1}, {1})))
    assert size == 1
    assert len(matching) == 1


def test_max_matching_four_positions():
    size, _, _ = max_matching(BipartiteIncidence.from_family(finite({1, 2}, {1}, {2}, {3})))
    assert size == 3


def test_augment_sees_a_free_element_past_a_non_maximum_matching():
    # position 1 holds element 1, and position 2 reaches the free element 2
    # through it: the path flips, and both elements were tried
    adj = {1: (1, 2), 2: (1,)}
    owner, seen = {1: 1}, set()
    assert augment(2, adj.__getitem__, owner, seen)
    assert owner == {1: 2, 2: 1} and seen == {1, 2}
    # an element already seen is never tried, so the same search fails and
    # leaves the matching as it was
    owner, seen = {1: 1}, {2}
    assert not augment(2, adj.__getitem__, owner, seen)
    assert owner == {1: 1} and seen == {1, 2}


def test_sdr_exists_basics():
    assert sdr_exists(finite({1}))
    assert not sdr_exists(finite({1}, {1}))
    assert sdr_exists(FiniteFamily(()))


def test_max_surplus_two_ones():
    report = max_surplus(finite({1}, {1}), 1)
    assert report.max_surplus == 1
    assert report.witness_F == (1, 2)


def test_max_surplus_single():
    assert max_surplus(finite({1}), 1).max_surplus == 0


def test_max_surplus_triangular_window_doubled():
    # 2|F| - |union| peaks at 1 for |F| in {1, 2}
    report = max_surplus(window(triangular(), 3), 2)
    assert report.max_surplus == 1
    assert report.witness_F == (1,)


def test_surplus_report_is_consistent():
    fam = finite({1, 2}, {1}, {2}, {3}, {3})
    for n in (1, 2, 3):
        report = max_surplus(fam, n)
        union = frozenset().union(*(fam.sets[j - 1] for j in report.witness_F)) if report.witness_F else frozenset()
        assert n * len(report.witness_F) - len(union) == report.max_surplus


def test_matching_pairs_live_in_their_sets():
    fam = finite({1, 2}, {1}, {2}, {3})
    n = 2
    report = max_surplus(fam, n)
    expanded = expand_multiplicity(fam, n)
    seen = set()
    for pos, elem in report.matching:
        assert elem in expanded.sets[pos - 1]
        assert elem not in seen
        seen.add(elem)


def test_decide_triangular_has_no_trivial_summand():
    decision = decide_trivial_minorization(triangular(), 1, 1)
    assert decision.decision is False
    assert decision.surplus_sup == 0


def test_decide_two_ones_finite_family():
    from projclass.family import ProjectionFamily

    fam = ProjectionFamily((frozenset({1}), frozenset({1})), None)
    decision = decide_trivial_minorization(fam, 1, 1)
    assert decision.decision is True
    assert decision.certificate.witness_F == (1, 2)


def test_decide_constant_tail_five_fit_in_window_six():
    decision = decide_trivial_minorization(CONSTANT_ONE, 5, 1)
    assert decision.decision is True
    assert decision.window == 6
    assert decision.certificate.max_surplus >= 5


def test_decide_rejects_nonpositive_m_n():
    with pytest.raises(ValueError):
        decide_trivial_minorization(triangular(), 0, 1)
    with pytest.raises(ValueError):
        decide_trivial_minorization(triangular(), 1, 0)


def test_decision_doc_shape():
    doc = decide_trivial_minorization(triangular(), 1, 1).to_doc()
    assert set(doc) >= {"decision", "m", "n", "surplus_sup"}
    doc = decide_trivial_minorization(CONSTANT_ONE, 1, 1).to_doc()
    assert doc["surplus_sup"] == "infinite"
    assert doc["decision"] is True


@given(sets=small_sets)
def test_defect_identity(sets):
    fam = FiniteFamily(sets)
    size, _, _ = max_matching(BipartiteIncidence.from_family(fam))
    assert size == len(sets) - brute_max_surplus(sets, 1)


@given(sets=small_sets)
def test_matching_size_matches_backtracking(sets):
    size, _, _ = max_matching(BipartiteIncidence.from_family(FiniteFamily(sets)))
    assert size == brute_max_matching(sets)


@given(sets=small_sets, n=st.integers(1, 3))
def test_max_surplus_equals_brute_force(sets, n):
    assert max_surplus(FiniteFamily(sets), n).max_surplus == brute_max_surplus(sets, n)


@given(sets=small_sets)
def test_sdr_exists_iff_no_surplus(sets):
    fam = FiniteFamily(sets)
    assert sdr_exists(fam) == (max_surplus(fam, 1).max_surplus <= 0)


@given(sets=small_sets, extra=st.frozensets(st.integers(1, 8), max_size=5))
def test_appending_a_set_never_decreases_surplus(sets, extra):
    before = max_surplus(FiniteFamily(sets), 1).max_surplus
    after = max_surplus(FiniteFamily(sets + (extra,)), 1).max_surplus
    assert after >= before


@given(sets=small_sets, seed=st.randoms(use_true_random=False))
def test_surplus_is_permutation_invariant(sets, seed):
    shuffled = list(sets)
    seed.shuffle(shuffled)
    assert (
        max_surplus(FiniteFamily(tuple(shuffled)), 1).max_surplus
        == max_surplus(FiniteFamily(sets), 1).max_surplus
    )


@given(sets=small_sets, n=st.integers(1, 5))
def test_witness_attains_the_reported_surplus(sets, n):
    report = max_surplus(FiniteFamily(sets), n)

    def surplus(positions):
        return n * len(positions) - len(frozenset().union(*(sets[j - 1] for j in positions)))

    assert surplus(report.witness_F) == report.max_surplus
    # the witness is the least maximiser: the intersection of all of them
    subsets = [
        frozenset(c)
        for r in range(len(sets) + 1)
        for c in itertools.combinations(range(1, len(sets) + 1), r)
    ]
    best = max(map(surplus, subsets))
    assert frozenset(report.witness_F) == frozenset.intersection(
        *(f for f in subsets if surplus(f) == best)
    )


@settings(max_examples=40)
@given(m=st.integers(1, 4), n=st.integers(1, 4))
def test_decision_antitone_in_m_monotone_in_n(m, n):
    fams = (triangular(), CONSTANT_ONE)
    for fam in fams:
        base = decide_trivial_minorization(fam, m, n).decision
        assert decide_trivial_minorization(fam, m + 1, n).decision <= base
        assert decide_trivial_minorization(fam, m, n + 1).decision >= base


def chain_sets(n: int) -> tuple[frozenset, ...]:
    # {1,2}, {2,3}, ..., {n-1,n}, {1}: the last set needs one augmenting
    # path through every other position
    return tuple(frozenset({j, j + 1}) for j in range(1, n)) + (frozenset({1}),)


def test_max_matching_long_augmenting_path():
    size, owner, _ = max_matching(BipartiteIncidence.from_family(FiniteFamily(chain_sets(5000))))
    assert size == 5000
    # position 5000 holds element 1, position 1 holds 2, position 4999 holds 5000
    assert owner[1] == 5000 and owner[2] == 1 and owner[5000] == 4999
    # {1}, {1,2}, ..., {4999,5000}, {5000}: one position stays unmatched, and
    # the last layering reaches every other one through 5000 alternations
    path = (frozenset({1}),) + chain_sets(5000)[:-1] + (frozenset({5000}),)
    size, _, reached = max_matching(BipartiteIncidence.from_family(FiniteFamily(path)))
    assert size == 5000 and reached == frozenset(range(1, 5002))


@pytest.mark.parametrize(
    "sets, n, matching",
    [
        # forward lists keep only elements held one layer on: kept whatever
        # their holder's layer, elements 1 and 3 would swap owners
        (
            [{1, 3, 4}, {1, 2, 5}, {3, 4, 7}, {1, 6}, {1, 3}, {5, 6, 7}, {2, 4, 6}],
            1,
            ((1, 1), (2, 2), (3, 7), (4, 6), (5, 3), (6, 5), (7, 4)),
        ),
        # a root augments again within its phase while it has spare capacity:
        # position 2 takes 1 and 2 before position 3 tries 2; one augmentation
        # per root per phase would hand 2 to position 3 instead
        ([{1, 2, 3, 4}, {1, 2}, {2}], 2, ((1, 3), (2, 4), (3, 1), (4, 2))),
    ],
)
def test_printed_matching_follows_the_layering(sets, n, matching):
    assert max_surplus(FiniteFamily(sets), n).matching == matching


def count_matchings(monkeypatch) -> list[int]:
    """Record the family length of every hall.max_surplus call from here on."""
    calls = []

    def counting(f, n=1):
        calls.append(len(f.sets))
        return max_surplus(f, n)

    monkeypatch.setattr(hall, "max_surplus", counting)
    return calls


def test_reaching_window_found_by_bisection(monkeypatch):
    # a chain with an SDR, then {1}, {1}: surplus 1 is first reached at
    # window 2001, so a window-by-window scan would match 2001 windows where
    # bisection over the 2002-window bound probes about log2(2002) of them
    fam = ProjectionFamily(chain_sets(2000) + (frozenset({1}), frozenset({1})))
    calls = count_matchings(monkeypatch)
    dec = decide_trivial_minorization(fam, 1, 1)
    assert dec.decision and dec.window == 2001
    assert len(calls) <= 2 + len(fam.prefix).bit_length()


def test_surplus_sup_matches_only_the_prefix(monkeypatch):
    # the 3999 blocks smaller than 4000 are summed, not expanded: one
    # matching of the empty prefix and no certificate; the witness, built on
    # request, reads the same matching
    calls = count_matchings(monkeypatch)
    certificates = []
    report = hall.SurplusProfile.report
    monkeypatch.setattr(
        hall.SurplusProfile, "report", lambda self, t: certificates.append(t) or report(self, t)
    )
    profile = hall.SurplusProfile(triangular(), 4000)
    sup = profile.sup()
    assert (sup.value, sup.window) == (7_998_000, 3999)
    assert profile.witness(3999) == tuple(range(1, 4000))
    assert calls == [0] and certificates == []


def test_classify_without_prefix_matches_once(monkeypatch):
    # the empty prefix has surplus 0 at every multiplicity, so the N table is
    # arithmetic; the one matching is the empty prefix's, for F0's witness
    calls = count_matchings(monkeypatch)
    assert classify(triangular(), 200).n_table[200] == 200 * 199 // 2 + 1
    assert calls == [0]


def test_positive_answer_builds_no_supremum_witness():
    # the supremum's window holds 10**20 - 1 blocks, a witness past ssize_t;
    # the answer's window is 1
    dec = decide_trivial_minorization(triangular(), 1, 10**20)
    assert dec.decision and dec.window == 1
    assert dec.certificate.witness_F == (1,)
    assert dec.certificate.matching == ((1, 1),)


@pytest.mark.parametrize(
    "fam, m, n, window_len, prefix_len",
    [
        # a finite chain with a system of distinct representatives: negative
        (ProjectionFamily(chain_sets(50)), 1, 1, 50, 50),
        # {1}, {1} then blocks of size 1, 2, ...: at n = 2 the supremum 4 sits
        # at window 3, past the prefix, for the negative and the positive answer
        (padded_triangular(), 5, 2, 3, 2),
        (padded_triangular(), 4, 2, 3, 2),
        # undersized constant blocks: unbounded, reached past the prefix
        (ProjectionFamily([{1}, {1}], DisjointBlocks(0, 1, 2)), 10, 3, 5, 2),
    ],
)
def test_decision_matches_the_prefix_once(monkeypatch, fam, m, n, window_len, prefix_len):
    # the supremum, the reaching window and the certificate all read the one
    # prefix matching
    calls = count_matchings(monkeypatch)
    dec = decide_trivial_minorization(fam, m, n)
    assert dec.window == window_len and (dec.certificate.max_surplus >= m) == dec.decision
    assert calls == [prefix_len]


def test_constant_tail_decision_matches_at_most_three_windows(monkeypatch):
    calls = count_matchings(monkeypatch)
    for fam, m, window_len in (
        # the prefix, the prefix with the tail's identifiers held, and the
        # certificate; the reaching window past the prefix is arithmetic
        (parse_family(json.loads((FAMILIES / "constant.json").read_text(encoding="utf-8"))), 40, 43),
        # reached inside the prefix: the prefix and two bisection probes; the
        # certificate is the kept report of the probe at window 2
        (ProjectionFamily([{1}, {1}, {2}, {3}], Constant(frozenset({4}))), 1, 2),
    ):
        calls.clear()
        dec = decide_trivial_minorization(fam, m, 1)
        assert dec.decision and dec.window == window_len and dec.certificate.max_surplus == m
        assert len(calls) <= 3


@pytest.mark.parametrize(
    "fam, most",
    [
        (ProjectionFamily([{1}, {1, 2}, {2}], DisjointBlocks(0, 1, 3)), 1),
        (ProjectionFamily([{1}, {1, 2}], Constant(frozenset({2, 3}))), 2),
        (ProjectionFamily([{1}, {1, 2}], Constant(frozenset())), 2),
    ],
)
def test_full_classification_reads_one_profile(monkeypatch, fam, most):
    # the ten surplus samples come from one profile: the prefix matching,
    # plus the held prefix for a constant tail, and no window matched whole
    calls = count_matchings(monkeypatch)
    got = classify(fam)
    assert got.label == LABEL_FULL and len(got.surplus_samples) == 10
    assert len(calls) <= most
    for t, s in got.surplus_samples:
        assert s == max_surplus(window(fam, t), got.witness_m).max_surplus


@settings(max_examples=300)
@given(fam=block_families(), n=st.integers(1, 6), extra=st.integers(0, 7), data=st.data())
def test_window_surplus_equals_windowed_matching(fam, n, extra, data):
    # every field, matching included, against the expanded-window route
    t = data.draw(st.integers(0, len(fam.prefix) + extra))
    assert hall.SurplusProfile(fam, n).report(t) == max_surplus(window(fam, t), n)


def test_window_surplus_empty_prefix_and_flat_blocks():
    for fam in (
        triangular(),
        ProjectionFamily((), DisjointBlocks(0, 2, 1)),
        reindex_to_odd(ProjectionFamily((frozenset({1}), frozenset({1})), DisjointBlocks(1, 0, 2))),
    ):
        for n in (1, 2, 5):
            for t in range(0, 9):
                assert hall.SurplusProfile(fam, n).report(t) == max_surplus(window(fam, t), n)


@settings(max_examples=30, deadline=None)
@given(
    fam=st.one_of(
        block_families(), block_families(constant=True), block_families(finite=True)
    )
)
def test_decision_window_is_the_smallest_reaching_window(fam):
    # windowed oracle: when the supremum is unbounded, every tail position
    # past the first adds at least 1 and the first loses at most 3, so
    # windows up to p + m + 4 cover every reachable target; a finite family
    # has no window past its prefix
    last = len(fam.prefix) if fam.tail is None else len(fam.prefix) + 24
    for n in range(1, 6):
        reports = [max_surplus(window(fam, t), n) for t in range(last + 1)]
        for m in range(1, 21):
            reaching = [t for t, rep in enumerate(reports) if rep.max_surplus >= m]
            dec = decide_trivial_minorization(fam, m, n)
            assert dec.decision == bool(reaching)
            if reaching:
                assert dec.window == reaching[0]
                assert dec.certificate == reports[reaching[0]]


@settings(max_examples=100, deadline=None)
@given(
    fam=st.one_of(
        block_families(), block_families(constant=True), block_families(finite=True)
    ),
    n=st.integers(1, 5),
    m=st.integers(1, 20),
)
def test_decision_certificates_replay(fam, n, m):
    assert_certificate_replays(fam, decide_trivial_minorization(fam, m, n).to_doc())
