import pytest
from hypothesis import given, strategies as st

from conftest import CONSTANT_ONE, finite, triangular
from projclass import family
from projclass.errors import FamilyFormatError, FamilyIndexError
from projclass.family import (
    Constant,
    DisjointBlocks,
    FiniteFamily,
    ProjectionFamily,
    eval_set,
    expand_multiplicity,
    index_set,
    parse_family,
    reindex_to_odd,
    window,
)
from projclass.hall import max_surplus


def test_index_set_rejects_duplicates():
    with pytest.raises(FamilyFormatError):
        index_set([1, 1, 2])


def test_index_set_rejects_nonpositive_and_bool():
    with pytest.raises(FamilyFormatError):
        index_set([0])
    with pytest.raises(FamilyFormatError):
        index_set([-3])
    with pytest.raises(FamilyFormatError):
        index_set([True])


def test_eval_set_triangular_third_block():
    assert eval_set(triangular(), 3) == {4, 5, 6}


def test_eval_set_prefix_lookup():
    fam = ProjectionFamily((frozenset({1, 2}),), None)
    assert eval_set(fam, 1) == {1, 2}


def test_eval_set_constant_rule():
    assert eval_set(CONSTANT_ONE, 100) == {1}


def test_eval_set_beyond_finite_family():
    fam = ProjectionFamily((frozenset({1}),), None)
    with pytest.raises(FamilyIndexError, match="beyond finite family"):
        eval_set(fam, 2)


def test_eval_set_rejects_nonpositive_position():
    with pytest.raises(FamilyIndexError):
        eval_set(triangular(), 0)


def test_window_triangular_two():
    assert window(triangular(), 2).sets == (frozenset({1}), frozenset({2, 3}))


def test_window_empty():
    fam = window(triangular(), 0)
    assert fam.sets == () and fam.ground == frozenset()


def test_window_constant():
    assert window(CONSTANT_ONE, 3).sets == (frozenset({1}),) * 3


def test_expand_multiplicity_repeats():
    assert expand_multiplicity(finite({1}), 2).sets == (frozenset({1}),) * 2
    assert expand_multiplicity(finite({1, 2}, {3}), 2).sets == (
        frozenset({1, 2}),
        frozenset({1, 2}),
        frozenset({3}),
        frozenset({3}),
    )


def test_expand_multiplicity_identity():
    fam = finite({1, 4}, {2})
    assert expand_multiplicity(fam, 1) == fam


def test_expand_multiplicity_keeps_ground():
    fam = finite({1, 2}, {3})
    assert expand_multiplicity(fam, 3).ground == fam.ground


def test_reindex_to_odd_prefix_sets():
    fam = ProjectionFamily((frozenset({1, 2}),), None)
    assert eval_set(reindex_to_odd(fam), 1) == {1, 3}
    fam = ProjectionFamily((frozenset({3}),), None)
    assert eval_set(reindex_to_odd(fam), 1) == {5}


def test_reindex_to_odd_triangular_window():
    odd = reindex_to_odd(triangular())
    assert window(odd, 2).sets == (frozenset({1}), frozenset({3, 5}))


def test_reindex_to_odd_constant():
    odd = reindex_to_odd(ProjectionFamily((), Constant(frozenset({2, 3}))))
    assert eval_set(odd, 5) == {3, 5}


def test_disjoint_blocks_validation():
    with pytest.raises(FamilyFormatError):
        DisjointBlocks(0, 0, 1)
    with pytest.raises(FamilyFormatError):
        DisjointBlocks(1, 0, 0)
    with pytest.raises(FamilyFormatError):
        DisjointBlocks(1, 0, 1, stride=0)


def test_prefix_must_stay_below_blocks():
    # prefix uses identifier 5, blocks start at 2: overlap possible
    with pytest.raises(FamilyFormatError):
        ProjectionFamily((frozenset({5}),), DisjointBlocks(1, 0, 2))


def test_finite_family_ground_is_union():
    fam = finite({1, 2}, {2, 7})
    assert fam.ground == {1, 2, 7}
    assert len(fam) == 2


@given(
    a=st.integers(0, 3),
    b=st.integers(0, 3),
    start=st.integers(1, 5),
    t=st.integers(1, 12),
)
def test_disjoint_blocks_are_pairwise_disjoint(a, b, start, t):
    if a == 0 and b == 0:
        return
    fam = ProjectionFamily((), DisjointBlocks(a, b, start))
    sets = window(fam, t).sets
    seen: set[int] = set()
    for s in sets:
        assert not (seen & s)
        seen |= s
    assert all(e >= start for e in seen)


@given(
    a=st.integers(0, 3),
    b=st.integers(0, 3),
    start=st.integers(1, 5),
    t=st.integers(0, 10),
)
def test_window_is_a_prefix_of_the_next(a, b, start, t):
    if a == 0 and b == 0:
        return
    fam = ProjectionFamily((), DisjointBlocks(a, b, start))
    assert window(fam, t).sets == window(fam, t + 1).sets[:t]


@st.composite
def small_families(draw):
    prefix_sets = draw(
        st.lists(st.sets(st.integers(1, 6), max_size=4), max_size=3)
    )
    prefix = tuple(frozenset(s) for s in prefix_sets)
    top = max((max(s) for s in prefix if s), default=0)
    kind = draw(st.sampled_from(["none", "constant", "blocks"]))
    if kind == "none":
        tail = None
    elif kind == "constant":
        tail = Constant(frozenset(draw(st.sets(st.integers(1, 6), min_size=1, max_size=3))))
    else:
        a = draw(st.integers(0, 2))
        b = draw(st.integers(0, 2))
        if a == 0 and b == 0:
            b = 1
        tail = DisjointBlocks(a, b, top + 1)
    return ProjectionFamily(prefix, tail)


@given(fam=small_families(), t=st.integers(0, 8), n=st.integers(1, 3))
def test_reindex_preserves_window_surplus(fam, t, n):
    if fam.tail is None:
        t = min(t, len(fam.prefix))
    before = max_surplus(window(fam, t), n).max_surplus
    after = max_surplus(window(reindex_to_odd(fam), t), n).max_surplus
    assert before == after


@st.composite
def family_documents(draw):
    """A family document of each tail kind, and the family built from the same parts.

    A block tail's stride is absent, 1 or 2, and a "none" tail may be left out.
    """
    prefix = draw(st.lists(st.lists(st.integers(1, 6), unique=True, max_size=4), max_size=3))
    kind = draw(st.sampled_from(["none", "constant", "disjoint_blocks"]))
    doc = {"prefix": prefix, "tail": {"kind": kind}}
    if kind == "none":
        tail = None
        if draw(st.booleans()):
            del doc["tail"]
    elif kind == "constant":
        doc["tail"]["set"] = members = draw(st.lists(st.integers(1, 6), unique=True, max_size=3))
        tail = Constant(members)
    else:
        a, b = draw(st.sampled_from([(a, b) for a in range(3) for b in range(3)][1:]))
        start = max((max(s) for s in prefix if s), default=0) + draw(st.integers(1, 3))
        doc["tail"].update(a=a, b=b, start=start)
        stride = draw(st.sampled_from([None, 1, 2]))
        if stride:
            doc["tail"]["stride"] = stride
        tail = DisjointBlocks(a, b, start, stride or 1)
    return doc, ProjectionFamily(prefix, tail)


@given(case=family_documents())
def test_family_doc_round_trip(case):
    doc, fam = case
    assert parse_family(doc) == fam


def test_parse_family_wire_format():
    fam = parse_family(
        {"prefix": [[1, 2], [3]], "tail": {"kind": "disjoint_blocks", "a": 1, "b": 0, "start": 4}}
    )
    assert eval_set(fam, 1) == {1, 2}
    assert eval_set(fam, 3) == {4}
    assert eval_set(fam, 4) == {5, 6}


def test_parse_family_missing_tail_means_finite():
    fam = parse_family({"prefix": [[2]]})
    assert fam.tail is None and fam.prefix == (frozenset({2}),)


def test_parse_family_rejects_bad_documents():
    for doc in (
        [],
        {"prefix": [], "tail": {"kind": "weird"}},
        {"prefix": [[1, 1]], "tail": {"kind": "none"}},
        {"prefix": [], "tail": {"kind": "constant"}},
        {"prefix": [], "tail": {"kind": "none"}, "extra": 1},
        {"prefix": [], "tail": {"kind": "disjoint_blocks", "a": 1, "b": 0}},
        {"prefix": 3, "tail": {"kind": "none"}},
    ):
        with pytest.raises(FamilyFormatError):
            parse_family(doc)


@pytest.mark.parametrize("p", [0, 1, 5])
def test_parse_family_checks_each_set_once(monkeypatch, p):
    # the records check the sets; parse_family checks only the document's shape
    calls = []

    def counted(elements):
        calls.append(elements)
        return index_set(elements)

    monkeypatch.setattr(family, "index_set", counted)
    fam = parse_family({"prefix": [[i] for i in range(1, p + 1)], "tail": {"kind": "constant", "set": [1]}})
    assert len(calls) == p + 1
    assert fam == ProjectionFamily([[i] for i in range(1, p + 1)], Constant([1]))


@pytest.mark.parametrize(
    "doc, message",
    [
        # the prefix's shape is read before any of its sets
        ({"prefix": [[0], 5]}, "prefix position 2 must be an array of identifiers"),
        # the tail is read before the prefix's sets
        ({"prefix": [[0]], "tail": {"kind": "weird"}}, "unknown tail kind 'weird'"),
        ({"prefix": [[1, 1]], "tail": {"kind": "constant", "set": [0]}}, "ground identifiers must be positive integers, got 0"),
        ({"prefix": [], "extra": 1}, "unknown family keys: ['extra']"),
    ],
    ids=["prefix-shape", "tail-kind", "constant-set", "family-key"],
)
def test_parse_family_reports_the_shape_then_the_tail_then_the_sets(doc, message):
    with pytest.raises(FamilyFormatError) as err:
        parse_family(doc)
    assert str(err.value) == message


def test_records_are_frozen_checked_and_compared_by_fields():
    fam = ProjectionFamily([[1], [2]], DisjointBlocks(1, 0, 3))
    report = max_surplus(finite({1}, {1}), 2)
    for record in (fam, fam.tail, Constant([1]), finite({1}), report):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = 1
    twin = ProjectionFamily(([1], {2}), DisjointBlocks(1, 0, 3, 1))
    assert fam == twin and hash(fam) == hash(twin)
    assert fam != ProjectionFamily([[1], [2]], DisjointBlocks(1, 1, 3))
    assert report == max_surplus(finite({1}, {1}), 2) != max_surplus(finite({1}, {1}), 1)
    # copies go through the same checks as constructions
    with pytest.raises(FamilyFormatError):
        fam._replace(tail=object())
    with pytest.raises(FamilyFormatError):
        fam.tail._replace(start=0)
    with pytest.raises(FamilyFormatError):
        Constant([1])._replace(members=[1, 1])
    with pytest.raises(FamilyFormatError):
        ProjectionFamily._make(([[5]], DisjointBlocks(1, 0, 2)))
    assert finite({1})._replace(sets=([2, 3],)).ground == {2, 3}
