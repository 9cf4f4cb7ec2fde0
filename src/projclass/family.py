"""Index-set families describing diagonal projections.

A diagonal projection Q = p_{I_1} (+) p_{I_2} (+) ... is fully described by
its family of finite index sets I_j.  A family here is an explicit finite
prefix plus an optional symbolic tail rule; the two supported rules keep
infinite families finitely describable, so every quantity the deciders need
can be read off finite windows.

Ground identifiers are positive integers.  The empty index set is allowed and
stands for a trivial rank-one summand.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import FamilyFormatError, FamilyIndexError

IndexSet = frozenset[int]


def index_set(elements: Iterable[int]) -> IndexSet:
    """Validate and freeze a collection of ground identifiers.

    Duplicates are rejected rather than silently merged so that mistakes in
    hand-written documents surface early.
    """
    items = list(elements)
    for e in items:  # before hashing: a nested array is unhashable
        if not isinstance(e, int) or isinstance(e, bool) or e < 1:
            raise FamilyFormatError(f"ground identifiers must be positive integers, got {e!r}")
    out = frozenset(items)
    if len(out) != len(items):
        raise FamilyFormatError(f"duplicate ground identifiers in {sorted(items, key=repr)!r}")
    return out


class _Checked:
    """Mixin for the records that check their fields in __new__.

    namedtuple's _make, which _replace also goes through, builds the tuple
    directly; routing it through the class keeps every copy checked.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class _ConstantFields(NamedTuple):
    members: IndexSet


class Constant(_Checked, _ConstantFields):
    """Tail rule: every position past the prefix carries the same set."""

    __slots__ = ()

    def __new__(cls, members: Iterable[int]):
        return super().__new__(cls, index_set(members))


class _BlockFields(NamedTuple):
    a: int
    b: int
    start: int
    stride: int


class DisjointBlocks(_Checked, _BlockFields):
    """Tail rule: the i-th tail set is a fresh block of a*i + b identifiers.

    Blocks are pairwise disjoint and disjoint from every prefix set: `start`
    must lie above all prefix identifiers, and blocks walk upward from it in
    steps of `stride`.  Sizes are affine in the tail-local index, so the first
    tail position always carries a block of size a + b regardless of how long
    the prefix is.  `stride` is 1 for documents; odd reindexing doubles it.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, start: int, stride: int = 1):
        for name, v in (("a", a), ("b", b), ("start", start), ("stride", stride)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise FamilyFormatError(f"block parameter {name} must be an integer, got {v!r}")
        if a < 0 or b < 0 or (a, b) == (0, 0):
            raise FamilyFormatError("block sizes need a >= 0 and b >= 0, not both zero")
        if start < 1:
            raise FamilyFormatError("block start must be a positive identifier")
        if stride < 1:
            raise FamilyFormatError("block stride must be >= 1")
        return super().__new__(cls, a, b, start, stride)

    def size(self, i: int) -> int:
        return self.a * i + self.b

    def block(self, i: int) -> range:
        """The i-th tail block as a range, i >= 1 counted from the first tail position."""
        if i < 1:
            raise FamilyIndexError(f"tail blocks are 1-based, got {i}")
        first = self.start + self.stride * (self.a * (i - 1) * i // 2 + self.b * (i - 1))
        return range(first, first + self.stride * self.size(i), self.stride)


TailRule = Constant | DisjointBlocks


class _FamilyFields(NamedTuple):
    prefix: tuple[IndexSet, ...]
    tail: TailRule | None


class ProjectionFamily(_Checked, _FamilyFields):
    """Explicit prefix plus an optional symbolic tail; tail None means finite."""

    __slots__ = ()

    def __new__(cls, prefix: Iterable[Iterable[int]] = (), tail: TailRule | None = None):
        prefix = tuple(index_set(s) for s in prefix)
        if tail is not None and not isinstance(tail, (Constant, DisjointBlocks)):
            raise FamilyFormatError(f"unknown tail rule {tail!r}")
        if isinstance(tail, DisjointBlocks):
            top = max((max(s) for s in prefix if s), default=0)
            if top >= tail.start:
                raise FamilyFormatError(
                    f"tail blocks start at {tail.start} but the prefix uses identifier {top}"
                )
        return super().__new__(cls, prefix, tail)


class _FiniteFields(NamedTuple):
    sets: tuple[IndexSet, ...]


class FiniteFamily(_Checked, _FiniteFields):
    """An ordered finite family of index sets."""

    __slots__ = ()

    def __new__(cls, sets: Iterable[Iterable[int]]):
        return super().__new__(cls, tuple(frozenset(s) for s in sets))

    @property
    def ground(self) -> IndexSet:
        """The union of the sets."""
        return frozenset().union(*self.sets)

    def __len__(self) -> int:
        return len(self.sets)


def eval_set(fam: ProjectionFamily, j: int) -> IndexSet | range:
    """The j-th index set of the family, positions counted from 1; a tail block is a range."""
    if j < 1:
        raise FamilyIndexError(f"positions are 1-based, got {j}")
    if j <= len(fam.prefix):
        return fam.prefix[j - 1]
    if fam.tail is None:
        raise FamilyIndexError("index beyond finite family")
    if isinstance(fam.tail, Constant):
        return fam.tail.members
    return fam.tail.block(j - len(fam.prefix))


def window(fam: ProjectionFamily, t: int) -> FiniteFamily:
    """The finite family of the first t positions, tail blocks frozen like every set."""
    if t < 0:
        raise FamilyIndexError(f"window length must be >= 0, got {t}")
    return FiniteFamily(tuple(eval_set(fam, j) for j in range(1, t + 1)))


def expand_multiplicity(fam: FiniteFamily, n: int) -> FiniteFamily:
    """Repeat every set n times, copies adjacent: [A, B] -> [A, A, B, B] for n=2.

    No decision builds this: hall.max_matching gives each position capacity
    n instead.  The tests match it at capacity 1 as the reference route.
    """
    if n < 1:
        raise ValueError(f"multiplicity must be >= 1, got {n}")
    return FiniteFamily(tuple(s for s in fam.sets for _ in range(n)))


def _odd(s: IndexSet) -> IndexSet:
    return frozenset(2 * i - 1 for i in s)


def reindex_to_odd(fam: ProjectionFamily) -> ProjectionFamily:
    """Relabel every ground identifier i to 2i - 1.

    The image touches only odd identifiers, leaving the evens as an untouched
    reservoir.  Position structure is unchanged, so every matching and surplus
    quantity of every window is preserved.
    """
    tail = fam.tail
    if isinstance(tail, Constant):
        tail = Constant(_odd(tail.members))
    elif isinstance(tail, DisjointBlocks):
        tail = DisjointBlocks(tail.a, tail.b, 2 * tail.start - 1, 2 * tail.stride)
    return ProjectionFamily(tuple(_odd(s) for s in fam.prefix), tail)


def parse_family(doc: object) -> ProjectionFamily:
    """Parse the wire document {"prefix": [[...], ...], "tail": {"kind": ...}}.

    Tail kinds: "none", "constant" (with "set"), "disjoint_blocks" (with
    "a", "b", "start" and an optional internal "stride").  A missing "tail"
    means "none".  Only the document's shape is checked here; the records
    check every set and block parameter, once, as they do for any caller.
    """
    if not isinstance(doc, dict):
        raise FamilyFormatError("family document must be a JSON object")
    _require_keys(doc, {"prefix", "tail"}, what="family")
    prefix = doc.get("prefix", [])
    if not isinstance(prefix, list):
        raise FamilyFormatError("family prefix must be an array of arrays")
    for pos, entry in enumerate(prefix, 1):
        if not isinstance(entry, list):
            raise FamilyFormatError(f"prefix position {pos} must be an array of identifiers")

    tail_doc = doc.get("tail", {"kind": "none"})
    if not isinstance(tail_doc, dict) or "kind" not in tail_doc:
        raise FamilyFormatError('family tail must be an object with a "kind"')
    kind = tail_doc["kind"]
    tail: TailRule | None
    if kind == "none":
        _require_keys(tail_doc, {"kind"})
        tail = None
    elif kind == "constant":
        _require_keys(tail_doc, {"kind", "set"}, needed={"set"})
        if not isinstance(tail_doc["set"], list):
            raise FamilyFormatError('constant tail "set" must be an array of identifiers')
        tail = Constant(tail_doc["set"])
    elif kind == "disjoint_blocks":
        _require_keys(tail_doc, {"kind", "a", "b", "start", "stride"}, needed={"a", "b", "start"})
        tail = DisjointBlocks(
            tail_doc["a"], tail_doc["b"], tail_doc["start"], tail_doc.get("stride", 1)
        )
    else:
        raise FamilyFormatError(f"unknown tail kind {kind!r}")
    return ProjectionFamily(prefix, tail)


def _require_keys(doc: dict, allowed: set, needed: set = frozenset(), what: str = "tail") -> None:
    extra = set(doc) - allowed
    if extra:
        raise FamilyFormatError(f"unknown {what} keys: {sorted(extra)}")
    missing = needed - set(doc)
    if missing:
        raise FamilyFormatError(f"missing {what} keys: {sorted(missing)}")

