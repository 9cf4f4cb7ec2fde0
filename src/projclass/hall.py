"""Exact bipartite matching engine for transversal and surplus questions.

The primitives are maximum bipartite matching (Hopcroft-Karp) between
family positions, each holding up to a given capacity of elements, and
ground identifiers, and augment, one depth-first alternating-path search
(Kuhn).  augment is the only alternating-path step.  Hopcroft-Karp's phases
run it along their breadth-first layering, because plain repeated Kuhn
searches are quadratic on long chains.  It also grows the
one-position-at-a-time matchings of the oracle walk and the orbit layers.
Around them sit the deciders used everywhere else:

  * sdr_exists: does the family admit a system of distinct representatives;
  * max_surplus: the maximum of n|F| - |union of F| over position subsets F,
    with a canonical witness.  The maximum is never searched subset by
    subset: by the deficiency form of Koenig's theorem it equals
    n*(positions) - (maximum matching) with every position at capacity n,
    and the unique inclusion-minimal witness is the set of positions
    reachable from those with spare capacity along alternating paths.  The
    last Hopcroft-Karp layering reaches exactly that set and no free
    element: the last layering is the proof of maximality;
  * SurplusProfile: the window surplus S(t) of one family at one n, with its
    supremum, its smallest reaching window and, for printers only, its
    certificates.  Past the prefix S is arithmetic, and no window is matched
    twice.  surplus_sup and surplus_window_bound each read one profile;
  * decide_trivial_minorization: do m trivial rank-one summands embed under
    n copies of the family's projection, which holds exactly when some finite
    window reaches surplus m at multiplicity n.

All computations are exact; every answer carries a finite witness, and
every matching is reported with the layering that proves it maximum.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple

from .family import (
    Constant,
    DisjointBlocks,
    FiniteFamily,
    ProjectionFamily,
    window,
)


class Infinite:
    """Sentinel for an unbounded surplus supremum."""

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = Infinite()


class BipartiteIncidence(NamedTuple):
    """Positions 1..t on the left, ground identifiers on the right.

    Membership edges only, no multiplicities; adjacency is kept sorted so
    that every downstream algorithm is deterministic.
    """

    positions: tuple[int, ...]
    adj: dict[int, tuple[int, ...]]

    @classmethod
    def from_family(cls, fam: FiniteFamily) -> "BipartiteIncidence":
        positions = tuple(range(1, len(fam.sets) + 1))
        adj = {p: tuple(sorted(s)) for p, s in enumerate(fam.sets, 1)}
        return cls(positions, adj)


def max_matching(
    g: BipartiteIncidence, capacity: int = 1
) -> tuple[int, dict[int, int], frozenset[int]]:
    """Maximum matching size, one maximum matching (element -> position) and its reach.

    Each position may hold up to `capacity` elements and each element one
    position: a maximum matching of the family with every position copied
    `capacity` times, found without building the copies.  Hopcroft-Karp
    phases: a breadth-first layering from the roots, the positions with
    spare capacity, stops at the layer of the first free element and records
    each position's forward elements, those free or held by a position one
    layer on; positions past that layer have none.  augment walks only those
    lists, from each root again while it has spare capacity and its last
    search succeeded, with one seen set per phase.  An element no path has
    used yet keeps its owner, so the layering stays true for every element
    augment may still try.  In the first phase every element is free and
    every position a root at layer 0, so augment would hand each position,
    in order, its first elements that no earlier one took; that phase is
    done directly, without the layering.  The last layering is the proof:
    it reaches no free element, so no augmenting path remains (Berge).  The
    positions it reached, the roots and the owners of every element next to
    a reached position, are returned too.  They attain the maximum
    deficiency capacity*|F| - |N(F)| and lie inside every other maximiser,
    so they are the canonical inclusion-minimal witness.
    """
    positions, adj = g
    owner: dict[int, int] = {}
    load: dict[int, int] = {}
    for p in positions:
        held = 0
        for e in adj[p]:
            if held == capacity:
                break
            if e not in owner:
                owner[e] = p
                held += 1
        load[p] = held
    while True:
        roots = [p for p in positions if load[p] < capacity]
        dist = dict.fromkeys(roots, 0)
        forward: defaultdict[int, list[int]] = defaultdict(list)
        queue, limit = list(roots), 0  # limit: the layer of the first free element
        for p in queue:
            step = dist[p] + 1
            if limit and step > limit:
                break
            ahead = forward[p]
            for e in adj[p]:
                q = owner.get(e)
                if q is None:
                    limit = step
                elif q not in dist:
                    dist[q] = step
                    queue.append(q)
                elif dist[q] != step:
                    continue
                ahead.append(e)
        if not limit:
            return len(owner), owner, frozenset(dist)
        seen: set[int] = set()
        for p in roots:
            while load[p] < capacity and augment(p, forward.__getitem__, owner, seen):
                load[p] += 1


def augment(
    root: int, neighbours: Callable[[int], Iterable[int]], owner: dict[int, int], seen: set[int]
) -> bool:
    """Match root along an alternating path to a free element, if one exists (Kuhn).

    neighbours(p) gives position p's elements in the order to try them, and
    owner maps each matched element to its position; on success owner is
    updated along the path.  Depth first with an explicit stack: path[k]
    reaches path[k + 1] through via[k].  An element in seen is never tried,
    and every element tried joins seen, so the search cannot cycle.
    """
    path, via, edges = [root], [], [iter(neighbours(root))]
    while path:
        for e in edges[-1]:
            if e not in seen:
                seen.add(e)
                via.append(e)
                q = owner.get(e)
                if q is None:
                    for p, elem in zip(path, via):
                        owner[elem] = p
                    return True
                path.append(q)
                edges.append(iter(neighbours(q)))
                break
        else:
            path.pop()
            edges.pop()
            if via:
                via.pop()
    return False


def sdr_exists(fam: FiniteFamily) -> bool:
    """True iff the family has a system of distinct representatives."""
    return max_matching(BipartiteIncidence.from_family(fam))[0] == len(fam.sets)


class SurplusReport(NamedTuple):
    """Certificate for the maximum surplus n|F| - |union of F| over subsets F.

    witness_F lists original family positions.  The matching refers to the
    n-fold expanded family: copy c of original position p sits at expanded
    position (p-1)*n + c and holds the c-th smallest element matched to p.
    """

    max_surplus: int
    witness_F: tuple[int, ...]
    matching: tuple[tuple[int, int], ...]

    def to_doc(self) -> dict:
        return {
            "max_surplus": self.max_surplus,
            "witness_F": list(self.witness_F),
            "matching": [[p, e] for p, e in self.matching],
        }


def max_surplus(fam: FiniteFamily, n: int = 1) -> SurplusReport:
    """Maximum of n|F| - |union of F| over all position subsets, F = {} included.

    Computed through the deficiency identity on a maximum matching with
    every position at capacity n, never by subset enumeration.  Copy c of
    position p, at expanded position (p-1)*n + c, holds p's c-th smallest
    matched element.
    """
    if n < 1:
        raise ValueError(f"multiplicity must be >= 1, got {n}")
    size, owner, reached = max_matching(BipartiteIncidence.from_family(fam), n)
    copies: dict[int, int] = {}
    matching = []
    for p, e in sorted((p, e) for e, p in owner.items()):
        copies[p] = c = copies.get(p, 0) + 1
        matching.append(((p - 1) * n + c, e))
    surplus = n * len(fam.sets) - size
    return SurplusReport(surplus, tuple(sorted(reached)), tuple(matching))


class MinorizationDecision(NamedTuple):
    """Outcome and certificate of a trivial-minorization query.

    For a positive answer, `window` is the smallest window length whose
    surplus at multiplicity n reaches m and `certificate` is that window's
    surplus report.  For a negative answer the certificate carries the
    supremum witness.  `sup` is the supremum over all finite windows.
    """

    decision: bool
    m: int
    n: int
    sup: SurplusSup
    window: int
    certificate: SurplusReport

    def to_doc(self) -> dict:
        doc = {
            "decision": self.decision,
            "m": self.m,
            "n": self.n,
            "surplus_sup": "infinite" if isinstance(self.sup.value, Infinite) else self.sup.value,
            "window": self.window,
        }
        doc.update(self.certificate.to_doc())
        if self.sup.reason:
            doc["unbounded_reason"] = self.sup.reason
        return doc


def _blocks_below(tail: DisjointBlocks, n: int, k: int) -> int:
    """How many of the first k tail blocks are smaller than n; sizes never fall, so they lead."""
    if tail.a:
        return min(k, max(0, (n - 1 - tail.b) // tail.a))
    return k if tail.b < n else 0


def _block_gain(tail: DisjointBlocks, n: int, k: int) -> int:
    """Surplus the first k tail blocks add: an arithmetic series of n - size(i) > 0."""
    k = _blocks_below(tail, n, k)
    return k * (n - tail.b) - tail.a * k * (k + 1) // 2


class SurplusSup(NamedTuple):
    """Outcome of the surplus supremum at one multiplicity.

    Finite case: `window` attains the value, and neither a witness nor a
    matching is built: SurplusProfile.witness(window) lists one.  Unbounded
    case: `reason` states which tail shape forces growth.
    """

    value: int | Infinite
    window: int | None
    reason: str | None


def unbounded_multiplicity(fam: ProjectionFamily) -> int | None:
    """Least multiplicity at which the surplus supremum is unbounded; None if never.

    Every copy of a constant tail adds n once one is held; blocks of constant
    size b add n - b each once n > b; growing blocks outgrow every n.
    """
    tail = fam.tail
    if tail is None:
        return None
    if isinstance(tail, Constant):
        return 1
    return tail.b + 1 if tail.a == 0 else None


def _unbounded_reason(fam: ProjectionFamily, n: int) -> str:
    tail = fam.tail
    if isinstance(tail, Constant):
        return (
            f"constant tail repeats one set of size {len(tail.members)}; "
            f"each window step eventually adds {n} to the surplus"
        )
    return (
        f"tail blocks keep constant size {tail.b} < {n}; "
        f"each tail position adds {n - tail.b} to the surplus"
    )


class SurplusProfile:
    """The window surplus S(t) = max_surplus(window(fam, t), n) of one family at one n.

    S never decreases: a longer window keeps every subset of a shorter one.
    Inside the prefix each S(t) is one matching, kept once made.  Past it S
    is arithmetic on S0 = S(p): tail blocks are disjoint from all other sets,
    so block i adds max(0, n - size(i)) whatever else is chosen; a subset
    holding one copy of a constant tail C may as well hold them all, so
    S(p + k) = max(S0, SC + n*k) with SC = max_surplus(prefix minus C) - |C|.
    Only witness(t) and report(t), which the printers call, build positions.
    """

    def __init__(self, fam: ProjectionFamily, n: int):
        if n < 1:
            raise ValueError(f"multiplicity must be >= 1, got {n}")
        self.fam, self.n, self.p = fam, n, len(fam.prefix)
        self._reports: dict[int, SurplusReport] = {}
        self._held: int | None = None  # SC, matched on first use

    def _match(self, t: int) -> SurplusReport:
        if t not in self._reports:
            self._reports[t] = max_surplus(window(self.fam, t), self.n)
        return self._reports[t]

    def surplus(self, t: int) -> int:
        tail, p, n = self.fam.tail, self.p, self.n
        if t <= p or tail is None:
            return self._match(t).max_surplus
        s0 = self._match(p).max_surplus if p else 0
        if isinstance(tail, DisjointBlocks):
            return s0 + _block_gain(tail, n, t - p)
        if self._held is None:
            held = FiniteFamily(s - tail.members for s in self.fam.prefix)
            self._held = max_surplus(held, n).max_surplus - len(tail.members)
        return max(s0, self._held + n * (t - p))

    def sup(self) -> SurplusSup:
        """The supremum of S: past the prefix only tail blocks smaller than n add."""
        fam, tail, n, p = self.fam, self.fam.tail, self.n, self.p
        start = unbounded_multiplicity(fam)
        if start is not None and n >= start:
            return SurplusSup(INFINITE, None, _unbounded_reason(fam, n))
        # growing block i holds at least i identifiers: those below n are among the first n
        k = _blocks_below(tail, n, n) if isinstance(tail, DisjointBlocks) else 0
        return SurplusSup(self.surplus(p + k), p + k, None)

    def reach(self, target: int, sup: SurplusSup) -> int:
        """The smallest window t with S(t) >= target, by one bisection of S.

        sup is this profile's sup(), which the caller holds.  Past the
        prefix each tail block adds at least 1 until the target is reached,
        and SC >= -|C|, so window p + target + |C| reaches it.  The empty
        window 0 has surplus 0, so it reaches any target <= 0.
        """
        if target <= 0:
            return 0
        if not isinstance(sup.value, Infinite) and target > sup.value:
            raise ValueError(f"no window reaches surplus {target}: the supremum is {sup.value}")
        p, tail = self.p, self.fam.tail
        if target <= self.surplus(p):
            lo, hi = 1, p
        else:
            lo, hi = p + 1, p + target + (len(tail.members) if isinstance(tail, Constant) else 0)
        return bisect_left(range(hi), target, lo=lo, key=self.surplus)

    def witness(self, t: int) -> tuple[int, ...]:
        """The minimal witness of S(t), as max_surplus gives it; past the prefix, from counts."""
        tail, p = self.fam.tail, self.p
        if t <= p or not isinstance(tail, DisjointBlocks):
            return self._match(t).witness_F
        below = _blocks_below(tail, self.n, t - p)
        return self._match(p).witness_F + tuple(range(p + 1, p + 1 + below))

    def report(self, t: int) -> SurplusReport:
        """max_surplus(window(fam, t), n), field for field.

        Past the prefix of a block tail the kept prefix report is extended
        by witness(t), and block i's copy c <= min(n, size(i)) sits at
        expanded position (p+i-1)*n + c matched to the block's c-th smallest
        identifier, as max_surplus numbers it.
        """
        tail, p, n = self.fam.tail, self.p, self.n
        if t <= p or not isinstance(tail, DisjointBlocks):
            return self._match(t)
        witness = self.witness(t)  # first: past ssize_t it raises, where the matching runs on
        rep, blocks = self._match(p), range(1, t - p + 1)
        matching = rep.matching + tuple(
            ((p + i - 1) * n + c, tail.first(i) + tail.stride * (c - 1))
            for i in blocks
            for c in range(1, min(n, tail.size(i)) + 1)
        )
        return SurplusReport(self.surplus(t), witness, matching)


def surplus_sup(fam: ProjectionFamily, n: int) -> SurplusSup:
    """Supremum over all finite position subsets of n|F| - |union of F|."""
    return SurplusProfile(fam, n).sup()


def surplus_window_bound(fam: ProjectionFamily, n: int, target: int) -> int:
    """The smallest window whose surplus at multiplicity n reaches target; ValueError if none does."""
    profile = SurplusProfile(fam, n)
    return profile.reach(target, profile.sup())


def decide_trivial_minorization(fam: ProjectionFamily, m: int, n: int) -> MinorizationDecision:
    """Decide whether m trivial rank-one summands embed under n copies of Q.

    One profile answers the supremum, the window and the certificate: the
    surplus report of the supremum's window when the answer is no, of the
    smallest reaching window when it is yes.
    """
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be >= 1, got m={m}, n={n}")
    profile = SurplusProfile(fam, n)
    sup = profile.sup()
    if not isinstance(sup.value, Infinite) and sup.value < m:
        return MinorizationDecision(False, m, n, sup, sup.window, profile.report(sup.window))
    t = profile.reach(m, sup)
    rep = profile.report(t)
    if rep.max_surplus < m:
        raise AssertionError("certified surplus not reached")
    return MinorizationDecision(True, m, n, sup, t, rep)
