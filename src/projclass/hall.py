"""Exact bipartite matching engine for transversal and surplus questions.

The primitives are maximum bipartite matching (Hopcroft-Karp) between
family positions and ground identifiers, and augment, one depth-first
alternating-path search (Kuhn).  Hopcroft-Karp builds every matching this
module reports, because repeated Kuhn searches are quadratic on long chains.
augment re-checks each of those matchings for maximality, and grows the
one-position-at-a-time matchings of the oracle walk and the orbit layers.
Around them sit the deciders used everywhere else:

  * sdr_exists: does the family admit a system of distinct representatives;
  * max_surplus: the maximum of n|F| - |union of F| over position subsets F,
    with a canonical witness.  The maximum is never searched subset by
    subset: by the deficiency form of Koenig's theorem it equals
    (positions) - (maximum matching) on the n-fold expanded family, and the
    unique inclusion-minimal witness is the set of positions reachable from
    unmatched ones along alternating paths.  The augment sweep that confirms
    every matching maximal before it is returned finds that set too;
  * SurplusProfile: the window surplus S(t) of one family at one n, with its
    supremum, its smallest reaching window and its certificates.  Past the
    prefix S is arithmetic, and no window is matched twice.  window_surplus,
    surplus_sup and surplus_window_bound each read one profile;
  * decide_trivial_minorization: do m trivial rank-one summands embed under
    n copies of the family's projection, which holds exactly when some finite
    window reaches surplus m at multiplicity n.

All computations are exact; every answer carries a finite witness and every
matching is re-checked for maximality before being reported.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Callable, Iterable, NamedTuple

from .errors import UndecidableFamilyError
from .family import (
    Constant,
    DisjointBlocks,
    FiniteFamily,
    ProjectionFamily,
    expand_multiplicity,
    window,
)


class Infinite:
    """Sentinel for an unbounded surplus supremum."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

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


def max_matching(g: BipartiteIncidence) -> tuple[int, dict[int, int], frozenset[int]]:
    """Maximum matching size, one maximum matching (position -> element) and its reach.

    Hopcroft-Karp with breadth-first phase layering and an iterative
    depth-first augmentation, so path length is not bounded by the
    interpreter's recursion limit.  The distance map is keyed by left
    vertices plus a None sentinel standing for "reached a free element".
    Before returning, maximality is re-verified: augment, from every
    unmatched position with one shared seen set, must reach no free element.
    The positions that sweep reached, the unmatched ones and the owners of
    the elements it saw, are returned too.  They attain the maximum
    deficiency |F| - |N(F)| and lie inside every other maximiser, so they
    are the canonical inclusion-minimal witness.
    """
    positions, adj = g
    inf = float("inf")
    pair_pos: dict[int, int] = {}
    pair_elem: dict[int, int] = {}
    dist: dict[int | None, float] = {}

    def bfs() -> bool:
        queue: deque[int] = deque()
        for p in positions:
            if p not in pair_pos:
                dist[p] = 0
                queue.append(p)
            else:
                dist[p] = inf
        dist[None] = inf
        while queue:
            p = queue.popleft()
            if dist[p] < dist[None]:
                for e in adj[p]:
                    q = pair_elem.get(e)
                    if dist[q] == inf:
                        dist[q] = dist[p] + 1
                        if q is not None:
                            queue.append(q)
        return dist[None] != inf

    def dfs(root: int) -> bool:
        # depth-first along the layering with an explicit stack: path[k] is
        # joined to path[k + 1] through via[k], and each frame resumes its
        # own adjacency where it left off, in the order recursion would
        path = [root]
        via: list[int] = []
        edges = [iter(adj[root])]
        while path:
            p = path[-1]
            for e in edges[-1]:
                q = pair_elem.get(e)
                if dist[q] == dist[p] + 1:
                    via.append(e)
                    if q is None:
                        for node, elem in zip(path, via):
                            pair_pos[node] = elem
                            pair_elem[elem] = node
                        return True
                    path.append(q)
                    edges.append(iter(adj[q]))
                    break
            else:
                dist[p] = inf
                path.pop()
                edges.pop()
                if via:
                    via.pop()
        return False

    while bfs():
        for p in positions:
            if p not in pair_pos:
                dfs(p)

    unmatched = [p for p in positions if p not in pair_pos]
    seen: set[int] = set()
    if any(augment(p, adj.__getitem__, pair_elem, seen) for p in unmatched):
        raise AssertionError("matching reported as maximum but an augmenting path remains")
    return len(pair_pos), pair_pos, frozenset(unmatched).union(pair_elem[e] for e in seen)


def augment(
    root: int, neighbours: Callable[[int], Iterable[int]], owner: dict[int, int], seen: set[int]
) -> bool:
    """Match root along an alternating path to a free element, if one exists (Kuhn).

    neighbours(p) gives position p's elements in the order to try them, and
    owner maps each matched element to its position; on success owner is
    updated along the path.  Depth first with an explicit stack: path[k]
    reaches path[k + 1] through via[k].  An element in seen is never tried,
    and every element tried joins seen, so the search cannot cycle, and a
    seen shared by several failed calls holds every element they reached.
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
    position (p-1)*n + c.
    """

    n: int
    positions: int
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

    Computed through the deficiency identity on the n-fold expansion, never by
    subset enumeration.  The witness collapses the expansion back to original
    positions; copies of one position always travel together because they
    share a neighborhood.
    """
    if n < 1:
        raise ValueError(f"multiplicity must be >= 1, got {n}")
    expanded = expand_multiplicity(fam, n) if n > 1 else fam
    g = BipartiteIncidence.from_family(expanded)
    size, pair_pos, reached = max_matching(g)
    witness = sorted({(p - 1) // n + 1 for p in reached})
    return SurplusReport(
        n=n,
        positions=len(fam.sets),
        max_surplus=len(expanded.sets) - size,
        witness_F=tuple(witness),
        matching=tuple(sorted(pair_pos.items())),
    )


class MinorizationDecision(NamedTuple):
    """Outcome and certificate of a trivial-minorization query.

    For a positive answer, `window` is the smallest window length whose
    surplus at multiplicity n reaches m and `certificate` is that window's
    surplus report.  For a negative answer the certificate carries the
    supremum witness.  `surplus_sup` is the supremum over all finite windows,
    INFINITE when unbounded.
    """

    decision: bool
    m: int
    n: int
    surplus_sup: int | Infinite
    window: int
    certificate: SurplusReport
    unbounded_reason: str | None = None

    def to_doc(self) -> dict:
        doc = {
            "decision": self.decision,
            "m": self.m,
            "n": self.n,
            "surplus_sup": "infinite" if isinstance(self.surplus_sup, Infinite) else self.surplus_sup,
            "window": self.window,
        }
        doc.update(self.certificate.to_doc())
        if self.unbounded_reason:
            doc["unbounded_reason"] = self.unbounded_reason
        return doc


def _block_gain(tail: DisjointBlocks, n: int, k: int) -> int:
    """Surplus the first k tail blocks add: an arithmetic series of n - size(i) > 0."""
    if tail.a:
        k = min(k, max(0, (n - 1 - tail.b) // tail.a))
    elif tail.b >= n:
        return 0
    return k * (n - tail.b) - tail.a * k * (k + 1) // 2


class SurplusSup(NamedTuple):
    """Outcome of the surplus supremum at one multiplicity.

    Finite case: `window` attains the value and `witness_F` lists an
    attaining subset's positions; no matching is built.  Unbounded case:
    `reason` states which tail shape forces growth.
    """

    n: int
    value: int | Infinite
    window: int | None
    witness_F: tuple[int, ...] | None
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
    if isinstance(tail, DisjointBlocks):
        return tail.b + 1 if tail.a == 0 else None
    raise UndecidableFamilyError("undecidable family shape")


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
        s0 = self._match(p).max_surplus
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
            return SurplusSup(n, INFINITE, None, None, _unbounded_reason(fam, n))
        k = max(0, (n - 1 - tail.b) // tail.a) if isinstance(tail, DisjointBlocks) and tail.a else 0
        witness = self._match(p).witness_F + tuple(range(p + 1, p + k + 1))
        return SurplusSup(n, self.surplus(p + k), p + k, witness, None)

    def reach(self, target: int) -> int:
        """The smallest window t with S(t) >= target, by one bisection of S.

        Past the prefix each tail block adds at least 1 until the target is
        reached, and SC >= -|C|, so window p + target + |C| reaches it.
        The empty window 0 has surplus 0, so it reaches any target <= 0.
        """
        if target <= 0:
            return 0
        sup = self.sup().value
        if not isinstance(sup, Infinite) and target > sup:
            raise ValueError(f"no window reaches surplus {target}: the supremum is {sup}")
        p, tail = self.p, self.fam.tail
        if target <= self.surplus(p):
            lo, hi = 1, p
        else:
            lo, hi = p + 1, p + target + (len(tail.members) if isinstance(tail, Constant) else 0)
        return bisect_left(range(hi), target, lo=lo, key=self.surplus)

    def report(self, t: int) -> SurplusReport:
        """max_surplus(window(fam, t), n), field for field.

        Past the prefix of a block tail the kept prefix report is extended:
        block i joins the witness exactly when size(i) < n, and its copy
        c <= min(n, size(i)) sits at expanded position (p+i-1)*n + c matched
        to the block's c-th smallest identifier, as Hopcroft-Karp picks it.
        """
        tail, p, n = self.fam.tail, self.p, self.n
        if t <= p or not isinstance(tail, DisjointBlocks):
            return self._match(t)
        rep, blocks = self._match(p), range(1, t - p + 1)
        witness = rep.witness_F + tuple(p + i for i in blocks if tail.size(i) < n)
        matching = rep.matching + tuple(
            ((p + i - 1) * n + c, tail.first(i) + tail.stride * (c - 1))
            for i in blocks
            for c in range(1, min(n, tail.size(i)) + 1)
        )
        return SurplusReport(n, t, self.surplus(t), witness, matching)


def window_surplus(fam: ProjectionFamily, t: int, n: int) -> SurplusReport:
    """max_surplus(window(fam, t), n), without the tail expansion."""
    return SurplusProfile(fam, n).report(t)


def surplus_sup(fam: ProjectionFamily, n: int) -> SurplusSup:
    """Supremum over all finite position subsets of n|F| - |union of F|."""
    return SurplusProfile(fam, n).sup()


def surplus_window_bound(fam: ProjectionFamily, n: int, target: int) -> int:
    """The smallest window whose surplus at multiplicity n reaches target; ValueError if none does."""
    return SurplusProfile(fam, n).reach(target)


def decide_trivial_minorization(
    fam: ProjectionFamily | FiniteFamily, m: int, n: int
) -> MinorizationDecision:
    """Decide whether m trivial rank-one summands embed under n copies of Q.

    One profile answers the supremum, the window and the certificate: the
    surplus report of the supremum's window when the answer is no, of the
    smallest reaching window when it is yes.
    """
    if isinstance(fam, FiniteFamily):
        fam = ProjectionFamily(fam.sets)
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be >= 1, got m={m}, n={n}")
    profile = SurplusProfile(fam, n)
    sup = profile.sup()
    if not isinstance(sup.value, Infinite) and sup.value < m:
        return MinorizationDecision(False, m, n, sup.value, sup.window, profile.report(sup.window))
    t = profile.reach(m)
    rep = profile.report(t)
    if rep.max_surplus < m:
        raise AssertionError("certified surplus not reached")
    return MinorizationDecision(True, m, n, sup.value, t, rep, sup.reason)
