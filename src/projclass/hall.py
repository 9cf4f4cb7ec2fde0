"""Exact bipartite matching engine for transversal and surplus questions.

The single primitive is maximum bipartite matching (Hopcroft-Karp) between
family positions and ground identifiers.  Around it sit the deciders used
everywhere else:

  * sdr_exists: does the family admit a system of distinct representatives;
  * max_surplus: the maximum of n|F| - |union of F| over position subsets F,
    with a canonical witness.  The maximum is never searched subset by
    subset: by the deficiency form of Koenig's theorem it equals
    (positions) - (maximum matching) on the n-fold expanded family, and the
    unique inclusion-minimal witness is the set of positions reachable from
    unmatched ones along alternating paths.  The same sweep, run on every
    matching before it is returned, confirms that no augmenting path remains;
  * window_surplus: max_surplus of a window of a symbolic family.  Disjoint
    block tails touch nothing else, so only the explicit prefix is matched;
    each tail block adds n - size(i) when positive, and its part of the
    certificate is written down directly;
  * surplus_sup: the supremum of the window surpluses, attained inside a
    cutoff window read off the tail shape, or unbounded;
  * decide_trivial_minorization: do m trivial rank-one summands embed under
    n copies of the family's projection, which holds exactly when some finite
    window reaches surplus m at multiplicity n.  The window surplus never
    decreases as the window grows, so the smallest reaching window is found
    by bisection over window_surplus.

All computations are exact; every positive answer carries a finite witness
and every matching is re-checked for maximality before being reported.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import NamedTuple

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


def max_matching(g: BipartiteIncidence) -> tuple[int, dict[int, int]]:
    """Maximum matching size plus one maximum matching, position -> element.

    Hopcroft-Karp with breadth-first phase layering and an iterative
    depth-first augmentation, so path length is not bounded by the
    interpreter's recursion limit.  The distance map is keyed by left
    vertices plus a None sentinel standing for "reached a free element".
    Before returning, maximality is re-verified by one alternating sweep
    from the unmatched positions: it must reach no free element.
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

    if _alternating_reach(g, pair_pos, pair_elem)[1]:
        raise AssertionError("matching reported as maximum but an augmenting path remains")
    return len(pair_pos), dict(pair_pos)


def _alternating_reach(g, pair_pos, pair_elem) -> tuple[frozenset[int], bool]:
    """Positions reachable from unmatched ones along alternating paths.

    The flag tells whether such a path reaches a free element, that is,
    whether the matching still has an augmenting path.  When it does not,
    the matching is maximum and the reached set attains the maximum
    deficiency |F| - |N(F)| and is contained in every other maximiser, so it
    is the unique inclusion-minimal witness.
    """
    positions, adj = g
    reached = {p for p in positions if p not in pair_pos}
    queue = deque(reached)
    seen_elem = set()
    free = False
    while queue:
        p = queue.popleft()
        for e in adj[p]:
            if e in seen_elem:
                continue
            seen_elem.add(e)
            q = pair_elem.get(e)
            if q is None:
                free = True
            elif q not in reached:
                reached.add(q)
                queue.append(q)
    return frozenset(reached), free


def sdr_exists(fam: FiniteFamily) -> bool:
    """True iff the family has a system of distinct representatives."""
    size, _ = max_matching(BipartiteIncidence.from_family(fam))
    return size == len(fam.sets)


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
    size, pair_pos = max_matching(g)
    pair_elem = {e: p for p, e in pair_pos.items()}
    reached, _ = _alternating_reach(g, pair_pos, pair_elem)
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


def window_surplus(fam: ProjectionFamily, t: int, n: int) -> SurplusReport:
    """max_surplus(window(fam, t), n), field for field, without the tail expansion.

    Past the prefix of a disjoint-block family every tail block is disjoint
    from all other sets, so the n-fold expansion splits into the expanded
    prefix plus one complete bipartite piece per block.  Only the prefix is
    matched; block i then adds max(0, n - size(i)) to the surplus, joins the
    witness exactly when size(i) < n, and its copy c (c <= min(n, size(i)))
    sits at expanded position (p+i-1)*n + c matched to the c-th smallest
    identifier of the block, which is what Hopcroft-Karp picks there.
    Other windows go through the matching engine whole.
    """
    tail = fam.tail
    p = len(fam.prefix)
    if t <= p or not isinstance(tail, DisjointBlocks):
        return max_surplus(window(fam, t), n)
    rep = max_surplus(window(fam, p), n)
    surplus = rep.max_surplus
    witness = list(rep.witness_F)
    matching = list(rep.matching)
    for i in range(1, t - p + 1):
        size = tail.size(i)
        if size < n:
            surplus += n - size
            witness.append(p + i)
        base = (p + i - 1) * n
        first = tail.first(i)
        matching.extend(
            (base + c, first + tail.stride * (c - 1)) for c in range(1, min(n, size) + 1)
        )
    return SurplusReport(n, t, surplus, tuple(witness), tuple(matching))


class SurplusSup(NamedTuple):
    """Outcome of the surplus supremum search at one multiplicity.

    Finite case: `window` is a prefix length whose window attains the value
    and `report` the certificate on that window.  Unbounded case: `reason`
    states which tail shape forces growth.
    """

    n: int
    value: int | Infinite
    window: int | None
    report: SurplusReport | None
    reason: str | None


def _cutoff_window(fam: ProjectionFamily, n: int) -> int | None:
    """Window length inside which the surplus supremum is attained; None if unbounded.

    Valid because tail blocks are disjoint from all other sets: dropping a
    tail position with size(i) > n can only raise the surplus, dropping one
    with size(i) == n keeps it, so some maximiser lives among the prefix plus
    the tail positions with size(i) < n.
    """
    tail = fam.tail
    prefix_len = len(fam.prefix)
    if tail is None:
        return prefix_len
    if isinstance(tail, Constant):
        return None
    if isinstance(tail, DisjointBlocks):
        if tail.a == 0:
            return prefix_len if tail.b >= n else None
        return prefix_len + max(0, (n - 1 - tail.b) // tail.a)
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


def surplus_sup(fam: ProjectionFamily, n: int) -> SurplusSup:
    """Supremum over all finite position subsets of n|F| - |union of F|."""
    if n < 1:
        raise ValueError(f"multiplicity must be >= 1, got {n}")
    cutoff = _cutoff_window(fam, n)
    if cutoff is None:
        return SurplusSup(n, INFINITE, None, None, _unbounded_reason(fam, n))
    rep = window_surplus(fam, cutoff, n)
    return SurplusSup(n, rep.max_surplus, cutoff, rep, None)


def surplus_window_bound(fam: ProjectionFamily, n: int, target: int) -> int:
    """Upper bound on the smallest window whose surplus at n reaches target.

    Only meaningful when the target is reachable, i.e. the supremum is at
    least the target; the unbounded shapes get an all-tail-positions bound.
    """
    cutoff = _cutoff_window(fam, n)
    if cutoff is not None:
        return cutoff
    prefix_len = len(fam.prefix)
    tail = fam.tail
    if isinstance(tail, Constant):
        return prefix_len + (target + len(tail.members) + n - 1) // n
    gain = n - tail.b
    return prefix_len + (target + gain - 1) // gain


def _first_reaching_report(fam: ProjectionFamily, n: int, target: int) -> SurplusReport:
    """Report of the smallest window whose surplus at n reaches a reachable target.

    A longer window keeps every subset of a shorter one, so the window
    surplus never decreases with t and the first reaching window is found by
    bisection over [1, surplus_window_bound]; each probe is one window_surplus.
    """
    last = surplus_window_bound(fam, n, target)
    t = bisect_left(
        range(last + 1), target, lo=1, key=lambda w: window_surplus(fam, w, n).max_surplus
    )
    if t > last:
        raise AssertionError("certified surplus not reached within its window bound")
    return window_surplus(fam, t, n)


def decide_trivial_minorization(
    fam: ProjectionFamily | FiniteFamily, m: int, n: int
) -> MinorizationDecision:
    """Decide whether m trivial rank-one summands embed under n copies of Q.

    Symbolic tails are handled through the closed-form surplus supremum; the
    positive certificate is the smallest window reaching m, found by
    bisection over the monotone window surplus up to surplus_window_bound.
    """
    if isinstance(fam, FiniteFamily):
        fam = ProjectionFamily(fam.sets)
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be >= 1, got m={m}, n={n}")
    sup = surplus_sup(fam, n)
    if not isinstance(sup.value, Infinite) and sup.value < m:
        return MinorizationDecision(False, m, n, sup.value, sup.window, sup.report)
    rep = _first_reaching_report(fam, n, m)
    return MinorizationDecision(True, m, n, sup.value, rep.positions, rep, sup.reason)
