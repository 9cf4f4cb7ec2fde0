"""Index-set dynamics certifying stable finiteness.

A summand-permuting endomorphism acts on an index set J through alpha_j:
push every term of J through the injective pairing nu(j, .), adjoin a pool of
k fresh atoms shared by the whole j-layer, and for j >= 1 adjoin j marker
terms.  Iterating over all j in a window [-w, w] yields the orbit families
Gamma_m; entry counts grow as (2w+1)^m per source.  They are built layer by
layer, Gamma_m = union over j of alpha_j(Gamma_{m-1}), so alpha runs once per
entry of every layer instead of once per step of every path.

The simulator builds, for every depth m >= 1, an injective transversal of
Gamma_m (one member per entry's set, all members distinct).  That is the
Hall-type certificate that no endomorphism image of the original projection
picks up a trivial rank-one subprojection, which is what stable finiteness
needs from the combinatorics.  A transversal of the depth-1 layer is found by
matching, with the pool atoms reserved for the tight positions F0; higher
depths lift it through t(alpha_j(I)) = nu(j, t(I)), one wrap per layer.

Terms are hash-consed into positive integer ids by a TermTable, which one
gamma_iterate call creates and its GammaFamily holds.  A term is a node
("base", i), ("batom", j, r) or ("nu", j, child id), and each distinct node
gets exactly one id, so nu stays injective (nu(j, a) = nu(j', b) only when
j = j' and a = b) and never meets a base or pool atom: coding collisions are
impossible, as with free terms, yet hashing or comparing a term costs the
same at every nesting depth.  Terms become nested wire lists only in
term_to_doc, which unwinds nu chains with a loop.  The simulate() pipeline
first relabels the family onto odd identifiers; even identifiers are
reserved for markers.  gamma_iterate itself embeds the family it is given
verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

from .classify import find_tight_set
from .errors import HallViolationError, WindowTooLargeError
from .family import FiniteFamily, ProjectionFamily, reindex_to_odd, window
from .hall import sdr_exists

DEFAULT_ENTRY_CAP = 10_000


class TermTable:
    """Hash-consing table: one positive id per distinct term node.

    ids maps a node to its id and nodes maps an id back to its node (slot 0
    is unused, so every id is positive).  Interning is one dict lookup, plus
    an append the first time a node is seen.
    """

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}
        self.nodes: list[tuple] = [()]

    def _add(self, node: tuple) -> int:
        tid = self.ids[node] = len(self.nodes)
        self.nodes.append(node)
        return tid

    def base(self, i: int) -> int:
        """An original ground identifier, embedded as a term."""
        node = ("base", i)
        return self.ids.get(node) or self._add(node)

    def batom(self, j: int, r: int) -> int:
        """The r-th fresh pool atom of layer j."""
        node = ("batom", j, r)
        return self.ids.get(node) or self._add(node)

    def nu(self, j: int, child: int) -> int:
        """The injective pairing nu(j, child)."""
        node = ("nu", j, child)
        return self.ids.get(node) or self._add(node)


def term_to_doc(table: TermTable, term: int) -> list:
    """Wire form: ["base", i], ["batom", j, r], or ["nu", j, inner], built without recursion."""
    nodes = table.nodes
    wraps = []
    node = nodes[term]
    while node[0] == "nu":
        wraps.append(node[1])
        node = nodes[node[2]]
    doc = list(node)
    for j in reversed(wraps):
        doc = ["nu", j, doc]
    return doc


def _marker(table: TermTable, l: int) -> int:
    # markers live on the even identifiers, which the odd reindexing reserves
    return table.base(2 * l)


def alpha(table: TermTable, j: int, terms: frozenset[int], k: int) -> frozenset[int]:
    """One dynamics step on a set of term ids.

    nu-image of the set, plus the k pool atoms of layer j, plus markers
    nu(j, even 1..j) when j >= 1; no markers for j <= 0.
    """
    if k < 0:
        raise ValueError(f"pool size k must be >= 0, got {k}")
    nu = table.nu
    image = {nu(j, t) for t in terms}
    image.update(table.batom(j, r) for r in range(1, k + 1))
    image.update(nu(j, _marker(table, l)) for l in range(1, j + 1))
    return frozenset(image)


class GammaEntry(NamedTuple):
    """One orbit set: the path of alpha layers applied (outermost first) and its source."""

    path: tuple[int, ...]
    source: int
    terms: frozenset[int]


@dataclass(frozen=True)
class GammaFamily:
    """The full orbit family at one depth over a window of layers, with its term table."""

    depth: int
    window: int
    sources: int
    pool: int
    entries: tuple[GammaEntry, ...]
    table: TermTable = field(repr=False, compare=False)


def gamma_iterate(
    fam: ProjectionFamily,
    prefix_len: int,
    window_w: int,
    depth: int,
    k: int,
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> GammaFamily:
    """Materialize the orbit family of the first prefix_len sets at the given depth.

    Entries come in path order (layers -w..w, lexicographic over the path,
    sources innermost), (2w+1)^depth * prefix_len of them; exceeding the
    entry cap raises before any work is done.  Each layer prepends j to the
    paths of the previous one and applies alpha_j to its sets, with j in the
    outer loop, which keeps that order.  The terms are interned in a fresh
    TermTable, so nothing is shared between calls.
    """
    if depth < 0 or window_w < 0 or prefix_len < 0:
        raise ValueError("depth, window and prefix length must be >= 0")
    count = (2 * window_w + 1) ** depth * prefix_len
    if count > entry_cap:
        raise WindowTooLargeError(
            f"window too large: {count} entries exceed the cap of {entry_cap}"
        )
    table = TermTable()
    base = window(fam, prefix_len)
    entries = [
        GammaEntry((), s, frozenset(map(table.base, members)))
        for s, members in enumerate(base.sets, 1)
    ]
    for _ in range(depth):
        entries = [
            GammaEntry((j,) + e.path, e.source, alpha(table, j, e.terms, k))
            for j in range(-window_w, window_w + 1)
            for e in entries
        ]
    return GammaFamily(depth, window_w, prefix_len, k, tuple(entries), table)


@dataclass
class Transversal:
    """An injective choice of one term id per orbit entry, keyed by (path, source)."""

    depth: int
    table: TermTable
    assignment: dict[tuple[tuple[int, ...], int], int] = field(default_factory=dict)

    def to_doc(self) -> list[dict]:
        return [
            {"path": list(path), "source": source, "term": term_to_doc(self.table, term)}
            for (path, source), term in sorted(
                self.assignment.items(), key=lambda kv: (kv[0][0], kv[0][1])
            )
        ]


def _ordered_matching(candidates: list[Callable[[], Iterable[int]]]) -> list[int] | None:
    """Deterministic perfect matching honoring candidate order.

    candidates[s]() yields source s's candidates in preference order; it is
    called afresh whenever s is visited, so the lists can be built lazily
    and only as far as they are read.  First pass hands every source its
    first still-free candidate; stuck sources then augment along alternating
    paths, again in candidate order.  Returns None when no perfect matching
    exists.
    """
    owner: dict[int, int] = {}
    choice: list[int | None] = [None] * len(candidates)
    pending = []
    for s, stream in enumerate(candidates):
        free = next((t for t in stream() if t not in owner), None)
        if free is None:
            pending.append(s)
        else:
            owner[free] = s
            choice[s] = free

    def augment(root: int) -> bool:
        # depth-first with an explicit stack: path[k] takes via[k] from
        # path[k + 1], and each frame resumes its own candidate stream
        banned: set[int] = set()
        path = [root]
        via: list[int] = []
        options = [iter(candidates[root]())]
        while path:
            for t in options[-1]:
                if t in banned:
                    continue
                banned.add(t)
                via.append(t)
                holder = owner.get(t)
                if holder is None:
                    for source, term in zip(path, via):
                        owner[term] = source
                        choice[source] = term
                    return True
                path.append(holder)
                options.append(iter(candidates[holder]()))
                break
            else:
                path.pop()
                options.pop()
                if via:
                    via.pop()
        return False

    for s in pending:
        if not augment(s):
            return None
    return choice


def _depth1_candidates(
    table: TermTable, members: frozenset[int], j: int, k: int, pooled: bool
) -> Iterator[int]:
    """Candidate term ids for one source in layer j, preference-ordered.

    Own nu-elements first, then the shared markers, and the pool atoms last
    and only for tight positions: the pool is exactly large enough to absorb
    the tight set's deficiency, so nobody else may touch it.  Each id is
    interned when it is read, so a source that takes its first candidate
    builds only that one.
    """
    for i in sorted(members):
        yield table.nu(j, table.base(i))
    for l in range(1, j + 1):
        yield table.nu(j, _marker(table, l))
    if pooled:
        for r in range(1, k + 1):
            yield table.batom(j, r)


def build_transversal(
    gamma: GammaFamily, fam: ProjectionFamily, k: int, tight_positions
) -> Transversal:
    """Construct an injective transversal of the orbit family.

    Depth 0 is the identity layer: a transversal is exactly a system of
    distinct representatives of the original window, so it exists iff the
    window satisfies Hall's condition.  For depth >= 1, each layer j gets its
    own matching with the pool atoms reserved for the tight positions; higher
    depths wrap the depth-1 choice in nu, one layer per path step, which
    keeps distinct paths disjoint because nu is injective.
    """
    table = gamma.table
    base = window(fam, gamma.sources)
    tight = frozenset(tight_positions)
    trans = Transversal(gamma.depth, table)

    if gamma.depth == 0:
        candidates = [
            partial(iter, [table.base(i) for i in sorted(members)]) for members in base.sets
        ]
        choice = _ordered_matching(candidates)
        if choice is None:
            raise HallViolationError(
                "Hall violation: the identity layer has no distinct-representative system"
            )
        for s, term in enumerate(choice, 1):
            trans.assignment[((), s)] = term
        return trans

    depth1: dict[tuple[int, int], int] = {}
    for j in range(-gamma.window, gamma.window + 1):
        candidates = [
            partial(_depth1_candidates, table, members, j, k, s in tight)
            for s, members in enumerate(base.sets, 1)
        ]
        choice = _ordered_matching(candidates)
        if choice is None:
            raise HallViolationError("Hall violation: premises inconsistent")
        for s, term in enumerate(choice, 1):
            depth1[(j, s)] = term

    nu = table.nu
    for entry in gamma.entries:
        term = depth1[(entry.path[-1], entry.source)]
        for j in reversed(entry.path[:-1]):
            term = nu(j, term)
        trans.assignment[(entry.path, entry.source)] = term
    return trans


def verify_transversal(gamma: GammaFamily, trans: Transversal) -> bool:
    """Membership and injectivity check, independent of how the transversal was built.

    Term ids only mean something inside one table, so a transversal over
    another table than Gamma's is rejected outright.
    """
    if trans.table is not gamma.table or len(trans.assignment) != len(gamma.entries):
        return False
    seen: set[int] = set()
    for entry in gamma.entries:
        term = trans.assignment.get((entry.path, entry.source))
        if term is None or term not in entry.terms or term in seen:
            return False
        seen.add(term)
    return True


def hall_check_gamma(gamma: GammaFamily) -> bool:
    """Independent confirmation that the orbit family satisfies Hall's condition.

    The term ids are positive integers already, so Gamma's sets go to the
    matching engine as they are; this check shares no code path with
    build_transversal.
    """
    return sdr_exists(FiniteFamily(tuple(e.terms for e in gamma.entries)))


@dataclass
class SimulationReport:
    """Everything one simulator run produced, certificates included."""

    entries: int
    transversal_ok: bool
    hall_ok: bool
    k: int
    tight_positions: tuple[int, ...]
    gamma: GammaFamily
    transversal: Transversal

    def to_doc(self) -> dict:
        return {
            "entries": self.entries,
            "transversal_ok": self.transversal_ok,
            "hall_ok": self.hall_ok,
            "k": self.k,
            "F0": list(self.tight_positions),
        }


def simulate(
    fam: ProjectionFamily,
    depth: int,
    window_w: int,
    prefix_len: int,
    k: int | None = None,
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> SimulationReport:
    """Run the whole pipeline on one family.

    The family is first relabelled onto odd identifiers so the even marker
    identifiers are fresh; k and the tight set are computed from the family
    unless k is supplied, in which case it must agree with the computed one.
    """
    odd = reindex_to_odd(fam)
    tight = find_tight_set(odd)
    if k is not None and k != tight.k:
        raise ValueError(f"supplied k={k} disagrees with the computed k={tight.k}")
    gamma = gamma_iterate(odd, prefix_len, window_w, depth, tight.k, entry_cap)
    trans = build_transversal(gamma, odd, tight.k, tight.positions)
    return SimulationReport(
        entries=len(gamma.entries),
        transversal_ok=verify_transversal(gamma, trans),
        hall_ok=hall_check_gamma(gamma),
        k=tight.k,
        tight_positions=tight.positions,
        gamma=gamma,
        transversal=trans,
    )
