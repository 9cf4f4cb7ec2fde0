"""Index-set dynamics certifying stable finiteness.

A summand-permuting endomorphism acts on an index set J through alpha_j:
push every term of J through the injective pairing nu(j, .), adjoin a pool of
k fresh atoms shared by the whole j-layer, and for j >= 1 adjoin j marker
terms.  Iterating over all j in a window [-w, w] yields the orbit families
Gamma_m; entry counts grow as (2w+1)^m per source.

The simulator certifies, for every depth m, an injective transversal of
Gamma_m (one member per entry's set, all members distinct).  That is the
Hall-type certificate that no endomorphism image of the original projection
picks up a trivial rank-one subprojection, which is what stable finiteness
needs from the combinatorics.  None of it builds Gamma's sets:
build_transversal matches the depth-1 layer, with the pool atoms reserved for
the tight positions F0, and lifts the choice one layer at a time,
t(alpha_j(I)) = nu(j, t(I)); verify_transversal reads membership in alpha's
image off each term, layer by layer.  An injective transversal is a system
of distinct representatives, so it satisfies Hall's condition (Hall 1935):
hall_ok is verify_transversal's answer, and no orbit window is matched.
gamma_iterate and hall_check_gamma materialize Gamma and match it, as the
tests' reference.

Terms are hash-consed into positive integer ids by a TermTable, which one
build_transversal or gamma_iterate call creates.  A term is a node
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

import itertools
from typing import Callable, Iterable, NamedTuple

from .classify import TightSet, find_tight_set
from .errors import HallViolationError, WindowTooLargeError
from .family import FiniteFamily, ProjectionFamily, reindex_to_odd, window
from .hall import augment, sdr_exists

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
    # markers live on the even identifiers, which the odd reindexing reserves
    image.update(nu(j, table.base(2 * l)) for l in range(1, j + 1))
    return frozenset(image)


class GammaEntry(NamedTuple):
    """One orbit set: the path of alpha layers applied (outermost first) and its source."""

    path: tuple[int, ...]
    source: int
    terms: frozenset[int]


class GammaFamily(NamedTuple):
    """The full orbit family at one depth over a window of layers, with its term table."""

    entries: tuple[GammaEntry, ...]
    table: TermTable


def entry_count(depth: int, window_w: int, prefix_len: int, entry_cap: int) -> int:
    """The number of orbit entries, (2w+1)^depth * prefix_len, refused past the cap.

    A cap of b bits is below 2^b, and a nonzero count with a factor of 3 or
    more passes 2^b within b layers, so the exponent stops at b: the count is
    exact under the cap, and a refusal never forms a number much larger than
    the cap.
    """
    if depth < 0 or window_w < 0 or prefix_len < 0:
        raise ValueError("depth, window and prefix length must be >= 0")
    factor = 2 * window_w + 1
    count = prefix_len * factor ** min(depth, entry_cap.bit_length())
    if count > entry_cap:
        raise WindowTooLargeError(
            f"window too large: {factor}^{depth} * {prefix_len} entries "
            f"exceed the cap of {entry_cap}"
        )
    return count


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
    entry_count(depth, window_w, prefix_len, entry_cap)
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
    return GammaFamily(tuple(entries), table)


class Transversal(NamedTuple):
    """An injective choice of one term id per orbit entry, keyed by (path, source).

    build_transversal inserts the keys in Gamma's path order, paths in
    lexicographic order and sources innermost, so to_doc prints them as
    they come.  The depth is the length of the keys' paths.
    """

    table: TermTable
    assignment: dict[tuple[tuple[int, ...], int], int]

    def to_doc(self) -> list[dict]:
        return [
            {"path": list(path), "source": source, "term": term_to_doc(self.table, term)}
            for (path, source), term in self.assignment.items()
        ]


def _ordered_matching(count: int, candidates: Callable[[int], Iterable[int]]) -> list[int] | None:
    """Deterministic perfect matching of sources 0..count-1 honoring candidate order.

    candidates(s) gives source s's candidates in preference order, afresh
    whenever s is visited.  First pass hands every source its first
    still-free candidate; stuck sources then match by hall.augment, which
    tries candidates in the same order.  Returns None when no perfect
    matching exists.  hall.max_matching finds some maximum matching, not
    this ordered one: handing it the orbit layers changed the printed
    transversal of 34 of 4000 seeded random simulate calls.
    """
    owner: dict[int, int] = {}
    pending = []
    for s in range(count):
        free = next((x for x in candidates(s) if x not in owner), None)
        if free is None:
            pending.append(s)
        else:
            owner[free] = s

    if not all(augment(s, candidates, owner, set()) for s in pending):
        return None
    choice = [0] * count
    for x, s in owner.items():
        choice[s] = x
    return choice


def build_transversal(
    fam: ProjectionFamily, depth: int, window_w: int, prefix_len: int, k: int, tight_positions
) -> Transversal:
    """Construct an injective transversal of the orbit family without building the family.

    Each layer is matched once, on plain integers.  A source's row is its
    sorted members, then in layer j the markers 2l for 1 <= l <= j, then,
    for tight positions only, the pool atoms -r for 1 <= r <= k: the pool
    is exactly large enough to absorb the tight set's deficiency, so nobody
    else may touch it.  Only the chosen x is interned, and distinct x give
    distinct terms: base(x) at depth 0, where a transversal is a system of
    distinct representatives of the window; in layer j, nu(j, base(x)) when
    x > 0 and batom(j, -x) when x < 0.  The depth-1 choices are then lifted
    one layer at a time, each entry under j wrapped in nu(j, .), which keeps
    distinct paths disjoint because nu is injective.  With j in the outer
    loop the terms come in Gamma's path order (itertools.product over the
    layers, sources innermost), and every wrap is interned once per lifted
    entry, in a fresh TermTable.
    """
    table = TermTable()
    rows = [sorted(members) for members in window(fam, prefix_len).sets]
    if not rows:
        # no sources, no entries: there is nothing to match or to enumerate
        return Transversal(table, {})

    nu, batom, base = table.nu, table.batom, table.base
    layers = range(-window_w, window_w + 1)
    if depth == 0:
        choice = _ordered_matching(len(rows), rows.__getitem__)
        if choice is None:
            raise HallViolationError(
                "Hall violation: the identity layer has no distinct-representative system"
            )
        terms = [base(x) for x in choice]
    else:
        pools = dict.fromkeys(tight_positions, range(-1, -k - 1, -1))
        terms = []
        for j in layers:
            markers = range(2, 2 * j + 1, 2)
            choice = _ordered_matching(
                len(rows), lambda s: itertools.chain(rows[s], markers, pools.get(s + 1, ()))
            )
            if choice is None:
                raise HallViolationError("Hall violation: premises inconsistent")
            terms.extend(nu(j, base(x)) if x > 0 else batom(j, -x) for x in choice)

    for _ in range(depth - 1):
        terms = [nu(j, t) for j in layers for t in terms]
    sources = range(1, len(rows) + 1)
    keys = ((path, s) for path in itertools.product(layers, repeat=depth) for s in sources)
    return Transversal(table, dict(zip(keys, terms)))


def verify_transversal(
    trans: Transversal, fam: ProjectionFamily, depth: int, window_w: int, prefix_len: int, k: int
) -> bool:
    """Membership and injectivity check, independent of how the transversal was built.

    Every (path, source) of Gamma's canonical enumeration must have a term,
    and no other key may: the walked keys' distinct terms must be as many as
    the assignment's keys, so Gamma's size is never computed.  Membership is
    alpha's definition read off the term, decoded through the transversal's
    table outermost layer first: at layer j the term may be a pool atom
    batom(j, r) with 1 <= r <= k or a marker nu(j, base(2l)) with
    1 <= l <= j, and is a member; otherwise it must be nu(j, inner), and
    inner is checked at the next layer.  Past the innermost layer it must be
    base(i) with i in the source's set.  An id the table never issued is
    rejected.
    """
    nodes = trans.table.nodes
    assignment = trans.assignment
    sets = window(fam, prefix_len).sets
    layers = range(-window_w, window_w + 1)
    seen: set[int] = set()
    for s, members in enumerate(sets, 1):
        for path in itertools.product(layers, repeat=depth):
            term = assignment.get((path, s))
            if term is None or not 0 < term < len(nodes) or term in seen:
                return False
            seen.add(term)
            node = nodes[term]
            for j in path:
                if node[0] == "batom":
                    if node[1] == j and 1 <= node[2] <= k:
                        break  # a pool atom of layer j
                    return False
                if node[0] != "nu" or node[1] != j:
                    return False
                node = nodes[node[2]]
                if node[0] == "base" and node[1] in range(2, 2 * j + 1, 2):
                    break  # a marker of layer j
            else:
                if node[0] != "base" or node[1] not in members:
                    return False
    return len(seen) == len(assignment)


def hall_check_gamma(gamma: GammaFamily) -> bool:
    """Hall's condition on the materialized orbit family, by matching.

    The term ids are positive integers already, so Gamma's sets go to the
    matching engine as they are.  The tests hold simulate's hall_ok to it.
    """
    return sdr_exists(FiniteFamily(tuple(e.terms for e in gamma.entries)))


class SimulationReport(NamedTuple):
    """Everything one simulator run produced; its one verdict prints as both *_ok keys."""

    entries: int
    transversal_ok: bool
    tight: TightSet
    transversal: Transversal

    def to_doc(self) -> dict:
        return {
            "entries": self.entries,
            "transversal_ok": self.transversal_ok,
            "hall_ok": self.transversal_ok,
            "k": self.tight.k,
            "F0": list(self.tight.positions),
        }


def simulate(
    fam: ProjectionFamily,
    depth: int,
    window_w: int,
    prefix_len: int,
    entry_cap: int = DEFAULT_ENTRY_CAP,
) -> SimulationReport:
    """Run the whole pipeline on one family.

    The family is first relabelled onto odd identifiers so the even marker
    identifiers are fresh; k and the tight set are computed from the family.
    The tight set is matched first, so a full family is refused before the
    entry cap is consulted; the cap is checked before the transversal is built.
    """
    odd = reindex_to_odd(fam)
    tight = find_tight_set(odd)
    entries = entry_count(depth, window_w, prefix_len, entry_cap)
    trans = build_transversal(odd, depth, window_w, prefix_len, tight.k, tight.positions)
    ok = verify_transversal(trans, odd, depth, window_w, prefix_len, tight.k)
    return SimulationReport(entries, ok, tight, trans)
