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
needs from the combinatorics.  None of it builds Gamma: a Transversal is
its depth-1 certificate, one row of chosen integers per layer, matched by
build_transversal with the pool atoms reserved for the tight positions F0.
Every deeper entry takes its innermost layer's choice lifted,
t(alpha_j(I)) = nu(j, t(I)), so verify_transversal checks only the rows,
and Transversal.to_doc alone walks Gamma's entries, to print them.  An
injective transversal is a system of distinct representatives, so it
satisfies Hall's condition (Hall 1935): hall_ok is verify_transversal's
answer, and no orbit window is matched.  gamma_iterate and
hall_check_gamma materialize Gamma and match it, as the tests' reference.

gamma_iterate hash-conses its terms into positive integer ids in a fresh
TermTable.  A term is a node ("base", i), ("batom", j, r) or ("nu", j,
child id), and each distinct node gets exactly one id, so nu stays injective
(nu(j, a) = nu(j', b) only when j = j' and a = b) and never meets a base or
pool atom, as with free terms.  A printed term is the wire list
["base", i], ["batom", j, r] or ["nu", j, inner].  The simulate() pipeline
first relabels the family onto odd identifiers; even identifiers are
reserved for markers.  gamma_iterate itself embeds the family it is given
verbatim.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple

from .classify import TightSet, find_tight_set
from .errors import HallViolationError, WindowTooLargeError
from .family import FiniteFamily, ProjectionFamily, eval_set, reindex_to_odd, window
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
    """An injective transversal of Gamma at one depth, held as its depth-1 certificate.

    choices holds one row per layer, in the order of layers (one row at
    depth 0, none without sources); a row gives source s, counted from 1,
    its chosen integer x.  At depth 0 the term is base(x).  In layer j it is
    nu(j, base(x)) when x > 0 and batom(j, -x) when x < 0, and the entry
    (path, s) gets the term of its innermost layer path[-1], wrapped in
    nu(i, .) for every outer layer i.
    """

    depth: int
    layers: range
    choices: tuple[tuple[int, ...], ...]

    def to_doc(self) -> list[dict]:
        """Gamma's entries as wire documents, in path order (lexicographic, sources innermost).

        The only walk of Gamma's keys: each term is built from its path and
        its innermost choice, and there are none without sources, at any depth.
        """
        if not self.choices:
            return []
        docs = []
        for path in itertools.product(self.layers, repeat=self.depth):
            row = self.choices[path[-1] - self.layers.start if path else 0]
            for s, x in enumerate(row, 1):
                term = ["base", x]
                if path:
                    term = ["nu", path[-1], term] if x > 0 else ["batom", path[-1], -x]
                for i in reversed(path[:-1]):
                    term = ["nu", i, term]
                docs.append({"path": list(path), "source": s, "term": term})
        return docs


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
    members in increasing order (a tail block is its range, never built),
    then in layer j the markers 2l for 1 <= l <= j, then,
    for tight positions only, the pool atoms -r for 1 <= r <= k: the pool
    is exactly large enough to absorb the tight set's deficiency, so nobody
    else may touch it.  At depth 0 the one row is matched alone, as a
    system of distinct representatives of the window.  The matched rows are
    the whole transversal: nothing is lifted, interned or keyed by path.
    """
    layers = range(-window_w, window_w + 1)
    sets = (eval_set(fam, j) for j in range(1, prefix_len + 1))
    rows = [s if isinstance(s, range) else sorted(s) for s in sets]
    if not rows:
        # no sources, no entries: there is nothing to match
        return Transversal(depth, layers, ())
    if depth == 0:
        choice = _ordered_matching(len(rows), rows.__getitem__)
        if choice is None:
            raise HallViolationError(
                "Hall violation: the identity layer has no distinct-representative system"
            )
        return Transversal(depth, layers, (tuple(choice),))

    pools = dict.fromkeys(tight_positions, range(-1, -k - 1, -1))
    choices = []
    for j in layers:
        markers = range(2, 2 * j + 1, 2)
        choice = _ordered_matching(
            len(rows), lambda s: itertools.chain(rows[s], markers, pools.get(s + 1, ()))
        )
        if choice is None:
            raise HallViolationError("Hall violation: premises inconsistent")
        choices.append(tuple(choice))
    return Transversal(depth, layers, tuple(choices))


def verify_transversal(
    trans: Transversal, fam: ProjectionFamily, depth: int, window_w: int, prefix_len: int, k: int
) -> bool:
    """Check the depth-1 certificate against alpha's definition, in O((2w+1) * p) steps.

    The certificate must have this depth and window, one row per layer (one
    at depth 0, none when prefix_len is 0) and one choice per source.  A
    choice x of source s in layer j must be a member of alpha_j(I_s): x in
    I_s, by eval_set, so a tail block's range answers by arithmetic; or a
    marker 2l with 1 <= l <= j; or a pool atom -r with 1 <= r <= k.  At
    depth 0 it must be x in I_s.  The choices of one layer must be distinct.

    That covers every entry of Gamma by the lift lemma: alpha_j(X) contains
    nu(j, X), and nu is injective with disjoint images for distinct j.  An
    entry's term is its innermost layer's member wrapped in nu once per
    outer layer, so it is a member of the entry.  Two entries' terms differ
    at the first layer where their paths differ, since a depth-1 term
    carries its layer too, or, under one path, by their layer's distinct
    choices.  So Gamma's paths are never walked.
    """
    layers = range(-window_w, window_w + 1)
    rows = (len(layers) if depth else 1) if prefix_len else 0
    if (trans.depth, trans.layers, len(trans.choices)) != (depth, layers, rows):
        return False
    sets = [eval_set(fam, s) for s in range(1, prefix_len + 1)]
    # at depth 0 the one row pairs with layer -w, whose j the test never reads
    for j, row in zip(layers, trans.choices):
        if len(row) != prefix_len or len(set(row)) != prefix_len:
            return False
        for x, members in zip(row, sets):
            if x not in members and not (depth and (x in range(2, 2 * j + 1, 2) or -k <= x < 0)):
                return False
    return True


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
