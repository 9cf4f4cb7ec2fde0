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

Terms are free objects, so injectivity of nu is structural rather than
arithmetic and coding collisions are impossible.  The simulate() pipeline
first relabels the family onto odd identifiers; even identifiers are reserved
for markers.  gamma_iterate itself embeds the family it is given verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .classify import find_tight_set
from .errors import HallViolationError, WindowTooLargeError
from .family import FiniteFamily, ProjectionFamily, reindex_to_odd, window
from .hall import sdr_exists

DEFAULT_ENTRY_CAP = 10_000


@dataclass(frozen=True)
class Base:
    """An original ground identifier, embedded as a term."""

    ident: int


@dataclass(frozen=True)
class BAtom:
    """The r-th fresh pool atom of the depth-1 layer j."""

    j: int
    r: int


@dataclass(frozen=True)
class Nu:
    """The injective pairing nu(j, arg)."""

    j: int
    arg: "GroundTerm"


GroundTerm = Union[Base, BAtom, Nu]


def term_to_doc(term: GroundTerm) -> list:
    """Wire form: ["base", i], ["batom", j, r], or ["nu", j, inner]."""
    if isinstance(term, Base):
        return ["base", term.ident]
    if isinstance(term, BAtom):
        return ["batom", term.j, term.r]
    return ["nu", term.j, term_to_doc(term.arg)]


def _marker(l: int) -> Base:
    # markers live on the even identifiers, which the odd reindexing reserves
    return Base(2 * l)


def alpha(j: int, terms: frozenset[GroundTerm], k: int) -> frozenset[GroundTerm]:
    """One dynamics step on a set of terms.

    nu-image of the set, plus the k pool atoms of layer j, plus markers
    nu(j, even 1..j) when j >= 1; no markers for j <= 0.
    """
    if k < 0:
        raise ValueError(f"pool size k must be >= 0, got {k}")
    image = {Nu(j, t) for t in terms}
    image.update(BAtom(j, r) for r in range(1, k + 1))
    if j >= 1:
        image.update(Nu(j, _marker(l)) for l in range(1, j + 1))
    return frozenset(image)


@dataclass(frozen=True)
class GammaEntry:
    """One orbit set: the path of alpha layers applied (outermost first) and its source."""

    path: tuple[int, ...]
    source: int
    terms: frozenset[GroundTerm]


@dataclass(frozen=True)
class GammaFamily:
    """The full orbit family at one depth over a window of layers."""

    depth: int
    window: int
    sources: int
    pool: int
    entries: tuple[GammaEntry, ...]


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
    outer loop, which keeps that order.
    """
    if depth < 0 or window_w < 0 or prefix_len < 0:
        raise ValueError("depth, window and prefix length must be >= 0")
    count = (2 * window_w + 1) ** depth * prefix_len
    if count > entry_cap:
        raise WindowTooLargeError(
            f"window too large: {count} entries exceed the cap of {entry_cap}"
        )
    base = window(fam, prefix_len)
    entries = [
        GammaEntry((), s, frozenset(Base(i) for i in members))
        for s, members in enumerate(base.sets, 1)
    ]
    for _ in range(depth):
        entries = [
            GammaEntry((j,) + e.path, e.source, alpha(j, e.terms, k))
            for j in range(-window_w, window_w + 1)
            for e in entries
        ]
    return GammaFamily(depth, window_w, prefix_len, k, tuple(entries))


@dataclass
class Transversal:
    """An injective choice of one term per orbit entry, keyed by (path, source)."""

    depth: int
    assignment: dict[tuple[tuple[int, ...], int], GroundTerm] = field(default_factory=dict)

    def to_doc(self) -> list[dict]:
        return [
            {"path": list(path), "source": source, "term": term_to_doc(term)}
            for (path, source), term in sorted(
                self.assignment.items(), key=lambda kv: (kv[0][0], kv[0][1])
            )
        ]


def _ordered_matching(candidates: list[list[GroundTerm]]) -> list[GroundTerm] | None:
    """Deterministic perfect matching honoring candidate order.

    First pass hands every source its first still-free candidate; stuck
    sources then augment along alternating paths, again in candidate order.
    Returns None when no perfect matching exists.
    """
    owner: dict[GroundTerm, int] = {}
    choice: list[GroundTerm | None] = [None] * len(candidates)
    pending = []
    for s, terms in enumerate(candidates):
        free = next((t for t in terms if t not in owner), None)
        if free is None:
            pending.append(s)
        else:
            owner[free] = s
            choice[s] = free

    def augment(root: int) -> bool:
        # depth-first with an explicit stack: path[k] takes via[k] from
        # path[k + 1], and each frame resumes its own candidate list
        banned: set[GroundTerm] = set()
        path = [root]
        via: list[GroundTerm] = []
        options = [iter(candidates[root])]
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
                options.append(iter(candidates[holder]))
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
    members: frozenset[int], j: int, k: int, pooled: bool
) -> list[GroundTerm]:
    """Candidate terms for one source in layer j, preference-ordered.

    Own nu-elements first, then the shared markers, and the pool atoms last
    and only for tight positions: the pool is exactly large enough to absorb
    the tight set's deficiency, so nobody else may touch it.
    """
    own = [Nu(j, Base(i)) for i in sorted(members)]
    markers = [Nu(j, _marker(l)) for l in range(1, j + 1)] if j >= 1 else []
    pool = [BAtom(j, r) for r in range(1, k + 1)] if pooled else []
    return own + markers + pool


def build_transversal(
    gamma: GammaFamily, fam: ProjectionFamily, k: int, tight_positions
) -> Transversal:
    """Construct an injective transversal of the orbit family.

    Depth 0 is the identity layer: a transversal is exactly a system of
    distinct representatives of the original window, so it exists iff the
    window satisfies Hall's condition.  For depth >= 1, each layer j gets its
    own matching with the pool atoms reserved for the tight positions; higher
    depths wrap the depth-1 choice in nu, one layer per path step, which
    keeps distinct paths structurally disjoint.
    """
    base = window(fam, gamma.sources)
    tight = frozenset(tight_positions)
    trans = Transversal(gamma.depth)

    if gamma.depth == 0:
        candidates = [[Base(i) for i in sorted(members)] for members in base.sets]
        choice = _ordered_matching(candidates)
        if choice is None:
            raise HallViolationError(
                "Hall violation: the identity layer has no distinct-representative system"
            )
        for s, term in enumerate(choice, 1):
            trans.assignment[((), s)] = term
        return trans

    depth1: dict[tuple[int, int], GroundTerm] = {}
    for j in range(-gamma.window, gamma.window + 1):
        candidates = [
            _depth1_candidates(members, j, k, s in tight)
            for s, members in enumerate(base.sets, 1)
        ]
        choice = _ordered_matching(candidates)
        if choice is None:
            raise HallViolationError("Hall violation: premises inconsistent")
        for s, term in enumerate(choice, 1):
            depth1[(j, s)] = term

    for entry in gamma.entries:
        term = depth1[(entry.path[-1], entry.source)]
        for j in reversed(entry.path[:-1]):
            term = Nu(j, term)
        trans.assignment[(entry.path, entry.source)] = term
    return trans


def verify_transversal(gamma: GammaFamily, trans: Transversal) -> bool:
    """Membership and injectivity check, independent of how the transversal was built."""
    if len(trans.assignment) != len(gamma.entries):
        return False
    seen: set[GroundTerm] = set()
    for entry in gamma.entries:
        term = trans.assignment.get((entry.path, entry.source))
        if term is None or term not in entry.terms or term in seen:
            return False
        seen.add(term)
    return True


def hall_check_gamma(gamma: GammaFamily) -> bool:
    """Independent confirmation that the orbit family satisfies Hall's condition.

    Terms are relabelled to integers in order of first appearance and handed
    to the matching engine, so this check shares no code path with
    build_transversal.  The labels only rename the ground side of the
    incidence graph, so the verdict does not depend on them.
    """
    ids: dict[GroundTerm, int] = {}
    fam = FiniteFamily(
        tuple(frozenset(ids.setdefault(t, len(ids) + 1) for t in e.terms) for e in gamma.entries)
    )
    return sdr_exists(fam)


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
