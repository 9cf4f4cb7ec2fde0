"""Cross-check of the four routes to the Hall question on small families.

oracle_check asks whether a family of index sets has a system of distinct
representatives by matching, by the Euler class, by the permanent (Ryser,
Combinatorial Mathematics, 1963) and by a sweep over the subsets of
positions, and counts the families where the answers differ.

The exhaustive part walks the product tree depth first: the node at depth d
is one ordered family of d sets, and each route extends its parent's state
by the node's one new set.  Matching augments from the new position only,
the one unmatched position that can start an augmenting path.  It is not
hall.max_matching, because it is incremental and it checks Hopcroft-Karp.
The Euler class multiplies the parent's product by one linear form.  The
permanent keeps Ryser's products over the subsets of the prefix's own union
U.  Replication lemma: the earlier sets miss the k elements that the new set
adds to U, so their products at S plus any of those elements are the ones
at S; the table is copied 2^k times and one multiply per subset adds the
new row.  A table over all of {1..max_ground} would cost 2^max_ground per
node.  The sweep inherits the parent's deficient flag, since the parent's
position subsets are the child's too.

The stack holds one node per depth, and every route answers at every node.
Random cases run the per-case library routes instead.
"""

from __future__ import annotations

import random
from operator import ge
from typing import Iterator, NamedTuple, Sequence

from . import euler, hall
from .errors import OracleBoundsError
from .family import FiniteFamily

# oracle-check refuses when its cases times 2 ** max_ground, the subsets the
# permanent route may sweep per case, pass this
ORACLE_WORK_CAP = 1 << 24


def oracle_check(max_sets: int, max_ground: int, random_cases: int, seed: int) -> dict:
    """Cross-check all four routes to the Hall question on small families.

    Every ordered family with 1..max_sets subsets of {1..max_ground} (empty
    sets included), then seeded random families within the same bounds.
    Bounds with more than 250 000 exhaustive cases, or whose cases, random
    ones included, times 2 ** max_ground pass ORACLE_WORK_CAP, are refused
    before any case runs.
    """
    if max_sets < 1 or max_ground < 1:
        raise OracleBoundsError("bounds must be >= 1")
    if random_cases < 0:
        raise OracleBoundsError("random cases must be >= 0")
    # at max_ground 18 the 2 ** 18 one-set families alone pass the cap, so
    # refuse before computing a total that grows as 2 ** (max_ground * s)
    if max_sets > 7 or max_ground > 17:
        raise OracleBoundsError("bounds too large for exhaustive oracle")
    total = sum((2 ** max_ground) ** s for s in range(1, max_sets + 1))
    if total > 250_000 or (total + random_cases) << max_ground > ORACLE_WORK_CAP:
        raise OracleBoundsError("bounds too large for exhaustive oracle")

    exhaustive = 0
    disagreements: list[tuple[frozenset[int], ...]] = []
    for node in _walk(max_sets, max_ground):
        exhaustive += 1
        by_matching, by_euler, by_permanent, by_sweep = _answers(node)
        if not by_matching == by_euler == by_permanent == by_sweep:
            disagreements.append(node.sets)
    # depth first lists each size in product order, but interleaves sizes
    disagreements.sort(key=len)

    rng = random.Random(seed)
    for _ in range(random_cases):
        size = rng.randint(1, max_sets)
        combo = tuple(
            frozenset(rng.sample(range(1, max_ground + 1), rng.randint(0, max_ground)))
            for _ in range(size)
        )
        if not _four_way_agree(combo):
            disagreements.append(combo)

    doc = {
        "max_sets": max_sets,
        "max_ground": max_ground,
        "seed": seed,
        "exhaustive_cases": exhaustive,
        "random_cases": random_cases,
        "disagreements": len(disagreements),
    }
    if disagreements:
        doc["counterexamples"] = [{"sets": [sorted(s) for s in c]} for c in disagreements[:5]]
    return doc


class _Node(NamedTuple):
    """One family of the walk and each route's state for it."""

    sets: tuple[frozenset[int], ...]
    owner: list[int | None]  # the position matched to each ground element
    matched: int
    product: dict[int, int]  # element i is bit i - 1
    local: dict[int, int]  # the bit in table of each element of the union
    table: list[int]
    unions: list[int]  # the union of each subset of positions, element i as bit i - 1
    deficient: bool


def _piece(mask: int) -> tuple[int, frozenset[int], list[tuple[int, int]]]:
    """A subset of the ground as its mask, its members and its linear form."""
    bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
    return mask, frozenset(i + 1 for i in bits), [(1 << i, 1) for i in bits]


def _root(max_ground: int) -> _Node:
    return _Node((), [None] * (max_ground + 1), 0, {0: 1}, {}, [1], [0], False)


def _extend(node: _Node, piece: tuple) -> _Node:
    """The child of node whose new set is piece; each route extends its own state."""
    mask, members, form = piece
    sets, owner, local = node.sets + (members,), node.owner[:], dict(node.local)
    matched = node.matched + _augment(sets, owner, len(node.sets))
    table = euler.ryser_extend(node.table, local, members)
    unions, deficient = _sweep(node.unions, node.deficient, mask)
    product = euler.times_form(node.product, form)
    return _Node(sets, owner, matched, product, local, table, unions, deficient)


def _augment(sets: Sequence[frozenset[int]], owner: list[int | None], new: int) -> bool:
    """Match position new along an alternating path, if one reaches a free element.

    Depth first with an explicit stack: path[k] reaches path[k + 1] through
    via[k].  Each element is tried once (seen), so the search cannot cycle.
    """
    path, via, edges, seen = [new], [], [iter(sets[new])], 0
    while path:
        for e in edges[-1]:
            if not seen >> e & 1:
                seen |= 1 << e
                via.append(e)
                if owner[e] is None:
                    for p, elem in zip(path, via):
                        owner[elem] = p
                    return True
                path.append(owner[e])
                edges.append(iter(sets[owner[e]]))
                break
        else:
            path.pop()
            edges.pop()
            if via:
                via.pop()
    return False


def _sweep(unions: list[int], deficient: bool, row: int) -> tuple[list[int], bool]:
    """The union of every subset of positions after one more position, by position mask.

    A subset m of the old positions plus the new one has |m| + 1 positions;
    the flag says whether any subset so far has more positions than elements.
    """
    grown = [u | row for u in unions]
    sizes = map(int.bit_count, range(len(grown)))
    return unions + grown, deficient or any(map(ge, sizes, map(int.bit_count, grown)))


def _answers(node: _Node) -> tuple[bool, bool, bool, bool]:
    """Each route's answer at node: matching, Euler class, permanent, subset sweep."""
    t = len(node.sets)
    return (
        node.matched == t,
        bool(node.product),
        euler.ryser_permanent(node.table, t) > 0,
        not node.deficient,
    )


def _walk(max_sets: int, max_ground: int) -> Iterator[_Node]:
    """Every ordered family of 1..max_sets subsets of {1..max_ground}, depth first.

    Children take the subsets in mask order, so each size comes out in
    itertools.product order.
    """
    pieces = [_piece(mask) for mask in range(1 << max_ground)]
    stack = [(_root(max_ground), iter(pieces))]
    while stack:
        node, children = stack[-1]
        for piece in children:
            child = _extend(node, piece)
            yield child
            if len(child.sets) < max_sets:
                stack.append((child, iter(pieces)))
                break
        else:
            stack.pop()


def _four_way_agree(sets: tuple[frozenset[int], ...]) -> bool:
    fam = FiniteFamily(sets)
    by_matching = hall.sdr_exists(fam)
    by_euler = bool(euler.euler_class(euler.indicator_vector(s) for s in sets))
    by_permanent = euler.sdr_count(fam) > 0
    by_sweep = _subset_sweep(sets)
    return by_matching == by_euler == by_permanent == by_sweep


def _subset_sweep(sets: Sequence[frozenset[int]]) -> bool:
    """Hall's condition by direct sweep: no subset of positions is deficient.

    Shares no code with the matching engine.  Each set becomes a bitmask with
    one bit per ground element, and _sweep adds the positions one at a time.
    """
    bit = {e: 1 << k for k, e in enumerate(frozenset().union(*sets))}
    unions, deficient = [0], False
    for s in sets:
        unions, deficient = _sweep(unions, deficient, sum(bit[e] for e in s))
    return not deficient
