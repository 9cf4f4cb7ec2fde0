"""Cross-check of the four routes to the Hall question on small families.

oracle_check asks whether a family of index sets has a system of distinct
representatives (an SDR) by matching, by the Euler class, by the permanent
(Ryser, Combinatorial Mathematics, 1963) and by a sweep over the subsets of
positions, and counts the families where the answers differ.

The exhaustive part walks the product tree depth first; a node is one
ordered family with each route's own state for it, element i as bit i - 1.
_walk yields every parent of a case, _extend builds a node only to descend
into it, and _verdicts answers all 2^g children of a parent as one 2^g-bit
int per route (bit M: the child with new set M has an SDR).  Each route
rejects exactly the M inside one mask x, and answers every ^ below[x].
- Matching: the parent's matching is maximum, so the child matches one more
  position exactly when M meets the elements from which an alternating path
  reaches a free one (Berge); _extend runs hall.augment from the new position.
- Euler class: the parent's product P times M's form.  The walk multiplies
  0/1 forms, so P's coefficients are positive, nothing cancels, and the
  product vanishes exactly when M lies inside every support of P.
- Permanent: a node keeps Ryser's products over the 2^max_ground subsets of
  the ground.  The child's SDRs are, over e in M, the parent's that avoid e:
  euler.ryser_weights less e dotted with that table, an exact count.  There
  are none exactly when M lies inside the elements every parent SDR uses.
- Sweep: m + {new} is deficient exactly when |m| >= popcount(u_m | M), from
  the parent's unions u_m; the parent's deficient subsets stay deficient.

Random cases run the per-case library routes, once per distinct family.
"""

from __future__ import annotations

import random
from functools import cache, partial, reduce
from operator import and_, ge, mul, or_
from typing import Iterator, NamedTuple, Sequence

from .errors import OracleBoundsError
from .euler import euler_class, indicator_vector, ryser_extend, ryser_weights, sdr_count, times_form
from .family import FiniteFamily
from .hall import augment, sdr_exists

# oracle-check refuses when its cases times 2 ** max_ground, the products in
# one Ryser table, pass this
ORACLE_WORK_CAP = 1 << 24

# Ryser's weights per (ground, sets, avoided element) for _avoiding.  The caps
# keep a walked ground at g <= 12 (2^g cases, shifted left by g, stay within
# ORACLE_WORK_CAP) and its parents at <= 6 sets: <= 7 * 12 lists of <= 4096.
_weights = cache(ryser_weights)


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

    below = _below(max_ground)
    exhaustive = 0
    disagreements: list[tuple[frozenset[int], ...]] = []
    for node in _walk(max_sets, max_ground):
        exhaustive += len(below)
        by_matching, by_euler, by_permanent, by_sweep = _verdicts(node, below)
        odd = (by_matching ^ by_euler) | (by_matching ^ by_permanent) | (by_matching ^ by_sweep)
        if odd:  # in mask order
            disagreements += [node.sets + (_members(m),) for m in range(len(below)) if odd >> m & 1]
    # depth first lists each size in product order, but interleaves sizes
    disagreements.sort(key=len)

    rng, agree = random.Random(seed), cache(_four_way_agree)
    for _ in range(random_cases):
        size = rng.randint(1, max_sets)
        combo = tuple(
            frozenset(rng.sample(range(1, max_ground + 1), rng.randint(0, max_ground)))
            for _ in range(size)
        )
        if not agree(combo):
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
    owner: dict[int, int]  # the position matched to each matched ground element
    product: dict[int, int]  # element i is bit i - 1
    table: list[int]  # Ryser's products at each subset of the ground
    unions: list[int]  # the union of each subset of positions, element i as bit i - 1
    deficient: bool


def _members(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _piece(mask: int) -> tuple[int, frozenset[int], list[tuple[int, int]]]:
    """A subset of the ground as its mask, its members and its linear form."""
    members = _members(mask)
    return mask, members, [(1 << (i - 1), 1) for i in sorted(members)]


def _below(max_ground: int) -> list[int]:
    """below[x] has bit M set for every subset M of x, over the 2^max_ground masks x.

    Doubling: x = y | 1 << k sits 2^k past y, and its subsets are y's and
    y's with bit k added, below[y] shifted by 1 << k.
    """
    below = [1]
    for k in range(max_ground):
        below += [v | v << (1 << k) for v in below]
    return below


def _root(max_ground: int) -> _Node:
    return _Node((), {}, {0: 1}, [1] * (1 << max_ground), [0], False)


def _extend(node: _Node, piece: tuple) -> _Node:
    """The child of node whose new set is piece; each route extends its own state."""
    mask, members, form = piece
    sets, owner = node.sets + (members,), dict(node.owner)
    augment(len(node.sets), sets.__getitem__, owner, set())
    unions, deficient = _sweep(node.unions, node.deficient, mask)
    product, table = times_form(node.product, form), ryser_extend(node.table, mask)
    return _Node(sets, owner, product, table, unions, deficient)


def _sweep(unions: list[int], deficient: bool, row: int) -> tuple[list[int], bool]:
    """The union of every subset of positions after one more position, by position mask.

    A subset m of the old positions plus the new one has |m| + 1 positions;
    the flag says whether any subset so far has more positions than elements.
    """
    grown = [u | row for u in unions]
    sizes = map(int.bit_count, range(len(grown)))
    return unions + grown, deficient or any(map(ge, sizes, map(int.bit_count, grown)))


def _walk(max_sets: int, max_ground: int) -> Iterator[_Node]:
    """Every ordered family of 0..max_sets - 1 subsets of {1..max_ground}, depth first.

    These are the parents of the exhaustive cases.  Each node yields its
    children in mask order, so the parents of each size, and with them the
    cases in their mask order, come out in itertools.product order.  The
    stack holds, per depth, the lazy _extend of one parent's children.
    """
    pieces = [_piece(mask) for mask in range(1 << max_ground)]
    stack = [iter([_root(max_ground)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        yield node
        if len(node.sets) < max_sets - 1:
            stack.append(map(partial(_extend, node), pieces))


def _verdicts(node: _Node, below: list[int]) -> tuple[int, int, int, int]:
    """Matching, Euler class, permanent and subset sweep for every child of node.

    Bit M of each is set when that route finds an SDR for node's sets plus
    M, as the module docstring says.  A parent that is not fully matched
    frees no element, and a zero product has no support, whose AND is the
    whole ground.  With no deficient subset, m + {new} is deficient exactly
    when m is tight (popcount(u_m) = |m|) and M lies inside u_m.
    """
    every, ground, unions = (1 << len(below)) - 1, len(below) - 1, node.unions
    free = _reach(node.owner, unions, ground) if len(node.owner) == len(node.sets) else 0
    by_matching = every ^ below[ground & ~free]
    by_euler = every ^ below[reduce(and_, node.product, ground)]
    by_permanent = every ^ below[sum(b for b, n in _avoiding(node).items() if not n)]
    sizes = map(int.bit_count, range(len(unions)))
    # the empty subset is tight; a deficient parent rejects every child
    tight = [ground] if node.deficient else [u for u, k in zip(unions, sizes) if u.bit_count() == k]
    by_sweep = every ^ reduce(or_, map(below.__getitem__, tight))
    return by_matching, by_euler, by_permanent, by_sweep


def _reach(owner: dict[int, int], unions: list[int], ground: int) -> int:
    """The elements, element i as bit i - 1, from which an alternating path reaches a free one.

    ground is the mask of every element.  A free element reaches itself; a
    matched one reaches when its owner's set (unions[1 << owner]) holds
    another element that does (Berge).  The matching is maximum, so a new
    position gains a partner exactly when its set meets this mask.
    """
    held = [(1 << (e - 1), unions[1 << p]) for e, p in owner.items()]
    reach = ground - sum(bit for bit, _ in held)
    grew = True
    while grew:
        grew = False
        for bit, row in held:
            if not reach & bit and row & reach:
                reach |= bit
                grew = True
    return reach


def _avoiding(node: _Node) -> dict[int, int]:
    """node's representative systems that avoid e, for each ground element e as its bit."""
    t, g = len(node.sets), len(node.table).bit_length() - 1
    return {1 << i: sum(map(mul, _weights(g, t, 1 << i), node.table)) for i in range(g)}


def _four_way_agree(sets: tuple[frozenset[int], ...]) -> bool:
    fam = FiniteFamily(sets)
    by_matching = sdr_exists(fam)
    by_euler = bool(euler_class(indicator_vector(s) for s in sets))
    by_permanent = sdr_count(fam) > 0
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
