"""Square-free polynomial oracle: Euler classes of sums of line bundles.

Line bundles over a product of two-spheres are pinned down by their first
Chern vectors, one integer per coordinate sphere.  The Euler class of a
direct sum is the product of the linear forms sum_i v(i) x_i inside
Z[x_1, x_2, ...]/(x_i^2), the ring of integer polynomials with square-free
monomials.

For the 0/1 vectors that come from index sets no cancellation can occur, and
the class vanishes exactly when the sets admit no system of distinct
representatives.  The representative count is the permanent of the incidence
matrix, Ryser's table dotted with ryser_weights.  Both facts make this module
an oracle independent of matching: same questions, disjoint machinery.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import comb
from operator import mul
from typing import Iterable, Mapping

from .errors import FamilyFormatError, OracleBoundsError
from .family import FiniteFamily, IndexSet

ChernVector = dict[int, int]

# euler_class refuses a product whose estimated work (product_work) passes
# this; n copies of one n-coordinate bundle estimate n * (2^n - 1), which
# passes it from n = 19 on
EULER_WORK_CAP = 1 << 23


def chern_vector(coords: Mapping[int, int]) -> ChernVector:
    """Normalize a sparse Chern vector: positive-integer keys, zeros dropped."""
    out: ChernVector = {}
    for i, c in coords.items():
        if not isinstance(i, int) or isinstance(i, bool) or i < 1:
            raise FamilyFormatError(f"Chern coordinates are positive integers, got {i!r}")
        if not isinstance(c, int) or isinstance(c, bool):
            raise FamilyFormatError(f"Chern coefficients are integers, got {c!r}")
        if c:
            out[i] = c
    return out


def indicator_vector(members: IndexSet) -> ChernVector:
    """The 0/1 Chern vector of an index set."""
    return {i: 1 for i in sorted(members)}


class MultilinearPoly:
    """euler_class's result: an integer polynomial with square-free monomials.

    Terms map frozen monomial supports to nonzero integer coefficients; the
    empty support is the constant term.  The record only holds the terms,
    tests for zero and prints them, sorted; euler_class does the arithmetic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[frozenset[int], int]):
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def to_doc(self) -> list[dict]:
        """Deterministic wire form: terms sorted by degree then support."""
        return [
            {"monomial": sorted(s), "coeff": str(self.terms[s])}
            for s in sorted(self.terms, key=lambda s: (len(s), sorted(s)))
        ]


def euler_class(bundles: Iterable[Mapping[int, int]]) -> MultilinearPoly:
    """Euler class of a direct sum of line bundles: product of their linear forms.

    The empty sum has Euler class 1.  Every bundle is validated by
    chern_vector, even after the product has vanished.  The product is
    folded in fold_order over integer bitmasks by times_form, the k-th of
    the sorted coordinates taking the bit 1 << k (never a shift by the
    coordinate, which may be huge).  The fold stops at zero, and the
    surviving masks are decoded once, at the end.  A product whose
    product_work, taken over the folded order, passes EULER_WORK_CAP is
    refused before any multiply.
    """
    vectors = [chern_vector(v) for v in bundles]
    vectors = [vectors[j] for j in fold_order(vectors)]
    coords = sorted({i for v in vectors for i in v})
    if product_work(vectors, len(coords)) > EULER_WORK_CAP:
        raise OracleBoundsError("Euler product too large: its estimated work passes the cap")
    bit = {i: 1 << k for k, i in enumerate(coords)}
    product = {0: 1}
    for v in vectors:
        product = times_form(product, [(bit[i], c) for i, c in v.items()])
        if not product:
            break
    return MultilinearPoly(
        {frozenset(coords[k] for k in range(m.bit_length()) if m >> k & 1): a
         for m, a in product.items()}
    )


def fold_order(vectors: list[ChernVector]) -> list[int]:
    """The positions of vectors in the order euler_class multiplies them.

    Fewest coordinates that no earlier vector has first; ties go to the
    vector whose coordinates occur in the most vectors, then to the earlier
    one.  The product then lives on few coordinates, and k forms on fewer
    than k coordinates, which vanish, are met early.  A heap of (unseen,
    -shared, position) gets a fresh entry whenever a count drops, and stale
    entries are skipped when popped: O(sum |v| log n).
    """
    holders: dict[int, list[int]] = {}
    for j, v in enumerate(vectors):
        for i in v:
            holders.setdefault(i, []).append(j)
    unseen = [len(v) for v in vectors]
    shared = [-sum(len(holders[i]) for i in v) for v in vectors]  # negated for the min-heap
    heap = [(n, s, j) for j, (n, s) in enumerate(zip(unseen, shared))]
    heapify(heap)
    order = []
    while heap:
        n, _, j = heappop(heap)
        if n != unseen[j]:
            continue  # j is already folded, or has a newer entry
        unseen[j] = -1
        order.append(j)
        for i in vectors[j]:
            for k in holders.pop(i, ()):
                if unseen[k] > 0:
                    unseen[k] -= 1
                    heappush(heap, (unseen[k], shared[k], k))
    return order


def product_work(vectors: list[ChernVector], coords: int) -> int:
    """An upper bound on the term pairs the fold of vectors, in this order, multiplies.

    After k forms over coords coordinates the product has at most
    min(C(coords, k), |v_1|...|v_k|) terms, and the next step pairs each
    with |v_{k+1}| coefficients.  Term counts are held at EULER_WORK_CAP + 1
    (a binomial is kept exactly only while below that, and read by symmetry
    on its falling side), so the integers stay cap-sized; the result equals
    the unheld bound up to the cap and passes the cap exactly when it does.
    """
    top = EULER_WORK_CAP + 1
    rising = [1]  # C(coords, k) for k = 0, 1, ... up to coords // 2, while below top
    while len(rising) <= coords // 2 and rising[-1] < top:
        rising.append(comb(coords, len(rising)))
    work, terms = 0, 1
    for k, v in enumerate(vectors):
        side = min(k, coords - k)
        choose = 0 if side < 0 else rising[side] if side < len(rising) else top
        work += min(choose, terms, top) * len(v)
        terms = min(terms * len(v), top)
    return work


def times_form(product: dict[int, int], form: list[tuple[int, int]]) -> dict[int, int]:
    """A bitmask product {monomial mask: coefficient} times a form [(bit, coefficient)].

    m & b detects a repeated variable, which x_i^2 = 0 kills, and m | b
    joins two supports.  Coefficients that cancel are dropped at once.
    """
    out: dict[int, int] = {}
    for m, a in product.items():
        for b, c in form:
            if not m & b:
                key = m | b
                total = out.get(key, 0) + a * c
                if total:
                    out[key] = total
                else:
                    del out[key]  # a * c != 0, so key was already there
    return out


def sdr_count(fam: FiniteFamily) -> int:
    """Number of systems of distinct representatives, exactly.

    This is the permanent of the position-by-ground incidence matrix, by
    Ryser's formula over the union of the sets, whose k-th sorted element
    is bit 1 << k: ryser_weights dotted with its table of 2^|ground| products.
    """
    if len(fam.sets) > len(fam.ground):
        return 0
    bit = {e: 1 << k for k, e in enumerate(sorted(fam.ground))}
    table = [1] * (1 << len(bit))
    for s in fam.sets:
        table = ryser_extend(table, sum(bit[e] for e in s))
    return sum(map(mul, ryser_weights(len(bit), len(fam.sets)), table))


def ryser_extend(table: list[int], row_mask: int) -> list[int]:
    """Ryser's table after one more row, given as a mask of the ground's bits.

    table[S] is prod_j |I_j intersect S| over the rows so far, for every
    subset S of the ground as a mask.
    """
    return [p * (s & row_mask).bit_count() for s, p in enumerate(table)]


def ryser_weights(g: int, t: int, avoid: int = 0) -> list[int]:
    """Ryser's weight at every subset S, as a mask, of a g-element ground.

    Dotted with the Ryser table of t rows, they give the rows' permanent on
    the ground less avoid (a mask): with h = g - popcount(avoid), the weight
    is (-1)^(t - |S|) * C(h - |S|, h - t) if S misses avoid and |S| <= t <= h,
    else the int 0, never a float from a negative power of -1.
    """
    h = g - avoid.bit_count()
    by_size = [(-1) ** (t - k) * comb(h - k, h - t) if k <= t <= h else 0 for k in range(g + 1)]
    return [0 if s & avoid else by_size[s.bit_count()] for s in range(1 << g)]
