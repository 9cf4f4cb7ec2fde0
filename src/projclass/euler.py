"""Square-free polynomial oracle: Euler classes of sums of line bundles.

Line bundles over a product of two-spheres are pinned down by their first
Chern vectors, one integer per coordinate sphere.  The Euler class of a
direct sum is the product of the linear forms sum_i v(i) x_i inside
Z[x_1, x_2, ...]/(x_i^2), the ring of integer polynomials with square-free
monomials.

For the 0/1 vectors that come from index sets no cancellation can occur, and
the class vanishes exactly when the sets admit no system of distinct
representatives.  The representative count itself is the permanent of the
incidence matrix.  Both facts make this module an oracle that is independent
of the matching engine: same questions, disjoint machinery.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Mapping

from .errors import FamilyFormatError
from .family import FiniteFamily, IndexSet

ChernVector = dict[int, int]


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


def tensor_line_bundles(v: Mapping[int, int], w: Mapping[int, int]) -> ChernVector:
    """Chern vector of a tensor product of line bundles: coordinatewise sum."""
    out = chern_vector(v)
    for i, c in chern_vector(w).items():
        c = out.get(i, 0) + c
        if c:
            out[i] = c
        else:
            del out[i]
    return out


class MultilinearPoly:
    """Integer polynomial with square-free monomials: x_i^2 = 0.

    Terms map frozen monomial supports to nonzero integer coefficients; the
    empty support is the constant term.  Equality, hashing inputs, and the
    serialized form are all canonical because supports are sets and emission
    sorts them.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[frozenset[int], int] | None = None):
        self.terms: dict[frozenset[int], int] = {
            frozenset(s): c for s, c in (terms or {}).items() if c
        }

    @classmethod
    def zero(cls) -> "MultilinearPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultilinearPoly":
        return cls({frozenset(): 1})

    @classmethod
    def linear_form(cls, v: Mapping[int, int]) -> "MultilinearPoly":
        """sum_i v(i) x_i for a Chern vector v."""
        return cls({frozenset([i]): c for i, c in chern_vector(v).items()})

    def coefficient(self, monomial: Iterable[int]) -> int:
        return self.terms.get(frozenset(monomial), 0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultilinearPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({frozenset(): other} if other else {})
        return NotImplemented

    def __add__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        out = dict(self.terms)
        for s, c in other.terms.items():
            c = out.get(s, 0) + c
            if c:
                out[s] = c
            elif s in out:
                del out[s]
        return MultilinearPoly(out)

    def __mul__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        out: dict[frozenset[int], int] = {}
        for s, a in self.terms.items():
            for t, b in other.terms.items():
                if s & t:
                    continue  # a repeated variable is killed by x_i^2 = 0
                key = s | t
                c = out.get(key, 0) + a * b
                if c:
                    out[key] = c
                elif key in out:
                    del out[key]
        return MultilinearPoly(out)

    def __repr__(self) -> str:
        if not self.terms:
            return "MultilinearPoly(0)"
        bits = []
        for s in sorted(self.terms, key=lambda s: (len(s), sorted(s))):
            mono = "*".join(f"x{i}" for i in sorted(s)) or "1"
            bits.append(f"{self.terms[s]}*{mono}")
        return f"MultilinearPoly({' + '.join(bits)})"

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
    folded over integer bitmasks: the k-th of the sorted coordinates gets the
    bit 1 << k (never a shift by the coordinate, which may be huge), so m & b
    detects a repeated variable, which x_i^2 = 0 kills, and m | b joins two
    supports.  Coefficients that cancel are dropped at once, the fold stops
    at zero, and the surviving masks are decoded to frozensets once, at the
    end: the same polynomial as the fold of linear_form products under
    MultilinearPoly.__mul__.
    """
    vectors = [chern_vector(v) for v in bundles]
    coords = sorted({i for v in vectors for i in v})
    bit = {i: 1 << k for k, i in enumerate(coords)}
    product = {0: 1}
    for v in vectors:
        form = [(bit[i], c) for i, c in v.items()]
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
        product = out
        if not product:
            break
    terms = {}
    for m, a in product.items():
        support = []
        while m:
            low = m & -m
            support.append(coords[low.bit_length() - 1])
            m ^= low
        terms[frozenset(support)] = a
    return MultilinearPoly(terms)


def sdr_count(fam: FiniteFamily) -> int:
    """Number of systems of distinct representatives, exactly.

    This is the permanent of the position-by-ground incidence matrix.  For t
    positions over a ground of size g (t <= g) the rectangular inclusion-
    exclusion formula is used:

        per = (-1)^t * sum over ground subsets S of
              (-1)^|S| * C(g - |S|, g - t) * prod_j |I_j intersect S|

    which costs 2^g products of row counts; exact over Python integers.
    """
    rows = fam.sets
    t = len(rows)
    ground = sorted(fam.ground)
    g = len(ground)
    if t == 0:
        return 1
    if t > g:
        return 0
    col = {e: c for c, e in enumerate(ground)}
    row_masks = []
    for s in rows:
        mask = 0
        for e in s:
            mask |= 1 << col[e]
        row_masks.append(mask)
    total = 0
    for smask in range(1, 1 << g):
        prod = 1
        for rm in row_masks:
            cnt = (rm & smask).bit_count()
            if not cnt:
                prod = 0
                break
            prod *= cnt
        if prod:
            sbits = smask.bit_count()
            term = comb(g - sbits, g - t) * prod
            total += term if (t + sbits) % 2 == 0 else -term
    return total
