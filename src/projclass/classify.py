"""Fullness and stable-finiteness classification of projection families.

One quantity rules everything here: the supremum, over all finite position
subsets F, of the surplus m|F| - |union of F| at multiplicity m.

  * Bounded at every m: the thresholds N(m) = 1 + sup certify that N(m)
    trivial summands never fit under m copies while N(m) - 1 do somewhere,
    the projection generates a proper ideal, and every multiple stays finite.
  * Unbounded at some m: arbitrarily many trivial summands fit under m
    copies, the projection is full, and m copies are properly infinite.

For the supported tail rules the supremum is computed exactly, by one
hall.SurplusProfile per multiplicity.  Tail blocks are disjoint from
everything else, so a tail position i contributes m - size(i) independently
of all other choices: only the explicit prefix is matched, and the blocks
are summed as a series.  Constant tails and undersized constant blocks grow
without bound, from the multiplicity hall.unbounded_multiplicity names; the
ten surplus samples of a full family are read off one profile.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache, partial
from typing import NamedTuple

from .errors import FullFamilyError, PatternNotFoundError
from .family import Constant, ProjectionFamily, window
from .hall import (  # noqa: F401  bench/tracing.py resolves classify.surplus_window_bound
    INFINITE,
    Infinite,
    SurplusProfile,
    surplus_sup,
    surplus_window_bound,
    unbounded_multiplicity,
)

LABEL_NON_FULL = "non_full_stably_finite"
LABEL_FULL = "full_stably_properly_infinite"


def compute_N(fam: ProjectionFamily, m: int) -> int | Infinite:
    """Least count of trivial summands that does NOT embed under m copies of Q.

    Equals 1 + (surplus supremum at multiplicity m); INFINITE exactly when
    the supremum is unbounded, in which case the family is full.
    """
    value = surplus_sup(fam, m).value
    return INFINITE if isinstance(value, Infinite) else value + 1


class TightSet(NamedTuple):
    """Positions F0 attaining the maximal surplus k at multiplicity 1.

    Satisfies |union over F0| + k = |F0|; empty when k = 0.
    """

    positions: tuple[int, ...]
    k: int


def find_tight_set(fam: ProjectionFamily) -> TightSet:
    """Canonical minimal witness of the maximal multiplicity-1 surplus.

    Empty at surplus 0: every position is matched, so the last layering has no root.
    """
    profile = SurplusProfile(fam, 1)
    sup = profile.sup()
    if isinstance(sup.value, Infinite):
        raise FullFamilyError("family is full; no tight set")
    return TightSet(profile.witness(sup.window), sup.value)


def _strict_sample_start(fam: ProjectionFamily) -> int:
    """First window from which the sampled surpluses provably grow strictly.

    From this window on, every optimal subset must contain a tail position,
    so the next window's optimum strictly beats it.
    """
    prefix_len = len(fam.prefix)
    if isinstance(fam.tail, Constant):
        return max(1, prefix_len + len(fam.tail.members))
    return max(1, prefix_len)


class Classification(NamedTuple):
    """Dichotomy verdict plus its certificate.

    Non-full: table m -> N(m), the maximal trivial multiplicity k, and the
    tight set behind it.  Full: the least unbounded multiplicity and ten
    strictly increasing window surpluses at it.
    """

    label: str
    n_table: dict[int, int] | None = None
    k: int | None = None
    tight_set: TightSet | None = None
    witness_m: int | None = None
    surplus_samples: tuple[tuple[int, int], ...] | None = None

    def to_doc(self) -> dict:
        if self.label == LABEL_NON_FULL:
            return {
                "label": self.label,
                "N_table": {str(m): n for m, n in self.n_table.items()},
                "k": self.k,
                "F0": list(self.tight_set.positions),
            }
        return {
            "label": self.label,
            "witness_m": self.witness_m,
            "surplus_samples": [[t, s] for t, s in self.surplus_samples],
        }


def classify(fam: ProjectionFamily, m_max: int = 6) -> Classification:
    """Decide the dichotomy: non-full and stably finite, or full and properly infinite."""
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    witness_m = unbounded_multiplicity(fam)
    if witness_m is not None:
        start = _strict_sample_start(fam)
        profile = SurplusProfile(fam, witness_m)
        samples = tuple((t, profile.surplus(t)) for t in range(start, start + 10))
        return Classification(LABEL_FULL, witness_m=witness_m, surplus_samples=samples)
    tight = find_tight_set(fam)
    table = {1: tight.k + 1}
    for m in range(2, m_max + 1):
        n = compute_N(fam, m)
        if isinstance(n, Infinite):
            raise AssertionError("non-full shape produced an unbounded threshold")
        table[m] = n
    return Classification(LABEL_NON_FULL, n_table=table, k=tight.k, tight_set=tight)


class PatternRow(NamedTuple):
    """One multiplicity's finiteness pattern: N(m) blocked at m, admitted at l."""

    m: int
    n_threshold: int
    l: int
    l_window: int
    l_surplus: int


class PatternReport(NamedTuple):
    rows: tuple[PatternRow, ...]

    def to_doc(self) -> dict:
        return {
            "rows": [
                {
                    "m": r.m,
                    "N": r.n_threshold,
                    "l": r.l,
                    "l_window": r.l_window,
                    "l_surplus": r.l_surplus,
                }
                for r in self.rows
            ]
        }


def verify_minorization_pattern(fam: ProjectionFamily, m_max: int = 4) -> PatternReport:
    """Exhibit, for each m <= m_max, the finite-but-not-stably-finite pattern.

    N(m) = sup(m) + 1 trivial summands do not fit under m copies, by the
    supremum's definition; the row gives the least l > m under which they
    do.  Only meaningful for non-full families.  That l is max(m + 1, l0),
    l0 the least multiplicity with a positive surplus.  If sup(m) >= 1 its
    witness F is nonempty, so sup(m + 1) >= sup(m) + |F| >= N(m).  If
    sup(m) = 0 then N(m) = 1 and m < l0.  The surplus grows with the
    multiplicity, so l0 is one bisection over 1..s + 1, s the smallest set
    among the first p + 1 positions (p the prefix length; the first p without
    a tail): one position of size s alone has surplus 1 at s + 1.  Only a
    family with no positions has no l0.
    """
    profile = cache(partial(SurplusProfile, fam))
    first = window(fam, len(fam.prefix) + (fam.tail is not None)).sets
    s = min(map(len, first), default=0)

    def positive(n: int) -> bool:
        value = profile(n).sup().value
        return isinstance(value, Infinite) or value >= 1

    l0 = bisect_left(range(s + 2), True, lo=1, key=positive)
    if l0 > s + 1:
        raise PatternNotFoundError("pattern not found: the family has no positions")
    rows = []
    for m in range(1, m_max + 1):
        sup = profile(m).sup().value
        if isinstance(sup, Infinite):
            raise FullFamilyError("family is full")
        l = max(m + 1, l0)
        l_window = profile(l).reach(sup + 1)
        rows.append(PatternRow(m, sup + 1, l, l_window, profile(l).surplus(l_window)))
    return PatternReport(tuple(rows))
