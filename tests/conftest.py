"""Shared builders, brute-force oracles, the pattern's rows and a CLI process runner.

The oracles here share no code with the engine under test: surplus and
matching are recomputed by direct subset or backtracking enumeration, and
counting goes through a naive permanent. Slow on purpose, trusted on sight.
pattern_rows is no oracle: it reads the pattern off the public deciders.
"""

from __future__ import annotations

import functools
import itertools
import os
import subprocess
import sys

from hypothesis import strategies as st

from projclass.classify import compute_N
from projclass.family import (
    Constant,
    DisjointBlocks,
    FiniteFamily,
    ProjectionFamily,
    reindex_to_odd,
    window,
)
from projclass.hall import MinorizationDecision, decide_trivial_minorization


def triangular(start: int = 1) -> ProjectionFamily:
    # |I_j| = j, consecutive disjoint blocks
    return ProjectionFamily((), DisjointBlocks(1, 0, start))


def padded_triangular() -> ProjectionFamily:
    # two copies of {1} in front, blocks pushed past them
    return ProjectionFamily(
        (frozenset({1}), frozenset({1})), DisjointBlocks(1, 0, 2)
    )


def finite(*sets) -> FiniteFamily:
    return FiniteFamily(tuple(frozenset(s) for s in sets))


def brute_max_surplus(sets, n: int = 1) -> int:
    """max over all subsets F of n|F| - |union F|, empty subset included.

    Subsets are bitmasks over the positions, and each union is the union of
    the subset without its lowest position, kept from before, or'ed with
    that position's set: one OR per subset.
    """
    ground = sorted(set().union(*sets)) if sets else []
    pos = {e: i for i, e in enumerate(ground)}
    masks = [sum(1 << pos[e] for e in s) for s in sets]
    unions = [0] * (1 << len(sets))
    best = 0
    for choice in range(1, 1 << len(sets)):
        low = choice & -choice
        unions[choice] = unions[choice ^ low] | masks[low.bit_length() - 1]
        surplus = n * choice.bit_count() - unions[choice].bit_count()
        if surplus > best:
            best = surplus
    return best


def brute_max_matching(sets) -> int:
    """Largest injective partial system of representatives, by backtracking.

    Still exhaustive, but each (position, used elements) state is searched
    once, however many choice orders reach it.
    """

    @functools.cache
    def go(i: int, used: frozenset) -> int:
        if i == len(sets):
            return 0
        best = go(i + 1, used)
        for e in sorted(sets[i] - used):
            best = max(best, 1 + go(i + 1, used | {e}))
        return best

    return go(0, frozenset())


def brute_sdr_count(sets) -> int:
    """Number of full injective choice functions, by backtracking."""

    def go(i: int, used: frozenset) -> int:
        if i == len(sets):
            return 1
        return sum(go(i + 1, used | {e}) for e in sets[i] if e not in used)

    return go(0, frozenset())


def poly_product(a: dict, b: dict) -> dict:
    """Product of two polynomials {support: coefficient}; x_i^2 = 0 kills a shared variable."""
    out: dict = {}
    for s, x in a.items():
        for t, y in b.items():
            if not s & t:
                out[s | t] = out.get(s | t, 0) + x * y
    return {support: c for support, c in out.items() if c}


def euler_fold(bundles) -> dict:
    """The product of the linear forms sum_i v(i) x_i, one frozenset support per term."""
    forms = ({frozenset([i]): c for i, c in v.items() if c} for v in bundles)
    return functools.reduce(poly_product, forms, {frozenset(): 1})


def all_subsets(ground) -> list[frozenset]:
    items = sorted(ground)
    return [
        frozenset(c)
        for r in range(len(items) + 1)
        for c in itertools.combinations(items, r)
    ]


CONSTANT_ONE = ProjectionFamily((), Constant(frozenset({1})))
SINGLETON_BLOCKS = ProjectionFamily((), DisjointBlocks(0, 1, 1))


@st.composite
def block_families(draw, constant=False, finite=False):
    """Random prefix plus a disjoint-block tail, optionally on odd identifiers.

    constant=True puts a constant tail instead, finite=True no tail at all.
    """
    prefix = draw(st.lists(st.frozensets(st.integers(1, 6), max_size=4), max_size=5))
    top = max((max(s) for s in prefix if s), default=0)
    start = top + 1 + draw(st.integers(0, 2))
    if finite:
        tail = None
    elif constant:
        tail = Constant(draw(st.frozensets(st.integers(1, 8), max_size=3)))
    else:
        a, b = draw(st.sampled_from([(a, b) for a in range(4) for b in range(4)][1:]))
        tail = DisjointBlocks(a, b, start)
    fam = ProjectionFamily(tuple(prefix), tail)
    return reindex_to_odd(fam) if draw(st.booleans()) else fam


def pattern_rows(fam: ProjectionFamily, m_max: int) -> list[tuple[int, int, MinorizationDecision]]:
    """The finite-but-not-stably-finite pattern: (m, N(m), the answer at the least l > m).

    N(m) = compute_N(fam, m) trivial summands do not fit under m copies; the
    answer is the first positive decide_trivial_minorization(fam, N(m), l)
    for l = m + 1, m + 2, ..., so its n is that least l and its window the
    least window there.  The family must be non-full and have a position.
    """
    rows = []
    for m in range(1, m_max + 1):
        n = compute_N(fam, m)
        scan = (decide_trivial_minorization(fam, n, l) for l in itertools.count(m + 1))
        rows.append((m, n, next(d for d in scan if d.decision)))
    return rows


def assert_certificate_replays(fam: ProjectionFamily, doc: dict) -> None:
    """Replay a decision document's certificate on the window it names.

    Pair [q, e] matches copy q of the n-fold window: e must lie in the set at
    position ceil(q / n), and no q or e may repeat.  Then n * window -
    max_surplus pairs and a witness of surplus max_surplus prove each other
    optimal, with no matching engine involved.
    """
    n, t, pairs = doc["n"], doc["window"], doc["matching"]
    sets = window(fam, t).sets
    for q, e in pairs:
        assert 1 <= q <= n * t and e in sets[(q - 1) // n]
    assert len({q for q, _ in pairs}) == len({e for _, e in pairs}) == len(pairs)
    assert len(pairs) == n * t - doc["max_surplus"]
    union = frozenset().union(*(sets[j - 1] for j in doc["witness_F"]))
    assert n * len(doc["witness_F"]) - len(union) == doc["max_surplus"]


def python_process(*args: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """Run python with src on its path and env's variables set."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, **(env or {}), "PYTHONPATH": path}, timeout=60,
    )


def cli_process(*argv: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    return python_process("-m", "projclass.cli", *argv, env=env)
