"""Acceptance gate.

Six criteria, each printed as a single pass/fail line.  Every numeric claim
is recomputed here against brute-force enumeration that shares no code with
the engine, and the stated runtime budgets are enforced.
"""

from __future__ import annotations

import itertools
import random
import time

from conftest import (
    CONSTANT_ONE,
    SINGLETON_BLOCKS,
    brute_sdr_count,
    padded_triangular,
    pattern_rows,
    triangular,
)
from projclass.classify import (
    LABEL_FULL,
    LABEL_NON_FULL,
    classify,
    compute_N,
)
from projclass.dynamics import simulate
from projclass.euler import euler_class, indicator_vector, sdr_count
from projclass.family import (
    DisjointBlocks,
    FiniteFamily,
    ProjectionFamily,
    reindex_to_odd,
    window,
)
from projclass.hall import (
    BipartiteIncidence,
    decide_trivial_minorization,
    max_matching,
    max_surplus,
    sdr_exists,
)


def _report(capsys, name: str, ok: bool, extra: str = ""):
    with capsys.disabled():
        tail = f" ({extra})" if extra else ""
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, name


def _exhaustive_corpus():
    """Every ordered 4-tuple of nonempty subsets of {1..4}: 15^4 families."""
    nonempty = [
        frozenset(c)
        for r in range(1, 5)
        for c in itertools.combinations((1, 2, 3, 4), r)
    ]
    assert len(nonempty) == 15
    return itertools.product(nonempty, repeat=4)


def _random_corpus(count: int, seed: int = 20260819):
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(1, 12)
        yield tuple(
            frozenset(rng.sample(range(1, 9), rng.randint(0, 8)))
            for _ in range(size)
        )


def _brute_surplus_bitmask(sets) -> int:
    masks = []
    ground = sorted(set().union(*sets)) if sets else []
    pos = {e: i for i, e in enumerate(ground)}
    for s in sets:
        masks.append(sum(1 << pos[e] for e in s))
    best = 0
    n = len(sets)
    unions = [0] * (1 << n)
    for choice in range(1, 1 << n):
        low = choice & -choice
        unions[choice] = unions[choice ^ low] | masks[low.bit_length() - 1]
        surplus = choice.bit_count() - unions[choice].bit_count()
        if surplus > best:
            best = surplus
    return best


def test_criterion_1_quadratic_bound_formula(capsys):
    t0 = time.perf_counter()
    fam = triangular()
    ok = True
    for m in range(1, 9):
        expected = m * (m - 1) // 2 + 1
        got = compute_N(fam, m)
        ok = ok and got == expected
        # minimality: some window attains surplus N(m) - 1 with a small witness
        report = max_surplus(window(fam, max(1, m)), m)
        ok = ok and report.max_surplus == expected - 1
        ok = ok and len(report.witness_F) in {m - 1, m}
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(capsys, "criterion 1: N(m) = m(m-1)/2 + 1 with attained minimality", ok,
            f"{elapsed:.3f}s")


def test_criterion_2_defect_formula_equivalence(capsys):
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for combo in _exhaustive_corpus():
        fam = FiniteFamily(combo)
        size, _, _ = max_matching(BipartiteIncidence.from_family(fam))
        if size != 4 - _brute_surplus_bitmask(combo):
            ok = False
            break
        checked += 1
    for combo in _random_corpus(1000):
        fam = FiniteFamily(combo)
        size, _, _ = max_matching(BipartiteIncidence.from_family(fam))
        if size != len(combo) - _brute_surplus_bitmask(combo):
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 15**4 + 1000 and elapsed < 30.0
    _report(capsys, "criterion 2: matching size equals positions minus max deficiency",
            ok, f"{checked} families, {elapsed:.1f}s")


def test_criterion_3_triple_oracle_agreement(capsys):
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for combo in _exhaustive_corpus():
        fam = FiniteFamily(combo)
        a = sdr_exists(fam)
        b = bool(euler_class(indicator_vector(s) for s in combo))
        c = sdr_count(fam)
        if not (a == b == (c > 0)):
            ok = False
            break
        checked += 1
    for combo in _random_corpus(1000):
        fam = FiniteFamily(combo)
        a = sdr_exists(fam)
        c = sdr_count(fam)
        if a != (c > 0):
            ok = False
            break
        if len(combo) <= 5:
            if a != bool(euler_class(indicator_vector(s) for s in combo)):
                ok = False
                break
        checked += 1
    # counting oracle against a shared-nothing permanent, up to 7 sets
    rng = random.Random(7)
    for _ in range(300):
        size = rng.randint(1, 7)
        combo = tuple(
            frozenset(rng.sample(range(1, 8), rng.randint(0, 5)))
            for _ in range(size)
        )
        if sdr_count(FiniteFamily(combo)) != brute_sdr_count(combo):
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(capsys, "criterion 3: matching, Euler class and permanent oracles agree",
            ok, f"{checked} families, {elapsed:.1f}s")


def test_criterion_4_classifier_dichotomy(capsys):
    ok = classify(triangular()).label == LABEL_NON_FULL
    for fam in (SINGLETON_BLOCKS, CONSTANT_ONE):
        got = classify(fam)
        ok = ok and got.label == LABEL_FULL
        samples = got.surplus_samples
        ok = ok and len(samples) == 10
        ok = ok and all(b[1] > a[1] for a, b in zip(samples, samples[1:]))
        ok = ok and samples[0][0] == 1 and samples[-1][0] == 10
    # invariance under the odd relabelling
    for fam in (triangular(), padded_triangular(), SINGLETON_BLOCKS, CONSTANT_ONE):
        a, b = classify(fam), classify(reindex_to_odd(fam))
        ok = ok and (a.label, a.n_table, a.k, a.witness_m) == (
            b.label, b.n_table, b.k, b.witness_m)
    # invariance under prefix permutation
    rng = random.Random(4)
    base = (frozenset({1}), frozenset({1}), frozenset({2}), frozenset({2}))
    reference = classify(ProjectionFamily(base, DisjointBlocks(1, 0, 3)))
    for _ in range(100):
        perm = list(base)
        rng.shuffle(perm)
        got = classify(ProjectionFamily(tuple(perm), DisjointBlocks(1, 0, 3)))
        ok = ok and (got.label, got.n_table, got.k) == (
            reference.label, reference.n_table, reference.k)
    _report(capsys, "criterion 4: dichotomy labels, growing samples, relabel invariance", ok)


def test_criterion_5_endomorphism_simulation(capsys):
    t0 = time.perf_counter()
    ok = True
    runs = 0
    for fam, expected_k in ((triangular(), 0), (padded_triangular(), 1)):
        for depth in range(1, 4):
            for w in range(3):
                for t in range(1, 7):
                    report = simulate(fam, depth=depth, window_w=w, prefix_len=t)
                    ok = ok and report.transversal_ok and report.hall_ok
                    ok = ok and report.k == expected_k
                    runs += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(capsys, "criterion 5: transversals verify and matching concurs at all depths",
            ok, f"{runs} runs, {elapsed:.1f}s")


def test_criterion_6_minorization_pattern(capsys):
    fam = triangular()
    rows = pattern_rows(fam, 4)
    ok = [(m, dec.n) for m, _, dec in rows] == [(1, 2), (2, 3), (3, 4), (4, 5)]
    for m, n, dec in rows:
        blocked = decide_trivial_minorization(fam, n, m)
        ok = ok and not blocked.decision and dec.certificate.max_surplus >= n
    _report(capsys, "criterion 6: each bound is blocked at m copies yet met at some l", ok)
