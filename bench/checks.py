"""Independent answer checks for every benchmark op.

Nothing here imports projclass.  Surpluses are recomputed with scipy's
bipartite matcher (max over F of n|F| - |union F| equals the number of
expanded positions minus a maximum matching) and, for block tails, with the
closed form: blocks are disjoint from everything, so tail block i adds
max(0, n - size(i)) on its own.  A certificate is accepted when it is valid,
not when it matches earlier output byte for byte.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from workloads import Op

LABEL_NON_FULL = "non_full_stably_finite"
LABEL_FULL = "full_stably_properly_infinite"


class Wrong(Exception):
    """The program printed an answer that the reference rejects."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Wrong(what)


# ---------------------------------------------------------------- reference


def family_set(fam: dict, j: int) -> frozenset[int]:
    """The j-th set (1-based) of a family document."""
    prefix = fam["prefix"]
    if j <= len(prefix):
        return frozenset(prefix[j - 1])
    tail = fam.get("tail", {"kind": "none"})
    i = j - len(prefix)
    if tail["kind"] == "constant":
        return frozenset(tail["set"])
    if tail["kind"] == "disjoint_blocks":
        a, b = tail["a"], tail["b"]
        first = tail["start"] + a * (i - 1) * i // 2 + b * (i - 1)
        return frozenset(range(first, first + a * i + b))
    raise ValueError(f"position {j} is beyond a finite family")


def max_surplus(sets: list[frozenset[int]], n: int) -> int:
    """max over position subsets F of n|F| - |union F|, by scipy matching."""
    ground = sorted(set().union(*sets)) if sets else []
    if not ground:
        return n * len(sets)
    col = {e: c for c, e in enumerate(ground)}
    rows, cols = [], []
    for p, s in enumerate(sets):
        for copy in range(n):
            for e in s:
                rows.append(p * n + copy)
                cols.append(col[e])
    graph = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n * len(sets), len(ground))
    )
    matched = int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())
    return n * len(sets) - matched


def sdr_exists(sets: list[frozenset[int]]) -> bool:
    return max_surplus(sets, 1) == 0


def _block_gain(tail: dict, n: int, count: int | None) -> int:
    """Sum of max(0, n - size(i)) over the first `count` blocks (all if None)."""
    a, b = tail["a"], tail["b"]
    total, i = 0, 1
    while (count is None or i <= count) and a * i + b < n:
        total += n - (a * i + b)
        i += 1
    return total


def surplus_sup(fam: dict, n: int) -> int | None:
    """Supremum of the surplus at multiplicity n over all windows; None if unbounded."""
    tail = fam.get("tail", {"kind": "none"})
    prefix = [frozenset(s) for s in fam["prefix"]]
    if tail["kind"] == "none":
        return max_surplus(prefix, n)
    if tail["kind"] == "constant" or tail["a"] == 0 and tail["b"] < n:
        return None
    return max_surplus(prefix, n) + _block_gain(tail, n, None)


def window_surplus(fam: dict, t: int, n: int) -> int:
    """Maximum surplus at multiplicity n of the first t positions."""
    tail = fam.get("tail", {"kind": "none"})
    p = len(fam["prefix"])
    if tail["kind"] == "disjoint_blocks" and t > p:
        prefix = [frozenset(s) for s in fam["prefix"]]
        return max_surplus(prefix, n) + _block_gain(tail, n, t - p)
    return max_surplus([family_set(fam, j) for j in range(1, t + 1)], n)


def witness_surplus(fam: dict, witness: list[int], n: int) -> int:
    union = frozenset().union(*(family_set(fam, j) for j in witness))
    return n * len(witness) - len(union)


def least_unbounded(fam: dict) -> int | None:
    """Least multiplicity with an unbounded surplus; None when there is none."""
    tail = fam.get("tail", {"kind": "none"})
    if tail["kind"] == "constant":
        return 1
    if tail["kind"] == "disjoint_blocks" and tail["a"] == 0:
        return tail["b"] + 1
    return None


# ------------------------------------------------------------------- checks


def _options(argv: tuple[str, ...]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def check_nbound(op: Op, doc: dict) -> None:
    m = int(_options(op.argv)["--m"])
    sup = surplus_sup(op.family, m)
    if sup is None:
        expect(doc["N"] == "infinite" and "unbounded_reason" in doc, "N should be infinite")
        return
    expect(doc["N"] == sup + 1, f"N={doc['N']}, reference {sup + 1}")
    if op.label == "triangular":
        expect(doc["N"] == m * (m - 1) // 2 + 1, "triangular N(m) != m(m-1)/2+1")
    expect(doc["attained_surplus"] == sup, "attained_surplus is not the supremum")
    expect(witness_surplus(op.family, doc["witness_F"], m) == sup, "witness misses the supremum")
    expect(all(1 <= j <= doc["window"] for j in doc["witness_F"]), "witness outside its window")


def check_analyze(op: Op, doc: dict) -> None:
    opts = _options(op.argv)
    m, n = int(opts["--m"]), int(opts["--n"])
    sup = surplus_sup(op.family, n)
    expect(doc["surplus_sup"] == ("infinite" if sup is None else sup), "wrong surplus_sup")
    decision = sup is None or sup >= m
    expect(doc["decision"] == decision, f"decision {doc['decision']}, reference {decision}")
    expect(
        witness_surplus(op.family, doc["witness_F"], n) == doc["max_surplus"],
        "witness does not attain max_surplus",
    )
    t = doc["window"]
    expect(all(1 <= j <= t for j in doc["witness_F"]), "witness outside its window")
    if decision:
        expect(doc["max_surplus"] >= m, "positive certificate below m")
        expect(window_surplus(op.family, t, n) == doc["max_surplus"], "window surplus mismatch")
        expect(t >= 1 and window_surplus(op.family, t - 1, n) < m, "window is not the smallest")
    else:
        expect(doc["max_surplus"] == sup, "negative certificate is not the supremum")


def check_classify(op: Op, doc: dict) -> None:
    fam = op.family
    w = least_unbounded(fam)
    if w is not None:
        expect(doc["label"] == LABEL_FULL and doc["witness_m"] == w, "should be full")
        samples = doc["surplus_samples"]
        expect(len(samples) == 10, "expected ten surplus samples")
        for (t0, s0), (t1, s1) in zip(samples, samples[1:]):
            expect(t1 == t0 + 1 and s1 > s0, "surplus samples do not grow strictly")
        for t, s in samples:
            expect(window_surplus(fam, t, w) == s, f"surplus sample at window {t} is wrong")
        return
    m_max = int(_options(op.argv).get("--m-max", "6"))
    expect(doc["label"] == LABEL_NON_FULL, "should be non-full")
    table = {str(m): surplus_sup(fam, m) + 1 for m in range(1, m_max + 1)}
    expect(doc["N_table"] == table, "wrong N table")
    if op.label == "triangular":
        expect(all(table[str(m)] == m * (m - 1) // 2 + 1 for m in range(1, m_max + 1)),
               "triangular N(m) != m(m-1)/2+1")
    k = table["1"] - 1
    expect(doc["k"] == k, "wrong k")
    expect(witness_surplus(fam, doc["F0"], 1) == k, "F0 does not attain k")


def _member(term: list, path: list[int], source: frozenset[int], k: int) -> bool:
    """Is term in alpha_path[0](... alpha_path[-1](source) ...)?  Source ids are odd."""
    for j in path:
        if term[0] == "batom":
            return term[1] == j and 1 <= term[2] <= k
        if term[0] != "nu" or term[1] != j:
            return False
        inner = term[2]
        if j >= 1 and inner[0] == "base" and inner[1] % 2 == 0 and 1 <= inner[1] // 2 <= j:
            return True  # marker nu(j, 2l), l <= j
        term = inner
    return term[0] == "base" and term[1] in source


def check_endo_sim(op: Op, doc: dict) -> None:
    opts = _options(op.argv)
    d, w, p = int(opts["--depth"]), int(opts["--window"]), int(opts["--prefix"])
    expect(doc["entries"] == (2 * w + 1) ** d * p, "entries != (2w+1)^d * p")
    expect(doc["transversal_ok"] is True and doc["hall_ok"] is True, "a *_ok flag is false")
    k = surplus_sup(op.family, 1)
    expect(doc["k"] == k, "wrong pool size k")
    expect(witness_surplus(op.family, doc["F0"], 1) == k, "F0 does not attain k")
    if "--dump-assignment" not in op.argv:
        return
    assignment = doc["assignment"]
    expect(len(assignment) == doc["entries"], "assignment size differs from entries")
    sources = {s: frozenset(2 * i - 1 for i in family_set(op.family, s)) for s in range(1, p + 1)}
    keys, terms = set(), set()
    for item in assignment:
        path, source, term = item["path"], item["source"], item["term"]
        expect(len(path) == d and all(-w <= j <= w for j in path), "bad path")
        expect(source in sources, "bad source")
        expect(_member(term, path, sources[source], k), f"term not in its entry: {item}")
        keys.add((tuple(path), source))
        terms.add(json.dumps(term))
    expect(len(keys) == len(assignment), "an entry is assigned twice")
    expect(len(terms) == len(assignment), "assignment is not injective")


def check_oracle(op: Op, doc: dict) -> None:
    opts = _options(op.argv)
    sets, ground = int(opts["--max-sets"]), int(opts["--max-ground"])
    expect(doc["disagreements"] == 0, "oracles disagree")
    exhaustive = sum((2**ground) ** s for s in range(1, sets + 1))
    expect(doc["exhaustive_cases"] == exhaustive, "wrong exhaustive count")
    expect(doc["random_cases"] == int(opts["--random"]), "wrong random count")


def check_euler(op: Op, doc: dict) -> None:
    bundles = [frozenset(b) for b in json.loads(_options(op.argv)["--bundles"])]
    zero = not sdr_exists(bundles)
    expect(doc["zero"] is zero, f"zero={doc['zero']}, reference {zero}")
    expect((doc["terms"] == []) is zero, "terms disagree with zero")


CHECKS = {
    "nbound": check_nbound,
    "analyze": check_analyze,
    "classify": check_classify,
    "endo-sim": check_endo_sim,
    "oracle-check": check_oracle,
    "euler": check_euler,
}

OK, FAILED, WRONG = "ok", "failed", "wrong"


def judge(op: Op, code: int, stdout: str, stderr: str) -> tuple[str, str]:
    """Status of one finished op (OK, FAILED or WRONG) and the reason."""
    if "Traceback" in stderr:
        return FAILED, "traceback: " + stderr.strip().splitlines()[-1]
    if code != op.expect_exit:
        return FAILED, f"exit {code}, expected {op.expect_exit}: {stderr.strip()[:200]}"
    if op.expect_exit:
        lines = stderr.strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: ") or stdout.strip():
            return FAILED, "refusal is not a one-line error message"
        return OK, ""
    try:
        CHECKS[op.argv[0]](op, json.loads(stdout))
    except Wrong as exc:
        return WRONG, str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return WRONG, f"unreadable answer: {exc!r}"
    return OK, ""
