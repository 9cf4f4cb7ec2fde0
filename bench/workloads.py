"""Seeded op lists for the three benchmark workloads.

A workload is a fixed list of CLI invocations built from one seed.  The
stress-size families (triangular, padded triangular, the chains) are fixed
shapes, so their work does not change with the seed; the seed draws the many
small random families, the oracle's random cases and the coordinate labels of
the wide Euler products.  The program only ever sees the generated documents.

Why these workloads:

* ``decide`` -- classify/nbound/analyze.  Nearly all the work is window
  building, multiplicity expansion and Hopcroft-Karp on a few large graphs;
  the dynamics and euler layers sit idle.  The chain families are adversarial:
  the 2000-position chain currently ends in a RecursionError and is kept so
  that the failure stays visible.
* ``orbit`` -- endo-sim in two shapes, sized to fit a run (up to 3888 of the
  10 000 entries the default cap allows), plus one request just over the cap.
  *Deep* (triangular, depth 4-5, window 1) has many entries with small nested
  terms; *wide* (padded triangular, depth 1, window 4) has few entries with
  sets of hundreds of terms.  Term hashing and ordering plus one huge Hall
  recheck do the work, so a hash-consing gain and a set-size gain show apart.
* ``oracle`` -- exhaustive oracle-check sweeps and wide Euler products: tens
  of thousands of tiny matchings, Euler products and permanents.  Same hall
  layer as ``decide``, but per-call overhead instead of graph size.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

SMALL = "small"  # m, n <= 10 on families of a handful of positions
STRESS = "stress"  # the large instances a workload is named for
EDGE = "edge"  # adversarial inputs and expected refusals

FAMILY = "{family}"  # argv placeholder for the path of the op's family file

WORKLOADS = ("decide", "orbit", "oracle")


@dataclass(frozen=True)
class Op:
    """One CLI invocation, with what is needed to check its answer."""

    kind: str
    label: str
    argv: tuple[str, ...]
    family: dict | None = None
    expect_exit: int = 0


TRIANGULAR = {"prefix": [], "tail": {"kind": "disjoint_blocks", "a": 1, "b": 0, "start": 1}}
PADDED = {"prefix": [[1], [1]], "tail": {"kind": "disjoint_blocks", "a": 1, "b": 0, "start": 2}}
# the set-up probe: interpreter start, import, a one-position family, emit
TRIVIAL_OP = Op(SMALL, "trivial", ("analyze", "--family", FAMILY, "--m", "1", "--n", "1"), {"prefix": [[1]]})


def chain(n: int) -> dict:
    """{1,2}, {2,3}, ..., {n-1,n}, {1}: one augmenting path of length n."""
    return {"prefix": [[j, j + 1] for j in range(1, n)] + [[1]]}


def _random_prefix(rng: random.Random) -> tuple[list[list[int]], int]:
    ground = rng.randint(2, 6)
    sets = [
        sorted(rng.sample(range(1, ground + 1), rng.randint(0, min(3, ground))))
        for _ in range(rng.randint(2, 6))
    ]
    return sets, ground


def random_blocks(rng: random.Random) -> dict:
    prefix, ground = _random_prefix(rng)
    tail = {"kind": "disjoint_blocks", "a": rng.randint(1, 2), "b": rng.randint(0, 2), "start": ground + 1}
    return {"prefix": prefix, "tail": tail}


def random_constant(rng: random.Random) -> dict:
    prefix, ground = _random_prefix(rng)
    members = sorted(rng.sample(range(1, ground + 3), rng.randint(0, 2)))
    return {"prefix": prefix, "tail": {"kind": "constant", "set": members}}


def malformed(rng: random.Random) -> dict:
    x = rng.randint(1, 9)
    return rng.choice(
        [
            {"prefix": [[x, x]]},  # duplicate identifier
            {"prefix": [[x], [0]]},  # identifier below 1
            {"prefix": [[x]], "tail": {"kind": "spiral"}},  # unknown tail kind
            {"prefix": [[x + 1]], "tail": {"kind": "disjoint_blocks", "a": 1, "b": 0, "start": x}},
        ]
    )


def decide_ops(rng: random.Random) -> list[Op]:
    families = [("triangular", TRIANGULAR), ("padded", PADDED)]
    families += [(f"blocks-{i}", random_blocks(rng)) for i in range(6)]
    families += [("constant", random_constant(rng))]
    singleton = random_blocks(rng)
    singleton["tail"].update(a=0, b=1)
    families += [("singleton-blocks", singleton)]

    ops = []
    for label, fam in families:
        m, n = rng.randint(1, 10), rng.randint(1, 10)
        ops += [
            Op(SMALL, label, ("classify", "--family", FAMILY, "--m-max", str(rng.randint(3, 6))), fam),
            Op(SMALL, label, ("nbound", "--family", FAMILY, "--m", str(rng.randint(1, 10))), fam),
            Op(SMALL, label, ("analyze", "--family", FAMILY, "--m", str(m), "--n", str(n)), fam),
        ]
    ops += [
        Op(STRESS, "triangular", ("nbound", "--family", FAMILY, "--m", "150"), TRIANGULAR),
        Op(STRESS, "triangular", ("analyze", "--family", FAMILY, "--m", "2000", "--n", "100"), TRIANGULAR),
        Op(STRESS, "triangular", ("classify", "--family", FAMILY, "--m-max", "60"), TRIANGULAR),
        Op(STRESS, "padded", ("nbound", "--family", FAMILY, "--m", "150"), PADDED),
        Op(STRESS, "padded", ("analyze", "--family", FAMILY, "--m", "3000", "--n", "120"), PADDED),
    ]
    for n in (900, 2000):
        fam = chain(n)
        ops += [
            Op(EDGE, f"chain-{n}", ("nbound", "--family", FAMILY, "--m", "1"), fam),
            Op(EDGE, f"chain-{n}", ("analyze", "--family", FAMILY, "--m", "1", "--n", "1"), fam),
            Op(EDGE, f"chain-{n}", ("classify", "--family", FAMILY, "--m-max", "2"), fam),
        ]
    ops.append(Op(EDGE, "malformed", ("classify", "--family", FAMILY), malformed(rng), expect_exit=2))
    return ops


def orbit_ops(rng: random.Random) -> list[Op]:
    def sim(kind, label, fam, depth, window, prefix, *extra, expect_exit=0):
        argv = ("endo-sim", "--family", FAMILY, "--depth", str(depth),
                "--window", str(window), "--prefix", str(prefix), *extra)
        return Op(kind, label, argv, fam, expect_exit)

    ops = []
    for i in range(10):
        fam = random_blocks(rng)
        ops.append(sim(SMALL, f"blocks-{i}", fam, 1, rng.randint(0, 2), rng.randint(1, 8)))
        ops.append(sim(SMALL, f"blocks-{i}", fam, 2, rng.randint(0, 1), rng.randint(1, 8)))
    ops += [
        sim(STRESS, "triangular-deep", TRIANGULAR, 5, 1, 16),
        sim(STRESS, "triangular-deep", TRIANGULAR, 4, 1, 30, "--dump-assignment"),
        sim(STRESS, "padded-wide", PADDED, 1, 4, 200),
        # 3^5 * 42 = 10206 entries: over the default cap of 10 000
        sim(EDGE, "over-cap", TRIANGULAR, 5, 1, 42, expect_exit=1),
    ]
    return ops


def _wide_bundles(rng: random.Random, shape_seed: int, violate: bool) -> list[list[int]]:
    """16 supports of size 5 over 18 coordinates, relabelled by rng.

    The shape is fixed by shape_seed, so the product's intermediate term
    counts, and with them its work, are the same for every workload seed.
    With violate, the last 7 supports share 6 coordinates: no distinct
    representatives, so the class vanishes, but only after the product of
    the first 9 has grown.
    """
    shape = random.Random(shape_seed)
    supports = []
    for i in range(16):
        pool = range(1, 7) if violate and i >= 9 else range(1, 19)
        supports.append(shape.sample(pool, 5))
    labels = list(range(1, 19))
    rng.shuffle(labels)
    return [sorted(labels[c - 1] for c in s) for s in supports]


def oracle_ops(rng: random.Random) -> list[Op]:
    def oracle(kind, sets, ground, cases):
        argv = ("oracle-check", "--max-sets", str(sets), "--max-ground", str(ground),
                "--random", str(cases), "--seed", str(rng.randint(0, 2**31)))
        return Op(kind, f"oracle-{sets}x{ground}", argv)

    def euler(kind, label, bundles):
        return Op(kind, label, ("euler", "--bundles", json.dumps(bundles)))

    ops = []
    for _ in range(8):
        ops.append(oracle(SMALL, rng.randint(2, 3), rng.randint(2, 3), rng.randint(10, 100)))
    for _ in range(16):
        ground = rng.randint(4, 10)
        bundles = [
            sorted(rng.sample(range(1, ground + 1), rng.randint(1, 4)))
            for _ in range(rng.randint(3, 8))
        ]
        ops.append(euler(SMALL, "euler-small", bundles))
    ops += [
        oracle(STRESS, 5, 3, 0),
        oracle(STRESS, 3, 5, 2000),
        euler(STRESS, "euler-wide", _wide_bundles(rng, 11, violate=False)),
        euler(STRESS, "euler-wide-zero", _wide_bundles(rng, 12, violate=True)),
    ]
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The workload's op list for one seed; the same seed gives the same list."""
    builders = {"decide": decide_ops, "orbit": orbit_ops, "oracle": oracle_ops}
    return builders[workload](random.Random(f"{workload}:{seed}"))
