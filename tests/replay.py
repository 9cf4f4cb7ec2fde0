"""Replay a printed orbit dump from its wire form, sharing no code with dynamics.

endo-sim --dump-assignment prints one {"path", "source", "term"} item per
entry of the orbit family Gamma.  orbit_dump_replays re-derives what the
dump claims from alpha's definition alone: the items come in Gamma's
enumeration order, each key once; each term is a member of its entry's
set; and no term repeats.  The simulator relabels the family's identifier i
to 2i - 1, so a printed base(x) stands for (x + 1) / 2, and the even
identifiers are the markers.  The caller gives the sources' sets in the
family's own identifiers; endo_sim_replays reads them off the family with
family.eval_set, so a tail block is a range and membership is arithmetic.
"""

from __future__ import annotations

import itertools
import json

from projclass.family import ProjectionFamily, eval_set


def _member(term: list, path: tuple[int, ...], members, k: int) -> bool:
    """Is the wire term in alpha_path[0](... alpha_path[-1](members)), read outermost layer first?"""
    for j in path:
        if term[0] == "batom":
            return term[1] == j and 1 <= term[2] <= k  # a pool atom of layer j
        if term[0] != "nu" or term[1] != j:
            return False
        term = term[2]
        if term[0] == "base" and term[1] in range(2, 2 * j + 1, 2):
            return True  # a marker of layer j
    return term[0] == "base" and term[1] % 2 == 1 and (term[1] + 1) // 2 in members


def orbit_dump_replays(dump: list[dict], sets: list, depth: int, w: int, k: int) -> bool:
    """The dump is an injective transversal of Gamma over sets at this depth, window and pool."""
    paths = itertools.product(range(-w, w + 1), repeat=depth)
    keys = [(path, s) for path in paths for s in range(1, len(sets) + 1)]
    if [(tuple(item["path"]), item["source"]) for item in dump] != keys:
        return False
    if not all(_member(item["term"], path, sets[s - 1], k) for item, (path, s) in zip(dump, keys)):
        return False
    return len({json.dumps(item["term"]) for item in dump}) == len(dump)


def endo_sim_replays(argv: list[str], doc: dict, fam: ProjectionFamily) -> bool:
    """The assignment of an endo-sim document printed for argv replays on the family it names."""
    depth, w, p = (int(argv[argv.index(flag) + 1]) for flag in ("--depth", "--window", "--prefix"))
    sets = [eval_set(fam, s) for s in range(1, p + 1)]
    return len(doc["assignment"]) == doc["entries"] and orbit_dump_replays(
        doc["assignment"], sets, depth, w, doc["k"]
    )
