"""In-process spans around the public functions of each projclass module.

Every traced function is replaced by a wrapper at every module that imported
it (``classify.max_surplus`` as well as ``hall.max_surplus``), so nested calls
nest their spans.  A span is (name, start, end, parent index, op index).
Counters are read from call arguments and results only; the costly ones are
computed after the span has ended, inside a ``trace.counters`` span of their
own, so they are charged to the tracer and not to the caller.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

MODULES = ("family", "hall", "classify", "dynamics", "euler", "cli")

FUNCTIONS = (
    ("family", "parse_family"),
    ("family", "window"),
    ("family", "expand_multiplicity"),
    ("family", "reindex_to_odd"),
    ("hall", "max_matching"),
    ("hall", "max_surplus"),
    ("hall", "sdr_exists"),
    ("hall", "decide_trivial_minorization"),
    ("classify", "surplus_sup"),
    ("classify", "surplus_window_bound"),
    ("classify", "compute_N"),
    ("classify", "find_tight_set"),
    ("classify", "classify"),
    ("dynamics", "simulate"),
    ("dynamics", "gamma_iterate"),
    ("dynamics", "build_transversal"),
    ("dynamics", "verify_transversal"),
    ("dynamics", "hall_check_gamma"),
    ("euler", "euler_class"),
    ("euler", "sdr_count"),
    ("cli", "main"),
    ("cli", "oracle_check"),
)

# (module, class, method) traced under the span name "<module>.<method>"
METHODS = (
    ("dynamics", "SimulationReport", "to_doc"),
    ("dynamics", "Transversal", "to_doc"),
)

COUNTER_SPAN = "trace.counters"


def _matching_counts(args, result):
    g = args[0]
    return {"left": len(g.positions), "edges": sum(map(len, g.adj.values())), "matched": result[0]}


def _gamma_counts(args, result):
    terms = set().union(*(e.terms for e in result.entries))
    depth = 0
    for t in terms:
        d = 0
        while hasattr(t, "arg"):
            t, d = t.arg, d + 1
        depth = max(depth, d)
    return {"entries": len(result.entries), "distinct_terms": len(terms), "term_depth_max": depth}


def _sdr_count_subsets(args, result):
    fam = args[0]
    t, g = len(fam.sets), len(fam.ground)
    return {"subsets": 2**g if 0 < t <= g else 0}


# span name -> (counter function, costly); keys ending in "_max" keep the maximum
COUNTERS = {
    "family.window": (lambda args, r: {"sets": len(r.sets)}, False),
    "family.expand_multiplicity": (lambda args, r: {"positions": len(r.sets)}, False),
    "hall.max_matching": (_matching_counts, True),
    "dynamics.gamma_iterate": (_gamma_counts, True),
    "hall.decide_trivial_minorization": (lambda args, r: {"positive": int(r.decision)}, False),
    "euler.euler_class": (lambda args, r: {"terms": len(r.terms)}, False),
    "euler.sdr_count": (_sdr_count_subsets, False),
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: dict[str, dict[str, int]] = {}
        self.op = -1
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            count, costly = counter
            if costly:
                extra = [COUNTER_SPAN, time.perf_counter(), 0.0, parent, self.op]
                self.spans.append(extra)
                self._count(name, count(args, result))
                extra[2] = time.perf_counter()
            else:
                self._count(name, count(args, result))
        return result

    def _count(self, name, values):
        totals = self.counters.setdefault(name, {})
        for key, v in values.items():
            totals[key] = max(totals.get(key, v), v) if key.endswith("_max") else totals.get(key, 0) + v

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Replace every traced function and method with its wrapper, then restore."""
    modules = [importlib.import_module("projclass")]
    modules += [importlib.import_module(f"projclass.{m}") for m in MODULES]
    undo = []
    try:
        for mod_name, fn_name in FUNCTIONS:
            fn = getattr(importlib.import_module(f"projclass.{mod_name}"), fn_name)
            wrapper = tracer.wrap(f"{mod_name}.{fn_name}", fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"projclass.{mod_name}"), cls_name)
            fn = cls.__dict__[meth]
            undo.append((cls, meth, fn))
            setattr(cls, meth, tracer.wrap(f"{mod_name}.{meth}", fn))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# --------------------------------------------------------------- arithmetic


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals, overlaps counted once."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        inner = [(max(s, start), min(e, end)) for s, e in children.get(idx, ()) if e > start and s < end]
        out.append((end - start) - union_length(inner))
    return out


def unattributed(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Share of an op's wall interval [start, end] that none of its spans cover."""
    covered = union_length([(max(s, start), min(e, end)) for s, e in intervals if e > start and s < end])
    return 1.0 - covered / (end - start) if end > start else 0.0


def layer_metrics(tracer: Tracer, commands: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; commands[i] is op i's subcommand."""
    spans = tracer.spans
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] = calls.get(span[0], 0) + 1
        busy[span[0]] = busy.get(span[0], 0.0) + own

    def count(name, key):
        return tracer.counters.get(name, {}).get(key, 0)

    decisions = {i for i, s in enumerate(spans) if s[0] == "hall.decide_trivial_minorization"}
    scanned = sum(1 for s in spans if s[0] == "hall.max_surplus" and s[3] in decisions)
    positive = count("hall.decide_trivial_minorization", "positive")
    nbound_ops = {i for i, c in enumerate(commands) if c == "nbound"}
    sup_in_nbound = sum(1 for s in spans if s[0] == "classify.surplus_sup" and s[4] in nbound_ops)

    out = {}
    for name in ("family.window", "hall.max_matching", "hall.max_surplus", "hall.sdr_exists",
                 "classify.surplus_sup", "classify.find_tight_set", "euler.euler_class",
                 "euler.sdr_count"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("family.window", "family.expand_multiplicity", "family.parse_family",
                 "hall.max_matching", "hall.max_surplus", "hall.sdr_exists",
                 "classify.surplus_sup", "classify.classify", "dynamics.gamma_iterate",
                 "dynamics.build_transversal", "dynamics.verify_transversal",
                 "dynamics.hall_check_gamma", "dynamics.to_doc", "euler.euler_class",
                 "euler.sdr_count", "cli.main", "cli.oracle_check"):
        out[f"{name}.self_s"] = busy.get(name, 0.0)
    out["family.window.sets"] = count("family.window", "sets")
    out["family.expand_multiplicity.positions"] = count("family.expand_multiplicity", "positions")
    for key in ("left", "edges", "matched"):
        out[f"hall.max_matching.{key}"] = count("hall.max_matching", key)
    out["hall.decide.windows_scanned"] = scanned
    out["hall.scan_useful_ratio"] = positive / scanned if scanned else 0.0
    out["classify.surplus_sup.per_op"] = sup_in_nbound / len(nbound_ops) if nbound_ops else 0.0
    for key in ("entries", "distinct_terms", "term_depth_max"):
        out[f"dynamics.{key}"] = count("dynamics.gamma_iterate", key)
    out["euler.euler_class.terms"] = count("euler.euler_class", "terms")
    out["euler.sdr_count.subsets"] = count("euler.sdr_count", "subsets")
    return out
