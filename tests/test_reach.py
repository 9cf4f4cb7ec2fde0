"""The reach gate: every def in src/projclass runs for some CLI request, or is listed.

tests/reach_probe.py runs the golden cases, the adversarial cases and the
random analyze requests through cli.main in a fresh interpreter, with a
call tracer installed before projclass is imported.  Every module-level
function and every method of a module-level class is keyed module.qualname
from the source's syntax tree, since Python 3.10's code objects carry no
qualified name.  A def that no request calls must be in UNREACHED with its
reason; otherwise delete it, or give the corpus a request that calls it.  A
listed def that a request calls, or that no longer exists, must be unlisted.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from conftest import python_process

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "projclass"

# bench/tracing.py resolves four of these by name, so they stay in src
UNREACHED = {
    "__init__.__dir__": "dir(projclass) lists the exports for library callers",
    "__init__.__getattr__": "resolves the exports for library callers; the probe loads oracle's modules before any request",
    "classify.PatternReport.to_doc": "the pattern's printer; no subcommand prints the pattern yet",
    "classify.verify_minorization_pattern": "the finite but not stably finite pattern; no subcommand runs it yet",
    "dynamics.alpha": "one orbit step on a materialized set; only gamma_iterate calls it",
    "dynamics.gamma_iterate": "materializes the orbit family as the tests' reference; the bench traces it",
    "dynamics.hall_check_gamma": "matches the materialized orbit family as the tests' reference; the bench traces it",
    "family.FiniteFamily.__len__": "without it len() of the one-field record is 1, not the number of sets",
    "family._Checked._make": "_replace goes through it, so a replaced record is checked; no request replaces one",
    "family.expand_multiplicity": "the n-fold copy the tests match at capacity 1; the bench traces it",
    "hall.Infinite.__repr__": "the exported INFINITE's repr; documents print the string infinite",
    "hall.surplus_window_bound": "the bench traces it as classify.surplus_window_bound; requests call reach",
}


def defs() -> dict[tuple[Path, int, str], str]:
    """module.qualname of every module-level def and method, by its code object's file, first line and name."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                scope, prefix = node.body, f"{path.stem}.{node.name}."
            else:
                scope, prefix = [node], f"{path.stem}."
            for fn in scope:
                if isinstance(fn, ast.FunctionDef):
                    # a decorated function's code starts at its first decorator
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    out[(path, first, fn.name)] = prefix + fn.name
    return out


def test_every_def_is_reached_or_listed():
    proc = python_process(str(TESTS / "reach_probe.py"))
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["wrong_exits"] == []
    called = {(Path(file).resolve(), line, name) for file, line, name in probe["called"]}
    sites = defs()
    unreached = {key for site, key in sites.items() if site not in called}
    unexpected = sorted(unreached - UNREACHED.keys())
    names = set(sites.values())
    reached = sorted((UNREACHED.keys() & names) - unreached)
    gone = sorted(UNREACHED.keys() - names)
    assert (unexpected, reached, gone) == ([], [], []), (
        f"unreached and not listed: {unexpected}; listed but reached: {reached}; "
        f"listed but gone: {gone}"
    )
