"""Run every corpus request through cli.main and print what it called.

python tests/reach_probe.py, with src on PYTHONPATH, prints one JSON object:
"called", the (file name, first line, name) of every code object that any
request called, and "wrong_exits", the requests whose exit code differs from
the corpus's.  The tracer sees call events only, and it is installed before
projclass is imported, so the modules' own code is seen too.
tests/test_reach.py runs it in a fresh interpreter.

The requests share the one process, so a call made only while a module is
first loaded would count for whichever request loads it first.  oracle's
`from . import euler, hall` asks the package for each module through its
lazy __getattr__ while that module is not loaded yet.  So the probe loads
cli (which loads hall), then euler, then oracle before the first request:
no request sees a module load, and the result does not depend on the
corpora's order.  An oracle-check process of its own does call __getattr__.
"""

import sys

called: set[tuple[str, int, str]] = set()


def _tracer(frame, event, arg):
    code = frame.f_code
    called.add((code.co_filename, code.co_firstlineno, code.co_name))


sys.settrace(_tracer)

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest.mock import patch  # noqa: E402

from corpora import (  # noqa: E402
    adversarial_argv,
    adversarial_cases,
    golden_argv,
    golden_cases,
    random_analyze_argv,
    random_analyze_cases,
)
from projclass.cli import main  # noqa: E402
import projclass.euler  # noqa: E402,F401  before oracle, which imports it from the package
import projclass.oracle  # noqa: E402,F401


def run(argv: list[str], env: dict[str, str]) -> int:
    """main's exit code for argv under env, its output discarded; an argument error is exit 2."""
    with patch.dict(os.environ, env), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


wrong = []
with tempfile.TemporaryDirectory() as tmp:
    family = Path(tmp) / "family.json"
    for case in golden_cases():
        if run(golden_argv(case), {}) != case["exit"]:
            wrong.append(case["name"])
    for case in adversarial_cases():
        if run(adversarial_argv(case, family), case.get("env", {})) != case["exit"]:
            wrong.append(case["name"])
    for i, request in enumerate(random_analyze_cases()):
        if run(random_analyze_argv(request, family), {}) != request["exit"]:
            wrong.append(f"random_analyze[{i}]")
sys.settrace(None)
print(json.dumps({"called": sorted(called), "wrong_exits": wrong}))
