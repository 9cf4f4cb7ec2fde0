"""Byte-exact CLI outputs frozen in tests/golden.

Each case in tests/golden/cases.json is one CLI invocation; its stdout must
equal tests/golden/expected/<name>.out byte for byte and its exit code must
match.  The outputs embed full certificates (windows, witnesses, matchings),
so any change to how the engine reaches an answer shows up here.  Re-record
with `python tests/golden/record.py` only for an intended output change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from projclass.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(capsys, case):
    argv = [str(GOLDEN / a) if a.startswith("families/") else a for a in case["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / "expected" / f"{case['name']}.out").read_text(encoding="utf-8")
