"""Adversarial CLI requests from tests/data/adversarial.json, each run as a process.

Each case gives its argv, where FAMILY stands for a file holding the case's
family text, optionally an env to run it under, and the exit code and
stdout it must give.  The cases are hostile shapes (nested or repeated
identifiers, empty sets, repeated JSON keys, non-decimal coordinates, stride
abuse, malformed JSON, a document nested 1000 deep, a document with two
faults, Euler bundles that are not an array of vectors, a coordinate key
with a leading zero that repeats another), integers at 2^63, 2^64 and 10^20,
a positive analyze whose reaching window passes 2^63, a printed integer, a
JSON literal and a coordinate key past Python's 4300-digit limit, an Euler
product over its work cap, an orbit of a full family (no tight set), an
orbit whose identity layer (depth 0) breaks Hall's condition, requests just
under and just over the orbit entry cap and the oracle's case cap, an orbit
of depth 10^6 over the entry cap, an orbit of depth 10^9 with no entries,
and a negative and a small PROJCLASS_ENTRY_CAP.  A failed request prints nothing on stdout and exactly
one `error: ` line on stderr; no request prints a traceback.
"""

from __future__ import annotations

import pytest

from conftest import cli_process
from corpora import adversarial_argv, adversarial_cases

CASES = adversarial_cases()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_adversarial_request(tmp_path, case):
    proc = cli_process(*adversarial_argv(case, tmp_path / "family.json"), env=case.get("env"))
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout) == (case["exit"], case["stdout"])
    if proc.returncode == 0:
        assert proc.stderr == ""
    else:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""
