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
orbits of one entry per layer (window 0) at depth 10^8 and at depth 10^18,
which are decided from one layer's matching,
orbits over tail blocks of 10^8 and of 10^30 identifiers (the second
dumping its assignment), which build no block, and a negative and a small
PROJCLASS_ENTRY_CAP.  Each CLI range refusal has
a case too: analyze and nbound at m = 0, classify at m-max 0, endo-sim at a
negative depth or window, and oracle-check at max-sets 0, max-ground 18 or
a negative random count.  So do an Euler coordinate 0, a fractional Euler
coefficient, each refusal of a family document's shape (not an object, a
prefix that is not an array, a tail with no kind, a constant set that is
not an array, an unknown kind, an unknown family or none-tail key, a
constant tail without its set, blocks with a = -1 or start 0), and an
orbit prefix past a finite family.  A failed request prints nothing on
stdout and exactly one `error: ` line on stderr; no request prints a
traceback.  Every case runs under conftest's budget: 512 MiB of address
space and 10 s of CPU, set in the child only.
"""

from __future__ import annotations

import json

import pytest

from conftest import cli_process, python_process, resource
from corpora import adversarial_argv, adversarial_cases
from projclass.family import parse_family
from replay import endo_sim_replays

CASES = adversarial_cases()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_adversarial_request(tmp_path, case):
    proc = cli_process(*adversarial_argv(case, tmp_path / "family.json"), env=case.get("env"))
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout) == (case["exit"], case["stdout"])
    if proc.returncode == 0:
        assert proc.stderr == ""
        if "--dump-assignment" in case["argv"]:
            fam = parse_family(json.loads(case["family"]))
            assert endo_sim_replays(case["argv"], json.loads(proc.stdout), fam)
    else:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="no address-space limit here")
def test_every_child_runs_under_the_budget():
    probe = "import resource as r; print(r.getrlimit(r.RLIMIT_AS)[0], r.getrlimit(r.RLIMIT_CPU)[0])"
    assert python_process("-c", probe).stdout.split() == [str(512 << 20), "10"]
