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

from conftest import assert_certificate_replays
from corpora import GOLDEN, golden_argv, golden_cases, random_analyze_argv, random_analyze_cases
from projclass.cli import main
from projclass.family import parse_family
from replay import endo_sim_replays

CASES = golden_cases()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(capsys, case):
    code = main(golden_argv(case))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / "expected" / f"{case['name']}.out").read_text(encoding="utf-8")


ANALYZE = [c for c in CASES if c["argv"][0] == "analyze" and c["exit"] == 0]


@pytest.mark.parametrize("case", ANALYZE, ids=[c["name"] for c in ANALYZE])
def test_printed_certificate_replays(capsys, case):
    # the JSON rendering of each analyze case (the text cases print the same
    # document), replayed against the family it was decided on
    argv = [a for a in golden_argv(case) if a not in ("--format", "text")]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    family = argv[argv.index("--family") + 1]
    fam = parse_family(json.loads(Path(family).read_text(encoding="utf-8")))
    assert_certificate_replays(fam, doc)


ORBIT_DUMPS = [c for c in CASES if "--dump-assignment" in c["argv"] and c["exit"] == 0]


@pytest.mark.parametrize("case", ORBIT_DUMPS, ids=[c["name"] for c in ORBIT_DUMPS])
def test_printed_orbit_dump_replays(capsys, case):
    # every dumped term re-derived from alpha's definition off its wire form
    argv = golden_argv(case)
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    family = argv[argv.index("--family") + 1]
    fam = parse_family(json.loads(Path(family).read_text(encoding="utf-8")))
    assert endo_sim_replays(argv, doc, fam)


def test_random_analyze_outputs(capsys, tmp_path):
    # seeded small random families (record.py): any change to a printed
    # matching outside the named cases shows up here, and each replays
    for request in random_analyze_cases():
        code = main(random_analyze_argv(request, tmp_path / "family.json"))
        out = capsys.readouterr().out
        assert (code, out) == (request["exit"], request["out"]), request
        assert_certificate_replays(parse_family(request["family"]), json.loads(out))
