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
from projclass.cli import main
from projclass.family import parse_family

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_output(capsys, case):
    argv = [str(GOLDEN / a) if a.startswith("families/") else a for a in case["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / "expected" / f"{case['name']}.out").read_text(encoding="utf-8")


ANALYZE = [c for c in CASES if c["argv"][0] == "analyze" and c["exit"] == 0]


@pytest.mark.parametrize("case", ANALYZE, ids=[c["name"] for c in ANALYZE])
def test_printed_certificate_replays(capsys, case):
    # the JSON rendering of each analyze case (the text cases print the same
    # document), replayed against the family it was decided on
    argv = [a for a in case["argv"] if a not in ("--format", "text")]
    family = GOLDEN / argv[argv.index("--family") + 1]
    assert main([str(family) if a.startswith("families/") else a for a in argv]) == 0
    doc = json.loads(capsys.readouterr().out)
    fam = parse_family(json.loads(family.read_text(encoding="utf-8")))
    assert_certificate_replays(fam, doc)


RANDOM_ANALYZE = json.loads((GOLDEN / "random_analyze.json").read_text(encoding="utf-8"))


def test_random_analyze_outputs(capsys, tmp_path):
    # seeded small random families (record.py): any change to a printed
    # matching outside the named cases shows up here, and each replays
    family = tmp_path / "family.json"
    for request in RANDOM_ANALYZE:
        family.write_text(json.dumps(request["family"]), encoding="utf-8")
        code = main(["analyze", "--family", str(family), "--m", str(request["m"]), "--n", str(request["n"])])
        out = capsys.readouterr().out
        assert (code, out) == (request["exit"], request["out"]), request
        assert_certificate_replays(parse_family(request["family"]), json.loads(out))
