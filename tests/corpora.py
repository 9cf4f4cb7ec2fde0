"""The CLI request corpora, each request given as the argv cli.main takes.

tests/golden/cases.json names its family files relative to tests/golden;
tests/data/adversarial.json writes FAMILY for a file holding the case's
family text, and may give an env to run the case under;
tests/golden/random_analyze.json holds each request's family document.  The
golden, adversarial and reach tests, and tests/golden/record.py, read the
corpora only through these loaders.  Nothing here imports projclass.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"


def _load(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))


def golden_cases() -> list[dict]:
    return _load(GOLDEN / "cases.json")


def golden_argv(case: dict) -> list[str]:
    return [str(GOLDEN / a) if a.startswith("families/") else a for a in case["argv"]]


def adversarial_cases() -> list[dict]:
    return _load(HERE / "data" / "adversarial.json")


def adversarial_argv(case: dict, family: Path) -> list[str]:
    """The case's argv with FAMILY read as family, which gets the case's family text."""
    family.write_text(case.get("family", ""), encoding="utf-8")
    return [str(family) if a == "FAMILY" else a for a in case["argv"]]


def random_analyze_cases() -> list[dict]:
    return _load(GOLDEN / "random_analyze.json")


def random_analyze_argv(request: dict, family: Path) -> list[str]:
    """The analyze argv of one random request, with its family document written to family."""
    family.write_text(json.dumps(request["family"]), encoding="utf-8")
    return ["analyze", "--family", str(family), "--m", str(request["m"]), "--n", str(request["n"])]
