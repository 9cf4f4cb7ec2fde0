"""Record the golden CLI outputs: python tests/golden/record.py

Runs every invocation in cases.json through projclass.cli.main and writes
its stdout to expected/<name>.out and its exit code into the case.  Only
re-record when an output change is intended, and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

from projclass.cli import main  # noqa: E402


def resolve(argv: list[str]) -> list[str]:
    """Family paths in cases.json are relative to this directory."""
    return [os.path.join(HERE, a) if a.startswith("families/") else a for a in argv]


def run_case(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(resolve(argv))
    return code, out.getvalue()


def load_cases() -> list[dict]:
    with open(os.path.join(HERE, "cases.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    cases = load_cases()
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    for case in cases:
        code, out = run_case(case["argv"])
        case["exit"] = code
        with open(os.path.join(HERE, "expected", case["name"] + ".out"), "w", encoding="utf-8") as fh:
            fh.write(out)
    with open(os.path.join(HERE, "cases.json"), "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join("  " + json.dumps(c) for c in cases) + "\n]\n")
    print(f"recorded {len(cases)} cases")
