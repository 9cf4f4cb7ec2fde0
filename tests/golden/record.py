"""Record the golden CLI outputs: python tests/golden/record.py

Runs every invocation in cases.json through projclass.cli.main and writes
its stdout to expected/<name>.out and its exit code into the case.  It also
writes random_analyze.json: seeded small random `analyze` requests, each
with the stdout and exit code main gives it, which pin the printed matchings
of families the named cases do not cover.  Only re-record when an output
change is intended, and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, ".."), os.path.join(HERE, "..", "..", "src")]

from corpora import golden_argv, golden_cases, random_analyze_argv  # noqa: E402
from projclass.cli import main  # noqa: E402


def run_case(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def random_analyze_requests(count: int = 300, seed: int = 2026) -> list[dict]:
    """Prefixes of up to 6 sets over up to 6 identifiers, no tail or a block tail, m and n in 1..10."""
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        g = rng.randint(1, 6)
        prefix = [sorted(rng.sample(range(1, g + 1), rng.randint(0, g))) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.5:
            tail = {"kind": "none"}
        else:
            a, b = rng.choice([(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)])
            tail = {"kind": "disjoint_blocks", "a": a, "b": b, "start": g + 1}
        family = {"prefix": prefix, "tail": tail}
        requests.append({"family": family, "m": rng.randint(1, 10), "n": rng.randint(1, 10)})
    return requests


if __name__ == "__main__":
    cases = golden_cases()
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    for case in cases:
        code, out = run_case(golden_argv(case))
        case["exit"] = code
        with open(os.path.join(HERE, "expected", case["name"] + ".out"), "w", encoding="utf-8") as fh:
            fh.write(out)
    with open(os.path.join(HERE, "cases.json"), "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join("  " + json.dumps(c) for c in cases) + "\n]\n")
    requests = random_analyze_requests()
    with tempfile.TemporaryDirectory() as tmp:
        for request in requests:
            request["exit"], request["out"] = run_case(random_analyze_argv(request, Path(tmp) / "family.json"))
    with open(os.path.join(HERE, "random_analyze.json"), "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join("  " + json.dumps(r) for r in requests) + "\n]\n")
    print(f"recorded {len(cases)} cases and {len(requests)} random analyze requests")
