"""Command line front end.

Subcommands map one-to-one onto the library deciders; every command reads a
family document (or inline JSON), runs exactly one decision, and prints one
JSON object with the certificate embedded.  Output is byte-deterministic for
a given input and seed.

Exit codes: 0 on success, 1 when the oracles disagree.  A failed request
prints nothing on stdout, because main renders the whole document before it
writes any of it, and one `error: ` line on stderr; _failure gives its code.
A package error carries its own (errors.py).  Argument errors, malformed
JSON, unreadable files, sizes past a machine integer and other ValueErrors,
such as a printed integer past 4300 digits, exit 2.  Running out of memory,
nesting past the recursion limit, a failed internal check, any other
exception, and stdout closed before the document is written exit 1.

The orbit entry cap honours the PROJCLASS_ENTRY_CAP environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn, Sequence

from .errors import FamilyFormatError, ProjclassError
from .family import ProjectionFamily, index_set, parse_family
from .hall import SurplusProfile, decide_trivial_minorization

# classify, dynamics, euler and oracle are imported by the subcommands that
# use them, so the other subcommands never load them.


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads keeps the last of a repeated key, which would decide a
    # document other than the one written
    doc: dict[str, object] = {}
    for key, value in pairs:
        if key in doc:
            raise FamilyFormatError(f"JSON object repeats the key {key!r}")
        doc[key] = value
    return doc


_DIGIT_LIMIT = "Python's integer digit limit (4300 by default)"


def _loads(text: str) -> object:
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise json.JSONDecodeError("arrays or objects nested too deeply", text, 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # the scanner's int() refuses a literal past the interpreter's digit
        # limit with a line that names no input
        raise FamilyFormatError(f"JSON integer literal is past {_DIGIT_LIMIT}") from None


def _load_family(path: str) -> ProjectionFamily:
    with open(path, encoding="utf-8") as fh:
        return parse_family(_loads(fh.read()))


def _render_text(doc: dict | list, indent: int = 0) -> list[str]:
    """One line per entry: `key: value` in a dict, `- value` in a list.

    An entry whose value is a nonempty dict, or a list holding a nonempty
    dict or list, gets a line of its own and its entries below, indented.
    """
    pad = "  " * indent
    if isinstance(doc, dict):
        pairs = ((f"{key}:", value) for key, value in doc.items())
    else:
        pairs = (("-", value) for value in doc)
    lines: list[str] = []
    for head, value in pairs:
        if isinstance(value, (dict, list)) and value and not _is_flat(value):
            lines.append(f"{pad}{head}")
            lines.extend(_render_text(value, indent + 1))
        else:
            lines.append(f"{pad}{head} {_flat(value)}")
    return lines


def _is_flat(value: object) -> bool:
    return isinstance(value, list) and all(
        not isinstance(v, (dict, list)) or not v for v in value
    )


def _flat(value: object) -> str:
    return json.dumps(value, sort_keys=True)


def _render(doc: dict, fmt: str) -> str:
    if fmt == "text":
        return "\n".join(_render_text(doc))
    return json.dumps(doc, sort_keys=True)


def cmd_analyze(args) -> tuple[dict, int]:
    fam = _load_family(args.family)
    decision = decide_trivial_minorization(fam, args.m, args.n)
    return decision.to_doc(), 0


def cmd_classify(args) -> tuple[dict, int]:
    from .classify import classify

    fam = _load_family(args.family)
    return classify(fam, args.m_max).to_doc(), 0


def cmd_nbound(args) -> tuple[dict, int]:
    fam = _load_family(args.family)
    profile = SurplusProfile(fam, args.m)
    sup = profile.sup()
    if sup.window is None:
        return {"m": args.m, "N": "infinite", "unbounded_reason": sup.reason}, 0
    # N(m) = 1 + supremum, as in compute_N, from the one supremum computed here
    return {
        "m": args.m,
        "N": sup.value + 1,
        "window": sup.window,
        "witness_F": list(profile.witness(sup.window)),
        "attained_surplus": sup.value,
    }, 0


def cmd_euler(args) -> tuple[dict, int]:
    from .euler import euler_class, indicator_vector

    bundles_doc = _loads(args.bundles)
    if not isinstance(bundles_doc, list):
        raise FamilyFormatError("bundles must be a JSON array of Chern vectors")
    bundles = []
    for entry in bundles_doc:
        if isinstance(entry, list):
            bundles.append(indicator_vector(index_set(entry)))
        elif isinstance(entry, dict):
            bundles.append(_coefficient_map(entry))
        else:
            raise FamilyFormatError(f"bundle must be an array or an object, got {entry!r}")
    poly = euler_class(bundles)
    return {"terms": poly.to_doc(), "zero": not poly}, 0


def _coefficient_map(entry: dict) -> dict[int, object]:
    """Integer coordinates for the string keys of a JSON coefficient map.

    Only plain ASCII decimal keys are coordinates (_decimal).  Keys naming the
    same coordinate ("1" and "01") are rejected rather than silently merged,
    as index_set rejects duplicate members.
    """
    out: dict[int, object] = {}
    for key, c in entry.items():
        i = _decimal(key, "Chern coordinate key")
        if i in out:
            raise FamilyFormatError(f"Chern coordinate {key!r} repeats coordinate {i}")
        out[i] = c
    return out


def _decimal(text: str, name: str) -> int:
    """The non-negative integer that text writes in plain ASCII decimal digits.

    int() would also take signs, spaces, underscores and other scripts'
    digits, and it refuses text past the interpreter's digit limit with a
    line that names no input; both refusals here name the input.
    """
    if not (text.isascii() and text.isdecimal()):
        raise ValueError(f"{name} must be a non-negative decimal integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # digits only, so the digit limit is the one refusal left
        raise ValueError(f"{name} has {len(text)} digits, past {_DIGIT_LIMIT}") from None


def cmd_endo_sim(args) -> tuple[dict, int]:
    from .dynamics import DEFAULT_ENTRY_CAP, simulate

    fam = _load_family(args.family)
    raw = os.environ.get("PROJCLASS_ENTRY_CAP", str(DEFAULT_ENTRY_CAP))
    report = simulate(fam, args.depth, args.window, args.prefix, _decimal(raw, "PROJCLASS_ENTRY_CAP"))
    doc = report.to_doc()
    if args.dump_assignment:
        doc["assignment"] = report.transversal.to_doc()
    return doc, 0


def cmd_oracle_check(args) -> tuple[dict, int]:
    doc = oracle_check(args.max_sets, args.max_ground, args.random, args.seed)
    return doc, 0 if doc["disagreements"] == 0 else 1


def oracle_check(max_sets: int, max_ground: int, random_cases: int, seed: int) -> dict:
    """The oracle cross-check of projclass.oracle, loaded on first use."""
    from .oracle import oracle_check as check

    return check(max_sets, max_ground, random_cases, seed)


class _Parser(argparse.ArgumentParser):
    """An argument error is one `error:` line and exit 2, as any refused request."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="projclass",
        description="Exact deciders for diagonal projection families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    p = add("analyze", cmd_analyze, "decide m trivial summands under n copies")
    p.add_argument("--family", required=True, help="path to a family JSON document")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("classify", cmd_classify, "full vs non-full dichotomy with certificate")
    p.add_argument("--family", required=True)
    p.add_argument("--m-max", dest="m_max", type=int, default=6)

    p = add("nbound", cmd_nbound, "least trivial count that does not fit under m copies")
    p.add_argument("--family", required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("euler", cmd_euler, "Euler class of a sum of line bundles")
    p.add_argument("--bundles", required=True, help="JSON array of supports or coefficient maps")

    p = add("endo-sim", cmd_endo_sim, "orbit transversal simulation")
    p.add_argument("--family", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--prefix", type=int, required=True)
    p.add_argument("--dump-assignment", action="store_true")

    p = add("oracle-check", cmd_oracle_check, "cross-check the oracles on small families")
    p.add_argument("--max-sets", dest="max_sets", type=int, default=3)
    p.add_argument("--max-ground", dest="max_ground", type=int, default=3)
    p.add_argument("--random", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and the one-line message of a request that raised exc."""
    if isinstance(exc, ProjclassError):
        return exc.exit_code, str(exc)
    if isinstance(exc, json.JSONDecodeError):
        return 2, f"malformed JSON: {exc}"
    if isinstance(exc, OverflowError):
        # a requested count or multiplicity sized a range or tuple past ssize_t
        return 2, "a requested size does not fit in a machine integer"
    if isinstance(exc, (OSError, ValueError)):
        return 2, str(exc)
    if isinstance(exc, MemoryError):
        return 1, "out of memory"
    if isinstance(exc, RecursionError):
        # a computation, or a dumped orbit term the renderers recurse through
        return 1, "input nests too deeply for the interpreter's recursion limit"
    if isinstance(exc, AssertionError):
        return 1, f"internal check failed: {exc}"
    return 1, f"internal error: {type(exc).__name__}: {exc}"


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, code = args.handler(args)
        text = _render(doc, args.format)
    except Exception as exc:
        code, message = _failure(exc)
        print(f"error: {message}", file=sys.stderr)
        return code
    try:
        print(text)
    except BrokenPipeError:
        # the reader went away; send what is still buffered to the null
        # device so that the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the output was written", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
