import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cli_process
from projclass import cli, euler, hall, oracle
from projclass.cli import main, oracle_check
from projclass.errors import HallViolationError, OracleBoundsError, PatternNotFoundError
from projclass.euler import MultilinearPoly


@pytest.fixture
def tri_file(tmp_path):
    p = tmp_path / "triangular.json"
    p.write_text(
        '{"prefix": [], "tail": {"kind": "disjoint_blocks", "a": 1, "b": 0, "start": 1}}'
    )
    return str(p)


@pytest.fixture
def two_ones_file(tmp_path):
    p = tmp_path / "two_ones.json"
    p.write_text('{"prefix": [[1], [1]], "tail": {"kind": "none"}}')
    return str(p)


@pytest.fixture
def constant_file(tmp_path):
    p = tmp_path / "constant.json"
    p.write_text('{"prefix": [], "tail": {"kind": "constant", "set": [1]}}')
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_triangular(capsys, tri_file):
    code, out, _ = run(capsys, "classify", "--family", tri_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "non_full_stably_finite"
    assert doc["N_table"] == {"1": 1, "2": 2, "3": 4, "4": 7, "5": 11, "6": 16}
    assert doc["k"] == 0 and doc["F0"] == []


def test_classify_constant(capsys, constant_file):
    code, out, _ = run(capsys, "classify", "--family", constant_file)
    doc = json.loads(out)
    assert code == 0
    assert doc["label"] == "full_stably_properly_infinite"
    assert doc["witness_m"] == 1
    surpluses = [s for _, s in doc["surplus_samples"]]
    assert surpluses == sorted(set(surpluses))


def test_analyze_two_ones(capsys, two_ones_file):
    code, out, _ = run(capsys, "analyze", "--family", two_ones_file, "--m", "1", "--n", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["decision"] is True
    assert doc["witness_F"] == [1, 2]


@pytest.mark.parametrize(
    "exc, code, message",
    # the internal check and memory are test_internal_failures_exit_1_in_one_line's
    [
        (OracleBoundsError("too big"), 2, "too big"),
        (HallViolationError("violated"), 1, "violated"),
        (PatternNotFoundError("none"), 1, "none"),
        (json.JSONDecodeError("Expecting value", "x", 0), 2, "malformed JSON: Expecting value: line 1 column 1 (char 0)"),
        (OverflowError("huge"), 2, "a requested size does not fit in a machine integer"),
        (FileNotFoundError("gone"), 2, "gone"),
        (ValueError("bad"), 2, "bad"),
        (RecursionError(), 1, "input nests too deeply for the interpreter's recursion limit"),
        (KeyError("k"), 1, "internal error: KeyError: 'k'"),
    ],
)
def test_every_failure_is_one_line_with_its_code(capsys, monkeypatch, tri_file, exc, code, message):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "decide_trivial_minorization", fail)
    assert run(capsys, "analyze", "--family", tri_file, "--m", "1", "--n", "1") == (code, "", f"error: {message}\n")


def test_argument_error_is_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--m", "1", "--n", "1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: projclass analyze: the following arguments are required: --family\n"


def test_analyze_rejects_bad_multiplicity(capsys, tri_file):
    code, _, err = run(capsys, "analyze", "--family", tri_file, "--m", "0", "--n", "1")
    assert code == 2
    assert "m and n" in err


def test_nbound(capsys, tri_file):
    code, out, _ = run(capsys, "nbound", "--family", tri_file, "--m", "4")
    doc = json.loads(out)
    assert code == 0
    assert doc["N"] == 7
    assert doc["attained_surplus"] == 6
    assert len(doc["witness_F"]) in (3, 4)


def test_euler_square_is_zero(capsys):
    code, out, _ = run(capsys, "euler", "--bundles", "[[1],[1]]")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"terms": [], "zero": True}


def test_euler_big_coefficients_are_strings(capsys):
    code, out, _ = run(capsys, "euler", "--bundles", "[[1,2],[1,2]]")
    doc = json.loads(out)
    assert code == 0
    assert doc["terms"] == [{"coeff": "2", "monomial": [1, 2]}]


def test_euler_accepts_coefficient_maps(capsys):
    code, out, _ = run(capsys, "euler", "--bundles", '[{"1": 1}, {"1": -1}]')
    doc = json.loads(out)
    assert code == 0 and doc["zero"] is True


def test_euler_rejects_garbage(capsys):
    code, _, err = run(capsys, "euler", "--bundles", '[["x"]]')
    assert code == 2 and "positive integers" in err


def test_endo_sim_report_shape(capsys, tri_file):
    code, out, _ = run(
        capsys, "endo-sim", "--family", tri_file,
        "--depth", "2", "--window", "1", "--prefix", "3",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc == {
        "entries": 27,
        "transversal_ok": True,
        "hall_ok": True,
        "k": 0,
        "F0": [],
    }


def test_endo_sim_assignment_dump(capsys, tri_file):
    code, out, _ = run(
        capsys, "endo-sim", "--family", tri_file,
        "--depth", "1", "--window", "0", "--prefix", "1", "--dump-assignment",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["assignment"] == [
        {"path": [0], "source": 1, "term": ["nu", 0, ["base", 1]]}
    ]


def test_endo_sim_entry_cap_env(capsys, tri_file, monkeypatch):
    monkeypatch.setenv("PROJCLASS_ENTRY_CAP", "10")
    code, _, err = run(
        capsys, "endo-sim", "--family", tri_file,
        "--depth", "2", "--window", "1", "--prefix", "3",
    )
    assert code == 1
    assert "window too large" in err


@pytest.mark.parametrize("raw", ["abc", "-1", " 1_0 ", "+5", "\u0663"])
def test_endo_sim_refuses_a_non_integer_entry_cap(capsys, tri_file, monkeypatch, raw):
    # int() would take the sign, the spaces and underscore, and the Arabic-Indic three
    monkeypatch.setenv("PROJCLASS_ENTRY_CAP", raw)
    code, out, err = run(
        capsys, "endo-sim", "--family", tri_file,
        "--depth", "1", "--window", "1", "--prefix", "1",
    )
    assert (code, out) == (2, "")
    assert err == f"error: PROJCLASS_ENTRY_CAP must be a non-negative decimal integer, got {raw!r}\n"


def test_endo_sim_names_an_entry_cap_past_the_digit_limit(capsys, tri_file, monkeypatch):
    # int() alone refuses 5000 digits with a line that names no input
    monkeypatch.setenv("PROJCLASS_ENTRY_CAP", "1" * 5000)
    code, out, err = run(
        capsys, "endo-sim", "--family", tri_file,
        "--depth", "1", "--window", "1", "--prefix", "1",
    )
    assert (code, out) == (2, "")
    assert err == "error: PROJCLASS_ENTRY_CAP has 5000 digits, past Python's integer digit limit (4300 by default)\n"


def test_endo_sim_reads_a_zero_entry_cap_as_a_cap(capsys, tri_file, monkeypatch):
    monkeypatch.setenv("PROJCLASS_ENTRY_CAP", "0")
    args = ("endo-sim", "--family", tri_file, "--depth", "1", "--window", "0", "--prefix")
    assert run(capsys, *args, "0") == (0, '{"F0": [], "entries": 0, "hall_ok": true, "k": 0, "transversal_ok": true}\n', "")
    code, out, err = run(capsys, *args, "1")
    assert (code, out) == (1, "") and err.startswith("error: window too large")


def test_endo_sim_refuses_a_deep_orbit_in_one_line(capsys, tri_file):
    code, out, err = run(
        capsys, "endo-sim", "--family", tri_file,
        "--depth", "100000", "--window", "1", "--prefix", "1",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: window too large") and len(err) < 100


def test_endo_sim_full_family(capsys, constant_file):
    code, _, err = run(
        capsys, "endo-sim", "--family", constant_file,
        "--depth", "1", "--window", "1", "--prefix", "2",
    )
    assert code == 2 and "full" in err


def test_malformed_json_reports_position(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"prefix": [')
    code, _, err = run(capsys, "classify", "--family", str(p))
    assert code == 2
    assert "line" in err and "column" in err


DIGITS_5000 = "1" * 5000


@pytest.mark.parametrize(
    "command",
    [
        ("classify", "--family", "FAMILY"),
        ("euler", "--bundles", f"[[{DIGITS_5000}]]"),
        ("euler", "--bundles", f'[{{"1": {DIGITS_5000}}}]'),
    ],
    ids=["family", "support", "coefficient"],
)
def test_json_integer_literal_past_the_digit_limit_is_a_document_error(capsys, tmp_path, command):
    family = tmp_path / "long.json"
    family.write_text(f'{{"prefix": [[{DIGITS_5000}]]}}')
    code, out, err = run(capsys, *[str(family) if a == "FAMILY" else a for a in command])
    assert (code, out) == (2, "")
    assert err == "error: JSON integer literal is past Python's integer digit limit (4300 by default)\n"


def test_malformed_json_keeps_its_line_beside_the_digit_limit(capsys, tmp_path):
    # the scanner reports the first fault it reads: here the stray comma
    p = tmp_path / "broken.json"
    p.write_text(f'{{"prefix": [[1,]], "tail": {DIGITS_5000}}}')
    code, out, err = run(capsys, "classify", "--family", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed JSON: ") and len(err.splitlines()) == 1


def test_euler_names_a_coordinate_key_past_the_digit_limit(capsys):
    code, out, err = run(capsys, "euler", "--bundles", json.dumps([{DIGITS_5000: 1}]))
    assert (code, out) == (2, "")
    assert err == "error: Chern coordinate key has 5000 digits, past Python's integer digit limit (4300 by default)\n"


def test_missing_file(capsys):
    code, _, err = run(capsys, "classify", "--family", "/nonexistent/f.json")
    assert code == 2


def test_unknown_tail_kind(capsys, tmp_path):
    p = tmp_path / "odd.json"
    p.write_text('{"prefix": [], "tail": {"kind": "fibonacci"}}')
    code, _, err = run(capsys, "classify", "--family", str(p))
    assert code == 2 and "tail kind" in err


def test_text_format(capsys, tri_file):
    code, out, _ = run(capsys, "classify", "--family", tri_file, "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == 'label: "non_full_stably_finite"'
    assert any(line.strip().startswith("1: 1") for line in lines)


def test_output_is_deterministic(capsys, tri_file):
    _, first, _ = run(capsys, "classify", "--family", tri_file)
    _, second, _ = run(capsys, "classify", "--family", tri_file)
    assert first == second


def test_oracle_check_subcommand(capsys):
    code, out, _ = run(
        capsys, "oracle-check", "--max-sets", "2", "--max-ground", "2",
        "--random", "25", "--seed", "3",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["exhaustive_cases"] == 4 + 16
    assert doc["disagreements"] == 0


def test_oracle_check_bounds_guard(capsys):
    code, _, err = run(capsys, "oracle-check", "--max-sets", "8")
    assert code == 2
    assert "bounds too large" in err
    with pytest.raises(OracleBoundsError):
        oracle_check(4, 5, 0, 0)


def test_oracle_check_function_counts():
    doc = oracle_check(3, 3, 10, 1)
    assert doc["exhaustive_cases"] == 8 + 64 + 512
    assert doc["disagreements"] == 0


@pytest.fixture
def chain_file(tmp_path):
    # {1,2}, ..., {4999,5000}, {1}: one augmenting path through all positions
    p = tmp_path / "chain.json"
    p.write_text(json.dumps({"prefix": [[j, j + 1] for j in range(1, 5000)] + [[1]]}))
    return str(p)


@pytest.mark.parametrize(
    "argv",
    [
        ("nbound", "--m", "1"),
        ("analyze", "--m", "1", "--n", "1"),
        ("classify", "--m-max", "2"),
    ],
)
def test_long_chain_decides(capsys, chain_file, argv):
    code, out, err = run(capsys, argv[0], "--family", chain_file, *argv[1:])
    assert code == 0, err
    json.loads(out)


def test_long_chain_endo_sim(capsys, chain_file):
    code, out, err = run(
        capsys, "endo-sim", "--family", chain_file,
        "--depth", "0", "--window", "0", "--prefix", "3000",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["transversal_ok"] is True and doc["hall_ok"] is True


def test_closed_stdout_exits_cleanly(tmp_path):
    # the certificate of a 20000-position chain is far larger than a pipe
    # buffer, so the reader's early close hits the CLI mid-write
    p = tmp_path / "chain.json"
    p.write_text(json.dumps({"prefix": [[j, j + 1] for j in range(1, 20000)] + [[1]]}))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "projclass.cli", "analyze", "--family", str(p), "--m", "1", "--n", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture
def deep_file(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    return str(p)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("analyze", "--family", os.sep, "--m", "1", "--n", "1"), 2),
        (("analyze", "--family", "DEEP", "--m", "1", "--n", "1"), 2),
        (("euler", "--bundles", "[" * 10_000 + "]" * 10_000), 2),
        (("endo-sim", "--family", "TRI", "--depth", "400", "--window", "0", "--prefix", "1"), 0),
        (("endo-sim", "--family", "TRI", "--depth", "3000", "--window", "0", "--prefix", "1"), 0),
        (("endo-sim", "--family", "TRI", "--depth", "3000", "--window", "0", "--prefix", "1",
          "--dump-assignment"), 1),
        (("endo-sim", "--family", "TRI", "--depth", "3000", "--window", "0", "--prefix", "1",
          "--dump-assignment", "--format", "text"), 1),
    ],
    ids=["directory", "deep-family", "deep-bundles", "deep-terms", "deeper-terms",
         "deeper-terms-dump", "deeper-terms-dump-text"],
)
def test_no_traceback_on_hostile_input(deep_file, tri_file, argv, code):
    argv = [{"DEEP": deep_file, "TRI": tri_file}.get(a, a) for a in argv]
    proc = cli_process(*argv)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 0:
        # decided: one document on stdout, nothing on stderr
        assert proc.stderr == "" and proc.stdout.count("\n") == 1
        assert json.loads(proc.stdout)["transversal_ok"] is True
    else:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""


FINITE_FILE = os.path.join(os.path.dirname(__file__), "golden", "families", "finite.json")


@pytest.mark.parametrize("value", [str(10**20), str(2**64)])
@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--family", "TRI", "--m", "1", "--n"),
        ("nbound", "--family", "TRI", "--m"),
        # a finite family is matched at the full multiplicity: it must decide
        ("analyze", "--family", "FINITE", "--m", "3", "--n"),
        ("nbound", "--family", "FINITE", "--m"),
        # negative at both values: the supremum's witness is printed
        ("analyze", "--family", "TRI", "--m", str(10**41), "--n"),
    ],
)
def test_no_traceback_at_huge_integers(tri_file, argv, value):
    proc = cli_process(*[{"TRI": tri_file, "FINITE": FINITE_FILE}.get(a, a) for a in argv], value)
    assert proc.returncode in ((0,) if "FINITE" in argv else (0, 2))
    assert "Traceback" not in proc.stderr
    if proc.returncode == 0:
        assert proc.stderr == "" and proc.stdout.count("\n") == 1
    else:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""


def test_deep_terms_dump_decodes_every_wrap(tri_file):
    # depth 400 stays under the JSON encoder's nesting limit, so the dump prints
    proc = cli_process("endo-sim", "--family", tri_file, "--depth", "400", "--window", "0",
                       "--prefix", "1", "--dump-assignment")
    assert proc.returncode == 0 and proc.stderr == ""
    (item,) = json.loads(proc.stdout)["assignment"]
    term, wraps = item["term"], 0
    while term[0] == "nu":
        assert term[1] == 0
        term, wraps = term[2], wraps + 1
    assert (wraps, term) == (400, ["base", 1])


def test_euler_rejects_keys_naming_one_coordinate(capsys):
    code, out, err = run(capsys, "euler", "--bundles", '[{"1": 1, "01": 2}]')
    assert code == 2 and out == ""
    assert "'01'" in err and len(err.splitlines()) == 1


def test_euler_rejects_non_integer_keys(capsys):
    code, out, err = run(capsys, "euler", "--bundles", '[[1], {"x": 1}]')
    assert code == 2 and out == ""
    assert "'x'" in err and "invalid literal" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("key", ["1_0", " +3 ", "\u0663"], ids=["underscore", "sign-and-spaces", "arabic-indic-digit"])
def test_euler_rejects_keys_that_are_not_ascii_decimals(capsys, key):
    # int() takes all three, as 10, 3 and 3
    code, out, err = run(capsys, "euler", "--bundles", json.dumps([{key: 1}]))
    assert code == 2 and out == ""
    assert repr(key) in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command",
    [
        ("euler", "--bundles", '[{"1": 1, "1": 2}]'),
        ("classify", "--family", "DUP"),
    ],
    ids=["euler-bundle", "family-prefix"],
)
def test_json_objects_with_a_repeated_key_are_rejected(capsys, tmp_path, command):
    # json.loads alone keeps the last value: 2*x1, and the family's second prefix
    dup = tmp_path / "dup.json"
    dup.write_text('{"prefix": [[1]], "prefix": [[1], [1]]}')
    code, out, err = run(capsys, *[str(dup) if a == "DUP" else a for a in command])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "repeats the key" in err
    assert len(err.splitlines()) == 1


def test_oracle_check_rejects_negative_random(capsys):
    code, out, err = run(capsys, "oracle-check", "--random", "-5")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    with pytest.raises(OracleBoundsError):
        oracle_check(2, 2, -1, 0)


def test_oracle_check_refuses_a_huge_ground_before_sizing_it(capsys):
    # (2 ** max_ground) ** s is never formed: at 10 ** 12 it could not be
    code, out, err = run(
        capsys, "oracle-check", "--max-sets", "1", "--max-ground", "1000000000000"
    )
    assert code == 2 and out == ""
    assert "bounds too large" in err
    with pytest.raises(OracleBoundsError):
        oracle_check(1, 18, 0, 0)


def test_oracle_check_refuses_work_past_the_cap_without_running(monkeypatch):
    # any case run would fail, on the walk or at random
    monkeypatch.setattr(oracle, "_four_way_agree", None)
    monkeypatch.setattr(oracle, "_walk", None)
    for bounds in ((1, 17, 0, 0), (1, 13, 0, 0), (2, 8, 0, 0), (3, 5, 500_000, 0)):
        with pytest.raises(OracleBoundsError, match="bounds too large"):
            oracle_check(*bounds)


def test_oracle_check_accepts_the_benchmark_and_readme_bounds(monkeypatch):
    # bounds only: the walk lists no case and every random one agrees
    monkeypatch.setattr(oracle, "_four_way_agree", lambda sets: True)
    monkeypatch.setattr(oracle, "_walk", lambda max_sets, max_ground: iter(()))
    for bounds in ((5, 3, 0, 0), (3, 5, 2000, 0), (3, 3, 1000, 1), (1, 12, 0, 0)):
        assert oracle_check(*bounds)["disagreements"] == 0


def test_euler_refuses_work_past_the_cap_without_multiplying(capsys, monkeypatch):
    # 20 copies of one 20-coordinate bundle estimate 20 * (2^20 - 1) pairs;
    # any multiply would fail
    monkeypatch.setattr(euler, "times_form", None)
    assert main(["euler", "--bundles", json.dumps([list(range(1, 21))] * 20)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: Euler product too large: its estimated work passes the cap\n"
    assert euler.product_work([{i: 1 for i in range(1, 19)}] * 18, 18) <= euler.EULER_WORK_CAP


def test_euler_refuses_a_product_that_would_vanish_early(monkeypatch):
    # [1] twice makes the product zero, and the fold would stop there, but
    # the estimate counts the 20 copies of [1..20] after it
    monkeypatch.setattr(euler, "times_form", None)
    bundles = [{1: 1}] * 2 + [{i: 1 for i in range(1, 21)}] * 20
    assert euler.product_work(bundles, 20) > euler.EULER_WORK_CAP
    with pytest.raises(OracleBoundsError, match="estimated work passes the cap"):
        euler.euler_class(bundles)


@pytest.mark.parametrize(
    "error, message",
    [
        (AssertionError("matching reported as maximum"), "error: internal check failed: matching"),
        (MemoryError(), "error: out of memory"),
    ],
)
def test_internal_failures_exit_1_in_one_line(capsys, monkeypatch, error, message):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_euler", fail)
    code, out, err = run(capsys, "euler", "--bundles", "[[1]]")
    assert code == 1 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


def frozenset_sweep(sets):
    """The subset sweep over frozensets that _subset_sweep replaced."""
    positions = list(sets)
    for mask in range(1, 1 << len(positions)):
        chosen = [positions[i] for i in range(len(positions)) if mask >> i & 1]
        if len(chosen) > len(frozenset().union(*chosen)):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(
    sets=st.lists(
        st.frozensets(st.integers(1, 6) | st.sampled_from([-1, 0, 2**70]), max_size=5),
        max_size=7,
    ).map(tuple)
)
def test_subset_sweep_equals_the_frozenset_sweep(sets):
    assert oracle._subset_sweep(sets) == frozenset_sweep(sets)


@pytest.mark.parametrize(
    "route, lie",
    [
        ("sdr_exists", lambda real: lambda fam: not real(fam)),
        (
            "euler_class",
            lambda real: lambda vs: MultilinearPoly({} if real(vs) else {frozenset(): 1}),
        ),
        ("sdr_count", lambda real: lambda fam: 0 if real(fam) else 1),
        ("_subset_sweep", lambda real: lambda sets: not real(sets)),
    ],
)
def test_oracle_check_consults_every_route(monkeypatch, route, lie):
    # the route's place among the walk's verdicts, and the module the random
    # cases read it from
    index, module = {
        "sdr_exists": (0, hall), "euler_class": (1, euler), "sdr_count": (2, euler),
        "_subset_sweep": (3, oracle),
    }[route]
    assert oracle_check(2, 2, 0, 0)["disagreements"] == 0
    with monkeypatch.context() as patch:
        patch.setattr(module, route, lie(getattr(module, route)))
        # the 2 exhaustive cases run on the walk, the 30 random ones per
        # case; over one element they repeat, and every draw still counts
        assert oracle_check(1, 1, 30, 5)["disagreements"] == 30
    verdicts = oracle._verdicts

    def walk_lie(node, below):
        out = list(verdicts(node, below))
        out[index] ^= (1 << len(below)) - 1  # every child's answer flipped
        return tuple(out)

    monkeypatch.setattr(oracle, "_verdicts", walk_lie)
    doc = oracle_check(2, 2, 0, 0)
    assert doc["disagreements"] == 4 + 16
    # the first five in itertools.product order, although the walk is depth first
    first = ([[]], [[1]], [[2]], [[1, 2]], [[], []])
    assert doc["counterexamples"] == [{"sets": sets} for sets in first]
