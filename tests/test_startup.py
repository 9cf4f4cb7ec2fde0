"""What each process loads: the package on import, each subcommand when run.

Every check runs in a fresh interpreter, since this one has imported
everything already, and without the site hooks, whose imports vary by
installation.
"""

import json
import os
import subprocess
import sys

import pytest

import projclass

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# run the CLI in-process, then print the loaded modules as the last line
PROBE = """
import json, sys
from projclass.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
"""


def loaded(code: str, *argv: str) -> set[str]:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def submodules(modules: set[str]) -> set[str]:
    return {m.removeprefix("projclass.") for m in modules if m.startswith("projclass.")}


def test_importing_the_package_loads_no_module():
    modules = loaded("import json, sys, projclass; print(json.dumps(sorted(sys.modules)))")
    assert "projclass" in modules
    assert submodules(modules) == set()


@pytest.fixture
def fam_file(tmp_path):
    p = tmp_path / "fam.json"
    tail = '{"kind": "disjoint_blocks", "a": 1, "b": 0, "start": 3}'
    p.write_text(f'{{"prefix": [[1], [1, 2]], "tail": {tail}}}')
    return str(p)


# the modules each subcommand must not load
DECIDERS = {"classify", "dynamics"}
ORACLES = {"euler", "oracle", "random"}
NOT_LOADED = {
    "analyze": DECIDERS | ORACLES,
    "nbound": DECIDERS | ORACLES,
    "euler": DECIDERS | {"oracle", "random"},
    "oracle-check": DECIDERS,
    "classify": {"dynamics"} | ORACLES,
    "endo-sim": ORACLES,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--family", "FAM", "--m", "1", "--n", "2"],
        ["nbound", "--family", "FAM", "--m", "2"],
        ["euler", "--bundles", "[[1], [1, 2]]"],
        ["oracle-check", "--max-sets", "2", "--max-ground", "2"],
        ["classify", "--family", "FAM"],
        ["endo-sim", "--family", "FAM", "--depth", "1", "--window", "1", "--prefix", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_subcommands_load_only_what_they_run(fam_file, argv):
    modules = loaded(PROBE, *[fam_file if a == "FAM" else a for a in argv])
    assert "dataclasses" not in modules
    # random is the standard library's; the others are projclass submodules
    assert not NOT_LOADED[argv[0]] & (submodules(modules) | {"random"} & modules)


def test_every_exported_name_resolves():
    for name in projclass.__all__:
        assert getattr(projclass, name) is not None
        assert name in dir(projclass)
    with pytest.raises(AttributeError):
        projclass.no_such_name


def test_the_classify_submodule_does_not_shadow_the_function():
    code = (
        "import json, sys, projclass.dynamics, projclass; "
        "from projclass import classify; "
        "assert classify is projclass.classify is sys.modules['projclass.classify'].classify; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert "classify" in submodules(loaded(code))
