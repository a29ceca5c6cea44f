"""The package has no runtime dependency: every subcommand runs with numpy
blocked, no file of the package mentions it, and scipy must never load.
The package itself imports neither dataclasses nor inspect, and every
subcommand reports the same bytes under every Python version at hand."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import casimir_momentum

SRC = str(Path(casimir_momentum.__file__).resolve().parent.parent)
PYPROJECT = Path(SRC).parent / "pyproject.toml"

ALL_RUNS = (["budget"], ["renorm"], ["rho-c"], ["continuum"], ["kappas"],
            ["bethe"], ["polarizability"], ["verify"])

# Interpreters the reports are compared across, when on PATH.
OTHER_PYTHONS = ("python3.10", "python3.12", "python3.13")


def _python(code: str, python: str = sys.executable,
            text: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([python, "-c", code], capture_output=True,
                          text=text, env=env, timeout=120)


def test_import_loads_only_stdlib_and_package():
    proc = _python("import sys\n"
                   "before = set(sys.modules)\n"
                   "import casimir_momentum\n"
                   "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
                   "bad = new - set(sys.stdlib_module_names) - {'casimir_momentum'}\n"
                   "assert not bad, sorted(bad)")
    assert proc.returncode == 0, proc.stderr


def test_subcommands_run_with_numpy_blocked():
    proc = _python("import sys\n"
                   "sys.modules['numpy'] = None\n"
                   "from casimir_momentum.cli import run\n"
                   f"for argv in {ALL_RUNS!r}:\n"
                   "    assert run(argv) == 0, argv\n")
    assert proc.returncode == 0, proc.stderr


def test_import_adds_neither_dataclasses_nor_inspect():
    proc = _python("import sys\n"
                   "before = set(sys.modules)\n"
                   "import casimir_momentum\n"
                   "new = {'dataclasses', 'inspect'} & (set(sys.modules) - before)\n"
                   "assert not new, sorted(new)")
    assert proc.returncode == 0, proc.stderr


def test_subcommands_run_with_dataclasses_blocked():
    proc = _python("import sys\n"
                   "sys.modules['dataclasses'] = None\n"
                   "from casimir_momentum.cli import run\n"
                   f"for argv in {ALL_RUNS!r}:\n"
                   "    assert run(argv) == 0, argv\n")
    assert proc.returncode == 0, proc.stderr


_REPORTS = ("from casimir_momentum.cli import run\n"
            f"for argv in {ALL_RUNS!r}:\n"
            "    for fmt in ('json', 'csv', 'text'):\n"
            "        assert run([*argv, '--format', fmt]) == 0, argv\n")


@pytest.fixture(scope="module")
def reports_here() -> bytes:
    proc = _python(_REPORTS, text=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", OTHER_PYTHONS)
def test_reports_identical_across_python_versions(name, reports_here):
    python = shutil.which(name)
    # A found name may still not run, e.g. a version-manager shim for a
    # version that is not selected.
    if python is None or _python("pass", python).returncode != 0:
        pytest.skip(f"no runnable {name} on PATH")
    proc = _python(_REPORTS, python, text=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == reports_here


def test_pyproject_has_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


def test_pyproject_lists_only_numpy():
    # Beside the test runners, numpy is the one package named, and only in
    # the test extra (the budget and quadrature tests use it).
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    lists = {"": project["dependencies"], **project["optional-dependencies"]}
    named = {extra: [re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0].lower()
                     for d in deps if not d.startswith(("pytest", "hypothesis"))]
             for extra, deps in lists.items()}
    assert {extra: names for extra, names in named.items() if names} == \
        {"test": ["numpy"]}


def test_no_source_file_mentions_numpy():
    mentions = [str(path) for path in sorted(Path(SRC).rglob("*.py"))
                if "numpy" in path.read_text(encoding="utf-8").lower()]
    assert mentions == []
