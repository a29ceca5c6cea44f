"""numpy is the package's only runtime dependency, and only the radial
quadrature oracle loads it; scipy must never load. The package itself
imports neither dataclasses nor inspect, and the numpy-free subcommands
report the same bytes under every Python version at hand."""

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

# Every subcommand but verify, which runs the radial quadrature oracle.
NUMPY_FREE_RUNS = (["budget"], ["renorm"], ["rho-c"], ["continuum"],
                   ["kappas"], ["bethe"], ["polarizability"])
ALL_RUNS = NUMPY_FREE_RUNS + (["verify"],)

# Interpreters the numpy-free reports are compared across, when on PATH.
OTHER_PYTHONS = ("python3.10", "python3.12", "python3.13")


def _python(code: str, python: str = sys.executable,
            text: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([python, "-c", code], capture_output=True,
                          text=text, env=env, timeout=120)


def test_import_leaves_scipy_unloaded():
    proc = _python("import sys, casimir_momentum\n"
                   "assert 'scipy' not in sys.modules, 'scipy was imported'")
    assert proc.returncode == 0, proc.stderr


def test_subcommands_run_with_scipy_blocked():
    # A None entry makes any `import scipy...`, hidden or lazy, raise ImportError.
    proc = _python("import sys\n"
                   "sys.modules['scipy'] = None\n"
                   "from casimir_momentum.cli import run\n"
                   "assert run(['budget']) == 0\n"
                   "assert run(['polarizability', '--n-max', '100']) == 0")
    assert proc.returncode == 0, proc.stderr


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
                   f"for argv in {NUMPY_FREE_RUNS!r}:\n"
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
    # numpy, which verify loads, imports inspect but not dataclasses.
    proc = _python("import sys\n"
                   "sys.modules['dataclasses'] = None\n"
                   "from casimir_momentum.cli import run\n"
                   f"for argv in {ALL_RUNS!r}:\n"
                   "    assert run(argv) == 0, argv\n")
    assert proc.returncode == 0, proc.stderr


_REPORTS = ("from casimir_momentum.cli import run\n"
            f"for argv in {NUMPY_FREE_RUNS!r}:\n"
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


def test_pyproject_lists_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = [re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0].lower() for d in deps]
    assert names == ["numpy"]
