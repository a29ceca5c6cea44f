"""The package has no runtime dependency: every subcommand runs with numpy
blocked, no file of the package mentions it, and scipy must never load.
The package itself imports neither dataclasses nor inspect, and every
subcommand reports the same bytes under every Python version at hand. The
tests need pytest alone."""

import ast
import importlib
import json
import os
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


def test_tests_need_only_pytest():
    # The test extra is pytest alone, and no test file imports a package
    # outside the standard library but pytest and this one, by an import
    # statement or by name (pytest.importorskip, importlib.import_module).
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        assert tomllib.load(fh)["project"]["optional-dependencies"] == {
            "test": ["pytest>=7"]}
    allowed = {*sys.stdlib_module_names, "pytest", "casimir_momentum"}
    outside = set()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None)
                  in ("importorskip", "import_module") and node.args
                  and isinstance(node.args[0], ast.Constant)):
                names = [node.args[0].value]
            else:
                continue
            outside.update((path.name, name) for name in names
                           if name.partition(".")[0] not in allowed)
    assert not outside, sorted(outside)


def test_pyproject_version_is_the_package_version():
    # Every report carries __version__ as its artifact_version.
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == casimir_momentum.__version__


def test_no_source_file_mentions_numpy():
    mentions = [str(path) for path in sorted(Path(SRC).rglob("*.py"))
                if "numpy" in path.read_text(encoding="utf-8").lower()]
    assert mentions == []


# --- what a fresh process loads ---------------------------------------------

_FOOTPRINT = ("import json, os, sys\n"
              "{code}\n"
              "print(json.dumps(sorted(m.rpartition('.')[2] for m in sys.modules\n"
              "                        if m.startswith('casimir_momentum.'))))")


def _loaded(code: str) -> set[str]:
    """The package's submodules loaded after running code in a fresh process."""
    proc = _python(_FOOTPRINT.format(code=code))
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_only_the_sweep_modules():
    # The library sweep imports the package and then starts its timer; the
    # modules of its sums and continuum scans must be loaded by then.
    assert _loaded("import casimir_momentum") == {"hydrogen", "quadrature", "sums"}


def test_import_leaves_first_use_tables_empty():
    # The continuum series' tables and the Rydberg expansion's coefficient
    # caches are made on first use: an import that filled them would put
    # that work before the library sweep's timer starts.
    proc = _python("from casimir_momentum import quadrature, sums\n"
                   "assert not any(s.table for s in (quadrature._KAPPA2,\n"
                   "    quadrature._KAPPA1_BY_PARTS, quadrature._KAPPA1_BINOMIAL))\n"
                   "assert sums._exp_minus.cache_info().currsize == 0\n"
                   "assert sums._coefficient.cache_info().currsize == 0")
    assert proc.returncode == 0, proc.stderr


def test_import_and_json_budget_load_neither_csv_nor_heapq():
    # csv serves only the csv format and heapq only the adaptive engine; the
    # budget's exact coefficients are integers in thirds, so no fractions
    # (with decimal and numbers) loads either.
    proc = _python("import os, sys\n"
                   "import casimir_momentum\n"
                   "assert not {'csv', 'heapq'} & set(sys.modules)\n"
                   "from casimir_momentum.cli import run\n"
                   "assert run(['budget', '--output', os.devnull]) == 0\n"
                   "loaded = {'csv', 'fractions', 'decimal', 'numbers'} & set(sys.modules)\n"
                   "assert not loaded, sorted(loaded)")
    assert proc.returncode == 0, proc.stderr


def test_verify_loads_no_fractions():
    # verify's exact passes run on int alone; fractions, with decimal and
    # numbers, would add about 3 ms of imports to its cold run.
    proc = _python("import os, sys\n"
                   "from casimir_momentum.cli import run\n"
                   "assert run(['verify', '--output', os.devnull]) == 0\n"
                   "loaded = {'fractions', 'decimal', 'numbers'} & set(sys.modules)\n"
                   "assert not loaded, sorted(loaded)")
    assert proc.returncode == 0, proc.stderr


# The modules a subcommand must not load.
_NOT_LOADED = {
    **dict.fromkeys(("continuum", "kappas", "bethe", "polarizability"),
                    {"budget", "renorm", "verify"}),
    "budget": {"renorm", "verify"},
    "renorm": {"budget", "verify"},
    "rho-c": {"budget", "verify"},
}


@pytest.mark.parametrize("subcommand", sorted(_NOT_LOADED))
def test_subcommand_loads_only_what_it_runs(subcommand):
    loaded = _loaded("from casimir_momentum.cli import run\n"
                     f"assert run([{subcommand!r}, '--output', os.devnull]) == 0")
    assert "cli" in loaded
    assert not loaded & _NOT_LOADED[subcommand], sorted(loaded)


def test_renorm_runs_no_engine(monkeypatch):
    from casimir_momentum import quadrature, renorm
    from casimir_momentum.cli import run

    def refuse(*args, **kwargs):
        raise AssertionError("the adaptive engine ran")

    monkeypatch.setattr(quadrature, "integrate_adaptive", refuse)
    assert run(["renorm"]) == 0
    assert not hasattr(renorm, "integrate_adaptive")


# --- the package root: eager sweep exports, the rest on first access ---------

_SUBMODULES = ("hydrogen", "quadrature", "sums", "budget", "renorm", "units")


def test_every_root_export_is_its_submodules_object():
    modules = [vars(importlib.import_module(f"casimir_momentum.{mod}"))
               for mod in _SUBMODULES]
    for name in casimir_momentum.__all__:
        owners = [module[name] for module in modules if name in module]
        assert owners, name
        assert all(getattr(casimir_momentum, name) is obj for obj in owners), name


def test_root_dir_and_star_import_list_the_lazy_names():
    lazy = set(casimir_momentum._LAZY)
    assert lazy <= set(casimir_momentum.__all__)
    assert set(casimir_momentum.__all__) <= set(dir(casimir_momentum))
    namespace: dict = {}
    exec("from casimir_momentum import *", namespace)
    assert set(casimir_momentum.__all__) <= set(namespace)


def test_root_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'casimir_momentum'.*'no_such_name'"):
        casimir_momentum.no_such_name
    assert not hasattr(casimir_momentum, "no_such_name")
    # A submodule name is not an export, so `from ... import` loads it.
    namespace: dict = {}
    exec("from casimir_momentum import budget, renorm", namespace)
    assert namespace["renorm"] is importlib.import_module("casimir_momentum.renorm")
