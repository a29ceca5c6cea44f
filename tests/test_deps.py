"""The package has no runtime dependency: every subcommand runs with numpy
blocked, no file of the package mentions it, and scipy must never load.
The package itself imports neither dataclasses nor inspect, and every
subcommand reports the same bytes under every Python version at hand. The
tests need pytest alone."""

import ast
import functools
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

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


# One fresh process imports the package and records what that loads, then
# counts the continuum series' tables its caches hold.
_IMPORT_ONLY = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "import casimir_momentum\n"
    "after = set(sys.modules)\n"
    "from casimir_momentum import quadrature\n"
    "print(json.dumps({'new': sorted(after - before), 'loaded': sorted(after),\n"
    "    'tables': [f.cache_info().currsize for f in (quadrature._kappa2_coefficients,\n"
    "        quadrature._kappa1_by_parts_coefficients,\n"
    "        quadrature._kappa1_binomial_coefficients)]}))")

# One fresh process per subcommand, with numpy and dataclasses both blocked:
# it records the modules loaded after its json report, then writes its
# report in each format to stdout and that record as the last line of stderr.
_FRESH_RUN = (
    "import json, sys\n"
    "sys.modules['numpy'] = sys.modules['dataclasses'] = None\n"
    "from casimir_momentum.cli import run\n"
    "loaded = None\n"
    "for fmt in ('json', 'csv', 'text'):\n"
    "    assert run([{subcommand!r}, '--format', fmt]) == 0, fmt\n"
    "    loaded = loaded or sorted(sys.modules)\n"
    "sys.stdout.flush()\n"
    "print(json.dumps(loaded), file=sys.stderr)")


class FreshRun(NamedTuple):
    reports: bytes      # json, csv and text, in that order
    loaded: set[str]    # sys.modules after the json report


def _fresh_run(subcommand: str) -> FreshRun:
    proc = _python(_FRESH_RUN.format(subcommand=subcommand), text=False)
    assert proc.returncode == 0, proc.stderr.decode()
    return FreshRun(proc.stdout, set(json.loads(proc.stderr.splitlines()[-1])))


@pytest.fixture(scope="module")
def imported() -> dict:
    proc = _python(_IMPORT_ONLY)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def fresh_run():
    """subcommand -> its FreshRun, one process per subcommand at most."""
    return functools.cache(_fresh_run)


def test_import_loads_only_stdlib_and_package(imported):
    new = {m.partition(".")[0] for m in imported["new"]}
    bad = new - set(sys.stdlib_module_names) - {"casimir_momentum"}
    assert not bad, sorted(bad)


def test_subcommands_run_with_numpy_blocked(fresh_run):
    for argv in ALL_RUNS:
        assert "numpy" in fresh_run(*argv).loaded, argv


def test_import_adds_neither_dataclasses_nor_inspect(imported):
    new = {"dataclasses", "inspect"} & set(imported["new"])
    assert not new, sorted(new)


def test_subcommands_run_with_dataclasses_blocked(fresh_run):
    for argv in ALL_RUNS:
        assert "dataclasses" in fresh_run(*argv).loaded, argv


_REPORTS = ("from casimir_momentum.cli import run\n"
            f"for argv in {ALL_RUNS!r}:\n"
            "    for fmt in ('json', 'csv', 'text'):\n"
            "        assert run([*argv, '--format', fmt]) == 0, argv\n")


@pytest.fixture(scope="module")
def reports_here(fresh_run) -> bytes:
    return b"".join(fresh_run(*argv).reports for argv in ALL_RUNS)


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

def _package_modules(loaded: set[str]) -> set[str]:
    return {m.rpartition(".")[2] for m in loaded if m.startswith("casimir_momentum.")}


def test_import_loads_only_the_sweep_modules(imported):
    # The library sweep imports the package and then starts its timer; the
    # modules of its sums and continuum scans must be loaded by then, and no
    # other: the sums read literal tables, not hydrogen's radial integrals.
    assert _package_modules(set(imported["loaded"])) == {"quadrature", "sums"}


def test_import_leaves_first_use_tables_empty(imported):
    # The continuum series' tables are made on first use: an import that
    # filled them would put that work before the library sweep's timer
    # starts. The Rydberg tables are literals, which an import reads but
    # does not compute, so no work moves into the import either.
    assert imported["tables"] == [0, 0, 0]
    tree = ast.parse((Path(SRC) / "casimir_momentum" / "sums.py").read_text(
        encoding="utf-8"))
    values = {target.id: node.value for node in tree.body
              if isinstance(node, ast.Assign) for target in node.targets}
    for name in ("_COEFFICIENTS", "_SUMS_TO_INFINITY"):
        assert ast.literal_eval(values[name]) == getattr(casimir_momentum.sums, name)


def test_import_and_json_budget_load_neither_csv_nor_heapq(imported, fresh_run):
    # csv serves only the csv format and heapq only the adaptive engine; the
    # budget's exact coefficients are integers in thirds, so no fractions
    # (with decimal and numbers) loads either.
    assert not {"csv", "heapq"} & set(imported["loaded"])
    loaded = {"csv", "fractions", "decimal", "numbers"} & fresh_run("budget").loaded
    assert not loaded, sorted(loaded)


def test_verify_loads_no_fractions(fresh_run):
    # verify's exact passes run on int alone; fractions, with decimal and
    # numbers, would add about 3 ms of imports to its cold run.
    loaded = {"fractions", "decimal", "numbers"} & fresh_run("verify").loaded
    assert not loaded, sorted(loaded)


# The modules a subcommand must not load; only verify loads hydrogen.
_NOT_LOADED = {
    **dict.fromkeys(("continuum", "kappas", "bethe", "polarizability"),
                    {"budget", "hydrogen", "renorm", "verify"}),
    "budget": {"hydrogen", "renorm", "verify"},
    "renorm": {"budget", "hydrogen", "verify"},
    "rho-c": {"budget", "hydrogen", "verify"},
}


@pytest.mark.parametrize("subcommand", sorted(_NOT_LOADED))
def test_subcommand_loads_only_what_it_runs(subcommand, fresh_run):
    loaded = _package_modules(fresh_run(subcommand).loaded)
    assert "cli" in loaded
    assert not loaded & _NOT_LOADED[subcommand], sorted(loaded)


def _imported_submodules(tree: ast.Module) -> set[str]:
    """The package's submodules that a module of it names in an import
    statement, relative or absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ("casimir_momentum", module)))
            paths = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        else:
            continue
        found.update(path.split(".")[1] for path in paths
                     if path.startswith("casimir_momentum."))
    return found


def test_only_verify_imports_hydrogen():
    # The radial integrals serve verify's oracles alone; the sums read
    # literal tables. No other module of the package imports hydrogen, by
    # a relative or an absolute import.
    importers = sorted(
        path.stem for path in (Path(SRC) / "casimir_momentum").glob("*.py")
        if "hydrogen" in _imported_submodules(ast.parse(path.read_text(encoding="utf-8"))))
    assert importers == ["verify"]


def test_renorm_runs_no_engine(monkeypatch):
    from casimir_momentum import quadrature, renorm
    from casimir_momentum.cli import run

    def refuse(*args, **kwargs):
        raise AssertionError("the adaptive engine ran")

    monkeypatch.setattr(quadrature, "integrate_adaptive", refuse)
    assert run(["renorm"]) == 0
    assert not hasattr(renorm, "integrate_adaptive")


# --- the package root: eager sweep exports, the rest on first access ---------

_SUBMODULES = ("quadrature", "sums", "budget", "renorm", "units")


def test_every_root_export_is_its_submodules_object():
    modules = [vars(importlib.import_module(f"casimir_momentum.{mod}"))
               for mod in _SUBMODULES]
    for name in casimir_momentum.__all__:
        owners = [module[name] for module in modules if name in module]
        assert owners, name
        assert all(getattr(casimir_momentum, name) is obj for obj in owners), name


def test_root_exports_no_oracle_name():
    # The radial records and the adaptive engine are reached through their
    # submodules: no report or sweep calls them through the root.
    for name in ("radial_record", "RadialIntegralRecord", "energy",
                 "integrate_adaptive", "integrate_to_inf", "QuadratureError"):
        assert name not in casimir_momentum.__all__, name
        assert not hasattr(casimir_momentum, name), name


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


_REPLAY = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, {bench!r})
import spec, worker
from casimir_momentum.cli import run
outs = []
for argv in sum(spec.CLI_WORKLOADS.values(), []):
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert run(argv) == 0 and '# timing:' in err.getvalue(), argv
    outs.append(worker.replay({{'argv': argv, 'report': out.buffer.getvalue().decode()}}))
outs += [worker.replay({{'sweep_seed': 1}}), worker.verify_cold()]
print(json.dumps([[o['unavailable'], o.get('serialize_matches')] for o in outs]))
"""


def test_benchmark_replay_reaches_every_layer():
    # One fresh process runs each benchmark invocation through cli.run, then
    # bench/worker.py's traced replay of its report, of the library sweep and
    # of a cold verify. A public name, argument or config key the replay
    # reads and the package lost would turn a layer null, or a serialize
    # that no longer gives the CLI's bytes would show.
    proc = _python(_REPLAY.format(bench=str(Path(SRC).parent / "bench")))
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert results == [[{}, True]] * (len(results) - 2) + [[{}, None]] * 2
