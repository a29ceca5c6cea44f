import contextlib
import csv
import io
import json
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from casimir_momentum import quadrature, sums, verify
from casimir_momentum.cli import (SUBCOMMANDS, ReportEnvelope, RunConfig,
                                  build_parser, run, serialize)
from casimir_momentum.quadrature import QuadratureSpec
from casimir_momentum.renorm import PlasmaCutoffWarning

BASE = [sys.executable, "-m", "casimir_momentum"]


def _run(*args):
    """cli.run(args) in-process, with its exit code and stdout and stderr bytes."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(args))
    out.flush()
    return subprocess.CompletedProcess(args, code, out.buffer.getvalue(),
                                       err.getvalue().encode())


def _run_process(*args):
    """`python -m casimir_momentum` with args, as a fresh process."""
    return subprocess.run(BASE + list(args), capture_output=True)


def test_kappas_json_contents():
    proc = _run("kappas", "--n-max", "60", "--tail", "on", "--ymin", "1.0",
                "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    res = payload["results"]
    assert res["kappa1_discrete"]["value"] == pytest.approx(0.21, abs=0.005)
    assert res["kappa2_discrete"]["value"] == pytest.approx(0.0796, abs=0.001)
    assert res["kappa1_continuum"]["value"] == pytest.approx(9.3e-3, rel=0.02)
    assert res["kappa2_continuum"]["value"] == pytest.approx(0.018, rel=0.05)
    assert res["kappa1_total"]["value"] == pytest.approx(0.22, abs=0.01)
    assert res["kappa2_total"]["value"] == pytest.approx(0.098, abs=0.005)
    # Config echo materializes every default that influenced a number.
    for key in ("n_max", "tail", "ymin", "ymin2", "rel_tol", "abs_tol",
                "format", "subcommand"):
        assert key in payload["config"]
    assert payload["config"]["ymin2"] == 1.0
    assert proc.stdout.endswith(b"\n")
    assert b"timing" in proc.stderr


def test_byte_identical_repeated_runs():
    a = _run_process("kappas", "--n-max", "40", "--format", "json")
    b = _run_process("kappas", "--n-max", "40", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_config_dump_and_load_round_trip(tmp_path):
    # rho-c's dump holds "l_min": null and "omega_max": null, which an
    # optional parameter accepts.
    cfg_path = tmp_path / "cfg.json"
    for argv in (("kappas", "--n-max", "40"), ("rho-c",)):
        dump = _run(*argv, "--config-dump")
        assert dump.returncode == 0
        cfg_path.write_bytes(dump.stdout)
        direct = _run(*argv, "--format", "json")
        loaded = _run(argv[0], "--config-load", str(cfg_path))
        assert loaded.returncode == 0
        assert loaded.stdout == direct.stdout


def test_config_load_flag_override(tmp_path):
    dump = _run("kappas", "--n-max", "40", "--config-dump")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(dump.stdout)
    overridden = _run("kappas", "--config-load", str(cfg_path), "--n-max", "50")
    payload = json.loads(overridden.stdout)
    assert payload["config"]["n_max"] == 50


def test_output_file(tmp_path):
    out = tmp_path / "report.json"
    proc = _run("kappas", "--n-max", "40", "--output", str(out))
    assert proc.returncode == 0
    assert proc.stdout == b""
    payload = json.loads(out.read_bytes())
    assert "results" in payload


def test_unwritable_output_path(tmp_path):
    proc = _run("kappas", "--n-max", "40", "--output",
                str(tmp_path / "no" / "such" / "dir" / "x.json"))
    assert proc.returncode == 2


def test_csv_kappas_rows_and_provenance():
    proc = _run("kappas", "--n-max", "40", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout.decode())))
    assert rows[0] == ["quantity", "value", "error", "provenance"]
    assert len(rows) - 1 >= 4
    quantities = {r[0] for r in rows[1:]}
    for name in ("kappa1_discrete", "kappa2_discrete", "kappa1_continuum",
                 "kappa2_continuum"):
        assert name in quantities
    by_name = {r[0]: r for r in rows[1:]}
    assert "sum I1(n) I3(n)" in by_name["kappa1_discrete"][3]
    assert "sum I2(n) I3(n)" in by_name["kappa2_discrete"][3]


def test_budget_zero_q_kinetic_items_zero():
    proc = _run("budget", "--E0", "1e5,0,0", "--B0", "0,1,0", "--Q0", "0,0,0")
    assert proc.returncode == 0
    res = json.loads(proc.stdout)["results"]
    assert res["kinetic"]["value"] == [0.0, 0.0, 0.0]
    assert res["kinetic_correction"]["value"] == [0.0, 0.0, 0.0]
    assert res["abraham"]["value"][2] != 0.0
    assert res["casimir_correction"]["value"][2] != 0.0
    assert res["relativistic_net"]["value"] == 1.0


# (argv, the flag the refusal names). Each flag's rule is checked only by its
# Param: the records the handlers build do not check it again.
REFUSALS = [
    (["kappas", "--n-max", "1"], "--n-max"),
    (["kappas", "--ymin", "-1"], "--ymin"),
    (["budget", "--E0", "1,2"], "--E0"),
    (["continuum", "--ymin-grid", "2,1"], "--ymin-grid"),
    (["rho-c", "--model", "free-electron", "--n-e", "-1"], "--n-e"),
    (["rho-c", "--eps-r", "1"], "--eps-r"),
    (["rho-c", "--model", "dispersionless", "--eps-r", "0.5"], "--eps-r"),
    (["rho-c", "--n-e", "0"], "--n-e"),
    (["rho-c", "--l-min", "0"], "--l-min"),
    (["rho-c", "--omega-max", "0"], "--omega-max"),
    (["kappas", "--abs-tol", "0"], "--abs-tol"),
    (["continuum", "--rel-tol", "-1"], "--rel-tol"),
    (["budget", "--Q0", "1,2,3,4"], "--Q0"),
]


def test_validation_exit_codes():
    for argv, flag in REFUSALS:
        proc = _run(*argv)
        assert (proc.returncode, proc.stdout) == (2, b""), argv
        assert flag.encode() in proc.stderr, (argv, proc.stderr)


def test_renorm_overflowing_cutoff_exit_2(capsys):
    # In-process: an overflowing cutoff is refused naming its flag, before
    # delta_mass refuses it with a message that names none.
    for flag in ("--cutoff-ratio", "--big-ratio"):
        for value in ("1e300", "inf"):
            assert run(["renorm", flag, value]) == 2
            assert flag[2:] in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["budget", "--E0", "nan,0,0"], "--E0"),
    (["budget", "--B0", "0,inf,0"], "--B0"),
    (["budget", "--kappa1", "nan"], "--kappa1"),
    (["bethe", "--log-value", "nan"], "--log-value"),
    (["rho-c", "--omega-max", "inf"], "--omega-max"),
    (["kappas", "--ymin", "inf"], "--ymin"),
    (["continuum", "--ymin-grid", "0,-inf"], "ymin-grid"),
    (["continuum", "--ymin-grid", "0,nan"], "ymin-grid"),
])
def test_non_finite_input_exit_2(capsys, argv, flag):
    # In-process: refused before any computation, so no late JSON failure
    # and no warning (an error under this suite's filter).
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert flag in err and "finite" in err


@pytest.mark.parametrize("argv, flag", [
    (["rho-c", "--omega-max", "1e300"], "--omega-max"),
    (["rho-c", "--model", "dispersionless", "--l-min", "1e-300"], "--l-min"),
    (["kappas", "--ymin", "1e300"], "--ymin"),
    (["kappas", "--ymin2", "1e7"], "--ymin2"),
    (["continuum", "--ymin-grid", "0,1e300"], "--ymin-grid"),
    (["budget", "--E0", "1e200,0,0", "--B0", "0,1e200,0"], "--E0"),
    (["budget", "--kappa1", "1e300"], "--kappa1"),
    (["rho-c", "--omega-max", "1e-300"], "--omega-max"),
    (["rho-c", "--l-min", "1e300"], "--l-min"),
    (["rho-c", "--n-e", "1e-300", "--fit-exponent", "off"], "--n-e"),
    (["rho-c", "--n-e", "1e-280", "--fit-exponent", "off"], "--n-e"),
    (["renorm", "--cutoff-ratio", "1e71"], "--cutoff-ratio"),
])
def test_large_finite_input_exit_2(capsys, argv, flag):
    # In-process: a finite value that would overflow, underflow the rho-c
    # mass density to 0, or make a self-mass reach its mass, is refused with
    # its flag named, before any warning (an error in this suite).
    assert run(argv) == 2
    assert flag in capsys.readouterr().err


def test_plasma_cutoff_warns_once(capsys):
    # One condition, one warning: the exponent fit's sweep adds none, and a
    # density refused as underflowing (exit 2) warns about no model.
    for argv, code, count in ((["rho-c", "--omega-max", "1e10"], 0, 1),
                              (["rho-c", "--omega-max", "1e-300"], 2, 0),
                              (["rho-c", "--l-min", "1e300"], 2, 0)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == code
        capsys.readouterr()
        assert [w.category for w in caught] == [PlasmaCutoffWarning] * count


@pytest.mark.parametrize("value", ["100001", "100000000", "1e8"])
def test_n_max_ceiling_refused_before_table_fill(capsys, monkeypatch, value):
    monkeypatch.setattr(sums, "kappa1_discrete", lambda *a: pytest.fail("ran"))
    assert run(["kappas", "--n-max", value]) == 2
    assert "--n-max" in capsys.readouterr().err


# The series in verify._SERIES behind each reported sum.
_SUM_KEYS = {series.key: name for name, series in verify._SERIES.items()}


@pytest.mark.parametrize("argv", [
    ["kappas", "--n-max=5"],
    ["bethe", "--n-max=3"],
    ["polarizability", "--n-max=8", "--tail=on"],
])
def test_small_n_max_with_tail_within_error_of_sum_to_infinity(
        capsys, sum_to_infinity, argv):
    # The exact tail holds at every n_max >= 2: each reported sum is within
    # its error of the sum to infinity, compared exactly.
    assert run(argv) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    reported = {key: results[key] for key in _SUM_KEYS if key in results}
    assert reported
    for key, entry in reported.items():
        gap = abs(Fraction(entry["value"]) - Fraction(sum_to_infinity[_SUM_KEYS[key]]))
        assert gap <= Fraction(entry["error"]), key


def test_budget_at_magnitude_ceiling_finite(capsys):
    # The largest accepted fields, pseudo-momentum and kappas still give a
    # finite report without a warning (an error in this suite).
    assert run(["budget", "--E0=1e50,-1e50,1e50", "--B0=-1e50,1e50,1e50",
                "--Q0=1e50,1e50,-1e50", "--kappa1=-1e50", "--kappa2=1e50"]) == 0
    json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv, flag", [
    (["budget", "--E0", "nan,0,0"], "--E0"),
    (["budget", "--Q0", "1,2"], "--Q0"),
    (["continuum", "--ymin-grid", "0,inf"], "--ymin-grid"),
])
def test_config_dump_refuses_bad_strings(capsys, argv, flag):
    # A dumped config must replay: string parameters are checked first.
    assert run(argv + ["--config-dump"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_non_finite_config_load_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"subcommand": "budget", "kappa2": NaN}')
    assert run(["budget", "--config-load", str(cfg)]) == 2
    assert "--kappa2 must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, content, named", [
    ("kappas", '{"n_max": "40"}', "--n-max"),
    ("kappas", '{"n_max": 40.5}', "--n-max"),
    ("polarizability", '{"n_max": 40.5}', "--n-max"),
    ("kappas", '{"n_max": true}', "--n-max"),
    ("kappas", '{"ymin": true}', "--ymin"),
    ("kappas", '{"n_max": 100001}', "--n-max"),
    ("kappas", '{"ymin": "1"}', "--ymin"),
    ("bethe", '{"log_value": 1%s}' % ("0" * 400), "--log-value"),
    ("budget", '{"E0": [1, 0, 0]}', "--E0"),
    ("budget", '{"polarizability": "computed_discrete"}', "--polarizability"),
    ("rho-c", '{"fit_exponent": "maybe"}', "--fit-exponent"),
    ("kappas", '[1, 2]', "cfg.json"),
    ("kappas", '{"nmax": 5}', "nmax"),
    ("verify", '{"format": "xml"}', "--format"),
    ("kappas", '{"n_max": null}', "--n-max"),
    ("kappas", '{"tail": null}', "--tail"),
    ("verify", '{"format": null}', "--format"),
])
def test_config_load_checked_like_flags(tmp_path, capsys, monkeypatch,
                                        subcommand, content, named):
    # Config values pass the same type, choice and range checks as flags,
    # before --config-dump and before any computation.
    monkeypatch.setattr(verify, "run_checks", lambda: pytest.fail("ran"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    for extra in ([], ["--config-dump"]):
        assert run([subcommand, "--config-load", str(cfg)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err and "Traceback" not in captured.err


_FLOAT_PROBES = ("nan", "1e308", "-1e308", "1e-308", "-1e-308", "0", "-1")


def test_every_float_parameter_exits_cleanly(exits_cleanly):
    # Bounded, deterministic sweep of every float parameter in the table.
    for name, cmd in SUBCOMMANDS.items():
        for p in cmd.params:
            if p.type is float:
                for value in _FLOAT_PROBES:
                    exits_cleanly([name, f"{p.flag}={value}"])


def test_table_drives_help_and_config_dump(capsys):
    for name, cmd in SUBCOMMANDS.items():
        assert run([name, "--help"]) == 0
        helptext = capsys.readouterr().out
        assert all(p.flag in helptext for p in cmd.params)
        assert run([name, "--config-dump"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert set(dumped) == ({p.name for p in cmd.params}
                               | {"subcommand", "format", "output"})
        assert all(dumped[p.name] == p.default for p in cmd.params)


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_every_result_has_provenance(capsys, name):
    # At its defaults each report gives one provenance per result, no more.
    assert run([name]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["results"]) == set(payload["provenance"])


def test_verify_reports_cost_of_each_check(capsys):
    assert run(["verify"]) == 0
    err = capsys.readouterr().err
    for chk in verify.CHECKS:
        assert re.search(rf"^# check {chk.name}: \d+\.\d{{3}} s$", err, re.M), \
            chk.name


def test_unknown_flag_usage_exit_2():
    proc = _run("kappas", "--frobnicate", "1")
    assert proc.returncode == 2
    assert b"usage" in proc.stderr.lower()


def test_numerical_failure_exit_1_with_diagnostic(capsys, monkeypatch):
    # A sawtooth of period 1e-9 that no 2000 bisections resolve exhausts the
    # subdivision budget of verify's engine oracle on the kappa1 integrand; no
    # accepted flag value makes the real integrands do so.
    monkeypatch.setattr(quadrature, "kappa1_continuum_integrand",
                        lambda y: (y * 1e9 % 1.0) / (1.0 + y * y))
    assert run(["verify"]) == 1
    err = capsys.readouterr().err
    assert "max_subdivisions" in err
    assert "value=" in err  # best estimate attached to the diagnostic


def test_rel_tol_below_float_epsilon_refused_before_quadrature(capsys, monkeypatch):
    # Below the float epsilon no quadrature can meet the tolerance.
    monkeypatch.setattr(quadrature, "integrate_to_inf",
                        lambda *a, **k: pytest.fail("the quadrature ran"))
    assert run(["continuum", "--rel-tol=1e-300"]) == 2
    assert "--rel-tol" in capsys.readouterr().err


def test_unknown_subcommand_exit_2():
    assert _run("nonsense").returncode == 2


def test_missing_subcommand_exit_2():
    # Through the `python -m` entry point: main() exits with run()'s code.
    assert _run_process().returncode == 2


def test_text_format():
    proc = _run("bethe", "--n-max", "40", "--format", "text")
    assert proc.returncode == 0
    text = proc.stdout.decode()
    assert "bethe_sum" in text
    assert "normalization_coefficient" in text


def test_continuum_table():
    proc = _run("continuum", "--which", "kappa2", "--ymin-grid", "0,0.5,1",
                "--format", "json")
    res = json.loads(proc.stdout)["results"]
    values = [res[f"kappa2_continuum[ymin={y}]"]["value"] for y in ("0", "0.5", "1")]
    assert values[0] > values[1] > values[2]
    assert values[0] == pytest.approx(1.0 / 18.0, abs=1e-9)


def test_run_callable_directly():
    # In-process entry point used by the library-level determinism check.
    assert run(["kappas", "--n-max", "1"]) == 2


def test_serialize_empty_results_valid():
    cfg = RunConfig(subcommand="kappas", params={}, output_format="json",
                    output_path=None)
    env = ReportEnvelope(artifact_version="test", config=cfg, results={},
                         provenance={}, timing_seconds=0.0)
    payload = json.loads(serialize(env, "json"))
    assert payload["results"] == {}
    csv_blob = serialize(env, "csv").decode()
    assert csv_blob.splitlines()[0] == "quantity,value,error,provenance"


def test_serialize_deterministic_and_newline_terminated():
    cfg = RunConfig(subcommand="budget", params={"x": 1}, output_format="json",
                    output_path=None)
    env = ReportEnvelope(artifact_version="test", config=cfg,
                         results={"v": {"value": [1.0, 2.0, 3.0], "error": None},
                                  "s": {"value": 0.1 + 0.2, "error": 1e-16}},
                         provenance={"v": "vector", "s": "scalar"},
                         timing_seconds=123.456)
    blob1 = serialize(env, "json")
    env2 = ReportEnvelope(artifact_version="test", config=cfg,
                          results=env.results, provenance=env.provenance,
                          timing_seconds=0.001)  # timing must not leak
    assert blob1 == serialize(env2, "json")
    assert blob1.endswith(b"\n")
    # Shortest round-trip float repr.
    assert b"0.30000000000000004" in blob1


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_serialize_refuses_a_record(fmt):
    # Records are tuples: without the refusal one would pass as a list or a
    # 3-vector. Plain tuples still serialize as lists.
    cfg = RunConfig(subcommand="budget", params={}, output_format=fmt,
                    output_path=None)
    spec = QuadratureSpec()
    env = ReportEnvelope(artifact_version="test", config=cfg,
                         results={"spec": {"value": spec, "error": None}},
                         provenance={}, timing_seconds=0.0)
    with pytest.raises(TypeError, match="QuadratureSpec record"):
        serialize(env, fmt)
    plain = env._replace(results={"spec": {"value": tuple(spec), "error": None}})
    assert serialize(plain, fmt)


def _run_full_parser(argv: list[str]) -> subprocess.CompletedProcess:
    """What run(argv) prints and returns, up to parsing, from the parser of
    every subcommand: for argv that stop there with help, usage or an error."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    parser = build_parser()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            code = int(exc.code or 0)
        else:
            assert not args.subcommand, argv
            parser.print_usage(sys.stderr)
            code = 2
    out.flush()
    return subprocess.CompletedProcess(argv, code, out.buffer.getvalue(),
                                       err.getvalue().encode())


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["--version"], ["--bogus"], ["nosuch"], ["-"],
    *([name, "--help"] for name in SUBCOMMANDS),
    ["kappas", "--bogus"], ["kappas", "--n-max"], ["--bogus", "bethe", "--tail", "on"],
    ["polarizability", "--format", "xml"], ["budget", "--E0"], ["verify", "1"],
])
def test_parser_of_invoked_subcommand_prints_as_full_parser(argv):
    # run builds the arguments of the invoked subcommand only.
    ran, full = _run(*argv), _run_full_parser(argv)
    assert (ran.returncode, ran.stdout, ran.stderr) == \
        (full.returncode, full.stdout, full.stderr)
    assert ran.stdout or ran.stderr
