import csv
import io
import json
import subprocess
import sys

import pytest

from casimir_momentum.cli import ReportEnvelope, RunConfig, run, serialize

BASE = [sys.executable, "-m", "casimir_momentum"]


def _run(*args):
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
    a = _run("kappas", "--n-max", "40", "--format", "json")
    b = _run("kappas", "--n-max", "40", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_config_dump_and_load_round_trip(tmp_path):
    dump = _run("kappas", "--n-max", "40", "--config-dump")
    assert dump.returncode == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(dump.stdout)
    direct = _run("kappas", "--n-max", "40", "--format", "json")
    loaded = _run("kappas", "--config-load", str(cfg_path))
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


def test_validation_exit_codes():
    assert _run("kappas", "--n-max", "1").returncode == 2
    assert _run("kappas", "--ymin", "-1").returncode == 2
    assert _run("budget", "--E0", "1,2").returncode == 2
    assert _run("continuum", "--ymin-grid", "2,1").returncode == 2
    assert _run("rho-c", "--model", "free-electron", "--n-e", "-1").returncode == 2


def test_renorm_overflowing_cutoff_exit_2(capsys):
    # In-process: an inf cutoff must be refused before delta_mass's breakpoint
    # loop, which never ends on it.
    for flag in ("--cutoff-ratio", "--big-ratio"):
        for value in ("1e300", "inf"):
            assert run(["renorm", flag, value]) == 2
            assert flag[2:] in capsys.readouterr().err


def test_unknown_flag_usage_exit_2():
    proc = _run("kappas", "--frobnicate", "1")
    assert proc.returncode == 2
    assert b"usage" in proc.stderr.lower()


def test_numerical_failure_exit_1_with_diagnostic():
    # Unreachable tolerances exhaust the subdivision budget.
    proc = _run("continuum", "--which", "kappa1", "--ymin-grid", "1",
                "--rel-tol", "1e-300", "--abs-tol", "1e-300")
    assert proc.returncode == 1
    assert b"max_subdivisions" in proc.stderr
    assert b"value=" in proc.stderr  # best estimate attached to the diagnostic


def test_unknown_subcommand_exit_2():
    assert _run("nonsense").returncode == 2


def test_missing_subcommand_exit_2():
    assert _run().returncode == 2


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
