"""Command-line front end: every computation as a subcommand.

Reports are deterministic: canonical JSON (sorted keys, shortest round-trip
float repr, newline-terminated), CSV with one row per scalar quantity, or a
plain-text table. Identical invocations produce byte-identical report bytes;
wall-clock timing is diagnostic only and goes to stderr. Every byte goes
through _write_now. Exit codes: 0 on success, 2 on a validation/usage error
or a report, help or version that cannot be written, 1 if a row of the
written report failed (its "pass" False: only `verify` has such rows, and a
check that raises fails its row alone).

This module is the front end only: the SUBCOMMANDS table, the parser that
reads it, the config echo and the serialization. The handlers live in
other modules, which import nothing from here: kappas, polarizability,
bethe and continuum in `spectral`, renorm and rho-c in `renorm`, budget in
`budget` and verify in `verify`. Each is imported when its subcommand
runs, so a process compiles only the handler it runs.
"""

from __future__ import annotations

import errno
import io
import json
import math
import os
import sys
import time
from importlib import import_module
from typing import Any, Callable, NamedTuple, NoReturn

from . import __version__, quadrature, sums, units


class RunConfig(NamedTuple):
    """Effective configuration of one invocation, defaults materialized."""

    subcommand: str
    params: dict[str, Any]
    output_format: str
    output_path: str | None

    def as_dict(self) -> dict[str, Any]:
        d = {"subcommand": self.subcommand, "format": self.output_format,
             "output": self.output_path}
        d.update(self.params)
        return d


class ReportEnvelope(NamedTuple):
    artifact_version: str
    config: RunConfig
    results: dict[str, dict[str, Any]]
    provenance: dict[str, str]
    timing_seconds: float  # diagnostic; excluded from canonical bytes


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if hasattr(obj, "_fields"):     # a record is a tuple, not a report value
            raise TypeError(f"a {type(obj).__name__} record is not a report value")
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return float(obj)                   # floats, the one other kind of value


def _flatten_for_rows(results: dict[str, dict[str, Any]]):
    """Scalar rows (result key, quantity, value, error), vectors split per
    component: each component's quantity is its key with _x, _y or _z."""
    for key, entry in results.items():
        value, error = entry.get("value"), entry.get("error")
        if isinstance(value, (list, tuple)):
            for suffix, comp in zip("xyz", _jsonable(value)):
                yield key, f"{key}_{suffix}", comp, error
        else:
            yield key, key, _jsonable(value), error


def serialize(report: ReportEnvelope, output_format: str) -> bytes:
    """Canonical report bytes; identical configs give identical bytes."""
    if output_format == "json":
        payload = {
            "artifact_version": report.artifact_version,
            "config": _jsonable(report.config.as_dict()),
            "results": _jsonable(report.results),
            "provenance": _jsonable(report.provenance),
        }
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        return (text + "\n").encode("utf-8")
    if output_format == "csv":
        import csv      # here, as only this format uses it
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["quantity", "value", "error", "provenance"])
        for key, name, value, error in _flatten_for_rows(report.results):
            writer.writerow([name, repr(value) if isinstance(value, float) else value,
                             "" if error is None else repr(float(error)),
                             report.provenance.get(key, "")])
        return buf.getvalue().encode("utf-8")
    if output_format == "text":
        lines = [f"# casimir-momentum {report.artifact_version}: "
                 f"{report.config.subcommand}"]
        for key, name, value, error in _flatten_for_rows(report.results):
            entry = report.results[key]
            flag = ""
            if "pass" in entry:
                flag = "[PASS] " if entry["pass"] else "[FAIL] "
                target = entry.get("target")
                if target:
                    flag = f"{flag}({target}) "
            err = "" if error is None else f"  (err <= {float(error):.3e})"
            lines.append(f"{flag}{name:42s} {value!r}{err}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown output format {output_format!r}")


# --- parameters: each declared once, as a Param in SUBCOMMANDS -------------

# Largest accepted magnitude of a field component, --Q0 component and kappa:
# far above any physical value, it keeps every product in the budget finite.
_BUDGET_MAGNITUDE_MAX = 1e50

# Largest accepted --n-max. A sum costs the same at every n_max (S_inf minus
# the tail), so it bounds no cost: kappas at the ceiling and at 200 both
# take about 27 ms and 15.3 MB peak RSS as a fresh process (median of 30
# each, 2-core x86-64 host, Python 3.11.7). It keeps the input contract as
# it stands.
_N_MAX_CEILING = 100_000


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    """Comma-separated finite numbers (--E0/--B0/--Q0 and --ymin-grid)."""
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{flag}: could not parse {text!r}") from None
    _require(all(map(math.isfinite, values)), f"{flag} values must be finite")
    return values


class Param(NamedTuple):
    """One subcommand parameter: the single source of its flag, default,
    config-echo key and input check.

    `check` pairs a rule on the parsed value with the text that states it;
    `parse` turns a string parameter into the value the handler gets. A
    default of None marks an optional parameter that may stay unset.
    """

    name: str
    type: type
    default: Any
    help: str
    choices: tuple[str, ...] | None = None
    check: tuple[Callable[[Any], bool], str] | None = None
    parse: Callable[[str, str], Any] | None = None

    @property
    def flag(self) -> str:
        return f"--{self.name.replace('_', '-')}"

    def checked(self, value: Any) -> Any:
        """The value the handler gets, or a ValueError naming the flag.

        Flag values arrive converted by the parser with `type` alone,
        --config-load values as raw JSON, and both pass these type,
        finiteness, choice and range checks, which are their only checks.
        """
        if value is None and self.default is None:
            return None
        accepted = (int, float) if self.type is float else self.type
        _require(isinstance(value, accepted) and not isinstance(value, bool),
                 f"{self.flag} must be of type {self.type.__name__}, got {value!r}")
        if self.type is float:
            try:
                finite = math.isfinite(value)
            except OverflowError:           # a JSON integer beyond the float range
                finite = False
            _require(finite, f"{self.flag} must be finite, got {value!r}")
        if self.choices is not None:
            _require(value in self.choices, f"{self.flag} must be one of "
                     f"{', '.join(self.choices)}, got {value!r}")
        if self.parse is not None:
            value = self.parse(value, self.flag)
        if self.check is not None:
            rule, text = self.check
            _require(rule(value), f"{self.flag} {text}")
        return value


_POSITIVE = (lambda v: v > 0, "must be positive")
_Y_MIN_RANGE = f"[0, {quadrature.Y_MIN_MAX:g}]"
_Y_MIN = (lambda y: 0 <= y <= quadrature.Y_MIN_MAX, f"must be in {_Y_MIN_RANGE}")
_Y_MIN_GRID = (lambda g: all(map(_Y_MIN[0], g))
               and all(b > a for a, b in zip(g, g[1:])),
               f"must be strictly ascending values in {_Y_MIN_RANGE}")
_KAPPA = (lambda v: abs(v) <= _BUDGET_MAGNITUDE_MAX,
          f"must be at most {_BUDGET_MAGNITUDE_MAX:g} in magnitude")


def _n_max(default: int) -> Param:
    return Param("n_max", int, default, "last n of the partial sum", check=(
        lambda n: 2 <= n <= _N_MAX_CEILING, f"must be in [2, {_N_MAX_CEILING}]"))


def _triple(name: str, default: str, unit: str) -> Param:
    return Param(name, str, default, f"{unit}, comma-separated triple",
                 parse=_parse_floats, check=(
                     lambda v: len(v) == 3 and all(map(_KAPPA[0], v)),
                     f"must be three comma-separated numbers, each at most "
                     f"{_BUDGET_MAGNITUDE_MAX:g} in magnitude"))


def _switch(name: str, help: str) -> Param:
    """An on/off parameter; the handler gets a bool."""
    return Param(name, str, "on", help, choices=("on", "off"),
                 parse=lambda text, flag: text == "on")


_TAIL = _switch("tail", "add the exact 1/n^2-expansion tail beyond n_max")
# The continuum integrals are closed forms, so these two steer no reported
# number. They are still accepted, checked and echoed in the config, because
# the benchmark's replay (bench/worker.py, _spec_from) reads both keys from
# it; a relative tolerance below the float epsilon is refused as before.
_TOLERANCES = (
    Param("rel_tol", float, quadrature.DEFAULT_SPEC.rel_tol,
          "accepted and checked; steers nothing (closed-form integrals)", check=(
              lambda v: v >= sys.float_info.epsilon,
              f"must be >= {sys.float_info.epsilon!r} (the float epsilon)")),
    Param("abs_tol", float, quadrature.DEFAULT_SPEC.abs_tol,
          "accepted and checked; steers nothing (closed-form integrals)",
          check=_POSITIVE))
_FORMAT = Param("format", str, "json", "report format",
                choices=("json", "csv", "text"))


Row = tuple[dict[str, Any], str]   # a report row: its entry and its provenance


def _deferred(module: str, name: str) -> Callable[[dict[str, Any]], dict[str, Row]]:
    """The handler `name` of the package module `module`, imported when it is
    called, inside the run's timer, so no other subcommand compiles it."""
    def handler(p: dict[str, Any]) -> dict[str, Row]:
        return getattr(import_module(f".{module}", __package__), name)(p)
    return handler


class Subcommand(NamedTuple):
    help: str
    handler: Callable[[dict[str, Any]], dict[str, Row]]
    params: tuple[Param, ...] = ()


SUBCOMMANDS: dict[str, Subcommand] = {
    "kappas": Subcommand(
        "discrete and continuum coupling coefficients and their adopted totals",
        _deferred("spectral", "handle_kappas"), (
            _n_max(sums.DEFAULT_N_MAX_KAPPA), _TAIL,
            Param("ymin", float, 1.0, "kappa1 continuum cutoff", check=_Y_MIN),
            Param("ymin2", float, 1.0, "kappa2 continuum cutoff", check=_Y_MIN),
            *_TOLERANCES)),
    "polarizability": Subcommand(
        "discrete static polarizability and oscillator-strength sums",
        _deferred("spectral", "handle_polarizability"),
        (_n_max(sums.DEFAULT_N_MAX_POLARIZABILITY), _TAIL)),
    "bethe": Subcommand(
        "constant-log matrix-element sum and the normalization coefficient",
        _deferred("spectral", "handle_bethe"), (
            _n_max(sums.DEFAULT_N_MAX_KAPPA), _TAIL,
            Param("log_value", float, sums.DEFAULT_LAMB_LOG,
                  "excitation-spectrum logarithm, supplied from outside"))),
    "continuum": Subcommand(
        "lower-cutoff sensitivity scan of the continuum integrals",
        _deferred("spectral", "handle_continuum"), (
            Param("which", str, "both", "integral to scan",
                  choices=("kappa1", "kappa2", "both")),
            Param("ymin_grid", str, "0,0.5,1,2", "comma-separated cutoffs",
                  parse=_parse_floats, check=_Y_MIN_GRID),
            *_TOLERANCES)),
    "renorm": Subcommand(
        "electromagnetic self-mass, its logarithmic divergence, and the "
        "reduced-mass shift", _deferred("renorm", "handle_renorm"), (
            Param("cutoff_ratio", float, 2.0, "self-mass cutoff hbar*Lambda/(m c0)",
                  check=_POSITIVE),
            Param("big_ratio", float, 1e4, "cutoff of the doubling check", check=(
                lambda v: v >= 1e4,
                "must be >= 1e4 for the logarithmic-increment check")))),
    "rho-c": Subcommand(
        "regularized vacuum mass density and its cutoff scaling",
        _deferred("renorm", "handle_rho_c"), (
            Param("model", str, "free-electron", "dispersion model",
                  choices=("dispersionless", "free-electron")),
            Param("eps_r", float, 2.0, "dispersionless permittivity",
                  check=(lambda v: v > 1, "must be > 1")),
            Param("n_e", float, 2.5e28, "electron density [m^-3]", check=_POSITIVE),
            Param("l_min", float, None, "length cutoff [m], default the "
                  "classical electron radius", check=_POSITIVE),
            Param("omega_max", float, None, "frequency cutoff [rad/s], "
                  "replaces --l-min", check=_POSITIVE),
            _switch("fit_exponent", "fit the cutoff power"))),
    "budget": Subcommand(
        "itemized momentum budget for given external fields",
        _deferred("budget", "handle_budget"), (
            _triple("E0", "1e5,0,0", "V/m"), _triple("B0", "0,1,0", "T"),
            _triple("Q0", "0,0,0", "kg m/s"),
            Param("kappa1", float, units.ADOPTED_KAPPA1, "first vacuum "
                  "coupling", check=_KAPPA),
            Param("kappa2", float, units.ADOPTED_KAPPA2, "second vacuum "
                  "coupling", check=_KAPPA),
            Param("polarizability", str, "exact", "alpha(0) in the budget",
                  choices=tuple(c.replace("_", "-")
                                for c in units.POLARIZABILITY_CHOICES)))),
    "verify": Subcommand(
        "run the oracle/invariant suite and print a pass/fail table",
        _deferred("verify", "handle_verify")),
}


# --- the command line, read from SUBCOMMANDS --------------------------------

_PROG = "casimir-momentum"
_DESCRIPTION = ("Vacuum corrections to the field-induced momentum of hydrogen: "
                "spectral sums, continuum integrals, cutoff regularization, and "
                "an itemized momentum budget.")
_HELP_FLAGS = ("-h", "--help")
# The options of every subcommand besides its Params: (flag, metavar, help).
# Only --config-dump takes no value.
_COMMON = (
    ("--output", "PATH", "write the report to PATH instead of stdout"),
    ("--config-load", "FILE", "take parameter values from a --config-dump "
     "file; flags given here override them"),
    ("--config-dump", None, "print the effective configuration as JSON and "
     "stop"),
)


class _Args(NamedTuple):
    """One command line: the subcommand, each of its Params' values (and
    --format's) converted by Param.type, None where the flag is absent, and
    the common options."""

    subcommand: str
    values: dict[str, Any]
    output: str | None
    config_load: str | None
    config_dump: bool


def _options(name: str) -> list[tuple[str, str | None, str]]:
    """(flag, metavar, help) of each option of the subcommand `name`."""
    return [(p.flag, "{" + ",".join(p.choices) + "}" if p.choices else p.name.upper(),
             p.help + ("" if p.default is None else f" (default {p.default})"))
            for p in (*SUBCOMMANDS[name].params, _FORMAT)] + list(_COMMON)


def _usage(name: str | None) -> str:
    """The usage line of the top level (None) or of one subcommand."""
    if name is None:
        return f"usage: {_PROG} [-h] [--version] SUBCOMMAND ..."
    return " ".join([f"usage: {_PROG} {name} [-h]", *(
        f"[{flag}]" if metavar is None else f"[{flag} {metavar}]"
        for flag, metavar, _ in _options(name))])


def _help(name: str | None) -> str:
    """The help text of the top level (None) or of one subcommand."""
    helps = [("-h, --help", "show this help and exit")]
    if name is None:
        intro, sections = _DESCRIPTION, [
            ("subcommands", [(sub, cmd.help) for sub, cmd in SUBCOMMANDS.items()]),
            ("options", helps + [("--version", "show the version and exit")])]
    else:
        intro, sections = SUBCOMMANDS[name].help, [("options", helps + [
            (flag if metavar is None else f"{flag} {metavar}", text)
            for flag, metavar, text in _options(name)])]
    lines = [_usage(name), "", intro]
    for title, rows in sections:
        lines += ["", f"{title}:", *(f"  {left:<24} {text}" for left, text in rows)]
    return "\n".join(lines)


def _refuse(name: str | None, message: str) -> NoReturn:
    diagnose(_usage(name))
    diagnose(f"error: {message}")
    raise SystemExit(2)


class _Parser:
    """The parser of the whole table. parse_args(argv) returns _Args,
    or ends with SystemExit: 0 after writing help or the version to stdout
    (2 if that write fails), 2 after writing the usage line and an error
    naming the refused word to stderr.

    The first word is -h/--help, --version or a subcommand; after it come
    --flag VALUE or --flag=VALUE, exact names only, the word after a flag
    being its value as written (so a negative number is a value), and the
    last of a repeated flag wins. Values are only converted here: choices,
    finiteness and ranges are Param.checked's, for flags and --config-load
    alike.
    """

    def parse_args(self, argv: list[str]) -> _Args:
        if not argv:
            diagnose(_usage(None))
            raise SystemExit(2)
        name, words = argv[0], iter(argv[1:])
        if name in _HELP_FLAGS or name == "--version":
            text = _help(None) if name in _HELP_FLAGS else __version__
            raise SystemExit(_to_stdout(f"{text}\n".encode("utf-8")))
        if name not in SUBCOMMANDS:
            _refuse(None, f"expected a subcommand ({', '.join(SUBCOMMANDS)}), "
                          f"got {name!r}")
        params = {p.flag: p for p in (*SUBCOMMANDS[name].params, _FORMAT)}
        values = dict.fromkeys(p.name for p in params.values())
        common = {flag: None for flag, metavar, _ in _COMMON if metavar}
        config_dump = False
        for word in words:
            if word in _HELP_FLAGS:
                raise SystemExit(_to_stdout(f"{_help(name)}\n".encode("utf-8")))
            if word == "--config-dump":
                config_dump = True
                continue
            flag, eq, text = word.partition("=")
            if flag not in params and flag not in common:
                _refuse(name, f"unrecognized argument {word!r}")
            if not eq:
                text = next(words, None)
                if text is None:
                    _refuse(name, f"{flag} expects a value")
            if flag in common:
                common[flag] = text
                continue
            p = params[flag]
            try:
                values[p.name] = p.type(text)
            except ValueError:
                _refuse(name, f"{flag}: invalid {p.type.__name__} value {text!r}")
        return _Args(name, values, common["--output"], common["--config-load"],
                     config_dump)


def build_parser() -> _Parser:
    """The command-line parser, read from SUBCOMMANDS."""
    return _Parser()


def _write_now(stream: Any, data: str | bytes) -> None:
    """Write to a standard stream at once, or raise OSError if it is closed
    or refuses the bytes. They go past the stream's buffer, so none are left
    in it for a flush at exit (main() makes none). Text goes as it is, and
    bytes decoded from UTF-8 (the reports' encoding), to a stream with no
    buffer, such as io.StringIO."""
    if stream is None:                  # the process started without that fd
        raise OSError(errno.EBADF, "stream is closed")
    stream.flush()
    if not hasattr(stream, "buffer"):
        stream.write(data if isinstance(data, str) else data.decode("utf-8"))
        return
    if isinstance(data, str):
        data = data.encode(stream.encoding, stream.errors)
    out = getattr(stream.buffer, "raw", stream.buffer)
    view = memoryview(data)
    while view:
        view = view[out.write(view):]


def diagnose(line: str) -> None:
    """Write one diagnostic line (an error, the timing, a check's cost) to
    stderr. If stderr is closed or refuses it the line is dropped: it never
    goes to stdout and never changes the exit code."""
    try:
        _write_now(sys.stderr, line + "\n")
    except OSError:
        pass


def _to_stdout(blob: bytes) -> int:
    """Write `blob` to stdout: 0, or 2 with a message if that fails."""
    try:
        _write_now(sys.stdout, blob)
    except OSError as exc:
        diagnose(f"error: cannot write report to stdout: {exc}")
        return 2
    return 0


def _effective_params(args: _Args,
                      params: tuple[Param, ...]) -> dict[str, Any]:
    """Materialize parameters as given: explicit flag > config file > default."""
    loaded: dict[str, Any] = {}
    if args.config_load is not None:
        try:
            with open(args.config_load, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot load config: {exc}") from exc
        _require(isinstance(loaded, dict),
                 f"config file {args.config_load!r} must hold a JSON object")
        if loaded.get("subcommand") not in (None, args.subcommand):
            raise ValueError(
                f"config file is for subcommand {loaded.get('subcommand')!r}, "
                f"not {args.subcommand!r}")
        unknown = sorted(set(loaded) - {p.name for p in params}
                         - {"subcommand", "output"})
        _require(not unknown, f"config file {args.config_load!r} has keys "
                 f"{args.subcommand} does not take: {', '.join(unknown)}")
    # A loaded key counts, null too; Param.checked refuses null if the default is set.
    return {p.name: args.values[p.name] if args.values[p.name] is not None
            else loaded.get(p.name, p.default) for p in params}


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cmd = SUBCOMMANDS[args.subcommand]
        params = _effective_params(args, (*cmd.params, _FORMAT))
        fmt = _FORMAT.checked(params.pop("format"))
        checked = {p.name: p.checked(params[p.name]) for p in cmd.params}
        out_path = args.output
        config = RunConfig(subcommand=args.subcommand, params=params,
                           output_format=fmt, output_path=out_path)
        if args.config_dump:
            text = json.dumps(_jsonable(config.as_dict()), sort_keys=True,
                              indent=2, allow_nan=False)
            return _to_stdout((text + "\n").encode("utf-8"))

        t0 = time.perf_counter()
        rows = cmd.handler(checked)
        elapsed = time.perf_counter() - t0
        results = {name: entry for name, (entry, _) in rows.items()}
        provenance = {name: text for name, (_, text) in rows.items()}
        report = ReportEnvelope(artifact_version=__version__, config=config,
                                results=results, provenance=provenance,
                                timing_seconds=elapsed)
        blob = serialize(report, fmt)
        if out_path is not None:
            try:
                with open(out_path, "wb") as fh:
                    fh.write(blob)
            except OSError as exc:
                diagnose(f"error: cannot write {out_path!r}: {exc}")
                return 2
        elif _to_stdout(blob):
            return 2
        diagnose(f"# timing: {elapsed:.6f} s")
        # Exit 1 if a row failed; only verify's rows carry "pass".
        return 0 if all(entry.get("pass", True) for entry in results.values()) else 1
    except ValueError as exc:
        diagnose(f"error: {exc}")
        return 2


def main() -> None:
    """Entry point of `python -m casimir_momentum` and of the console script.

    Every byte run() writes goes through _write_now, past the streams'
    buffers, so when it returns no buffer holds anything and the process
    ends there, with os._exit: the interpreter's teardown, which frees every
    module, takes a few ms and writes nothing (an --output file is closed by
    then, and the package registers no atexit handler). If run() raises,
    the process prints its traceback and exits 1 as usual. In-process
    callers use run(argv), which returns the exit code.
    """
    os._exit(run())
