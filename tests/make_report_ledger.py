"""Write tests/report_ledger.json, the committed record of every report's bytes.

Run from the repository root:

    PYTHONPATH=src python tests/make_report_ledger.py

The ledger covers each subcommand in each format at its defaults, plus one
continuum scan over a wide grid of cutoffs. For each invocation it holds
the sha256 of each format's bytes and, from the json report, every value
and error as float.hex(), a vector one component at a time. It records the
platform it was made on: reports pass through libm, whose last bits may
differ elsewhere. test_report_ledger.py makes the reports again and
compares; only a change that names each key that moved, with its old and
new value and why, regenerates the ledger.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path
from typing import Any

from casimir_momentum.cli import SUBCOMMANDS, run

LEDGER = Path(__file__).resolve().parent / "report_ledger.json"
FORMATS = ("json", "csv", "text")
INVOCATIONS = (*([name] for name in SUBCOMMANDS),
               ["continuum", "--ymin-grid",
                "0,0.001,0.5,1,1.25,1.5,1.55,2,3.15,10,1e4,1e6"])


def this_platform() -> dict[str, str]:
    """The machine and the C library, which supplies libm, of this process."""
    libc, version = platform.libc_ver()
    return {"machine": platform.machine(),
            "libc": f"{libc} {version}".strip() or "unknown"}


def report(argv: list[str]) -> bytes:
    """The report bytes cli.run(argv) writes to stdout; it must exit 0."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code == 0, (argv, code)
    out.flush()
    return out.buffer.getvalue()


def _exact(value: Any) -> Any:
    """A float as float.hex(), which tells every bit apart; anything else as is."""
    return value.hex() if isinstance(value, float) else value


def values(blob: bytes) -> dict[str, Any]:
    """Every value and error of a json report, by key: `name.value`, or
    `name.value[i]` for the components of a vector."""
    out = {}
    for name, entry in json.loads(blob)["results"].items():
        for field in ("value", "error"):
            item = entry[field]
            if isinstance(item, list):
                out.update((f"{name}.{field}[{i}]", _exact(c)) for i, c in enumerate(item))
            else:
                out[f"{name}.{field}"] = _exact(item)
    return out


def entry(argv: list[str]) -> dict[str, Any]:
    """One invocation's ledger entry: each format's sha256 and the json values."""
    blobs = {fmt: report([*argv, "--format", fmt]) for fmt in FORMATS}
    return {"sha256": {fmt: hashlib.sha256(blob).hexdigest()
                       for fmt, blob in blobs.items()},
            "values": values(blobs["json"])}


def ledger() -> dict[str, Any]:
    return {"platform": this_platform(),
            "reports": {" ".join(argv): entry(argv) for argv in INVOCATIONS}}


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(ledger(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
