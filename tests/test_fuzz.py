"""Fuzz cli.run in-process: any subset of a subcommand's float flags at
arbitrary floats (nan, +-inf, subnormals, extremes) ends cleanly.

The cases come from a random.Random seeded with the subcommand's name, so
every run draws the same ones. Each value is an edge float or a random
64-bit pattern read as a double, which reaches every exponent, both signs
and NaN payloads alike.
"""

import math
import random
import struct

import pytest

from casimir_momentum.cli import SUBCOMMANDS

EDGES = tuple(sign * x for x in (math.nan, math.inf, 0.0, 5e-324,
                                 2.2250738585072014e-308, 1e308,
                                 1.7976931348623157e308)
              for sign in (1.0, -1.0))
CASES = 12


def _draw(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return rng.choice(EDGES)
    return struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]


def _cases(name: str) -> list[list[str]]:
    """The first CASES distinct argv lists of the subcommand, each float flag
    present or not at even odds; the one bare argv if it has no float flag."""
    rng = random.Random(name)
    floats = [p.flag for p in SUBCOMMANDS[name].params if p.type is float]
    cases: dict[tuple[str, ...], None] = {(): None}
    while floats and len(cases) < CASES:
        cases[tuple(f"{flag}={_draw(rng)!r}" for flag in floats
                    if rng.random() < 0.5)] = None
    return [[name, *flags] for flags in cases]


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_float_flags_exit_cleanly(exits_cleanly, name):
    for argv in _cases(name):
        exits_cleanly(argv)
