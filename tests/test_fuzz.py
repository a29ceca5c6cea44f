"""Fuzz cli.run in-process: any subset of a subcommand's float flags at
arbitrary floats (nan, +-inf, subnormals, extremes) ends cleanly."""

from datetime import timedelta

import pytest

from casimir_momentum.cli import SUBCOMMANDS

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@pytest.mark.parametrize("name", SUBCOMMANDS)
@hypothesis.settings(derandomize=True, database=None, max_examples=12,
                     deadline=timedelta(seconds=2), suppress_health_check=[
                         hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(data=st.data())
def test_float_flags_exit_cleanly(exits_cleanly, name, data):
    argv = [name]
    for p in SUBCOMMANDS[name].params:
        value = data.draw(st.none() | st.floats()) if p.type is float else None
        if value is not None:
            argv.append(f"{p.flag}={value!r}")
    exits_cleanly(argv)
