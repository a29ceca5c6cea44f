import json
import warnings

import pytest

from casimir_momentum.cli import run
from casimir_momentum.renorm import PlasmaCutoffWarning


@pytest.fixture
def exits_cleanly(capsys):
    """Run cli.run(argv) in-process and assert one of its clean outcomes.

    A finite JSON report (exit 0), a numerical failure (exit 1), or exit 2
    naming a flag given in argv; never a traceback, and no warning but
    PlasmaCutoffWarning.
    """
    def check(argv: list[str]) -> None:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
        out, err = capsys.readouterr()
        case = f"{' '.join(argv)}: exit {code}, {err!r}"
        assert all(issubclass(w.category, PlasmaCutoffWarning)
                   for w in caught), case
        assert "Traceback" not in err, case
        if code == 0:
            json.loads(out, parse_constant=lambda c: pytest.fail(case))
        elif code == 1:
            assert "numerical failure:" in err, case
        else:
            assert code == 2 and any(arg.split("=")[0] in err
                                     for arg in argv[1:]), case
    return check
