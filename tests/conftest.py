import json
import warnings

import pytest

from casimir_momentum import hydrogen, quadrature, sums, verify
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


@pytest.fixture(scope="session")
def sum_to_infinity() -> dict[str, str]:
    """Each Rydberg series of verify._SERIES summed over n = 2..inf, 30 digits.

    From mpmath at 45 digits: the closed-form terms to n = 60 plus an nsum
    tail; the exact 1/n^2 expansion with mpmath.zeta agrees to 1e-49.
    """
    return {"kappa1": "0.208748426925724375978060396429",
            "kappa2": "0.0796208648938700532340868711033",
            "polarizability": "3.66325789030947126871225018673",
            "bethe": "0.337016972356071998097019834646",
            "oscillator": "0.565004150674851987401674374310"}


@pytest.fixture
def fresh_memos():
    """Empties every memo of hydrogen, sums, quadrature (its continuum
    series' tables) and verify (its derivation of the sums tables) before
    and after the test: each object with a cache_clear. The test gets the
    reset itself, to empty them again mid-test."""
    def reset() -> None:
        for module in (hydrogen, sums, quadrature, verify):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    reset()
    yield reset
    reset()
