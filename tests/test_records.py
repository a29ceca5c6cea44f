"""The record contract: every public record type is an immutable named
tuple; the validating ones refuse bad fields with their messages, also
through `_replace`."""

import re

import pytest

from casimir_momentum import (budget, cli, hydrogen, quadrature, renorm, sums,
                              units, verify)

MODULES = (units, budget, renorm, sums, quadrature, hydrogen, cli, verify)

_FIELDS = budget.FieldConfiguration(E0=[1e5, 0, 0], B0=[0, 1, 0], Q0=[0, 0, 0])
_CONFIG = cli.RunConfig(subcommand="budget", params={}, output_format="json",
                        output_path=None)

# One instance of each public record type.
EXAMPLES = {
    units.PhysicalConstants: units.constants,
    units.AtomicParams: units.AtomicParams.hydrogen,
    budget.FieldConfiguration: lambda: _FIELDS,
    budget.MomentumBudget: lambda: budget.assemble_budget(_FIELDS),
    renorm.DispersionModel: lambda: renorm.DispersionModel.dispersionless(2.0),
    renorm.CutoffScheme: lambda: renorm.CutoffScheme.frequency(1e20),
    sums.TailEstimate: lambda: sums.TailEstimate(0.0, 0.0),
    sums.SpectralSumResult: lambda: sums.bethe_sum(20),
    sums.PerturbedGroundState: lambda: sums.PerturbedGroundState.build(5),
    quadrature.QuadratureSpec: quadrature.QuadratureSpec,
    quadrature.QuadratureResult: lambda: quadrature.QuadratureResult(
        1.0, 1e-15, 15, 1),
    quadrature.ContinuumResult: lambda: quadrature.kappa2_continuum(1.0),
    hydrogen.RadialIntegralRecord: lambda: hydrogen.radial_record(2),
    cli.RunConfig: lambda: _CONFIG,
    cli.ReportEnvelope: lambda: cli.ReportEnvelope("test", _CONFIG, {}, {}, 0.0),
    cli.Param: lambda: cli.SUBCOMMANDS["kappas"].params[0],
    cli.Subcommand: lambda: cli.SUBCOMMANDS["verify"],
    verify.Check: lambda: verify.CHECKS[0],
    verify.CheckResult: lambda: verify.CheckResult("probe", 1.0, "1 +/- 0", True),
}

# (record type, fields, the ValueError message), one row per check.
INVALID = [
    (units.AtomicParams, {"m1": 1.0, "m2": 2.0},
     "require m1 > m2 > 0, got m1=1.0, m2=2.0"),
    (quadrature.QuadratureSpec, {"abs_tol": 0.0}, "tolerances must be positive"),
    (quadrature.QuadratureSpec, {"rel_tol": -1.0}, "tolerances must be positive"),
    (quadrature.QuadratureSpec, {"max_subdivisions": 0},
     "max_subdivisions must be >= 1"),
    (renorm.DispersionModel, {"kind": "dispersionless", "eps_r": 1.0},
     "dispersionless model requires eps_r > 1"),
    (renorm.DispersionModel, {"kind": "free_electron"},
     "free_electron model requires n_e > 0"),
    (renorm.DispersionModel, {"kind": "metal"}, "unknown dispersion kind 'metal'"),
    (renorm.CutoffScheme, {"kind": "frequency", "omega_max_value": 0.0},
     "frequency cutoff must be positive"),
    (renorm.CutoffScheme, {"kind": "length", "l_min": -1.0},
     "length cutoff must be positive"),
    (renorm.CutoffScheme, {"kind": "energy"}, "unknown cutoff kind 'energy'"),
]


def _public_records() -> set[type]:
    return {obj for mod in MODULES for name, obj in vars(mod).items()
            if isinstance(obj, type) and issubclass(obj, tuple)
            and hasattr(obj, "_fields") and not name.startswith("_")
            and obj.__module__ == mod.__name__}


def test_every_public_record_has_an_example():
    assert _public_records() == set(EXAMPLES)


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda c: c.__name__)
def test_record_is_immutable(cls):
    rec = EXAMPLES[cls]()
    assert type(rec) is cls
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.not_a_field = 1.0


@pytest.mark.parametrize("cls,fields,message", INVALID,
                         ids=[f"{cls.__name__}:{msg}" for cls, _, msg in INVALID])
def test_validating_record_refuses(cls, fields, message):
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=exact):
        cls(**fields)
    with pytest.raises(ValueError, match=exact):
        EXAMPLES[cls]()._replace(**fields)


def test_field_configuration_stores_float_triples():
    fields = budget.FieldConfiguration([1, 0, 0], (0, 1, 0), iter([0, 0, 2]))
    assert fields == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 2.0))
    moved = fields._replace(Q0=[3, 0, 0])
    for vec in (*fields, moved.Q0):
        assert type(vec) is tuple and all(type(c) is float for c in vec)
    with pytest.raises(ValueError, match="^expected a 3-vector, got 2 components$"):
        budget.FieldConfiguration([1, 0], [0, 1, 0], [0, 0, 0])


def test_momentum_budgets_never_share_provenance():
    first, second = (budget.assemble_budget(_FIELDS) for _ in range(2))
    assert first.provenance is not second.provenance
    bare = [budget.MomentumBudget(*first[:-1]) for _ in range(2)]
    assert bare[0].provenance == {} and bare[0].provenance is not bare[1].provenance


def test_check_results_leave_the_cost_out():
    # The cost of a check is timing, so it stays out of the record and of
    # its equality: two runs give equal results.
    assert verify.CheckResult._fields == ("name", "value", "target", "passed")
    cost: dict[str, float] = {}
    first = verify.run_checks(cost)
    assert verify.run_checks() == first
    assert list(cost) == [chk.name for chk in verify.CHECKS]
    assert all(seconds >= 0.0 for seconds in cost.values())
