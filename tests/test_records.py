"""The record contract: every public record type is one plain, immutable
named tuple. No record checks its fields: each flag rule is checked once, by
its `cli.Param`, and the library checks only what guards callers outside
the CLI."""

import pytest

from casimir_momentum import (budget, cli, hydrogen, quadrature, renorm, sums,
                              units, verify)

MODULES = (units, budget, renorm, sums, quadrature, hydrogen, cli, verify)

_FIELDS = budget.FieldConfiguration(E0=(1e5, 0.0, 0.0), B0=(0.0, 1.0, 0.0),
                                    Q0=(0.0, 0.0, 0.0))
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
    sums.SpectralSumResult: lambda: sums.bethe_sum(20),
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

def _public_records() -> set[type]:
    return {obj for mod in MODULES for name, obj in vars(mod).items()
            if isinstance(obj, type) and issubclass(obj, tuple)
            and hasattr(obj, "_fields") and not name.startswith("_")
            and obj.__module__ == mod.__name__}


def test_every_public_record_has_an_example():
    assert _public_records() == set(EXAMPLES)


def test_records_are_plain_named_tuples():
    # No validating subclass over a private base: each record's class is
    # the named tuple itself.
    assert [cls for cls in EXAMPLES if cls.__bases__ != (tuple,)] == []


@pytest.mark.parametrize("cls", EXAMPLES, ids=lambda c: c.__name__)
def test_record_is_immutable(cls):
    rec = EXAMPLES[cls]()
    assert type(rec) is cls
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.not_a_field = 1.0


def test_renorm_records_are_not_tagged_unions():
    # Each constructor fills every field: no kind tag, no field left None
    # for the other kind.
    records = (renorm.DispersionModel.dispersionless(2.0),
               renorm.DispersionModel.free_electron(2.5e28),
               renorm.CutoffScheme.frequency(1e20),
               renorm.CutoffScheme.length(1e-12))
    assert [rec for rec in records if None in rec] == []
    assert "kind" not in renorm.DispersionModel._fields + renorm.CutoffScheme._fields


def test_momentum_budgets_never_share_provenance():
    first, second = (budget.assemble_budget(_FIELDS) for _ in range(2))
    assert first.provenance is not second.provenance


def test_check_results_leave_the_cost_out():
    # The cost of a check is timing, so it stays out of the record and of
    # its equality: two runs give equal results.
    assert verify.CheckResult._fields == ("name", "value", "target", "passed")
    cost: dict[str, float] = {}
    first = verify.run_checks(cost)
    assert verify.run_checks() == first
    assert list(cost) == [chk.name for chk in verify.CHECKS]
    assert all(seconds >= 0.0 for seconds in cost.values())
