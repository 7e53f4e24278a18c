import numpy as np
import pytest

from cfcopula.data import ColumnRoles, Table
from cfcopula.scenarios import (
    ScenarioError,
    ScenarioSpec,
    Transform,
    apply_scenario,
    parse_scenario,
)


ROLES = ColumnRoles(
    y1="py", y2="cy", x=("pedu", "cedu", "male"), discrete=("male",)
)


def _table(**cols):
    n = len(next(iter(cols.values())))
    base = {
        "py": np.arange(n, dtype=float),
        "cy": np.arange(n, dtype=float) + 0.5,
    }
    base.update({k: np.asarray(v, dtype=float) for k, v in cols.items()})
    return Table(names=tuple(base), columns=base)


def test_parse_identity_forms():
    assert parse_scenario("").transforms == ()
    assert parse_scenario("identity").transforms == ()
    assert parse_scenario("  identity  ").describe() == "identity"


def test_parse_describe_round_trip():
    text = "max_with(cedu, 16); conditional_max(pedu, cedu, 10, floor=15)"
    spec = parse_scenario(text)
    assert len(spec.transforms) == 2
    assert parse_scenario(spec.describe()).describe() == spec.describe()


def test_parse_set_constant():
    spec = parse_scenario("set_constant(male, 1)")
    t = spec.transforms[0]
    assert t.kind == "set_constant" and t.column == "male" and t.value == 1.0


def test_parse_rejects_unknown_transform():
    with pytest.raises(ScenarioError, match="unknown transform"):
        parse_scenario("min_with(cedu, 12)")


def test_parse_rejects_malformed_input():
    with pytest.raises(ScenarioError, match="cannot parse"):
        parse_scenario("max_with cedu 16")
    with pytest.raises(ScenarioError, match="expected a number"):
        parse_scenario("max_with(cedu, sixteen)")
    with pytest.raises(ScenarioError, match="takes"):
        parse_scenario("max_with(cedu)")
    with pytest.raises(ScenarioError, match="unknown keyword"):
        parse_scenario("conditional_max(pedu, cedu, 10, ceiling=15)")


def test_max_with_raises_only_below_cutoff():
    table = _table(pedu=[12, 12], cedu=[12.0, 17.0], male=[0, 1])
    spec = parse_scenario("max_with(cedu, 16)")
    xstar = apply_scenario(table, ROLES, spec)
    np.testing.assert_array_equal(xstar["cedu"], [16.0, 17.0])


def test_conditional_max_uses_trigger_column():
    # raise child schooling to the floor only where the parent is at/below the cutoff
    table = _table(pedu=[9.0, 11.0], cedu=[12.0, 12.0], male=[0, 0])
    spec = parse_scenario("conditional_max(cedu, pedu, 10, floor=16)")
    xstar = apply_scenario(table, ROLES, spec)
    np.testing.assert_array_equal(xstar["cedu"], [16.0, 12.0])


def test_conditional_max_never_lowers():
    table = _table(pedu=[9.0], cedu=[17.0], male=[0])
    spec = parse_scenario("conditional_max(cedu, pedu, 10, floor=16)")
    xstar = apply_scenario(table, ROLES, spec)
    assert xstar["cedu"][0] == 17.0


def test_default_floor_is_sixteen():
    spec = parse_scenario("conditional_max(cedu, pedu, 10)")
    assert spec.transforms[0].floor == 16.0


def test_set_constant_applies_everywhere():
    table = _table(pedu=[9.0, 11.0], cedu=[12.0, 13.0], male=[0.0, 1.0])
    xstar = apply_scenario(table, ROLES, parse_scenario("set_constant(male, 1)"))
    np.testing.assert_array_equal(xstar["male"], [1.0, 1.0])


def test_identity_affects_nothing():
    table = _table(pedu=[9.0, 11.0], cedu=[12.0, 13.0], male=[0, 1])
    xstar = apply_scenario(table, ROLES, ScenarioSpec(transforms=()))
    assert set(xstar) == set(ROLES.x)
    for name in ROLES.x:
        np.testing.assert_array_equal(xstar[name], table.columns[name])


def test_untouched_columns_are_fresh_copies():
    table = _table(pedu=[9.0, 11.0], cedu=[12.0, 13.0], male=[0, 1])
    xstar = apply_scenario(table, ROLES, parse_scenario("max_with(cedu, 16)"))
    xstar["pedu"][0] = -99.0
    assert table.columns["pedu"][0] == 9.0


def test_transform_outside_covariates_rejected():
    table = _table(pedu=[9.0], cedu=[12.0], male=[0])
    with pytest.raises(ScenarioError, match="not a covariate"):
        apply_scenario(table, ROLES, parse_scenario("max_with(py, 16)"))


def test_missing_trigger_column_rejected():
    table = _table(pedu=[9.0], cedu=[12.0], male=[0])
    spec = ScenarioSpec(
        transforms=(Transform(kind="conditional_max", column="cedu",
                              trigger="ghost", value=10.0),)
    )
    with pytest.raises(ScenarioError, match="trigger"):
        apply_scenario(table, ROLES, spec)


def test_transforms_apply_in_sequence():
    table = _table(pedu=[9.0], cedu=[12.0], male=[0])
    spec = parse_scenario("set_constant(cedu, 8); max_with(cedu, 10)")
    xstar = apply_scenario(table, ROLES, spec)
    assert xstar["cedu"][0] == 10.0
