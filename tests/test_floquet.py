"""Dynamic measurement schedule: sign-exact stabilizer tracking, the
six-round plan on small instances, and the fixed permutation layout."""

import pytest

from cosetcode import fixtures
from cosetcode.floquet import (
    EDGE_COLORS,
    ROUND_PLAN,
    FloquetError,
    FloquetSchedule,
    StabilizerGroup,
    build_schedule,
    permutation_layout,
    run_schedule,
    vertex_x_operators,
)
from cosetcode.gates import Pauli
from cosetcode.sheaf import attach_constant_sheaf, dual_sheaf


def test_round_plan_alternates_and_covers_colors():
    kinds = [k for k, _ in ROUND_PLAN]
    assert kinds == ["X", "Z", "X", "Z", "X", "Z"]
    for kind in ("X", "Z"):
        cols = {c for k, c in ROUND_PLAN if k == kind}
        assert cols == set(EDGE_COLORS)


def test_stabilizer_group_measure_classes():
    g = StabilizerGroup(2, [Pauli.z_op(2, 1 << i) for i in range(2)])
    assert g.rank() == 2 and g.n - g.rank() == 0
    # X0 anticommutes with Z0: random outcome, rank preserved
    assert g.measure(Pauli.x_op(2, 0b01)) == "random"
    assert g.rank() == 2
    # Z1 still in the group with +1 sign
    assert g.measure(Pauli.z_op(2, 0b10)) == "deterministic"
    # X0 X1 commutes with everything present but is independent
    g2 = StabilizerGroup(2, [Pauli.z_op(2, 0b11)])
    assert g2.measure(Pauli.x_op(2, 0b11)) == "adjoined"
    assert g2.rank() == 2


def test_stabilizer_group_anomaly_on_negated_member():
    g = StabilizerGroup(1, [Pauli(1, 2, 0, 1)])  # -Z
    assert g.measure(Pauli.z_op(1, 1)) == "anomaly"


def test_canonical_rejects_minus_identity():
    g = StabilizerGroup(1, [Pauli(1, 2, 0, 1), Pauli.z_op(1, 1)])
    with pytest.raises(FloquetError):
        g.canonical()


def test_canonical_drops_dependent_rows_and_compares():
    a = StabilizerGroup(2, [Pauli.z_op(2, 0b01), Pauli.z_op(2, 0b10)])
    b = StabilizerGroup(
        2, [Pauli.z_op(2, 0b11), Pauli.z_op(2, 0b10), Pauli.z_op(2, 0b01)]
    )
    assert a.equals(b)
    assert b.rank() == 2


def test_schedule_requires_six_rounds_and_dimension_two():
    with pytest.raises(FloquetError):
        FloquetSchedule(4, [])
    c = fixtures.cross_polytope_3sphere()
    s = attach_constant_sheaf(c)
    with pytest.raises(FloquetError):
        build_schedule(s, dual_sheaf(s))


def test_torus_schedule_reaches_half_logical_dimension():
    c = fixtures.hexagonal_torus()
    s = attach_constant_sheaf(c)
    sd = dual_sheaf(s)
    sched = build_schedule(s, sd)
    vops = vertex_x_operators(s)
    rep = run_schedule(sched, periods=3, static_k=4, vertex_ops=vops)
    assert rep["anomalies"] == 0
    assert rep["periodic"]
    assert rep["steady_logical_dimension"] == 2
    assert rep["half_dimension_ok"]
    assert rep["max_check_weight"] == 2
    # vertex operator membership is tracked every round
    assert all("vertex_ops_in_isg" in e for e in rep["per_round"])


def test_run_schedule_needs_warmup_periods():
    c = fixtures.hexagonal_torus()
    s = attach_constant_sheaf(c)
    sched = build_schedule(s, dual_sheaf(s))
    with pytest.raises(FloquetError):
        run_schedule(sched, periods=2)


def test_permutation_layout_on_coset_complex(complex2):
    rep = permutation_layout(complex2)
    assert rep["orbits_ok"]
    assert rep["cube_is_identity"]
    assert rep["partition_map_ok"]
    assert set(rep["orbit_census"]) <= {1, 3}
    assert rep["group_sizes"] == [2]


def test_permutation_layout_rejects_fixtures():
    with pytest.raises(FloquetError):
        permutation_layout(fixtures.hexagonal_torus())
