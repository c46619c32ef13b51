"""Dynamic measurement schedule: CSS stabilizer tracking against the
sign-exact reference, the six-round plan on small instances, and the
fixed permutation layout."""

import random

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
from cosetcode.gates import Circuit, Gate, Pauli, pauli_mul
from cosetcode.sheaf import attach_constant_sheaf, dual_sheaf

import stabilizer_reference as ref


def test_round_plan_alternates_and_covers_colors():
    kinds = [k for k, _ in ROUND_PLAN]
    assert kinds == ["X", "Z", "X", "Z", "X", "Z"]
    for kind in ("X", "Z"):
        cols = {c for k, c in ROUND_PLAN if k == kind}
        assert cols == set(EDGE_COLORS)


def test_stabilizer_group_measure_classes():
    g = StabilizerGroup(2, z_rows=[0b01, 0b10])
    assert g.rank() == 2
    # X0 anticommutes with Z0: random outcome, rank preserved
    assert g.measure("X", 0b01) == "random"
    assert g.rank() == 2 and g.rows == {"X": [0b01], "Z": [0b10]}
    assert g.measure("Z", 0b10) == "deterministic"
    assert g.measure("X", 0b01) == "deterministic"
    g2 = StabilizerGroup(2, z_rows=[0b11])
    assert g2.measure("X", 0b11) == "adjoined"
    assert g2.rank() == 2 and g2.contains("X", 0b11) and not g2.contains("X", 0b01)
    # X0 anticommutes with Z0 Z1 and Z0: both fold into one, which goes
    g3 = StabilizerGroup(3, z_rows=[0b011, 0b001, 0b100])
    assert g3.measure("X", 0b001) == "random"
    assert g3.rows == {"X": [0b001], "Z": [0b010, 0b100]}


def test_reference_measure_classes():
    g = ref.StabilizerGroup(2, [Pauli.z_op(2, 1 << i) for i in range(2)])
    assert g.rank() == 2 and g.n - g.rank() == 0
    # X0 anticommutes with Z0: random outcome, rank preserved
    assert g.measure(Pauli.x_op(2, 0b01)) == "random"
    assert g.rank() == 2
    # Z1 still in the group with +1 sign
    assert g.measure(Pauli.z_op(2, 0b10)) == "deterministic"
    # X0 X1 commutes with everything present but is independent
    g2 = ref.StabilizerGroup(2, [Pauli.z_op(2, 0b11)])
    assert g2.measure(Pauli.x_op(2, 0b11)) == "adjoined"
    assert g2.rank() == 2


def test_stabilizer_group_anomaly_on_negated_member():
    g = ref.StabilizerGroup(1, [Pauli(1, 2, 0, 1)])  # -Z
    assert g.measure(Pauli.z_op(1, 1)) == "anomaly"


def test_canonical_rejects_minus_identity():
    with pytest.raises(FloquetError):
        ref.StabilizerGroup(1, [Pauli(1, 2, 0, 1), Pauli.z_op(1, 1)])
    with pytest.raises(FloquetError):
        ref.StabilizerGroup(1, [Pauli(1, 2, 0, 0)])  # -I itself


def test_canonical_drops_dependent_rows_and_compares():
    a = ref.StabilizerGroup(2, [Pauli.z_op(2, 0b01), Pauli.z_op(2, 0b10)])
    b = ref.StabilizerGroup(
        2, [Pauli.z_op(2, 0b11), Pauli.z_op(2, 0b10), Pauli.z_op(2, 0b01)]
    )
    assert a.equals(b)
    assert b.rank() == 2
    a, b = StabilizerGroup(2, z_rows=[0b01, 0b10]), StabilizerGroup(2, z_rows=[0b11, 0b10, 0b01])
    assert a.equals(b) and b.equals(a) and b.rank() == 2
    assert not a.equals(StabilizerGroup(2, x_rows=[0b01, 0b10]))
    assert not a.equals(StabilizerGroup(2, z_rows=[0b11]))


def _ref_canonical(n, gens):
    """Reference: the unique reduced-echelon generator list over the (x|z)
    rows by column-by-column elimination, phases carried along by Pauli
    multiplication; raises on -identity."""
    rows = list(gens)
    out = []
    for col in range(2 * n):
        bit = 1 << (col % n)
        is_x = col < n

        def has(p):
            return bool((p.x if is_x else p.z) & bit)

        piv = next((i for i, p in enumerate(rows) if has(p)), None)
        if piv is None:
            continue
        pivot = rows.pop(piv)
        rows = [pauli_mul(p, pivot) if has(p) else p for p in rows]
        out = [pauli_mul(p, pivot) if has(p) else p for p in out]
        out.append(pivot)
    clean = []
    for p in out + rows:
        if p.x == 0 and p.z == 0:
            if p.p != 0:
                raise FloquetError("stabilizer group contains -identity")
            continue
        clean.append(p)
    return clean


def _random_group(rng, n, k):
    """k independent commuting Hermitian generators: +-Z on qubits 0..k-1
    conjugated by a random circuit of H, S and CZ layers."""
    circ = Circuit(n)
    for _ in range(3):
        for name in ("H", "S"):
            circ.add_layer([Gate(name, tuple(q for q in range(n) if rng.random() < 0.5))])
        qs = rng.sample(range(n), n)
        circ.add_layer([Gate("CZ", (qs[i], qs[i + 1])) for i in range(0, n - 1, 2)])
    return [circ.conjugate(Pauli(n, 2 * rng.randrange(2), 0, 1 << i)) for i in range(k)]


def _product(n, gens, rng):
    p = Pauli(n, 0, 0, 0)
    for g in gens:
        if rng.random() < 0.5:
            p = pauli_mul(p, g)
    return p


@pytest.mark.parametrize("seed", range(8))
def test_rank_and_equals_match_reference_canonical(seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 9)
    gens = _random_group(rng, n, rng.randrange(2, n + 1))
    # dependent generators, in a shuffled order
    mixed = gens + [_product(n, gens, rng) for _ in range(3)]
    rng.shuffle(mixed)
    flipped = [Pauli(n, gens[0].p + 2, gens[0].x, gens[0].z)] + gens[1:]  # -g_0
    groups = {"gens": gens, "mixed": mixed, "flipped": flipped, "smaller": gens[1:]}
    equal = {}
    for a, ga in groups.items():
        assert ref.StabilizerGroup(n, ga).rank() == len(_ref_canonical(n, ga))
        for b, gb in groups.items():
            equal[a, b] = ref.StabilizerGroup(n, ga).equals(ref.StabilizerGroup(n, gb))
            assert equal[a, b] == (_ref_canonical(n, ga) == _ref_canonical(n, gb))
    assert equal["gens", "mixed"] and equal["mixed", "gens"]
    assert not equal["gens", "flipped"] and not equal["gens", "smaller"]
    assert not equal["smaller", "gens"]
    # a dependent generator with the wrong sign puts -identity in the group
    p = pauli_mul(gens[0], _product(n, gens[1:], rng))
    bad = gens + [Pauli(n, p.p + 2, p.x, p.z)]
    with pytest.raises(FloquetError):
        _ref_canonical(n, bad)
    with pytest.raises(FloquetError):
        ref.StabilizerGroup(n, bad)


def test_equals_tells_z_from_minus_z():
    z = ref.StabilizerGroup(1, [Pauli.z_op(1, 1)])
    minus_z = ref.StabilizerGroup(1, [Pauli(1, 2, 0, 1)])
    assert z.rank() == minus_z.rank() == 1
    assert not z.equals(minus_z) and not minus_z.equals(z)
    assert z.equals(ref.StabilizerGroup(1, [Pauli.z_op(1, 1), Pauli.z_op(1, 1)]))


@pytest.mark.parametrize("seed", range(6))
def test_css_group_matches_sign_exact_reference(seed):
    """Random X/Z measurement sequences from the empty group: the same
    outcome classes, ranks and memberships as the sign-exact reference,
    which never meets an anomaly."""
    rng = random.Random(seed)
    n = rng.randrange(2, 9)
    css, signed = StabilizerGroup(n), ref.StabilizerGroup(n)
    op = {"X": Pauli.x_op, "Z": Pauli.z_op}
    for _ in range(40):
        kind, row = rng.choice("XZ"), rng.getrandbits(n)
        assert css.measure(kind, row) == signed.measure(op[kind](n, row))
        assert css.rank() == signed.rank()
        kind, row = rng.choice("XZ"), rng.getrandbits(n)
        member = ref.membership_phase(op[kind](n, row), signed.gens) == 0
        assert css.contains(kind, row) == member
    gens = [op[kind](n, r) for kind in "XZ" for r in css.rows[kind]]
    assert ref.StabilizerGroup(n, gens).equals(signed)


def test_q2_schedule_matches_sign_exact_reference(sheaf2, dual2, code2):
    sched = build_schedule(sheaf2, dual2)
    kwargs = {"static_k": code2.code_dimension(), "vertex_ops": vertex_x_operators(sheaf2)}
    rep = run_schedule(sched, **kwargs)
    expected = ref.run_schedule(sched, **kwargs)
    assert expected["anomalies"] == 0 and expected["periodic"]
    for entry in expected["per_round"]:
        assert entry["outcomes"].pop("anomaly") == 0
    assert len(rep["per_round"]) == 18
    assert rep["per_round"] == expected["per_round"]
    assert rep == expected


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
