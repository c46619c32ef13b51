"""Phase-exact Pauli algebra, Clifford conjugation tables, CSS
membership against the sign-exact reference, orbit circuits, and the
divisibility certificates for diagonal gates."""

import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosetcode import cli, gates
from cosetcode.gates import (
    Circuit,
    Gate,
    GateError,
    Pauli,
    apply_gamma,
    apply_h,
    apply_permutation,
    apply_s,
    apply_upsilon,
    apply_z,
    check_cz_conditions,
    check_r_conditions,
    conjugate_by_images,
    cycle_clifford_circuit,
    cycle_phase_circuit,
    in_group_with_sign,
    membership_phase,
    orbit_cz_circuit,
    pauli_mul,
    perm_orbits,
)
from cosetcode.gf2 import BitMatrix, EchelonBasis, dual_rows
from cosetcode.local_codes import reed_muller

import stabilizer_reference as ref


I1 = Pauli(1, 0, 0, 0)
X1 = Pauli(1, 0, 1, 0)
Z1 = Pauli(1, 0, 0, 1)
Y1 = Pauli(1, 1, 1, 1)  # Y = i X Z


def test_pauli_phase_normalization_and_bounds():
    assert Pauli(1, 7, 0, 0).p == 3
    with pytest.raises(GateError):
        Pauli(1, 0, 2, 0)


def test_pauli_is_an_immutable_value():
    p = Pauli(3, 6, 0b101, 0b011)
    q = Pauli(3, 2, 0b101, 0b011)
    assert p == q and p is not q and hash(p) == hash(q)
    assert len({p, q, Pauli(3, 0, 0b101, 0b011)}) == 2
    assert p != Pauli(4, 2, 0b101, 0b011) and p != Pauli(3, 2, 0b100, 0b011)
    assert p != Pauli(3, 2, 0b101, 0b010) and p != (3, 2, 0b101, 0b011)
    assert repr(p) == "Pauli(n=3, p=2, x=5, z=3)"
    assert pickle.loads(pickle.dumps(p)) == p and copy.copy(p) == p
    for bad in ((3, 0, 0b1000, 0), (3, 0, 0, 0b1000), (3, 0, -1, 0), (3, 0, 0, -2)):
        with pytest.raises(GateError, match="support out of range"):
            Pauli(*bad)
    for name in ("n", "p", "x", "z", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 1)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert (p.n, p.p, p.x, p.z) == (3, 2, 0b101, 0b011)
    assert not hasattr(p, "__dict__")


def test_diagonal_steps_that_meet_no_x_bit_return_their_input():
    p = Pauli(4, 3, 0b0101, 0b1110)
    for mask in (0, 0b1010):
        assert apply_z(p, mask) is p and apply_s(p, mask) is p
    cz = Circuit(4, [[Gate("CZ", (1, 3))]])
    assert cz.conjugate(p) is p
    # one X bit on the support: a new Pauli, as the tables give it
    assert apply_z(p, 0b0011) == Pauli(4, 1, 0b0101, 0b1110)
    assert apply_s(p, 0b0011) == Pauli(4, 0, 0b0101, 0b1111)
    assert Circuit(4, [[Gate("CZ", (0, 1))]]).conjugate(p) == Pauli(4, 3, 0b0101, 0b1100)


def test_single_qubit_multiplication_table():
    assert pauli_mul(X1, Z1) == Pauli(1, 0, 1, 1)  # XZ = -iY
    assert pauli_mul(Z1, X1) == Pauli(1, 2, 1, 1)  # ZX = iY
    assert pauli_mul(X1, X1) == I1
    assert pauli_mul(Y1, Y1) == I1
    assert pauli_mul(X1, Y1) == Pauli(1, 1, 0, 1)  # XY = iZ
    assert pauli_mul(Y1, X1) == Pauli(1, 3, 0, 1)  # YX = -iZ


def test_anticommutation_and_commutes_predicate():
    assert not X1.commutes(Z1)
    assert X1.commutes(X1)
    a = Pauli(3, 0, 0b101, 0b010)
    b = Pauli(3, 0, 0b011, 0b100)
    lhs = pauli_mul(a, b)
    rhs = pauli_mul(b, a)
    assert (lhs.p - rhs.p) % 4 == (0 if a.commutes(b) else 2)


def test_pauli_weight_and_constructors():
    p = Pauli.x_op(4, 0b1010)
    q = Pauli.z_op(4, 0b0110)
    assert p.weight() == 2
    assert pauli_mul(p, q).weight() == 3


def test_apply_z_and_x_flip_signs():
    assert apply_z(X1, 1) == Pauli(1, 2, 1, 0)  # Z X Z = -X
    assert apply_z(Z1, 1) == Z1
    # X = H Z H
    x_circ = Circuit(1, [[Gate("H", (0,))], [Gate("Z", (0,))], [Gate("H", (0,))]])
    assert x_circ.conjugate(Z1) == Pauli(1, 2, 0, 1)  # X Z X = -Z
    assert x_circ.conjugate(X1) == X1


def test_apply_s_table():
    assert apply_s(X1, 1) == Y1  # S X S^dag = Y
    assert apply_s(Z1, 1) == Z1
    assert apply_s(Y1, 1) == Pauli(1, 2, 1, 0)  # S Y S^dag = -X
    # S^4 = identity on conjugation
    p = Pauli(3, 0, 0b101, 0b011)
    q = p
    for _ in range(4):
        q = apply_s(q, 0b111)
    assert q == p


def test_apply_h_table():
    assert apply_h(X1, 1) == Z1
    assert apply_h(Z1, 1) == X1
    assert apply_h(Y1, 1) == Pauli(1, 3, 1, 1)  # H Y H = -Y
    p = Pauli(2, 1, 0b01, 0b10)
    assert apply_h(apply_h(p, 0b11), 0b11) == p


def _cz_layer(*pairs):
    return Circuit(2, [[Gate("CZ", pair) for pair in pairs]])


def test_apply_cz_table():
    cz = _cz_layer((0, 1))
    x0 = Pauli.x_op(2, 0b01)
    assert cz.conjugate(x0) == Pauli(2, 0, 0b01, 0b10)
    z0 = Pauli.z_op(2, 0b01)
    assert cz.conjugate(z0) == z0
    xx = Pauli.x_op(2, 0b11)
    # CZ (X X) CZ = -(Y Y) = X X Z Z with phase 2
    assert cz.conjugate(xx) == Pauli(2, 2, 0b11, 0b11)
    # involution
    p = Pauli(2, 3, 0b10, 0b01)
    assert cz.conjugate(cz.conjugate(p)) == p
    with pytest.raises(GateError):
        _cz_layer((0, 1), (1, 0))
    with pytest.raises(GateError):
        _cz_layer((1, 1))


def test_apply_permutation():
    p = Pauli(3, 1, 0b001, 0b010)
    q = apply_permutation(p, (1, 2, 0))
    assert q == Pauli(3, 1, 0b010, 0b100)


def test_apply_gamma_order_three():
    assert apply_gamma(X1, 1) == Pauli(1, 3, 1, 1)  # -Y
    assert apply_gamma(Y1, 1) == Z1
    assert apply_gamma(Z1, 1) == Pauli(1, 2, 1, 0)  # -X
    p = Pauli(2, 2, 0b01, 0b11)
    q = p
    for _ in range(3):
        q = apply_gamma(q, 0b11)
    assert q == p


def test_apply_upsilon_images_and_order_three():
    n = 3
    x1 = Pauli.x_op(n, 0b001)
    img = apply_upsilon(x1, (0, 1, 2))
    assert img == Pauli(n, 1, 0b111, 0b001)  # Y1 X2 X3
    z1 = Pauli.z_op(n, 0b001)
    assert apply_upsilon(z1, (0, 1, 2)) == Pauli(n, 0, 0b001, 0b110)
    # covariant under cyclic shift of the triple
    x2 = Pauli.x_op(n, 0b010)
    assert apply_upsilon(x2, (0, 1, 2)) == apply_upsilon(x2, (1, 2, 0))
    # conjugation preserves the group: check it is a homomorphism
    a = Pauli(n, 0, 0b011, 0b100)
    b = Pauli(n, 0, 0b110, 0b011)
    assert apply_upsilon(pauli_mul(a, b), (0, 1, 2)) == pauli_mul(
        apply_upsilon(a, (0, 1, 2)), apply_upsilon(b, (0, 1, 2))
    )
    with pytest.raises(GateError):
        apply_upsilon(x1, (0, 0, 1))


def test_conjugate_by_images_matches_direct_gate():
    n = 2
    img_x = {0: apply_s(Pauli.x_op(n, 1), 1), 1: apply_s(Pauli.x_op(n, 2), 2)}
    img_z = {0: Pauli.z_op(n, 1), 1: Pauli.z_op(n, 2)}
    for p in (
        Pauli(n, 0, 0b11, 0b00),
        Pauli(n, 1, 0b01, 0b10),
        Pauli(n, 2, 0b11, 0b11),
    ):
        assert conjugate_by_images(p, [0, 1], img_x, img_z) == apply_s(p, 0b11)


def test_circuit_layers_and_conjugate():
    circ = Circuit(3)
    circ.add_layer([Gate("H", (0,)), Gate("S", (1,))])
    circ.add_layer([Gate("CZ", (0, 1))])
    assert len(circ.layers) == 2
    p = Pauli.x_op(3, 0b001)
    # H turns X0 into Z0; CZ leaves it alone
    assert circ.conjugate(p) == Pauli.z_op(3, 0b001)


def _cz_pairs_ref(p, pairs):
    """Reference: CZ one pair at a time."""
    phase = p.p
    z = p.z
    for a, b in pairs:
        xa = (p.x >> a) & 1
        xb = (p.x >> b) & 1
        if xb:
            z ^= 1 << a
        if xa:
            z ^= 1 << b
        if xa and xb:
            phase += 2
    return Pauli(p.n, phase, p.x, z)


def _apply_gate_ref(p, g):
    if g.name == "Z":
        return apply_z(p, sum(1 << q for q in g.qubits))
    if g.name == "S":
        return apply_s(p, sum(1 << q for q in g.qubits))
    if g.name == "H":
        return apply_h(p, sum(1 << q for q in g.qubits))
    if g.name == "CZ":
        return _cz_pairs_ref(p, [(g.qubits[0], g.qubits[1])])
    if g.name == "GAMMA":
        return apply_gamma(p, sum(1 << q for q in g.qubits))
    if g.name == "UPSILON":
        return apply_upsilon(p, (g.qubits[0], g.qubits[1], g.qubits[2]))
    if g.name == "PERM":
        return apply_permutation(p, g.perm)
    raise GateError("unknown gate %r" % g.name)


def _conjugate_gate_by_gate(circ, p):
    """Reference: every gate of every layer in order, one Pauli per gate."""
    for layer in circ.layers:
        for g in layer:
            p = _apply_gate_ref(p, g)
    return p


_GATE_KINDS = ["Z", "S", "H", "GAMMA", "CZ", "CZ", "CZ", "UPSILON", "PERM"]


@st.composite
def _circuits_and_paulis(draw):
    """Random layered circuits of every gate kind (a PERM may sit between
    CZ gates of its layer) and random Paulis with phases."""
    n = draw(st.integers(1, 10))
    layers = []
    for _ in range(draw(st.integers(0, 4))):
        free = draw(st.permutations(range(n)))
        layer = []
        for kind in draw(st.lists(st.sampled_from(_GATE_KINDS), max_size=8)):
            if kind == "PERM":
                perm = tuple(draw(st.permutations(range(n))))
                layer.append(Gate("PERM", (), perm=perm))
                continue
            size = {"CZ": 2, "UPSILON": 3}.get(kind) or draw(st.integers(1, 3))
            if len(free) >= size:
                layer.append(Gate(kind, tuple(free[:size])))
                free = free[size:]
        layers.append(layer)
    word = st.integers(0, (1 << n) - 1)
    paulis = draw(st.lists(st.tuples(st.integers(0, 3), word, word), min_size=1, max_size=6))
    return n, layers, [Pauli(n, *t) for t in paulis]


@settings(max_examples=300, deadline=None)
@example(
    (4, [[Gate("CZ", (0, 1)), Gate("PERM", (), perm=(1, 2, 3, 0)), Gate("CZ", (2, 3))]],
     [Pauli(4, 1, 0b0111, 0b1000), Pauli(4, 0, 0b1111, 0)])
)
@given(_circuits_and_paulis())
def test_conjugate_matches_gate_by_gate_reference(case):
    n, layers, paulis = case
    circ = Circuit(n, layers)
    for p in paulis:
        assert circ.conjugate(p) == _conjugate_gate_by_gate(circ, p)


_CLIFFORD_KINDS = ["S", "H", "CZ", "CZ", "PERM"]


@st.composite
def _clifford_groups(draw):
    """A random S/H/CZ/PERM circuit, random Pauli generators (any phases,
    commuting or not; those whose (x|z) is independent of the ones before,
    so that a member has one product of generators and so one phase), and
    queries: random signed products of the generators, and random Paulis."""
    n = draw(st.integers(1, 8))
    layers = []
    for _ in range(draw(st.integers(1, 4))):
        free = draw(st.permutations(range(n)))
        layer = []
        for kind in draw(st.lists(st.sampled_from(_CLIFFORD_KINDS), max_size=6)):
            if kind == "PERM":
                layer.append(Gate("PERM", (), perm=tuple(draw(st.permutations(range(n))))))
                continue
            size = 2 if kind == "CZ" else draw(st.integers(1, 3))
            if len(free) >= size:
                layer.append(Gate(kind, tuple(free[:size])))
                free = free[size:]
        layers.append(layer)
    word = st.integers(0, (1 << n) - 1)
    pauli = st.builds(lambda t: Pauli(n, *t), st.tuples(st.integers(0, 3), word, word))
    rows = EchelonBasis()
    drawn = draw(st.lists(pauli, min_size=1, max_size=5))
    gens = [g for g in drawn if rows.insert(g.x | g.z << n)]
    queries = draw(st.lists(pauli, max_size=3))
    products = st.tuples(st.integers(1, 31), st.integers(0, 3))
    for picks, phase in draw(st.lists(products, max_size=4)):
        q = Pauli(n, phase, 0, 0)
        for i, g in enumerate(gens):
            if picks >> i & 1:
                q = pauli_mul(q, g)
        queries.append(q)
    return n, layers, gens, queries


@settings(max_examples=200, deadline=None)
@given(_clifford_groups())
def test_clifford_conjugation_keeps_signed_membership(case):
    # conjugation by a Clifford is an automorphism of the Pauli group: it
    # keeps products and, by the sign-exact reference, the phase by which
    # a query differs from the product of generators that rebuilds it
    n, layers, gens, queries = case
    circ = Circuit(n, layers)
    images = [circ.conjugate(g) for g in gens]
    for a, b in zip(gens, gens[1:] + gens[:1]):
        assert circ.conjugate(pauli_mul(a, b)) == pauli_mul(circ.conjugate(a), circ.conjugate(b))
    for q in queries:
        image = circ.conjugate(q)
        assert image == _conjugate_gate_by_gate(circ, q)
        assert ref.membership_phase(image, images) == ref.membership_phase(q, gens)


def test_orbit_cz_conjugate_matches_gate_by_gate_reference(table2, code2):
    n = code2.n
    rng = random.Random(11)
    paulis = [Pauli.x_op(n, r) for r in code2.h_x.int_rows()]
    paulis += [Pauli.z_op(n, r) for r in code2.h_z.int_rows()]
    paulis += [
        Pauli(n, rng.randrange(4), rng.getrandbits(n), rng.getrandbits(n))
        for _ in range(20)
    ]
    first_of_order = {}
    for gid in range(1, table2.size):
        first_of_order.setdefault(table2.element_order(gid), gid)
    assert sorted(first_of_order) == [2, 3, 4, 7]
    for gid in first_of_order.values():
        circ = orbit_cz_circuit([int(v) for v in table2.left_mul_perm(gid)])
        for p in paulis:
            assert circ.conjugate(p) == _conjugate_gate_by_gate(circ, p)


def test_circuit_rejects_overlapping_layer():
    circ = Circuit(2)
    with pytest.raises(GateError):
        circ.add_layer([Gate("S", (0,)), Gate("H", (0,))])


def test_membership_phase_and_sign():
    n = 2
    gens = [Pauli.z_op(n, 0b01), Pauli.z_op(n, 0b10)]
    assert membership_phase(Pauli.z_op(n, 0b11), gens) == 0
    assert membership_phase(Pauli(n, 2, 0, 0b11), gens) == 2
    assert membership_phase(Pauli.x_op(n, 1), gens) is None
    assert in_group_with_sign(Pauli.z_op(n, 0b01), gens)
    assert not in_group_with_sign(Pauli(n, 2, 0, 0b01), gens)
    # empty generator list: only the identity is a member
    assert membership_phase(Pauli(n, 0, 0, 0), []) == 0
    assert membership_phase(Pauli.x_op(n, 1), []) is None


def _membership_phase_by_solve(p, generators):
    """Reference: solve the transposed generator system from scratch.

    The generators enter as columns in reverse order, so the pivots, the
    highest columns, are the earliest independent generators and setting
    the free variables to 0 names the rows the reference's tag bits name."""
    n = p.n
    if not generators:
        return 0 if (p.x == 0 and p.z == 0) else None
    last = len(generators) - 1
    rows = [g.x | (g.z << n) for g in reversed(generators)]
    mat = BitMatrix.from_int_rows(rows, 2 * n).transpose()
    b = p.x | (p.z << n)
    sol = mat.solve(BitMatrix.from_int_rows([(b >> i) & 1 for i in range(2 * n)], 1))
    if sol is None:
        return None
    combo = sum(v << j for j, v in enumerate(sol.int_rows()))
    prod = Pauli(n, 0, 0, 0)
    for i in sorted(last - j for j in range(len(generators)) if (combo >> j) & 1):
        prod = pauli_mul(prod, generators[i])
    return (p.p - prod.p) % 4


def _random_stabilizer_generators(rng, n):
    """Z_i on a random qubit subset, conjugated by a random Clifford
    circuit: commuting, sign-exact, and never containing -I."""
    circ = Circuit(n)
    for _ in range(4):
        qubits = list(range(n))
        rng.shuffle(qubits)
        circ.add_layer(
            [Gate("CZ", (qubits[0], qubits[1])), Gate("H", (qubits[2],)),
             Gate("S", (qubits[3],))]
        )
    subset = [i for i in range(n) if rng.getrandbits(1)] or [0]
    return [circ.conjugate(Pauli.z_op(n, 1 << i)) for i in subset]


def test_membership_phase_matches_solve_reference():
    rng = random.Random(5)
    n = 7
    for trial in range(40):
        if trial % 2:
            gens = _random_stabilizer_generators(rng, n)
        else:  # arbitrary, non-commuting: the product order shows in the phase
            gens = [
                Pauli(n, rng.randrange(4), rng.getrandbits(n), rng.getrandbits(n))
                for _ in range(rng.randrange(1, 9))
            ]
        gens.append(pauli_mul(gens[0], gens[-1]))  # a dependent generator
        members, negated, outside = [], [], []
        for _ in range(6):
            member = Pauli(n, 0, 0, 0)
            for g in gens:
                if rng.getrandbits(1):
                    member = pauli_mul(member, g)
            members.append(member)
            negated.append(Pauli(n, member.p + 2, member.x, member.z))
            outside.append(
                Pauli(n, rng.randrange(4), rng.getrandbits(n), rng.getrandbits(n))
            )
        queries = members + negated + outside
        phases = [ref.membership_phase(q, gens) for q in queries]
        assert phases == [_membership_phase_by_solve(q, gens) for q in queries]
        if trial % 2:
            assert phases[:12] == [0] * 6 + [2] * 6


def test_membership_phase_sees_generators_mutated_in_place():
    n = 2
    gens = [Pauli.z_op(n, 0b01), Pauli.z_op(n, 0b10)]
    zz = Pauli.z_op(n, 0b11)
    assert membership_phase(zz, gens) == 0
    gens[0] = Pauli.x_op(n, 0b01)  # a list rewritten in place
    assert membership_phase(zz, gens) is None
    assert membership_phase(Pauli.x_op(n, 0b01), gens) == 0
    gens[0] = Pauli.z_op(n, 0b11)  # same side, another row
    assert membership_phase(Pauli.z_op(n, 0b01), gens) == 0
    gens.append(Pauli.x_op(n, 0b10))
    assert membership_phase(Pauli.x_op(n, 0b10), gens) == 0
    assert membership_phase(Pauli(n, 1, 0b10, 0b11), gens) == 1


def test_membership_phase_refuses_non_css_generators_and_other_sizes():
    n = 2
    zs = [Pauli.z_op(n, 0b01)]
    for gens in (
        zs + [Pauli(n, 2, 0, 0b10)],  # -Z
        zs + [Pauli(n, 1, 0b10, 0b10)],  # Y
        zs + [Pauli.z_op(3, 0b100)],  # a generator on other qubits
    ):
        with pytest.raises(GateError):
            membership_phase(Pauli.z_op(n, 0b01), gens)
    with pytest.raises(GateError):
        membership_phase(Pauli.z_op(3, 0b001), zs)


def _random_css_generators(rng, n):
    """Random X rows, Z rows drawn from their dual (so the group commutes),
    shuffled together; some rows repeat or depend on others."""
    x_rows = [rng.getrandbits(n) for _ in range(rng.randrange(0, n))]
    dual = dual_rows(x_rows, n)
    z_rows = [
        _xor(r for r in dual if rng.getrandbits(1)) for _ in range(rng.randrange(0, len(dual) + 2))
    ]
    gens = [Pauli.x_op(n, r) for r in x_rows if r] + [Pauli.z_op(n, r) for r in z_rows if r]
    rng.shuffle(gens)
    return gens


def _xor(rows):
    acc = 0
    for r in rows:
        acc ^= r
    return acc


def _random_paulis(rng, n, count):
    return [Pauli(n, rng.randrange(4), rng.getrandbits(n), rng.getrandbits(n)) for _ in range(count)]


def _assert_css_matches_reference(queries, gens):
    for p in queries:
        for q in (p, Pauli(p.n, p.p + 2, p.x, p.z)):  # and its negation
            assert membership_phase(q, gens) == ref.membership_phase(q, gens)


def test_css_membership_matches_reference_on_random_groups():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(1, 9)
        gens = _random_css_generators(rng, n)
        members = []
        for _ in range(4):
            member = Pauli(n, rng.randrange(4), 0, 0)
            for g in gens:
                if rng.getrandbits(1):
                    member = pauli_mul(member, g)
            members.append(member)
        _assert_css_matches_reference(members + _random_paulis(rng, n, 4), gens)


def _q2_circuits(table2):
    """Transversal S and H, the orbit CZ of the first element of each
    order, and the two type-cycle circuits, on the q=2 qubits."""
    n = table2.size
    circuits = {
        "S": Circuit(n, [[Gate("S", tuple(range(n)))]]),
        "H": Circuit(n, [[Gate("H", tuple(range(n)))]]),
    }
    first_of_order = {}
    for gid in range(1, table2.size):
        first_of_order.setdefault(table2.element_order(gid), gid)
    assert sorted(first_of_order) == [2, 3, 4, 7]
    for order, gid in first_of_order.items():
        circuits["orbit%d" % order] = orbit_cz_circuit([int(v) for v in table2.left_mul_perm(gid)])
    cyc = [int(v) for v in table2.type_cycle_perm()]
    circuits["cycle_phase"] = cycle_phase_circuit(cyc)
    circuits["cycle_clifford"] = cycle_clifford_circuit(cyc)
    return circuits


def test_css_membership_matches_reference_on_q2_gate_images(table2, code2):
    n = code2.n
    gens = list(cli._stabilizer_paulis(code2))
    randoms = _random_paulis(random.Random(3), n, 10)
    for name, circ in _q2_circuits(table2).items():
        images = [circ.conjugate(g) for g in gens]
        _assert_css_matches_reference(images + randoms, gens)
        expected = all(ref.membership_phase(p, gens) == 0 for p in images)
        assert cli._circuit_preserves(circ, gens) == expected, name
    assert cli._two_block_cz_preserves(gens, n) == _two_block_reference(gens, n)


def _two_block_reference(gens, n):
    """Whether CZ between the blocks preserves G x G, by membership of
    every image in the 2n-qubit generators of G x G (where CSS membership
    and the sign-exact reference must agree)."""
    two = [Pauli(2 * n, g.p, g.x << s, g.z << s) for s in (0, n) for g in gens]
    cz = Circuit(2 * n, [[Gate("CZ", (i, n + i)) for i in range(n)]])
    images = [cz.conjugate(g) for g in two]
    _assert_css_matches_reference(images, two)
    return all(ref.membership_phase(p, two) == 0 for p in images)


def test_s_and_two_block_cz_fail_once_an_x_row_leaves_rowspace_h_z(code2):
    """S takes X(a) to i^|a| X(a) Z(a), and the two-block CZ takes X(a) on
    one block to X(a) Z(a) across both, so each preserves the group only
    while every X row lies in rowspace(h_z).  At q=2 each h_z row is
    spanned by the other 62, so a logical in place of one Z generator
    keeps both symmetries; the same logical in place of one X generator
    does not.  CSS membership and the sign-exact reference agree."""
    n = code2.n
    gens = list(cli._stabilizer_paulis(code2))
    s_circ = Circuit(n, [[Gate("S", tuple(range(n)))]])
    assert cli._circuit_preserves(s_circ, gens)
    span = EchelonBasis(code2.h_z.int_rows())
    logical = next(r for r in dual_rows(code2.h_x.int_rows(), n) if span.reduce(r))
    for index, op, preserved in ((-1, Pauli.z_op, True), (0, Pauli.x_op, False)):
        mutated = list(gens)
        mutated[index] = op(n, logical)
        assert cli._circuit_preserves(s_circ, mutated) == preserved
        images = [s_circ.conjugate(g) for g in mutated]
        _assert_css_matches_reference(images, mutated)
        assert all(ref.membership_phase(p, mutated) == 0 for p in images) == preserved
        assert cli._two_block_cz_preserves(mutated, n) == preserved
        assert _two_block_reference(mutated, n) == preserved


def test_diagonal_circuits_query_only_the_generators_they_move(code2, monkeypatch):
    """S and the two-block CZ fix every Z generator, so only the images
    of the 63 X generators reach `membership_phase` (the two-block CZ
    queries both halves of each block's X images)."""
    queries = []
    counted = gates.membership_phase

    def count(p, generators):
        queries.append(p)
        return counted(p, generators)

    monkeypatch.setattr(gates, "membership_phase", count)
    n = code2.n
    gens = cli._stabilizer_paulis(code2)
    assert cli._circuit_preserves(Circuit(n, [[Gate("S", tuple(range(n)))]]), gens)
    assert len(queries) == code2.h_x.rows == 63
    assert all(p.x for p in queries)
    queries.clear()
    assert cli._two_block_cz_preserves(gens, n)
    assert len(queries) == 2 * 2 * 63


def test_perm_orbits():
    assert perm_orbits([1, 2, 0, 3]) == [[0, 1, 2], [3]]
    assert perm_orbits([0, 1]) == [[0], [1]]


def test_orbit_cz_circuit_structure():
    # 3-cycle plus a fixed point: CZ triangle and a lone Z
    circ = orbit_cz_circuit([1, 2, 0, 3])
    names = [g.name for layer in circ.layers for g in layer]
    assert names.count("CZ") == 3
    assert names.count("Z") == 1
    for layer in circ.layers:
        seen = set()
        for g in layer:
            assert not (set(g.qubits) & seen)
            seen |= set(g.qubits)
    with pytest.raises(GateError):
        orbit_cz_circuit([0, 1, 2])


def test_cycle_circuits_require_order_three():
    with pytest.raises(GateError):
        cycle_phase_circuit([1, 0])
    with pytest.raises(GateError):
        cycle_clifford_circuit([1, 0, 3, 2])


def test_cycle_clifford_circuit_shape():
    perm = [1, 2, 0, 3]
    circ = cycle_clifford_circuit(perm)
    assert len(circ.layers) == 2
    first = circ.layers[0]
    assert {g.name for g in first} == {"UPSILON", "GAMMA"}
    assert circ.layers[1][0].name == "PERM"
    # conjugation by the full circuit has order three
    p = Pauli(4, 0, 0b0101, 0b0010)
    q = p
    for _ in range(3):
        q = circ.conjugate(q)
    assert (q.x, q.z) == (p.x, p.z)


def test_check_r_conditions():
    rep = check_r_conditions(reed_muller(1, 3), 2)
    assert rep["local_divisibility_level"] == 2
    assert rep["meets_dimension_condition"]
    rep2 = check_r_conditions(reed_muller(0, 1), 2)
    assert rep2 == {"local_divisibility_level": 1, "meets_dimension_condition": False}


def test_check_cz_conditions():
    assert check_cz_conditions(reed_muller(1, 3), 2)["d_orthogonal"]
    assert not check_cz_conditions(reed_muller(1, 2), 2)["d_orthogonal"]
