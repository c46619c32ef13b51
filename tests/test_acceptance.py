"""End-to-end acceptance: one test per headline property of the
construction, each a single pass/fail line under pytest -v."""

import math
from fractions import Fraction

import numpy as np

from cosetcode import fixtures
from cosetcode.algebra import VectorIso, build_ring
from cosetcode.cli import local_report, main as cli_main
from cosetcode.complexes import verify_structure
from cosetcode.css import (
    cocycles_restrict_to_shrunk,
    extract_css,
    symplectic_color_basis,
    unfolding_check,
)
from cosetcode.floquet import build_schedule, run_schedule, vertex_x_operators
from cosetcode.gates import (
    Circuit,
    Gate,
    Pauli,
    apply_s,
    cycle_clifford_circuit,
    cycle_phase_circuit,
    in_group_with_sign,
    orbit_cz_circuit,
)
from cosetcode.gf2 import EchelonBasis
from cosetcode.group import sl_order
from cosetcode.local_codes import (
    divisibility_level,
    dual_code,
    reed_muller,
    star_product_code,
)
from cosetcode.sheaf import (
    attach_constant_sheaf,
    check_flasque,
    check_locally_acyclic,
    check_pair_products,
    check_projected_weights,
    cohomology_dim,
    link_vertex_code_dimension,
)

from conftest import _acts_freely_on_link, _ref_coset_labels


def _stabilizer_paulis(code):
    n = code.n
    gens = [Pauli.x_op(n, r) for r in code.h_x.int_rows()]
    gens += [Pauli.z_op(n, r) for r in code.h_z.int_rows()]
    return gens


def _preserves(circ, gens):
    return all(in_group_with_sign(circ.conjugate(g), gens) for g in gens)


def test_criterion_01_vertex_code_dimension_q8():
    ring = build_ring(3, 1)
    dim = link_vertex_code_dimension(ring, reed_muller(1, 3), VectorIso(ring.field))
    assert dim == 76


def test_criterion_02_vertex_code_dimension_q32():
    ring = build_ring(5, 1)
    dim = link_vertex_code_dimension(ring, reed_muller(2, 5), VectorIso(ring.field))
    assert dim == 5116


def test_criterion_03_rate_bound_q8():
    rep = local_report({"q": 8, "eta": 3, "m": 1, "phi": None, "r": 1, "D": 2})
    assert rep["rho0"] == Fraction(19, 128)
    assert rep["rate_bound"] == Fraction(7, 64)


def test_criterion_04_group_orders(table2, inst4):
    assert table2.size == sl_order(3, 2) == 168
    assert inst4["table"].size == sl_order(3, 4) == 60480


def test_criterion_05_unfolded_dimension(code2, sheaf2, dual2, torus_sheaves, inst4):
    assert code2.code_dimension() == 46 == 2 * cohomology_dim(sheaf2, 1)
    assert unfolding_check(code2, sheaf2, dual2, 0, 0)["ok"]
    s, sd = torus_sheaves
    tcode, _ = extract_css(s, 0, 0, s_dual=sd)
    assert tcode.code_dimension() == 4 == 2 * cohomology_dim(s, 1)
    assert unfolding_check(tcode, s, sd, 0, 0)["ok"]
    # q=4 by the unfolding route alone: k = C(2, 1) h^1, from the ranks of
    # δ^0 and δ^1 (60480×45360); `verify --q 4 --suite css` prints k = 44
    h1 = cohomology_dim(inst4["sheaf"], 1)
    assert h1 == 22 and math.comb(2, 1) * h1 == 44


def test_criterion_06_structure_and_commutation(code2, complex2, sheaf2, dual2, inst4):
    assert code2.h_x.matmul(code2.h_z.transpose()).is_zero()
    for c in (
        complex2,
        inst4["complex"],
        fixtures.octahedron(),
        fixtures.hexagonal_torus(),
        fixtures.cross_polytope_3sphere(),
    ):
        assert all(ok for ok, _ in verify_structure(c).values())
    # corrupted fixture is rejected
    bad = verify_structure(fixtures.corrupted_octahedron())
    assert not all(ok for ok, _ in bad.values())
    # even primal/dual overlap through every face pair, exhaustively
    assert check_pair_products(sheaf2, dual2, 2)["ok"]
    assert check_pair_products(inst4["sheaf"], inst4["dual"], 2)["ok"]


def test_criterion_07_chain_map_squares(code2, sheaf2, dual2):
    # the one chain-map square that can fail, per type through color 0;
    # the other three hold by construction (see the css module)
    for T in ((0, 1), (0, 2)):
        assert cocycles_restrict_to_shrunk(sheaf2, dual2, 0, 0, T)
    rep = unfolding_check(code2, sheaf2, dual2, 0, 0)
    assert rep["cocycles_restrict"] == {(0, 1): True, (0, 2): True}
    assert rep["cocycles_restrict_ok"]


def test_criterion_08_transversal_gates(code2, logicals2, table2):
    n = code2.n
    gens = _stabilizer_paulis(code2)
    assert _preserves(Circuit(n, [[Gate("S", tuple(range(n)))]]), gens)
    assert _preserves(Circuit(n, [[Gate("H", tuple(range(n)))]]), gens)
    two = [Pauli(2 * n, g.p, g.x, g.z) for g in gens] + [
        Pauli(2 * n, g.p, g.x << n, g.z << n) for g in gens
    ]
    cz = Circuit(2 * n, [[Gate("CZ", (i, n + i)) for i in range(n)]])
    assert _preserves(cz, two)
    # left-multiplication orbit gates for one element of each order 2, 3, 7
    found = {}
    for gid in range(1, table2.size):
        o = table2.element_order(gid)
        if o in (2, 3, 7) and o not in found:
            found[o] = gid
        if len(found) == 3:
            break
    assert set(found) == {2, 3, 7}
    for gid in found.values():
        perm = [int(v) for v in table2.left_mul_perm(gid)]
        assert _preserves(orbit_cz_circuit(perm), gens)
    # type-cycle diagonal and Clifford gates
    cyc = [int(v) for v in table2.type_cycle_perm()]
    assert _preserves(cycle_phase_circuit(cyc), gens)
    assert _preserves(cycle_clifford_circuit(cyc), gens)
    # transversal S couples the color-paired logicals:
    # X on the j-th support picks up Z on the (j+k mod 2k)-th support
    red, blue = symplectic_color_basis(code2, logicals2)
    k = len(red)
    x_sup = red + blue
    # the Z logical paired with the i-th X logical lives on the
    # opposite-color support, so Z-logical i occupies x_sup[(i+k) % 2k]
    z_sup = [x_sup[(i + k) % (2 * k)] for i in range(2 * k)]
    for i in range(2 * k):
        for j in range(2 * k):
            parity = (x_sup[i] & z_sup[j]).bit_count() % 2
            assert parity == (1 if i == j else 0)
    for j in range(2 * k):
        img = apply_s(Pauli.x_op(n, x_sup[j]), (1 << n) - 1)
        assert img.x == x_sup[j]
        assert img.z == z_sup[(j + k) % (2 * k)]


def test_criterion_09_divisibility(sheaf2, logicals2, code2, inst4):
    c = reed_muller(1, 3)
    assert divisibility_level(c) == 2
    words = [0]
    for g in c.rows:
        words += [w ^ g for w in words]
    pairs = [(u, v) for u in words for v in words]
    assert len(pairs) == 256
    assert all((u & v).bit_count() % 2 == 0 for u, v in pairs)
    dual = dual_code(c)
    sp = star_product_code(c, 1)
    assert not any(EchelonBasis(dual.rows).reduce(r) for r in sp.rows)
    # product weights over the full complex, q = 2: everything is even
    assert check_projected_weights(sheaf2, 2)["ok"]
    assert check_pair_products(sheaf2, sheaf2, 2)["ok"]
    b_rows = code2.h_x.int_rows()
    # the color of each h_x row: level-0 faces in (mask, index) order,
    # one row per local dimension
    row_color = [
        mask.bit_length() - 1
        for mask, idx in sheaf2.complex.level_faces(0)
        for _ in range(sheaf2.dim((mask, idx)))
    ]
    logicals = logicals2.x_logicals
    for s in b_rows:
        assert s.bit_count() % 2 == 0
    for _, l in logicals:
        assert l.bit_count() % 2 == 0
    for i, s in enumerate(b_rows):
        for T, l in logicals:
            if row_color[i] in T:
                assert (s & l).bit_count() % 2 == 0
    for T1, l1 in logicals:
        for T2, l2 in logicals:
            if T1 == T2:
                assert (l1 & l2).bit_count() % 2 == 0
    # q = 4: the doubly-even local code pushes single weights to 0 mod 4
    # and pairwise products stay even, checked through every face pair
    assert check_projected_weights(inst4["sheaf"], 4)["ok"]
    assert check_pair_products(inst4["sheaf"], inst4["sheaf"], 2)["ok"]


def test_criterion_10_vertex_stabilizer_acts_freely(table2, k0_table8):
    k0 = table2.enumerate_subgroup([0])
    assert len(k0) == 8
    link_reps = [table2.coset_reps([0, 1]), table2.coset_reps([0, 2])]
    assert all(_acts_freely_on_link(table2.left_mul_perm(h), k0, link_reps) for h in k0 if h != 0)
    ref = k0_table8
    size = len(ref.elems)
    assert size == 512
    # prod[g, h] = g*h: h = parent * s, so g*h = (g*parent) * s
    prod = np.empty((size, size), dtype=np.int64)
    prod[:, 0] = np.arange(size)
    for h in range(1, size):
        prod[:, h] = ref.cayley[prod[:, ref.parent[h]], ref.gen[h]]
    # K_{0,1} = K_2 and K_{0,2} = K_1
    link_reps = [_ref_coset_labels(ref, 2), _ref_coset_labels(ref, 1)]
    assert all(_acts_freely_on_link(prod[g], range(size), link_reps) for g in range(1, size))


def test_criterion_11_dynamic_schedule(sheaf2, dual2, code2):
    sched = build_schedule(sheaf2, dual2)
    rep = run_schedule(
        sched,
        periods=3,
        static_k=code2.code_dimension(),
        vertex_ops=vertex_x_operators(sheaf2),
    )
    assert rep["anomalies"] == 0
    assert rep["periodic"]
    assert rep["max_check_weight"] == 2
    assert rep["steady_logical_dimension"] == 23
    assert rep["half_dimension_ok"]


def test_criterion_12_scale_refusals_and_controls():
    # large builds are refused with the cap exit code, not attempted
    assert cli_main(["build", "--q", "8", "--cap-enumeration", "20000"]) == 3
    assert cli_main([
        "build", "--q", "4", "--cap-enumeration", "100000",
        "--cap-qubits", "1000",
    ]) == 3
    # the link-level route still yields the q = 8 numbers
    rep = local_report({"q": 8, "eta": 3, "m": 1, "phi": None, "r": 1, "D": 2})
    assert rep["vertex_code_dimension"] == 76
    assert rep["rate_bound"] == Fraction(7, 64)
    # three-dimensional condition checkers on synthetic complexes
    sphere = attach_constant_sheaf(fixtures.cross_polytope_3sphere())
    assert check_flasque(sphere)
    assert check_locally_acyclic(sphere)
    cone = attach_constant_sheaf(fixtures.torus_cone())
    assert check_flasque(cone)
    assert not check_locally_acyclic(cone)
