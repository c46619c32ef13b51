"""Tanner sheaves: induction, cohomology, cup products, and the
exhaustive local product checks."""

import hashlib
import itertools
import random

import numpy as np
import pytest

from cosetcode import fixtures
from cosetcode.algebra import VectorIso, build_ring
from cosetcode.complexes import Complex, colors_of, corrupt_complex, mask_of, verify_structure
from cosetcode.gf2 import BitMatrix, EchelonBasis, dual_rows, row_space_equal
from cosetcode.group import GroupTable
from cosetcode.local_codes import LinearCode, dual_code, reed_muller
from cosetcode.sheaf import (
    Cochain,
    SheafError,
    attach_constant_sheaf,
    attach_explicit,
    attach_local_codes,
    check_flasque,
    check_locally_acyclic,
    check_pair_products,
    check_projected_weights,
    coboundary_matrix,
    cohomology_dim,
    cup_product,
    dual_sheaf,
    induce_lower_codes,
    link_vertex_code_dimension,
    projection_matrix,
    sheaf_at_link,
    star_sheaf,
)

from conftest import (
    _ref_coboundary_image_basis,
    _ref_cocycle_basis,
    _ref_coset_labels,
    _ref_enumerate,
)
from stabilizer_reference import certified_reduce


def _matvec(m, x):
    """m @ x over GF(2), x indexed by the columns."""
    bits = ((v & x).bit_count() & 1 for v in m.int_rows())
    return sum(b << i for i, b in enumerate(bits))


@pytest.mark.parametrize(
    "name,betti",
    [
        ("octahedron", [1, 0, 1]),
        ("hexagonal_torus", [1, 2, 1]),
        ("single_triangle", [1, 0, 0]),
        ("cross_polytope_3sphere", [1, 0, 0, 1]),
    ],
)
def test_constant_sheaf_cohomology(name, betti):
    c = getattr(fixtures, name)()
    s = attach_constant_sheaf(c)
    assert [cohomology_dim(s, j) for j in range(c.D + 1)] == betti
    assert check_flasque(s)
    assert check_locally_acyclic(s)
    # the Euler characteristic of the cochain spaces is that of cohomology
    chi = sum((-1) ** j * s.level_dim(j) for j in range(c.D + 1))
    assert chi == sum((-1) ** j * cohomology_dim(s, j) for j in range(c.D + 1))


def test_torus_cone_is_not_locally_acyclic():
    s = attach_constant_sheaf(fixtures.torus_cone())
    assert check_flasque(s)
    assert not check_locally_acyclic(s)


def _basis(s, face):
    """The local code of `face` as a matrix over the face's up-set."""
    return BitMatrix.from_int_rows(s.rows(face), len(s.complex.up_set(face)))


def _full_code(n):
    return LinearCode([1 << i for i in range(n)], n)


def _codes(matrices):
    """Each face's matrix as the code its rows span."""
    return {face: LinearCode(m.int_rows(), m.cols) for face, m in matrices.items()}


def _walk_offsets(s, j):
    """Reference for the C^j coordinate layout: walk the level-j faces in
    (mask, index) order, `dim(face)` coordinates each.  Returns each
    face's first coordinate and the level's dimension."""
    offsets, total = {}, 0
    for mask in s.complex.level_masks(j):
        for idx in s.complex.faces(mask):
            offsets[(mask, idx)] = total
            total += s.dim((mask, idx))
    return offsets, total


def _coded_faces(s):
    """The faces below the top that have a local code."""
    c = s.complex
    return {(m, f) for m in c.masks[:-1] for f in np.flatnonzero(s.which[m] >= 0).tolist()}


def _widened_face_sheaf():
    """The constant sheaf on the 16-cell with one level-2 face's code
    widened to its whole up-set: local dimensions differ within a type."""
    c = fixtures.cross_polytope_3sphere()
    s = attach_constant_sheaf(c)
    bad = {face: LinearCode(s.rows(face), len(c.up_set(face))) for face in _coded_faces(s)}
    bad[(7, 0)] = _full_code(len(c.up_set((7, 0))))
    return attach_explicit(c, bad)


def test_flasque_detects_widened_face_code():
    assert not check_flasque(_widened_face_sheaf())


def test_coboundary_squares_to_zero(sheaf2, dual2):
    for s in (sheaf2, dual2):
        d0 = coboundary_matrix(s, 0)
        d1 = coboundary_matrix(s, 1)
        assert d1.matmul(d0).is_zero()


def test_q2_sheaf_dimensions(sheaf2):
    # 63 vertices of local dimension 1, 252 edges of local dimension 1
    assert sheaf2.level_dim(0) == 63
    assert sheaf2.level_dim(1) == 252
    assert sheaf2.level_dim(2) == 168
    assert cohomology_dim(sheaf2, 1) == 23


def test_dual_of_dual_is_original(sheaf2):
    back = dual_sheaf(dual_sheaf(sheaf2))
    for face in sheaf2.complex.level_faces(1):
        assert row_space_equal(_basis(back, face), _basis(sheaf2, face))


def test_only_a_self_dual_induced_sheaf_is_its_own_dual(sheaf2, dual2, inst4):
    # RM(0,1) is self-dual; q=4's RM(0,2) is not, so its dual is built apart
    assert dual2 is sheaf2 and dual_sheaf(sheaf2) is sheaf2
    assert inst4["dual"] is not inst4["sheaf"]


def _q2_codes(sheaf2, level, full=()):
    """sheaf2's codes on the level-`level` faces, the full code on `full`."""
    c = sheaf2.complex
    codes = {f: LinearCode(sheaf2.rows(f), len(c.up_set(f))) for f in c.level_faces(level)}
    return codes | {f: _full_code(len(c.up_set(f))) for f in full}


def test_explicit_lower_codes_are_re_induced_by_the_dual(sheaf2):
    # negative control: self-dual defining codes, but a vertex code set by
    # hand (widened to its up-set), so the lower codes are not known to be
    # induced; the dual re-induces them, and its vertex code is sheaf2's
    c = sheaf2.complex
    s = attach_explicit(c, _q2_codes(sheaf2, 1) | _q2_codes(sheaf2, 0, [(1, 0)]))
    assert s.rows((1, 0)) != sheaf2.rows((1, 0))
    d = dual_sheaf(s)
    assert d is not s
    for face in _coded_faces(sheaf2):
        assert d.rows(face) == sheaf2.rows(face), face


@pytest.mark.parametrize(
    "full",
    [[(m, f) for f in range(84)] for m in (3, 5, 6)] + [[(3, 41)]],
    ids=["type3", "type5", "type6", "one_face_of_type3"],
)
def test_a_face_that_is_not_self_dual_keeps_the_dual_apart(sheaf2, full):
    # RM(0,1) on every edge but `full`, which carries the full code (dual
    # zero): one type, or one face that is not its type's first, is enough
    c = sheaf2.complex
    s = induce_lower_codes(attach_explicit(c, _q2_codes(sheaf2, 1, full)))
    d = dual_sheaf(s)
    assert d is not s
    ref = _ref_dual(c, _ref_induce(c, {f: _basis(s, f) for f in c.level_faces(1)}))
    for face, basis in ref.items():
        assert _basis(d, face) == basis, face


def test_self_duality_is_read_face_by_face():
    # a graph (D = 1): color-0 vertices a, b, c with up-sets of 2, 3 and 3
    # tops, four color-1 vertices with 2 each.  On a, b, c the codes
    # [11], [100, 011], [011] have duals [11], [11], [100, 011]: the type
    # lists the same two codes in the same order on both sides, but only
    # a's code is its own dual
    c = Complex.from_top_faces(1, [[0, 0], [0, 1], [1, 0], [1, 2], [1, 3], [2, 1], [2, 2], [2, 3]])
    assert c.up_set_sizes(1).tolist() == [2, 3, 3] and c.up_set_sizes(2).tolist() == [2] * 4
    codes = {(1, 0): LinearCode([0b11], 2), (1, 1): LinearCode([0b100, 0b011], 3)}
    codes[(1, 2)] = LinearCode([0b011], 3)
    codes |= {(2, f): LinearCode([0b11], 2) for f in range(4)}
    s = induce_lower_codes(attach_explicit(c, codes))
    d = dual_sheaf(s)
    assert d is not s
    assert d.codes[1] == s.codes[1] and d.which[1].tolist() != s.which[1].tolist()
    ref = _ref_dual(c, {f: _basis(s, f) for f in c.level_faces(0)})
    for face, basis in ref.items():
        assert _basis(d, face) == basis, face


def test_projection_scatters_injectively(sheaf2):
    pi = projection_matrix(sheaf2, 0)
    # every row has the weight of its source basis row (8 here)
    assert (pi.rows, pi.cols) == (63, 168)
    assert set(pi.row_weights()) == {8}


def _set_bits(out, i, js):
    """The per-bit scatter that once filled these matrices, into a dense
    array of one byte per entry."""
    out[i, list(js)] = 1


def _projection_by_set_bits(s, j):
    c = s.complex
    offsets, dim = _walk_offsets(s, j)
    out = np.zeros((dim, c.n_top), dtype=np.uint8)
    for face in c.level_faces(j):
        ups = c.up_set(face)
        basis = _basis(s, face)
        for i, w in enumerate(basis.int_rows()):
            for p, t in enumerate(ups):
                if (w >> p) & 1:
                    _set_bits(out, offsets[face] + i, [t])
    return BitMatrix.from_dense(out)


def _constant_sheaves():
    names = ("octahedron", "hexagonal_torus", "single_triangle", "cross_polytope_3sphere")
    return [attach_constant_sheaf(getattr(fixtures, name)()) for name in names]


def test_projection_matches_set_bits_reference(sheaf2, dual2, complex2, ring2):
    # every face of sheaf2 and dual2 has dimension 1; the full local code
    # at q=2 gives vertex dimension 8 and edge dimension 2
    full = induce_lower_codes(
        attach_local_codes(complex2, reed_muller(1, 1), VectorIso(ring2.field), ring2)
    )
    for s in [sheaf2, dual2, full] + _constant_sheaves():
        D = s.complex.D
        for j in range(D + 1):
            assert projection_matrix(s, j) == _projection_by_set_bits(s, j)


def test_projection_refuses_a_level_outside_the_complex(sheaf2):
    for j in (-1, 3, 5):
        with pytest.raises(SheafError, match="projection level out of range"):
            projection_matrix(sheaf2, j)


def _cofaces(c, face, super_mask):
    """Indices of the type-`super_mask` faces containing `face`."""
    if face[0] & ~super_mask:
        return []
    return sorted({int(c.top_to_face[super_mask][t]) for t in c.up_set(face)})


def _ref_attach(c, code, iso, ring):
    """The BitMatrix construction of the oriented edge codes that the
    int-row sheaf replaced, kept as the reference."""
    table = c.group
    q = ring.field.q
    out = {}
    for mask in c.level_masks(c.D - 1):
        cotype = next(j for j in range(c.n_colors) if not (mask >> j) & 1)
        for idx in c.faces(mask):
            ups = c.up_set((mask, idx))
            g = ups[0]  # the coset's least element
            pos = {t: p for p, t in enumerate(ups)}
            perm = [0] * q
            perm[iso.apply_int(0)] = pos[g]
            for col, (color, alpha, _) in enumerate(table.gens):
                if color == cotype:
                    perm[iso.apply_int(alpha)] = pos[int(table.cayley[g, col])]
            rows = []
            for w in code.rows:
                rows.append(sum(1 << perm[p] for p in range(q) if (w >> p) & 1))
            out[(mask, idx)] = BitMatrix.from_int_rows(rows, q).rref()[0]
    return out


def _ref_induce(c, defining):
    """Lower codes as kernels of the stacked BitMatrix kernels above."""
    out = dict(defining)
    top_masks = c.level_masks(c.D - 1)
    duals = {face: out[face].kernel_basis() for face in c.level_faces(c.D - 1)}
    for level in range(c.D - 2, -1, -1):
        for face in c.level_faces(level):
            ups = c.up_set(face)
            pos = {t: p for p, t in enumerate(ups)}
            rows = []
            for smask in top_masks:
                for sidx in _cofaces(c, face, smask):
                    sups = c.up_set((smask, sidx))
                    for w in duals[(smask, sidx)].int_rows():
                        rows.append(sum(1 << pos[t] for p, t in enumerate(sups) if (w >> p) & 1))
            if rows:
                constraints = BitMatrix.from_int_rows(rows, len(ups))
                out[face] = constraints.kernel_basis().rref()[0]
            else:
                out[face] = BitMatrix.identity(len(ups))
    return out


def _ref_dual(c, bases):
    top = c.level_faces(c.D - 1)
    return _ref_induce(c, {f: bases[f].kernel_basis().rref()[0] for f in top})


def _ragged_complex():
    """A 2-complex from 14 random label triples: up-set sizes vary within
    a type (vertices lie in 3 to 6 tops, edges in 1 to 3)."""
    triples = list(itertools.product(range(3), repeat=3))
    return Complex.from_top_faces(2, sorted(random.Random(5).sample(triples, 14)))


def _random_codes(c, seed):
    """A random code over the up-set of every (D-1)-face, in RREF."""
    rng = random.Random(seed)
    out = {}
    for face in c.level_faces(c.D - 1):
        n = len(c.up_set(face))
        rows = [rng.getrandbits(n) for _ in range(rng.randrange(n + 1))]
        out[face] = BitMatrix.from_int_rows(rows, n).rref()[0]
    return out


def test_int_row_sheaf_matches_bitmatrix_reference(complex2, ring2):
    c, iso = complex2, VectorIso(ring2.field)
    cases = []
    # every Reed-Muller code of length 2 or 4 is invariant under all
    # coordinate permutations; the span of 10 is not, so only it pins
    # the orientation that attach_local_codes scatters by
    for rm in (reed_muller(0, 1), reed_muller(1, 1), LinearCode([0b01], 2)):
        s = induce_lower_codes(attach_local_codes(c, rm, iso, ring2))
        ref = _ref_induce(c, _ref_attach(c, rm, iso, ring2))
        d = dual_sheaf(s)
        # of these, only RM(0,1) is self-dual: its sheaf is its own dual
        assert (d is s) == (rm == reed_muller(0, 1))
        ref_d = _ref_dual(c, ref)
        cases += [(s, ref), (d, ref_d), (dual_sheaf(d), _ref_dual(c, ref_d))]
    for s in _constant_sheaves():
        cx = s.complex
        ref = {
            f: BitMatrix.from_int_rows([(1 << len(cx.up_set(f))) - 1], len(cx.up_set(f)))
            for j in range(cx.D)
            for f in cx.level_faces(j)
        }
        cases += [(s, ref), (dual_sheaf(s), _ref_dual(cx, ref))]
    # non-constant codes: two induced levels at D = 3, ragged up-sets, and
    # a vertex in 81 tops (constraint rows of two words)
    wide = Complex.from_top_faces(2, [[0, a, b] for a in range(9) for b in range(9)])
    for cx, seed in ((fixtures.cross_polytope_3sphere(), 7), (_ragged_complex(), 8), (wide, 9)):
        defining = _random_codes(cx, seed)
        assert len({defining[f].rank() for f in defining}) > 1
        s = induce_lower_codes(attach_explicit(cx, _codes(defining)))
        ref = _ref_induce(cx, defining)
        cases += [(s, ref), (dual_sheaf(s), _ref_dual(cx, ref))]
    for s, ref in cases:
        cx = s.complex
        assert _coded_faces(s) == set(ref)
        for face, basis in ref.items():
            assert _basis(s, face) == basis
        r = attach_explicit(cx, _codes(ref))
        for j in range(cx.D + 1):
            if j < cx.D:
                assert coboundary_matrix(s, j) == coboundary_matrix(r, j)
                assert coboundary_matrix(s, j) is coboundary_matrix(s, j)
            assert projection_matrix(s, j) == projection_matrix(r, j)


def test_attach_rejects_a_rep_outside_its_face(complex2, ring2):
    # swapping the second tops of two edges keeps a partition, but puts
    # each edge's rep*e(alpha*t) in the other edge
    c = complex2
    mask = c.level_masks(1)[0]
    face_tops = dict(c.face_tops)
    face_tops[mask] = c.face_tops[mask].copy()
    face_tops[mask][[0, 1], 1] = face_tops[mask][[1, 0], 1]
    bad = Complex(c.D, c.n_top, face_tops, group=c.group)
    with pytest.raises(SheafError, match="outside face"):
        attach_local_codes(bad, reed_muller(0, 1), VectorIso(ring2.field), ring2)


@pytest.mark.parametrize("mask", [1, 2, 3, 4, 5, 6])
def test_sheaf_refuses_a_type_that_misses_a_top(mask):
    # the octahedron with one top dropped from a type-`mask` face: the
    # structure report flags it, and no sheaf is built on it
    bad = corrupt_complex(fixtures.octahedron(), mask)
    report = verify_structure(bad)
    assert not report["disjoint_union"][0] and report["purity"][0]
    with pytest.raises(SheafError, match="miss a top"):
        attach_constant_sheaf(bad)


def test_sheaf_refuses_faces_that_do_not_nest():
    # two tops swapped between edges 0 and 1 of type {0, 1}: still a
    # partition, but each edge now spans two color-1 vertices
    c = fixtures.octahedron()
    face_tops = dict(c.face_tops)
    edges = face_tops[0b011] = c.face_tops[0b011].copy()
    edges[0, 1], edges[1, 0] = edges[1, 0], edges[0, 1]
    bad = Complex(c.D, c.n_top, face_tops)
    report = verify_structure(bad)
    assert report["disjoint_union"][0] and not report["colorability"][0]
    with pytest.raises(SheafError, match="type-3 face spans two type-2 faces"):
        attach_constant_sheaf(bad)


def test_attach_explicit_rejects_wrong_width():
    c = fixtures.octahedron()
    with pytest.raises(SheafError):
        attach_explicit(c, {(0b011, 0): _full_code(3)})


def test_cocycles_contain_coboundaries(sheaf2):
    z = EchelonBasis(_ref_cocycle_basis(sheaf2, 1).int_rows())
    d0 = coboundary_matrix(sheaf2, 0)
    for i in range(min(10, d0.cols)):
        assert not z.reduce(_matvec(d0, 1 << i))


def _coboundary_by_solve(s, j):
    """Reference: gather restrictions per target face and solve each in
    the transposed target basis."""
    c = s.complex
    src_off, src_dim = _walk_offsets(s, j)
    dst_off, dst_dim = _walk_offsets(s, j + 1)
    out = [0] * dst_dim
    pending = {}
    for face in c.level_faces(j):
        mask, idx = face
        ups = c.up_set(face)
        basis = _basis(s, face)
        for smask in c.level_masks(j + 1):
            if mask & ~smask:
                continue
            for sidx in _cofaces(c, face, smask):
                spos = [ups.index(t) for t in c.up_set((smask, sidx))]
                for i, w in enumerate(basis.int_rows()):
                    r = sum(1 << p for p, sp in enumerate(spos) if (w >> sp) & 1)
                    pending.setdefault((smask, sidx), []).append((src_off[face] + i, r))
    for tface, entries in pending.items():
        tb = _basis(s, tface)
        rhs = BitMatrix.from_int_rows([r for _, r in entries], tb.cols).transpose()
        x = tb.transpose().solve(rhs)
        assert x is not None
        for col, (src_coord, _) in enumerate(entries):
            for i, row in enumerate(x.int_rows()):
                if (row >> col) & 1:
                    out[dst_off[tface] + i] |= 1 << src_coord
    return BitMatrix.from_int_rows(out, src_dim)


def test_coboundary_matches_reference(sheaf2, dual2):
    for s in (sheaf2, dual2):
        for j in range(s.complex.D):
            assert coboundary_matrix(s, j) == _coboundary_by_solve(s, j)


def test_coboundary_rejects_restriction_outside_local_code():
    c = fixtures.octahedron()
    local = {}
    for mask in (0b011, 0b101, 0b110):
        for idx in c.faces(mask):
            local[(mask, idx)] = LinearCode([0b11], 2)
    for mask in (1, 2, 4):
        for idx in c.faces(mask):
            local[(mask, idx)] = _full_code(4)
    with pytest.raises(SheafError):
        coboundary_matrix(attach_explicit(c, local), 0)


def test_cup_product_leibniz_rule():
    c = fixtures.octahedron()
    s = attach_constant_sheaf(c)
    ss = star_sheaf(s, s)
    d0 = coboundary_matrix(s, 0)
    d1 = coboundary_matrix(s, 1)
    d0s = coboundary_matrix(ss, 0)
    d1s = coboundary_matrix(ss, 1)
    rng = random.Random(7)
    for _ in range(10):
        f = Cochain(s, 0, rng.getrandbits(s.level_dim(0)))
        g = Cochain(s, 0, rng.getrandbits(s.level_dim(0)))
        df = Cochain(s, 1, _matvec(d0, f.data))
        dg = Cochain(s, 1, _matvec(d0, g.data))
        fg = cup_product(f, g, target=ss)
        assert _matvec(d0s, fg.data) == (
            cup_product(df, g, target=ss) ^ cup_product(f, dg, target=ss)
        ).data
        h = Cochain(s, 1, rng.getrandbits(s.level_dim(1)))
        dh = Cochain(s, 2, _matvec(d1, h.data))
        hg = cup_product(h, g, target=ss)
        assert _matvec(d1s, hg.data) == (
            cup_product(dh, g, target=ss) ^ cup_product(h, dg, target=ss)
        ).data


def test_cup_product_of_cocycles_is_cocycle(sheaf2):
    s = sheaf2
    ss = star_sheaf(s, s)
    # the first cocycle outside B^1, and a 0-cocycle
    acc = EchelonBasis(_ref_coboundary_image_basis(s, 1).int_rows())
    f = Cochain(s, 1, next(r for r in _ref_cocycle_basis(s, 1).int_rows() if acc.insert(r)))
    z0 = _ref_cocycle_basis(s, 0)
    g = Cochain(s, 0, z0.int_rows()[0])
    fg = cup_product(f, g, target=ss)
    d1s = coboundary_matrix(ss, 1)
    assert _matvec(d1s, fg.data) == 0


def test_cochain_refuses_data_outside_the_level(sheaf2):
    s = sheaf2
    top = (1 << s.level_dim(1)) - 1
    assert Cochain(s, 1, top).data == top
    for bad in (-1, top + 1):
        with pytest.raises(SheafError, match="cochain data"):
            Cochain(s, 1, bad)


def test_pair_products_even_overlap_q2(sheaf2, dual2):
    assert check_pair_products(sheaf2, dual2, 2)["ok"]
    assert check_pair_products(sheaf2, sheaf2, 2)["ok"]
    assert check_projected_weights(sheaf2, 2)["ok"]


def test_pair_products_catch_odd_overlap():
    # identity "codes" on the octahedron edges violate even overlap; with
    # the color-0 labels swapped, face 1 holds the first top, so the first
    # odd pair is found on it
    tops = [[sx, sy, sz] for sx in (0, 1) for sy in (0, 1) for sz in (0, 1)]
    swapped = [[1 - sx, sy, sz] for sx, sy, sz in tops]
    for c in (fixtures.octahedron(), Complex.from_top_faces(2, swapped)):
        local = {}
        for mask in (0b011, 0b101, 0b110):
            for idx in c.faces(mask):
                local[(mask, idx)] = _full_code(2)
        for mask in (1, 2, 4):
            for idx in c.faces(mask):
                local[(mask, idx)] = _full_code(4)
        s = attach_explicit(c, local)
        result = check_pair_products(s, s, 2)
        assert not result["ok"]
        assert result == _ref_pair_products(s, s, 2)
        assert not check_projected_weights(s, 2)["ok"]
    assert result["witness"] == ((1, 1), (1, 1))


def test_link_vertex_code_dimension_q2(ring2):
    code = reed_muller(0, 1)
    iso = VectorIso(ring2.field)
    assert link_vertex_code_dimension(ring2, code, iso) == 1


def _zeroed_reps(k0, cotype):
    """Each cotype-`cotype` edge's element (a, b, c) with a = 0 (cotype 1)
    or b = 0 (cotype 2): the rep the link orients from."""
    i, j = (0, 1) if cotype == 1 else (1, 2)
    return [g for g, e in enumerate(k0.elems) if e.entries[i][j] == 0]


def _min_id_reps(k0, cotype):
    """Each cotype-`cotype` edge's least element id."""
    return sorted(set(_ref_coset_labels(k0, cotype).tolist()))


def _ref_link_dimension(ring, code, iso, reps=_zeroed_reps):
    """The stacked-check construction: the oriented dual-code constraints
    of every edge through the vertex, as rows over the q^3 tops of K_0
    closed by the dict loop, each edge oriented from `reps(k0, cotype)`;
    dim F_v is q^3 minus their rank."""
    q = ring.field.q
    k0 = _ref_enumerate(ring, 3, (1, 2))
    size = len(k0.elems)
    supports = [[p for p in range(q) if (w >> p) & 1] for w in dual_code(code).rows]
    rows = []
    for cotype in (2, 1):
        edge_reps = reps(k0, cotype)
        assert len(edge_reps) == q * q
        for rep in edge_reps:
            top_bits = [0] * q
            top_bits[iso.apply_int(0)] = 1 << rep
            for col, (color, alpha) in enumerate(k0.gens):
                if color == cotype:
                    top_bits[iso.apply_int(alpha)] = 1 << int(k0.cayley[rep, col])
            rows.extend(sum(top_bits[p] for p in support) for support in supports)
    return size - BitMatrix.from_int_rows(rows, size).rank()


# dim F_v for RM(r, eta), r = 0..eta; 76 at q=8 is the paper's, the rest
# are regression pins (137 for RM(1,4) at q=16 among them)
LINK_DIMS = {1: [1, 8], 2: [1, 33, 64], 3: [1, 76, 385, 512], 4: [1, 137, 1673, 3585, 4096]}


@pytest.mark.parametrize("eta", sorted(LINK_DIMS))
def test_link_dimension_matches_stacked_checks_on_reed_muller(eta):
    ring = build_ring(eta, 1)
    iso = VectorIso(ring.field)
    codes = [reed_muller(r, eta) for r in range(eta + 1)]
    dims = [link_vertex_code_dimension(ring, code, iso) for code in codes]
    assert dims == LINK_DIMS[eta]
    # RM codes are translation-invariant: either rep gives the same values
    for reps in (_zeroed_reps, _min_id_reps):
        assert dims == [_ref_link_dimension(ring, code, iso, reps) for code in codes]


def _random_code(rng, q, k):
    while True:
        code = LinearCode([rng.getrandbits(q) for _ in range(k)], q)
        if code.k == k:
            return code


@pytest.mark.parametrize("eta", [2, 3])
def test_link_dimension_matches_stacked_checks_on_random_codes(eta):
    """Every dimension from the zero code to the full code, so k > q - k
    is covered, two seeded codes each."""
    rng = random.Random(eta)
    ring = build_ring(eta, 1)
    iso = VectorIso(ring.field)
    q = ring.field.q
    for k in range(q + 1):
        for _ in range(2):
            code = _random_code(rng, q, k)
            dim = link_vertex_code_dimension(ring, code, iso)
            assert dim == _ref_link_dimension(ring, code, iso), (k, code.rows)
            if k in (0, q):
                assert dim == k * q * q


def _ref_link_rows(ring, code, iso):
    """M by a plain loop over (i, b, c, a): row (b, c, i) sums, over the a
    with P(a) in row i's support, the check column of position P(b)
    shifted to column block a*q + (c + ab), P(x) = U(x t^-1)."""
    f = ring.field
    q = f.q
    pos = [iso.apply_int(f.mul(x, f.inv(ring.t))) for x in range(q)]
    checks = dual_rows(code.rows, q)
    r = q - code.k
    rows = []
    for w in code.rows:
        for b in range(q):
            col = sum(((h >> pos[b]) & 1) << j for j, h in enumerate(checks))
            for c in range(q):
                row = 0
                for a in range(q):
                    if (w >> pos[a]) & 1:
                        row ^= col << r * (a * q + (c ^ f.mul(a, b)))
                rows.append(row)
    return rows


def _ranked_link_matrix(monkeypatch, ring, code):
    """dim F_v and the one matrix link_vertex_code_dimension ranks."""
    ranked = []
    rank = BitMatrix.rank
    with monkeypatch.context() as mp:
        mp.setattr(BitMatrix, "rank", lambda m: ranked.append(m) or rank(m))
        dim = link_vertex_code_dimension(ring, code, VectorIso(ring.field))
    (m,) = ranked
    return dim, m


@pytest.mark.parametrize(
    "eta,code",
    [
        (3, reed_muller(1, 3)),
        (4, reed_muller(1, 4)),
        (4, reed_muller(2, 4)),
        (3, LinearCode([0b10110001, 0b01101100, 0b00011011], 8)),
    ],
    ids=["rm13", "rm14", "rm24", "random8"],
)
def test_link_matrix_is_the_per_top_loop(eta, code, monkeypatch):
    """RM(2,4) has k > q - k, so its matrix is its dual's, RM(1,4)'s; the
    [8, 3] code is not translation-invariant, so it pins the orientation."""
    ring = build_ring(eta, 1)
    thin = code if 2 * code.k <= code.n else dual_code(code)
    _, m = _ranked_link_matrix(monkeypatch, ring, code)
    assert m.int_rows() == _ref_link_rows(ring, thin, VectorIso(ring.field))


def test_link_builds_no_group_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("GroupTable built")

    monkeypatch.setattr(GroupTable, "__init__", refuse)
    ring = build_ring(3, 1)
    assert link_vertex_code_dimension(ring, reed_muller(1, 3), VectorIso(ring.field)) == 76


@pytest.mark.parametrize("iso_eta", [2, 4])
def test_link_refuses_an_iso_over_another_field(iso_eta):
    ring = build_ring(3, 1)
    iso = VectorIso(build_ring(iso_eta, 1).field)
    with pytest.raises(SheafError, match="iso is over F_%d" % (1 << iso_eta)):
        link_vertex_code_dimension(ring, reed_muller(1, 3), iso)


@pytest.mark.parametrize(
    "eta,code,shape",
    [
        (3, reed_muller(1, 3), (256, 256)),
        (4, reed_muller(1, 4), (1280, 2816)),
        (4, reed_muller(2, 4), (1280, 2816)),
        (4, LinearCode([], 16), (0, 4096)),
        (4, reed_muller(4, 4), (0, 4096)),
    ],
    ids=["rm13", "rm14", "rm24", "zero16", "full16"],
)
def test_link_matrix_has_e_min_k_rows(eta, code, shape, monkeypatch):
    """E*min(k, q-k) rows of E*(q - min(k, q-k)) columns."""
    _, m = _ranked_link_matrix(monkeypatch, build_ring(eta, 1), code)
    assert (m.rows, m.cols) == shape


@pytest.mark.parametrize("k", [9, 15])
def test_link_dimension_of_a_thick_random_code_goes_through_its_dual(k, monkeypatch):
    """Seeded random [16, k] codes with k > q - k: the matrix ranked has
    E*(q-k) rows, and the dimension matches the stacked checks."""
    rng = random.Random(k)
    ring = build_ring(4, 1)
    for _ in range(2):
        code = _random_code(rng, 16, k)
        dim, m = _ranked_link_matrix(monkeypatch, ring, code)
        assert (m.rows, m.cols) == (256 * (16 - k), 256 * k)
        assert dim == _ref_link_dimension(ring, code, VectorIso(ring.field)), code.rows


def test_attach_rejects_wrong_length(complex2, ring2):
    iso = VectorIso(ring2.field)
    with pytest.raises(SheafError):
        attach_local_codes(complex2, reed_muller(0, 2), iso, ring2)


def test_sheaf_at_link_matches_vertex_code(sheaf2):
    c = sheaf2.complex
    face = (1, 0)
    link_sheaf = sheaf_at_link(sheaf2, face)
    total = sum(
        len(link_sheaf.rows(f))
        for f in link_sheaf.complex.level_faces(link_sheaf.complex.D - 1)
    )
    assert total > 0


# -- references: the face-pair restrict-and-reduce loops the gathers replaced


def _ref_restrict(rows, ups, sub):
    """Rows over the up-set `ups` read bit by bit on its subset `sub`."""
    spos = [ups.index(t) for t in sub]
    return [sum(((w >> p) & 1) << k for k, p in enumerate(spos)) for w in rows]


def _ref_restrictions(s, level):
    """(face, coface, the face's rows restricted to the coface)."""
    c = s.complex
    for face in c.level_faces(level):
        for smask in c.level_masks(level + 1):
            for sidx in _cofaces(c, face, smask):
                sub = c.up_set((smask, sidx))
                yield face, (smask, sidx), _ref_restrict(s.rows(face), c.up_set(face), sub)


def _ref_coboundary(s, j):
    """Reduce every restricted row against its coface's rows, reading the
    coefficients off the reduction's tag bits."""
    src_off, src_dim = _walk_offsets(s, j)
    dst_off, dst_dim = _walk_offsets(s, j + 1)
    out = [0] * dst_dim
    for face, tface, restricted in _ref_restrictions(s, j):
        target = certified_reduce(s.rows(tface))
        for i, r in enumerate(restricted):
            residual, combo = target(r)
            if residual:
                raise SheafError("restriction to %r leaves the local code" % (tface,))
            for l in range(s.dim(tface)):
                if (combo >> l) & 1:
                    out[dst_off[tface] + l] |= 1 << (src_off[face] + i)
    return BitMatrix.from_int_rows(out, src_dim)


def _ref_flasque(s):
    for level in range(s.complex.D):
        for _, tface, restricted in _ref_restrictions(s, level):
            target = EchelonBasis(s.rows(tface))
            if len(EchelonBasis(restricted)) != s.dim(tface):
                return False
            if any(target.reduce(r) for r in restricted):
                return False
    return True


def _ref_pair_products(s1, s2, modulus):
    """Face pairs met through the tops in top order; rows restricted to
    the union face bit by bit."""
    c = s1.complex
    checked = 0
    for m1 in c.masks[:-1]:
        for m2 in c.masks[:-1]:
            if bin(m1 | m2).count("1") > c.D:
                continue
            seen = set()
            for t in range(c.n_top):
                fa = (m1, int(c.top_to_face[m1][t]))
                fb = (m2, int(c.top_to_face[m2][t]))
                if (fa, fb) in seen:
                    continue
                seen.add((fa, fb))
                shared = c.up_set((m1 | m2, int(c.top_to_face[m1 | m2][t])))
                for a in _ref_restrict(s1.rows(fa), c.up_set(fa), shared):
                    for b in _ref_restrict(s2.rows(fb), c.up_set(fb), shared):
                        checked += 1
                        if (a & b).bit_count() % modulus:
                            return {"ok": False, "checked": checked, "witness": (fa, fb)}
    return {"ok": True, "checked": checked}


def _ref_cup(f1, f2, target):
    """The cup product face by face: both values restricted to the face,
    multiplied, and reduced in the star sheaf."""
    c = target.complex
    level = f1.level + f2.level
    offsets, _ = _walk_offsets(target, level)
    f_offsets = [_walk_offsets(f.sheaf, f.level)[0] for f in (f1, f2)]
    data = 0
    for face in c.level_faces(level):
        cs = colors_of(face[0])
        ups = c.up_set(face)
        vals = []
        for f, off, m in (
            (f1, f_offsets[0], mask_of(cs[: f1.level + 1])),
            (f2, f_offsets[1], mask_of(cs[f1.level :])),
        ):
            sub = (m, c.face_in_top(m, ups[0]))
            # the local codeword at sub: the sum of the rows f's coordinates name
            coeffs = f.data >> off[sub]
            value = 0
            for i, w in enumerate(f.sheaf.rows(sub)):
                if (coeffs >> i) & 1:
                    value ^= w
            vals.append(_ref_restrict([value], c.up_set(sub), ups)[0])
        residual, combo = certified_reduce(target.rows(face))(vals[0] & vals[1])
        assert not residual
        data |= combo << offsets[face]
    return data


@pytest.fixture(scope="module")
def reference_sheaves(sheaf2, dual2, complex2, ring2):
    iso = VectorIso(ring2.field)
    span10 = induce_lower_codes(
        attach_local_codes(complex2, LinearCode([0b01], 2), iso, ring2)
    )
    out = {
        "q2": sheaf2,
        "q2_dual": dual2,
        "q2_double_dual": dual_sheaf(dual2),
        "rm11": induce_lower_codes(attach_local_codes(complex2, reed_muller(1, 1), iso, ring2)),
        "span10": span10,
        "span10_square": star_sheaf(span10, span10),
        "widened": _widened_face_sheaf(),
    }
    for s in _constant_sheaves():
        out["constant_%d_%d" % (s.complex.D, s.complex.n_top)] = s
    sphere = attach_constant_sheaf(fixtures.cross_polytope_3sphere())
    for face in ((1, 0), (2, 1), (3, 0), (6, 1), (7, 0)):
        out["sphere_link_%d_%d" % face] = sheaf_at_link(sphere, face)
    return out


def test_local_codes_are_stored_reduced_on_their_highest_bits(reference_sheaves, inst4):
    # `_coefficients` reads a value's coefficient on a row at the row's
    # highest set bit; inst4's dual has 3-dimensional edge codes
    sheaves = dict(reference_sheaves, inst4_dual=inst4["dual"])
    for name, s in sheaves.items():
        for mask, codes in s.codes.items():
            for rows in codes:
                assert rows == EchelonBasis(rows).rref()[0], (name, mask)


def test_layout_matches_face_walk(reference_sheaves):
    for name, s in reference_sheaves.items():
        c = s.complex
        for j in range(c.D + 1):
            offsets, total = _walk_offsets(s, j)
            assert s.level_dim(j) == total, (name, j)
            for mask in c.level_masks(j):
                faces = [(mask, f) for f in c.faces(mask)]
                assert s.first(mask).tolist() == [offsets[face] for face in faces], (name, mask)
                assert s.dims(mask).tolist() == [s.dim(face) for face in faces], (name, mask)
            for t_mask in range(1 << c.n_colors):
                want = [
                    off + i
                    for face, off in offsets.items()
                    if not face[0] & ~t_mask
                    for i in range(s.dim(face))
                ]
                T = colors_of(t_mask)
                rows, cols = s.type_coords(j, T)
                assert rows == sorted(want), (name, j, T)
                assert cols == sum(1 << i for i in want), (name, j, T)


def test_coboundary_and_flasque_match_restrict_and_reduce(reference_sheaves):
    for name, s in reference_sheaves.items():
        for j in range(s.complex.D):
            assert coboundary_matrix(s, j) == _ref_coboundary(s, j), (name, j)
        assert check_flasque(s) == _ref_flasque(s), name


def test_cohomology_dim_matches_basis_counts(reference_sheaves, sheaf2, dual2):
    # the rank route against dim Z^j - dim B^j from the bases
    for name, s in reference_sheaves.items():
        for j in range(s.complex.D + 1):
            z = _ref_cocycle_basis(s, j).rows
            want = z - _ref_coboundary_image_basis(s, j).rows
            assert cohomology_dim(s, j) == want, (name, j)
            # the route through a cocycle basis: dim Z^j - rank delta^{j-1}
            if j > 0:
                assert z - coboundary_matrix(s, j - 1).rank() == want, (name, j)
    # dim Z^0: the q=2 code's one global constant on either side (rate 1/168)
    assert cohomology_dim(sheaf2, 0) == 1 == cohomology_dim(dual2, 0)


def test_pair_products_match_face_pair_sweep(reference_sheaves):
    for name, s in reference_sheaves.items():
        d = dual_sheaf(s)
        for a, b, modulus in ((s, s, 2), (s, d, 2), (d, s, 2), (s, s, 4)):
            assert check_pair_products(a, b, modulus) == _ref_pair_products(a, b, modulus), name


def test_cup_product_matches_face_by_face_reference(sheaf2):
    s = sheaf2
    ss = star_sheaf(s, s)
    rng = random.Random(3)
    for l1, l2 in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)):
        for _ in range(3):
            f = Cochain(s, l1, rng.getrandbits(s.level_dim(l1)))
            g = Cochain(s, l2, rng.getrandbits(s.level_dim(l2)))
            assert cup_product(f, g, target=ss).data == _ref_cup(f, g, ss)


def _ref_projected_weights(s, modulus):
    """Every row of every face below the top, weighed in face order."""
    checked = 0
    for level in range(s.complex.D):
        for face in s.complex.level_faces(level):
            for w in s.rows(face):
                checked += 1
                if w.bit_count() % modulus:
                    return {"ok": False, "checked": checked, "witness": face}
    return {"ok": True, "checked": checked}


def test_projected_weights_match_face_loop(reference_sheaves):
    for name, s in reference_sheaves.items():
        for modulus in (1, 2, 3, 4, 8):
            got = check_projected_weights(s, modulus)
            assert got == _ref_projected_weights(s, modulus), (name, modulus)


def test_product_checks_refuse_a_modulus_below_one(sheaf2, dual2, complex2, ring2):
    # refused before any work: the attached sheaf has no lower codes yet
    bare = attach_local_codes(complex2, reed_muller(0, 1), VectorIso(ring2.field), ring2)
    for modulus in (0, -2):
        for a, b in ((sheaf2, dual2), (bare, bare)):
            with pytest.raises(SheafError, match="modulus must be at least 1"):
                check_pair_products(a, b, modulus)
        for a in (sheaf2, bare):
            with pytest.raises(SheafError, match="modulus must be at least 1"):
                check_projected_weights(a, modulus)


# sha256 prefixes of the repr of each type's per-face rows, in face order,
# taken before the sheaf kept one table per type
ROW_DIGESTS = {
    "q2": {
        1: "bb20325f60018b6b", 2: "bb20325f60018b6b", 3: "c12eca80cb82baf2",
        4: "bb20325f60018b6b", 5: "c12eca80cb82baf2", 6: "c12eca80cb82baf2",
    },
    "q2_dual": {
        1: "bb20325f60018b6b", 2: "bb20325f60018b6b", 3: "c12eca80cb82baf2",
        4: "bb20325f60018b6b", 5: "c12eca80cb82baf2", 6: "c12eca80cb82baf2",
    },
    "span10": {
        1: "43799fa9dad2c072", 2: "c635d6ca62be3015", 3: "d7a8bf02e90732a4",
        4: "5d93ede1b7bf197d", 5: "d7a8bf02e90732a4", 6: "d7a8bf02e90732a4",
    },
    "inst4": {
        1: "facf887bfe5a8308", 2: "facf887bfe5a8308", 3: "cc247b764aa48858",
        4: "facf887bfe5a8308", 5: "cc247b764aa48858", 6: "cc247b764aa48858",
    },
    "inst4_dual": {
        1: "41f7ea5d2e86b8a9", 2: "e7de3a3aaf937492", 3: "884ed769b9f683c1",
        4: "b87c2934edbe775e", 5: "884ed769b9f683c1", 6: "884ed769b9f683c1",
    },
}


def _pinned_sheaves(reference_sheaves, inst4):
    return {
        "q2": reference_sheaves["q2"],
        "q2_dual": reference_sheaves["q2_dual"],
        "span10": reference_sheaves["span10"],
        "inst4": inst4["sheaf"],
        "inst4_dual": inst4["dual"],
    }


@pytest.mark.parametrize("name", sorted(ROW_DIGESTS))
def test_local_rows_are_pinned(name, reference_sheaves, inst4):
    s = _pinned_sheaves(reference_sheaves, inst4)[name]
    c = s.complex
    digests = {}
    for m in c.masks[:-1]:
        rows = [s.rows((m, f)) for f in c.faces(m)]
        digests[m] = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    assert digests == ROW_DIGESTS[name]


def test_each_type_keeps_its_distinct_codes_once(reference_sheaves, inst4):
    sheaves = dict(reference_sheaves, **_pinned_sheaves(reference_sheaves, inst4))
    for name, s in sheaves.items():
        c = s.complex
        assert sorted(s.codes) == sorted(s.which) == c.masks, name
        for m, codes in s.codes.items():
            which = s.which[m]
            assert which.shape == (c.n_faces(m),), (name, m)
            # first-use order: the faces name the codes 0, 1, 2, ... as met
            assert list(dict.fromkeys(which.tolist())) == list(range(len(codes))), (name, m)
            per_face = {tuple(s.rows((m, f))) for f in c.faces(m)}
            assert len(codes) == len(per_face), (name, m)


def test_rows_refuses_faces_outside_the_type(sheaf2, complex2, ring2):
    c = complex2
    for m in c.masks:
        assert sheaf2.rows((m, c.n_faces(m) - 1))
        for idx in (-1, c.n_faces(m)):
            with pytest.raises(SheafError, match="unknown"):
                sheaf2.rows((m, idx))
    with pytest.raises(SheafError, match="unknown"):
        sheaf2.rows((c.full_mask + 1, 0))
    bare = attach_local_codes(c, reed_muller(0, 1), VectorIso(ring2.field), ring2)
    with pytest.raises(SheafError, match="not induced"):
        bare.rows((1, 0))
