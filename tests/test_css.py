"""CSS extraction, rates, logical bases, and the unfolding machinery."""

import itertools
import re
from fractions import Fraction

import pytest

from cosetcode import css, fixtures
from cosetcode.css import (
    CSSError,
    CssCode,
    cocycles_restrict_to_shrunk,
    color_types_through_zero,
    darboux_basis,
    extract_css,
    logical_basis,
    rate_report,
    shrunk_cohomology_dim,
    symplectic_color_basis,
    unfolding_check,
    LogicalBasis,
)
from cosetcode.algebra import VectorIso
from cosetcode.gf2 import BitMatrix, EchelonBasis, row_space_equal
from cosetcode.local_codes import LinearCode, reed_muller
from cosetcode.sheaf import (
    attach_constant_sheaf,
    attach_local_codes,
    coboundary_matrix,
    cohomology_dim,
    dual_sheaf,
    induce_lower_codes,
    projection_matrix,
    Sheaf,
    SheafError,
)

from conftest import _ref_coboundary_image_basis, _ref_cocycle_basis


def test_code_parameters(code2):
    assert code2.n == 168
    assert code2.code_dimension() == 46
    assert code2.h_x.matmul(code2.h_z.transpose()).is_zero()
    hist = code2.check_weight_histogram()
    assert hist["x"] == {8: 63}
    assert hist["z"] == {8: 63}


def test_a_self_dual_sheaf_gives_one_check_matrix(code2, sheaf2):
    # RM(0,1) is self-dual, so the Z checks are the X checks, shared
    code, s_dual = extract_css(sheaf2, 0, 0)
    assert s_dual is sheaf2 and code.h_z is code.h_x
    assert code2.h_z is code2.h_x


def test_commutation_enforced_on_construction():
    h_x = BitMatrix.from_int_rows([0b011], 3)
    h_z = BitMatrix.from_int_rows([0b001], 3)
    with pytest.raises(CSSError):
        CssCode(h_x, h_z)


def test_extract_requires_matching_levels(sheaf2, dual2):
    with pytest.raises(CSSError):
        extract_css(sheaf2, 1, 1, s_dual=dual2)


def test_extract_refuses_a_level_outside_the_complex(sheaf2, dual2):
    # x + z = D - 2 holds, but C^{-1} does not exist
    with pytest.raises(SheafError, match="projection level out of range"):
        extract_css(sheaf2, -1, 1, s_dual=dual2)


def test_rate_report_values(sheaf2):
    rep = rate_report(sheaf2)
    assert rep["rho0"] == Fraction(1, 8)
    assert rep["rho1"] == Fraction(1, 2)
    assert rep["bound"] == Fraction(1, 4)
    assert rep["rho_minus1"] == Fraction(1, 168)
    assert rep["rho_bar_minus1"] == Fraction(1, 168)
    assert rep["exact_half_rate"] == Fraction(23, 168)
    # 2 * exact half rate * n = k
    assert 2 * rep["exact_half_rate"] * 168 == 46


def _rate_identity_sheaves(complex2, ring2):
    """Eight D = 2 sheaves: q=2 with RM(0,1), RM(1,1), {01}, {10} and the
    zero code, and the constant sheaf on three fixture complexes."""
    iso = VectorIso(ring2.field)
    codes = (reed_muller(0, 1), reed_muller(1, 1), LinearCode([0b01], 2), LinearCode([0b10], 2),
             LinearCode([], 2))
    out = [induce_lower_codes(attach_local_codes(complex2, c, iso, ring2)) for c in codes]
    fx = (fixtures.hexagonal_torus, fixtures.octahedron, fixtures.single_triangle)
    return out + [attach_constant_sheaf(f()) for f in fx]


def test_rho_bar_minus1_is_h0_of_the_dual(complex2, ring2, monkeypatch):
    # dim H^0(s-bar) = n - rank pi_1(s), against the dual's own delta^0.
    # The {01} and {10} sheaves have vertex codes of three rates, which
    # the report refuses before rho-bar; the local rates are stubbed so
    # that every sheaf reaches it
    monkeypatch.setattr(css, "_uniform_local_rate", lambda s, level: Fraction(0))
    for s, h0_dual in zip(_rate_identity_sheaves(complex2, ring2), [1, 0, 21, 1, 168, 1, 1, 0]):
        assert cohomology_dim(dual_sheaf(s), 0) == h0_dual
        assert rate_report(s)["rho_bar_minus1"] * s.complex.n_top == h0_dual


def test_rate_report_builds_no_dual_coboundary(complex2, ring2, monkeypatch):
    # RM(1,1)'s dual is the zero code, so the dual sheaf has matrices of
    # its own; neither the unfolding check nor the rate asks for its
    # delta^0, and the rate builds no dual at all
    s = induce_lower_codes(attach_local_codes(complex2, reed_muller(1, 1),
                                              VectorIso(ring2.field), ring2))
    sd = dual_sheaf(s)
    assert sd is not s
    code, _ = extract_css(s, 0, 0, s_dual=sd)
    unfolding_check(code, s, sd, 0, 0)
    monkeypatch.setattr(css, "dual_sheaf", lambda s: pytest.fail("dual sheaf built"))
    assert rate_report(s)["rho_bar_minus1"] == 0
    assert ("coboundary_matrix", 0) not in sd._matrices


def test_color_types_through_zero():
    assert color_types_through_zero(2, 2) == [(0, 1), (0, 2)]
    assert color_types_through_zero(3, 2) == [(0, 1), (0, 2), (0, 3)]


def test_logical_basis_counts_and_pairing(logicals2):
    assert len(logicals2.x_logicals) == 46
    assert len(logicals2.z_logicals) == 46
    tags = [t for t, _ in logicals2.x_logicals]
    assert tags.count((0, 1)) == 23 and tags.count((0, 2)) == 23
    assert logicals2.pairing().rank() == 46


def test_darboux_reduction(logicals2):
    dlb = darboux_basis(logicals2)
    assert dlb.pairing() == BitMatrix.identity(46)
    # color tags survive untouched on the X side and unmixed on Z
    assert [t for t, _ in dlb.x_logicals] == [t for t, _ in logicals2.x_logicals]
    assert {t for t, _ in dlb.z_logicals} == {(0, 1), (0, 2)}


def test_symplectic_color_basis(code2, logicals2):
    red, blue = symplectic_color_basis(code2, logicals2)
    assert len(red) == len(blue) == 23
    for i, r in enumerate(red):
        for j, b in enumerate(blue):
            assert (r & b).bit_count() % 2 == (1 if i == j else 0)


def test_symplectic_color_basis_needs_two_tags(code2):
    lone = LogicalBasis(
        code2.n,
        [((0, 1), 1)],
        [((0, 1), 1)],
    )
    with pytest.raises(CSSError):
        symplectic_color_basis(code2, lone)


def test_symplectic_color_basis_refuses_odd_same_color_overlap(code2, logicals2):
    # mutation control: one red support gains a qubit of another red
    # support, so the two overlap oddly
    tags = sorted({t for t, _ in logicals2.x_logicals})
    red = [i for i, (t, _) in enumerate(logicals2.x_logicals) if t == tags[0]]
    r0, r1 = (logicals2.x_logicals[i][1] for i in red[:2])
    q = next(q for q in range(code2.n) if (r1 >> q) & 1 and not (r0 >> q) & 1)
    x = list(logicals2.x_logicals)
    x[red[0]] = (tags[0], r0 | 1 << q)
    with pytest.raises(CSSError, match="same-color"):
        symplectic_color_basis(code2, LogicalBasis(code2.n, x, logicals2.z_logicals))


def test_unfolding_on_coset_instance(code2, sheaf2, dual2):
    rep = unfolding_check(code2, sheaf2, dual2, 0, 0)
    assert rep["dimension_formula"]
    assert rep["cohomology_dim"] == 23
    assert rep["shrunk_iso"]
    assert set(rep["shrunk_dims"]) == {(0, 1), (0, 2), (1, 2)}
    assert rep["cocycles_restrict_ok"]
    assert rep["ok"]


def test_unfolding_on_torus_constant_sheaf(torus_sheaves):
    s, sd = torus_sheaves
    code, _ = extract_css(s, 0, 0, s_dual=sd)
    assert code.code_dimension() == 4
    assert cohomology_dim(s, 1) == 2
    rep = unfolding_check(code, s, sd, 0, 0)
    assert rep["ok"]


def test_chain_map_squares_both_types(sheaf2, dual2):
    # all four squares of the q=2 pair, by the diagonal-product reference
    for T in ((0, 1), (0, 2)):
        assert all(_ref_chain_map_squares(sheaf2, dual2, 0, 0, T).values())


def _restrict(s, j, T):
    """The square diagonal matrix keeping the C^j coordinates of the faces
    whose type lies in T."""
    dim = s.level_dim(j)
    keep = set(s.type_coords(j, T)[0])
    return BitMatrix.from_int_rows([1 << i if i in keep else 0 for i in range(dim)], dim)


def _complement(s, T):
    return [j for j in range(s.complex.n_colors) if j not in set(T)]


def _ref_chain_map_squares(s, s_dual, x, z, T):
    """The squares with every type restriction a product with a diagonal
    matrix, on the full pairings."""
    delta_x = coboundary_matrix(s, x)
    r_x = _restrict(s, x, T)
    r_x1 = _restrict(s, x + 1, T)
    pi_x = projection_matrix(s, x).transpose()
    pi_x1 = projection_matrix(s, x + 1).transpose()
    pid_zt = projection_matrix(s_dual, z)
    rbar = _restrict(s_dual, z, _complement(s, T))
    q = pid_zt.matmul(pi_x)
    psi = rbar.matmul(pid_zt).matmul(pi_x1).matmul(r_x1)
    return {
        "bottom_left": r_x1.matmul(delta_x) == r_x1.matmul(delta_x).matmul(r_x),
        "top_left": pi_x.matmul(r_x) == pi_x1.matmul(r_x1).matmul(delta_x).matmul(r_x),
        "top_right": q.matmul(r_x) == rbar.matmul(q).matmul(r_x),
        "bottom_right": psi.matmul(_ref_cocycle_basis(s, x + 1).transpose()).is_zero(),
    }


def _ref_shrunk_dim(s, s_dual, x, z, T):
    """dim H^1 of the T-shrunk complex from the full pairing
    pi-bar_z pi_{x+1}^T and the full delta_x, restricted by diagonal
    products: zero rows and columns leave the ranks unchanged."""
    r_x1 = _restrict(s, x + 1, T)
    a = r_x1.matmul(coboundary_matrix(s, x)).matmul(_restrict(s, x, T))
    pairing = projection_matrix(s_dual, z).matmul(projection_matrix(s, x + 1).transpose())
    b = _restrict(s_dual, z, _complement(s, T)).matmul(pairing).matmul(r_x1)
    return r_x1.rank() - b.rank() - a.rank()


def _unfolding_cases(sheaf2, dual2, complex2, ring2):
    """The q=2 pair; three broken pairs: the full local code paired against
    the repetition code's dual, the reverse, and a dual whose color-2
    vertices carry the full code's local codes, which breaks the pairing
    on that one type, so that only for T = (0, 1) the nonzero pairing
    rows are all T^c rows; and the constant sheaf on the cross-polytope
    3-sphere at both levels."""
    full = induce_lower_codes(
        attach_local_codes(complex2, reed_muller(1, 1), VectorIso(ring2.field), ring2)
    )
    sources = {mask: full if mask == 0b100 else dual2 for mask in complex2.level_masks(0)}
    one_type = Sheaf(complex2, {m: (t.codes[m], t.which[m]) for m, t in sources.items()})
    cube = attach_constant_sheaf(fixtures.cross_polytope_3sphere())
    cases = [(sheaf2, dual2, 0, 0), (full, dual2, 0, 0), (sheaf2, full, 0, 0)]
    cases.append((sheaf2, one_type, 0, 0))
    return cases + [(cube, dual_sheaf(cube), x, 1 - x) for x in (0, 1)]


def _every_type(s, x):
    return list(itertools.combinations(range(s.complex.n_colors), x + 2))


def test_chain_map_squares_match_diagonal_products(code2, sheaf2, dual2, complex2, ring2):
    """On every pair, bottom_left and top_left hold and top_right holds iff
    `extract_css` accepts the pair; the one square checked is the
    reference bottom_right, which fails on the broken pairs."""
    for s, sd, x, z in _unfolding_cases(sheaf2, dual2, complex2, ring2):
        try:
            extract_css(s, x, z, s_dual=sd)
        except CSSError:
            accepted = False
        else:
            accepted = True
        ref = {T: _ref_chain_map_squares(s, sd, x, z, T) for T in _every_type(s, x)}
        assert all(r["bottom_left"] and r["top_left"] for r in ref.values()), x
        assert all(r["top_right"] for r in ref.values()) == accepted, x
        got = {T: cocycles_restrict_to_shrunk(s, sd, x, z, T) for T in ref}
        assert got == {T: r["bottom_right"] for T, r in ref.items()}, x
        assert all(got.values()) == accepted, x
    # unfolding_check reports the types through color 0
    rep = unfolding_check(code2, sheaf2, dual2, 0, 0)
    assert list(rep["cocycles_restrict"]) == color_types_through_zero(2, 2)


def test_unfolding_check_forms_psi_once_per_type(sheaf2, dual2, complex2, ring2, monkeypatch):
    # every accepted pair: psi_T is formed once for each type, and both
    # per-type checks agree with their standalone forms
    formed = []
    top_map = css._shrunk_top_map
    monkeypatch.setattr(css, "_shrunk_top_map", lambda *a: formed.append(a[4]) or top_map(*a))
    for s, sd, x, z in _unfolding_cases(sheaf2, dual2, complex2, ring2):
        try:
            code, _ = extract_css(s, x, z, s_dual=sd)
        except CSSError:
            continue
        types = _every_type(s, x)
        shrunk = {T: shrunk_cohomology_dim(s, sd, x, z, T) for T in types}
        restrict = {T: cocycles_restrict_to_shrunk(s, sd, x, z, T) for T in types if T[0] == 0}
        formed.clear()
        rep = unfolding_check(code, s, sd, x, z)
        assert formed == types, x
        assert rep["shrunk_dims"] == shrunk and rep["cocycles_restrict"] == restrict, x


def test_unfolding_check_refuses_a_code_of_another_pair(code2, sheaf2, dual2, complex2, ring2):
    full = induce_lower_codes(
        attach_local_codes(complex2, reed_muller(1, 1), VectorIso(ring2.field), ring2)
    )
    for s, sd in ((full, dual2), (sheaf2, full)):
        with pytest.raises(CSSError, match="not the projections"):
            unfolding_check(code2, s, sd, 0, 0)


@pytest.mark.parametrize("T", [(0, 3), (0, 0), (0, 1, 2), (-1, 1), (1,)])
def test_shrunk_checks_refuse_invalid_types(sheaf2, dual2, T):
    for check in (shrunk_cohomology_dim, cocycles_restrict_to_shrunk):
        with pytest.raises(CSSError, match="invalid shrunk type"):
            check(sheaf2, dual2, 0, 0, T)


def test_shrunk_dims_match_full_pairing_reference(sheaf2, dual2, complex2, ring2):
    for s, sd, x, z in _unfolding_cases(sheaf2, dual2, complex2, ring2):
        for T in _every_type(s, x):
            got = shrunk_cohomology_dim(s, sd, x, z, T)
            assert got == _ref_shrunk_dim(s, sd, x, z, T), (x, T)


def test_shrunk_dim_ranks_psi_on_its_thinner_side(sheaf2, dual2, complex2, ring2, monkeypatch):
    """psi_T and its transpose both stand in for psi_T: the one ranked is
    the one with fewer rows, and the dimension is what ranking the given
    matrix as it is gives."""
    top_map = css._shrunk_top_map
    ranked = []
    rank = BitMatrix.rank
    monkeypatch.setattr(BitMatrix, "rank", lambda m: ranked.append(m) or rank(m))
    for s, sd, x, z in _unfolding_cases(sheaf2, dual2, complex2, ring2):
        for T in _every_type(s, x):
            psi = top_map(s, sd, x, z, T)
            want = _ref_shrunk_dim(s, sd, x, z, T)
            for given in (psi, psi.transpose()):
                monkeypatch.setattr(css, "_shrunk_top_map", lambda *args: given)
                ranked.clear()
                got = shrunk_cohomology_dim(s, sd, x, z, T)
                thin = given.transpose() if given.rows > given.cols else given
                assert ranked[0].int_rows() == thin.int_rows(), (x, T)
                a_rank = rank(ranked[1])
                assert got == len(s.type_coords(x + 1, T)[0]) - rank(given) - a_rank == want


def test_shrunk_dims_match_cohomology(sheaf2, dual2):
    for T in ((0, 1), (0, 2), (1, 2)):
        assert shrunk_cohomology_dim(sheaf2, dual2, 0, 0, T) == 23


def test_octahedron_sphere_has_no_logicals():
    c = fixtures.octahedron()
    s = attach_constant_sheaf(c)
    sd = dual_sheaf(s)
    code, _ = extract_css(s, 0, 0, s_dual=sd)
    assert code.code_dimension() == 0


def test_unfolding_check_builds_no_cocycle_basis(sheaf2, dual2, complex2, ring2, monkeypatch):
    # psi_T's rows are reduced against delta^{x+1}'s rows instead: no
    # kernel, so no cocycle basis, on every accepted pair
    built = []
    kernel_basis = BitMatrix.kernel_basis
    monkeypatch.setattr(BitMatrix, "kernel_basis", lambda *a: built.append(a) or kernel_basis(*a))
    for s, sd, x, z in _unfolding_cases(sheaf2, dual2, complex2, ring2):
        try:
            code, _ = extract_css(s, x, z, s_dual=sd)
        except CSSError:
            continue
        built.clear()
        assert unfolding_check(code, s, sd, x, z)["ok"], x
        assert built == [], x


def test_restriction_and_cohomology_dim_match_the_cocycle_basis(
    sheaf2, dual2, complex2, ring2
):
    # every pair, the broken ones too: psi_T's rows in the row space of
    # delta^{x+1} is the reference's psi_T Z^T = 0, and the annihilator's
    # size is rank delta^{x+1}
    for s, sd, x, z in _unfolding_cases(sheaf2, dual2, complex2, ring2):
        annihilator = css._cocycle_annihilator(s, x)
        h_dim = _ref_cocycle_basis(s, x + 1).rows - coboundary_matrix(s, x).rank()
        assert s.level_dim(x + 1) - len(annihilator) - coboundary_matrix(s, x).rank() == h_dim
        for T in _every_type(s, x):
            want = _ref_chain_map_squares(s, sd, x, z, T)["bottom_right"]
            psi = css._shrunk_top_map(s, sd, x, z, T)
            assert css._restricts(s, x, T, psi, annihilator) == want, (x, T)
        try:
            code, _ = extract_css(s, x, z, s_dual=sd)
        except CSSError:
            continue
        rep = unfolding_check(code, s, sd, x, z)
        assert rep["cohomology_dim"] == h_dim, x
        assert rep["cocycles_restrict"] == {
            T: _ref_chain_map_squares(s, sd, x, z, T)["bottom_right"]
            for T in _every_type(s, x) if T[0] == 0
        }, x


def test_at_the_top_level_every_cochain_is_a_cocycle():
    # x + 1 = D: delta^D is zero, so psi_T restricts iff it is zero
    s = attach_constant_sheaf(fixtures.cross_polytope_3sphere())
    assert len(css._cocycle_annihilator(s, 2)) == 0
    T = (0, 1, 2, 3)
    for rows, want in (([], True), ([0], True), ([0, 1], False)):
        psi = BitMatrix.from_int_rows(rows, 2)
        assert css._restricts(s, 2, T, psi, css._cocycle_annihilator(s, 2)) == want


def test_a_flipped_psi_entry_fails_that_type_only(code2, sheaf2, dual2, monkeypatch):
    top_map = css._shrunk_top_map
    annihilator = css._cocycle_annihilator(sheaf2, 0)
    for T in color_types_through_zero(2, 2):
        psi = top_map(sheaf2, dual2, 0, 0, T)
        start = sheaf2.type_coords(1, T)[0][0]
        # the first entry of row 0 whose coordinate some cocycle uses
        col = next(c for c in range(psi.cols) if annihilator.reduce(1 << (start + c)))
        rows = list(psi.int_rows())
        rows[0] ^= 1 << col
        flipped = BitMatrix.from_int_rows(rows, psi.cols)

        def one_flipped(s, sd, x, z, U, T=T, flipped=flipped):
            return flipped if tuple(U) == T else top_map(s, sd, x, z, U)

        monkeypatch.setattr(css, "_shrunk_top_map", one_flipped)
        rep = unfolding_check(code2, sheaf2, dual2, 0, 0)
        assert rep["cocycles_restrict"] == {U: U != T for U in color_types_through_zero(2, 2)}
        assert not rep["ok"]
        assert not cocycles_restrict_to_shrunk(sheaf2, dual2, 0, 0, T)
        assert not _ref_chain_map_squares_psi(sheaf2, flipped, T)


def _ref_chain_map_squares_psi(s, psi, T):
    """The reference's bottom_right for a given psi_T: psi_T times the T
    block of the transposed cocycle basis is zero."""
    zt = _ref_cocycle_basis(s, 1).transpose()
    rows = zt.int_rows()
    block = BitMatrix.from_int_rows([rows[i] for i in s.type_coords(1, T)[0]], zt.cols)
    return psi.matmul(block).is_zero()


def _ref_tagged_logicals(s, level, other_checks):
    """The logical family from a global cocycle basis: cohomology
    representatives seeded with a reduced basis of B^{level+1}, masked to
    each type and projected, one commutation product per type."""
    j = level + 1
    z = _ref_cocycle_basis(s, j)
    acc = EchelonBasis(_ref_coboundary_image_basis(s, j).int_rows())
    reps = BitMatrix.from_int_rows([r for r in z.int_rows() if acc.insert(r)], z.cols)
    pi = projection_matrix(s, j)
    out = []
    for T in color_types_through_zero(s.complex.D, level + 2):
        mask = s.type_coords(j, T)[1]
        logicals = BitMatrix.from_int_rows([v & mask for v in reps.int_rows()], z.cols).matmul(pi)
        assert other_checks.matmul(logicals.transpose()).is_zero()
        out += [(T, v) for v in logicals.int_rows()]
    return out


def _assert_same_classes(got, want, checks):
    """Each tag has as many logicals in `got` as in `want`, and with the
    checks they span the same space: the representatives may differ, the
    classes may not."""
    assert {t for t, _ in got} == {t for t, _ in want}
    for T in {t for t, _ in want}:
        a = css._supports(checks.cols, [(t, v) for t, v in got if t == T])
        b = css._supports(checks.cols, [(t, v) for t, v in want if t == T])
        assert a.rows == b.rows, T
        assert row_space_equal(checks.vstack(a), checks.vstack(b)), T


def _count_tagged(monkeypatch):
    calls = []
    tagged = css._tagged_logicals
    monkeypatch.setattr(css, "_tagged_logicals", lambda *a: calls.append(a[1:]) or tagged(*a))
    return calls


def test_a_self_dual_pair_computes_one_logical_family(code2, sheaf2, monkeypatch):
    calls = _count_tagged(monkeypatch)
    lb = logical_basis(code2, sheaf2, sheaf2, 0, 0)
    assert len(calls) == 1
    assert lb.z_logicals == lb.x_logicals and lb.z_logicals is not lb.x_logicals
    _assert_same_classes(lb.x_logicals, _ref_tagged_logicals(sheaf2, 0, code2.h_z), code2.h_x)


def test_other_pairs_compute_both_families(torus_sheaves, monkeypatch):
    cube = attach_constant_sheaf(fixtures.cross_polytope_3sphere())
    pairs = [(*torus_sheaves, 0, 0)] + [(cube, dual_sheaf(cube), x, 1 - x) for x in (0, 1)]
    calls = _count_tagged(monkeypatch)
    for s, sd, x, z in pairs:
        code, _ = extract_css(s, x, z, s_dual=sd)
        calls.clear()
        lb = logical_basis(code, s, sd, x, z)
        assert len(calls) == 2
        _assert_same_classes(lb.x_logicals, _ref_tagged_logicals(s, x, code.h_z), code.h_x)
        _assert_same_classes(lb.z_logicals, _ref_tagged_logicals(sd, z, code.h_x), code.h_z)


def test_the_shortcut_needs_equal_levels(code2, sheaf2, monkeypatch):
    # the same sheaf and check matrix on both sides, but x != z: the two
    # families are asked for at their own levels (and, empty, both fall
    # short of k)
    calls = []
    monkeypatch.setattr(css, "_tagged_logicals", lambda *a: calls.append(a) or [])
    code = CssCode(code2.h_x, code2.h_x)
    with pytest.raises(CSSError, match="X logicals span 0 of k = 46"):
        logical_basis(code, sheaf2, sheaf2, 0, 1)
    assert [(s, level, other) for s, _, level, other, _, _ in calls] == [
        (sheaf2, 0, 1), (sheaf2, 1, 0)
    ]
    calls.clear()
    with pytest.raises(CSSError, match="X logicals span 0"):
        logical_basis(
            CssCode(code2.h_x, BitMatrix.from_int_rows(code2.h_x.int_rows(), code2.n)),
            sheaf2, sheaf2, 0, 0,
        )
    assert len(calls) == 2


def test_an_anticommuting_logical_names_the_first_type(code2, sheaf2, logicals2):
    # a red support pairs evenly with every red logical and oddly with
    # some blue one, so only the (0, 2) family fails against it
    red, blue = symplectic_color_basis(code2, logicals2)
    for rows, T in (([red[0]], (0, 2)), ([blue[0]], (0, 1)), ([red[0], blue[0]], (0, 1))):
        checks = BitMatrix.from_int_rows(rows, code2.n)
        with pytest.raises(CSSError, match=r"T=%s anticommutes" % re.escape(repr(T))):
            css._tagged_logicals(sheaf2, sheaf2, 0, 0, code2.h_x, checks)


def test_logical_basis_builds_no_coboundary_matrix(complex2, ring2):
    # the logicals are read off psi_T and pi_{x+1}: neither delta^x nor
    # delta^{x+1} is built on a fresh sheaf
    s = induce_lower_codes(
        attach_local_codes(complex2, reed_muller(0, 1), VectorIso(ring2.field), ring2)
    )
    code, sd = extract_css(s, 0, 0)
    assert len(logical_basis(code, s, sd, 0, 0).x_logicals) == 46
    assert [key for key in s._matrices if key[0] == "coboundary_matrix"] == []


def _one_type_psi(monkeypatch, T, psi):
    top_map = css._shrunk_top_map

    def replaced(s, sd, x, z, U):
        return psi if tuple(U) == T else top_map(s, sd, x, z, U)

    monkeypatch.setattr(css, "_shrunk_top_map", replaced)


@pytest.mark.parametrize("T", color_types_through_zero(2, 2))
def test_a_psi_short_of_a_row_admits_an_anticommuting_logical(code2, sheaf2, monkeypatch, T):
    # psi_T's rows reduced to an independent set, less one: its kernel
    # grows by a vector that psi_T itself does not annihilate
    psi = css._shrunk_top_map(sheaf2, sheaf2, 0, 0, T)
    red, _ = psi.rref()
    _one_type_psi(monkeypatch, T, BitMatrix.from_int_rows(red.int_rows()[:-1], psi.cols))
    with pytest.raises(CSSError, match=r"T=%s anticommutes" % re.escape(repr(T))):
        logical_basis(code2, sheaf2, sheaf2, 0, 0)


@pytest.mark.parametrize("T", color_types_through_zero(2, 2))
def test_a_psi_with_an_extra_row_loses_a_logical(code2, sheaf2, logicals2, monkeypatch, T):
    # psi_T plus the pairing of T's block with a logical of the other tag:
    # the kernel loses the one class that pairs oddly with that logical
    psi = css._shrunk_top_map(sheaf2, sheaf2, 0, 0, T)
    v = next(v for tag, v in logicals2.x_logicals if tag != T)
    pi = projection_matrix(sheaf2, 1).int_rows()
    block = sheaf2.type_coords(1, T)[0]
    extra = sum(((pi[r] & v).bit_count() & 1) << i for i, r in enumerate(block))
    _one_type_psi(monkeypatch, T, BitMatrix.from_int_rows(psi.int_rows() + [extra], psi.cols))
    with pytest.raises(CSSError, match="X logicals span 45 of k = 46"):
        logical_basis(code2, sheaf2, sheaf2, 0, 0)
