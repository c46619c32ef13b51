"""Tanner sheaves: oriented local codes on (D-1)-faces, induced lower
codes, coboundary/projection/restriction matrices, duals, cup products.

Global cochain coordinates at level j concatenate the local bases of
the level-j faces in (type mask ascending, face index ascending) order.
A local code is a list of Python-int rows; bit p of a row is position p
of the face's sorted up-set.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import RingTable, VectorIso
from .complexes import Complex, FaceId, colors_of, mask_of
from .gf2 import BitMatrix, BitVector, CertifiedBasis, EchelonBasis, dual_rows, rref_rows
from .group import GroupTable
from .local_codes import LinearCode, dual_code


class SheafError(ValueError):
    """Raised when a sheaf axiom or construction contract is violated."""


class Sheaf:
    """Local codes for every face of a complex.

    `local_bases[(mask, idx)]` lists int rows spanning the local code, in
    reduced row echelon form (`attach_explicit` keeps rows as given).
    Top faces implicitly carry the full one-dimensional code and are not
    stored.
    """

    def __init__(self, complex_: Complex, local_bases: Dict[FaceId, List[int]]):
        self.complex = complex_
        self.local_bases = local_bases
        self._offsets: Dict[int, Tuple[Dict[FaceId, int], int]] = {}
        self._dual_bases: Dict[FaceId, List[int]] = {}
        self._echelons: Dict[FaceId, CertifiedBasis] = {}
        self._matrices: Dict[Tuple[str, int], BitMatrix] = {}  # see _per_level

    # -- bases -------------------------------------------------------------

    def rows(self, face: FaceId) -> List[int]:
        """The local code of `face` as int rows (never mutate them)."""
        if face[0] == self.complex.full_mask:
            return [1]
        try:
            return self.local_bases[face]
        except KeyError:
            raise SheafError("no local basis for face %r (induce first?)" % (face,))

    def basis(self, face: FaceId) -> BitMatrix:
        """`rows(face)` as a matrix over the face's up-set columns."""
        return BitMatrix.from_int_rows(self.rows(face), len(self.complex.up_set(face)))

    def supports(self, face: FaceId) -> List[int]:
        """The rows of `face` on the top faces: bit t is top t."""
        ups = self.complex.up_set(face)
        return [_scatter(w, ups) for w in self.rows(face)]

    def dim(self, face: FaceId) -> int:
        return len(self.rows(face))

    def echelon(self, face: FaceId) -> CertifiedBasis:
        """`rows(face)` factored once for reduction (coboundaries, cup
        products, flasqueness).  Row i runs through gf2's one forward
        elimination loop with tag bit i attached, so `reduce` returns the
        residual and, as tag bits, the rows that rebuild the query."""
        cached = self._echelons.get(face)
        if cached is None:
            cached = CertifiedBasis(self.rows(face))
            self._echelons[face] = cached
        return cached

    def dual_local_basis(self, face: FaceId) -> List[int]:
        """The dual of the local code of `face` as int rows in RREF (on the
        top faces of a dual sheaf, the primal's rows)."""
        cached = self._dual_bases.get(face)
        if cached is None:
            cached = dual_rows(self.rows(face), len(self.complex.up_set(face)))
            self._dual_bases[face] = cached
        return cached

    # -- global coordinates ---------------------------------------------------

    def level_offsets(self, j: int) -> Tuple[Dict[FaceId, int], int]:
        cached = self._offsets.get(j)
        if cached is not None:
            return cached
        offsets: Dict[FaceId, int] = {}
        total = 0
        for face in self.complex.level_faces(j):
            offsets[face] = total
            total += self.dim(face)
        self._offsets[j] = (offsets, total)
        return offsets, total

    def level_dim(self, j: int) -> int:
        return self.level_offsets(j)[1]


class Cochain:
    """An element of C^j in global coordinates."""

    __slots__ = ("sheaf", "level", "data")

    def __init__(self, sheaf: Sheaf, level: int, data: BitVector):
        if data.length != sheaf.level_dim(level):
            raise SheafError("cochain length mismatch at level %d" % level)
        self.sheaf = sheaf
        self.level = level
        self.data = data

    def value_at(self, face: FaceId) -> int:
        """The local codeword at `face` as an int over its up-set columns."""
        offsets, _ = self.sheaf.level_offsets(self.level)
        coeffs = self.data.value >> offsets[face]
        out = 0
        for i, w in enumerate(self.sheaf.rows(face)):
            if (coeffs >> i) & 1:
                out ^= w
        return out

    def __xor__(self, other: "Cochain") -> "Cochain":
        if other.level != self.level or other.sheaf is not self.sheaf:
            raise SheafError("cochain mismatch in xor")
        return Cochain(self.sheaf, self.level, self.data ^ other.data)


# -- local codes ----------------------------------------------------------------


def _scatter(w: int, targets: Sequence[int]) -> int:
    """Move bit p of w to bit targets[p]."""
    out = 0
    while w:
        low = w & -w
        out |= 1 << targets[low.bit_length() - 1]
        w ^= low
    return out


def _restrict(rows: Iterable[int], ups: Sequence[int], sub: Sequence[int]) -> List[int]:
    """Rows over the up-set `ups` read on its subset `sub`: bit k of a
    result is top sub[k]."""
    if len(sub) == len(ups):  # up-sets are sorted, so sub is ups
        return list(rows)
    spos = [ups.index(t) for t in sub]
    out = []
    for w in rows:
        r = 0
        for k, p in enumerate(spos):
            if (w >> p) & 1:
                r |= 1 << k
        out.append(r)
    return out


# -- construction -------------------------------------------------------------


def attach_local_codes(
    c: Complex,
    code: LinearCode,
    iso: VectorIso,
    ring: RingTable,
) -> Sheaf:
    """Attach the oriented code to every (D-1)-face of a coset complex.

    The orientation of a cotype-j face with canonical rep g maps the top
    face g*e(alpha*t) to code coordinate U(alpha); changing the rep only
    translates coordinates by an affine map, which fixes the row space.
    """
    table = c.group
    if table is None:
        raise SheafError("attach_local_codes needs a coset complex")
    q = ring.field.q
    if code.n != q:
        raise SheafError("code length %d != q = %d" % (code.n, q))
    gen_col = {
        (color, alpha): col for col, (color, alpha, _) in enumerate(table.gens)
    }
    words = code.generator.int_rows()
    local: Dict[FaceId, List[int]] = {}
    for mask in c.level_masks(c.D - 1):
        cotype = next(j for j in range(c.n_colors) if not (mask >> j) & 1)
        pairs = table.k_color_elements(cotype)
        for idx in c.faces(mask):
            g = c.keys[mask][idx]
            ups = c.up_sets[mask][idx]
            pos = {t: p for p, t in enumerate(ups)}
            # column permutation: code coordinate U(alpha) -> up-set position
            perm = [0] * q
            for alpha, _eid in pairs:
                top = g if alpha == 0 else int(table.cayley[g, gen_col[(cotype, alpha)]])
                perm[iso.apply_int(alpha)] = pos[top]
            local[(mask, idx)] = rref_rows((_scatter(w, perm) for w in words), q)
    return Sheaf(c, local)


def attach_constant_sheaf(c: Complex) -> Sheaf:
    """Repetition local code on every face below the top: the constant
    sheaf (no induction needed; restrictions of constants are constant)."""
    local: Dict[FaceId, List[int]] = {}
    for level in range(c.D):
        for face in c.level_faces(level):
            local[face] = [(1 << len(c.up_set(face))) - 1]
    return Sheaf(c, local)


def attach_explicit(c: Complex, defining: Dict[FaceId, BitMatrix]) -> Sheaf:
    """User-supplied codes as matrices over each face's up-set (fixtures
    and negative controls); their rows are kept as given."""
    for face, m in defining.items():
        if m.cols != len(c.up_set(face)):
            raise SheafError("code of face %r has %d columns" % (face, m.cols))
    return Sheaf(c, {face: m.int_rows() for face, m in defining.items()})


def induce_lower_codes(s: Sheaf) -> Sheaf:
    """Fill every level below D-1 with the kernel of the stacked dual
    constraints of the (D-1)-faces above each face."""
    c = s.complex
    local = dict(s.local_bases)
    top_masks = c.level_masks(c.D - 1)
    duals = {face: s.dual_local_basis(face) for face in c.level_faces(c.D - 1)}
    for level in range(c.D - 2, -1, -1):
        for mask in c.level_masks(level):
            for idx in c.faces(mask):
                ups = c.up_sets[mask][idx]
                pos = {t: p for p, t in enumerate(ups)}
                rows: List[int] = []
                for smask in top_masks:
                    for sidx in c.cofaces((mask, idx), smask):
                        spos = [pos[t] for t in c.up_sets[smask][sidx]]
                        rows.extend(_scatter(w, spos) for w in duals[(smask, sidx)])
                local[(mask, idx)] = dual_rows(rows, len(ups))
    out = Sheaf(c, local)
    out._dual_bases.update(duals)  # the (D-1)-face codes are unchanged
    return out


def dual_sheaf(s: Sheaf) -> Sheaf:
    """Replace every defining code by its dual and re-induce.

    The primal's local duals are the dual's codes, and the primal codes
    are the dual's local duals, so no local kernel is computed twice."""
    top = s.complex.level_faces(s.complex.D - 1)
    d = Sheaf(s.complex, {face: s.dual_local_basis(face) for face in top})
    d._dual_bases.update((face, s.rows(face)) for face in top)
    return induce_lower_codes(d)


# -- matrices -----------------------------------------------------------------


def _per_level(build):
    """Keep `build(s, j)` on the sheaf: no caller mutates these matrices."""

    @functools.wraps(build)
    def cached(s: Sheaf, j: int) -> BitMatrix:
        key = (build.__name__, j)
        m = s._matrices.get(key)
        if m is None:
            m = s._matrices[key] = build(s, j)
        return m

    return cached


def _restrictions(s: Sheaf, level: int) -> Iterator[Tuple[FaceId, FaceId, List[int]]]:
    """(face, coface, the face's rows restricted to the coface) for every
    level-`level` face and each of its cofaces one level up."""
    c = s.complex
    for face in c.level_faces(level):
        ups = c.up_set(face)
        for smask in c.level_masks(level + 1):
            for sidx in c.cofaces(face, smask):
                sub = c.up_sets[smask][sidx]
                yield face, (smask, sidx), _restrict(s.rows(face), ups, sub)


@_per_level
def coboundary_matrix(s: Sheaf, j: int) -> BitMatrix:
    """delta^j : C^j -> C^{j+1} in global coordinates (rows = target)."""
    c = s.complex
    if not 0 <= j < c.D:
        raise SheafError("coboundary level out of range")
    src_off, src_dim = s.level_offsets(j)
    dst_off, dst_dim = s.level_offsets(j + 1)
    out = [0] * dst_dim
    for face, tface, restricted in _restrictions(s, j):
        target = s.echelon(tface)
        base = dst_off[tface]
        for i, r in enumerate(restricted):
            residual, combo = target.reduce(r)
            if residual:
                raise SheafError(
                    "restriction to %r leaves the local code: sheaf is "
                    "inconsistent" % (tface,)
                )
            bit = 1 << (src_off[face] + i)
            while combo:
                low = combo & -combo
                out[base + low.bit_length() - 1] |= bit
                combo ^= low
    return BitMatrix.from_int_rows(out, src_dim)


def projection_matrix(s: Sheaf, j: int) -> BitMatrix:
    """pi-up : C^j -> F_2^{top faces}; column (face, row) scatters the
    basis row over the face's up-set."""
    c = s.complex
    offsets, dim = s.level_offsets(j)
    rows = [0] * c.n_top
    for face in c.level_faces(j):
        ups = c.up_set(face)
        for i, w in enumerate(s.rows(face)):
            bit = 1 << (offsets[face] + i)
            for p, t in enumerate(ups):
                if (w >> p) & 1:
                    rows[t] |= bit
    return BitMatrix.from_int_rows(rows, dim)


def restrict_to_type(s: Sheaf, j: int, T: Sequence[int]) -> BitMatrix:
    """The square diagonal projection keeping coordinates of faces whose
    type is contained in T."""
    t_mask = mask_of(T)
    offsets, dim = s.level_offsets(j)
    rows = [0] * dim
    for face, off in offsets.items():
        mask, _ = face
        if mask & ~t_mask:
            continue
        for i in range(off, off + s.dim(face)):
            rows[i] = 1 << i
    return BitMatrix.from_int_rows(rows, dim)


# -- cohomology ----------------------------------------------------------------


@_per_level
def cocycle_basis(s: Sheaf, j: int) -> BitMatrix:
    """Basis of Z^j = ker delta^j (Z^D = all of C^D)."""
    if j == s.complex.D:
        return BitMatrix.identity(s.level_dim(j))
    return coboundary_matrix(s, j).kernel_basis()


def coboundary_image_basis(s: Sheaf, j: int) -> BitMatrix:
    """Basis of B^j = im delta^{j-1} (B^0 = 0)."""
    if j == 0:
        return BitMatrix.zeros(0, s.level_dim(0))
    d = coboundary_matrix(s, j - 1)
    return d.transpose().row_space_basis()


def cohomology_dim(s: Sheaf, j: int) -> int:
    z = cocycle_basis(s, j).rows
    b = coboundary_image_basis(s, j).rows
    return z - b


def cohomology_reps(s: Sheaf, j: int) -> BitMatrix:
    """Deterministic cocycle representatives of a basis of H^j."""
    z = cocycle_basis(s, j)
    acc = EchelonBasis(coboundary_image_basis(s, j).int_rows())
    reps = [row for row in z.int_rows() if acc.insert(row)]
    return BitMatrix.from_int_rows(reps, z.cols)


def euler_characteristic_spaces(s: Sheaf) -> int:
    return sum(
        (-1) ** j * s.level_dim(j) for j in range(s.complex.D + 1)
    )


def euler_characteristic_cohomology(s: Sheaf) -> int:
    return sum(
        (-1) ** j * cohomology_dim(s, j) for j in range(s.complex.D + 1)
    )


# -- predicates ----------------------------------------------------------------


def check_flasque(s: Sheaf) -> bool:
    """Every one-step restriction F_sigma -> F_tau is surjective."""
    for level in range(s.complex.D):
        for _, tface, restricted in _restrictions(s, level):
            if len(EchelonBasis(restricted)) != s.dim(tface):
                return False
            target = s.echelon(tface)
            if any(target.reduce(r)[0] for r in restricted):
                return False
    return True


def check_locally_acyclic(s: Sheaf) -> bool:
    """H^j(link sheaf) = 0 for 0 < j < D - level - 1, every face.

    Two-dimensional sheaves pass unconditionally."""
    c = s.complex
    if c.D <= 2:
        return True
    for level in range(c.D - 2):
        for face in c.level_faces(level):
            link_sheaf = sheaf_at_link(s, face)
            link_d = link_sheaf.complex.D
            for j in range(1, link_d):
                if cohomology_dim(link_sheaf, j) != 0:
                    return False
    return True


def sheaf_at_link(s: Sheaf, face: FaceId) -> Sheaf:
    """The inherited sheaf on the link of `face`."""
    c = s.complex
    mask, _ = face
    lk = c.link(face)
    ups = c.up_set(face)
    defining: Dict[FaceId, List[int]] = {}
    for lmask in lk.level_masks(lk.D - 1):
        src_colors = [lk.original_colors[j] for j in colors_of(lmask)]
        src_mask = mask | mask_of(src_colors)
        for lidx in lk.faces(lmask):
            lups = lk.up_sets[lmask][lidx]
            # link top position i corresponds to complex top ups[i]
            t0 = ups[lups[0]]
            sidx = c.face_in_top(src_mask, t0)
            defining[(lmask, lidx)] = s.rows((src_mask, sidx))
    return induce_lower_codes(Sheaf(lk, defining))


# -- cup product ----------------------------------------------------------------


def star_sheaf(s1: Sheaf, s2: Sheaf) -> Sheaf:
    """The sheaf whose defining codes are the element-wise products."""
    c = s1.complex
    if s2.complex is not c:
        raise SheafError("cup product needs a shared complex")
    defining = {
        face: rref_rows(
            (a & b for a in s1.rows(face) for b in s2.rows(face)), len(c.up_set(face))
        )
        for face in c.level_faces(c.D - 1)
    }
    return induce_lower_codes(Sheaf(c, defining))


def cup_product(
    f1: Cochain,
    f2: Cochain,
    target: Optional[Sheaf] = None,
) -> Cochain:
    """The sheaf cup product under the vertex order of ascending colors.

    The result lives in the star-product sheaf, passed as `target` to avoid
    rebuilding it per call."""
    s1, s2 = f1.sheaf, f2.sheaf
    c = s1.complex
    if s2.complex is not c:
        raise SheafError("cup product needs a shared complex")
    l1, l2 = f1.level, f2.level
    if l1 + l2 > c.D:
        raise SheafError("cup product level overflow")
    if target is None:
        target = star_sheaf(s1, s2)
    level = l1 + l2
    offsets, dim = target.level_offsets(level)
    data = 0
    for face in c.level_faces(level):
        mask, idx = face
        cs = colors_of(mask)
        front_mask = mask_of(cs[: l1 + 1])
        back_mask = mask_of(cs[l1:])
        ups = c.up_sets[mask][idx]
        t0 = ups[0]
        fface = (front_mask, c.face_in_top(front_mask, t0))
        bface = (back_mask, c.face_in_top(back_mask, t0))
        fups = c.up_set(fface)
        bups = c.up_set(bface)
        fpos = {t: p for p, t in enumerate(fups)}
        bpos = {t: p for p, t in enumerate(bups)}
        v1 = f1.value_at(fface)
        v2 = f2.value_at(bface)
        val = 0
        for p, t in enumerate(ups):
            if ((v1 >> fpos[t]) & 1) and ((v2 >> bpos[t]) & 1):
                val |= 1 << p
        residual, combo = target.echelon(face).reduce(val)
        if residual:
            raise SheafError("cup product value escapes the star sheaf at %r" % (face,))
        data |= combo << offsets[face]
    return Cochain(target, level, BitVector(dim, data))


# -- lifting ---------------------------------------------------------------------


def lift_shrunk_cocycle(s: Sheaf, T: Sequence[int], f: BitVector) -> Cochain:
    """Extend a T-supported shrunk 1-cocycle to a sheaf cocycle g at level
    |T| - 1 with res_T(g) = f, by one global linear solve."""
    level = len(set(T)) - 1
    c = s.complex
    if not 1 <= level <= c.D - 1:
        raise SheafError("invalid shrunk type size")
    delta = coboundary_matrix(s, level)
    res = restrict_to_type(s, level, T)
    dim = s.level_dim(level)
    if f.length != dim:
        raise SheafError("shrunk cocycle length mismatch")
    stacked = delta.vstack(res)
    rhs = BitVector(stacked.rows, f.value << delta.rows)
    g = stacked.solve_vec(rhs)
    if g is None:
        raise SheafError(
            "no sheaf lift exists for the given shrunk cocycle: "
            "this contradicts the extension lemma and indicates a bug"
        )
    return Cochain(s, level, g)


# -- exhaustive projected-product checks --------------------------------------------


def intersecting_face_pairs(c: Complex, m1: int, m2: int):
    """All (face-of-type-m1, face-of-type-m2, union-face) triples with a
    nonempty up-set intersection, found through the top faces."""
    f1 = c.top_to_face[m1]
    f2 = c.top_to_face[m2]
    mu = m1 | m2
    fu = c.top_to_face[mu]
    seen = set()
    for t in range(c.n_top):
        key = (int(f1[t]), int(f2[t]))
        if key in seen:
            continue
        seen.add(key)
        yield (m1, key[0]), (m2, key[1]), (mu, int(fu[t]))


def check_pair_products(
    s1: Sheaf,
    s2: Sheaf,
    modulus: int,
) -> dict:
    """For every pair of basis rows (one from each sheaf) on faces whose
    type union spans at most D colors, check
    that the star product of the projected codewords has weight divisible
    by `modulus`.

    Pairs with disjoint up-sets have star weight zero and are exactly
    covered by the per-type partition; only intersecting pairs are
    enumerated, through the top faces."""
    c = s1.complex
    if s2.complex is not c:
        raise SheafError("pair products need a shared complex")
    checked = 0
    for m1 in c.masks:
        if m1 == c.full_mask:
            continue
        for m2 in c.masks:
            if m2 == c.full_mask:
                continue
            if bin(m1 | m2).count("1") > c.D:
                continue
            for fa, fb, funion in intersecting_face_pairs(c, m1, m2):
                shared = c.up_set(funion)
                a_rows = _restrict(s1.rows(fa), c.up_set(fa), shared)
                b_rows = _restrict(s2.rows(fb), c.up_set(fb), shared)
                for a in a_rows:
                    for b in b_rows:
                        checked += 1
                        if (a & b).bit_count() % modulus:
                            return {
                                "ok": False,
                                "checked": checked,
                                "witness": (fa, fb),
                            }
    return {"ok": True, "checked": checked}


def check_projected_weights(s: Sheaf, modulus: int) -> dict:
    """Every basis row at every level below the top has weight divisible by the modulus (projection scatters rows
    injectively, so projected weight = row weight)."""
    checked = 0
    for level in range(s.complex.D):
        for face in s.complex.level_faces(level):
            for w in s.rows(face):
                checked += 1
                if w.bit_count() % modulus:
                    return {"ok": False, "checked": checked, "witness": face}
    return {"ok": True, "checked": checked}


# -- large-instance link computation ----------------------------------------------


def link_vertex_code_dimension(ring: RingTable, code: LinearCode, iso: VectorIso) -> int:
    """dim F_v for a color-0 vertex of the D = 2 coset complex, computed
    inside the link group K_0 without enumerating the global group.

    Every top through v holds exactly one edge of each cotype through v,
    so the E = q^2 edges of either cotype partition the q^3 tops and F_v
    = C_A ∩ C_B, where C_A and C_B are the direct sums of the oriented
    local code C over the cotype-2 and the cotype-1 edges.  The rows of M
    are the syndromes, under C_A's checks, of C_B's generators (one per
    cotype-1 edge and row of C), so C_A ∩ C_B is the kernel of M's rows:

        dim F_v = E*k - rank(M),   M of E*k rows and E*(q-k) columns.
    """
    if ring.m != 1:
        raise SheafError("link fast path assumes m = 1")
    q = ring.field.q
    if code.n != q:
        raise SheafError("code length %d != q = %d" % (code.n, q))
    table = GroupTable(ring, 2, colors=(1, 2))
    gen_col = {
        (color, alpha): col for col, (color, alpha, _) in enumerate(table.gens)
    }

    def edge_tops(cotype: int) -> np.ndarray:
        """[e, p] = the top of edge e at code position p.  The edges
        through v of cotype j are the cosets of K_{0,3-j}, numbered by
        ascending rep; top rep*e(alpha*t) sits at position U(alpha)."""
        reps = np.unique(table.coset_reps([jc for jc in range(3) if jc != cotype]))
        out = np.empty((reps.size, q), dtype=np.int64)
        for alpha, _eid in table.k_color_elements(cotype):
            out[:, iso.apply_int(alpha)] = (
                reps if alpha == 0 else table.cayley[reps, gen_col[(cotype, alpha)]]
            )
        return out

    tops_a, tops_b = edge_tops(2), edge_tops(1)
    n_edges = tops_b.shape[0]
    edge_a = np.empty(table.size, dtype=np.int64)
    pos_a = np.empty(table.size, dtype=np.int64)
    edge_a[tops_a] = np.arange(tops_a.shape[0])[:, None]
    pos_a[tops_a] = np.arange(q)
    checks = dual_code(code).generator.int_rows()
    r = q - code.k
    hcol = [sum(((h >> p) & 1) << i for i, h in enumerate(checks)) for p in range(q)]
    supports = [
        [p for p in range(q) if (w >> p) & 1] for w in code.generator.int_rows()
    ]
    # a cotype-1 edge meets each cotype-2 edge in at most one top, so the
    # shifted check columns of one edge's tops occupy disjoint bits
    rows = []
    for shifts, cols in zip((r * edge_a[tops_b]).tolist(), pos_a[tops_b].tolist()):
        terms = [hcol[c] << sh for c, sh in zip(cols, shifts)]
        rows.extend(sum(terms[p] for p in support) for support in supports)
    mat = BitMatrix.from_int_rows(rows, n_edges * r)
    del rows  # only the packed matrix stays alive through the rank
    return n_edges * code.k - mat.rank()


__all__ = [
    "SheafError",
    "Sheaf",
    "Cochain",
    "attach_local_codes",
    "attach_constant_sheaf",
    "attach_explicit",
    "induce_lower_codes",
    "dual_sheaf",
    "coboundary_matrix",
    "projection_matrix",
    "restrict_to_type",
    "cocycle_basis",
    "coboundary_image_basis",
    "cohomology_dim",
    "cohomology_reps",
    "euler_characteristic_spaces",
    "euler_characteristic_cohomology",
    "check_flasque",
    "check_locally_acyclic",
    "sheaf_at_link",
    "star_sheaf",
    "cup_product",
    "lift_shrunk_cocycle",
]
