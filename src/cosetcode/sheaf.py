"""Tanner sheaves: oriented local codes on (D-1)-faces, induced lower
codes, coboundary/projection/restriction matrices, duals, cup products.

Global cochain coordinates at level j concatenate the local bases of
the level-j faces in (type mask ascending, face index ascending) order,
so each type's coordinates are one block (`Sheaf.layout`).
A local code is a list of Python-int rows in reduced row echelon form,
the one form `LinearCode.rows` holds: bit p of a row is position p of
the face's up-set (its row of `Complex.face_tops`), and a row's pivot is
its highest set bit.  The group acts on each type's faces, so a type
uses few distinct codes: a sheaf keeps one table per type, the distinct
codes and each face's index among them (`Sheaf.codes`, `Sheaf.which`).
Per-face arrays are one gather by that index (`Sheaf.type_rows`,
`Sheaf.layout`), and incidence work gathers from them and from
`Complex.face_tops` and `Complex.top_pos`; a restricted row's
coefficient on a coface row is its bit at that row's pivot.
Construction makes one code per distinct key (an orientation, a
constraint set, a pair of codes) and merges equal codes.

A sheaf whose lower codes `induce_lower_codes` built, and whose every
(D-1)-face's local dual is that face's own code, is its own dual:
`dual_sheaf` returns it, so the X and Z sides of a code built from it
share one induction and every per-level matrix.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import RingTable, VectorIso
from .complexes import Complex, FaceId, colors_of, mask_of
from .gf2 import BitMatrix, EchelonBasis, _packed_rows, _scatter, dual_rows
from .group import GroupTable
from .local_codes import LinearCode, dual_code, star_rows


class SheafError(ValueError):
    """Raised when a sheaf axiom or construction contract is violated."""


# a type's local codes: the distinct codes, and each face's index among them
Table = Tuple[List[List[int]], np.ndarray]


class Sheaf:
    """Local codes for every face of a complex, one table per type.

    For each type mask, `codes[mask]` lists the distinct codes that the
    type's faces use, in first-use order, and `which[mask][f]` is the index
    there of face f's code, or -1 where none is attached (the lower types
    before `induce_lower_codes`).  A code is a list of int rows in the one
    form `LinearCode.rows` holds: reduced row echelon form with each row's
    pivot at its highest set bit (every constructor stores that form; the
    coboundary reads coefficients at the pivots).  `tables` gives the
    types below the top; every top face carries the full one-dimensional
    code [1].

    The complex must cover every top with a face of each type, and each
    face must lie inside one face of each one-step sub-type; restriction
    and the coboundary gather through `top_to_face` on that premise, so
    any other complex is refused with `SheafError`
    (`Complex.nesting_failure`, found once per complex).

    `_self_dual` is set only by `induce_lower_codes`, on a sheaf whose
    lower codes it induced and whose (D-1)-faces each carry a self-dual
    code; `dual_sheaf` then returns the sheaf itself.  Lower codes given
    any other way are not known to be induced, so such a sheaf is never
    marked.
    """

    def __init__(self, complex_: Complex, tables: Dict[int, Table]):
        c = self.complex = complex_
        if c.nesting_failure is not None:
            raise SheafError(c.nesting_failure)
        tables = {m: ([], np.full(c.n_faces(m), -1, dtype=np.int64)) for m in c.masks} | tables
        tables[c.full_mask] = ([[1]], np.zeros(c.n_top, dtype=np.int64))
        self.codes = {mask: codes for mask, (codes, _) in tables.items()}
        self.which = {mask: which for mask, (_, which) in tables.items()}
        self._layout: Dict[int, Dict[int, Tuple[int, np.ndarray]]] = {}
        self._duals: Dict[int, Table] = {}  # (D-1)-types, see _local_duals
        self._types: Dict[int, np.ndarray] = {}
        self._matrices: Dict[Tuple[str, int], BitMatrix] = {}  # see _per_level
        self._self_dual = False

    # -- bases -------------------------------------------------------------

    def rows(self, face: FaceId) -> List[int]:
        """The local code of `face` as int rows (never mutate them)."""
        mask, idx = face
        which = self.which.get(mask)
        if which is None or not 0 <= idx < which.size or which[idx] < 0:
            raise SheafError("no local code for face %r (unknown, or not induced yet)" % (face,))
        return self.codes[mask][which[idx]]

    def _table(self, mask: int) -> Table:
        """The type's table, refusing a type with a face that has no code."""
        which = self.which[mask]
        if (which < 0).any():
            face = (mask, int(np.argmax(which < 0)))
            raise SheafError("no local code for face %r (not induced yet)" % (face,))
        return self.codes[mask], which

    def dim(self, face: FaceId) -> int:
        return len(self.rows(face))

    def type_rows(self, mask: int) -> np.ndarray:
        """The type-`mask` local codes as `bits[f, i, p]`, bit p of face f's
        row i, built once; zero past its rows and up-set (both may vary
        within a type)."""
        bits = self._types.get(mask)
        if bits is None:
            width = self.complex.face_tops[mask].shape[1]
            bits = self._types[mask] = _code_bits(self._table(mask), width)
        return bits

    # -- global coordinates ---------------------------------------------------

    def layout(self, j: int) -> Dict[int, Tuple[int, np.ndarray]]:
        """The coordinates of C^j, built once: per level-j type `mask`,
        ascending, the start of the type's block and the local dimension
        of each of its faces.  The block holds the faces in index order,
        and each face's rows in order."""
        table = self._layout.get(j)
        if table is None:
            table, start = {}, 0
            for mask in self.complex.level_masks(j):
                codes, which = self._table(mask)
                dims = np.fromiter(map(len, codes), np.int64, len(codes))[which]
                table[mask] = (start, dims)
                start += int(dims.sum())
            self._layout[j] = table
        return table

    def level_dim(self, j: int) -> int:
        return sum(int(dims.sum()) for _, dims in self.layout(j).values())

    def dims(self, mask: int) -> np.ndarray:
        """The local dimension of each type-`mask` face."""
        return self.layout(bin(mask).count("1") - 1)[mask][1]

    def first(self, mask: int) -> np.ndarray:
        """The coordinate of row 0 of each type-`mask` face."""
        start, dims = self.layout(bin(mask).count("1") - 1)[mask]
        return start + np.cumsum(dims) - dims

    def type_coords(self, j: int, T: Sequence[int]) -> Tuple[List[int], int]:
        """The C^j coordinates of the faces whose type lies in T, one block
        per type: as an ascending list (a row select) and as an int with
        those bits set (a column mask)."""
        t_mask, rows, cols = mask_of(T), [], 0
        for mask, (start, dims) in self.layout(j).items():
            if not mask & ~t_mask:
                stop = start + int(dims.sum())
                rows.extend(range(start, stop))
                cols |= ((1 << (stop - start)) - 1) << start
        return rows, cols


class Cochain:
    """An element of C^j in global coordinates: `data` is an int of
    `level_dim(j)` bits, bit i the coefficient of coordinate i."""

    __slots__ = ("sheaf", "level", "data")

    def __init__(self, sheaf: Sheaf, level: int, data: int):
        if data < 0 or data.bit_length() > sheaf.level_dim(level):
            raise SheafError("cochain data is not a vector of C^%d" % level)
        self.sheaf = sheaf
        self.level = level
        self.data = data

    def __xor__(self, other: "Cochain") -> "Cochain":
        if other.level != self.level or other.sheaf is not self.sheaf:
            raise SheafError("cochain mismatch in xor")
        return Cochain(self.sheaf, self.level, self.data ^ other.data)


# -- local codes ----------------------------------------------------------------


def _code_bits(table: Table, width: int) -> np.ndarray:
    """`bits[f, i, p]`, bit p of row i of face f's code in `table`, zero
    past its rows and `width`; each distinct code is unpacked once."""
    codes, which = table
    bits = np.zeros((len(codes), max(map(len, codes), default=0), width), dtype=np.uint8)
    for k, rows in enumerate(codes):
        bits[k, : len(rows)] = BitMatrix.from_int_rows(rows, width).to_dense()
    return bits[which]


def _restricted(s: Sheaf, mask: int, tops: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per row g of `tops` (one face's tops, -1 padded, as in `face_tops`):
    the type-`mask` face through tops[g, 0], and its rows on those tops."""
    c = s.complex
    bits = s.type_rows(mask)
    face = c.top_to_face[mask][tops[:, 0]]
    pos = c.top_pos[mask][tops]
    out = bits.transpose(0, 2, 1)[face[:, None], pos].transpose(0, 2, 1)
    out &= (tops >= 0)[:, None, :]
    return face, out


def _coefficients(s: Sheaf, mask: int, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """coeffs[g, k, l], the bit of vector values[g, k, :] at the pivot of
    row l of type-`mask` face g, and per face whether some vector is not
    the sum of the rows its coefficients name (it leaves the local code)."""
    bits = s.type_rows(mask)
    pivots = bits.shape[2] - 1 - bits[:, :, ::-1].argmax(axis=2)  # highest set bits
    coeffs = np.take_along_axis(values, pivots[:, None, :], axis=2)
    coeffs &= bits.any(axis=2)[:, None, :]
    # uint8 sums wrap mod 256, which keeps their parity
    escaped = ((np.matmul(coeffs, bits) & 1) != values).any(axis=(1, 2))
    return coeffs, escaped


# -- construction -------------------------------------------------------------


def _tabulate(keys: Iterable, make) -> Table:
    """A type's table from one hashable key per face (None: no code): one
    `make(key)` per distinct key, shared by the faces that have it, and
    equal codes merged in first-use order."""
    made: Dict = {}  # key -> code index
    ids: Dict[Tuple[int, ...], int] = {}  # code rows -> code index, in first-use order
    which = []
    for key in keys:
        if key is not None and key not in made:
            made[key] = ids.setdefault(tuple(make(key)), len(ids))
        which.append(made.get(key, -1))
    return [list(rows) for rows in ids], np.array(which, dtype=np.int64)


def _oriented_tops(table: GroupTable, iso: VectorIso, reps: np.ndarray, cotype: int) -> np.ndarray:
    """[f, U(alpha)] = the top reps[f]*e(alpha*t): the tops of the
    cotype-`cotype` face through each rep, at their code positions."""
    out = np.empty((reps.size, iso.field.q), dtype=np.int64)
    out[:, iso.apply_int(0)] = reps
    for col, (color, alpha, _) in enumerate(table.gens):
        if color == cotype:
            out[:, iso.apply_int(alpha)] = table.cayley[reps, col]
    return out


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
    def oriented(perm: Tuple[int, ...]) -> List[int]:  # one RREF per distinct orientation
        return EchelonBasis(_scatter(w, perm) for w in code.rows).rref()[0]

    if c.group is None:
        raise SheafError("attach_local_codes needs a coset complex")
    q = ring.field.q
    if code.n != q:
        raise SheafError("code length %d != q = %d" % (code.n, q))
    tables = {}
    for mask in c.level_masks(c.D - 1):
        cotype = next(j for j in range(c.n_colors) if not (mask >> j) & 1)
        reps = c.face_tops[mask][:, 0]  # each coset's least element
        tops = _oriented_tops(c.group, iso, reps, cotype)
        outside = c.top_to_face[mask][tops] != np.arange(reps.size)[:, None]
        if outside.any():
            f, p = np.argwhere(outside)[0].tolist()
            raise SheafError("top %d is outside face %r" % (tops[f, p], (mask, f)))
        # orientation [f, U(alpha)]: the up-set position of face f's top rep*e(alpha*t)
        tables[mask] = _tabulate(map(tuple, c.top_pos[mask][tops].tolist()), oriented)
    return Sheaf(c, tables)


def attach_constant_sheaf(c: Complex) -> Sheaf:
    """Repetition local code on every face below the top: the constant
    sheaf (no induction needed; restrictions of constants are constant)."""
    tables = {}
    for mask in c.masks[:-1]:
        tables[mask] = _tabulate(c.up_set_sizes(mask).tolist(), lambda size: [(1 << size) - 1])
    return Sheaf(c, tables)


def attach_explicit(c: Complex, defining: Dict[FaceId, LinearCode]) -> Sheaf:
    """User-supplied codes over the up-sets of faces below the top
    (fixtures and negative controls), stored as their rows, already in the
    sheaf's form; faces with equal codes share one."""
    given = {m: [None] * c.n_faces(m) for m in c.masks[:-1]}
    for face, code in defining.items():
        mask, idx = face
        if mask not in given or not 0 <= idx < len(given[mask]):
            raise SheafError("unknown face %r" % (face,))
        if code.n != len(c.up_set(face)):
            raise SheafError("code of face %r has length %d" % (face, code.n))
        given[mask][idx] = tuple(code.rows)
    return Sheaf(c, {m: _tabulate(keys, list) for m, keys in given.items()})


def _local_duals(s: Sheaf, mask: int) -> Table:
    """The local duals of the type-`mask` faces, (D-1)-faces, as a table
    kept on the sheaf: one `dual_rows` per distinct (code, up-set size),
    which is one per distinct code when a type's up-sets are equal."""
    found = s._duals.get(mask)
    if found is None:
        codes, which = s._table(mask)
        keys = zip(which.tolist(), s.complex.up_set_sizes(mask).tolist())
        found = s._duals[mask] = _tabulate(keys, lambda key: dual_rows(codes[key[0]], key[1]))
    return found


def _constraints(
    c: Complex, bits: np.ndarray, mask: int, smask: int
) -> Tuple[np.ndarray, List[int]]:
    """The dual rows of every type-`smask` face above every type-`mask`
    face (`bits` as `_code_bits` gives them), on the lower face's up-set:
    the lower face of each row, and the rows as ints.

    A coface's tops lie in the lower face's up-set, so each coface is met
    once, at its top in position 0.  One gather takes the cofaces' rows
    and one scatter puts them at the lower faces' positions of their tops."""
    ftops = c.face_tops[mask]
    width = ftops.shape[1]
    f, p = np.nonzero((ftops >= 0) & (c.top_pos[smask][ftops] == 0))
    coface = c.top_to_face[smask][ftops[f, p]]
    stops = c.face_tops[smask][coface]
    # past a coface's up-set, bits are zero and land in a spare column
    pos = np.where(stops >= 0, c.top_pos[mask][stops], width)
    rows = np.zeros((f.size, bits.shape[1], width + 1), dtype=np.uint8)
    pairs, dual_row = np.arange(f.size)[:, None, None], np.arange(bits.shape[1])[:, None]
    rows[pairs, dual_row, pos[:, None, :]] = bits[coface]
    present = bits.any(axis=2)[coface]  # zero rows pad the smaller codes
    words = np.packbits(rows[:, :, :width][present], axis=1, bitorder="little")
    return np.broadcast_to(f[:, None], present.shape)[present], _packed_rows(words)


def induce_lower_codes(s: Sheaf) -> Sheaf:
    """Fill every level below D-1 with the kernel of the stacked dual
    constraints of the (D-1)-faces above each face: one gather per (type,
    (D-1)-type), one `dual_rows` call per distinct constraint set (at q=2,
    63 vertices share 28 sets; at q=4, 2,835 share about 2,580)."""
    c = s.complex
    top_masks = c.level_masks(c.D - 1)
    tables = {m: s._table(m) for m in top_masks}
    duals = {m: _local_duals(s, m) for m in top_masks}
    dual_bits = {m: _code_bits(t, c.face_tops[m].shape[1]) for m, t in duals.items()}
    # one code per distinct constraint set, met in any type
    kernel = functools.lru_cache(maxsize=None)(lambda key: dual_rows(key[1], key[0]))
    for level in range(c.D - 2, -1, -1):
        for mask in c.level_masks(level):
            rows: List[List[int]] = [[] for _ in c.faces(mask)]
            for m in (m for m in top_masks if not mask & ~m):
                owner, found = _constraints(c, dual_bits[m], mask, m)
                for f, v in zip(owner.tolist(), found):
                    rows[f].append(v)
            # the face's rows in one canonical order: equal sets, equal keys
            sizes = c.up_set_sizes(mask).tolist()
            tables[mask] = _tabulate(((n, tuple(sorted(r))) for n, r in zip(sizes, rows)), kernel)
    out = Sheaf(c, tables)
    out._duals.update(duals)  # codes unchanged
    # induction reads only the defining codes and the complex, so when
    # every defining code is its own dual the dual sheaf is this one
    out._self_dual = all(_same_codes(tables[m], duals[m]) for m in top_masks)
    return out


def _same_codes(a: Table, b: Table) -> bool:
    """Whether two tables of one type give every face the same code: each
    distinct (code, code) pair the faces name is compared once."""
    (codes_a, which_a), (codes_b, which_b) = a, b
    pairs = set(zip(which_a.tolist(), which_b.tolist()))
    return all(codes_a[i] == codes_b[j] for i, j in pairs)


def dual_sheaf(s: Sheaf) -> Sheaf:
    """Replace every defining code by its dual and re-induce; a sheaf that
    `induce_lower_codes` marked self-dual is returned as it is.

    The primal's local duals are the dual's codes, and the primal codes
    are the dual's local duals, so no local kernel is computed twice."""
    if s._self_dual:
        return s
    top_masks = s.complex.level_masks(s.complex.D - 1)
    d = Sheaf(s.complex, {m: _local_duals(s, m) for m in top_masks})
    d._duals.update((m, s._table(m)) for m in top_masks)
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


@_per_level
def coboundary_matrix(s: Sheaf, j: int) -> BitMatrix:
    """delta^j : C^j -> C^{j+1} in global coordinates (rows = target).

    Entry ((g, l), (f, i)) is the coefficient of row l of g in row i of
    its face f restricted to g: one gather per (target type, facet type)."""
    c = s.complex
    if not 0 <= j < c.D:
        raise SheafError("coboundary level out of range")
    rows, cols = [], []
    for tmask in c.level_masks(j + 1):
        tfirst = s.first(tmask)
        for mask in (tmask & ~(1 << col) for col in colors_of(tmask)):
            face, restricted = _restricted(s, mask, c.face_tops[tmask])
            coeffs, escaped = _coefficients(s, tmask, restricted)
            if escaped.any():
                bad = (tmask, int(np.argmax(escaped)))
                raise SheafError("restriction to %r leaves the local code" % (bad,))
            g, i, l = np.nonzero(coeffs)
            rows.append(tfirst[g] + l)
            cols.append(s.first(mask)[face[g]] + i)
    return BitMatrix.from_coords(
        s.level_dim(j + 1), s.level_dim(j), np.concatenate(rows), np.concatenate(cols)
    )


@_per_level
def projection_matrix(s: Sheaf, j: int) -> BitMatrix:
    """The level-j basis rows on the qubits, shape (level_dim(j), n_top):
    row (face, i) is row i of the face's code scattered over its up-set,
    bit t for top face t.  These rows are the checks (or logicals) that
    `extract_css` and the Floquet rounds read; as a map, pi-up : C^j ->
    F_2^{top faces} is the transpose."""
    c = s.complex
    if not 0 <= j <= c.D:
        raise SheafError("projection level out of range")
    rows, cols = [], []
    for mask in c.level_masks(j):
        f, i, p = np.nonzero(s.type_rows(mask))
        rows.append(s.first(mask)[f] + i)
        cols.append(c.face_tops[mask][f, p])
    return BitMatrix.from_coords(
        s.level_dim(j), c.n_top, np.concatenate(rows), np.concatenate(cols)
    )


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
        return BitMatrix(0, s.level_dim(0))
    d = coboundary_matrix(s, j - 1)
    return d.transpose().row_space_basis()


def cohomology_dim(s: Sheaf, j: int) -> int:
    """dim H^j = dim C^j - rank delta^j - rank delta^{j-1}: two ranks, and
    no basis or transpose (delta^D and delta^{-1} are zero)."""
    dim = s.level_dim(j)
    if j < s.complex.D:
        dim -= coboundary_matrix(s, j).rank()
    if j > 0:
        dim -= coboundary_matrix(s, j - 1).rank()
    return dim


@_per_level
def cohomology_reps(s: Sheaf, j: int) -> BitMatrix:
    """Deterministic cocycle representatives of a basis of H^j: the cocycle
    basis rows independent of B^j and of the rows before them.  B^j enters
    as the rows of delta^{j-1}^T as they are: only their span matters."""
    z = cocycle_basis(s, j)
    acc = EchelonBasis(coboundary_matrix(s, j - 1).transpose().int_rows() if j else ())
    reps = [row for row in z.int_rows() if acc.insert(row)]
    return BitMatrix.from_int_rows(reps, z.cols)


# -- predicates ----------------------------------------------------------------


def check_flasque(s: Sheaf) -> bool:
    """Every one-step restriction F_sigma -> F_tau is surjective: the
    restricted rows stay in F_tau and their coefficients have full rank."""
    c = s.complex
    for level in range(1, c.D + 1):
        for tmask in c.level_masks(level):
            dims = s.dims(tmask)
            for mask in (tmask & ~(1 << col) for col in colors_of(tmask)):
                _, restricted = _restricted(s, mask, c.face_tops[tmask])
                coeffs, escaped = _coefficients(s, tmask, restricted)
                if escaped.any():
                    return False
                # one rank per distinct coefficient block, shared by the faces
                # that have it, taken on the transpose: a row per coface row.
                # Block i's rows are ints i*n .. i*n + n - 1
                packed = np.packbits(coeffs.transpose(0, 2, 1), axis=2, bitorder="little")
                g_count, n, nb = packed.shape
                flat = packed.reshape(g_count, n * nb)
                blocks, which = np.unique(flat, axis=0, return_inverse=True)
                rows = _packed_rows(blocks.reshape(len(blocks) * n, nb))
                ranks = [len(EchelonBasis(rows[i * n : (i + 1) * n])) for i in range(len(blocks))]
                if (np.array(ranks, dtype=np.int64)[which.reshape(-1)] != dims).any():
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
    mask, idx = face
    lk = c.link(face)
    ups = c.face_tops[mask][idx]  # link top i is complex top ups[i]
    tables = {}
    for lmask in lk.level_masks(lk.D - 1):
        src_mask = mask | mask_of(lk.original_colors[j] for j in colors_of(lmask))
        src = c.top_to_face[src_mask][ups[lk.face_tops[lmask][:, 0]]]
        codes, which = s._table(src_mask)
        tables[lmask] = _tabulate(which[src].tolist(), codes.__getitem__)
    return induce_lower_codes(Sheaf(lk, tables))


# -- cup product ----------------------------------------------------------------


def star_sheaf(s1: Sheaf, s2: Sheaf) -> Sheaf:
    """The sheaf whose defining codes are the element-wise products."""
    c = s1.complex
    if s2.complex is not c:
        raise SheafError("cup product needs a shared complex")
    tables = {}
    for mask in c.level_masks(c.D - 1):
        (codes1, which1), (codes2, which2) = s1._table(mask), s2._table(mask)
        keys = zip(which1.tolist(), which2.tolist())
        tables[mask] = _tabulate(keys, lambda key: star_rows(codes1[key[0]], codes2[key[1]]))
    return induce_lower_codes(Sheaf(c, tables))


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
    data = 0
    for mask in c.level_masks(level):
        cs = colors_of(mask)
        prod = _top_values(f1, mask_of(cs[: l1 + 1])) & _top_values(f2, mask_of(cs[l1:]))
        tops = c.face_tops[mask]
        values = (prod[tops] & (tops >= 0))[:, None, :]
        coeffs, escaped = _coefficients(target, mask, values)
        if escaped.any():
            raise SheafError("cup product value escapes the star sheaf at type %d" % mask)
        g, _, l = np.nonzero(coeffs)
        for k in (target.first(mask)[g] + l).tolist():
            data |= 1 << k
    return Cochain(target, level, data)


def _top_values(f: Cochain, mask: int) -> np.ndarray:
    """At every top, the bit there of f's local codeword on the top's
    type-`mask` face (`mask` is a type of f's level): f's type-`mask`
    block projected onto the qubits."""
    s, level = f.sheaf, f.level
    block = f.data & s.type_coords(level, colors_of(mask))[1]
    row = BitMatrix.from_int_rows([block], s.level_dim(level))
    return row.matmul(projection_matrix(s, level)).to_dense()[0]


# -- lifting ---------------------------------------------------------------------


def lift_shrunk_cocycle(s: Sheaf, T: Sequence[int], f: int) -> Cochain:
    """Extend a T-supported shrunk 1-cocycle f, an int of `level_dim(|T| - 1)`
    bits, to a sheaf cocycle g at level |T| - 1 with res_T(g) = f, by one
    global linear solve."""
    level = len(set(T)) - 1
    c = s.complex
    if not 1 <= level <= c.D - 1 or not set(T) <= set(range(c.n_colors)):
        raise SheafError("invalid shrunk type %r" % (tuple(T),))
    if f < 0 or f.bit_length() > s.level_dim(level):
        raise SheafError("shrunk cocycle is not a vector of C^%d" % level)
    rows, keep = s.type_coords(level, T)
    if f & ~keep:
        raise SheafError("shrunk cocycle has coordinates outside the type %r" % (tuple(T),))
    # delta g = 0 and g = f on T's coordinates: at this level they are
    # the one block of type T, so f's bits there are f shifted down by
    # the block's start
    delta = coboundary_matrix(s, level)
    ident = BitMatrix.from_int_rows([1 << i for i in rows], delta.cols)
    g = delta.vstack(ident).solve_vec(f >> rows[0] << delta.rows)
    if g is None:
        raise SheafError(
            "no sheaf lift exists for the given shrunk cocycle: "
            "this contradicts the extension lemma and indicates a bug"
        )
    return Cochain(s, level, g)


# -- exhaustive projected-product checks --------------------------------------------


def check_pair_products(
    s1: Sheaf,
    s2: Sheaf,
    modulus: int,
) -> dict:
    """For every pair of basis rows (one from each sheaf) on faces whose
    type union spans at most D colors, check that the star product of the
    projected codewords has weight divisible by `modulus`.

    Pairs with disjoint up-sets have star weight zero.  Each union-type
    face holds exactly one intersecting pair, and its up-set is the shared
    one, so both rows are gathered at its tops.  Pairs count in order of
    the union face's first top, then a-row by b-row."""
    c = s1.complex
    if s2.complex is not c:
        raise SheafError("pair products need a shared complex")
    _check_modulus(modulus)
    checked = 0
    types = [m for m in c.masks if m != c.full_mask]
    for m1 in types:
        for m2 in types:
            if bin(m1 | m2).count("1") > c.D:
                continue
            tops = c.face_tops[m1 | m2]
            tops = tops[np.argsort(tops[:, 0], kind="stable")]
            fa, a = _restricted(s1, m1, tops)
            fb, b = _restricted(s2, m2, tops)
            # rows past a face's dimension are zero padding
            present = (np.arange(a.shape[1]) < s1.dims(m1)[fa, None])[:, :, None]
            present = present & (np.arange(b.shape[1]) < s2.dims(m2)[fb, None])[:, None, :]
            weights = np.matmul(a.astype(np.int32), b.astype(np.int32).transpose(0, 2, 1))
            odd = np.flatnonzero(present & (weights % modulus != 0))
            if odd.size:
                checked += int(np.count_nonzero(present.reshape(-1)[: odd[0] + 1]))
                u = odd[0] // (present.shape[1] * present.shape[2])
                return {
                    "ok": False,
                    "checked": checked,
                    "witness": ((m1, int(fa[u])), (m2, int(fb[u]))),
                }
            checked += int(np.count_nonzero(present))
    return {"ok": True, "checked": checked}


def _check_modulus(modulus: int) -> None:
    if modulus < 1:
        raise SheafError("the weight modulus must be at least 1, got %r" % (modulus,))


def check_projected_weights(s: Sheaf, modulus: int) -> dict:
    """Every basis row at every level below the top has weight divisible
    by the modulus (projection scatters rows injectively, so projected
    weight = row weight).  Each distinct code is weighed once; rows count
    in face order, and the witness is the first face with a bad row."""
    _check_modulus(modulus)
    checked = 0
    for level in range(s.complex.D):
        for mask in s.complex.level_masks(level):
            codes, which = s._table(mask)
            odd = [[w.bit_count() % modulus != 0 for w in rows] for rows in codes]
            for f, k in enumerate(which.tolist()):
                if any(odd[k]):
                    checked += odd[k].index(True) + 1
                    return {"ok": False, "checked": checked, "witness": (mask, f)}
                checked += len(odd[k])
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

    For k > q - k the same routine runs on the dual code, since
    (C_A + C_B)^⊥ = C_A^⊥ ∩ C_B^⊥ is the link code of C^⊥:

        dim F_v = 2*E*k - q^3 + dim F_v(C^⊥),

    so M always has E*min(k, q-k) rows.
    """
    if ring.m != 1:
        raise SheafError("link fast path assumes m = 1")
    q = ring.field.q
    if code.n != q:
        raise SheafError("code length %d != q = %d" % (code.n, q))
    n_edges, k = q * q, code.k
    if k > q - k:
        return 2 * n_edges * k - q**3 + link_vertex_code_dimension(ring, dual_code(code), iso)
    table = GroupTable(ring, 2, colors=(1, 2))
    # [e, p] = the top of edge e at code position p: the edges through v of
    # cotype j are the cosets of K_{0,3-j}, numbered by ascending rep
    tops_a, tops_b = (
        _oriented_tops(table, iso, np.unique(table.coset_reps([0, 3 - j])), j) for j in (2, 1)
    )
    edge_a = np.empty(table.size, dtype=np.int64)
    pos_a = np.empty(table.size, dtype=np.int64)
    edge_a[tops_a] = np.arange(n_edges)[:, None]
    pos_a[tops_a] = np.arange(q)
    checks = dual_rows(code.rows, q)
    r = q - k
    hcol = [sum(((h >> p) & 1) << i for i, h in enumerate(checks)) for p in range(q)]
    # the cotype-1 edges go in far-first (descending rep): in ascending
    # order about half of the elimination steps reduce dependent rows to 0
    tops_b = tops_b[::-1]
    # rows[e*k + i] = row i of C on cotype-1 edge e, built one code position
    # at a time; a cotype-1 edge meets each cotype-2 edge in at most one
    # top, so the shifted check columns of one edge's tops occupy disjoint bits
    rows = [0] * (n_edges * k)
    for p in range(q):
        tops = tops_b[:, p]
        terms = [hcol[c] << sh for c, sh in zip(pos_a[tops].tolist(), (r * edge_a[tops]).tolist())]
        for i, w in enumerate(code.rows):
            if (w >> p) & 1:
                rows[i::k] = [v | t for v, t in zip(rows[i::k], terms)]
    return n_edges * k - BitMatrix.from_int_rows(rows, n_edges * r).rank()


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
    "cocycle_basis",
    "coboundary_image_basis",
    "cohomology_dim",
    "cohomology_reps",
    "check_flasque",
    "check_locally_acyclic",
    "sheaf_at_link",
    "star_sheaf",
    "cup_product",
    "lift_shrunk_cocycle",
    "check_pair_products",
    "check_projected_weights",
    "link_vertex_code_dimension",
]
