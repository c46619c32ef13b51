"""Bit-packed GF(2) linear algebra against independent dense oracles."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetcode import gf2
from cosetcode.gf2 import (
    BitMatrix,
    EchelonBasis,
    GF2Error,
    dual_rows,
    row_space_equal,
    write_alist,
    write_matrix_market,
)


def _rank_oracle(int_rows, cols):
    """Plain-integer Gaussian elimination, independent of BitMatrix."""
    rows = list(int_rows)
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if (rows[i] >> c) & 1), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> c) & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def _random_matrix(rng, rows, cols):
    ints = [rng.getrandbits(cols) for _ in range(rows)]
    return BitMatrix.from_int_rows(ints, cols), ints


def test_dense_roundtrip():
    rng = random.Random(11)
    for rows, cols in [(1, 1), (3, 65), (10, 64), (7, 130), (0, 5), (0, 70), (3, 0)]:
        m, ints = _random_matrix(rng, rows, cols)
        d = m.to_dense()
        assert d.shape == (rows, cols)
        back = BitMatrix.from_dense(d)
        assert (back.rows, back.cols) == (rows, cols)
        assert back.int_rows() == ints


def test_from_coords_matches_dense_and_rejects_outside_entries():
    rng = np.random.default_rng(6)
    for rows, cols in [(1, 1), (3, 65), (10, 64), (7, 130), (0, 5), (3, 0)]:
        d = rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)
        r, c = np.nonzero(d)
        twice = np.concatenate([r, r]), np.concatenate([c, c])  # repeats set a bit once
        assert BitMatrix.from_coords(rows, cols, *twice) == BitMatrix.from_dense(d)
    for r, c in ((3, 0), (0, 5), (-1, 0), (0, -1)):
        with pytest.raises(GF2Error):
            BitMatrix.from_coords(3, 5, [r], [c])


def _scatter_reference(rows, cols, r, c):
    """One scatter into a whole rows x words array, then one int per row."""
    nw = (cols + 63) // 64
    words = np.zeros((rows, nw), dtype=np.uint64)
    bit = np.uint64(1) << (c & 63).astype(np.uint64)
    np.bitwise_or.at(words.reshape(-1), r * nw + (c >> 6), bit)
    return [int.from_bytes(w.tobytes(), "little") for w in words]


@pytest.mark.parametrize("chunk_words", [1, 2, 3, 1 << 20])
def test_from_coords_in_row_blocks_matches_whole_scatter(monkeypatch, chunk_words):
    # blocks of one row and up, across word boundaries, with repeats and empty rows
    monkeypatch.setattr(gf2, "_CHUNK_WORDS", chunk_words)
    rng = np.random.default_rng(chunk_words)
    for rows, cols in [(0, 5), (5, 0), (0, 0), (1, 1), (9, 64), (17, 65), (40, 200)]:
        for nnz in (0, 1, rows * cols // 3 + 1, 3 * rows * cols):
            if not rows * cols:
                nnz = 0
            busy = rng.choice(rows, size=max(1, rows // 2)) if rows else []
            r = rng.choice(busy, size=nnz) if nnz else np.zeros(0, dtype=np.int64)
            c = rng.integers(0, max(cols, 1), size=nnz)
            m = BitMatrix.from_coords(rows, cols, r, c)
            assert (m.rows, m.cols) == (rows, cols)
            assert m.int_rows() == _scatter_reference(rows, cols, r, c)
    for r, c in ((9, 0), (0, 130), (-1, 0), (0, -1)):
        with pytest.raises(GF2Error):
            BitMatrix.from_coords(9, 130, [0, r], [0, c])


def _boundary_arrays(rng, rows, cols):
    """Random, all-ones, diagonal and last-column-only 0/1 arrays."""
    last = np.zeros((rows, cols), dtype=np.uint8)
    last[:, cols - 1 :] = 1
    return [
        rng.integers(0, 2, size=(rows, cols), dtype=np.uint8),
        np.ones((rows, cols), dtype=np.uint8),
        np.eye(rows, cols, dtype=np.uint8),
        last,
    ]


def test_numpy_boundary_matches_numpy_references():
    rng = np.random.default_rng(12)
    for rows in (0, 1, 5, 64, 65):
        for cols in (0, 1, 63, 64, 65, 129, 130):
            for d in _boundary_arrays(rng, rows, cols):
                ints = [sum(1 << int(j) for j in np.nonzero(row)[0]) for row in d]
                m = BitMatrix.from_dense(d)
                assert (m.rows, m.cols) == (rows, cols)
                assert m.int_rows() == ints
                assert BitMatrix.from_dense(3 * d) == m  # entries are read mod 2
                dense = m.to_dense()
                assert dense.dtype == np.uint8 and dense.shape == (rows, cols)
                assert (dense == d).all()
                r, c = m.nonzero()
                ref_r, ref_c = np.nonzero(d)
                assert (r.tolist(), c.tolist()) == (ref_r.tolist(), ref_c.tolist())
                t = m.transpose()
                assert (t.rows, t.cols) == (cols, rows)
                assert (t.to_dense() == d.T).all()
                # every one listed twice, the repeats in reverse order, sets one bit
                twice = np.concatenate([r, r[::-1]]), np.concatenate([c, c[::-1]])
                assert BitMatrix.from_coords(rows, cols, *twice).int_rows() == ints


def test_from_dense_accepts_noncontiguous_views():
    rng = np.random.default_rng(5)
    d = (rng.integers(0, 2, size=(40, 70)).astype(np.uint8)).T
    m = BitMatrix.from_dense(d)
    assert (m.to_dense() == d).all()


def _structured_rank_inputs(rng):
    """(int rows, cols) the random cases miss: three ones per row as in
    δ^1, cols far past rows and not a multiple of 8, repeated rows and
    XORs of other rows, zero rows, and empty shapes."""
    for rows, cols in [(60, 45), (45, 60), (200, 150)]:
        yield [sum(1 << c for c in rng.sample(range(cols), 3)) for _ in range(rows)], cols
    for rows, cols in [(10, 301), (7, 1001), (3, 4099)]:
        yield _random_matrix(rng, rows, cols)[1], cols
    for base_rows, cols in [(8, 20), (20, 70), (40, 33)]:
        ints = _random_matrix(rng, base_rows, cols)[1]
        ints += [rng.choice(ints) for _ in range(5)]
        ints += [_xor_of(ints, rng.getrandbits(len(ints))) for _ in range(10)]
        rng.shuffle(ints)
        yield ints, cols
    yield [0] * 6, 13
    yield [0, 1 << 12, 0, (1 << 12) | 1, 0], 13
    yield [], 10
    yield [0] * 5, 0
    yield [], 0


def test_rank_matches_oracle():
    rng = random.Random(23)
    cases = [(_random_matrix(rng, r, c)[1], c) for r, c in [(5, 5), (20, 64), (30, 100), (64, 30)]]
    for ints, cols in cases + list(_structured_rank_inputs(rng)):
        m = BitMatrix.from_int_rows(ints, cols)
        assert m.rank() == _rank_oracle(ints, cols) == len(m.rref()[1]), (len(ints), cols)


def test_rank_is_kept_once_computed(monkeypatch):
    rng = random.Random(29)
    built = []
    echelon = gf2.EchelonBasis
    monkeypatch.setattr(gf2, "EchelonBasis", lambda rows=(): built.append(1) or echelon(rows))
    for ints, cols in list(_structured_rank_inputs(rng)):
        for m in (BitMatrix.from_int_rows(ints, cols), BitMatrix(len(ints), cols)):
            built.clear()
            first = m.rank()
            assert len(built) == 1
            assert m.rank() == first and len(built) == 1  # the second builds none
            # a fresh matrix of the same rows, and the result of every other
            # constructor, start with no rank kept
            assert first == BitMatrix.from_int_rows(list(m.int_rows()), cols).rank()
            assert m.vstack(m).rank() == first and len(built) == 3
    assert BitMatrix.identity(5).rank() == 5 and BitMatrix(3, 4).rank() == 0


def test_rref_preserves_row_space_and_is_idempotent():
    rng = random.Random(3)
    m, _ = _random_matrix(rng, 12, 40)
    r, pivots = m.rref()
    assert row_space_equal(m, r)
    assert len(pivots) == m.rank()
    again, _ = r.rref()
    assert again.int_rows() == r.int_rows()


def test_kernel_basis_annihilates_and_has_full_conullity():
    rng = random.Random(7)
    m, _ = _random_matrix(rng, 15, 48)
    k = m.kernel_basis()
    assert m.matmul(k.transpose()).is_zero()
    assert m.rank() + k.rows == m.cols
    assert k.rank() == k.rows


def test_solve_consistent_and_inconsistent():
    rng = random.Random(19)
    a, _ = _random_matrix(rng, 20, 16)
    x = BitMatrix.from_int_rows([rng.getrandbits(16) for _ in range(3)], 16)
    b = a.matmul(x.transpose())
    sol = a.solve(b)
    assert sol is not None
    assert a.matmul(sol) == b
    # a vector outside the column space has no solution
    full = a.transpose().rank()
    if full < a.rows:
        outside = a.transpose().kernel_basis().int_rows()[0]
        target = BitMatrix.from_int_rows(
            [(outside >> i) & 1 for i in range(a.rows)], 1
        )
        assert a.solve(target) is None


def test_matmul_and_transpose_match_numpy():
    rng = random.Random(31)
    a, _ = _random_matrix(rng, 9, 33)
    # widths around a word boundary, and empty shapes
    shapes = [(5, 63, 64), (64, 65, 63), (65, 64, 65), (7, 130, 129)]
    shapes += [(0, 5, 3), (4, 0, 6), (3, 5, 0), (0, 0, 0)]
    pairs = [(a, _random_matrix(rng, 33, 21)[0])]
    pairs += [(_random_matrix(rng, n, k)[0], _random_matrix(rng, k, m)[0]) for n, k, m in shapes]
    dense = np.random.default_rng(31).integers(0, 2, size=(2, 600, 600), dtype=np.uint8)
    pairs.append((BitMatrix.from_dense(dense[0]), BitMatrix.from_dense(dense[1])))
    for x, y in pairs:
        prod = x.matmul(y)
        ref = (x.to_dense().astype(np.int64) @ y.to_dense().astype(np.int64)) % 2
        assert (prod.rows, prod.cols) == (x.rows, y.cols)
        assert (prod.to_dense() == ref).all()
    assert (a.transpose().to_dense() == a.to_dense().T).all()
    for rows, cols in [(3, 0), (0, 4), (0, 0)]:
        t = BitMatrix(rows, cols).transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert t.is_zero()


def test_stack_and_take():
    rng = random.Random(41)
    a, ra = _random_matrix(rng, 4, 20)
    b, rb = _random_matrix(rng, 3, 20)
    v = a.vstack(b)
    assert v.int_rows() == ra + rb
    assert [v.int_rows()[i] for i in (1, 5)] == [ra[1], rb[1]]


def test_in_row_space():
    m = BitMatrix.from_int_rows([0b0011, 0b0110], 4)
    assert not EchelonBasis(m.int_rows()).reduce(0b0101)
    assert EchelonBasis(m.int_rows()).reduce(0b1000)


def _xor_of(rows, combo):
    acc = 0
    for i, r in enumerate(rows):
        if (combo >> i) & 1:
            acc ^= r
    return acc


@st.composite
def _row_sets(draw):
    """Random, low-rank (product of thin factors) and structured
    (identity, repeated rows) inputs, plus query vectors."""
    cols = draw(st.integers(1, 80))
    n_rows = draw(st.integers(0, 24))
    kind = draw(st.sampled_from(["random", "low_rank", "identity", "repeated"]))
    word = st.integers(0, (1 << cols) - 1)
    if kind == "random":
        rows = draw(st.lists(word, min_size=n_rows, max_size=n_rows))
    elif kind == "low_rank":
        k = draw(st.integers(1, 4))
        factor = draw(st.lists(word, min_size=k, max_size=k))
        mix = draw(
            st.lists(st.integers(0, (1 << k) - 1), min_size=n_rows, max_size=n_rows)
        )
        rows = [_xor_of(factor, m) for m in mix]
    elif kind == "identity":
        rows = [1 << i for i in range(min(n_rows, cols))]
    else:
        base = draw(st.lists(word, min_size=1, max_size=3))
        rows = [base[i % len(base)] for i in range(n_rows)]
    queries = draw(st.lists(word, max_size=6))
    subsets = draw(st.lists(st.integers(0, (1 << n_rows) - 1), max_size=4))
    queries += [_xor_of(rows, m) for m in subsets]
    return cols, rows, queries


@settings(max_examples=300, deadline=None)
@given(_row_sets())
def test_echelon_basis_matches_rank_oracle(data):
    cols, rows, queries = data
    basis = EchelonBasis()
    rank = 0
    for i, r in enumerate(rows):
        grown = _rank_oracle(rows[: i + 1], cols)
        assert basis.insert(r) == (grown > rank)
        rank = grown
    assert len(basis) == rank
    bulk = EchelonBasis(rows)
    assert len(bulk) == len(basis)
    for v in rows + queries:
        member = _rank_oracle(rows + [v], cols) == rank
        assert (basis.reduce(v) == 0) == member
        assert (bulk.reduce(v) == 0) == member


def _ref_eliminate(m, reduced):
    """The numpy loop over columns that BitMatrix eliminated with before
    its int-row kernel, kept here as the reference, on its own array of
    one byte per entry.  It walks the columns from the highest down, so a
    row's pivot is its highest set bit, as in `EchelonBasis`."""
    work = m.to_dense().copy()
    pivots = []
    r = 0
    for c in reversed(range(m.cols)):
        if r >= m.rows:
            break
        nz = np.nonzero(work[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            work[[r, p]] = work[[p, r]]
        if reduced:
            colall = work[:, c].copy()
            colall[r] = 0
            hits = np.nonzero(colall)[0]
        else:
            hits = np.nonzero(work[r + 1 :, c])[0] + r + 1
        if hits.size:
            work[hits] ^= work[r]
        pivots.append(c)
        r += 1
    return work, pivots


def _ref_rref(m):
    """The reference's reduced rows and pivots, in increasing pivot order."""
    work, pivots = _ref_eliminate(m, reduced=True)
    return BitMatrix.from_dense(work[: len(pivots)][::-1]), pivots[::-1]


def _ref_kernel_basis(m):
    work, pivots = _ref_eliminate(m, reduced=True)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    rows = []
    for c in free:
        hits = np.nonzero(work[: len(pivots), c])[0]
        rows.append(1 << c | sum(1 << pivots[int(p)] for p in hits))
    return BitMatrix.from_int_rows(rows, m.cols)


def _ref_solve(m, rhs):
    """The solution with free variables 0, from the reduced [m | rhs] with
    m's columns above rhs's (`a << k | b`), so its pivots come first."""
    k = rhs.cols
    aug = BitMatrix.from_int_rows(
        [a << k | b for a, b in zip(m.int_rows(), rhs.int_rows())], m.cols + k
    )
    red, pivots = _ref_rref(aug)
    if any(p < k for p in pivots):
        return None
    x = [0] * m.cols
    for p_row, p_col in enumerate(pivots):
        x[p_col - k] = sum(((red.int_rows()[p_row] >> j) & 1) << j for j in range(k))
    return BitMatrix.from_int_rows(x, k)


@st.composite
def _elimination_inputs(draw):
    """Random, low-rank and very sparse (about 4 bits per row, like the
    vertex-link constraints) matrices of widths 1-300, often with 0 or 1
    rows, plus right-hand sides: random ones and ones with a solution."""
    cols = draw(st.sampled_from([1, 63, 64, 65, 128, 129, 300]) | st.integers(1, 300))
    n_rows = draw(st.sampled_from([0, 1]) | st.integers(0, 40))
    kind = draw(st.sampled_from(["random", "low_rank", "sparse"]))
    word = st.integers(0, (1 << cols) - 1)
    if kind == "random":
        rows = draw(st.lists(word, min_size=n_rows, max_size=n_rows))
    elif kind == "low_rank":
        k = draw(st.integers(1, 6))
        factor = draw(st.lists(word, min_size=k, max_size=k))
        mix = draw(
            st.lists(st.integers(0, (1 << k) - 1), min_size=n_rows, max_size=n_rows)
        )
        rows = [_xor_of(factor, m) for m in mix]
    else:
        col = st.integers(0, cols - 1)
        rows = [
            sum(1 << c for c in set(draw(st.lists(col, min_size=1, max_size=4))))
            for _ in range(n_rows)
        ]
    k = draw(st.integers(1, 70))
    if draw(st.booleans()):
        rhs = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n_rows, max_size=n_rows))
    else:
        x = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=cols, max_size=cols))
        rhs = [_xor_of(x, r) for r in rows]
    return cols, rows, k, rhs


@settings(max_examples=300, deadline=None)
@given(_elimination_inputs())
def test_elimination_matches_numpy_column_loop(data):
    cols, rows, k, rhs = data
    m = BitMatrix.from_int_rows(rows, cols)
    assert m.rank() == len(_ref_eliminate(m, reduced=False)[1])
    red, pivots = m.rref()
    ref_red, ref_pivots = _ref_rref(m)
    assert pivots == ref_pivots
    assert red == ref_red
    assert m.kernel_basis() == _ref_kernel_basis(m)
    b = BitMatrix.from_int_rows(rhs, k)
    assert m.solve(b) == _ref_solve(m, b)
    first = BitMatrix.from_int_rows([v & 1 for v in rhs], 1)
    assert m.solve(first) == _ref_solve(m, first)


@st.composite
def _local_code_rows(draw):
    """Random, low-rank and empty (no rows or zero rows) row sets of
    widths 1-70: local codes, their duals and stacked constraints."""
    cols = draw(st.integers(1, 70))
    n_rows = draw(st.integers(0, 20))
    kind = draw(st.sampled_from(["random", "low_rank", "empty"]))
    word = st.integers(0, (1 << cols) - 1)
    if kind == "random":
        rows = draw(st.lists(word, min_size=n_rows, max_size=n_rows))
    elif kind == "low_rank":
        k = draw(st.integers(1, 4))
        factor = draw(st.lists(word, min_size=k, max_size=k))
        mix = draw(
            st.lists(st.integers(0, (1 << k) - 1), min_size=n_rows, max_size=n_rows)
        )
        rows = [_xor_of(factor, m) for m in mix]
    else:
        rows = [0] * n_rows
    return cols, rows


@settings(max_examples=300, deadline=None)
@given(_local_code_rows())
def test_echelon_rref_and_kernel_match_bitmatrix(data):
    cols, rows = data
    m = BitMatrix.from_int_rows(rows, cols)
    assert EchelonBasis(rows).rref()[0] == m.rref()[0].int_rows()
    assert dual_rows(rows, cols) == m.kernel_basis().rref()[0].int_rows()


class _DictEchelon:
    """The elimination loop as it was before the pivot table: a dict from
    each row's bit_length() to the row.  `EchelonBasis` must agree with it
    exactly, residuals and reduced rows included, not just on membership."""

    def __init__(self, rows=()):
        self.rows = {}
        for v in rows:
            self.insert(v)

    def __len__(self):
        return len(self.rows)

    def reduce(self, v):
        while v:
            other = self.rows.get(v.bit_length())
            if other is None:
                break
            v ^= other
        return v

    def insert(self, v):
        v = self.reduce(v)
        if v:
            self.rows[v.bit_length()] = v
        return bool(v)

    def rref(self):
        rows = self.rows
        leads = sorted(rows)
        done = 0
        for lead in leads:
            v = rows[lead]
            hits = v & done
            while hits:
                h = hits.bit_length()
                v ^= rows[h]
                hits ^= 1 << (h - 1)
            rows[lead] = v
            done |= 1 << (lead - 1)
        return [rows[lead] for lead in leads], [lead - 1 for lead in leads]


def _assert_matches_dict_loop(steps, queries=()):
    """Run ("insert", v) and ("reduce", v) steps on both loops: equal
    results and lengths after every step, then equal rref rows and pivots,
    and equal residuals of `queries` against the reduced rows."""
    basis, ref = EchelonBasis(), _DictEchelon()
    assert basis.rref() == ref.rref() == ([], [])
    for op, v in steps:
        assert getattr(basis, op)(v) == getattr(ref, op)(v), (op, v)
        assert len(basis) == len(ref)
    assert basis.rref() == ref.rref()
    for v in queries:
        assert basis.reduce(v) == ref.reduce(v), v
    bulk = EchelonBasis(v for op, v in steps if op == "insert")
    assert len(bulk) == len(basis)
    assert bulk.rref() == basis.rref()


def _structured_echelon_scripts(rng):
    """(steps, queries) the random rows rarely give: leads that only rise
    (the table grows on every insert, once by thousands of slots), queries
    at and above the top pivot, zero rows, the empty basis, and inserts
    interleaved with reductions."""
    rising = [1 << i | rng.getrandbits(i) for i in range(0, 300, 7)] + [1 << 5000 | 1]
    top = max(rising).bit_length()
    above = [1 << top, 1 << top | rng.getrandbits(top), 1 << (top + 64), rising[-1] ^ 1]
    yield [("insert", v) for v in rising], above + [0, rising[-1], rising[3] ^ rising[9]]
    yield [("insert", v) for v in reversed(rising)], above
    yield [("insert", 0), ("reduce", 0), ("insert", 0)], [0, 1, 1 << 70]
    yield [], [0, 1, 5, 1 << 200]
    for cols in (9, 64, 130):
        steps = []
        for _ in range(3 * cols):
            v = rng.getrandbits(rng.randint(0, cols))
            if rng.random() < 0.3:
                v &= rng.getrandbits(cols)  # sparser rows, low leads
            steps.append((rng.choice(("insert", "reduce", "reduce")), v))
        yield steps, [rng.getrandbits(cols + 3) for _ in range(20)]


def test_echelon_basis_matches_dict_loop_on_structured_inputs():
    for steps, queries in _structured_echelon_scripts(random.Random(43)):
        _assert_matches_dict_loop(steps, queries)


@settings(max_examples=200, deadline=None)
@given(_row_sets(), st.randoms(use_true_random=False))
def test_echelon_basis_matches_dict_loop(data, rnd):
    cols, rows, queries = data
    steps = [("insert", v) for v in rows] + [("reduce", v) for v in queries]
    rnd.shuffle(steps)
    _assert_matches_dict_loop(steps, rows + queries + [1 << cols])


def test_echelon_basis_matches_dict_loop_on_the_q16_link_matrix(monkeypatch):
    """The rows of the one large rank in the q=16 vertex-link computation
    (1280 x 2816 for RM(1,4), rank 1143)."""
    from cosetcode import sheaf
    from cosetcode.algebra import VectorIso, build_ring
    from cosetcode.local_codes import reed_muller

    ranked = []
    rank = BitMatrix.rank
    monkeypatch.setattr(BitMatrix, "rank", lambda m: ranked.append(m) or rank(m))
    ring = build_ring(4, 1)
    assert sheaf.link_vertex_code_dimension(ring, reed_muller(1, 4), VectorIso(ring.field)) == 137
    (m,) = ranked
    rows = m.int_rows()
    assert (m.rows, m.cols, rank(m)) == (1280, 2816, 1143)
    queries = [a ^ b for a, b in zip(rows, rows[1:])] + [1 << m.cols, rows[-1] | 1 << m.cols]
    _assert_matches_dict_loop([("insert", v) for v in rows], queries)


def test_top_bit_walks_match_numpy_on_wide_sparse_rows():
    """matmul and _scatter on the shape of the q=4 commutation check,
    scaled down: a wide, sparse self (as h_z) times a narrow other (as
    h_x transposed), and scatters of the same rows."""
    rng = np.random.default_rng(37)
    n, width, narrow = 200, 6000, 45
    r = np.concatenate([rng.integers(0, n - 1, 1200), [0, 1]])
    c = np.concatenate([rng.integers(0, width, 1200), [width - 1, 0]])
    wide = BitMatrix.from_coords(n, width, r, c)  # the last row stays zero
    other = BitMatrix.from_dense(rng.integers(0, 2, (width, narrow)))
    ref = (wide.to_dense().astype(np.int64) @ other.to_dense().astype(np.int64)) % 2
    assert (wide.matmul(other).to_dense() == ref).all()
    targets = rng.permutation(width + 100)[:width]
    as_dict = dict(enumerate(targets.tolist()))
    for v, row in zip(wide.int_rows(), wide.to_dense()):
        want = sum(1 << t for t in targets[np.flatnonzero(row)].tolist())
        assert gf2._scatter(v, targets.tolist()) == gf2._scatter(v, as_dict) == want


def test_from_int_rows_names_the_first_bad_row():
    assert BitMatrix.from_int_rows([15, 0, 8], 4).int_rows() == [15, 0, 8]
    assert BitMatrix.from_int_rows([], 0).rows == 0
    assert BitMatrix.from_int_rows([0, 0], 0).rows == 2
    cases = [
        ([1, 15, -1, 1 << 4], 4, 2),  # negative
        ([3, 1 << 4, -1], 4, 1),  # too wide, before a negative one
        ([0, 7, 1 << 9], 9, 2),  # one bit too wide
        ([1], 0, 0),
    ]
    for rows, cols, bad in cases:
        with pytest.raises(GF2Error, match="^row %d out of range for %d cols$" % (bad, cols)):
            BitMatrix.from_int_rows(rows, cols)


def test_row_space_equal_detects_difference():
    a = BitMatrix.from_int_rows([0b01, 0b10], 2)
    b = BitMatrix.from_int_rows([0b11, 0b01], 2)
    c = BitMatrix.from_int_rows([0b01], 2)
    assert row_space_equal(a, b)
    assert not row_space_equal(a, c)


def test_length_mismatch_raises():
    m = BitMatrix.from_int_rows([0b1], 1)
    assert m.solve(BitMatrix.from_int_rows([0b1], 1)) == m
    for rows in (0, 2):
        with pytest.raises(GF2Error, match="row mismatch"):
            m.solve(BitMatrix(rows, 1))


# -- the writers, read back by parsers that take only what the writers emit.
# The parsers refuse anything else, so a writer's off-by-one index, short
# file or inconsistent alist section cannot pass a round trip.


def _ints(line, n):
    """The n non-negative integers of one line."""
    vals = line.split()
    if len(vals) != n or not all(v.isdecimal() for v in vals):
        raise ValueError("malformed line: %r" % line)
    return [int(v) for v in vals]


def read_matrix_market(path):
    """The header, the size line, and one 1-based entry per line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[:1] != ["%%MatrixMarket matrix coordinate pattern general"] or len(lines) < 2:
        raise ValueError("not a coordinate pattern file")
    rows, cols, nnz = _ints(lines[1], 3)
    if len(lines) != 2 + nnz:
        raise ValueError("%d entry lines for %d entries" % (len(lines) - 2, nnz))
    out = [0] * rows
    for line in lines[2:]:
        i, j = _ints(line, 2)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ValueError("entry (%d, %d) outside a %dx%d matrix" % (i, j, rows, cols))
        out[i - 1] |= 1 << (j - 1)
    return BitMatrix.from_int_rows(out, cols)


def _alist_section(lines, degrees, bound, limit):
    """Per line, its first `degree` indices (1..limit), the rest zeros."""
    for line, d in zip(lines, degrees):
        entries = _ints(line, bound)
        if d > bound or any(entries[d:]) or not all(1 <= i <= limit for i in entries[:d]):
            raise ValueError("bad alist entry line: %r" % line)
        yield [i - 1 for i in entries[:d]]


def read_alist(path):
    """Columns first; the row section must list the column section's
    entries."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 4:
        raise ValueError("truncated alist file")
    cols, rows = _ints(lines[0], 2)
    max_c, max_r = _ints(lines[1], 2)
    col_deg, row_deg = _ints(lines[2], cols), _ints(lines[3], rows)
    if len(lines) != 4 + cols + rows:
        raise ValueError("%d lines for %d columns and %d rows" % (len(lines), cols, rows))
    by_col, by_row = [0] * rows, [0] * rows
    for j, col in enumerate(_alist_section(lines[4 : 4 + cols], col_deg, max_c, rows)):
        for i in col:
            by_col[i] |= 1 << j
    for i, row in enumerate(_alist_section(lines[4 + cols :], row_deg, max_r, cols)):
        by_row[i] = sum(1 << j for j in row)
    if by_row != by_col:
        raise ValueError("the row section disagrees with the column section")
    return BitMatrix.from_int_rows(by_col, cols)


def test_matrix_market_roundtrip(tmp_path):
    rng = random.Random(13)
    m, _ = _random_matrix(rng, 6, 70)
    path = str(tmp_path / "m.mtx")
    write_matrix_market(m, path)
    back = read_matrix_market(path)
    assert back.int_rows() == m.int_rows()


def test_alist_roundtrip(tmp_path):
    rng = random.Random(17)
    m, _ = _random_matrix(rng, 8, 25)
    path = str(tmp_path / "m.alist")
    write_alist(m, path)
    back = read_alist(path)
    assert back.int_rows() == m.int_rows()


@pytest.mark.parametrize("entry", ["0 2", "4 2", "2 0", "2 5"])
def test_matrix_market_rejects_index_outside_shape(tmp_path, entry):
    # 1-based indices of a 3x4 matrix: 0 and 4 (or 5) are outside it
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n3 4 2\n3 4\n" + entry + "\n"
    )
    with pytest.raises(ValueError):
        read_matrix_market(str(path))


@pytest.mark.parametrize("row", [4, -1])
def test_alist_rejects_row_index_outside_shape(tmp_path, row):
    # 3x4 with column j holding row j and column 4 holding `row`
    path = tmp_path / "m.alist"
    path.write_text("4 3\n1 2\n1 1 1 1\n1 1 1\n1\n2\n3\n%d\n1 0\n2 0\n3 0\n" % row)
    with pytest.raises(ValueError):
        read_alist(str(path))


def test_matrix_market_rejects_negative_size(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n-1 4 0\n")
    with pytest.raises(ValueError):
        read_matrix_market(str(path))


def test_matrix_market_rejects_missing_entries(tmp_path):
    # fewer entry lines than nnz
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n3 4 2\n3 4\n")
    with pytest.raises(ValueError):
        read_matrix_market(str(path))


@pytest.mark.parametrize(
    "text",
    [
        # column degrees 2 1 under the bound 1
        "2 2\n1 1\n2 1\n1 1\n1\n2\n1\n1\n",
        # columns give the identity, rows the anti-identity
        "2 2\n1 1\n1 1\n1 1\n1\n2\n2\n1\n",
    ],
)
def test_alist_rejects_inconsistent_sections(tmp_path, text):
    path = tmp_path / "m.alist"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_alist(str(path))


def test_alist_rejects_negative_size(tmp_path):
    # 3 columns and -1 rows, no entries
    path = tmp_path / "m.alist"
    path.write_text("3 -1\n0 0\n0 0 0\n\n")
    with pytest.raises(ValueError):
        read_alist(str(path))


def test_alist_rejects_truncated_file(tmp_path):
    # the 3x4 matrix cut after its first two column lines
    path = tmp_path / "m.alist"
    path.write_text("4 3\n1 2\n1 1 1 1\n1 1 1\n1\n2\n")
    with pytest.raises(ValueError):
        read_alist(str(path))


def test_alist_rejects_non_integer_token(tmp_path):
    path = tmp_path / "m.alist"
    path.write_text("4 3\n1 2\n1 1 1 1\n1 1 1\n1\n2\nx\n3\n1 0\n2 0\n3 0\n")
    with pytest.raises(ValueError):
        read_alist(str(path))
