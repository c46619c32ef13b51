"""Exact linear algebra over GF(2) on bit-packed matrices.

BitVector wraps a Python int bitset; BitMatrix stores rows packed into
numpy uint64 words.  Bit i of a vector is the coefficient of coordinate
i; within a word, bit b of word w is coordinate 64*w + b.

All elimination runs through one loop, `EchelonBasis`: a forward-only
dict from each Python-int row's `bit_length()` (its pivot) to the row.
One XOR of two such ints updates a whole row at C speed.  Rank, rref,
kernel_basis and solve read rows with their columns reversed, column c
at bit 64*nwords - 1 - c, so a row's pivot is its lowest column, and
back-substitute (`EchelonBasis.rref`) only for a reduced form;
`rref_rows` and `dual_rows` serve int rows.  Certificates
ride as tag bits: `CertifiedBasis` eliminates [rows | I], so one
reduction gives both the residual and the rows that rebuild the query.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

_WORD = 64


class GF2Error(ValueError):
    """Raised on dimension mismatches or malformed input."""


def _nwords(cols: int) -> int:
    return max(1, (cols + _WORD - 1) // _WORD)


def _int_to_words(value: int, cols: int) -> np.ndarray:
    nw = _nwords(cols)
    buf = value.to_bytes(nw * 8, "little")
    return np.frombuffer(buf, dtype=np.uint64).copy()


def _words_to_int(words: np.ndarray) -> int:
    return int.from_bytes(words.tobytes(), "little")


# every byte with its bits reversed: a row's bytes read through this table
# as one big-endian int put column c at bit 64*nwords - 1 - c
_REV8 = bytes(int("{:08b}".format(b)[::-1], 2) for b in range(256))


def _rev_rows(data: np.ndarray) -> Iterator[int]:
    """The rows of packed words as column-reversed ints, one at a time
    (no reversed copy of the whole matrix is made)."""
    for row in data:
        yield int.from_bytes(row.tobytes().translate(_REV8), "big")


def _rev_data(rows: Sequence[int], nwords: int) -> np.ndarray:
    """Column-reversed ints packed back into a (len(rows), nwords) array."""
    data = np.empty((len(rows), nwords), dtype=np.uint64)
    flat = memoryview(data.reshape(-1).view(np.uint8))
    nb = 8 * nwords
    for i, v in enumerate(rows):
        flat[i * nb : (i + 1) * nb] = v.to_bytes(nb, "big").translate(_REV8)
    return data


class BitVector:
    """A length-annotated bitset over GF(2)."""

    __slots__ = ("length", "value")

    def __init__(self, length: int, value: int = 0):
        if value < 0 or value >> length:
            raise GF2Error("bit value out of range for length %d" % length)
        self.length = length
        self.value = value

    def bit(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise GF2Error("bit index out of range")
        return (self.value >> i) & 1

    def with_bit(self, i: int, b: int) -> "BitVector":
        if b & 1:
            return BitVector(self.length, self.value | (1 << i))
        return BitVector(self.length, self.value & ~(1 << i))

    def weight(self) -> int:
        return self.value.bit_count()

    def support(self) -> List[int]:
        v, out, base = self.value, [], 0
        while v:
            low = v & 0xFFFFFFFFFFFFFFFF
            while low:
                b = low & -low
                out.append(base + b.bit_length() - 1)
                low ^= b
            v >>= 64
            base += 64
        return sorted(out)

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise GF2Error("length mismatch in xor")
        return BitVector(self.length, self.value ^ other.value)

    def __and__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise GF2Error("length mismatch in and")
        return BitVector(self.length, self.value & other.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitVector)
            and self.length == other.length
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.length, self.value))

    def __repr__(self) -> str:
        return "BitVector(%d, 0b%s)" % (
            self.length,
            format(self.value, "0%db" % self.length)[::-1] if self.length else "0",
        )


class EchelonBasis:
    """The one elimination loop: an echelon basis of Python-int rows,
    grown one row at a time and keyed by each row's `bit_length()`, so a
    row's pivot is its highest set bit and no two rows share one.

    Inserting and reducing only eliminate forward; `rref` back-substitutes
    when a caller asks for the reduced form.  Read a row with its columns
    reversed (`_reversed`) and its pivot is its lowest column.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[int] = ()):
        self._rows: Dict[int, int] = {}  # bit_length -> row
        for v in rows:
            self.insert(v)

    def __len__(self) -> int:
        """The rank of the inserted rows."""
        return len(self._rows)

    def reduce(self, v: int) -> int:
        """v less basis rows until its highest bit is no pivot: 0 iff v is
        in the span."""
        rows = self._rows
        while v:
            other = rows.get(v.bit_length())
            if other is None:
                break
            v ^= other
        return v

    def insert(self, v: int) -> bool:
        """Add v; True iff it was independent of the rows already in."""
        v = self.reduce(v)
        if v:
            self._rows[v.bit_length()] = v
        return bool(v)

    def rref(self, nbits: int) -> Tuple[List[int], List[int]]:
        """Back-substitution: the reduced row echelon form of the rows read
        as column-reversed rows of `nbits` bits, as the reduced rows in
        increasing pivot column and those columns.  The basis rows are
        reduced in place (their span and pivots stay)."""
        rows = self._rows
        leads = sorted(rows)  # highest column first
        done = 0  # the lead bits of the rows already fully reduced
        for lead in leads:
            v = rows[lead]
            # a reduced row has no other reduced row's lead bit, so clearing
            # one hit never sets another
            hits = v & done
            while hits:
                h = hits.bit_length()
                v ^= rows[h]
                hits ^= 1 << (h - 1)
            rows[lead] = v
            done |= 1 << (lead - 1)
        leads.reverse()
        return [rows[lead] for lead in leads], [nbits - lead for lead in leads]


class CertifiedBasis:
    """Rows factored so that a reduction names the rows it combined.

    Row i of k enters one `EchelonBasis` as (row << k) | (1 << i), the
    augmentation [rows | I]: every basis row's low k tag bits name the
    rows it sums.  A row dependent on earlier ones leaves a tag-only row
    keyed at its own index; every other basis row names independent rows
    only, so a reduction's combination never has such a key as its
    highest bit, and a certificate never names a dependent row.
    """

    __slots__ = ("_basis", "_k")

    def __init__(self, rows: Sequence[int]):
        k = self._k = len(rows)
        self._basis = EchelonBasis((r << k) | (1 << i) for i, r in enumerate(rows))

    def reduce(self, v: int) -> Tuple[int, int]:
        """(residual, combination): the rows named by `combination` XOR to
        `v ^ residual`; v is in the span iff the residual is 0."""
        t = self._basis.reduce(v << self._k)
        return t >> self._k, t & ((1 << self._k) - 1)


def _kernel(rows: Sequence[int], pivots: Sequence[int], nbits: int, width: int) -> List[int]:
    """The kernel over `width` columns of a reduced row echelon form as
    `EchelonBasis.rref` gives it, column-reversed: for each free column c
    in increasing order, column c plus each pivot column whose row has c."""
    pivot_set = set(pivots)
    out = {c: 1 << (nbits - 1 - c) for c in range(width) if c not in pivot_set}
    for v, p in zip(rows, pivots):
        bit = 1 << (nbits - 1 - p)
        v ^= bit
        while v:
            lead = v.bit_length()
            out[nbits - lead] |= bit
            v ^= 1 << (lead - 1)
    return list(out.values())


def _reversed(rows: Iterable[int], nbytes: int) -> List[int]:
    """Each row with its 8*nbytes bits in reverse order: column c moves to
    bit 8*nbytes - 1 - c, and back (the map is its own inverse)."""
    return [int.from_bytes(v.to_bytes(nbytes, "little").translate(_REV8), "big") for v in rows]


def rref_rows(rows: Iterable[int], width: int) -> List[int]:
    """The reduced row echelon form of int rows of `width` bits (bit c is
    column c), as `BitMatrix.rref` gives it."""
    nb = (width + 7) // 8
    red, _ = EchelonBasis(_reversed(rows, nb)).rref(8 * nb)
    return _reversed(red, nb)


def dual_rows(rows: Iterable[int], width: int) -> List[int]:
    """The dual of the span of int rows of `width` bits, in reduced row
    echelon form, as `BitMatrix.kernel_basis().row_space_basis()` gives it.

    Read as they are, the rows are the column-reversed rows of their
    mirror image, so `_kernel` builds the kernel from the reduced form
    whose pivots are the highest columns.  Each kernel row then has its
    free column as its lowest bit, which no other kernel row has: in
    reverse order they are the dual's (unique) reduced row echelon form,
    with no bit reversal needed."""
    red, pivots = EchelonBasis(rows).rref(width)
    return _kernel(red, pivots, width, width)[::-1]


class BitMatrix:
    """A rows x cols matrix over GF(2), rows packed into uint64 words.

    Immutable by convention: methods return new matrices.  `data` has
    shape (rows, nwords) and trailing bits past `cols` are kept zero.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[np.ndarray] = None):
        self.rows = rows
        self.cols = cols
        nw = _nwords(cols)
        if data is None:
            data = np.zeros((rows, nw), dtype=np.uint64)
        else:
            data = np.ascontiguousarray(data, dtype=np.uint64)
            if data.shape != (rows, nw):
                raise GF2Error("data shape %r does not match %dx%d" % (data.shape, rows, cols))
        self.data = data

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i, i >> 6] = np.uint64(1) << np.uint64(i & 63)
        return m

    @classmethod
    def from_int_rows(cls, int_rows: Sequence[int], cols: int) -> "BitMatrix":
        m = cls(len(int_rows), cols)
        flat = memoryview(m.data.reshape(-1).view(np.uint8))
        nb = 8 * m.data.shape[1]
        for i, v in enumerate(int_rows):
            if v < 0 or (cols < v.bit_length()):
                raise GF2Error("row %d out of range for %d cols" % (i, cols))
            flat[i * nb : (i + 1) * nb] = v.to_bytes(nb, "little")
        return m

    @classmethod
    def from_coords(cls, rows: int, cols: int, r, c) -> "BitMatrix":
        """The rows x cols matrix with a one at every (r[k], c[k]) (repeats
        allowed), set by one scatter."""
        r = np.asarray(r, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        if r.size and not (0 <= r.min() and r.max() < rows and 0 <= c.min() and c.max() < cols):
            raise GF2Error("entry outside a %dx%d matrix" % (rows, cols))
        m = cls(rows, cols)
        words = r * m.data.shape[1] + (c >> 6)
        np.bitwise_or.at(m.data.reshape(-1), words, np.uint64(1) << (c & 63).astype(np.uint64))
        return m

    @classmethod
    def from_dense(cls, array) -> "BitMatrix":
        a = np.asarray(array, dtype=np.uint8) & 1
        if a.ndim != 2:
            raise GF2Error("dense input must be 2-D")
        rows, cols = a.shape
        pad = _nwords(cols) * _WORD - cols
        if pad:
            a = np.concatenate([a, np.zeros((rows, pad), dtype=np.uint8)], axis=1)
        packed = np.ascontiguousarray(np.packbits(a, axis=1, bitorder="little"))
        return cls(rows, cols, packed.view(np.uint64).reshape(rows, _nwords(cols)).copy())

    # -- accessors ------------------------------------------------------

    def row_int(self, i: int) -> int:
        return _words_to_int(self.data[i])

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.row_int(i))

    def int_rows(self) -> List[int]:
        nb = 8 * self.data.shape[1]
        buf = self.data.tobytes()
        return [int.from_bytes(buf[i : i + nb], "little") for i in range(0, len(buf), nb)]

    def get(self, i: int, j: int) -> int:
        return int((self.data[i, j >> 6] >> np.uint64(j & 63)) & np.uint64(1))

    def to_dense(self) -> np.ndarray:
        bits = np.unpackbits(
            self.data.view(np.uint8), axis=1, bitorder="little"
        )
        return bits[:, : self.cols]

    def row_weights(self) -> np.ndarray:
        return np.bitwise_count(self.data).sum(axis=1).astype(np.int64)

    def is_zero(self) -> bool:
        return not self.data.any()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):  # pragma: no cover - matrices are not dict keys
        return hash((self.rows, self.cols, self.data.tobytes()))

    def __repr__(self) -> str:
        return "BitMatrix(%dx%d)" % (self.rows, self.cols)

    # -- structure ------------------------------------------------------

    def vstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols:
            raise GF2Error("vstack column mismatch")
        return BitMatrix(
            self.rows + other.rows,
            self.cols,
            np.vstack([self.data, other.data]),
        )

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_dense(self.to_dense().T)

    def matmul(self, other: "BitMatrix") -> "BitMatrix":
        """Product self @ other over GF(2): each row XORs the int rows of
        `other` that its set bits name."""
        if self.cols != other.rows:
            raise GF2Error("matmul shape mismatch")
        rows = other.int_rows()
        out = []
        for v in self.int_rows():
            acc = 0
            while v:
                b = v & -v
                acc ^= rows[b.bit_length() - 1]
                v ^= b
            out.append(acc)
        return BitMatrix.from_int_rows(out, other.cols)

    def matvec(self, x: BitVector) -> BitVector:
        """Product self @ x over GF(2) (x indexed by columns)."""
        if x.length != self.cols:
            raise GF2Error("matvec length mismatch")
        xw = _int_to_words(x.value, self.cols)
        prods = np.bitwise_count(self.data & xw[None, :]).sum(axis=1)
        out = 0
        for i in np.nonzero(prods & 1)[0]:
            out |= 1 << int(i)
        return BitVector(self.rows, out)

    # -- elimination ----------------------------------------------------

    def rank(self) -> int:
        return len(EchelonBasis(_rev_rows(self.data)))

    def rref(self) -> Tuple["BitMatrix", List[int]]:
        """Reduced row echelon form and pivot columns; zero rows dropped."""
        nw = self.data.shape[1]
        rows, pivots = EchelonBasis(_rev_rows(self.data)).rref(_WORD * nw)
        return BitMatrix(len(rows), self.cols, _rev_data(rows, nw)), pivots

    def row_space_basis(self) -> "BitMatrix":
        m, _ = self.rref()
        return m

    def kernel_basis(self) -> "BitMatrix":
        """Rows form a basis of {x : self @ x = 0} (x of length cols)."""
        nw = self.data.shape[1]
        nbits = _WORD * nw
        rows, pivots = EchelonBasis(_rev_rows(self.data)).rref(nbits)
        ker = _kernel(rows, pivots, nbits, self.cols)
        return BitMatrix(len(ker), self.cols, _rev_data(ker, nw))

    def _solve(self, rhs_rows: Iterable[int], k: int) -> Optional[List[Tuple[int, int]]]:
        """Solve self @ X = rhs by reducing [self | rhs], for rhs rows
        given column-reversed over k bits.  Returns the solution whose
        free variables are 0 as (row of X, its column-reversed bits)
        pairs, rows not listed being 0; None if it is inconsistent."""
        shift = _WORD * self.data.shape[1] - self.cols
        aug = ((a >> shift) << k | b for a, b in zip(_rev_rows(self.data), rhs_rows))
        rows, pivots = EchelonBasis(aug).rref(self.cols + k)
        if pivots and pivots[-1] >= self.cols:
            return None
        low = (1 << k) - 1
        return [(p, v & low) for v, p in zip(rows, pivots)]

    def solve(self, rhs: "BitMatrix") -> Optional["BitMatrix"]:
        """Solve self @ X = rhs for X (rhs given column-wise as a matrix).

        rhs has shape (self.rows, k); returns X of shape (self.cols, k)
        or None if any column is inconsistent.
        """
        if rhs.rows != self.rows:
            raise GF2Error("solve rhs row mismatch")
        nw = rhs.data.shape[1]
        shift = _WORD * nw - rhs.cols
        sol = self._solve((b >> shift for b in _rev_rows(rhs.data)), rhs.cols)
        if sol is None:
            return None
        x = [0] * self.cols
        for p, v in sol:
            x[p] = v << shift
        return BitMatrix(self.cols, rhs.cols, _rev_data(x, nw))

    def solve_vec(self, b: BitVector) -> Optional[BitVector]:
        """Solve self @ x = b; returns some solution or None."""
        if b.length != self.rows:
            raise GF2Error("solve_vec length mismatch")
        sol = self._solve(((b.value >> i) & 1 for i in range(self.rows)), 1)
        if sol is None:
            return None
        return BitVector(self.cols, sum(1 << p for p, v in sol if v))

    def in_row_space(self, v: BitVector) -> bool:
        if v.length != self.cols:
            raise GF2Error("in_row_space length mismatch")
        return not EchelonBasis(self.int_rows()).reduce(v.value)


def row_space_equal(a: BitMatrix, b: BitMatrix) -> bool:
    """True iff two matrices span the same row space."""
    if a.cols != b.cols:
        return False
    ra, rb = a.rank(), b.rank()
    return ra == rb == a.vstack(b).rank()


# -- I/O ------------------------------------------------------------------


def _ints(line: str, n: int, what: str) -> List[int]:
    """The n non-negative integers of a header or entry line."""
    vals = line.split()
    if len(vals) != n or not all(v.isdecimal() for v in vals):
        raise GF2Error("malformed %s line: %r" % (what, line.strip()))
    return [int(v) for v in vals]


def write_matrix_market(m: BitMatrix, path: str) -> None:
    """Write in Matrix Market coordinate pattern format (1-based)."""
    dense = m.to_dense()
    rr, cc = np.nonzero(dense)
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern general\n")
        fh.write("%d %d %d\n" % (m.rows, m.cols, len(rr)))
        for i, j in zip(rr, cc):
            fh.write("%d %d\n" % (i + 1, j + 1))


def read_matrix_market(path: str) -> BitMatrix:
    with open(path) as fh:
        header = fh.readline()
        if "coordinate" not in header or "pattern" not in header:
            raise GF2Error("unsupported Matrix Market header: %s" % header.strip())
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        rows, cols, nnz = _ints(line, 3, "size")
        int_rows = [0] * rows
        for _ in range(nnz):
            i, j = _ints(fh.readline(), 2, "entry")
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise GF2Error("entry (%d, %d) outside a %dx%d matrix" % (i, j, rows, cols))
            int_rows[i - 1] |= 1 << (j - 1)
        return BitMatrix.from_int_rows(int_rows, cols)


def write_alist(m: BitMatrix, path: str) -> None:
    """Write in MacKay alist format (columns first, 1-based indices)."""
    dense = m.to_dense()
    cols_support = [list(np.nonzero(dense[:, j])[0] + 1) for j in range(m.cols)]
    rows_support = [list(np.nonzero(dense[i, :])[0] + 1) for i in range(m.rows)]
    max_c = max((len(s) for s in cols_support), default=0)
    max_r = max((len(s) for s in rows_support), default=0)
    with open(path, "w") as fh:
        fh.write("%d %d\n" % (m.cols, m.rows))
        fh.write("%d %d\n" % (max_c, max_r))
        fh.write(" ".join(str(len(s)) for s in cols_support) + "\n")
        fh.write(" ".join(str(len(s)) for s in rows_support) + "\n")
        for s in cols_support:
            fh.write(" ".join(str(x) for x in s + [0] * (max_c - len(s))) + "\n")
        for s in rows_support:
            fh.write(" ".join(str(x) for x in s + [0] * (max_r - len(s))) + "\n")


def _alist_entries(fh, degrees: List[int], bound: int, limit: int, what: str):
    """(line, 0-based index) for every entry of one alist section."""
    for j, d in enumerate(degrees):
        if d > bound:
            raise GF2Error("%s %d has degree %d above the bound %d" % (what, j + 1, d, bound))
        for i in _ints(fh.readline(), bound, what + " entry")[:d]:
            if not 1 <= i <= limit:
                raise GF2Error("index %d of %s %d outside 1..%d" % (i, what, j + 1, limit))
            yield j, i - 1


def read_alist(path: str) -> BitMatrix:
    """Read MacKay alist; the row section must list the entries of the
    column section."""
    with open(path) as fh:
        cols, rows = _ints(fh.readline(), 2, "size")
        max_c, max_r = _ints(fh.readline(), 2, "degree bound")
        col_deg = _ints(fh.readline(), cols, "column degree")
        row_deg = _ints(fh.readline(), rows, "row degree")
        by_col = [0] * rows
        for j, i in _alist_entries(fh, col_deg, max_c, rows, "column"):
            by_col[i] |= 1 << j
        by_row = [0] * rows
        for i, j in _alist_entries(fh, row_deg, max_r, cols, "row"):
            by_row[i] |= 1 << j
    if by_row != by_col:
        raise GF2Error("row section of %s disagrees with its column section" % path)
    return BitMatrix.from_int_rows(by_col, cols)


__all__ = [
    "GF2Error",
    "BitVector",
    "BitMatrix",
    "EchelonBasis",
    "CertifiedBasis",
    "rref_rows",
    "dual_rows",
    "row_space_equal",
    "write_matrix_market",
    "read_matrix_market",
    "write_alist",
    "read_alist",
]
