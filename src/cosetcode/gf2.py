"""Exact linear algebra over GF(2) on bit-packed matrices.

BitVector wraps a Python int bitset; BitMatrix stores rows packed into
numpy uint64 words.  Bit i of a vector is the coefficient of coordinate
i; within a word, bit b of word w is coordinate 64*w + b.

Elimination (rank, rref, kernel_basis, solve) runs on Python-int rows
read with their columns reversed, column c at bit 64*nwords - 1 - c, so
that a row's pivot, its lowest column, is its `bit_length()`.  One XOR
of two such ints updates a whole row at C speed.
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


def _echelon(rows: Iterable[int]) -> Dict[int, int]:
    """The elimination loop: an echelon basis of column-reversed rows,
    keyed by each basis row's bit_length (so by its pivot column)."""
    basis: Dict[int, int] = {}
    for v in rows:
        while v:
            lead = v.bit_length()
            other = basis.get(lead)
            if other is None:
                basis[lead] = v
                break
            v ^= other
    return basis


def _rref(rows: Iterable[int], nbits: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form of column-reversed rows of `nbits` bits:
    the nonzero reduced rows in increasing pivot column, and those
    columns."""
    basis = _echelon(rows)
    leads = sorted(basis)  # highest column first
    done = 0  # the lead bits of the rows already fully reduced
    for lead in leads:
        v = basis[lead]
        # a reduced row has no other reduced row's lead bit, so clearing
        # one hit never sets another
        hits = v & done
        while hits:
            h = hits.bit_length()
            v ^= basis[h]
            hits ^= 1 << (h - 1)
        basis[lead] = v
        done |= 1 << (lead - 1)
    leads.reverse()
    return [basis[lead] for lead in leads], [nbits - lead for lead in leads]


def _columns(v: int, nbits: int) -> Iterator[int]:
    """The columns set in a column-reversed row of `nbits` bits."""
    s = format(v, "0%db" % nbits)  # character c is column c
    c = s.find("1")
    while c >= 0:
        yield c
        c = s.find("1", c + 1)


class BitVector:
    """A length-annotated bitset over GF(2)."""

    __slots__ = ("length", "value")

    def __init__(self, length: int, value: int = 0):
        if value < 0 or value >> length:
            raise GF2Error("bit value out of range for length %d" % length)
        self.length = length
        self.value = value

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitVector":
        value = 0
        for i, b in enumerate(bits):
            if b & 1:
                value |= 1 << i
        return cls(len(bits), value)

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

    def bits(self) -> List[int]:
        return [(self.value >> i) & 1 for i in range(self.length)]

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
    """An incrementally grown row basis over Python-int rows.

    Every stored row is fully reduced: its pivot is its lowest set bit,
    and no other stored row has that bit.  Each stored row carries a
    bitmask over insertion indices (one index per `insert` call, whether
    or not the row was independent) naming the inserted rows it sums, so
    `reduce` certifies membership with an explicit combination.
    """

    __slots__ = ("_rows", "_combos", "_pivots", "_inserted")

    def __init__(self, rows: Iterable[int] = ()):
        self._rows: Dict[int, int] = {}  # pivot bit -> reduced row
        self._combos: Dict[int, int] = {}  # pivot bit -> its certificate
        self._pivots = 0  # OR of all pivot bits
        self._inserted = 0
        for v in rows:
            self.insert(v)

    def __len__(self) -> int:
        """The rank of the inserted rows."""
        return len(self._rows)

    def reduce(self, v: int) -> Tuple[int, int]:
        """(residual, combination): the inserted rows named by
        `combination` XOR to `v ^ residual`; v is in the span iff the
        residual is 0."""
        combo = 0
        # full reduction: clearing one pivot bit never sets another, so
        # the pivots to apply are exactly those set in v
        hits = v & self._pivots
        while hits:
            low = hits & -hits
            v ^= self._rows[low]
            combo ^= self._combos[low]
            hits ^= low
        return v, combo

    def insert(self, v: int) -> bool:
        """Add v under the next insertion index; True iff it was
        independent of the rows already inserted."""
        index = self._inserted
        self._inserted += 1
        v, combo = self.reduce(v)
        if not v:
            return False
        combo |= 1 << index
        low = v & -v
        rows, combos = self._rows, self._combos
        for pivot, row in rows.items():  # values change, keys do not
            if row & low:
                rows[pivot] = row ^ v
                combos[pivot] ^= combo
        rows[low] = v
        combos[low] = combo
        self._pivots |= low
        return True

    def rref(self) -> List[int]:
        """The stored rows by increasing pivot: the reduced row echelon
        form of the inserted rows, as `BitMatrix.rref` gives it."""
        return [self._rows[p] for p in sorted(self._rows)]

    def kernel(self, width: int) -> List[int]:
        """The kernel of the inserted rows over `width` columns, as
        `BitMatrix.kernel_basis` gives it: for each free column c in
        increasing order, bit c plus every pivot whose row has bit c."""
        return [
            (1 << c) | sum(p for p, row in self._rows.items() if (row >> c) & 1)
            for c in range(width)
            if not (self._pivots >> c) & 1
        ]


def weight_and_star(vs: Sequence[BitVector]) -> int:
    """Hamming weight of the element-wise AND (star product) of vectors."""
    if not vs:
        raise GF2Error("empty star product")
    length = vs[0].length
    acc = (1 << length) - 1 if length else 0
    for v in vs:
        if v.length != length:
            raise GF2Error("length mismatch in star product")
        acc &= v.value
    return acc.bit_count()


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
    def from_rows(cls, rows: Sequence[BitVector]) -> "BitMatrix":
        if not rows:
            raise GF2Error("from_rows needs at least one row (use zeros)")
        cols = rows[0].length
        return cls.from_int_rows([r.value for r in rows], cols)

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
        return [self.row_int(i) for i in range(self.rows)]

    def get(self, i: int, j: int) -> int:
        return int((self.data[i, j >> 6] >> np.uint64(j & 63)) & np.uint64(1))

    def to_dense(self) -> np.ndarray:
        bits = np.unpackbits(
            self.data.view(np.uint8), axis=1, bitorder="little"
        )
        return bits[:, : self.cols]

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.rows, self.cols, self.data.copy())

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

    def take_rows(self, idx: Sequence[int]) -> "BitMatrix":
        idx = list(idx)
        return BitMatrix(len(idx), self.cols, self.data[idx] if idx else None)

    def take_cols(self, idx: Sequence[int]) -> "BitMatrix":
        idx = list(idx)
        out = BitMatrix(self.rows, len(idx))
        for new_j, j in enumerate(idx):
            colbits = (self.data[:, j >> 6] >> np.uint64(j & 63)) & np.uint64(1)
            out.data[:, new_j >> 6] |= colbits << np.uint64(new_j & 63)
        return out

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_dense(self.to_dense().T)

    def matmul(self, other: "BitMatrix") -> "BitMatrix":
        """Product self @ other over GF(2)."""
        if self.cols != other.rows:
            raise GF2Error("matmul shape mismatch")
        out = BitMatrix(self.rows, other.cols)
        for i in range(self.rows):
            acc = None
            v = self.row_int(i)
            while v:
                b = v & -v
                k = b.bit_length() - 1
                v ^= b
                acc = other.data[k] if acc is None else acc ^ other.data[k]
            if acc is not None:
                out.data[i] = acc
        return out

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
        return len(_echelon(_rev_rows(self.data)))

    def rref(self) -> Tuple["BitMatrix", List[int]]:
        """Reduced row echelon form and pivot columns; zero rows dropped."""
        nw = self.data.shape[1]
        rows, pivots = _rref(_rev_rows(self.data), _WORD * nw)
        return BitMatrix(len(rows), self.cols, _rev_data(rows, nw)), pivots

    def row_space_basis(self) -> "BitMatrix":
        m, _ = self.rref()
        return m

    def kernel_basis(self) -> "BitMatrix":
        """Rows form a basis of {x : self @ x = 0} (x of length cols)."""
        nw = self.data.shape[1]
        nbits = _WORD * nw
        rows, pivots = _rref(_rev_rows(self.data), nbits)
        pivot_set = set(pivots)
        # one basis vector per free column c: x[c] = 1, and x[p] = red[p, c]
        # at each pivot column p
        out = {c: 1 << (nbits - 1 - c) for c in range(self.cols) if c not in pivot_set}
        for v, p in zip(rows, pivots):
            bit = 1 << (nbits - 1 - p)
            for c in _columns(v ^ bit, nbits):
                out[c] |= bit
        return BitMatrix(len(out), self.cols, _rev_data(list(out.values()), nw))

    def _solve(self, rhs_rows: Iterable[int], k: int) -> Optional[List[Tuple[int, int]]]:
        """Solve self @ X = rhs by reducing [self | rhs], for rhs rows
        given column-reversed over k bits.  Returns the solution whose
        free variables are 0 as (row of X, its column-reversed bits)
        pairs, rows not listed being 0; None if it is inconsistent."""
        shift = _WORD * self.data.shape[1] - self.cols
        aug = ((a >> shift) << k | b for a, b in zip(_rev_rows(self.data), rhs_rows))
        rows, pivots = _rref(aug, self.cols + k)
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
        residual, _ = EchelonBasis(self.int_rows()).reduce(v.value)
        return residual == 0


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


def read_alist(path: str) -> BitMatrix:
    with open(path) as fh:
        cols, rows = _ints(fh.readline(), 2, "size")
        max_c, _max_r = _ints(fh.readline(), 2, "degree bound")
        tokens = fh.read().split()
    it = iter(tokens)
    col_deg = [int(next(it)) for _ in range(cols)]
    _row_deg = [int(next(it)) for _ in range(rows)]
    int_rows = [0] * rows
    for j in range(cols):
        entries = [int(next(it)) for _ in range(max_c)]
        for i in entries[: col_deg[j]]:
            if not 0 <= i <= rows:
                raise GF2Error("row index %d of column %d outside 1..%d" % (i, j + 1, rows))
            if i:
                int_rows[i - 1] |= 1 << j
    return BitMatrix.from_int_rows(int_rows, cols)


__all__ = [
    "GF2Error",
    "BitVector",
    "BitMatrix",
    "EchelonBasis",
    "weight_and_star",
    "row_space_equal",
    "write_matrix_market",
    "read_matrix_market",
    "write_alist",
    "read_alist",
]
