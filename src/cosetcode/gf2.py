"""Exact linear algebra over GF(2) on Python-int rows.

A vector is a plain Python int, and BitMatrix keeps one such int per
row: bit i of a vector, or of a row, is the coefficient of coordinate
(column) i.  numpy enters only where matrices meet arrays: `from_coords`,
`from_dense`, `to_dense` and `nonzero`, through little-endian packed words.

All elimination runs through one loop, `EchelonBasis`: a forward-only
pivot table, a list indexed by each Python-int row's `bit_length()` (its
pivot), holding the row there and None where no row has that pivot.
One XOR of two such ints updates a whole row at C speed.  Every pivot is
a row's highest set bit: rank, rref, kernel_basis and solve all read the
rows as they are, and back-substitute (`EchelonBasis.rref`) only for a
reduced form.  A reduced row echelon form here has its rows in increasing
pivot order, each pivot column being zero in every other row; `dual_rows`
gives the dual of int rows in that form.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np


class GF2Error(ValueError):
    """Raised on dimension mismatches or malformed input."""


# the packed 64-bit words `BitMatrix.from_coords` scatters into at once (8 MB)
_CHUNK_WORDS = 1 << 20


def _packed_rows(words: np.ndarray) -> List[int]:
    """The rows of a C-contiguous 2-D array of packed little-endian words
    (uint8 or uint64) as ints: bit c of a row's bytes is bit c of its int."""
    nb = words.shape[1] * words.itemsize
    if not nb:
        return [0] * words.shape[0]
    buf = words.tobytes()  # slicing bytes beats slicing a memoryview
    return [int.from_bytes(buf[i : i + nb], "little") for i in range(0, len(buf), nb)]


def _scatter(w: int, targets: Union[Sequence[int], Dict[int, int]]) -> int:
    """Move bit p of w to bit targets[p]: only w's set bits are read."""
    out = 0
    while w:  # top bit first, so w shrinks as it goes
        top = w.bit_length() - 1
        out |= 1 << targets[top]
        w ^= 1 << top
    return out


def _packed(rows: Sequence[int], nbytes: int) -> np.ndarray:
    """Int rows as a (len(rows), nbytes) uint8 array of little-endian bytes."""
    buf = b"".join([v.to_bytes(nbytes, "little") for v in rows])
    return np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), nbytes)


class EchelonBasis:
    """The one elimination loop: an echelon basis of Python-int rows,
    grown one row at a time in a pivot table indexed by each row's
    `bit_length()`, so a row's pivot is its highest set bit and no two
    rows share one.

    Inserting and reducing only eliminate forward; `rref` back-substitutes
    when a caller asks for the reduced form.
    """

    __slots__ = ("_rows", "_leads")

    def __init__(self, rows: Iterable[int] = ()):
        # _rows[lead] is the row whose bit_length() is lead, or None; slot 0
        # (the zero vector's) stays None, so reducing to 0 stops the loop
        self._rows: List[Optional[int]] = [None]
        self._leads: List[int] = []  # the occupied slots, in insertion order
        for v in rows:
            self.insert(v)

    def __len__(self) -> int:
        """The rank of the inserted rows."""
        return len(self._leads)

    def reduce(self, v: int) -> int:
        """v less basis rows until its highest bit is no pivot: 0 iff v is
        in the span."""
        rows = self._rows
        lead = v.bit_length()
        if lead >= len(rows):
            return v  # above every pivot; each XOR below only lowers the lead
        other = rows[lead]
        while other is not None:
            v ^= other
            other = rows[v.bit_length()]
        return v

    def insert(self, v: int) -> bool:
        """Add v; True iff it was independent of the rows already in."""
        v = self.reduce(v)
        if not v:
            return False
        lead = v.bit_length()
        rows = self._rows
        if lead >= len(rows):
            rows.extend([None] * (lead + 1 - len(rows)))
        rows[lead] = v
        self._leads.append(lead)
        return True

    def rref(self) -> Tuple[List[int], List[int]]:
        """Back-substitution: the reduced row echelon form, as the reduced
        rows in increasing pivot and those pivots (`lead - 1`).  The basis
        rows are reduced in place (their span and pivots stay)."""
        rows = self._rows
        leads = sorted(self._leads)  # lowest pivot first
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
        return [rows[lead] for lead in leads], [lead - 1 for lead in leads]


def _kernel(rows: Sequence[int], pivots: Sequence[int], width: int) -> List[int]:
    """The kernel over `width` columns of a reduced row echelon form as
    `EchelonBasis.rref` gives it: for each free column c in increasing
    order, column c plus each pivot column whose row has c."""
    pivot_set = set(pivots)
    out = {c: 1 << c for c in range(width) if c not in pivot_set}
    for v, p in zip(rows, pivots):
        bit = 1 << p
        v ^= bit
        while v:
            lead = v.bit_length()
            out[lead - 1] |= bit
            v ^= 1 << (lead - 1)
    return list(out.values())


def dual_rows(rows: Iterable[int], width: int) -> List[int]:
    """The dual of the span of int rows of `width` bits, in reduced row
    echelon form, as `BitMatrix.kernel_basis().row_space_basis()` gives it:
    the kernel rows, reduced once more on their highest set bits."""
    red, pivots = EchelonBasis(rows).rref()
    return EchelonBasis(_kernel(red, pivots, width)).rref()[0]


class BitMatrix:
    """A rows x cols matrix over GF(2) as a list of Python-int rows: bit c
    of a row is column c.

    Immutable by convention: methods return new matrices, and `int_rows()`
    hands out the stored list, which callers never mutate.  So the rank is
    kept once computed (`_rank`, None until then).
    """

    __slots__ = ("rows", "cols", "_ints", "_rank")

    def __init__(self, rows: int, cols: int):
        """The rows x cols zero matrix."""
        self.rows = rows
        self.cols = cols
        self._ints: List[int] = [0] * rows
        self._rank: Optional[int] = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def _of(cls, ints: List[int], cols: int) -> "BitMatrix":
        """Wrap rows already known to fit in `cols` columns."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._ints, m._rank = len(ints), cols, ints, None
        return m

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls._of([1 << i for i in range(n)], n)

    @classmethod
    def from_int_rows(cls, int_rows: Sequence[int], cols: int) -> "BitMatrix":
        ints = list(int_rows)
        if ints and (min(ints) < 0 or max(ints).bit_length() > cols):
            bad = next(i for i, v in enumerate(ints) if v < 0 or v.bit_length() > cols)
            raise GF2Error("row %d out of range for %d cols" % (bad, cols))
        return cls._of(ints, cols)

    @classmethod
    def from_coords(cls, rows: int, cols: int, r, c) -> "BitMatrix":
        """The rows x cols matrix with a one at every (r[k], c[k]) (repeats
        allowed), scattered into packed words a block of rows at a time:
        no more than `_CHUNK_WORDS` words are alive next to the int rows."""
        r = np.asarray(r, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        if r.size and not (0 <= r.min() and r.max() < rows and 0 <= c.min() and c.max() < cols):
            raise GF2Error("entry outside a %dx%d matrix" % (rows, cols))
        nw = (cols + 63) // 64
        step = max(1, _CHUNK_WORDS // max(nw, 1))
        order = np.argsort(r)  # sorted by row, each block's entries are one slice
        r, c = r[order], c[order]
        ints: List[int] = []
        for lo in range(0, rows, step):
            a, b = np.searchsorted(r, (lo, lo + step))
            words = np.zeros((min(step, rows - lo), nw), dtype=np.uint64)
            bit = np.uint64(1) << (c[a:b] & 63).astype(np.uint64)
            np.bitwise_or.at(words.reshape(-1), (r[a:b] - lo) * nw + (c[a:b] >> 6), bit)
            ints += _packed_rows(words)
        return cls._of(ints, cols)

    @classmethod
    def from_dense(cls, array) -> "BitMatrix":
        a = np.asarray(array, dtype=np.uint8) & 1
        if a.ndim != 2:
            raise GF2Error("dense input must be 2-D")
        return cls._of(_packed_rows(np.packbits(a, axis=1, bitorder="little")), a.shape[1])

    # -- accessors ------------------------------------------------------

    def int_rows(self) -> List[int]:
        """The rows as ints (the stored list: never mutate it)."""
        return self._ints

    def to_dense(self) -> np.ndarray:
        """The matrix as a (rows, cols) uint8 array, one byte per entry."""
        packed = _packed(self._ints, (self.cols + 7) // 8)
        return np.unpackbits(packed, axis=1, count=self.cols, bitorder="little")

    def nonzero(self) -> Tuple[np.ndarray, np.ndarray]:
        """The (row, column) coordinates of the ones in row-major order,
        unpacked from the nonzero 64-bit words only."""
        nw = (self.cols + 63) // 64
        packed = _packed(self._ints, 8 * nw)
        words = np.flatnonzero(packed.view("<u8"))
        bits = np.unpackbits(packed.reshape(-1, 8)[words], axis=1, bitorder="little")
        k = np.flatnonzero(bits.view(bool))  # 1-D and on bools: many times faster
        word = words[k >> 6]
        return word // nw, 64 * (word % nw) + (k & 63)

    def row_weights(self) -> List[int]:
        return [v.bit_count() for v in self._ints]

    def is_zero(self) -> bool:
        return not any(self._ints)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._ints == other._ints
        )

    def __repr__(self) -> str:
        return "BitMatrix(%dx%d)" % (self.rows, self.cols)

    # -- structure ------------------------------------------------------

    def vstack(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.cols:
            raise GF2Error("vstack column mismatch")
        return BitMatrix._of(self._ints + other._ints, self.cols)

    def transpose(self) -> "BitMatrix":
        r, c = self.nonzero()
        return BitMatrix.from_coords(self.cols, self.rows, c, r)

    def matmul(self, other: "BitMatrix") -> "BitMatrix":
        """Product self @ other over GF(2): each row XORs the rows of
        `other` that its set bits name."""
        if self.cols != other.rows:
            raise GF2Error("matmul shape mismatch")
        rows = other._ints
        out = []
        for v in self._ints:
            acc = 0
            while v:  # top bit first, so v shrinks as it goes
                top = v.bit_length() - 1
                acc ^= rows[top]
                v ^= 1 << top
            out.append(acc)
        return BitMatrix._of(out, other.cols)

    # -- elimination ----------------------------------------------------

    def rank(self) -> int:
        """The rank, eliminated on the rows as they are (pivots at the
        highest set bits, since rank does not depend on pivot order) the
        first time it is asked for, and kept."""
        if self._rank is None:
            self._rank = len(EchelonBasis(self._ints))
        return self._rank

    def rref(self) -> Tuple["BitMatrix", List[int]]:
        """Reduced row echelon form and pivot columns, each row's pivot its
        highest set bit; zero rows dropped."""
        rows, pivots = EchelonBasis(self._ints).rref()
        return BitMatrix._of(rows, self.cols), pivots

    def row_space_basis(self) -> "BitMatrix":
        m, _ = self.rref()
        return m

    def kernel_basis(self) -> "BitMatrix":
        """Rows form a basis of {x : self @ x = 0} (x of length cols)."""
        rows, pivots = EchelonBasis(self._ints).rref()
        return BitMatrix._of(_kernel(rows, pivots, self.cols), self.cols)

    def _solve(self, rhs_rows: Iterable[int], k: int) -> Optional[List[Tuple[int, int]]]:
        """Solve self @ X = rhs by reducing the rows of self above those of
        rhs (k bits each, `a << k | b`).  Returns the solution whose free
        variables are 0 as (row of X, its bits) pairs, rows not listed
        being 0; None if it is inconsistent: a pivot below bit k."""
        aug = (a << k | b for a, b in zip(self._ints, rhs_rows))
        rows, pivots = EchelonBasis(aug).rref()
        if pivots and pivots[0] < k:
            return None
        low = (1 << k) - 1
        return [(p - k, v & low) for v, p in zip(rows, pivots)]

    def solve(self, rhs: "BitMatrix") -> Optional["BitMatrix"]:
        """Solve self @ X = rhs for X (rhs given column-wise as a matrix).

        rhs has shape (self.rows, k); returns X of shape (self.cols, k)
        or None if any column is inconsistent.
        """
        if rhs.rows != self.rows:
            raise GF2Error("solve rhs row mismatch")
        sol = self._solve(rhs._ints, rhs.cols)
        if sol is None:
            return None
        x = [0] * self.cols
        for p, v in sol:
            x[p] = v
        return BitMatrix._of(x, rhs.cols)

    def solve_vec(self, b: int) -> Optional[int]:
        """Solve self @ x = b for x, both vectors as ints (bit i is entry
        i, b of `rows` bits and x of `cols`); returns some solution or None."""
        if b < 0 or b.bit_length() > self.rows:
            raise GF2Error("solve_vec right-hand side is not a %d-bit vector" % self.rows)
        sol = self._solve(((b >> i) & 1 for i in range(self.rows)), 1)
        if sol is None:
            return None
        return sum(1 << p for p, v in sol if v)


def row_space_equal(a: BitMatrix, b: BitMatrix) -> bool:
    """True iff two matrices span the same row space."""
    if a.cols != b.cols:
        return False
    ra, rb = a.rank(), b.rank()
    return ra == rb == a.vstack(b).rank()


# -- I/O ------------------------------------------------------------------


def write_matrix_market(m: BitMatrix, path: str) -> None:
    """Write in Matrix Market coordinate pattern format (1-based)."""
    rr, cc = m.nonzero()
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate pattern general\n")
        fh.write("%d %d %d\n" % (m.rows, m.cols, len(rr)))
        for i, j in zip(rr.tolist(), cc.tolist()):
            fh.write("%d %d\n" % (i + 1, j + 1))


def _alist_lines(entries: np.ndarray, degrees: np.ndarray, width: int) -> Iterator[str]:
    """One line per group of `degrees` consecutive entries, zero-padded to
    `width`."""
    end = 0
    for d in degrees.tolist():
        start, end = end, end + d
        yield " ".join(map(str, entries[start:end].tolist() + [0] * (width - d))) + "\n"


def write_alist(m: BitMatrix, path: str) -> None:
    """Write in MacKay alist format (columns first, 1-based indices)."""
    rr, cc = m.nonzero()
    col_deg = np.bincount(cc, minlength=m.cols)
    row_deg = np.bincount(rr, minlength=m.rows)
    max_c, max_r = int(col_deg.max(initial=0)), int(row_deg.max(initial=0))
    by_col = rr[np.argsort(cc, kind="stable")] + 1  # rows ascending per column
    with open(path, "w") as fh:
        fh.write("%d %d\n" % (m.cols, m.rows))
        fh.write("%d %d\n" % (max_c, max_r))
        fh.write(" ".join(map(str, col_deg.tolist())) + "\n")
        fh.write(" ".join(map(str, row_deg.tolist())) + "\n")
        fh.writelines(_alist_lines(by_col, col_deg, max_c))
        fh.writelines(_alist_lines(cc + 1, row_deg, max_r))


__all__ = [
    "GF2Error",
    "BitMatrix",
    "EchelonBasis",
    "dual_rows",
    "row_space_equal",
    "write_matrix_market",
    "write_alist",
]
