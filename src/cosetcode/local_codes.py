"""Reed-Muller local codes, duals, star products, divisibility predicates.

Coordinates of RM(r, eta) are the points of F_2^eta in integer order of
their bit patterns (point i has j-th variable = bit j of i).  Generator
bases are stored in reduced row echelon form, each row's pivot at its
highest set bit (`BitMatrix.rref`), so downstream labels are
reproducible.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

from .gf2 import BitMatrix, BitVector, row_space_equal


class LocalCodeError(ValueError):
    """Raised for invalid code parameters."""


class LinearCode:
    """A binary [n, k] linear code given by a full-rank generator matrix."""

    def __init__(self, generator: BitMatrix):
        basis, _ = generator.rref()
        self.generator = basis
        self.n = generator.cols
        self.k = basis.rows

    @classmethod
    def from_int_rows(cls, rows: Sequence[int], n: int) -> "LinearCode":
        return cls(BitMatrix.from_int_rows(list(rows), n))

    def codewords(self) -> List[int]:
        """All 2^k codewords as int bitsets (small codes only)."""
        if self.k > 24:
            raise LocalCodeError("codeword enumeration capped at dim 24")
        words = [0]
        for i in range(self.k):
            g = self.generator.row_int(i)
            words += [w ^ g for w in words]
        return words

    def contains(self, v: BitVector) -> bool:
        return self.generator.in_row_space(v)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearCode)
            and self.n == other.n
            and row_space_equal(self.generator, other.generator)
        )

    def __hash__(self):  # pragma: no cover
        return hash((self.n, self.k))

    def __repr__(self) -> str:
        return "LinearCode(n=%d, k=%d)" % (self.n, self.k)


def reed_muller(r: int, eta: int) -> LinearCode:
    """RM(r, eta): evaluations of degree-<=r multilinear polynomials."""
    if not 0 <= r <= eta:
        raise LocalCodeError("need 0 <= r <= eta, got r=%d eta=%d" % (r, eta))
    n = 1 << eta
    rows = []
    for deg in range(r + 1):
        for vs in itertools.combinations(range(eta), deg):
            word = 0
            for point in range(n):
                if all((point >> v) & 1 for v in vs):
                    word |= 1 << point
            rows.append(word)
    return LinearCode(BitMatrix.from_int_rows(rows, n))


def dual_code(c: LinearCode) -> LinearCode:
    """The dual code: kernel of the generator."""
    return LinearCode(c.generator.kernel_basis())


def divisibility_level(c: LinearCode) -> int:
    """Largest ell such that every codeword weight is divisible by 2^ell,
    up to the bit length of n (returned for the zero code).

    Enumerates the span for dim <= 24 and uses the basis-tuple criterion
    otherwise: one path runs, never both.
    """
    max_level = max(1, c.n.bit_length())
    if c.k == 0:
        return max_level
    exhaustive = c.k <= 24
    if exhaustive:
        best = max_level
        for w in c.codewords():
            wt = w.bit_count()
            if wt == 0:
                continue
            tz = (wt & -wt).bit_length() - 1
            best = min(best, tz)
            if best == 0:
                return 0
        return best
    # basis-tuple criterion: C is 2^ell-divisible iff for all 1 <= s <= ell
    # every s-tuple of basis rows has star-product weight = 0 mod 2^{ell-s+1}
    basis = c.generator.int_rows()
    level = 0
    for ell in range(1, max_level + 1):
        ok = True
        for s in range(1, ell + 1):
            mod = 1 << (ell - s + 1)
            for tup in itertools.combinations_with_replacement(basis, s):
                prod = -1
                for v in tup:
                    prod &= v
                if prod.bit_count() % mod:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
        level = ell
    return level


def is_multi_orthogonal(codes: Sequence[LinearCode], ell: int) -> bool:
    """True iff every ell-tuple of basis rows (one per code) has even
    star-product weight; by the basis reduction this certifies the spaces."""
    if len(codes) != ell:
        raise LocalCodeError("need exactly ell codes")
    n = codes[0].n
    if any(c.n != n for c in codes):
        raise LocalCodeError("length mismatch")
    bases = [c.generator.int_rows() for c in codes]
    for tup in itertools.product(*bases):
        prod = -1
        for v in tup:
            prod &= v
        if prod.bit_count() % 2:
            return False
    return True


def star_product_code(c: LinearCode, ell: int) -> LinearCode:
    """The span of all products of ell codewords of c (C^{*ell})."""
    if ell < 1:
        raise LocalCodeError("ell must be >= 1")
    rows = []
    for tup in itertools.combinations_with_replacement(c.generator.int_rows(), ell):
        prod = -1
        for v in tup:
            prod &= v
        rows.append(prod)
    return LinearCode(BitMatrix.from_int_rows(rows, c.n))


__all__ = [
    "LocalCodeError",
    "LinearCode",
    "reed_muller",
    "dual_code",
    "divisibility_level",
    "is_multi_orthogonal",
    "star_product_code",
]
