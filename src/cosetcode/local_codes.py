"""Reed-Muller local codes, duals, star products, divisibility predicates.

Coordinates of RM(r, eta) are the points of F_2^eta in integer order of
their bit patterns (point i has j-th variable = bit j of i).  A code is
kept in the one form `Sheaf.rows` holds: Python-int rows in reduced row
echelon form, each row's pivot its highest set bit
(`EchelonBasis.rref`), so downstream labels are reproducible and equal
codes have equal rows.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Sequence

from .gf2 import EchelonBasis, dual_rows


class LocalCodeError(ValueError):
    """Raised for invalid code parameters."""


class LinearCode:
    """A binary [n, k] linear code: `rows` is the reduced row echelon form
    of the span of the given rows, each row's pivot its highest set bit
    (never mutate it).  RREF is unique to a row space, so two codes are
    equal iff their `(n, rows)` are."""

    __slots__ = ("rows", "n", "k")

    def __init__(self, rows: Iterable[int], n: int):
        rows = list(rows)
        for i, v in enumerate(rows):
            if v < 0 or v.bit_length() > n:
                raise LocalCodeError("row %d does not fit in n = %d bits" % (i, n))
        self.rows = EchelonBasis(rows).rref()[0]
        self.n = n
        self.k = len(self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearCode) and (self.n, self.rows) == (other.n, other.rows)

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.rows)))

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
    return LinearCode(rows, n)


def dual_code(c: LinearCode) -> LinearCode:
    """The dual code."""
    return LinearCode(dual_rows(c.rows, c.n), c.n)


def star_rows(a: Iterable[int], b: Sequence[int]) -> List[int]:
    """The span of the element-wise products of the rows of a with the
    rows of b, in the reduced form `LinearCode.rows` holds."""
    return EchelonBasis(x & y for x in a for y in b).rref()[0]


def divisibility_level(c: LinearCode) -> int:
    """Largest ell such that every codeword weight is divisible by 2^ell,
    up to the bit length of n (returned for the zero code).

    wt(sum of v_i, i in S) = sum over nonempty A in S of (-2)^(|A|-1)
    wt(prod A) (Ward), so C is 2^ell-divisible iff every subset S of the
    basis with a nonzero product has v2(wt prod S) + |S| - 1 >= ell.  The
    subsets grow one size at a time, and only sizes with |S| - 1 below
    the running answer can lower it.
    """
    best = max(1, c.n.bit_length())
    layer = [(-1, 0)]  # (product of a subset, the first row it may grow by)
    size = 0
    while layer and size < best:
        size += 1
        grown = []
        for prod, start in layer:
            for i in range(start, c.k):
                p = prod & c.rows[i]
                if p:
                    wt = p.bit_count()
                    v2 = (wt & -wt).bit_length() - 1
                    best = min(best, v2 + size - 1)
                    grown.append((p, i + 1))
        layer = grown
    return best


def is_multi_orthogonal(codes: Sequence[LinearCode], ell: int) -> bool:
    """True iff every ell-tuple of basis rows (one per code) has even
    star-product weight; by the basis reduction this certifies the spaces."""
    if len(codes) != ell:
        raise LocalCodeError("need exactly ell codes")
    n = codes[0].n
    if any(c.n != n for c in codes):
        raise LocalCodeError("length mismatch")
    for tup in itertools.product(*(c.rows for c in codes)):
        prod = -1
        for v in tup:
            prod &= v
        if prod.bit_count() % 2:
            return False
    return True


def star_product_code(c: LinearCode, ell: int) -> LinearCode:
    """The span of all products of ell codewords of c (C^{*ell}): the
    pairwise star product with c, folded ell - 1 times."""
    if ell < 1:
        raise LocalCodeError("ell must be >= 1")
    rows = c.rows
    for _ in range(ell - 1):
        rows = star_rows(rows, c.rows)
    return LinearCode(rows, c.n)


__all__ = [
    "LocalCodeError",
    "LinearCode",
    "reed_muller",
    "dual_code",
    "star_rows",
    "divisibility_level",
    "is_multi_orthogonal",
    "star_product_code",
]
