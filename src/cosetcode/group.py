"""SL_{D+1}(R_m) generated by the one-parameter subgroups K_{j}.

Generator color j contributes the q elements e(alpha*t) with the
off-diagonal entry at 1-based position (j, j+1) for 1 <= j <= D and at
(D+1, 1) for j = 0.  Elements are encoded as integers packing the
(D+1)^2 ring digits row-major.

Enumeration is a breadth-first search from the identity that
right-multiplies every element of a round by every generator.  The keys
index a flat table of ids, so one gather looks up a whole round.  Each
generator acts on keys as a linear map over F_2 (ring addition is XOR),
so a round's products are one gather per key byte from tables of those
maps built before the first round.  Ids are BFS insertion order: a new
key takes the next id at its first occurrence in (parent id, generator
column) order, so every downstream label is reproducible.  The ids
therefore form a BFS tree: element h > 0 is parent[h] * gens[gen[h]]
with parent[h] in the round before h's, and any product a query needs
is read from the Cayley table by walking that tree, one gather per
round.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .algebra import RingTable


class GroupError(ValueError):
    """Raised for invalid group operations."""


class GroupCapError(GroupError):
    """Raised when enumeration would exceed the configured cap or the key width."""


DEFAULT_ENUMERATION_CAP = 1 << 22


def sl_order(n: int, size: int) -> int:
    """|SL_n(F_size)| by the standard product formula."""
    order = size ** (n * (n - 1) // 2)
    for i in range(2, n + 1):
        order *= size ** i - 1
    return order


def generated_field_size(q: int, m: int, D: int) -> int:
    """The size of the subfield F_q(t^{D+1}) of R_m = F_{q^m}: the K_{j}
    generate a conjugate of SL_{D+1} over it (D >= 2), so they generate
    SL_{D+1}(R_m) iff it is q^m.

    Conjugating by diag(1, t^-1, ..., t^-D) turns e(alpha*t) of every
    color j >= 1 into e(alpha) and that of color 0 into e(alpha*t^{D+1});
    for D + 1 >= 3 their commutators give every elementary matrix over
    F_q[t^{D+1}].  t is primitive, so t^{D+1} has order (q^m - 1) /
    gcd(q^m - 1, D + 1) and lies in F_{q^d} iff that divides q^d - 1."""
    units = q ** m - 1
    order = units // math.gcd(units, D + 1)
    return q ** min(d for d in range(1, m + 1) if m % d == 0 and (q ** d - 1) % order == 0)


def generator_position(j: int, n: int) -> Tuple[int, int]:
    """0-based off-diagonal position of the color-j elementary generators."""
    if j == 0:
        return n - 1, 0
    return j - 1, j


class GroupElement:
    """A matrix in SL_{D+1}(R_m); determinant 1 checked on construction."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring: RingTable, entries: Sequence[Sequence[int]], check: bool = True):
        self.ring = ring
        self.entries = tuple(tuple(row) for row in entries)
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise GroupError("entries must be square")
        if check and self.det() != 1:
            raise GroupError("determinant is not 1")

    @classmethod
    def elementary(cls, ring: RingTable, n: int, r: int, c: int, value: int) -> "GroupElement":
        if r == c:
            raise GroupError("elementary matrix needs off-diagonal position")
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        rows[r][c] = value
        return cls(ring, rows, check=False)

    @property
    def n(self) -> int:
        return len(self.entries)

    def det(self) -> int:
        """Determinant over R_m by Laplace expansion (small n)."""
        ring = self.ring

        def _det(rows: List[List[int]]) -> int:
            k = len(rows)
            if k == 1:
                return rows[0][0]
            acc = 0
            for c in range(k):
                if rows[0][c] == 0:
                    continue
                minor = [[row[x] for x in range(k) if x != c] for row in rows[1:]]
                acc ^= ring.mul(rows[0][c], _det(minor))  # char 2: no signs
            return acc

        return _det([list(r) for r in self.entries])

    def mul(self, other: "GroupElement") -> "GroupElement":
        ring = self.ring
        n = self.n
        a, b = self.entries, other.entries
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                aik = a[i][k]
                if aik == 0:
                    continue
                brow = b[k]
                orow = out[i]
                for j in range(n):
                    if brow[j]:
                        orow[j] ^= ring.mul(aik, brow[j])
        return GroupElement(ring, out, check=False)

    def inverse(self) -> "GroupElement":
        """Inverse by Gaussian elimination over the field R_m."""
        ring = self.ring
        n = self.n
        a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.entries)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                raise GroupError("singular matrix")
            a[col], a[piv] = a[piv], a[col]
            inv = ring.inv(a[col][col])
            a[col] = [ring.mul(inv, x) for x in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    f = a[r][col]
                    a[r] = [x ^ ring.mul(f, y) for x, y in zip(a[r], a[col])]
        return GroupElement(ring, [row[n:] for row in a], check=False)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupElement) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "GroupElement(%r)" % (self.entries,)


class GroupTable:
    """BFS-enumerated SL_{D+1}(R_m) with Cayley columns per generator.

    Every color's generators take part, colors ascending and alpha in
    omega-power order within a color, so the table closes to the group
    the K_{j} generate.

    Products use the ring's multiplication table, so a ring past 1024
    elements is refused before any work.  So is a group whose id table
    would pass 16 * cap entries or 32-bit keys: SL_3(F_8) needs 2^27
    entries, past 2^26 at the default cap.
    """

    def __init__(self, ring: RingTable, D: int, cap: int = DEFAULT_ENUMERATION_CAP):
        self.ring = ring
        self.D = D
        self.n = D + 1
        self.cap = cap
        self.kbits = max(1, (ring.size - 1).bit_length())
        if ring.mul_table is None:
            raise GroupCapError(
                "a ring of %d elements is past the 1024-element multiplication table"
                % ring.size
            )
        # generators (color, alpha, v), colors ascending, alpha in omega-power
        # order: I + v*e_rc with v = alpha*t and (r, c) the color's position
        self.gens: List[Tuple[int, int, int]] = [
            (color, alpha, ring.scalar_times_t(alpha))
            for color in range(self.n)
            for alpha in ring.field.antilog
        ]
        bits = self.kbits * self.n * self.n
        if bits > 32 or 1 << bits > 16 * cap:
            raise GroupCapError(
                "an id table of 2^%d entries is past 32-bit keys or 16 * cap %d"
                % (bits, cap)
            )
        self._enumerate()
        self._coset_cache: Dict[int, np.ndarray] = {}
        self._cycle_perm: Optional[np.ndarray] = None

    # -- key encoding ----------------------------------------------------

    def _decode(self, key: int) -> List[List[int]]:
        mask = (1 << self.kbits) - 1
        out = []
        for i in range(self.n):
            row = []
            for _ in range(self.n):
                row.append(key & mask)
                key >>= self.kbits
            out.append(row)
        return out

    def element(self, gid: int) -> GroupElement:
        return GroupElement(self.ring, self._decode(int(self.keys[gid])), check=False)

    # -- enumeration -------------------------------------------------------

    def _enumerate(self) -> None:
        """BFS rounds as array operations on keys, kbits per digit.  A flat
        table indexed by key holds the id of every element seen so far (-1
        if unseen), so one gather looks up a round's products.  The unseen
        ones are numbered in first-occurrence order, which keeps ids in
        insertion order.

        Right-multiplying by I + v*e_rc adds digit (i, r) times v to digit
        (i, c), and ring addition is XOR, so each generator maps keys by a
        linear map over F_2: key bit b goes to `image[b]`.  The map is
        folded into one table per key byte, a row per byte value and a
        column per generator: a round's products are
        T_0[byte 0] ^ T_1[byte 1] ^ ..., one gather per byte."""
        n, kb, ngen = self.n, self.kbits, len(self.gens)
        bits = kb * n * n
        image = (np.uint32(1) << np.arange(bits, dtype=np.uint32))[:, None].repeat(ngen, axis=1)
        lo = 0
        for color in range(n):
            r, c = generator_position(color, n)
            vs = [v for col, _, v in self.gens if col == color]
            hi = lo + len(vs)
            times = self.ring.mul_table[:, vs].astype(np.uint32)
            for i in range(n):
                # bit t of digit (i, r) adds (2^t * v) to digit (i, c)
                dst = np.uint32(kb * (i * n + c))
                for t in range(kb):
                    image[kb * (i * n + r) + t, lo:hi] ^= times[1 << t] << dst
            lo = hi
        tables = []
        for b in range(0, bits, 8):
            rows = image[b : b + 8]
            table = np.zeros((1 << len(rows), ngen), dtype=np.uint32)
            for k, row in enumerate(rows):  # byte values with top bit k
                table[1 << k : 2 << k] = table[: 1 << k] ^ row
            tables.append(table)
        byte, shifts = np.uint32(0xFF), [np.uint32(8 * k) for k in range(len(tables))]
        index = np.full(1 << bits, -1, dtype=np.int64)
        id_key = sum(1 << (kb * (i * n + i)) for i in range(n))
        index[id_key] = 0
        batch = np.array([id_key], dtype=np.uint32)
        keys, parents, gen_cols, cayley = [batch], [np.array([-1])], [np.array([-1])], []
        bounds = [0, 1]  # round r holds ids bounds[r]:bounds[r+1]
        while True:
            start, size = bounds[-2], bounds[-1]
            if size > self.cap:
                raise GroupCapError(
                    "enumeration exceeded cap %d (have %d elements)" % (self.cap, size)
                )
            products = tables[0][batch & byte]
            for b, table in zip(shifts[1:], tables[1:]):
                products ^= table[(batch >> b) & byte]
            products = products.ravel()  # [local * ngen + col]
            ids = index[products]
            fresh = np.flatnonzero(ids < 0)
            # each unseen key's entry takes the least position it occurs
            # at; the positions that won are the new elements, in id order
            run = products[fresh]
            index[run] = products.size
            np.minimum.at(index, run, fresh)
            flat = fresh[index[run] == fresh]
            index[products[flat]] = np.arange(size, size + flat.size)
            ids[fresh] = index[run]
            cayley.append(ids.reshape(-1, ngen))
            if not flat.size:
                break
            batch = products[flat]
            keys.append(batch)
            parents.append(start + flat // ngen)
            gen_cols.append(flat % ngen)
            bounds.append(size + flat.size)
        self.keys = np.concatenate(keys).astype(np.uint64)
        self.size = int(self.keys.size)
        self.cayley = np.concatenate(cayley)
        self._parent = np.concatenate(parents)
        self._gen = np.concatenate(gen_cols)
        self._bounds = bounds

    def _walk(self, root: int, colmap: np.ndarray) -> np.ndarray:
        """image[h] = root * s'_1 ... s'_k, where s_1 ... s_k is the
        generator word of h's tree path and s'_i is the generator in
        column colmap[col(s_i)]: one Cayley gather per BFS round."""
        image = np.empty(self.size, dtype=np.int64)
        image[0] = root
        for lo, hi in zip(self._bounds[1:], self._bounds[2:]):
            image[lo:hi] = self.cayley[image[self._parent[lo:hi]], colmap[self._gen[lo:hi]]]
        return image

    # -- queries -----------------------------------------------------------

    def gen_columns_for_colors(self, colors: Iterable[int]) -> List[int]:
        wanted = set(colors)
        return [i for i, (color, _, _) in enumerate(self.gens) if color in wanted]

    def left_mul_perm(self, gid: int) -> np.ndarray:
        """Permutation h -> g*h over all element ids."""
        return self._walk(gid, np.arange(len(self.gens)))

    def element_order(self, gid: int) -> int:
        """Length of the identity's cycle under h -> h*g: g's generator
        word is its tree path, and each step right-multiplies by it."""
        word = []
        h = gid
        while h:  # the identity, id 0, is the root
            word.append(self._gen.item(h))
            h = self._parent.item(h)
        word.reverse()
        order, h = 1, gid
        while h:
            for col in word:
                h = self.cayley.item(h, col)
            order += 1
        return order

    def enumerate_subgroup(self, T: Iterable[int]) -> List[int]:
        """Element ids of K_T = <K_{j} : j in T^c>, ascending: the identity's coset."""
        return np.flatnonzero(self.coset_reps(T) == 0).tolist()

    def coset_reps(self, T: Iterable[int]) -> np.ndarray:
        """reps[g] = min-id element of g*K_T, for every element id g.

        Every generator is its own inverse (characteristic 2), so the
        cosets are the components of the graph h -- h*s over the
        generators s of K_T.  Labels start as the ids and take the least
        label of their neighbours and of their own label until nothing
        changes; each label is a coset member no larger than its id, so
        the fixed point is the coset minimum."""
        t_mask = 0
        for j in T:
            if not 0 <= j <= self.D:
                raise GroupError("color out of range")
            t_mask |= 1 << j
        cached = self._coset_cache.get(t_mask)
        if cached is not None:
            return cached
        complement = [j for j in range(self.D + 1) if not (t_mask >> j) & 1]
        nbrs = self.cayley[:, self.gen_columns_for_colors(complement)]
        labels = np.arange(self.size)
        while True:
            nxt = np.minimum(labels, labels[nbrs].min(axis=1, initial=self.size))
            nxt = nxt[nxt]
            if np.array_equal(nxt, labels):
                break
            labels = nxt
        self._coset_cache[t_mask] = labels
        return labels

    def type_cycle_perm(self) -> np.ndarray:
        """Permutation id -> id of the conjugation-by-P automorphism.

        P moves entry (i, j) to (i+1, j+1) mod n, so it sends e(alpha*t)
        of color j to e(alpha*t) of color j+1 mod n: with the generators
        ordered by color, then alpha, that is the column one color block
        on."""
        if self._cycle_perm is None:
            ngen = len(self.gens)
            colmap = (np.arange(ngen) + ngen // self.n) % ngen
            self._cycle_perm = self._walk(0, colmap)
        return self._cycle_perm


def enumerate_group(D: int, ring: RingTable, cap: int = DEFAULT_ENUMERATION_CAP) -> GroupTable:
    """BFS closure of all generator subgroups; checks the SL order formula
    (the generation claim)."""
    table = GroupTable(ring, D, cap=cap)
    expected = sl_order(D + 1, ring.size)
    if table.size != expected:
        raise GroupError(
            "generators closed to %d elements; SL order formula gives %d"
            % (table.size, expected)
        )
    return table


__all__ = [
    "GroupError",
    "GroupCapError",
    "DEFAULT_ENUMERATION_CAP",
    "sl_order",
    "generated_field_size",
    "generator_position",
    "GroupElement",
    "GroupTable",
    "enumerate_group",
]
