"""SL_{D+1}(R_m) generated by the one-parameter subgroups K_{j}.

Generator color j contributes the q elements e(alpha*t) with the
off-diagonal entry at 1-based position (j, j+1) for 1 <= j <= D and at
(D+1, 1) for j = 0.  Elements are encoded as integers packing the
(D+1)^2 ring digits row-major; ids are BFS insertion order so every
downstream label is reproducible.
"""

from __future__ import annotations

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
    def identity(cls, ring: RingTable, n: int) -> "GroupElement":
        return cls(ring, [[1 if i == j else 0 for j in range(n)] for i in range(n)], check=False)

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

    def type_cycle(self) -> "GroupElement":
        """Conjugation by the cyclic permutation matrix P: entry (i, j)
        moves to (i+1, j+1) mod n."""
        n = self.n
        out = [[self.entries[(i - 1) % n][(j - 1) % n] for j in range(n)] for i in range(n)]
        return GroupElement(self.ring, out, check=False)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupElement) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "GroupElement(%r)" % (self.entries,)


class GroupTable:
    """BFS-enumerated group (or subgroup) with Cayley columns per generator.

    `colors` selects which K_{j} generator families participate; the
    default (all colors) closes to the whole group.  Restricting colors
    enumerates K_T for T = complement of `colors` - used for the
    vertex-link group K_0 of large instances without a global build.

    Keys are uint64 and products use the ring's multiplication table, so
    a group needing more than 63 key bits or a ring past 1024 elements is
    refused before any work; the smallest such groups have ~1e10 elements.
    """

    def __init__(
        self,
        ring: RingTable,
        D: int,
        colors: Optional[Sequence[int]] = None,
        cap: int = DEFAULT_ENUMERATION_CAP,
    ):
        self.ring = ring
        self.D = D
        self.n = D + 1
        self.colors = tuple(sorted(colors)) if colors is not None else tuple(range(self.n))
        if any(not 0 <= c <= D for c in self.colors):
            raise GroupError("colors out of range")
        self.cap = cap
        self.kbits = max(1, (ring.size - 1).bit_length())
        if self.n * self.n * self.kbits > 63 or ring.mul_table is None:
            raise GroupCapError(
                "SL_%d over a ring of %d elements is past 63-bit keys or the "
                "1024-element multiplication table" % (self.n, ring.size)
            )
        # generators: colors ascending, alpha in omega-power order
        self.gens: List[Tuple[int, int, int]] = []  # (color, alpha, key)
        field = ring.field
        for color in self.colors:
            r, c = generator_position(color, self.n)
            for alpha in field.antilog:
                value = ring.scalar_times_t(alpha)
                key = self._elementary_key(r, c, value)
                self.gens.append((color, alpha, key))
        self._enumerate()
        self._subgroup_cache: Dict[int, List[int]] = {}
        self._coset_cache: Dict[int, np.ndarray] = {}
        self._cycle_perm: Optional[np.ndarray] = None

    # -- key encoding ----------------------------------------------------

    def _encode(self, entries: Sequence[Sequence[int]]) -> int:
        key = 0
        shift = 0
        for row in entries:
            for v in row:
                key |= v << shift
                shift += self.kbits
        return key

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

    def _elementary_key(self, r: int, c: int, value: int) -> int:
        entries = [[1 if i == j else 0 for j in range(self.n)] for i in range(self.n)]
        entries[r][c] = value
        return self._encode(entries)

    def element(self, gid: int) -> GroupElement:
        return GroupElement(self.ring, self._decode(int(self.keys[gid])), check=False)

    def id_of(self, g: GroupElement) -> int:
        key = self._encode(g.entries)
        gid = self.index.get(key)
        if gid is None:
            raise GroupError("element not in enumerated set")
        return gid

    # -- enumeration -------------------------------------------------------

    def _mul_batch(self, keys: np.ndarray, gkey: int) -> np.ndarray:
        """Right-multiply a batch of encoded elements by one generator."""
        n, kb = self.n, self.kbits
        mask = np.uint64((1 << kb) - 1)
        b = self._decode(gkey)
        tbl = self.ring.mul_table
        # decode digits of A
        a = np.empty((keys.size, n, n), dtype=np.uint32)
        for i in range(n):
            for j in range(n):
                sh = np.uint64(kb * (i * n + j))
                a[:, i, j] = ((keys >> sh) & mask).astype(np.uint32)
        c = np.zeros_like(a)
        for k in range(n):
            for j in range(n):
                bkj = b[k][j]
                if bkj:
                    c[:, :, j] ^= tbl[a[:, :, k], bkj]
        out = np.zeros(keys.size, dtype=np.uint64)
        for i in range(n):
            for j in range(n):
                sh = np.uint64(kb * (i * n + j))
                out |= c[:, i, j].astype(np.uint64) << sh
        return out

    def _enumerate(self) -> None:
        id_key = self._elementary_key(0, 1, 0) if self.n > 1 else self._encode([[1]])
        keys: List[int] = [id_key]
        index: Dict[int, int] = {id_key: 0}
        cayley_rows: List[List[int]] = []
        start = 0
        while start < len(keys):
            stop = len(keys)
            if stop > self.cap:
                raise GroupCapError(
                    "enumeration exceeded cap %d (have %d elements)" % (self.cap, stop)
                )
            batch = np.array(keys[start:stop], dtype=np.uint64)
            products = [self._mul_batch(batch, g[2]) for g in self.gens]
            for local in range(stop - start):
                row = []
                for gi in range(len(self.gens)):
                    pk = int(products[gi][local])
                    pid = index.get(pk)
                    if pid is None:
                        pid = len(keys)
                        keys.append(pk)
                        index[pk] = pid
                    row.append(pid)
                cayley_rows.append(row)
            start = stop
        self.keys = np.array(keys, dtype=np.uint64)
        self.index = index
        self.size = len(keys)
        self.cayley = np.array(cayley_rows, dtype=np.int64)

    # -- queries -----------------------------------------------------------

    def gen_columns_for_colors(self, colors: Iterable[int]) -> List[int]:
        wanted = set(colors)
        return [i for i, (color, _, _) in enumerate(self.gens) if color in wanted]

    def mul_ids(self, a: int, b: int) -> int:
        p = self.element(a).mul(self.element(b))
        return self.id_of(p)

    def left_mul_perm(self, gid: int) -> np.ndarray:
        """Permutation h -> g*h over all element ids."""
        g = self.element(gid)
        out = np.empty(self.size, dtype=np.int64)
        for h in range(self.size):
            out[h] = self.id_of(g.mul(self.element(h)))
        return out

    def element_order(self, gid: int) -> int:
        g = self.element(gid)
        acc = g
        order = 1
        ident = GroupElement.identity(self.ring, self.n)
        while acc != ident:
            acc = acc.mul(g)
            order += 1
            if order > self.size:
                raise GroupError("order computation ran away")
        return order

    def enumerate_subgroup(self, T: Iterable[int]) -> List[int]:
        """Element ids of K_T = <K_{j} : j in T^c>, BFS from the identity."""
        t_mask = 0
        for j in T:
            if not 0 <= j <= self.D:
                raise GroupError("color out of range")
            t_mask |= 1 << j
        cached = self._subgroup_cache.get(t_mask)
        if cached is not None:
            return cached
        complement = [j for j in range(self.D + 1) if not (t_mask >> j) & 1]
        cols = self.gen_columns_for_colors(complement)
        members = self._flood(0, cols)
        members.sort()
        self._subgroup_cache[t_mask] = members
        return members

    def _flood(self, seed: int, gen_cols: List[int]) -> List[int]:
        seen = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for gid in frontier:
                for col in gen_cols:
                    h = int(self.cayley[gid, col])
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return list(seen)

    def coset_reps(self, T: Iterable[int]) -> np.ndarray:
        """reps[g] = min-id element of g*K_T, for every element id g."""
        t_mask = 0
        for j in T:
            t_mask |= 1 << j
        cached = self._coset_cache.get(t_mask)
        if cached is not None:
            return cached
        complement = [j for j in range(self.D + 1) if not (t_mask >> j) & 1]
        cols = self.gen_columns_for_colors(complement)
        reps = np.full(self.size, -1, dtype=np.int64)
        for gid in range(self.size):
            if reps[gid] >= 0:
                continue
            members = self._flood(gid, cols)
            reps[members] = gid  # gid is minimal: smaller ids already visited
        self._coset_cache[t_mask] = reps
        return reps

    def type_cycle_perm(self) -> np.ndarray:
        """Permutation id -> id of the conjugation-by-P automorphism."""
        if self._cycle_perm is None:
            out = np.empty(self.size, dtype=np.int64)
            for gid in range(self.size):
                out[gid] = self.id_of(self.element(gid).type_cycle())
            self._cycle_perm = out
        return self._cycle_perm

    def k_color_elements(self, j: int) -> List[Tuple[int, int]]:
        """(alpha, element id) for every element e(alpha*t) of K_{j},
        alpha running over all of F_q (alpha = 0 gives the identity)."""
        if j not in self.colors:
            raise GroupError("color %d not enumerated in this table" % j)
        r, c = generator_position(j, self.n)
        out = [(0, 0)]
        for alpha in self.ring.field.antilog:
            key = self._elementary_key(r, c, self.ring.scalar_times_t(alpha))
            out.append((alpha, self.index[key]))
        return out


def enumerate_group(
    D: int,
    ring: RingTable,
    cap: int = DEFAULT_ENUMERATION_CAP,
    colors: Optional[Sequence[int]] = None,
) -> GroupTable:
    """BFS closure of the generator subgroups; checks the SL order formula
    when all colors are used (the generation claim)."""
    table = GroupTable(ring, D, colors=colors, cap=cap)
    if colors is None:
        expected = sl_order(D + 1, ring.size)
        if table.size != expected:
            raise GroupError(
                "generators closed to %d elements; SL order formula gives %d"
                % (table.size, expected)
            )
    return table


def verify_commutator_relation(table: GroupTable) -> bool:
    """Check [e_{i,j}(a), e_{j,k}(b)] = e_{i,k}(a*b) for i, j, k distinct.

    Exhaustive over the ring when |R|^2 <= 4096, otherwise over 64 pairs
    sampled deterministically."""
    ring = table.ring
    n = table.n
    if n < 3:
        return True
    pairs: List[Tuple[int, int]]
    if ring.size ** 2 <= 4096:
        pairs = [(a, b) for a in range(ring.size) for b in range(ring.size)]
    else:
        rng = np.random.default_rng(20240811)
        pairs = [
            (int(rng.integers(ring.size)), int(rng.integers(ring.size)))
            for _ in range(64)
        ]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) != 3:
                    continue
                for a, b in pairs:
                    e1 = GroupElement.elementary(ring, n, i, j, a)
                    e2 = GroupElement.elementary(ring, n, j, k, b)
                    # char 2: each elementary matrix is its own inverse
                    comm = e1.mul(e2).mul(e1).mul(e2)
                    want = GroupElement.elementary(ring, n, i, k, ring.mul(a, b))
                    if comm != want:
                        return False
    return True


def fixed_point_free_on_link(table: GroupTable, gid: int) -> bool:
    """True iff g in K_0 \\ {Id} acts without fixed points on at least one
    of the coset families K_0/K_{0,1}, K_0/K_{0,2} (D = 2 only).

    `table` must enumerate K_0 itself (colors (1, 2)) or the full group;
    in the latter case membership in K_0 is required."""
    if table.D != 2:
        raise GroupError("fixed-point-freeness is defined for D = 2")
    k0 = table.enumerate_subgroup([0]) if table.colors == (0, 1, 2) else list(range(table.size))
    k0_set = set(k0)
    if gid not in k0_set:
        raise GroupError("element is not in K_0")
    if gid == 0:
        return False
    g = table.element(gid)
    for T in ([0, 1], [0, 2]):
        reps = table.coset_reps(T)
        free = True
        for h in k0:
            gh = table.id_of(g.mul(table.element(h)))
            if reps[gh] == reps[h]:
                free = False
                break
        if free:
            return True
    return False


__all__ = [
    "GroupError",
    "GroupCapError",
    "DEFAULT_ENUMERATION_CAP",
    "sl_order",
    "generator_position",
    "GroupElement",
    "GroupTable",
    "enumerate_group",
    "verify_commutator_relation",
    "fixed_point_free_on_link",
]
