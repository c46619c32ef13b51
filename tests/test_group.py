"""Special-linear group enumeration over the coefficient rings."""

import hashlib
import itertools

import numpy as np
import pytest

from cosetcode.algebra import build_ring
from cosetcode.group import (
    GroupCapError,
    GroupError,
    GroupElement,
    GroupTable,
    enumerate_group,
    fixed_point_free_on_link,
    generated_field_size,
    generator_position,
    sl_order,
    verify_commutator_relation,
)


def test_sl_order_formula():
    assert sl_order(2, 2) == 6
    assert sl_order(3, 2) == 168
    assert sl_order(3, 4) == 60480
    assert sl_order(3, 8) == 16482816


def test_generator_positions():
    # color j sits at (j-1, j); color 0 wraps to (D, 0)
    assert generator_position(1, 3) == (0, 1)
    assert generator_position(2, 3) == (1, 2)
    assert generator_position(0, 3) == (2, 0)


def test_enumeration_matches_order_formula(table2):
    assert table2.size == sl_order(3, 2)
    # identity is element 0
    ident = table2.element(0)
    assert ident.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_group_closure_and_inverses(table2):
    rng = np.random.default_rng(9)
    ids = rng.integers(0, table2.size, size=25)
    elements = {table2.element(i) for i in range(table2.size)}
    for gid in ids:
        g = table2.element(int(gid))
        assert g.det() == 1
        h = g.inverse()
        assert g.mul(h).entries == table2.element(0).entries
        assert h in elements


def test_element_orders_divide_group_order(table2):
    for gid in range(0, table2.size, 17):
        o = table2.element_order(gid)
        assert sl_order(3, 2) % o == 0


def test_commutator_relation(table2):
    assert verify_commutator_relation(table2)


def test_type_cycle_is_order_three(table2):
    perm = table2.type_cycle_perm()
    triple = perm[perm[perm]]
    assert (triple == np.arange(table2.size)).all()
    # it permutes generator colors cyclically: check on one generator,
    # conjugated here by moving entry (i, j) to (i+1, j+1) mod 3
    pairs = table2.k_color_elements(1)
    alpha, gid = pairs[1]
    e = table2.element(gid).entries
    cycled = tuple(tuple(e[(i - 1) % 3][(j - 1) % 3] for j in range(3)) for i in range(3))
    assert table2.element(int(perm[gid])).entries == cycled
    r, c = generator_position(2, 3)
    assert cycled[r][c] != 0


def test_coset_partition(table2):
    for T in ([0], [1], [0, 1]):
        reps = table2.coset_reps(T)
        sizes = {}
        for rep in reps:
            sizes[int(rep)] = sizes.get(int(rep), 0) + 1
        counts = set(sizes.values())
        assert len(counts) == 1
        size = counts.pop()
        assert size * len(sizes) == table2.size
        members = table2.enumerate_subgroup(T)
        assert len(members) == size


def test_left_mul_perm_is_free(table2):
    perm = table2.left_mul_perm(5)
    assert len(set(int(v) for v in perm)) == table2.size
    assert (perm != np.arange(table2.size)).all()  # free action


def test_k_color_elements(table2, ring2):
    pairs = table2.k_color_elements(0)
    assert len(pairs) == 1 + len(ring2.field.antilog)
    assert pairs[0] == (0, 0)


def test_fixed_point_free_on_link_q2(table2):
    k0 = table2.enumerate_subgroup([0])
    assert len(k0) == 8  # q^3 unitriangular elements
    assert not fixed_point_free_on_link(table2, 0)
    assert all(fixed_point_free_on_link(table2, h) for h in k0 if h != 0)


def test_enumeration_cap_refusal(ring2):
    # SL_3(F_2) moves 9 one-bit digits: a 512-entry id table
    with pytest.raises(GroupCapError, match="id table"):
        enumerate_group(2, ring2, cap=10)
    with pytest.raises(GroupCapError, match="exceeded cap 40"):
        enumerate_group(2, ring2, cap=40)


def _refuse_products(monkeypatch):
    def multiply(*args):
        raise AssertionError("an element was multiplied")

    monkeypatch.setattr(GroupTable, "_enumerate", multiply)
    monkeypatch.setattr(GroupElement, "mul", multiply)


def test_over_wide_table_refused_before_any_product(monkeypatch):
    # SL_4 over 16 elements needs 16 digits of 4 bits: past 63-bit keys
    _refuse_products(monkeypatch)
    with pytest.raises(GroupCapError):
        GroupTable(build_ring(2, 2), 3)


def test_oversized_id_table_refused_before_any_product(monkeypatch):
    _refuse_products(monkeypatch)
    # SL_3(F_8) moves 9 digits of 3 bits: 2^27 entries > 16 * 2^22
    with pytest.raises(GroupCapError, match="2\\^27"):
        GroupTable(build_ring(3, 1), 2)
    # SL_3(F_16) moves 9 digits of 4 bits: past 32-bit compact keys at any cap
    with pytest.raises(GroupCapError, match="2\\^36"):
        GroupTable(build_ring(4, 1), 2, cap=1 << 40)


def test_generated_field_predicts_the_closure():
    # m = 1: R_1 is F_q itself
    assert [generated_field_size(q, 1, 2) for q in (2, 4, 8, 16, 32)] == [2, 4, 8, 16, 32]
    # q=2, m=2: t^3 = 1, so the generators close to a copy of SL_3(F_2)
    ring = build_ring(1, 2)
    assert generated_field_size(2, 2, 2) == 2
    assert GroupTable(ring, 2).size == sl_order(3, 2)
    with pytest.raises(GroupError, match="closed to 168 elements"):
        enumerate_group(2, ring)
    # t^{D+1} primitive when gcd(q^m - 1, D + 1) = 1; at q=4, m=2 it has
    # order 5, which does not divide 4 - 1
    assert generated_field_size(2, 2, 3) == 4
    assert generated_field_size(2, 3, 2) == 8
    assert generated_field_size(4, 2, 2) == 16
    assert generated_field_size(2, 2, 5) == 2  # t^6 = 1


def test_subgroup_only_table_rejects_missing_color():
    ring = build_ring(1, 1)
    k0 = GroupTable(ring, 2, colors=(1, 2))
    assert k0.size == 8
    with pytest.raises(GroupError):
        k0.k_color_elements(0)


def test_empty_colors_refused_before_enumeration(monkeypatch):
    def enumerate_(*args):
        raise AssertionError("group enumeration started")

    monkeypatch.setattr(GroupTable, "_enumerate", enumerate_)
    with pytest.raises(GroupError, match="colors is empty"):
        GroupTable(build_ring(1, 1), 2, colors=())


def test_group_element_validates_determinant(ring2):
    with pytest.raises(GroupError):
        GroupElement(ring2, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])


# sha256 (first 16 hex digits) of the bytes of keys (uint64), cayley,
# _parent, _gen and _bounds (int64): every downstream label rests on this
# numbering
NUMBERING_DIGESTS = {
    "table2": (
        "528970347d3517e6", "95014ca498f05d28", "0afb9625faeede64",
        "9da9dcd235eeafab", "1150451556d67a3b",
    ),
    "table_d3": (
        "151822e1dc370bcd", "15dd12453a908b2c", "4c76a738c09df41d",
        "97e2fe97bb3c8fad", "ada032423af48aa9",
    ),
    "k0_table8": (
        "d6479c3e016331a9", "b50a4924237c26d7", "9ef6d4594588a7f0",
        "418c7d2d8b570190", "f28d0db72339289a",
    ),
    "k0_table16": (
        "d76994f5d1e2f54f", "be8fd3d9baebd3e6", "104842665f156275",
        "36d978127b5e8c8c", "7e99b7f97c92b0d9",
    ),
    "inst4": (
        "509d53dbfc862e96", "fdbdbeec150b3eed", "920c83db286e3759",
        "a10ff48168aab12e", "454391d9575a45c3",
    ),
}


@pytest.mark.parametrize("name", sorted(NUMBERING_DIGESTS))
def test_numbering_is_pinned(name, request):
    if name == "k0_table16":
        table = GroupTable(build_ring(4, 1), 2, colors=(1, 2))
    elif name == "inst4":
        table = request.getfixturevalue("inst4")["table"]
    else:
        table = request.getfixturevalue(name)
    arrays = [table.keys, table.cayley, table._parent, table._gen, np.array(table._bounds)]
    assert [a.dtype for a in arrays[1:]] == [np.dtype(np.int64)] * 4
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in arrays)
    assert digests == NUMBERING_DIGESTS[name]


# -- references: the product loops the Cayley-table queries replaced --------


def _ref_enumerate(table):
    """The dict enumeration loop: BFS from the identity with GroupElement
    products, each new element taking the next id at its first
    occurrence.  Returns (elements, index, cayley rows)."""
    ring, n = table.ring, table.n
    gens = []
    for color, alpha, _ in table.gens:
        r, c = generator_position(color, n)
        gens.append(GroupElement.elementary(ring, n, r, c, ring.scalar_times_t(alpha)))
    elems = [GroupElement.elementary(ring, n, 0, 1, 0)]
    index = {elems[0]: 0}
    cayley = []
    for g in elems:  # grows while it is read: a queue in id order
        row = []
        for s in gens:
            p = g.mul(s)
            if p not in index:
                index[p] = len(elems)
                elems.append(p)
            row.append(index[p])
        cayley.append(row)
    return elems, index, cayley


def _ref_flood_reps(table, T):
    """reps[g] = min id of g*K_T by one BFS per coset over the Cayley table."""
    cols = table.gen_columns_for_colors(j for j in range(table.D + 1) if j not in T)
    reps = np.full(table.size, -1, dtype=np.int64)
    for gid in range(table.size):
        if reps[gid] >= 0:
            continue
        seen, frontier = {gid}, [gid]
        while frontier:
            nxt = []
            for h in frontier:
                for col in cols:
                    x = int(table.cayley[h, col])
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
            frontier = nxt
        reps[list(seen)] = gid
    return reps


def _conjugate_by_p(g):
    n = g.n
    e = g.entries
    return GroupElement(g.ring, [[e[(i - 1) % n][(j - 1) % n] for j in range(n)] for i in range(n)])


def _subsets(D):
    return [list(T) for r in range(D + 2) for T in itertools.combinations(range(D + 1), r)]


# elements whose left multiplication is checked: all, or 1 plus a sample
SAMPLES = {"table2": None, "k0_table8": 16, "table_d3": 2}


@pytest.fixture(scope="module", params=sorted(SAMPLES))
def with_ref(request):
    table = request.getfixturevalue(request.param)
    return request.param, table, _ref_enumerate(table)


def test_enumeration_matches_dict_loop(with_ref):
    _, table, (elems, _, cayley) = with_ref
    assert table.size == len(elems)
    assert [table.element(i) for i in range(table.size)] == elems
    assert np.array_equal(table.cayley, np.array(cayley, dtype=np.int64))
    # distinct ids hold distinct elements
    assert np.unique(table.keys).size == table.size


def test_coset_reps_and_subgroups_match_flood(with_ref):
    _, table, _ = with_ref
    for T in _subsets(table.D):
        ref = _ref_flood_reps(table, T)
        assert np.array_equal(table.coset_reps(T), ref), T
        assert table.enumerate_subgroup(T) == np.flatnonzero(ref == 0).tolist(), T


def test_left_mul_orders_and_link_action_match_products(with_ref):
    name, table, (elems, index, _) = with_ref
    k = SAMPLES[name]
    rng = np.random.default_rng(3)
    gids = range(table.size) if k is None else [1, *rng.integers(2, table.size, k).tolist()]
    if table.D == 2:
        full = table.colors == (0, 1, 2)
        k0 = np.flatnonzero(_ref_flood_reps(table, [0]) == 0) if full else np.arange(table.size)
        link_reps = [_ref_flood_reps(table, T) for T in ([0, 1], [0, 2])]
    for gid in gids:
        g = elems[gid]
        perm = table.left_mul_perm(gid)
        assert perm.tolist() == [index[g.mul(h)] for h in elems], gid
        acc, order = g, 1
        while acc != elems[0]:
            acc, order = acc.mul(g), order + 1
        assert table.element_order(gid) == order, gid
        if table.D == 2 and gid in k0:
            free = any(all(reps[perm[h]] != reps[h] for h in k0) for reps in link_reps)
            assert fixed_point_free_on_link(table, gid) == free, gid


def test_type_cycle_matches_conjugation(with_ref):
    _, table, (elems, index, _) = with_ref
    if table.colors != tuple(range(table.n)):
        with pytest.raises(GroupError):
            table.type_cycle_perm()
        return
    ref = [index[_conjugate_by_p(g)] for g in elems]
    assert table.type_cycle_perm().tolist() == ref


def test_coset_unions_match_set_products(with_ref):
    # K_A K_j, as verify_structure reads it: the union of the cosets a K_j
    _, table, (elems, index, _) = with_ref
    for j in table.colors:
        reps = table.coset_reps([j])
        kj = table.enumerate_subgroup([j])
        for A in _subsets(table.D):
            if not A or j in A:
                continue
            ka = table.enumerate_subgroup(A)
            ref = {index[elems[a].mul(elems[b])] for a in ka for b in kj}
            union = np.flatnonzero(np.isin(reps, reps[ka]))
            assert set(union.tolist()) == ref, (A, j)


def test_k_color_elements_match_elementary_matrices(with_ref):
    _, table, (_, index, _) = with_ref
    ring, n = table.ring, table.n
    for j in table.colors:
        r, c = generator_position(j, n)
        ref = [(0, 0)] + [
            (alpha, index[GroupElement.elementary(ring, n, r, c, ring.scalar_times_t(alpha))])
            for alpha in ring.field.antilog
        ]
        assert table.k_color_elements(j) == ref


# -- reference: the per-block product loop the byte tables replaced --------


class _RefEnumeration(GroupTable):
    """GroupTable with the product loop before the affine byte tables: a
    color block's products come from one gather per matrix row of
    `mul_table[:, vs]`, the block's generator values vs as columns."""

    def _enumerate(self, digits):
        n, kb, ngen = self.n, self.kbits, len(self.gens)
        mask = np.uint32((1 << kb) - 1)
        shift = {d: kb * k for k, d in enumerate(digits)}
        blocks = []  # (first column, end column, constant term, [(digit shift, table)])
        lo = 0
        for color in self.colors:
            r, c = generator_position(color, n)
            vs = [v for col, _, v in self.gens if col == color]
            times = self.ring.mul_table[:, vs].astype(np.uint32)
            const, terms = np.zeros(len(vs), dtype=np.uint32), []
            for i in range(n):
                if (i, c) not in shift:
                    continue
                table = times << np.uint32(shift[i, c])
                if (i, r) in shift:
                    terms.append((np.uint32(shift[i, r]), table))
                else:
                    const ^= table[int(i == r)]
            blocks.append((lo, lo + len(vs), const, terms))
            lo += len(vs)
        index = np.full(1 << (kb * len(digits)), -1, dtype=np.int64)
        id_key = sum(1 << s for (i, c), s in shift.items() if i == c)
        index[id_key] = 0
        batch = np.array([id_key], dtype=np.uint32)
        keys, parents, gen_cols, cayley = [batch], [np.array([-1])], [np.array([-1])], []
        bounds = [0, 1]
        while True:
            start, size = bounds[-2], bounds[-1]
            products = np.empty((batch.size, ngen), dtype=np.uint32)
            for lo, hi, const, terms in blocks:
                out = products[:, lo:hi]
                np.bitwise_xor(batch[:, None], const, out=out)
                for src, table in terms:
                    out ^= table[(batch >> src) & mask]
            products = products.ravel()
            ids = index[products]
            fresh = np.flatnonzero(ids < 0)
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
        compact = np.concatenate(keys)
        fixed = sum(1 << (kb * (i * n + i)) for i in range(n) if (i, i) not in shift)
        self.keys = np.full(compact.size, fixed, dtype=np.uint64)
        for (i, c), s in shift.items():
            digit = ((compact >> np.uint32(s)) & mask).astype(np.uint64)
            self.keys |= digit << np.uint64(kb * (i * n + c))
        self.size = int(self.keys.size)
        self.cayley = np.concatenate(cayley)
        self._parent = np.concatenate(parents)
        self._gen = np.concatenate(gen_cols)
        self._bounds = bounds


# (q exponent, m, D, colors): SL_3(F_2), SL_3(F_4), K_0 at q = 8 and 16,
# one- and two-color subsets, R_2 over F_2 (m = 2), SL_4(F_2)
TABLE_CONFIGS = [
    (1, 1, 2, None),
    (2, 1, 2, None),
    (3, 1, 2, (1, 2)),
    (4, 1, 2, (1, 2)),
    (2, 1, 2, (0,)),
    (3, 1, 2, (2,)),
    (2, 1, 2, (0, 1)),
    (3, 1, 2, (0, 2)),
    (1, 2, 2, None),
    (2, 2, 2, (1,)),
    (1, 1, 3, None),
    (1, 1, 3, (0, 2)),
]


@pytest.mark.parametrize("config", TABLE_CONFIGS, ids=str)
def test_byte_tables_match_the_per_block_loop(config):
    e, m, D, colors = config
    ring = build_ring(e, m)
    got = GroupTable(ring, D, colors=colors)
    want = _RefEnumeration(ring, D, colors=colors)
    for name in ("keys", "cayley", "_parent", "_gen"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got._bounds == want._bounds
