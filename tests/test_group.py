"""Special-linear group enumeration over the coefficient rings."""

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
    for gid in ids:
        g = table2.element(int(gid))
        assert g.det() == 1
        h = g.inverse()
        assert g.mul(h).entries == table2.element(0).entries
        assert table2.id_of(h) < table2.size


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
    # it permutes generator colors cyclically: check on one generator
    pairs = table2.k_color_elements(1)
    alpha, gid = pairs[1]
    cycled = table2.element(gid).type_cycle()
    r, c = generator_position(2, 3)
    assert cycled.entries[r][c] != 0


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
    with pytest.raises(GroupCapError):
        enumerate_group(2, ring2, cap=10)


def test_over_wide_table_refused_before_any_product(monkeypatch):
    # SL_4 over 16 elements needs 16 digits of 4 bits: past 63-bit keys
    def multiply(*args):
        raise AssertionError("an element was multiplied")

    monkeypatch.setattr(GroupTable, "_mul_batch", multiply)
    monkeypatch.setattr(GroupElement, "mul", multiply)
    with pytest.raises(GroupCapError):
        GroupTable(build_ring(2, 2), 3)


def test_subgroup_only_table_rejects_missing_color():
    ring = build_ring(1, 1)
    k0 = GroupTable(ring, 2, colors=(1, 2))
    assert k0.size == 8
    with pytest.raises(GroupError):
        k0.k_color_elements(0)


def test_group_element_validates_determinant(ring2):
    with pytest.raises(GroupError):
        GroupElement(ring2, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
