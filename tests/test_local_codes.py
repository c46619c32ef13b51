"""Reed-Muller local codes, duals, and divisibility properties."""

import math

import pytest

from cosetcode.gf2 import BitMatrix, BitVector, row_space_equal
from cosetcode.local_codes import (
    LinearCode,
    LocalCodeError,
    divisibility_level,
    dual_code,
    is_multi_orthogonal,
    reed_muller,
    star_product_code,
)


def _rm_dim(r, eta):
    return sum(math.comb(eta, i) for i in range(r + 1))


@pytest.mark.parametrize(
    "r,eta", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 5)]
)
def test_reed_muller_dimensions(r, eta):
    c = reed_muller(r, eta)
    assert c.n == 1 << eta
    assert c.k == _rm_dim(r, eta)


def test_repetition_codes():
    assert reed_muller(0, 1).codewords() == [0b00, 0b11]
    assert set(reed_muller(0, 2).codewords()) == {0, 0b1111}


def test_dual_code_dimensions_and_orthogonality():
    c = reed_muller(1, 3)
    d = dual_code(c)
    assert c.k + d.k == c.n
    for u in c.codewords():
        for v in d.codewords():
            assert (u & v).bit_count() % 2 == 0


def test_dual_of_the_full_code_is_the_zero_code():
    d = dual_code(reed_muller(2, 2))  # all of F_2^4
    assert (d.n, d.k) == (4, 0)
    assert (d.generator.rows, d.generator.cols) == (0, 4)


def test_divisibility_level_values():
    assert divisibility_level(reed_muller(0, 1)) == 1
    assert divisibility_level(reed_muller(1, 3)) == 2
    assert divisibility_level(reed_muller(0, 2)) == 2
    assert divisibility_level(reed_muller(1, 2)) == 1


@pytest.mark.parametrize("r,eta,k,level", [(3, 6, 42, 1), (2, 7, 29, 3)])
def test_divisibility_level_past_enumeration(r, eta, k, level):
    # k > 24 takes the basis-tuple criterion; RM(r, eta) is exactly
    # 2^(ceil(eta / r) - 1)-divisible (McEliece)
    c = reed_muller(r, eta)
    assert c.k == k
    assert divisibility_level(c) == level == -(-eta // r) - 1


def test_rm13_self_dual():
    c = reed_muller(1, 3)
    d = dual_code(c)
    assert row_space_equal(c.generator, d.generator)


def test_rm25_self_dual():
    c = reed_muller(2, 5)
    assert row_space_equal(c.generator, dual_code(c).generator)


def test_star_and_multi_orthogonality():
    c = reed_muller(1, 3)
    assert is_multi_orthogonal([c, c], 2)
    # RM(1,2) is not 2-orthogonal: two distinct weight-2 words can overlap oddly
    assert not is_multi_orthogonal([reed_muller(1, 2)] * 2, 2)


def test_star_product_code_inside_dual():
    # one-factor star power of RM(1,3) (the two-dimensional case) lies in
    # its dual; the two-factor power RM(1,3)*RM(1,3) = RM(2,3) does not
    c = reed_muller(1, 3)
    dual = dual_code(c)
    for row in star_product_code(c, 1).generator.int_rows():
        assert dual.contains(BitVector(c.n, row))
    sq = star_product_code(c, 2)
    assert sq.k == reed_muller(2, 3).k
    assert not all(
        dual.contains(BitVector(c.n, row)) for row in sq.generator.int_rows()
    )


def test_star_power_of_the_zero_code_is_zero():
    for ell in (1, 2, 3):
        sq = star_product_code(LinearCode(BitMatrix.zeros(0, 5)), ell)
        assert (sq.n, sq.k) == (5, 0)


def test_contains_and_from_int_rows():
    c = LinearCode.from_int_rows([0b011, 0b110], 3)
    assert c.contains(BitVector(3, 0b101))
    assert not c.contains(BitVector(3, 0b100))


def test_invalid_reed_muller_order():
    with pytest.raises(LocalCodeError):
        reed_muller(3, 2)
