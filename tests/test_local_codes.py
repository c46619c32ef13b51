"""Reed-Muller local codes, duals, and divisibility properties."""

import math
import random
import time

import pytest

from cosetcode.gf2 import EchelonBasis
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


def _codewords(c):
    """All 2^k codewords of a small code."""
    words = [0]
    for g in c.rows:
        words += [w ^ g for w in words]
    return words


def _contains(c, v):
    return not EchelonBasis(c.rows).reduce(v)


def _enumerated_level(c):
    """The divisibility level straight from the definition: the least
    2-adic valuation of a nonzero codeword weight, capped at n's bit
    length."""
    level = max(1, c.n.bit_length())
    for w in _codewords(c):
        wt = w.bit_count()
        if wt:
            level = min(level, (wt & -wt).bit_length() - 1)
    return level


def _random_code(rng, n, k):
    return LinearCode([rng.getrandbits(n) for _ in range(k)], n)


@pytest.mark.parametrize(
    "r,eta", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 5)]
)
def test_reed_muller_dimensions(r, eta):
    c = reed_muller(r, eta)
    assert c.n == 1 << eta
    assert c.k == _rm_dim(r, eta)


def test_repetition_codes():
    assert reed_muller(0, 1).rows == [0b11]
    assert set(_codewords(reed_muller(0, 2))) == {0, 0b1111}


def test_dual_code_dimensions_and_orthogonality():
    c = reed_muller(1, 3)
    d = dual_code(c)
    assert c.k + d.k == c.n
    for u in _codewords(c):
        for v in _codewords(d):
            assert (u & v).bit_count() % 2 == 0


def test_dual_of_the_full_code_is_the_zero_code():
    d = dual_code(reed_muller(2, 2))  # all of F_2^4
    assert (d.n, d.k) == (4, 0)
    assert d.rows == []
    assert d == LinearCode([], 4)


def test_divisibility_level_values():
    assert divisibility_level(reed_muller(0, 1)) == 1
    assert divisibility_level(reed_muller(1, 3)) == 2
    assert divisibility_level(reed_muller(0, 2)) == 2
    assert divisibility_level(reed_muller(1, 2)) == 1


@pytest.mark.parametrize("r,eta,k,level", [(3, 6, 42, 1), (2, 7, 29, 3)])
def test_divisibility_level_past_enumeration(r, eta, k, level):
    # codes too large to enumerate; RM(r, eta) is exactly
    # 2^(ceil(eta / r) - 1)-divisible (McEliece)
    c = reed_muller(r, eta)
    assert c.k == k
    assert divisibility_level(c) == level == -(-eta // r) - 1


def test_divisibility_level_matches_enumeration():
    rng = random.Random(20261019)
    for _ in range(300):
        n = rng.randint(1, 12)
        c = _random_code(rng, n, rng.randint(0, min(n, 8)))
        assert divisibility_level(c) == _enumerated_level(c), (n, c.rows)
    for r, eta in [(0, 1), (0, 3), (1, 3), (1, 4), (2, 4), (3, 3)]:
        c = reed_muller(r, eta)
        assert divisibility_level(c) == _enumerated_level(c)


def test_divisibility_level_of_rm26_is_fast():
    c = reed_muller(2, 6)  # 2^22 codewords: no enumeration
    start = time.perf_counter()
    assert divisibility_level(c) == 2
    assert time.perf_counter() - start < 0.1


def test_codes_are_equal_iff_their_spans_are():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 10)
        c = _random_code(rng, n, rng.randint(0, n))
        # another spanning set of the same space: random codewords, zero
        # and repeated ones included, until they reach full rank
        words, other = _codewords(c), []
        while len(EchelonBasis(other)) < c.k:
            other.append(rng.choice(words))
        d = LinearCode(other, n)
        assert d == c and hash(d) == hash(c)
        assert dual_code(dual_code(c)) == c
        if c.k < n:
            extra = next(v for v in range(1, 1 << n) if not _contains(c, v))
            assert LinearCode(c.rows + [extra], n) != c
    assert LinearCode([0b01], 2) != LinearCode([0b10], 2)
    assert LinearCode([0b1], 1) != LinearCode([0b01], 2)  # same rows, other length


def test_zero_code():
    z = LinearCode([0, 0], 5)
    assert (z.n, z.k, z.rows) == (5, 0, [])
    assert z == LinearCode([], 5) and hash(z) == hash(LinearCode([], 5))
    assert dual_code(z) == LinearCode([1 << i for i in range(5)], 5)
    assert dual_code(dual_code(z)) == z
    assert divisibility_level(z) == 3


def test_rm13_self_dual():
    c = reed_muller(1, 3)
    assert dual_code(c) == c


def test_rm25_self_dual():
    c = reed_muller(2, 5)
    assert dual_code(c) == c


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
    assert star_product_code(c, 1) == c
    for row in star_product_code(c, 1).rows:
        assert _contains(dual, row)
    sq = star_product_code(c, 2)
    assert sq == reed_muller(2, 3)
    assert not all(_contains(dual, row) for row in sq.rows)
    assert star_product_code(c, 3) == reed_muller(3, 3)


def test_star_power_of_the_zero_code_is_zero():
    for ell in (1, 2, 3):
        sq = star_product_code(LinearCode([], 5), ell)
        assert (sq.n, sq.k) == (5, 0)


def test_rows_are_the_reduced_span():
    c = LinearCode([0b011, 0b110], 3)
    assert c.rows == [0b011, 0b101]  # pivots at the highest bits, reduced
    assert _contains(c, 0b101)
    assert not _contains(c, 0b100)


def test_rows_wider_than_n_are_refused():
    for rows in ([0b1000], [0b001, 0b1000], [-1]):
        with pytest.raises(LocalCodeError):
            LinearCode(rows, 3)


def test_invalid_reed_muller_order():
    with pytest.raises(LocalCodeError):
        reed_muller(3, 2)
