"""Field/ring tables and the coordinate isomorphism."""

import functools
import operator
import random

import pytest

from cosetcode.algebra import (
    AlgebraError,
    FieldTable,
    RingTable,
    VectorIso,
    build_ring,
    coprimality_check,
)
from cosetcode.gf2 import BitMatrix


def _matvec(m, x):
    """m @ x over GF(2), x indexed by the columns."""
    bits = ((v & x).bit_count() & 1 for v in m.int_rows())
    return sum(b << i for i, b in enumerate(bits))


@pytest.mark.parametrize("eta", [1, 2, 3, 4, 5])
def test_field_axioms(eta):
    f = FieldTable(eta)
    q = f.q
    rng = random.Random(eta)
    elems = list(f.elements())
    # multiplicative group: omega has order q - 1, antilog/log invert
    assert len(f.antilog) == q - 1
    for i, v in enumerate(f.antilog):
        assert f.log[v] == i
    seen = {f.pow(f.omega, j) for j in range(q - 1)}
    assert seen == set(range(1, q))
    # inverses and associativity/distributivity (exhaustive for small q)
    pool = elems if q <= 8 else [rng.choice(elems) for _ in range(40)]
    for a in pool:
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in pool:
            for c in pool[:4]:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


def test_field_rejects_nonprimitive_modulus():
    with pytest.raises(AlgebraError):
        FieldTable(4, modulus=0b11111)  # x^4+x^3+x^2+x+1 has order 5


def test_ring_m1_is_the_field_with_t_primitive():
    for eta in (1, 2, 3):
        r = build_ring(eta, 1)
        assert r.size == 1 << eta
        # t generates all units
        x, seen = 1, set()
        for _ in range(r.size - 1):
            x = r.mul(x, r.t)
            seen.add(x)
        assert seen == set(range(1, r.size))


def test_ring_m2_matches_field_extension():
    # F_2[t]/(t^2+t+1) is F_4; cross-check multiplication tables
    r = build_ring(1, 2)
    f4 = FieldTable(2)
    assert r.size == 4
    for a in range(4):
        for b in range(4):
            assert r.mul(a, b) == f4.mul(a, b)
            assert RingTable.add(a, b) == a ^ b


def test_scalar_times_t_and_gamma_roundtrip():
    for eta, m in [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]:
        r = build_ring(eta, m)
        for alpha in range(r.field.q):
            assert r.gamma(r.scalar_times_t(alpha)) == alpha


def test_coprimality_check():
    assert coprimality_check(1, 1, 2)  # gcd(1, 3) = 1
    assert not coprimality_check(2, 1, 2)  # gcd(3, 3) = 3
    assert coprimality_check(3, 1, 2)  # gcd(7, 3) = 1
    assert coprimality_check(5, 1, 2)  # gcd(31, 3) = 1
    assert not coprimality_check(2, 2, 2)  # gcd(15, 3) = 3


@pytest.mark.parametrize("eta", [1, 2, 3, 5])
def test_vector_iso_maps_omega_powers_to_units(eta):
    f = FieldTable(eta)
    iso = VectorIso(f)
    for j in range(eta):
        assert iso.apply_int(f.pow(f.omega, j)) == 1 << j
    # linearity
    rng = random.Random(eta)
    for _ in range(20):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert iso.apply_int(a ^ b) == iso.apply_int(a) ^ iso.apply_int(b)


def _brute_force_inverse(f):
    """U as an eta x eta matrix: column k is the coordinate pattern u
    whose omega powers XOR to the bit pattern 2^k, found by search."""
    powers = [f.pow(f.omega, j) for j in range(f.eta)]

    def element(u):
        return functools.reduce(operator.xor, (p for j, p in enumerate(powers) if u >> j & 1), 0)

    columns = [next(u for u in range(f.q) if element(u) == 1 << k) for k in range(f.eta)]
    return BitMatrix.from_int_rows(columns, f.eta).transpose()


@pytest.mark.parametrize("eta", [1, 2, 3, 4, 5])
def test_vector_iso_table_matches_matrix(eta):
    f = FieldTable(eta)
    iso = VectorIso(f)
    u = _brute_force_inverse(f)
    for x in range(f.q):
        assert iso.apply_int(x) == _matvec(u, x)
    for bad in (-1, f.q):
        with pytest.raises(AlgebraError):
            iso.apply_int(bad)


def test_vector_iso_rejects_dependent_omega_powers():
    class Degenerate(FieldTable):
        def pow(self, a, e):  # every omega power the same element
            return 1

    with pytest.raises(AlgebraError, match="basis"):
        VectorIso(Degenerate(2))


def test_build_ring_rejects_nonprimitive_phi():
    # t^2 + 1 = (t + 1)^2 over F_2 is not even irreducible
    with pytest.raises(AlgebraError):
        build_ring(1, 2, phi=[1, 0, 1])


@pytest.mark.parametrize("eta, phi, bad", [(2, [6, 1], 6), (1, [9, 1], 9), (2, [1, -1, 1], -1)])
def test_build_ring_rejects_phi_coefficients_outside_the_field(eta, phi, bad):
    with pytest.raises(AlgebraError, match="coefficient %d is not in F_%d" % (bad, 1 << eta)):
        build_ring(eta, len(phi) - 1, phi)
