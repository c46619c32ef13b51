"""Finite-field and ring arithmetic: F_q = F_{2^eta} and R_m = F_q[t]/(phi).

Field elements are ints whose bits are polynomial coefficients over F_2.
Ring elements are ints whose base-q digits (eta-bit fields) are the
coefficients of 1, t, ..., t^{m-1}; addition is XOR in both cases.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np


class AlgebraError(ValueError):
    """Raised for invalid field/ring parameters."""


#: Primitive polynomials over F_2 (bit i = coefficient of x^i), chosen so
#: the class of x generates the multiplicative group.
PRIMITIVE_F2_POLY = {
    1: 0b11,        # x + 1
    2: 0b111,       # x^2 + x + 1
    3: 0b1011,      # x^3 + x + 1
    4: 0b10011,     # x^4 + x + 1
    5: 0b100101,    # x^5 + x^2 + 1
    6: 0b1000011,   # x^6 + x + 1
}


class FieldTable:
    """Arithmetic tables for F_q, q = 2^eta, with generator omega."""

    def __init__(self, eta: int, modulus: Optional[int] = None):
        if eta < 1:
            raise AlgebraError("eta must be >= 1")
        if modulus is None:
            if eta not in PRIMITIVE_F2_POLY:
                raise AlgebraError("no shipped modulus for eta=%d" % eta)
            modulus = PRIMITIVE_F2_POLY[eta]
        if modulus.bit_length() != eta + 1:
            raise AlgebraError("modulus degree must equal eta")
        self.eta = eta
        self.q = 1 << eta
        self.modulus = modulus
        if eta == 1:
            # F_2: trivial multiplicative group, omega = 1.
            self.omega = 1
            self.antilog = [1]
            self.log = {1: 0}
        else:
            self.omega = 0b10  # the class of x
            antilog: List[int] = []
            x = 1
            for _ in range(self.q - 1):
                antilog.append(x)
                x <<= 1
                if x >> eta:
                    x ^= modulus
            if x != 1 or len(set(antilog)) != self.q - 1:
                raise AlgebraError(
                    "modulus 0x%x is not primitive (orbit length %d)"
                    % (modulus, len(set(antilog)))
                )
            self.antilog = antilog
            self.log = {v: i for i, v in enumerate(antilog)}

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.antilog[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise AlgebraError("zero has no inverse")
        return self.antilog[(-self.log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return self.antilog[(self.log[a] * e) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:
        return "FieldTable(eta=%d, modulus=0x%x)" % (self.eta, self.modulus)


class RingTable:
    """R_m = F_q[t]/(phi) with phi primitive, so t generates R_m^x.

    phi is given as a list of m+1 field elements [c_0, ..., c_m] with
    c_m = 1 (monic).  For m = 1 the ring is F_q itself and the class of
    t equals the field element c_0 (char 2: t = -c_0 = c_0).
    """

    def __init__(self, field: FieldTable, m: int, phi: List[int]):
        if m < 1:
            raise AlgebraError("m must be >= 1")
        if len(phi) != m + 1 or phi[m] != 1:
            raise AlgebraError("phi must be monic of degree m")
        for c in phi:
            if not 0 <= c < field.q:
                raise AlgebraError("phi coefficient %d is not in F_%d" % (c, field.q))
        self.field = field
        self.eta = field.eta
        self.m = m
        self.phi = list(phi)
        self.size = field.q ** m
        self.digit_mask = field.q - 1
        if m == 1:
            self.t = phi[0]
        else:
            self.t = 1 << self.eta
        orbit = self._t_orbit_length()
        if orbit != self.size - 1:
            raise AlgebraError(
                "phi is not primitive: t-orbit length %d != %d"
                % (orbit, self.size - 1)
            )
        self.mul_table: Optional[np.ndarray] = None
        if self.size <= 1024:
            tbl = np.zeros((self.size, self.size), dtype=np.uint32)
            for a in range(self.size):
                for b in range(a, self.size):
                    p = self._mul_poly(a, b)
                    tbl[a, b] = p
                    tbl[b, a] = p
            self.mul_table = tbl

    # -- encoding helpers ----------------------------------------------

    def coeff(self, r: int, i: int) -> int:
        """Coefficient of t^i of the ring element r."""
        return (r >> (i * self.eta)) & self.digit_mask

    def from_coeffs(self, coeffs: List[int]) -> int:
        r = 0
        for i, c in enumerate(coeffs):
            r |= (c & self.digit_mask) << (i * self.eta)
        return r

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def _mul_poly(self, a: int, b: int) -> int:
        f = self.field
        m, eta = self.m, self.eta
        # schoolbook product, then reduce degrees m..2m-2 by phi
        prod = [0] * (2 * m - 1)
        for i in range(m):
            ai = (a >> (i * eta)) & self.digit_mask
            if not ai:
                continue
            for j in range(m):
                bj = (b >> (j * eta)) & self.digit_mask
                if bj:
                    prod[i + j] ^= f.mul(ai, bj)
        for d in range(2 * m - 2, m - 1, -1):
            c = prod[d]
            if not c:
                continue
            prod[d] = 0
            # t^d = t^{d-m} * (phi - t^m) = t^{d-m} * sum_{i<m} phi_i t^i
            for i in range(m):
                if self.phi[i]:
                    prod[d - m + i] ^= f.mul(c, self.phi[i])
        return self.from_coeffs(prod[:m])

    def mul(self, a: int, b: int) -> int:
        if self.mul_table is not None:
            return int(self.mul_table[a, b])
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise AlgebraError("zero has no inverse")
        # t is primitive, so powers of t enumerate R_m^x; invert by orbit
        acc, x = 1, a
        # a^(size-2) by square and multiply
        e = self.size - 2
        while e:
            if e & 1:
                acc = self.mul(acc, x)
            x = self.mul(x, x)
            e >>= 1
        return acc

    def _t_orbit_length(self) -> int:
        x = self.t
        seen = 1
        while x != 1:
            x = self._mul_poly(x, self.t)
            seen += 1
            if seen > self.size:
                return seen  # degenerate (zero divisor hit would loop)
        return seen

    def scalar_times_t(self, alpha: int) -> int:
        """The ring element alpha * t for alpha in F_q."""
        return self.mul(alpha, self.t) if self.m == 1 else alpha << self.eta

    def gamma(self, r: int) -> int:
        """Coefficient-of-t extraction F_q <- R_m (the map gamma).

        For m >= 2 this is the literal t-coefficient; for m = 1, where
        elements are stored as their field value alpha*t, it recovers
        alpha = r * t^{-1}.
        """
        if self.m == 1:
            return self.field.mul(r, self.field.inv(self.t)) if r else 0
        return self.coeff(r, 1)

    def __repr__(self) -> str:
        return "RingTable(eta=%d, m=%d, size=%d)" % (self.eta, self.m, self.size)


def _default_phi(field: FieldTable, m: int) -> List[int]:
    """Deterministic primitive phi: for m=1, t + omega; else lexicographic
    search over monic polynomials validated by the t-orbit test."""
    if m == 1:
        return [field.omega, 1]
    for code in range(field.q ** m):
        coeffs = []
        c = code
        for _ in range(m):
            coeffs.append(c % field.q)
            c //= field.q
        if coeffs[0] == 0:
            continue
        phi = coeffs + [1]
        try:
            RingTable(field, m, phi)
        except AlgebraError:
            continue
        return phi
    raise AlgebraError("no primitive polynomial found (eta=%d, m=%d)" % (field.eta, m))


def build_ring(eta: int, m: int, phi: Optional[List[int]] = None) -> RingTable:
    """Construct R_m = F_{2^eta}[t]/(phi); phi defaults to a shipped choice."""
    if m < 1:
        raise AlgebraError("ring extension degree m must be at least 1, got %d" % m)
    field = FieldTable(eta)
    if phi is None:
        phi = _default_phi(field, m)
    return RingTable(field, m, phi)


def coprimality_check(eta: int, m: int, D: int) -> bool:
    """True iff gcd(2^{eta m} - 1, D + 1) = 1."""
    return math.gcd((1 << (eta * m)) - 1, D + 1) == 1


class VectorIso:
    """The linear bijection U : F_q -> F_2^eta with U(omega^j) = e_{j+1}."""

    def __init__(self, field: FieldTable):
        self.field = field
        self.eta = field.eta
        # U^{-1}(u) for every coordinate pattern u: the XOR of omega^j over
        # the set bits j of u; U is the inverse permutation
        powers = [field.pow(field.omega, j) for j in range(self.eta)]
        elements = [0] * field.q
        for u in range(1, field.q):
            low = u & -u
            elements[u] = elements[u ^ low] ^ powers[low.bit_length() - 1]
        if sorted(elements) != list(range(field.q)):
            raise AlgebraError("omega powers do not form a basis")
        self._images = sorted(range(field.q), key=elements.__getitem__)

    def apply_int(self, x: int) -> int:
        """U(x) packed back into an integer (bit j = coefficient of e_{j+1})."""
        if not 0 <= x < self.field.q:
            raise AlgebraError("element out of field range")
        return self._images[x]


__all__ = [
    "AlgebraError",
    "PRIMITIVE_F2_POLY",
    "FieldTable",
    "RingTable",
    "VectorIso",
    "build_ring",
    "coprimality_check",
]
