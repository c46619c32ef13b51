"""Pauli/stabilizer machinery: phase-exact conjugation by the diagonal
and fold-type Clifford gates, signed membership in CSS groups with +
signs (two `EchelonBasis` reductions: x against the X rows, z against
the Z rows), orbit CZ circuits, and the divisibility conditions for
diagonal non-Clifford gates (never simulated, only certified).

A Pauli is i^p * X(x) * Z(z) with the X block written first; p is mod 4.
It is a slotted immutable value, and a diagonal step (Z, S, a CZ layer)
that meets no X bit of its input returns that input itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .gf2 import EchelonBasis, _scatter
from .local_codes import LinearCode, divisibility_level, is_multi_orthogonal


class GateError(ValueError):
    """Raised for malformed gates or broken circuit invariants."""


class Pauli:
    """i^p * X(x) * Z(z) on n qubits: p is the phase exponent of i, kept
    mod 4, and x and z are the X- and Z-block support bitsets, refused
    unless both fit in n bits.  Immutable: the slots are written once, by
    the constructor, and assigning or deleting one raises AttributeError.
    Equal Paulis have equal (n, p, x, z), and so equal hashes."""

    __slots__ = ("n", "p", "x", "z")

    def __init__(self, n: int, p: int, x: int, z: int):
        if x >> n or z >> n or x < 0 or z < 0:
            raise GateError("support out of range")
        _set_n(self, n)
        _set_p(self, p % 4)
        _set_x(self, x)
        _set_z(self, z)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("cannot assign to field %r of an immutable Pauli" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r of an immutable Pauli" % name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.p, self.x, self.z) == (other.n, other.p, other.x, other.z)

    def __hash__(self) -> int:
        return hash((self.n, self.p, self.x, self.z))

    def __repr__(self) -> str:
        return "Pauli(n=%r, p=%r, x=%r, z=%r)" % (self.n, self.p, self.x, self.z)

    def __reduce__(self) -> Tuple[type, Tuple[int, int, int, int]]:
        return Pauli, (self.n, self.p, self.x, self.z)

    @classmethod
    def x_op(cls, n: int, support: int) -> "Pauli":
        return cls(n, 0, support, 0)

    @classmethod
    def z_op(cls, n: int, support: int) -> "Pauli":
        return cls(n, 0, 0, support)

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def commutes(self, other: "Pauli") -> bool:
        return (
            (self.x & other.z).bit_count() + (self.z & other.x).bit_count()
        ) % 2 == 0


# the slot writers, which bypass the refusing __setattr__
_set_n, _set_p, _set_x, _set_z = (vars(Pauli)[name].__set__ for name in Pauli.__slots__)


def pauli_mul(a: Pauli, b: Pauli) -> Pauli:
    """Product in the canonical X-then-Z form with exact phase."""
    if a.n != b.n:
        raise GateError("pauli size mismatch")
    phase = a.p + b.p + 2 * (a.z & b.x).bit_count()
    return Pauli(a.n, phase, a.x ^ b.x, a.z ^ b.z)


# -- conjugation by Clifford gates (P -> U P U^dagger) -----------------------------


def apply_z(p: Pauli, mask: int) -> Pauli:
    """Z: X -> -X on each masked qubit.  Like S and a CZ layer, it returns
    p itself when no X bit of p is masked, as the result would equal p."""
    hit = p.x & mask
    if not hit:
        return p
    return Pauli(p.n, p.p + 2 * hit.bit_count(), p.x, p.z)


def apply_s(p: Pauli, mask: int) -> Pauli:
    """S: X -> Y on each masked qubit."""
    hit = p.x & mask
    if not hit:
        return p
    return Pauli(p.n, p.p + hit.bit_count(), p.x, p.z ^ hit)


def apply_h(p: Pauli, mask: int) -> Pauli:
    """H: X <-> Z, Y -> -Y on each masked qubit."""
    xm, zm = p.x & mask, p.z & mask
    phase = p.p + 2 * (xm & zm).bit_count()
    return Pauli(p.n, phase, p.x ^ xm ^ zm, p.z ^ zm ^ xm)


def _cz_table(gates: Sequence["Gate"]) -> Tuple[Dict[int, int], int]:
    """Partner table {a: b, b: a} of disjoint CZ gates on qubits a and b,
    and the mask of their support.  The keys are qubit indices: one-hot
    ints would hold n/2 bits each on average and be hashed at every lookup."""
    partner: Dict[int, int] = {}
    for g in gates:
        a, b = g.qubits[0], g.qubits[1]
        partner[a], partner[b] = b, a
    return partner, _mask(partner)


def _apply_cz_layer(p: Pauli, table: Tuple[Dict[int, int], int]) -> Pauli:
    """Disjoint CZ gates at once, walking only the set bits of x on their
    support; each pair with both X bits set contributes two to the phase."""
    partner, mask = table
    hit = p.x & mask
    if not hit:
        return p
    flip = _scatter(hit, partner)
    return Pauli(p.n, p.p + (flip & hit).bit_count(), p.x, p.z ^ flip)


def apply_permutation(p: Pauli, perm: Sequence[int]) -> Pauli:
    """Relabel qubits: qubit i moves to perm[i]."""
    return Pauli(p.n, p.p, _scatter(p.x, perm), _scatter(p.z, perm))


def apply_gamma(p: Pauli, mask: int) -> Pauli:
    """The order-3 single-qubit Clifford X -> -Y, Y -> Z, Z -> -X,
    applied on each masked qubit."""
    a = p.x & mask
    b = p.z & mask
    onlyx = a & ~b
    onlyz = b & ~a
    both = a & b
    phase = p.p + 3 * onlyx.bit_count() + 2 * onlyz.bit_count() + 3 * both.bit_count()
    new_x = (p.x & ~mask) | onlyx | onlyz
    new_z = (p.z & ~mask) | onlyx | both
    return Pauli(p.n, phase, new_x, new_z)


def conjugate_by_images(
    p: Pauli,
    support: Sequence[int],
    img_x: Dict[int, Pauli],
    img_z: Dict[int, Pauli],
) -> Pauli:
    """Conjugate by a Clifford given through its X_j / Z_j images on a
    qubit subset; the off-support factor passes through unchanged."""
    sup_mask = _mask(support)
    out = Pauli(p.n, p.p, p.x & ~sup_mask, p.z & ~sup_mask)
    for qb in support:
        if (p.x >> qb) & 1:
            out = pauli_mul(out, img_x[qb])
    for qb in support:
        if (p.z >> qb) & 1:
            out = pauli_mul(out, img_z[qb])
    return out


def apply_upsilon(p: Pauli, triple: Tuple[int, int, int]) -> Pauli:
    """The three-qubit Clifford with X1 -> Y1 X2 X3, Z1 -> X1 Z2 Z3,
    covariant under cyclic shift of the triple."""
    q1, q2, q3 = triple
    if len({q1, q2, q3}) != 3:
        raise GateError("triple must be three distinct qubits")
    n = p.n
    img_x: Dict[int, Pauli] = {}
    img_z: Dict[int, Pauli] = {}
    order = (q1, q2, q3)
    for i, qa in enumerate(order):
        qb = order[(i + 1) % 3]
        qc = order[(i + 2) % 3]
        img_x[qa] = Pauli(n, 1, (1 << qa) | (1 << qb) | (1 << qc), 1 << qa)
        img_z[qa] = Pauli(n, 0, 1 << qa, (1 << qb) | (1 << qc))
    return conjugate_by_images(p, list(order), img_x, img_z)


# -- circuits ---------------------------------------------------------------------


@dataclass
class Gate:
    name: str  # Z | S | H | CZ | GAMMA | UPSILON | PERM
    qubits: Tuple[int, ...]
    perm: Optional[Tuple[int, ...]] = None


class Circuit:
    """Layered circuit; within one layer all gate supports are disjoint.

    Each layer is compiled once, when it is added, into steps: one per
    PERM, one per other non-CZ gate, and one for all CZ gates between two
    PERMs (gates on disjoint supports commute, so they may be merged)."""

    def __init__(self, n: int, layers: Optional[List[List[Gate]]] = None):
        self.n = n
        self.layers: List[List[Gate]] = []
        self._steps: List[Tuple[Callable[[Pauli, Any], Pauli], Any]] = []
        for layer in layers or []:
            self.add_layer(layer)

    def add_layer(self, gates: List[Gate]) -> None:
        _check_layer_disjoint(gates)
        steps, cz = [], []
        for g in gates:
            if g.name == "CZ":
                cz.append(g)
                continue
            if g.name == "PERM" and cz:
                steps.append((_apply_cz_layer, _cz_table(cz)))
                cz = []
            steps.append(_gate_step(g))
        if cz:
            steps.append((_apply_cz_layer, _cz_table(cz)))
        self.layers.append(gates)
        self._steps += steps

    def conjugate(self, p: Pauli) -> Pauli:
        for apply, arg in self._steps:
            p = apply(p, arg)
        return p


def _check_layer_disjoint(gates: List[Gate]) -> None:
    seen: set = set()
    for g in gates:
        if g.name == "PERM":
            continue
        for q in g.qubits:
            if q in seen:
                raise GateError("layer gates overlap on qubit %d" % q)
            seen.add(q)


_MASK_GATES = {"Z": apply_z, "S": apply_s, "H": apply_h, "GAMMA": apply_gamma}


def _gate_step(g: Gate) -> Tuple[Callable[[Pauli, Any], Pauli], Any]:
    """The conjugation function of a non-CZ gate and its argument."""
    if g.name in _MASK_GATES:
        return _MASK_GATES[g.name], _mask(g.qubits)
    if g.name == "UPSILON":
        return apply_upsilon, (g.qubits[0], g.qubits[1], g.qubits[2])
    if g.name == "PERM":
        return apply_permutation, g.perm
    raise GateError("unknown gate %r" % g.name)


def _mask(qubits: Iterable[int]) -> int:
    m = 0
    for q in qubits:
        m |= 1 << q
    return m


# -- stabilizer group membership ---------------------------------------------------


_factored: List[Any] = [None, None]  # the latest generator tuple, its (n, X basis, Z basis)


def _css_bases(generators: Sequence[Pauli]) -> Tuple[Any, EchelonBasis, EchelonBasis]:
    """The generators' X rows and Z rows, each side factored as one
    `EchelonBasis`, kept for the latest generator tuple.  That tuple passed
    again is found by identity; any other sequence is compared by content
    (tuple `==` tries identity before `Pauli.__eq__`), with no hashing."""
    key = tuple(generators)
    if key is not _factored[0] and key != _factored[0]:
        n = key[0].n if key else None
        sides = EchelonBasis(), EchelonBasis()
        for i, g in enumerate(key):
            if g.p or (g.x and g.z) or g.n != n:
                raise GateError("generator %d is not a +X or +Z Pauli on %d qubits" % (i, n))
            sides[g.z != 0].insert(g.x or g.z)  # the row itself, not a copy
        _factored[1] = (n,) + sides
    _factored[0] = key
    return _factored[1]


def membership_phase(p: Pauli, generators: Sequence[Pauli]) -> Optional[int]:
    """The phase mod 4 by which p differs from the group member with its
    (x|z), or None if there is none: 0 means exact membership, 2 that -p
    is in the group.

    The generators must be +X(a) or +Z(b) Paulis on p's qubits (GateError
    otherwise).  Then X(x) Z(z) is a member iff x is in the span of the X
    rows and z in that of the Z rows, being the product of X generators
    followed by Z generators, so the phase is p's own.  The two sides are
    factored once for the latest generator tuple (a list mutated in place
    is factored again), so a query is two reductions."""
    n, xs, zs = _css_bases(generators)
    if n not in (None, p.n):
        raise GateError("query on %d qubits, generators on %d" % (p.n, n))
    return None if xs.reduce(p.x) or zs.reduce(p.z) else p.p


def in_group_with_sign(p: Pauli, generators: Sequence[Pauli]) -> bool:
    return membership_phase(p, generators) == 0


# -- orbit circuits -----------------------------------------------------------------


def perm_orbits(perm: Sequence[int]) -> List[List[int]]:
    """Cycles of a permutation, each starting at its minimum element."""
    n = len(perm)
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = perm[start]
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = perm[cur]
        orbits.append(cyc)
    return orbits


def orbit_cz_circuit(perm: Sequence[int]) -> Circuit:
    """CZ between every unordered pair {i, perm(i)} in at most three
    disjoint layers; fixed points contribute a single-qubit Z."""
    n = len(perm)
    orbits = perm_orbits(perm)
    if all(len(o) == 1 for o in orbits):
        raise GateError("identity permutation gives no orbit gate")
    layer1: List[Gate] = []
    layer2: List[Gate] = []
    layer3: List[Gate] = []
    z_qubits: List[int] = []
    for orb in orbits:
        r = len(orb)
        if r == 1:
            z_qubits.append(orb[0])
            continue
        if r == 2:
            layer1.append(Gate("CZ", (orb[0], orb[1])))
            continue
        for j in range(0, r - 1, 2):
            layer1.append(Gate("CZ", (orb[j], orb[j + 1])))
        for j in range(1, r - 1, 2):
            layer2.append(Gate("CZ", (orb[j], orb[j + 1])))
        if r % 2 == 0:
            layer2.append(Gate("CZ", (orb[r - 1], orb[0])))
        else:
            layer3.append(Gate("CZ", (orb[r - 1], orb[0])))
    if z_qubits:
        layer1.append(Gate("Z", tuple(z_qubits)))
    circ = Circuit(n)
    for layer in (layer1, layer2, layer3):
        if layer:
            circ.add_layer(layer)
    return circ


def cycle_phase_circuit(perm: Sequence[int]) -> Circuit:
    """For an order-3 permutation: Z on fixed points and the CZ triangle
    on every 3-orbit (the diagonal fold gate of the type cycle)."""
    _require_order3(perm)
    return orbit_cz_circuit(perm)


def cycle_clifford_circuit(perm: Sequence[int]) -> Circuit:
    """For an order-3 permutation: the single-qubit order-3 Clifford on
    fixed points and the three-qubit covariant Clifford on 3-orbits,
    followed by the qubit permutation itself."""
    _require_order3(perm)
    n = len(perm)
    layer: List[Gate] = []
    for orb in perm_orbits(perm):
        if len(orb) == 1:
            layer.append(Gate("GAMMA", (orb[0],)))
        else:
            q1 = orb[0]
            layer.append(Gate("UPSILON", (q1, perm[q1], perm[perm[q1]])))
    circ = Circuit(n)
    circ.add_layer(layer)
    circ.add_layer([Gate("PERM", (), perm=tuple(perm))])
    return circ


def _require_order3(perm: Sequence[int]) -> None:
    n = len(perm)
    triple = [perm[perm[perm[i]]] for i in range(n)]
    if triple != list(range(n)):
        raise GateError("permutation must have order dividing 3")


# -- diagonal-gate admissibility (never simulated) -----------------------------------


def check_r_conditions(local_code: LinearCode, D: int) -> dict:
    """The local divisibility route to the transversal diagonal gates."""
    lvl = divisibility_level(local_code)
    return {
        "local_divisibility_level": lvl,
        "meets_dimension_condition": lvl >= D,
    }


def check_cz_conditions(local_code: LinearCode, D: int) -> dict:
    """D-orthogonality of the defining code (the sufficient condition for
    the transversal multi-controlled-Z family)."""
    ok = is_multi_orthogonal([local_code] * D, D)
    return {"d_orthogonal": ok, "D": D}


__all__ = [
    "GateError",
    "Pauli",
    "pauli_mul",
    "apply_z",
    "apply_s",
    "apply_h",
    "apply_permutation",
    "apply_gamma",
    "apply_upsilon",
    "conjugate_by_images",
    "Gate",
    "Circuit",
    "membership_phase",
    "in_group_with_sign",
    "perm_orbits",
    "orbit_cz_circuit",
    "cycle_phase_circuit",
    "cycle_clifford_circuit",
    "check_r_conditions",
    "check_cz_conditions",
]
