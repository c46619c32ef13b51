"""The sign-exact stabilizer machinery that `gates` and `floquet` used
before they moved to CSS structure, kept as the tests' reference.

It tracks general Pauli generators with their phases: membership
factors the generators' (x|z) rows with tag bits naming the rows that
rebuild a query, and rebuilds the query with `pauli_mul` to read its
phase.  `StabilizerGroup` and `run_schedule` are the sign-exact
instantaneous stabilizer group and the schedule run over it.  The
sheaf tests' coboundary and cup-product references read local
coefficients through `certified_reduce` as well.
"""

from typing import Any, Dict, List, Optional, Sequence

from cosetcode.floquet import FloquetError, FloquetSchedule
from cosetcode.gates import GateError, Pauli, pauli_mul
from cosetcode.gf2 import EchelonBasis


def certified_reduce(rows: Sequence[int]):
    """A reduction against the span of `rows` that names the rows it
    combined: row i of k enters one `EchelonBasis` as (row << k) | (1 << i),
    the augmentation [rows | I].  The returned function maps v to
    (residual, combination): the rows named by `combination` XOR to
    v ^ residual, and v is in the span iff the residual is 0."""
    k = len(rows)
    basis = EchelonBasis((r << k) | (1 << i) for i, r in enumerate(rows))

    def reduce(v: int):
        t = basis.reduce(v << k)
        return t >> k, t & ((1 << k) - 1)

    return reduce


_factored: List[Any] = [None, None]  # the latest generator tuple, its reduction


def membership_phase(p: Pauli, generators: Sequence[Pauli]) -> Optional[int]:
    """If (x|z) of p lies in the generator span, the phase mod 4 by which
    p differs from the reconstructing product; None otherwise.  Any
    generators: signed, mixed, even non-commuting (the product order
    then shows in the phase)."""
    n = p.n
    key = tuple(generators)
    if key != _factored[0]:
        _factored[1] = certified_reduce([g.x | (g.z << g.n) for g in key])
    _factored[0] = key
    residual, combo = _factored[1](p.x | (p.z << n))
    if residual:
        return None
    prod = Pauli(n, 0, 0, 0)
    while combo:
        low = combo & -combo
        prod = pauli_mul(prod, generators[low.bit_length() - 1])
        combo ^= low
    if prod.x != p.x or prod.z != p.z:
        raise GateError("membership certificate does not rebuild the queried Pauli")
    return (p.p - prod.p) % 4


class StabilizerGroup:
    """A list of commuting sign-exact Pauli generators with measurement
    update."""

    def __init__(self, n: int, gens: Optional[List[Pauli]] = None):
        self.n = n
        self.gens: List[Pauli] = list(gens or [])
        # -identity is in the group iff some generator is the product of
        # earlier ones up to a phase other than 1; `measure` never puts it in
        independent: List[Pauli] = []
        for g in self.gens:
            phase = membership_phase(g, independent)
            if phase is None:
                independent.append(g)
            elif phase:
                raise FloquetError("stabilizer group contains -identity")

    def rank(self) -> int:
        return _rank(self.gens)

    def equals(self, other: "StabilizerGroup") -> bool:
        return _same_group(self.gens, other.gens)

    def measure(self, m: Pauli) -> str:
        """Project onto the +1 outcome of m; returns the outcome class:
        'random', 'deterministic', 'adjoined', or 'anomaly' (-m was in
        the group, so the forced outcome contradicts +1)."""
        anti = [i for i, g in enumerate(self.gens) if not g.commutes(m)]
        if anti:
            g0 = self.gens[anti[0]]
            for i in anti[1:]:
                self.gens[i] = pauli_mul(self.gens[i], g0)
            self.gens[anti[0]] = m
            return "random"
        phase = membership_phase(m, self.gens)
        if phase == 0:
            return "deterministic"
        if phase is None:
            self.gens.append(m)
            return "adjoined"
        return "anomaly"


def _rank(gens: List[Pauli]) -> int:
    return len(EchelonBasis(g.x | g.z << g.n for g in gens))


def _same_group(a: List[Pauli], b: List[Pauli]) -> bool:
    """Exact equality of the signed groups that two consistent generator
    lists generate: equal ranks, and every generator of `a` in `b` with
    its sign."""
    return _rank(a) == _rank(b) and all(membership_phase(g, b) == 0 for g in a)


def run_schedule(
    schedule: FloquetSchedule,
    periods: int = 3,
    static_k: Optional[int] = None,
    vertex_ops: Optional[Dict[int, List[int]]] = None,
) -> dict:
    """`floquet.run_schedule` over the sign-exact group: each check row
    measured as the X or Z Pauli its round names, the vertex operators
    queried as X Paulis, anomalies counted."""
    n = schedule.n
    op = {"X": Pauli.x_op, "Z": Pauli.z_op}
    isg = StabilizerGroup(n)
    per_round = []
    snapshots: List[List[Pauli]] = []
    anomalies = 0
    for t in range(6 * periods):
        kind, color, checks = schedule.rounds[t % 6]
        outcomes = {"random": 0, "deterministic": 0, "adjoined": 0, "anomaly": 0}
        for row in checks:
            outcomes[isg.measure(op[kind](n, row))] += 1
        anomalies += outcomes["anomaly"]
        entry = {"round": t, "kind": kind, "color": color, "rank": isg.rank(), "outcomes": outcomes}
        if vertex_ops is not None:
            entry["vertex_ops_in_isg"] = {
                c_: sum(1 for row in rows if membership_phase(Pauli.x_op(n, row), isg.gens) == 0)
                for c_, rows in vertex_ops.items()
            }
        per_round.append(entry)
        snapshots.append(list(isg.gens))
    periodic = all(
        _same_group(snapshots[t], snapshots[t + 6]) for t in range(6, 6 * (periods - 1))
    )
    steady_logical = n - per_round[-1]["rank"]
    report = {
        "per_round": per_round,
        "anomalies": anomalies,
        "periodic": periodic,
        "steady_logical_dimension": steady_logical,
        "max_check_weight": schedule.max_check_weight(),
    }
    if static_k is not None:
        report["half_dimension_ok"] = 2 * steady_logical == static_k
    return report
