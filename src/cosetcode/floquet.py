"""Period-6 dynamic variant of the two-dimensional code: measurement
schedule over the three edge colors, instantaneous stabilizer group
(ISG) tracking with exact signs, and the fixed-infrastructure qubit
permutation layout.

Edge color naming (fixed, arbitrary): orange = types {0,1}, green =
{1,2}, purple = {0,2}.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .complexes import Complex, mask_of
from .gates import Pauli, membership_phase, pauli_mul, perm_orbits
from .gf2 import EchelonBasis
from .sheaf import Sheaf, projection_matrix


class FloquetError(ValueError):
    """Raised for invalid schedules or tracking anomalies."""


EDGE_COLORS = {"orange": (0, 1), "green": (1, 2), "purple": (0, 2)}

#: (pauli kind, edge color) per round; X rounds use the primal edge
#: bases, Z rounds the dual edge bases.
ROUND_PLAN: List[Tuple[str, str]] = [
    ("X", "orange"),
    ("Z", "green"),
    ("X", "purple"),
    ("Z", "orange"),
    ("X", "green"),
    ("Z", "purple"),
]


class StabilizerGroup:
    """A list of commuting sign-exact Pauli generators with measurement
    update; rank and equality go through the `gf2` kernel."""

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


class FloquetSchedule:
    """Six rounds of sign-free X/Z check measurements."""

    def __init__(self, n: int, rounds: List[Tuple[str, str, List[Pauli]]]):
        self.n = n
        self.rounds = rounds
        if len(rounds) != 6:
            raise FloquetError("schedule must have six rounds")

    def max_check_weight(self) -> int:
        return max(p.weight() for _, _, checks in self.rounds for p in checks)


def build_schedule(s: Sheaf, s_dual: Sheaf) -> FloquetSchedule:
    """X rounds measure the primal edge-code basis of one color; Z rounds
    the dual edge-code basis, cycling colors per the fixed plan."""
    c = s.complex
    if c.D != 2:
        raise FloquetError("the dynamic schedule is two-dimensional only")
    rounds: List[Tuple[str, str, List[Pauli]]] = []
    for kind, color in ROUND_PLAN:
        sheaf = s if kind == "X" else s_dual
        op = Pauli.x_op if kind == "X" else Pauli.z_op
        rounds.append((kind, color, _type_operators(sheaf, 1, EDGE_COLORS[color], op)))
    return FloquetSchedule(c.n_top, rounds)


def _type_operators(s: Sheaf, level: int, colors: Tuple[int, ...], op) -> List[Pauli]:
    """`op` on each projected level basis row of the faces of type `colors`
    (their block of the level's coordinates)."""
    pi = projection_matrix(s, level)
    rows = pi.int_rows()
    return [op(pi.cols, rows[i]) for i in s.type_coords(level, colors)[0]]


def vertex_x_operators(s: Sheaf) -> Dict[int, List[Pauli]]:
    """Per color, the X operators carrying each vertex-code basis row on
    the vertex up-set (the operators whose lifecycle the rounds drive)."""
    colors = range(s.complex.n_colors)
    return {color: _type_operators(s, 0, (color,), Pauli.x_op) for color in colors}


def run_schedule(
    schedule: FloquetSchedule,
    periods: int = 3,
    static_k: Optional[int] = None,
    vertex_ops: Optional[Dict[int, List[Pauli]]] = None,
) -> dict:
    """Run from the maximally mixed state (empty ISG) through `periods`
    full cycles, so the ISG is exactly the group generated by measured
    checks and their inferred products.

    The first cycle is warm-up; afterwards the report verifies that the
    ISG is periodic with period six, counts anomalies, and records the
    steady-state logical dimension."""
    if periods < 3:
        raise FloquetError("need at least three periods (warm-up + comparison)")
    n = schedule.n
    isg = StabilizerGroup(n)
    per_round = []
    snapshots: List[List[Pauli]] = []  # the ISG generators after each round
    anomalies = 0
    for t in range(6 * periods):
        kind, color, checks = schedule.rounds[t % 6]
        outcomes = {"random": 0, "deterministic": 0, "adjoined": 0, "anomaly": 0}
        for m in checks:
            outcomes[isg.measure(m)] += 1
        anomalies += outcomes["anomaly"]
        entry = {
            "round": t,
            "kind": kind,
            "color": color,
            "rank": isg.rank(),
            "outcomes": outcomes,
        }
        if vertex_ops is not None:
            entry["vertex_ops_in_isg"] = {
                c_: sum(
                    1 for op in ops if membership_phase(op, isg.gens) == 0
                )
                for c_, ops in vertex_ops.items()
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


def permutation_layout(c: Complex) -> dict:
    """The fixed-infrastructure layout: the type-cycling qubit permutation,
    its orbit census, and the induced mapping between edge-color
    partitions of the qubits."""
    if c.D != 2 or c.group is None:
        raise FloquetError("layout needs a two-dimensional coset complex")
    perm = c.group.type_cycle_perm()
    n = c.n_top
    sizes: Dict[int, int] = {}
    for orbit in perm_orbits(perm.tolist()):
        sizes[len(orbit)] = sizes.get(len(orbit), 0) + 1
    triple = perm[perm[perm]]
    # edge partitions: qubits grouped by containing edge, per color
    partition_map_ok = True
    color_cycle = {"orange": "green", "green": "purple", "purple": "orange"}
    partitions = {}
    for name, cols in EDGE_COLORS.items():
        mask = mask_of(cols)
        partitions[name] = {
            frozenset(u) for u in c.up_sets[mask]
        }
    for name, nxt in color_cycle.items():
        mapped = {
            frozenset(int(perm[t]) for t in part) for part in partitions[name]
        }
        if mapped != partitions[nxt]:
            partition_map_ok = False
    return {
        "orbit_census": sizes,
        "orbits_ok": all(s in (1, 3) for s in sizes),
        "cube_is_identity": bool((triple == np.arange(n)).all()),
        "partition_map_ok": partition_map_ok,
        "group_sizes": sorted({len(u) for m in
                               (mask_of(v) for v in EDGE_COLORS.values())
                               for u in c.up_sets[m]}),
        "permutation": perm,
    }


__all__ = [
    "FloquetError",
    "EDGE_COLORS",
    "ROUND_PLAN",
    "StabilizerGroup",
    "FloquetSchedule",
    "build_schedule",
    "vertex_x_operators",
    "run_schedule",
    "permutation_layout",
]
