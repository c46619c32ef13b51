"""Period-6 dynamic variant of the two-dimensional code: measurement
schedule over the three edge colors, instantaneous stabilizer group
(ISG) tracking, and the fixed-infrastructure qubit permutation layout.

Every round measures pure X or pure Z checks with sign +, so the ISG is
two row spaces, S_X and S_Z, and never holds a sign other than +.

Edge color naming (fixed, arbitrary): orange = types {0,1}, green =
{1,2}, purple = {0,2}.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .complexes import Complex, mask_of
from .gates import perm_orbits
from .gf2 import EchelonBasis
from .sheaf import Sheaf, projection_matrix


class FloquetError(ValueError):
    """Raised for invalid schedules and layouts."""


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
    """A CSS stabilizer group with + signs: X rows and Z rows (ints of n
    bits), which must commute.  Each side's `EchelonBasis` is built when
    first asked for after the side changed, and grows by `insert`."""

    def __init__(self, n: int, x_rows: Iterable[int] = (), z_rows: Iterable[int] = ()):
        self.n = n
        self.rows: Dict[str, List[int]] = {"X": list(x_rows), "Z": list(z_rows)}
        self._bases: Dict[str, EchelonBasis] = {}

    def _basis(self, kind: str) -> EchelonBasis:
        if kind not in self._bases:
            self._bases[kind] = EchelonBasis(self.rows[kind])
        return self._bases[kind]

    def contains(self, kind: str, row: int) -> bool:
        """Whether the `kind` ("X" or "Z") operator on `row` is a member."""
        return not self._basis(kind).reduce(row)

    def rank(self) -> int:
        return len(self._basis("X")) + len(self._basis("Z"))

    def equals(self, other: "StabilizerGroup") -> bool:
        return self.rank() == other.rank() and all(
            other.contains(kind, r) for kind in "XZ" for r in self.rows[kind]
        )

    def measure(self, kind: str, row: int) -> str:
        """Project onto the +1 outcome of the `kind` check on `row`: 'random'
        (the other side's rows that anticommute with it are folded into the
        first of them, which is dropped), 'deterministic' or 'adjoined'."""
        side = "Z" if kind == "X" else "X"
        other = self.rows[side]
        anti = [i for i, g in enumerate(other) if (g & row).bit_count() & 1]
        if anti:
            for i in anti[1:]:
                other[i] ^= other[anti[0]]
            del other[anti[0]]
            self._bases.pop(side, None)
            if kind in self._bases:
                self._bases[kind].insert(row)
        elif not self._basis(kind).insert(row):
            return "deterministic"
        self.rows[kind].append(row)
        return "random" if anti else "adjoined"


class FloquetSchedule:
    """Six rounds of X or Z check measurements, each check an int row."""

    def __init__(self, n: int, rounds: List[Tuple[str, str, List[int]]]):
        self.n = n
        self.rounds = rounds
        if len(rounds) != 6:
            raise FloquetError("schedule must have six rounds")

    def max_check_weight(self) -> int:
        return max(r.bit_count() for _, _, checks in self.rounds for r in checks)


def build_schedule(s: Sheaf, s_dual: Sheaf) -> FloquetSchedule:
    """X rounds measure the primal edge-code basis of one color; Z rounds
    the dual edge-code basis, cycling colors per the fixed plan."""
    c = s.complex
    if c.D != 2:
        raise FloquetError("the dynamic schedule is two-dimensional only")
    rounds: List[Tuple[str, str, List[int]]] = []
    for kind, color in ROUND_PLAN:
        sheaf = s if kind == "X" else s_dual
        rounds.append((kind, color, _type_rows(sheaf, 1, EDGE_COLORS[color])))
    return FloquetSchedule(c.n_top, rounds)


def _type_rows(s: Sheaf, level: int, colors: Tuple[int, ...]) -> List[int]:
    """The projected level basis rows of the faces of type `colors`
    (their block of the level's coordinates)."""
    rows = projection_matrix(s, level).int_rows()
    return [rows[i] for i in s.type_coords(level, colors)[0]]


def vertex_x_operators(s: Sheaf) -> Dict[int, List[int]]:
    """Per color, the X rows carrying each vertex-code basis row on the
    vertex up-set (the operators whose lifecycle the rounds drive)."""
    return {color: _type_rows(s, 0, (color,)) for color in range(s.complex.n_colors)}


def run_schedule(
    schedule: FloquetSchedule,
    periods: int = 3,
    static_k: Optional[int] = None,
    vertex_ops: Optional[Dict[int, List[int]]] = None,
) -> dict:
    """Run from the maximally mixed state (empty ISG) through `periods`
    full cycles, so the ISG is exactly the group generated by measured
    checks and their inferred products.

    The first cycle is warm-up; afterwards the report verifies that the
    ISG is periodic with period six and records the steady-state logical
    dimension.  Every check is measured with sign +, so no outcome is
    ever forced to -1 and `anomalies` is 0."""
    if periods < 3:
        raise FloquetError("need at least three periods (warm-up + comparison)")
    n = schedule.n
    isg = StabilizerGroup(n)
    per_round = []
    snapshots: List[StabilizerGroup] = []  # the ISG after each round
    for t in range(6 * periods):
        kind, color, checks = schedule.rounds[t % 6]
        outcomes = {"random": 0, "deterministic": 0, "adjoined": 0}
        for row in checks:
            outcomes[isg.measure(kind, row)] += 1
        entry = {"round": t, "kind": kind, "color": color, "rank": isg.rank(), "outcomes": outcomes}
        if vertex_ops is not None:
            entry["vertex_ops_in_isg"] = {
                c_: sum(1 for row in rows if isg.contains("X", row))
                for c_, rows in vertex_ops.items()
            }
        per_round.append(entry)
        snapshots.append(StabilizerGroup(n, isg.rows["X"], isg.rows["Z"]))
    periodic = all(snapshots[t].equals(snapshots[t + 6]) for t in range(6, 6 * (periods - 1)))
    steady_logical = n - per_round[-1]["rank"]
    report = {
        "per_round": per_round,
        "anomalies": 0,
        "periodic": periodic,
        "steady_logical_dimension": steady_logical,
        "max_check_weight": schedule.max_check_weight(),
    }
    if static_k is not None:
        report["half_dimension_ok"] = 2 * steady_logical == static_k
    return report


def _blocks(tops: np.ndarray) -> np.ndarray:
    """A partition given as -1 padded rows, in one canonical form."""
    return np.unique(np.sort(tops, axis=1), axis=0)


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
    # edge partitions: qubits grouped by containing edge, per color; each
    # maps onto the next color's when its tops, moved by perm, form the
    # same sets (rows sorted, then the rows sorted: one canonical form)
    color_cycle = {"orange": "green", "green": "purple", "purple": "orange"}
    tops = {name: c.face_tops[mask_of(cols)] for name, cols in EDGE_COLORS.items()}
    mapped = {name: np.where(t >= 0, perm[t], -1) for name, t in tops.items()}
    partition_map_ok = all(
        np.array_equal(_blocks(mapped[name]), _blocks(tops[nxt]))
        for name, nxt in color_cycle.items()
    )
    return {
        "orbit_census": sizes,
        "orbits_ok": all(s in (1, 3) for s in sizes),
        "cube_is_identity": bool((triple == np.arange(n)).all()),
        "partition_map_ok": partition_map_ok,
        "group_sizes": np.unique(
            np.concatenate([c.up_set_sizes(mask_of(cols)) for cols in EDGE_COLORS.values()])
        ).tolist(),
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
