"""CSS code extraction from a sheaf: checks, dimensions, rate bounds,
color-tagged logical bases, Darboux reduction, and the unfolding checks
(the shrunk-complex dimension isomorphism and the restriction of
cocycles to the shrunk complex).

The unfolding checks and the logical bases read one color type T at a
time, through the T-shrunk three-term complex C^x_T -> C^{x+1}_T ->
C-bar^z_{T^c}, whose maps are the T block of delta_x and psi_T =
pi-bar_z[T^c] pi_{x+1}[T]^T.  At level x+1 the only type inside T is T
itself, and at dual level z the only type inside T^c is T^c, so each
check pairs one dual type block against one primal one and never forms
a full pairing.  A side's logicals for T are ker psi_T projected by
pi_{x+1}[T], each kept if independent of that side's checks, into whose
span the image of the T block of delta_x projects; `logical_basis`
requires exactly k of them per side.

Restriction to T is a chain map from the sheaf complex to the shrunk
one; of its four commuting squares only one is checked,
`cocycles_restrict_to_shrunk`: psi_T annihilates the T block of every
global (x+1)-cocycle.  Over GF(2) the cocycles' annihilator is the row
space of delta^{x+1}, so no cocycle basis is built: psi_T's rows, shifted
to T's block, must reduce to 0 against an `EchelonBasis` of delta^{x+1}'s
rows.  The other three hold by construction:
- restriction commutes with delta_x, since the coboundary writes a
  type's rows only from its facet types;
- pi_x[T] = A^T pi_{x+1}[T], A the T block of delta_x, since the type-T
  faces through a face's tops partition its up-set (a `Sheaf` refuses a
  complex where they do not) and the coboundary refuses a restriction
  that leaves the local code;
- the dual rows outside T^c pair to zero with pi_x[T], a block of
  h_z h_x^T, which `CssCode` checks; `unfolding_check` refuses a code
  whose checks are not the projections of its sheaf pair.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import mask_of
from .gf2 import BitMatrix, EchelonBasis, row_space_equal
from .sheaf import (
    Sheaf,
    cohomology_dim,
    coboundary_matrix,
    dual_sheaf,
    projection_matrix,
)


class CSSError(ValueError):
    """Raised for invalid CSS construction or a broken invariant."""


class CssCode:
    """A CSS code on the top faces: rows of h_x (h_z) are X (Z) check
    supports.  Commutation is verified on construction, as h . g^T = 0
    with g the side of fewer rows, so only the smaller matrix is
    transposed."""

    def __init__(
        self,
        h_x: BitMatrix,
        h_z: BitMatrix,
        metadata: Optional[dict] = None,
    ):
        if h_x.cols != h_z.cols:
            raise CSSError("h_x and h_z qubit counts differ")
        self.n = h_x.cols
        self.h_x = h_x
        self.h_z = h_z
        self.metadata = dict(metadata or {})
        small, large = sorted((h_x, h_z), key=lambda m: m.rows)
        if not large.matmul(small.transpose()).is_zero():
            raise CSSError("X and Z checks do not commute")
        self._k: Optional[int] = None

    def code_dimension(self) -> int:
        if self._k is None:
            self._k = self.n - self.h_x.rank() - self.h_z.rank()
        return self._k

    def check_weight_histogram(self) -> Dict[str, Dict[int, int]]:
        out: Dict[str, Dict[int, int]] = {"x": {}, "z": {}}
        for name, m in (("x", self.h_x), ("z", self.h_z)):
            for w in m.row_weights():
                out[name][w] = out[name].get(w, 0) + 1
        return out

    def __repr__(self) -> str:
        return "CssCode(n=%d, checks=%d+%d)" % (self.n, self.h_x.rows, self.h_z.rows)


def extract_css(
    s: Sheaf,
    x: int,
    z: int,
    s_dual: Optional[Sheaf] = None,
    metadata: Optional[dict] = None,
) -> Tuple[CssCode, Sheaf]:
    """Stabilizer code with X checks = the projected x-level primal basis
    rows and Z checks = the projected z-level dual basis rows, both taken
    as `projection_matrix` builds them; x + z = D - 2 required."""
    D = s.complex.D
    if x + z != D - 2:
        raise CSSError(
            "x + z = %d but D - 2 = %d: only stabilizer extraction is supported"
            % (x + z, D - 2)
        )
    if s_dual is None:
        s_dual = dual_sheaf(s)
    h_x = projection_matrix(s, x)
    h_z = projection_matrix(s_dual, z)
    meta = dict(metadata or {})
    meta.update({"D": D, "x": x, "z": z})
    return CssCode(h_x, h_z, metadata=meta), s_dual


def rate_report(s: Sheaf) -> dict:
    """Local rates, the naive two-dimensional rate bound, and the exact
    redundancy corrections from global ranks, all read from `s` alone.

    rho_{-1} = dim H^0(s) / n.  rho-bar_{-1} = dim H^0(s-bar) / n for the
    dual sheaf s-bar, taken as (n - rank pi_1(s)) / n with pi_1 =
    `projection_matrix(s, 1)`: a 0-cocycle agrees on every edge, so it is
    one vector x on the qubits, and the dual's vertex codes are induced
    (`dual_sheaf` re-induces them, or returns a sheaf whose own were), so
    H^0(s-bar) = {x : x|_e in s_e^perp for every edge e} = ker pi_1(s).
    This holds for every D = 2 sheaf, however its codes were attached."""
    c = s.complex
    if c.D != 2:
        raise CSSError("rate report is defined for two-dimensional sheaves")
    rho0 = _uniform_local_rate(s, 0)
    rho1 = _uniform_local_rate(s, 1)
    n = Fraction(c.n_top)
    rho_m1 = Fraction(cohomology_dim(s, 0)) / n  # dim Z^0 = dim H^0
    rho_bar_m1 = (n - projection_matrix(s, 1).rank()) / n  # dim ker pi_1(s)
    return {
        "rho0": rho0,
        "rho1": rho1,
        "bound": 6 * rho1 - 6 * rho0 - 2,
        "rho_minus1": rho_m1,
        "rho_bar_minus1": rho_bar_m1,
        "exact_half_rate": 3 * rho1 - 3 * rho0 - 1 + rho_m1 + rho_bar_m1,
    }


def _uniform_local_rate(s: Sheaf, level: int) -> Fraction:
    c, pairs = s.complex, set()
    for mask in c.level_masks(level):
        pairs.update(zip(s.dims(mask).tolist(), c.up_set_sizes(mask).tolist()))
    rates = {Fraction(d, u) for d, u in pairs}
    if len(rates) != 1:
        raise CSSError("level-%d local rates are not uniform: %r" % (level, rates))
    return rates.pop()


# -- logical bases ---------------------------------------------------------------


class LogicalBasis:
    """Color-tagged logical representatives on the qubits: (color type,
    support) pairs, each support an int of `n` bits, bit t for qubit t."""

    def __init__(
        self,
        n: int,
        x_logicals: List[Tuple[Tuple[int, ...], int]],
        z_logicals: List[Tuple[Tuple[int, ...], int]],
    ):
        self.n = n
        self.x_logicals = x_logicals
        self.z_logicals = z_logicals

    def pairing(self) -> BitMatrix:
        """Overlap-parity matrix: entry (i, j) = |X_i & Z_j| mod 2."""
        z = _supports(self.n, self.z_logicals)
        return _supports(self.n, self.x_logicals).matmul(z.transpose())


def _supports(n: int, logicals: List[Tuple[Tuple[int, ...], int]]) -> BitMatrix:
    """The supports of tagged logicals as the rows of a matrix."""
    return BitMatrix.from_int_rows([v for _, v in logicals], n)


def color_types_through_zero(D: int, size: int) -> List[Tuple[int, ...]]:
    """All color sets of the given size containing color 0, sorted."""
    rest = itertools.combinations(range(1, D + 1), size - 1)
    return [tuple([0] + list(r)) for r in rest]


def logical_basis(
    code: CssCode,
    s: Sheaf,
    s_dual: Sheaf,
    x: int,
    z: int,
) -> LogicalBasis:
    """Color-tagged logical representatives read off the T-shrunk
    complexes, one family per color type T with 0 in T; each family must
    have exactly k rows, independent modulo its side's checks.

    For a self-dual pair (`s_dual is s`, x == z and `code.h_x is
    code.h_z`) the Z family would be computed from the same arguments as
    the X family, so it is the X family, and is checked once."""
    xl = _tagged_logicals(s, s_dual, x, z, code.h_x, code.h_z)
    sides = [("X", xl)]
    if s_dual is s and x == z and code.h_x is code.h_z:
        zl = list(xl)
    else:
        zl = _tagged_logicals(s_dual, s, z, x, code.h_z, code.h_x)
        sides.append(("Z", zl))
    k = code.code_dimension()
    for name, rows in sides:
        if len(rows) != k:
            raise CSSError("%s logicals span %d of k = %d" % (name, len(rows), k))
    return LogicalBasis(code.n, xl, zl)


def _tagged_logicals(
    s: Sheaf,
    s_other: Sheaf,
    level: int,
    other_level: int,
    checks: BitMatrix,
    other_checks: BitMatrix,
) -> List[Tuple[Tuple[int, ...], int]]:
    """Per color type T through 0, ker psi_T (`_shrunk_top_map`) projected
    by the T rows of pi_{level+1}, keeping each row that is independent of
    `checks` and of the rows kept before it.  Logicals matter only modulo
    the checks, so the image of the T block of delta_level needs no
    quotient and no lift to a global cocycle is taken.  All kept rows are
    then checked against `other_checks` in one product, and a failure
    names the first type with a logical that anticommutes with a check."""
    pi = projection_matrix(s, level + 1)
    acc = EchelonBasis(checks.int_rows())
    out: List[Tuple[Tuple[int, ...], int]] = []
    for T in color_types_through_zero(s.complex.D, level + 2):
        psi = _shrunk_top_map(s, s_other, level, other_level, T)
        logicals = psi.kernel_basis().matmul(_rows(pi, s.type_coords(level + 1, T)[0]))
        out += [(T, v) for v in logicals.int_rows() if acc.insert(v)]
    # bit i of a row of the product: logical i against that check
    hit = 0
    for v in other_checks.matmul(_supports(pi.cols, out).transpose()).int_rows():
        hit |= v
    if hit:
        T = out[(hit & -hit).bit_length() - 1][0]
        raise CSSError("logical candidate for T=%r anticommutes with a check" % (T,))
    return out


def darboux_basis(lb: LogicalBasis) -> LogicalBasis:
    """Replace the Z side by combinations making the pairing the identity.

    The pairing matrix must be invertible; combinations never mix color
    tags when the same-tag pairing blocks vanish (verified)."""
    k2 = len(lb.x_logicals)
    if k2 != len(lb.z_logicals) or k2 == 0:
        raise CSSError("need equally many X and Z logicals")
    p = lb.pairing()
    a = p.solve(BitMatrix.identity(k2))
    if a is None:
        raise CSSError("degenerate logical pairing: rank %d of %d" % (p.rank(), k2))
    # new Z = A^T old Z gives <X_i, Z'_j> = delta_ij; row j of A^T names
    # the old Z logicals it combines, all of one tag
    a_t = a.transpose()
    z = a_t.matmul(_supports(lb.n, lb.z_logicals))
    masks: Dict[Tuple[int, ...], int] = {}
    for m, (tag, _) in enumerate(lb.z_logicals):
        masks[tag] = masks.get(tag, 0) | 1 << m
    new_z: List[Tuple[Tuple[int, ...], int]] = []
    for combo, v in zip(a_t.int_rows(), z.int_rows()):
        tag = lb.z_logicals[(combo & -combo).bit_length() - 1][0]
        if combo & ~masks[tag]:
            raise CSSError("Darboux reduction would mix color tags")
        new_z.append((tag, v))
    out = LogicalBasis(lb.n, list(lb.x_logicals), new_z)
    if out.pairing() != BitMatrix.identity(k2):
        raise CSSError("Darboux reduction failed to reach the identity pairing")
    return out


def symplectic_color_basis(
    code: CssCode, lb: LogicalBasis
) -> Tuple[List[int], List[int]]:
    """For a self-dual code, a symplectic basis (red_i, blue_j) of the X
    logical supports with |red_i & blue_j| = delta_ij: the red supports as
    given, the blue ones recombined within their color by `darboux_basis`.
    Each support is an int of `code.n` bits, bit t for qubit t.

    The same support vectors then serve as X and Z logical representatives
    (self-duality makes every X-logical support a valid Z logical), giving
    the standard basis X~_j = X(red_j) / X(blue_{j-k}) and
    Z~_j = Z(blue_j) / Z(red_{j-k})."""
    if not row_space_equal(code.h_x, code.h_z):
        raise CSSError("symplectic color basis requires a self-dual code")
    tags = sorted({t for t, _ in lb.x_logicals})
    if len(tags) != 2:
        raise CSSError("self-dual symplectic basis needs exactly two color tags")
    red = [(t, v) for t, v in lb.x_logicals if t == tags[0]]
    blue = [(t, v) for t, v in lb.x_logicals if t == tags[1]]
    if len(blue) != len(red):
        raise CSSError("color classes have unequal sizes")
    for same in (red, blue):
        if not LogicalBasis(code.n, same, same).pairing().is_zero():
            raise CSSError("same-color logical supports overlap oddly")
    dlb = darboux_basis(LogicalBasis(code.n, red, blue))
    return [v for _, v in red], [v for _, v in dlb.z_logicals]


# -- unfolding ---------------------------------------------------------------


def _cols(m: BitMatrix, mask: int) -> BitMatrix:
    """m times the diagonal projection whose diagonal is `mask`."""
    return BitMatrix.from_int_rows([v & mask for v in m.int_rows()], m.cols)


def _rows(m: BitMatrix, coords: List[int]) -> BitMatrix:
    """The rows of m that `coords` names."""
    rows = m.int_rows()
    return BitMatrix.from_int_rows([rows[i] for i in coords], m.cols)


def _complement(s: Sheaf, T: Sequence[int]) -> List[int]:
    """The colors outside T."""
    return [j for j in range(s.complex.n_colors) if j not in set(T)]


def _shrunk_top_map(s: Sheaf, s_dual: Sheaf, x: int, z: int, T: Sequence[int]) -> BitMatrix:
    """psi_T = pi-bar_z[T^c] pi_{x+1}[T]^T: the dual pairing block of the
    T-shrunk complex, the level-z rows of the one dual type inside T^c
    against the level-(x+1) rows of the one primal type inside T."""
    bar = _rows(projection_matrix(s_dual, z), s_dual.type_coords(z, _complement(s, T))[0])
    pi = _rows(projection_matrix(s, x + 1), s.type_coords(x + 1, T)[0])
    return bar.matmul(pi.transpose())


def _shrunk_type(s: Sheaf, x: int, T: Sequence[int]) -> None:
    """Refuse a T that is not x+2 distinct colors of the complex."""
    if x < 0 or not len(T) == len(set(T) & set(range(s.complex.n_colors))) == x + 2:
        raise CSSError("invalid shrunk type %r" % (tuple(T),))


def _cocycle_annihilator(s: Sheaf, x: int) -> EchelonBasis:
    """The vectors of C^{x+1} orthogonal to every (x+1)-cocycle: over
    GF(2), (ker delta^{x+1})^perp is the row space of delta^{x+1}, here one
    `EchelonBasis` of its rows (empty at x + 1 = D, where delta^D is zero
    and every cochain is a cocycle)."""
    if x + 1 == s.complex.D:
        return EchelonBasis()
    return EchelonBasis(coboundary_matrix(s, x + 1).int_rows())


def _restricts(
    s: Sheaf, x: int, T: Sequence[int], psi: BitMatrix, annihilator: EchelonBasis
) -> bool:
    """Whether `psi`, psi_T, annihilates the T block of every (x+1)-cocycle:
    whether every row of psi, shifted to T's block of C^{x+1}, reduces to
    0 against `annihilator` (`_cocycle_annihilator`)."""
    start = s.layout(x + 1)[mask_of(T)][0]
    return not any(annihilator.reduce(v << start) for v in psi.int_rows())


def _shrunk_dim(s: Sheaf, x: int, T: Sequence[int], psi: BitMatrix) -> int:
    """dim H^1 of the T-shrunk complex whose second map is `psi`, psi_T."""
    _, cols_x = s.type_coords(x, T)
    rows_x1, _ = s.type_coords(x + 1, T)
    a = _cols(_rows(coboundary_matrix(s, x), rows_x1), cols_x)
    if psi.rows > psi.cols:
        psi = psi.transpose()
    return len(rows_x1) - psi.rank() - a.rank()


def cocycles_restrict_to_shrunk(
    s: Sheaf, s_dual: Sheaf, x: int, z: int, T: Sequence[int]
) -> bool:
    """psi_T annihilates the T block of every global (x+1)-cocycle: the
    one chain-map square between the sheaf complex and the T-shrunk
    three-term complex that can fail (see the module docstring)."""
    _shrunk_type(s, x, T)
    psi = _shrunk_top_map(s, s_dual, x, z, T)
    return _restricts(s, x, T, psi, _cocycle_annihilator(s, x))


def shrunk_cohomology_dim(
    s: Sheaf, s_dual: Sheaf, x: int, z: int, T: Sequence[int]
) -> int:
    """dim H^1 of the T-shrunk three-term complex, in T-supported
    coordinates: dim C^{x+1}_T - rank psi_T - rank of the T block of
    delta_x.  psi_T is ranked on its side with fewer rows, since the
    elimination's cost follows the number of rows it inserts."""
    _shrunk_type(s, x, T)
    return _shrunk_dim(s, x, T, _shrunk_top_map(s, s_dual, x, z, T))


def unfolding_check(
    code: CssCode,
    s: Sheaf,
    s_dual: Sheaf,
    x: int,
    z: int,
) -> dict:
    """k = C(D, x+1) * dim H^{x+1}, the per-type shrunk dimension
    isomorphism, and, per type through color 0, that global cocycles
    restrict to shrunk ones.  The code must be the one `extract_css`
    builds from the pair at (x, z).  psi_T is formed once per type and
    read by both per-type checks.  No cocycle basis is built: the
    restriction checks reduce psi_T's rows against one `EchelonBasis` of
    delta^{x+1}'s rows, the cocycles' annihilator, whose size is also
    the rank in dim H^{x+1}."""
    if code.h_x != projection_matrix(s, x) or code.h_z != projection_matrix(s_dual, z):
        raise CSSError("the code's checks are not the projections of the sheaf pair")
    D = s.complex.D
    k = code.code_dimension()
    annihilator = _cocycle_annihilator(s, x)
    shrunk, restrict = {}, {}
    for T in itertools.combinations(range(D + 1), x + 2):
        psi = _shrunk_top_map(s, s_dual, x, z, T)
        shrunk[T] = _shrunk_dim(s, x, T, psi)
        if T[0] == 0:  # the types through color 0, in `color_types_through_zero` order
            restrict[T] = _restricts(s, x, T, psi, annihilator)
    # dim H^{x+1} = dim C^{x+1} - rank delta^{x+1} - rank delta^x
    h_dim = s.level_dim(x + 1) - len(annihilator) - coboundary_matrix(s, x).rank()
    expected = math.comb(D, x + 1) * h_dim
    report = {
        "k": k,
        "cohomology_dim": h_dim,
        "expected_k": expected,
        "dimension_formula": k == expected,
        "shrunk_dims": shrunk,
        "shrunk_iso": all(v == h_dim for v in shrunk.values()),
        "cocycles_restrict": restrict,
        "cocycles_restrict_ok": all(restrict.values()),
    }
    report["ok"] = (
        report["dimension_formula"] and report["shrunk_iso"] and report["cocycles_restrict_ok"]
    )
    return report


__all__ = [
    "CSSError",
    "CssCode",
    "extract_css",
    "rate_report",
    "LogicalBasis",
    "color_types_through_zero",
    "logical_basis",
    "darboux_basis",
    "symplectic_color_basis",
    "cocycles_restrict_to_shrunk",
    "shrunk_cohomology_dim",
    "unfolding_check",
]
