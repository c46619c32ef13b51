"""Shared instances; everything heavier than a fixture complex is built
once per session."""

from typing import Dict, List, NamedTuple, Tuple

import numpy as np
import pytest

from cosetcode.algebra import VectorIso, build_ring
from cosetcode.complexes import build_coset_complex
from cosetcode.css import extract_css, logical_basis
from cosetcode.gf2 import BitMatrix
from cosetcode.group import GroupElement, enumerate_group, generator_position
from cosetcode.local_codes import reed_muller
from cosetcode.sheaf import attach_local_codes, coboundary_matrix, dual_sheaf, induce_lower_codes
from cosetcode import fixtures


@pytest.fixture(scope="session")
def ring2():
    return build_ring(1, 1)


@pytest.fixture(scope="session")
def table2(ring2):
    return enumerate_group(2, ring2)


@pytest.fixture(scope="session")
def table_d3(ring2):
    """SL_4(F_2), the D = 3 group at q = 2: 20,160 elements."""
    return enumerate_group(3, ring2)


@pytest.fixture(scope="session")
def complex2(table2):
    return build_coset_complex(table2)


@pytest.fixture(scope="session")
def sheaf2(complex2, ring2):
    code = reed_muller(0, 1)
    iso = VectorIso(ring2.field)
    return induce_lower_codes(attach_local_codes(complex2, code, iso, ring2))


@pytest.fixture(scope="session")
def dual2(sheaf2):
    return dual_sheaf(sheaf2)


@pytest.fixture(scope="session")
def code2(sheaf2, dual2):
    code, _ = extract_css(sheaf2, 0, 0, s_dual=dual2, metadata={"q": 2})
    return code


@pytest.fixture(scope="session")
def logicals2(code2, sheaf2, dual2):
    return logical_basis(code2, sheaf2, dual2, 0, 0)


@pytest.fixture(scope="session")
def torus_sheaves():
    from cosetcode.sheaf import attach_constant_sheaf

    c = fixtures.hexagonal_torus()
    s = attach_constant_sheaf(c)
    return s, dual_sheaf(s)


@pytest.fixture(scope="session")
def inst4():
    """The 60480-qubit q=4 instance: group, complex, primal/dual sheaves.
    Global matrices beyond h_x are out of reach here; the structural
    lemmas are checked through local face pairs instead."""
    ring = build_ring(2, 1)
    table = enumerate_group(2, ring, cap=100_000)
    c = build_coset_complex(table)
    iso = VectorIso(ring.field)
    s = induce_lower_codes(attach_local_codes(c, reed_muller(0, 2), iso, ring))
    return {
        "ring": ring,
        "table": table,
        "complex": c,
        "sheaf": s,
        "dual": dual_sheaf(s),
    }


class RefGroup(NamedTuple):
    """A group closed by the dict enumeration loop: gens[col] is the
    generator (color, alpha) of Cayley column col; element h > 0 first
    occurs as elems[parent[h]] * gens[gen[h]]."""

    gens: List[Tuple[int, int]]
    elems: List[GroupElement]
    index: Dict[GroupElement, int]
    cayley: np.ndarray
    parent: np.ndarray
    gen: np.ndarray


_REF_GROUPS: Dict[tuple, RefGroup] = {}


def _ref_enumerate(ring, n, colors):
    """The dict enumeration loop: BFS from the identity with GroupElement
    products by the generators e(alpha*t) of `colors`, colors ascending
    and alpha in omega-power order, each new element taking the next id
    at its first occurrence.  Cached per ring, n and colors."""
    key = (ring.eta, ring.m, tuple(ring.phi), n, tuple(colors))
    if key in _REF_GROUPS:
        return _REF_GROUPS[key]
    gens, mats = [], []
    for color in sorted(colors):
        r, c = generator_position(color, n)
        for alpha in ring.field.antilog:
            gens.append((color, alpha))
            mats.append(GroupElement.elementary(ring, n, r, c, ring.scalar_times_t(alpha)))
    elems = [GroupElement.elementary(ring, n, 0, 1, 0)]
    index = {elems[0]: 0}
    cayley, parent, gen = [], [-1], [-1]
    for g in elems:  # grows while it is read: a queue in id order
        row = []
        for col, s in enumerate(mats):
            p = g.mul(s)
            if p not in index:
                index[p] = len(elems)
                elems.append(p)
                parent.append(len(cayley))
                gen.append(col)
            row.append(index[p])
        cayley.append(row)
    arrays = (np.array(a, dtype=np.int64) for a in (cayley, parent, gen))
    ref = RefGroup(gens, elems, index, *arrays)
    _REF_GROUPS[key] = ref
    return ref


def _ref_coset_labels(ref, color):
    """The least id of each h*K_color: a root subgroup, so the coset is h
    and its products by that color's generators."""
    cols = [col for col, (j, _) in enumerate(ref.gens) if j == color]
    return np.minimum(np.arange(len(ref.elems)), ref.cayley[:, cols].min(axis=1))


def _acts_freely_on_link(perm, k0, link_reps):
    """True iff g in K_0, acting by `perm` (h -> g*h on ids), moves every
    element of `k0` to another coset in one of the two link families
    K_0/K_{0,1}, K_0/K_{0,2}, whose coset labels `link_reps` holds."""
    k0 = np.asarray(k0)
    return any(bool((reps[perm[k0]] != reps[k0]).all()) for reps in link_reps)


@pytest.fixture(scope="session")
def k0_table8():
    """The color-0 vertex stabilizer K_0 = U_3(F_8) of the q=8 instance,
    closed by the dict loop (the full group is out of reach)."""
    return _ref_enumerate(build_ring(3, 1), 3, (1, 2))


def _ref_cocycle_basis(s, j):
    """A basis of Z^j = ker delta^j (Z^D = all of C^D)."""
    if j == s.complex.D:
        return BitMatrix.identity(s.level_dim(j))
    return coboundary_matrix(s, j).kernel_basis()


def _ref_coboundary_image_basis(s, j):
    """A reduced basis of B^j = im delta^{j-1} (B^0 = 0)."""
    if j == 0:
        return BitMatrix(0, s.level_dim(0))
    return coboundary_matrix(s, j - 1).transpose().rref()[0]
