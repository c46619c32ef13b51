"""Shared instances; everything heavier than a fixture complex is built
once per session."""

import pytest

from cosetcode.algebra import VectorIso, build_ring
from cosetcode.complexes import build_coset_complex
from cosetcode.css import extract_css, logical_basis
from cosetcode.group import GroupTable, enumerate_group
from cosetcode.local_codes import reed_muller
from cosetcode.sheaf import attach_local_codes, dual_sheaf, induce_lower_codes
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


@pytest.fixture(scope="session")
def k0_table8():
    """The color-0 vertex stabilizer K_0 of the q=8 instance, enumerated
    standalone (the full group is out of reach)."""
    ring = build_ring(3, 1)
    return GroupTable(ring, 2, colors=(1, 2))
