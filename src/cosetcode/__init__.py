"""Quantum Tanner color codes on special-linear coset complexes.

Exact GF(2) construction and verification: finite-field/ring tables,
group enumeration, colored coset complexes, Tanner sheaves, CSS code
extraction with logical bases, transversal-gate checks, and the
period-6 dynamic (Floquet) variant.
"""

__version__ = "0.1.0"

from .algebra import FieldTable, RingTable, VectorIso, build_ring, coprimality_check
from .complexes import Complex, build_coset_complex
from .css import CssCode, extract_css, logical_basis, rate_report, unfolding_check
from .gf2 import BitMatrix
from .group import GroupElement, GroupTable, enumerate_group, sl_order
from .local_codes import LinearCode, dual_code, reed_muller
from .sheaf import (
    Sheaf,
    attach_local_codes,
    dual_sheaf,
    induce_lower_codes,
    link_vertex_code_dimension,
)

__all__ = [
    "__version__",
    "FieldTable",
    "RingTable",
    "VectorIso",
    "build_ring",
    "coprimality_check",
    "Complex",
    "build_coset_complex",
    "CssCode",
    "extract_css",
    "logical_basis",
    "rate_report",
    "unfolding_check",
    "BitMatrix",
    "GroupElement",
    "GroupTable",
    "enumerate_group",
    "sl_order",
    "LinearCode",
    "dual_code",
    "reed_muller",
    "Sheaf",
    "attach_local_codes",
    "dual_sheaf",
    "induce_lower_codes",
    "link_vertex_code_dimension",
]
