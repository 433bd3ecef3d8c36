"""Exact equivariant K-theory and degree-one quantum K-theory Schubert
calculus for flag manifolds of arbitrary simple type."""

from .ktheory import ExpansionError, KClass, KTEngine, SchubertExpansion
from .qklines import (
    BoundaryBounds,
    CheckReport,
    GateError,
    QKProduct,
    RichardsonDescriptor,
    boundary_projected_gw,
    cor_xi_sum,
    curve_neighborhood,
    equivariant_positivity_diagnostic,
    kgw2,
    kgw3,
    peterson_check,
    projected_gw,
    qk_constant_divided_difference,
    qk_constant_general,
    qk_constant_kfree,
    qk_product_degree1,
    quantum_coefficients,
    sign_check,
    vanishing_check,
)
from .repring import NotDivisible, NotInSubring, RingElt, exact_divide, weyl_act
from .rootsys import CartanDatum, CartanError, cartan_datum, named_datum
from .weyl import WeylElement, WeylGroup

__all__ = [
    "BoundaryBounds",
    "CartanDatum",
    "CartanError",
    "CheckReport",
    "ExpansionError",
    "GateError",
    "KClass",
    "KTEngine",
    "NotDivisible",
    "NotInSubring",
    "QKProduct",
    "RichardsonDescriptor",
    "RingElt",
    "SchubertExpansion",
    "WeylElement",
    "WeylGroup",
    "boundary_projected_gw",
    "cartan_datum",
    "cor_xi_sum",
    "curve_neighborhood",
    "equivariant_positivity_diagnostic",
    "exact_divide",
    "kgw2",
    "kgw3",
    "named_datum",
    "peterson_check",
    "projected_gw",
    "qk_constant_divided_difference",
    "qk_constant_general",
    "qk_constant_kfree",
    "qk_product_degree1",
    "quantum_coefficients",
    "sign_check",
    "vanishing_check",
    "weyl_act",
]

__version__ = "0.1.0"
