"""Simplicial sets, polynomial differential forms, and Chern-Weil
theory for simplicial G-bundles, with exact arithmetic throughout the
main path (the circle constant 2*pi is carried symbolically)."""

from .scalars import Scalar
from .poly import Poly
from .forms import (
    AffineMap,
    BernsteinMap,
    PolyForm,
    PolyMap,
    SimplicialForm,
    check_simplicial_form,
    integrate_to_cochain,
    whitney_extend,
)
from .simplicial import (
    Chain,
    Cochain,
    HornPresentation,
    SimplexId,
    SimplicialMap,
    SimplicialSet,
    betti_numbers,
    boundary_operator,
    boundary_sphere,
    coboundary,
    fundamental_cycle_two_disk,
    horn,
    is_coboundary,
    pairing,
    product,
    standard_simplex,
    two_disk_sphere,
)
from .liealg import (
    InvariantPolynomial,
    LieData,
    chern_polynomial,
    lie_algebra,
    polarize,
    reznikov_pullback,
    sym_trace_poly,
)
from .bundles import (
    BundleData,
    Connection,
    TransitionMap,
    clutch_bundle,
    clutch_winding,
    concordance,
    construct_connection,
    horn_fill_bundle,
    pullback_bundle,
    trivial_bundle,
    validate_bundle,
    validate_connection,
)
from .cw import (
    ClassReport,
    classical_agreement_check,
    connection_independence,
    curvature,
    cw_cochain,
    cw_form,
    naturality_check,
)

__version__ = "0.1.0"
