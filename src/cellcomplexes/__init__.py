"""Combinatorial cell complexes.

Finite ranked posets modelling gluings of convex polyhedral cells:
axiom checking, flag-based orientability with odd-cycle certificates,
integer cellular (co)homology through Smith normal form, stellar and
barycentric subdivision with explicit chain maps, dual complexes, and a
machine-checked homology/cohomology duality pipeline with intersection
and integration pairings.
"""

from .cells import EMPTY, CellId, parse_cell_id
from .chains import (
    Chain,
    ChainComplex,
    HomologyResult,
    boundary,
    chain_complex,
    coboundary,
    cohomology,
    free_cycle_generators,
    h0_components,
    homology,
    homology_of,
    is_acyclic,
    relative_homology,
)
from .complexes import (
    AxiomViolation,
    Ccc,
    Classification,
    ValidationReport,
    build_complex,
    euler_characteristic,
    from_simplicial,
    product,
    simplex_vertices,
)
from .duality import (
    DualityReport,
    DualOrientationSet,
    PairingReport,
    StarMap,
    dual_orientations,
    homology_pairing_matrix,
    pairing,
    stokes_check,
    verify_duality,
)
from .errors import (
    BuildError,
    CccError,
    CoverCycleError,
    DuplicateCellError,
    EmptyComplexError,
    FormatError,
    MissingSignError,
    NotEquidimensionalError,
    NotManifoldLikeError,
    NotOrientableError,
    RankOrderError,
    SimplicialStructureError,
    UnknownCellError,
)
from .fileformat import dump, dumps, load, loads
from .flags import (
    FlagGraph,
    Orientation,
    SignTable,
    all_flags,
    flag_graph,
    flags_of,
    is_flag_connected,
    is_orientable,
    odd_flag_cycle,
    orient,
    orient_all_cells,
    orient_cell,
    simplicial_signs,
)
from .snf import invariant_factors, kernel_basis, matrix_rank, smith_normal_form
from .subdivision import (
    BaryTower,
    ChainMap,
    InvarianceReport,
    StellarResult,
    barycentric,
    barycentric_via_stellar,
    big_phi,
    cell_of_chain,
    chain_of_cell,
    compare_phi_bigphi,
    phi,
    stellar,
    stellar_sequence,
    verify_subdivision_invariance,
)

__version__ = "0.1.0"
