"""Spectral theory of first order differential operators on metric digraphs.

The library models a finite directed multigraph whose edges carry positive
lengths, boundary conditions for the operator -i d/dx acting on the edges,
and the secular machinery that turns those conditions into spectra:
characteristic polynomials in the edge phase variables, exact and numeric
eigenvalue solvers, closed trail decompositions, and the coefficient
profile of the edge adjacency map.
"""

__version__ = "0.1.0"

from .adjacency import (
    AdjacencyEndomorphism,
    CoefficientProfile,
    TopologyReport,
    adjacency_nonsingular,
    build_adjacency,
    charpoly_via_collections,
    edge_connectivity,
    topology_from_coefficients,
)
from .boundary import (
    BoundarySubspace,
    GEndomorphism,
    TraceSpace,
    WitnessResult,
    adjoint_condition,
    endomorphism_from_subspace,
    graph_of,
    index,
    is_local,
    is_unitary,
    local_decomposition,
    scalar_cokernel_dim,
    scalar_kernel_dim,
    self_adjointness_witness,
)
from .charpoly import (
    CharFunction,
    MultiPoly,
    char_function,
    char_poly,
    detect_commensurable,
    reduce_vertex,
    specialize_univariate,
    split_reducible,
    univariate_to_string,
)
from .errors import (
    ContourError,
    DiracGraphError,
    EnumerationCapExceeded,
    InputFormatError,
    WindowTooLargeError,
)
from .families import (
    COSPECTRAL_MATE_COEFFS,
    bidirected_triangle,
    directed_cycle,
    looped_dumbbell,
    rose,
)
from .graph import (
    CycleCollection,
    Edge,
    MetricGraph,
    Subgraph,
    degrees,
    enumerate_cycle_collections,
    enumerate_cycles,
    graph_from_edges,
    is_eulerian_components,
    subdivide_edge,
    validate,
)
from .spectrum import (
    Eigenfunction,
    EigenvalueEntry,
    SpectrumReport,
    Window,
    eigenfunction_residual,
    multiplicity,
    spectrum_complex,
    spectrum_exact_commensurable,
    spectrum_numeric,
)
from .trails import (
    GPermutation,
    TrailDecomposition,
    decomposition_to_permutation,
    enumerate_g_permutations,
    longest_trail_from_spectrum,
    loop_count_via_trace,
    permutation_spectrum,
    permutation_to_decomposition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
