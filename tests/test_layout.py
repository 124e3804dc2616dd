"""Layout of the package: which module may import what, and what it exports."""

import ast
from pathlib import Path

import diracgraph

PACKAGE = Path(diracgraph.__file__).parent

# A module imports only from modules of a lower rank.
RANK = {
    "errors": 0,
    "linalg": 1,
    "graph": 2,
    "boundary": 3,
    "charpoly": 4,
    "spectrum": 5,
    "trails": 6,
    "adjacency": 6,
    "jsonio": 7,
    "randgen": 8,
    "families": 8,
    "cli": 9,
}

EXPORTS = [
    "AdjacencyEndomorphism", "BoundarySubspace", "COSPECTRAL_MATE_COEFFS", "CharFunction",
    "CoefficientProfile", "ContourError", "CycleCollection", "DiracGraphError", "Edge",
    "Eigenfunction", "EigenvalueEntry", "EnumerationCapExceeded", "GEndomorphism",
    "GPermutation", "InputFormatError", "MetricGraph", "MultiPoly", "SpectrumReport",
    "Subgraph", "TopologyReport", "TraceSpace", "TrailDecomposition", "Window",
    "WindowTooLargeError", "WitnessResult", "adjacency", "adjoint_condition",
    "bidirected_triangle", "boundary", "build_adjacency", "char_function", "char_poly",
    "charpoly", "charpoly_via_collections", "decomposition_to_permutation", "degrees",
    "detect_commensurable", "directed_cycle", "edge_connectivity",
    "endomorphism_from_subspace", "enumerate_cycle_collections", "enumerate_cycles",
    "enumerate_g_permutations", "errors", "families", "graph", "graph_from_edges", "graph_of",
    "index", "is_eulerian_components", "is_unitary", "linalg", "local_decomposition",
    "longest_trail_from_spectrum", "looped_dumbbell", "multiplicity", "permutation_spectrum",
    "permutation_to_decomposition", "reduce_vertex", "rose", "scalar_cokernel_dim",
    "scalar_kernel_dim", "self_adjointness_witness", "specialize_univariate", "spectrum",
    "spectrum_complex", "spectrum_exact_commensurable", "spectrum_numeric", "subdivide_edge",
    "topology_from_coefficients", "trails", "univariate_to_string", "validate",
]


def package_imports(module: str):
    """``(source, names)`` for every import of a package module in ``module``:
    ``source`` is the imported module, or ``""`` for the package itself."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("diracgraph."):
                    yield alias.name.split(".")[1], []
        elif isinstance(node, ast.ImportFrom):
            path = node.module or ""
            if not node.level:
                if path.split(".")[0] != "diracgraph":
                    continue
                path = path.partition(".")[2]
            names = [alias.name for alias in node.names]
            if path:
                yield path, names
            else:
                for name in names:
                    yield (name, []) if name in RANK else ("", [name])


def test_every_module_has_a_rank():
    assert set(RANK) == {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def test_no_module_imports_a_private_name_of_another():
    private = [
        (module, source, name)
        for module in RANK
        for source, names in package_imports(module)
        for name in names
        if name.startswith("_") and not name.startswith("__")
    ]
    assert private == []


def test_imports_point_down_the_layers():
    upward = [
        (module, source)
        for module in RANK
        for source, _ in package_imports(module)
        # cli's ``from . import __version__`` reads the package itself
        if source and RANK[source] >= RANK[module]
    ]
    assert upward == []


def test_exports_are_the_listed_names():
    assert diracgraph.__all__ == EXPORTS
