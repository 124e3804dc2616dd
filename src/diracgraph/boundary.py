"""Trace spaces, boundary subspaces and vertex-compatible edge maps.

The trace of a function on a metric graph collects its values at both ends
of every edge, so the trace space has dimension ``2 |E|``: edge ``e`` owns
coordinate ``2e`` (its start value) and ``2e + 1`` (its end value), in
graph edge order.  A boundary condition for the first order operator
``i d/dx`` is a linear subspace of this trace space, and the questions
answered here are linear algebra: dimension counts, adjoint subspaces with
respect to the boundary pairing, locality at vertices, and reconstruction
of a vertex-compatible edge map whose graph realizes a given self-adjoint
condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .graph import MetricGraph, is_eulerian_components

# Refusal reasons reported by self_adjointness_witness, in check order.
REASON_NOT_LOCAL = "not local"
REASON_NOT_EULERIAN = "graph not Eulerian"
REASON_DIMENSION = "dim != |E|"
REASON_NOT_SELF_ADJOINT = "B != B^ad"

# Maps count as unitary when ``A* A`` is the identity up to this entrywise
# maximum; every solver and the CLI's routing use this one value.
UNITARY_TOL = 1e-8

# Trace coordinates of the start and of the end values, edge by edge.
_STARTS = slice(0, None, 2)
_ENDS = slice(1, None, 2)

# Boundary pairing of ``i d/dx`` on one edge: ``-i`` on the start value,
# ``+i`` on the end value.
_PAIRING = np.array([-1j, 1j])


@dataclass(frozen=True)
class TraceSpace:
    """Coordinate bookkeeping for boundary values on a metric graph.

    Edge ``e`` owns trace coordinate ``2e`` (start value) and ``2e + 1``
    (end value); edges follow graph order.  All embeddings and projections
    between the edge value space (dimension ``|E|``) and the trace space
    (dimension ``2 |E|``) are defined here so index conventions live in a
    single place.
    """

    graph: MetricGraph

    @property
    def dim(self) -> int:
        return 2 * self.graph.n_edges

    @property
    def edge_dim(self) -> int:
        return self.graph.n_edges

    def embed_start(self, values: np.ndarray) -> np.ndarray:
        """Edge values as a trace vector supported on start components."""
        values = np.asarray(values, dtype=complex)
        out = np.zeros(values.shape[:-1] + (self.dim,), dtype=complex)
        out[..., _STARTS] = values
        return out

    def embed_end(self, values: np.ndarray) -> np.ndarray:
        """Edge values as a trace vector supported on end components."""
        values = np.asarray(values, dtype=complex)
        out = np.zeros(values.shape[:-1] + (self.dim,), dtype=complex)
        out[..., _ENDS] = values
        return out

    def project_start(self, trace: np.ndarray) -> np.ndarray:
        return np.asarray(trace, dtype=complex)[_STARTS].copy()

    def project_end(self, trace: np.ndarray) -> np.ndarray:
        return np.asarray(trace, dtype=complex)[_ENDS].copy()

    def vertex_coordinates(self, vertex_id: str) -> np.ndarray:
        """Trace coordinates attached to one vertex.

        Start components of edges leaving the vertex plus end components of
        edges arriving at it.  A loop contributes both of its coordinates.
        """
        idx = [2 * ei for ei in self.graph.out_edges(vertex_id)]
        idx += [2 * ei + 1 for ei in self.graph.in_edges(vertex_id)]
        return np.array(sorted(idx), dtype=int)

    def constant_trace_matrix(self) -> np.ndarray:
        """Matrix sending edge values ``w`` to the trace of the piecewise constant ``w``.

        Column ``j`` is the trace vector with the value 1 at both ends of
        edge ``j``.
        """
        return np.repeat(np.eye(self.edge_dim, dtype=complex), 2, axis=0)


class BoundarySubspace:
    """Subspace of a trace space, stored as a column basis."""

    def __init__(self, space: TraceSpace, basis: np.ndarray):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim == 1:
            basis = basis[:, None]
        if basis.size == 0:
            basis = basis.reshape(space.dim, 0)
        if basis.shape[0] != space.dim:
            raise ValueError(
                f"basis has ambient dimension {basis.shape[0]}, expected {space.dim}"
            )
        if linalg.numeric_rank(basis) != basis.shape[1]:
            raise ValueError("basis columns are linearly dependent")
        self.space = space
        self.matrix = basis
        self._ortho: np.ndarray | None = None

    @classmethod
    def zero(cls, space: TraceSpace) -> "BoundarySubspace":
        return cls(space, np.zeros((space.dim, 0), dtype=complex))

    @classmethod
    def full(cls, space: TraceSpace) -> "BoundarySubspace":
        return cls(space, np.eye(space.dim, dtype=complex))

    @classmethod
    def span(cls, space: TraceSpace, vectors) -> "BoundarySubspace":
        cols = [np.asarray(v, dtype=complex) for v in vectors]
        if not cols:
            return cls.zero(space)
        return cls(space, np.stack(cols, axis=1))

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def orthonormal_basis(self) -> np.ndarray:
        if self._ortho is None:
            self._ortho = linalg.orthonormal_columns(self.matrix)
        return self._ortho

    def contains(self, vector: np.ndarray) -> bool:
        v = np.asarray(vector, dtype=complex)
        nv = np.linalg.norm(v)
        if nv == 0:
            return True
        q = self.orthonormal_basis()
        resid = v - q @ (q.conj().T @ v)
        return bool(np.linalg.norm(resid) <= linalg.SUBSPACE_TOL * nv)

    def equals(self, other: "BoundarySubspace", rtol: float = linalg.SUBSPACE_TOL) -> bool:
        return linalg.spans_equal(self.matrix, other.matrix, rtol)

    def distance(self, other: "BoundarySubspace") -> float:
        """Spectral norm distance of the orthogonal projectors."""
        return linalg.span_distance(self.matrix, other.matrix)

    def __repr__(self) -> str:  # pragma: no cover
        return f"BoundarySubspace(dim={self.dim}, ambient={self.space.dim})"


class GEndomorphism:
    """Edge space map compatible with the vertex structure of a graph.

    The matrix acts on edge values; entry ``(e, f)`` may be nonzero only when
    edge ``f`` ends where edge ``e`` starts, so the map sends values on edges
    arriving at a vertex to values on edges leaving it.  Rows index targets,
    columns index sources, both in graph edge order.
    """

    def __init__(self, graph: MetricGraph, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        n = graph.n_edges
        if matrix.shape != (n, n):
            raise ValueError(f"matrix shape {matrix.shape} does not match {n} edges")
        support = self.allowed_support(graph)
        bad = np.nonzero(~support & (matrix != 0))
        if bad[0].size:
            i, j = int(bad[0][0]), int(bad[1][0])
            raise ValueError(
                f"entry ({graph.edges[i].id!r}, {graph.edges[j].id!r}) is nonzero but "
                f"edge {graph.edges[j].id!r} does not end where {graph.edges[i].id!r} starts"
            )
        self.graph = graph
        self.matrix = matrix

    @staticmethod
    def allowed_support(graph: MetricGraph) -> np.ndarray:
        """Boolean mask of admissible entries: target starts where source ends."""
        tails = np.array([graph.vertex_index(e.tail) for e in graph.edges])
        heads = np.array([graph.vertex_index(e.head) for e in graph.edges])
        return tails[:, None] == heads[None, :]

    @classmethod
    def cleaned(cls, graph: MetricGraph, matrix: np.ndarray, atol: float) -> "GEndomorphism":
        """Construct after zeroing entries with magnitude at most ``atol``."""
        matrix = np.asarray(matrix, dtype=complex).copy()
        matrix[np.abs(matrix) <= atol] = 0.0
        return cls(graph, matrix)

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    def __repr__(self) -> str:  # pragma: no cover
        return f"GEndomorphism(on {self.graph!r})"


def is_unitary(a: GEndomorphism, tol: float = UNITARY_TOL) -> bool:
    """Whether ``A* A = 1`` up to ``tol`` in the entrywise maximum norm."""
    n = a.n_edges
    gram = a.matrix.conj().T @ a.matrix - np.eye(n)
    return bool(np.max(np.abs(gram), initial=0.0) <= tol)


def graph_of(a: GEndomorphism) -> BoundarySubspace:
    """Boundary subspace ``{end values x, start values A x}`` of an edge map.

    Always local, always of dimension ``|E|``.  Basis column ``j`` places a 1
    in the end slot of edge ``j`` and distributes column ``j`` of the matrix
    over the start slots.
    """
    space = TraceSpace(a.graph)
    basis = space.embed_end(np.eye(a.n_edges, dtype=complex)).T
    basis += space.embed_start(a.matrix.T).T
    return BoundarySubspace(space, basis)


def endomorphism_from_subspace(b: BoundarySubspace) -> GEndomorphism | None:
    """Edge map whose graph is ``b``, or ``None`` when no such map exists.

    Requires dimension ``|E|`` with the end projections of a basis
    invertible; the candidate map is then "end values to start values".
    Vertex compatibility of the result and a final span comparison guard
    against subspaces that merely look like graphs.
    """
    space = b.space
    n = space.graph.n_edges
    if b.dim != n:
        return None
    if n == 0:
        return GEndomorphism(space.graph, np.zeros((0, 0)))
    ends = space.project_end(b.matrix)
    starts = space.project_start(b.matrix)
    if linalg.numeric_rank(ends, 1e-10) < n:
        return None
    a = starts @ np.linalg.inv(ends)
    scale = np.max(np.abs(a), initial=1.0)
    try:
        endo = GEndomorphism.cleaned(space.graph, a, 1e-9 * scale)
    except ValueError:
        return None
    if not graph_of(endo).equals(b):
        return None
    return endo


def local_decomposition(b: BoundarySubspace) -> dict[str, np.ndarray] | None:
    """Per-vertex blocks of a local subspace, or ``None`` when not local.

    A subspace is local when it is the direct sum of its intersections with
    the per-vertex coordinate blocks.  Each intersection is computed as the
    part of the subspace vanishing outside one vertex block; the subspace is
    local exactly when the block dimensions add up to its dimension.  Blocks
    are returned as ambient column bases keyed by vertex, zero blocks
    omitted.
    """
    space = b.space
    blocks: dict[str, np.ndarray] = {}
    total = 0
    all_idx = np.arange(space.dim)
    for v in space.graph.vertices:
        coords = space.vertex_coordinates(v)
        outside = np.setdiff1d(all_idx, coords)
        coeffs = linalg.null_space(b.matrix[outside, :])
        k = coeffs.shape[1]
        if k:
            blocks[v] = b.matrix @ coeffs
        total += k
    return blocks if total == b.dim else None


def is_local(b: BoundarySubspace) -> bool:
    return local_decomposition(b) is not None


def adjoint_condition(b: BoundarySubspace) -> BoundarySubspace:
    """Subspace of traces pairing to zero with every element of ``b``.

    With the diagonal pairing ``S = diag(-i, +i, -i, +i, ..)`` of ``i d/dx``
    this is the orthogonal complement of ``S b``; its dimension is the
    ambient dimension minus ``dim b``.  A subspace equal to its adjoint
    condition describes a self-adjoint realization of the underlying
    formally self-adjoint operator.
    """
    paired = np.tile(_PAIRING, b.space.graph.n_edges)[:, None] * b.matrix
    basis = linalg.null_space(paired.conj().T)
    return BoundarySubspace(b.space, basis)


def index(b: BoundarySubspace) -> int:
    """Fredholm index of the realization with boundary condition ``b``.

    Equals ``dim b`` minus ``|E|`` regardless of edge lengths or the
    detailed shape of the subspace.
    """
    return b.dim - b.space.edge_dim


def scalar_kernel_dim(b: BoundarySubspace) -> int:
    """Dimension of the kernel of the scalar operator ``i d/dx`` under ``b``.

    Kernel elements are constant on every edge, so the kernel is the
    intersection of ``b`` with the span of constant traces.
    """
    constants = b.space.constant_trace_matrix()
    return linalg.intersection_dim(constants, b.matrix)


def scalar_cokernel_dim(b: BoundarySubspace) -> int:
    """Cokernel dimension, computed as the kernel under the adjoint condition."""
    return scalar_kernel_dim(adjoint_condition(b))


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of the self-adjointness check: an edge map or a refusal reason."""

    endomorphism: GEndomorphism | None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.endomorphism is not None


def self_adjointness_witness(
    b: BoundarySubspace,
    subspace_tol: float = linalg.SUBSPACE_TOL,
) -> WitnessResult:
    """Certify a local boundary condition as self-adjoint by an explicit unitary.

    A local condition for the scalar operator ``i d/dx`` is self-adjoint
    exactly when it is the graph of a unitary vertex-compatible edge map.
    The construction restricts a basis to its end components, orthonormalizes
    them by QR (they are independent whenever the condition equals its
    adjoint condition), and reads the map off as "end components to start
    components".  Refusals, in check order: the subspace is not local, the
    graph has a degree imbalance (no closed trail through all edges, hence
    no vertex-compatible unitary exists), the dimension differs from the
    edge count, or the condition differs from its adjoint condition.
    """
    space = b.space
    n = space.graph.n_edges

    if local_decomposition(b) is None:
        return WitnessResult(None, REASON_NOT_LOCAL)
    if not is_eulerian_components(space.graph):
        return WitnessResult(None, REASON_NOT_EULERIAN)
    if b.dim != n:
        return WitnessResult(None, REASON_DIMENSION)
    if not b.equals(adjoint_condition(b), subspace_tol):
        return WitnessResult(None, REASON_NOT_SELF_ADJOINT)

    ends = space.project_end(b.matrix)
    starts = space.project_start(b.matrix)
    q, r = np.linalg.qr(ends)
    # Self-adjointness guarantees the end projections are independent; a
    # failure here means the subspace equality above passed on noise.
    if np.min(np.abs(np.diag(r))) <= 1e-12 * np.max(np.abs(np.diag(r))):
        return WitnessResult(None, REASON_NOT_SELF_ADJOINT)
    a = starts @ np.linalg.solve(r, q.conj().T)
    scale = np.max(np.abs(a), initial=1.0)
    endo = GEndomorphism.cleaned(space.graph, a, 1e-10 * scale)
    return WitnessResult(endo, None)
