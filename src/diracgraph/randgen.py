"""Seeded random generators for graphs, subspaces and edge maps.

These exist for tests and quick experiments; everything takes an explicit
``numpy.random.Generator`` so runs are reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

from .boundary import BoundarySubspace, GEndomorphism, TraceSpace
from .graph import MetricGraph, graph_from_edges
from .trails import GPermutation


def random_graph(
    rng: np.random.Generator,
    max_edges: int = 6,
    max_vertices: int = 4,
    unit_lengths: bool = False,
) -> MetricGraph:
    """Random multigraph with 1..max_edges edges; vertex set induced by edges.

    Endpoints are drawn uniformly, so loops and parallel edges occur
    naturally and no vertex is isolated.
    """
    n_edges = int(rng.integers(1, max_edges + 1))
    pool = [f"v{i}" for i in range(1, max_vertices + 1)]
    edges = []
    for i in range(n_edges):
        tail = pool[rng.integers(0, len(pool))]
        head = pool[rng.integers(0, len(pool))]
        length = 1.0 if unit_lengths else float(rng.uniform(0.5, 2.0))
        edges.append((f"e{i + 1}", tail, head, length))
    return graph_from_edges(edges)


def random_eulerian_graph(
    rng: np.random.Generator,
    max_edges: int = 8,
    max_vertices: int = 5,
    unit_lengths: bool = True,
) -> MetricGraph:
    """Random graph with balanced degrees, built as a union of closed walks.

    Each added walk visits random vertices and closes up, so in and out
    degree stay equal at every vertex and every component carries a closed
    trail through all of its edges.
    """
    pool = [f"v{i}" for i in range(1, max_vertices + 1)]
    edges = []
    counter = 1
    budget = int(rng.integers(1, max_edges + 1))
    while budget > 0:
        walk_len = int(rng.integers(1, min(4, budget) + 1))
        verts = [pool[rng.integers(0, len(pool))] for _ in range(walk_len)]
        for i in range(walk_len):
            tail, head = verts[i], verts[(i + 1) % walk_len]
            length = 1.0 if unit_lengths else float(rng.uniform(0.5, 2.0))
            edges.append((f"e{counter}", tail, head, length))
            counter += 1
        budget -= walk_len
    return graph_from_edges(edges)


def random_subspace(space: TraceSpace, dim: int, rng: np.random.Generator) -> BoundarySubspace:
    """Uniformly random subspace of the given dimension (orthonormal basis)."""
    if not 0 <= dim <= space.dim:
        raise ValueError("dimension out of range")
    if dim == 0:
        return BoundarySubspace.zero(space)
    m = rng.normal(size=(space.dim, dim)) + 1j * rng.normal(size=(space.dim, dim))
    q, _ = np.linalg.qr(m)
    return BoundarySubspace(space, q)


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_g_endomorphism(
    g: MetricGraph, rng: np.random.Generator, density: float = 1.0
) -> GEndomorphism:
    """Random vertex-compatible edge map with complex Gaussian entries."""
    n = g.n_edges
    support = GEndomorphism.allowed_support(g)
    m = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2)
    if density < 1.0:
        m *= rng.uniform(size=(n, n)) < density
    return GEndomorphism(g, np.where(support, m, 0.0))


def random_unitary_g_endomorphism(g: MetricGraph, rng: np.random.Generator) -> GEndomorphism:
    """Random unitary edge map: an independent Haar unitary block per vertex.

    Requires balanced degrees; the block at a vertex maps values on the
    arriving edges to values on the leaving ones.
    """
    n = g.n_edges
    m = np.zeros((n, n), dtype=complex)
    for v in g.vertices:
        ins, outs = g.in_edges(v), g.out_edges(v)
        if len(ins) != len(outs):
            raise ValueError(f"vertex {v!r} has unbalanced degrees")
        block = _haar_unitary(len(ins), rng)
        for bi, i_out in enumerate(outs):
            for bj, j_in in enumerate(ins):
                m[i_out, j_in] = block[bi, bj]
    return GEndomorphism(g, m)


def random_g_permutation(g: MetricGraph, rng: np.random.Generator) -> GPermutation:
    """Random vertex-compatible edge permutation (balanced degrees required)."""
    mapping: dict[str, str] = {}
    for v in g.vertices:
        ins = [g.edges[i].id for i in g.in_edges(v)]
        outs = [g.edges[i].id for i in g.out_edges(v)]
        if len(ins) != len(outs):
            raise ValueError(f"vertex {v!r} has unbalanced degrees")
        for src, dst in zip(ins, rng.permutation(outs)):
            mapping[src] = str(dst)
    return GPermutation(g, mapping)
