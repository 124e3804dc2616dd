"""Directed edge adjacency of a graph and what its polynomial reveals.

The adjacency map puts a one at ``(e, f)`` whenever edge ``f`` ends where
edge ``e`` starts; it is the all-or-nothing vertex-compatible edge map.  Its
characteristic polynomial has a purely combinatorial expansion: one term per
collection of vertex-disjoint cycles, signed by the number of cycles, with
the variables of the edges *outside* the collection.  Substituting a single
variable ``t`` gives an integer polynomial whose coefficients count cycles,
detect the girth, and (knowing the edge connectivity) count long cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import GEndomorphism
from .charpoly import MultiPoly
from .errors import DiracGraphError
from .graph import (
    DEFAULT_EDGE_CAP,
    MetricGraph,
    degrees,
    enumerate_cycle_collections,
)
from .trails import GPermutation, permutation_to_decomposition


class AdjacencyEndomorphism(GEndomorphism):
    """The 0-1 edge map with every admissible entry set to one."""


def build_adjacency(g: MetricGraph) -> AdjacencyEndomorphism:
    mask = GEndomorphism.allowed_support(g)
    return AdjacencyEndomorphism(g, mask.astype(complex))


def adjacency_nonsingular(g: MetricGraph) -> tuple[bool, int | None]:
    """Whether the adjacency map is invertible, with its exact determinant.

    Invertibility forces every vertex to have in and out degree one, in
    which case the graph is a disjoint union of cycles and the determinant
    is ``(-1)`` to the number of cycles minus the number of edges.  The sign
    is cross-checked against a floating point determinant.
    """
    if any(degrees(g, v) != (1, 1) for v in g.vertices):
        return False, None
    # Disjoint cycles: the unique successors form a permutation, one orbit each.
    succ = {e.id: g.edges[g.out_edges(e.head)[0]].id for e in g.edges}
    cycles = permutation_to_decomposition(GPermutation(g, succ)).trail_count
    det = (-1) ** ((cycles - g.n_edges) % 2)
    numeric = np.linalg.det(build_adjacency(g).matrix).real
    if abs(numeric - det) > 1e-6:
        raise DiracGraphError(
            f"determinant cross-check failed: closed form {det}, numeric {numeric}"
        )
    return True, det


def charpoly_via_collections(g: MetricGraph, cap: int = DEFAULT_EDGE_CAP) -> MultiPoly:
    """Characteristic polynomial of the adjacency map by cycle collections.

    Every collection ``C`` of vertex-disjoint cycles contributes the sign
    ``(-1)`` to the number of its cycles times the monomial over the edges
    not in ``C``; the empty collection contributes the full monomial with
    coefficient one.  Coefficients are exact integers by construction.
    """
    ids = tuple(e.id for e in g.edges)
    full = (1 << g.n_edges) - 1
    terms: dict[int, complex] = {}
    for coll in enumerate_cycle_collections(g, cap):
        mask = 0
        for comp in coll.components:
            for eid in comp:
                mask |= 1 << g.edge_index(eid)
        outside = full & ~mask
        sign = -1.0 if coll.component_count % 2 else 1.0
        terms[outside] = terms.get(outside, 0.0) + sign
    terms = {m: c for m, c in terms.items() if c != 0}
    return MultiPoly(ids, terms)


@dataclass(frozen=True)
class CoefficientProfile:
    """Integer coefficients of the one-variable collection polynomial.

    ``coeffs[k]`` multiplies ``t^k``; the degree equals the edge count and
    the leading coefficient is one.  Coefficient ``n - l`` aggregates the
    signed collections with ``l`` edges.
    """

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.n + 1:
            raise ValueError("need exactly degree + 1 coefficients")

    @classmethod
    def from_graph(cls, g: MetricGraph, cap: int = DEFAULT_EDGE_CAP) -> "CoefficientProfile":
        return cls.from_multipoly(charpoly_via_collections(g, cap))

    @classmethod
    def from_multipoly(cls, poly: MultiPoly) -> "CoefficientProfile":
        """Substitute the same variable ``t`` for every edge variable."""
        n = poly.n_vars
        coeffs = [0.0] * (n + 1)
        for mask, c in poly.terms.items():
            coeffs[bin(mask).count("1")] += c
        out = []
        for c in coeffs:
            c = complex(c)
            r = round(c.real)
            if abs(c.imag) > 1e-9 or abs(c.real - r) > 1e-9:
                raise ValueError(f"coefficient {c} is not an integer")
            out.append(int(r))
        return cls(n, tuple(out))

    def as_array(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=float)


@dataclass(frozen=True)
class TopologyReport:
    """Graph features recovered from the coefficient profile alone.

    ``cycle_counts[l]`` is exact for ``1 <= l < 2 * girth``; with the edge
    connectivity ``k`` supplied, ``long_cycle_counts[n - l]`` is exact for
    ``l < k``.  ``a_n_minus_2`` mixes 2-cycles with disjoint loop pairs and
    ``a_n_minus_3`` mixes 3-cycles, loop and 2-cycle pairs, and loop
    triples; the raw values are reported since the parts cannot be separated
    from coefficients alone.
    """

    girth: int
    loop_count: int
    cycle_counts: dict[int, int]
    a_n_minus_2: int | None
    a_n_minus_3: int | None
    long_cycle_counts: dict[int, int]


def topology_from_coefficients(
    profile: CoefficientProfile, k_connectivity: int | None = None
) -> TopologyReport:
    """Read girth and small cycle counts off the coefficient profile.

    The girth is the smallest ``l >= 1`` with ``coeffs[n - l]`` nonzero;
    an all-zero tail means the graph is acyclic and the girth undefined
    (raises).  Below twice the girth a length-``l`` collection must be a
    single cycle, so ``-coeffs[n - l]`` counts cycles of length ``l``
    exactly.  When the caller also knows the graph is ``k``
    edge-connected, collections close to the full edge set cannot
    disconnect either, giving ``-coeffs[l]`` as the count of cycles of
    length ``n - l`` for ``l < k``.
    """
    n = profile.n
    girth = None
    for l in range(1, n + 1):
        if profile.coeffs[n - l] != 0:
            girth = l
            break
    if girth is None:
        raise DiracGraphError("all subleading coefficients vanish: graph is acyclic")
    cycle_counts = {}
    for l in range(1, min(2 * girth, n + 1)):
        cycle_counts[l] = -profile.coeffs[n - l]
    long_counts = {}
    if k_connectivity is not None:
        for l in range(0, min(k_connectivity, n + 1)):
            long_counts[n - l] = -profile.coeffs[l]
    return TopologyReport(
        girth=girth,
        loop_count=-profile.coeffs[n - 1] if n >= 1 else 0,
        cycle_counts=cycle_counts,
        a_n_minus_2=profile.coeffs[n - 2] if n >= 2 else None,
        a_n_minus_3=profile.coeffs[n - 3] if n >= 3 else None,
        long_cycle_counts=long_counts,
    )


def edge_connectivity(g: MetricGraph, mode: str = "directed") -> int:
    """Least number of edge removals that disconnect the graph.

    ``mode="directed"`` requires strong connectivity of what remains,
    ``mode="undirected"`` only connectivity of the underlying undirected
    graph; a vertex left without any incident edge counts as disconnecting
    in both modes, so no vertex needs more removals than its incident edges.
    By Menger's theorem the least cut between two vertices is the largest
    number of edge-disjoint paths joining them, found by unit-capacity
    augmenting paths (Even & Tarjan, SIAM J. Comput. 4, 1975).  Fixing one
    vertex ``v0``, every cut separates it from some ``t`` (or, in directed
    mode, some ``t`` from it), so the answer is the least such flow.
    """
    if mode not in ("directed", "undirected"):
        raise ValueError("mode must be 'directed' or 'undirected'")
    pos = {v: i for i, v in enumerate(g.vertices)}
    n = len(pos)
    capacity = [[0] * n for _ in range(n)]
    incident = [0] * n
    for e in g.edges:
        tail, head = pos[e.tail], pos[e.head]
        incident[tail] += 1
        if head != tail:
            incident[head] += 1
            capacity[tail][head] += 1
            if mode == "undirected":
                capacity[head][tail] += 1
    best = min(incident, default=0)
    for t in range(1, n):
        best = _max_flow(capacity, 0, t, best)
        if mode == "directed":
            best = _max_flow(capacity, t, 0, best)
    return best


def _max_flow(capacity: list[list[int]], s: int, t: int, limit: int) -> int:
    """Integer ``s -> t`` flow by breadth-first augmenting paths, capped at ``limit``."""
    n = len(capacity)
    residual = [row[:] for row in capacity]
    flow = 0
    while flow < limit:
        parent = [-1] * n
        parent[s] = s
        queue = [s]
        for u in queue:
            for w in range(n):
                if residual[u][w] and parent[w] < 0:
                    parent[w] = u
                    queue.append(w)
        if parent[t] < 0:
            break
        w = t
        while w != s:
            u = parent[w]
            residual[u][w] -= 1
            residual[w][u] += 1
            w = u
        flow += 1
    return flow
