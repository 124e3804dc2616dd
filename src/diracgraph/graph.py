"""Finite metric directed multigraphs and their cycle structure.

A graph is a list of vertices and a list of directed edges with strictly
positive lengths.  Loops and parallel edges are allowed, isolated vertices are
not.  Vertices and edges keep their input order and every matrix built
elsewhere in the package is indexed in that order, so results are reproducible
run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EnumerationCapExceeded

# Cycle and collection enumeration is exponential in the number of edges.
# Past this many edges the enumerating routines refuse instead of hanging.
DEFAULT_EDGE_CAP = 24


@dataclass(frozen=True)
class Edge:
    """Directed edge from ``tail`` to ``head`` with a metric length."""

    id: str
    tail: str
    head: str
    length: float = 1.0

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head


class MetricGraph:
    """Directed multigraph with ordered vertices and edges.

    Construction is permissive: apart from duplicate identifiers (which would
    make index lookups ambiguous) nothing is rejected, so that
    :func:`validate` can report structural problems instead of raising.
    Operations elsewhere in the package assume a graph that passes
    :func:`validate`.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate edge ids")
        self._vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self._edge_index = {e.id: i for i, e in enumerate(self.edges)}
        self._out: dict[str, list[int]] = {v: [] for v in self.vertices}
        self._in: dict[str, list[int]] = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            if e.tail in self._vertex_index:
                self._out[e.tail].append(i)
            if e.head in self._vertex_index:
                self._in[e.head].append(i)

    # -- basic accessors -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_index(self, edge_id: str) -> int:
        return self._edge_index[edge_id]

    def vertex_index(self, vertex_id: str) -> int:
        return self._vertex_index[vertex_id]

    def edge(self, edge_id: str) -> Edge:
        return self.edges[self._edge_index[edge_id]]

    def out_edges(self, vertex_id: str) -> tuple[int, ...]:
        """Indices of edges starting at ``vertex_id``, in input order."""
        return tuple(self._out[vertex_id])

    def in_edges(self, vertex_id: str) -> tuple[int, ...]:
        """Indices of edges ending at ``vertex_id``, in input order."""
        return tuple(self._in[vertex_id])

    def lengths(self) -> tuple[float, ...]:
        return tuple(e.length for e in self.edges)

    @property
    def total_length(self) -> float:
        return float(sum(e.length for e in self.edges))

    def __repr__(self) -> str:  # pragma: no cover
        return f"MetricGraph({self.n_vertices} vertices, {self.n_edges} edges)"

    def require_valid(self) -> None:
        """Raise ``ValueError`` listing all structural violations, if any."""
        problems = validate(self)
        if problems:
            raise ValueError("; ".join(problems))


def graph_from_edges(
    edge_specs: Sequence[tuple], vertices: Sequence[str] | None = None
) -> MetricGraph:
    """Build a graph from ``(id, tail, head[, length])`` tuples.

    When ``vertices`` is omitted the vertex list is inferred from edge
    endpoints in order of first appearance.
    """
    edges = []
    for spec in edge_specs:
        if len(spec) == 3:
            eid, tail, head = spec
            edges.append(Edge(str(eid), str(tail), str(head)))
        else:
            eid, tail, head, length = spec
            edges.append(Edge(str(eid), str(tail), str(head), float(length)))
    if vertices is None:
        seen: dict[str, None] = {}
        for e in edges:
            seen.setdefault(e.tail)
            seen.setdefault(e.head)
        vertices = list(seen)
    return MetricGraph(vertices, edges)


def validate(g: MetricGraph) -> list[str]:
    """Collect structural violations; an empty list means the graph is valid.

    Checked: every edge endpoint names a known vertex, every length is
    strictly positive, and no vertex is isolated.
    """
    problems = []
    known = set(g.vertices)
    incident: set[str] = set()
    for e in g.edges:
        for endpoint in (e.tail, e.head):
            if endpoint not in known:
                problems.append(f"edge {e.id!r}: unknown endpoint {endpoint!r}")
            else:
                incident.add(endpoint)
        if not e.length > 0:
            problems.append(f"edge {e.id!r}: nonpositive length {e.length}")
    for v in g.vertices:
        if v not in incident:
            problems.append(f"vertex {v!r} is isolated")
    return problems


def degrees(g: MetricGraph, vertex_id: str) -> tuple[int, int]:
    """``(in_degree, out_degree)`` of a vertex; a loop adds one to each."""
    if vertex_id not in g._vertex_index:
        raise KeyError(f"unknown vertex {vertex_id!r}")
    return len(g.in_edges(vertex_id)), len(g.out_edges(vertex_id))


def is_eulerian_components(g: MetricGraph) -> bool:
    """Whether every component of ``g`` carries a closed trail through all its edges.

    For a directed multigraph without isolated vertices this holds exactly
    when in and out degree agree at every vertex: each weakly connected
    component with balanced degrees is automatically strongly connected and
    admits an Eulerian circuit.
    """
    return all(len(g.in_edges(v)) == len(g.out_edges(v)) for v in g.vertices)


# -- subgraphs and cycle collections ------------------------------------


@dataclass(frozen=True)
class Subgraph:
    """Edge subset of a parent graph; its vertices are those of :meth:`induced_graph`."""

    parent: MetricGraph
    edge_ids: frozenset[str]

    def induced_graph(self) -> MetricGraph:
        """Standalone graph on this edge subset, preserving parent order."""
        edges = [e for e in self.parent.edges if e.id in self.edge_ids]
        verts = {e.tail for e in edges} | {e.head for e in edges}
        vertices = [v for v in self.parent.vertices if v in verts]
        return MetricGraph(vertices, edges)


@dataclass(frozen=True)
class CycleCollection:
    """Vertex-disjoint directed cycles inside a parent graph.

    ``components`` lists each cycle as an edge id sequence in traversal
    order, rotated so the edge with the smallest index leads.  The empty
    collection (no components) is a valid value.
    """

    subgraph: Subgraph
    components: tuple[tuple[str, ...], ...]

    @property
    def component_count(self) -> int:
        return len(self.components)

    @property
    def edge_count(self) -> int:
        return sum(len(c) for c in self.components)

    @property
    def total_length(self) -> float:
        g = self.subgraph.parent
        return float(sum(g.edge(eid).length for c in self.components for eid in c))


def _canonical_rotation(g: MetricGraph, comp: Sequence[str]) -> tuple[str, ...]:
    idx = [g.edge_index(eid) for eid in comp]
    lead = idx.index(min(idx))
    return tuple(comp[lead:]) + tuple(comp[:lead])


def collection_from_components(
    g: MetricGraph, components: Iterable[Sequence[str]]
) -> CycleCollection:
    comps = tuple(_canonical_rotation(g, c) for c in components)
    comps = tuple(sorted(comps, key=lambda c: g.edge_index(c[0])))
    edge_ids = frozenset(eid for c in comps for eid in c)
    return CycleCollection(Subgraph(g, edge_ids), comps)


def _check_cap(g: MetricGraph, cap: int) -> None:
    if g.n_edges > cap:
        raise EnumerationCapExceeded(
            f"graph has {g.n_edges} edges, enumeration capped at {cap}; "
            "raise the cap explicitly if you accept the exponential cost"
        )


def enumerate_cycles(g: MetricGraph, cap: int = DEFAULT_EDGE_CAP) -> list[CycleCollection]:
    """All simple directed cycles, each as a single-component collection.

    A cycle repeats no vertex, is traversed along edge directions, and is
    reported once up to rotation.  Parallel edges yield distinct cycles;
    loops count as cycles of length one.  Enumeration anchors each cycle at
    its smallest vertex index and explores only larger indices, so every
    cycle appears exactly once and the output order is deterministic.
    """
    _check_cap(g, cap)
    heads = [g.vertex_index(e.head) for e in g.edges]
    found: list[CycleCollection] = []

    def extend(anchor: int, v: int, path: list[int], on_path: set[int]) -> None:
        for ei in g._out[g.vertices[v]]:
            w = heads[ei]
            if w == anchor:
                comp = tuple(g.edges[i].id for i in path + [ei])
                found.append(collection_from_components(g, [comp]))
            elif w > anchor and w not in on_path:
                on_path.add(w)
                path.append(ei)
                extend(anchor, w, path, on_path)
                path.pop()
                on_path.remove(w)

    for anchor in range(g.n_vertices):
        extend(anchor, anchor, [], set())
    return found


def enumerate_cycle_collections(
    g: MetricGraph, cap: int = DEFAULT_EDGE_CAP
) -> list[CycleCollection]:
    """All collections of pairwise vertex-disjoint cycles, empty one included.

    Built by extending the cycle list from :func:`enumerate_cycles` with a
    compatibility search.  Two cycles are compatible when they share no
    vertex; within one collection the cycles are therefore also edge
    disjoint.
    """
    cycles = [c.components[0] for c in enumerate_cycles(g, cap)]
    ends = {e.id: (e.tail, e.head) for e in g.edges}
    vsets = [frozenset(v for eid in comp for v in ends[eid]) for comp in cycles]

    out = [CycleCollection(Subgraph(g, frozenset()), ())]
    chosen: list[int] = []

    def extend(start: int, used: frozenset[str]) -> None:
        for i in range(start, len(cycles)):
            if vsets[i] & used:
                continue
            chosen.append(i)
            out.append(collection_from_components(g, [cycles[j] for j in chosen]))
            extend(i + 1, used | vsets[i])
            chosen.pop()

    extend(0, frozenset())
    return out


def girth_bruteforce(g: MetricGraph, cap: int = DEFAULT_EDGE_CAP) -> int | None:
    """Length (edge count) of a shortest cycle, or ``None`` if none exists."""
    cycles = enumerate_cycles(g, cap)
    if not cycles:
        return None
    return min(c.edge_count for c in cycles)


def subdivide_edge(
    g: MetricGraph,
    edge_id: str,
    split: float = 0.5,
) -> tuple[MetricGraph, str]:
    """Replace one edge by a path of two through a fresh midpoint vertex.

    The two replacement edges inherit the original direction and split the
    original length by the ``split`` fraction; they occupy consecutive
    positions at the original edge's slot.  Returns the new graph and the id
    of the inserted vertex, which has in and out degree one by construction.
    """
    if not 0 < split < 1:
        raise ValueError("split fraction must lie strictly between 0 and 1")
    e = g.edge(edge_id)
    mid = f"{edge_id}@mid"
    while mid in g._vertex_index:
        mid += "'"
    first, second = f"{edge_id}.a", f"{edge_id}.b"
    while first in g._edge_index:
        first += "'"
    while second in g._edge_index:
        second += "'"
    edges: list[Edge] = []
    for other in g.edges:
        if other.id == edge_id:
            edges.append(Edge(first, e.tail, mid, e.length * split))
            edges.append(Edge(second, mid, e.head, e.length * (1 - split)))
        else:
            edges.append(other)
    vertices = list(g.vertices) + [mid]
    return MetricGraph(vertices, edges), mid
