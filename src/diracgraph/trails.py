"""Edge permutations, closed trail decompositions and their spectra.

A vertex-compatible permutation sends every edge to an edge starting where
the first one ends.  Its orbits traverse closed trails that partition the
edge set, and conversely every partition of the edges into closed trails
defines such a permutation.  The associated boundary condition has a fully
explicit spectrum: a trail of metric length ``L`` contributes the arithmetic
progression ``2 pi k / L``, and multiplicities count the trails whose
progressions meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as _permutations

import numpy as np

from .boundary import GEndomorphism
from .errors import EnumerationCapExceeded
from .graph import MetricGraph
from .spectrum import RESIDUAL_TOL, SpectrumReport, as_window, _certified_blocks
from .spectrum import _cycle_candidates, _real_window

ENUMERATION_GUARD = 10**6


class GPermutation:
    """Bijection of the edge set compatible with the vertex structure.

    ``mapping[e] = f`` requires edge ``f`` to start where edge ``e`` ends.
    The matrix acting on edge values therefore has a one in row ``f``,
    column ``e``, making it a vertex-compatible edge map with exactly one
    entry per row and column.
    """

    def __init__(self, graph: MetricGraph, mapping: dict[str, str]):
        ids = [e.id for e in graph.edges]
        if set(mapping) != set(ids) or set(mapping.values()) != set(ids):
            raise ValueError("mapping is not a bijection of the edge set")
        for src, dst in mapping.items():
            if graph.edge(src).head != graph.edge(dst).tail:
                raise ValueError(
                    f"edge {dst!r} does not start where edge {src!r} ends"
                )
        self.graph = graph
        self.mapping = dict(mapping)

    def __call__(self, edge_id: str) -> str:
        return self.mapping[edge_id]

    def to_endomorphism(self) -> GEndomorphism:
        n = self.graph.n_edges
        m = np.zeros((n, n), dtype=complex)
        for src, dst in self.mapping.items():
            m[self.graph.edge_index(dst), self.graph.edge_index(src)] = 1.0
        return GEndomorphism(self.graph, m)

    def __repr__(self) -> str:  # pragma: no cover
        return f"GPermutation({self.mapping})"


@dataclass(frozen=True)
class TrailDecomposition:
    """Partition of the edge set into closed trails.

    Each trail is an edge id sequence with consecutive edges joined head to
    tail, closing up at the end; trails are rotated so their smallest edge
    id leads.
    """

    graph: MetricGraph
    trails: tuple[tuple[str, ...], ...]

    @property
    def trail_count(self) -> int:
        return len(self.trails)

    def lengths(self) -> tuple[float, ...]:
        return tuple(
            sum(self.graph.edge(eid).length for eid in t) for t in self.trails
        )

    def edge_counts(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.trails)


def _canonical_trail(trail: tuple[str, ...]) -> tuple[str, ...]:
    lead = trail.index(min(trail))
    return trail[lead:] + trail[:lead]


def permutation_to_decomposition(p: GPermutation) -> TrailDecomposition:
    """Orbit decomposition of a permutation into closed trails."""
    seen: set[str] = set()
    trails = []
    for e in p.graph.edges:
        if e.id in seen:
            continue
        orbit = [e.id]
        seen.add(e.id)
        nxt = p(e.id)
        while nxt != e.id:
            orbit.append(nxt)
            seen.add(nxt)
            nxt = p(nxt)
        trails.append(_canonical_trail(tuple(orbit)))
    return TrailDecomposition(p.graph, tuple(trails))


def decomposition_to_permutation(d: TrailDecomposition) -> GPermutation:
    """Successor map of a trail decomposition.

    Validates that every trail closes head to tail and that the trails
    partition the edge set.
    """
    g = d.graph
    mapping: dict[str, str] = {}
    for trail in d.trails:
        if not trail:
            raise ValueError("empty trail")
        for i, eid in enumerate(trail):
            nxt = trail[(i + 1) % len(trail)]
            if g.edge(eid).head != g.edge(nxt).tail:
                raise ValueError(
                    f"trail breaks between {eid!r} and {nxt!r}: head and tail differ"
                )
            if eid in mapping:
                raise ValueError(f"edge {eid!r} appears twice")
            mapping[eid] = nxt
    if len(mapping) != g.n_edges:
        missing = {e.id for e in g.edges} - set(mapping)
        raise ValueError(f"edges not covered by any trail: {sorted(missing)}")
    return GPermutation(g, mapping)


def enumerate_g_permutations(
    g: MetricGraph, guard: int = ENUMERATION_GUARD
) -> list[GPermutation]:
    """All vertex-compatible edge permutations, in a deterministic order.

    At each vertex the arriving edges are matched bijectively to the leaving
    edges, so permutations exist exactly when in and out degrees balance
    everywhere, and their number is the product of the degree factorials.
    Counts beyond ``guard`` raise instead of enumerating; sample per-vertex
    matchings yourself if you need a few large cases.
    """
    per_vertex: list[tuple[list[str], list[str]]] = []
    count = 1
    for v in g.vertices:
        ins = [g.edges[i].id for i in g.in_edges(v)]
        outs = [g.edges[i].id for i in g.out_edges(v)]
        if len(ins) != len(outs):
            return []
        per_vertex.append((ins, outs))
        count *= math.factorial(len(ins))
    if count > guard:
        raise EnumerationCapExceeded(
            f"{count} edge permutations exceed the guard of {guard}"
        )

    results: list[GPermutation] = []

    def build(vi: int, mapping: dict[str, str]) -> None:
        if vi == len(per_vertex):
            results.append(GPermutation(g, dict(mapping)))
            return
        ins, outs = per_vertex[vi]
        for perm in _permutations(outs):
            for src, dst in zip(ins, perm):
                mapping[src] = dst
            build(vi + 1, mapping)
        for src in ins:
            mapping.pop(src, None)

    build(0, {})
    return results


def loop_count_via_trace(p: GPermutation) -> int:
    """Number of fixed points, read off the trace of the permutation matrix.

    A fixed edge closes on itself, so this is the number of single-edge
    trails, which for a vertex-compatible permutation are exactly loops.
    """
    return int(round(np.trace(p.to_endomorphism().matrix).real))


def permutation_spectrum(p: GPermutation, lengths=None, window=(-10.0, 10.0)) -> SpectrumReport:
    """Closed-form spectrum of the boundary condition of an edge permutation.

    Each trail is one cyclic block of the permutation map, and a trail of
    metric length ``L_j`` contributes the eigenvalues ``2 pi k / L_j``: the
    eigenphase locator's rule for a weighted cycle, here of holonomy 1
    (:func:`spectrum._cycle_candidates`).  These only propose: every
    block's candidates, hinted simple, go through the shared step of the
    real axis (:func:`spectrum._certified_blocks`), which certifies them by
    the rank of the trail's own ``T_b(lambda)`` and merges the entries of
    trails that meet within ``DEDUPE_RADIUS``, adding their
    multiplicities.  Zero is an eigenvalue of every trail, so its
    multiplicity is the trail count.  Eigenfunctions are supported on one
    trail each.  A window expected to hold more than ``MAX_EXPECTED_ROOTS``
    eigenvalues, ``width sum(l) / 2 pi``, is refused with
    :class:`WindowTooLargeError` before any is listed.
    """
    g = p.graph
    window = as_window(window)
    lengths = np.asarray(g.lengths() if lengths is None else lengths, dtype=float)
    lo, hi = _real_window(window, lengths)
    matrix = p.to_endomorphism().matrix
    blocks = []
    for trail in permutation_to_decomposition(p).trails:
        idx = np.array([g.edge_index(eid) for eid in trail])
        blocks.append((idx, _cycle_candidates(matrix[np.ix_(idx, idx)], lengths[idx], lo, hi)))
    warnings: list[str] = []
    entries = _certified_blocks(matrix, lengths, window, blocks, RESIDUAL_TOL, warnings)
    return SpectrumReport("closed-form", window, entries, tuple(warnings))


def longest_trail_from_spectrum(report: SpectrumReport) -> tuple[float, int]:
    """Longest trail length and how many trails attain it, from a spectrum.

    The smallest positive eigenvalue ``lam`` satisfies ``lam = 2 pi / L``
    with ``L`` the longest trail length, and its multiplicity counts the
    trails of that length.  Raises when the window contains no positive
    eigenvalue.
    """
    positive = [
        e
        for e in report.eigenvalues
        if e.value.real > 1e-12 and abs(e.value.imag) <= 1e-9
    ]
    if not positive:
        raise ValueError("no positive eigenvalue in the window")
    first = min(positive, key=lambda e: e.value.real)
    return 2 * math.pi / first.value.real, first.multiplicity
