"""Edge permutations, closed trail decompositions and their spectra.

A vertex-compatible permutation sends every edge to an edge starting where
the first one ends.  Its orbits traverse closed trails that partition the
edge set, and conversely every partition of the edges into closed trails
defines such a permutation.  The associated boundary condition has a fully
explicit spectrum: a trail of metric length ``L`` contributes the arithmetic
progression ``2 pi k / L``, and multiplicities count the trails whose length
divides out the phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as _permutations

import numpy as np

from .boundary import GEndomorphism
from .errors import EnumerationCapExceeded
from .graph import MetricGraph
from .spectrum import (
    EigenvalueEntry,
    Eigenfunction,
    SpectrumReport,
    Window,
    as_window,
    _real_window,
    _sorted_entries,
)

# Relative tolerance for deciding that a length ratio is a whole number.
DIVISIBILITY_RTOL = 1e-9

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


def _qualifying_trails(lam: float, lengths) -> list[int]:
    out = []
    for j, L in enumerate(lengths):
        ratio = lam * L / (2 * math.pi)
        if abs(ratio - round(ratio)) <= DIVISIBILITY_RTOL * max(1.0, abs(ratio)):
            out.append(j)
    return out


def permutation_spectrum(p: GPermutation, lengths=None, window=(-10.0, 10.0)) -> SpectrumReport:
    """Closed-form spectrum of the boundary condition of an edge permutation.

    Block diagonalizing over the trail decomposition, a trail of metric
    length ``L_j`` contributes the eigenvalues ``2 pi k / L_j``.  The
    multiplicity of a reported value is the number of trails whose length
    times the value is a whole multiple of ``2 pi`` (within relative
    ``DIVISIBILITY_RTOL``); zero always qualifies every trail, so its
    multiplicity is the trail count.  Eigenfunctions are constant magnitude
    waves supported on one qualifying trail each.  A window expected to hold
    more than ``MAX_EXPECTED_ROOTS`` eigenvalues, ``width sum(l) / 2 pi``,
    is refused with :class:`WindowTooLargeError` before any is listed.
    """
    g = p.graph
    window = as_window(window)
    if lengths is None:
        lengths = g.lengths()
    lengths = np.asarray(lengths, dtype=float)
    _real_window(window, lengths)
    d = permutation_to_decomposition(p)
    trail_lengths = [
        float(sum(lengths[g.edge_index(eid)] for eid in t)) for t in d.trails
    ]

    candidates: list[float] = []
    for L in trail_lengths:
        step = 2 * math.pi / L
        k_lo = math.ceil(window.re_min / step - 1e-12)
        k_hi = math.floor(window.re_max / step + 1e-12)
        candidates.extend(k * step for k in range(k_lo, k_hi + 1))
    candidates.sort()

    entries: list[EigenvalueEntry] = []
    m_trails = len(trail_lengths)
    scale = 2.0**m_trails
    i = 0
    while i < len(candidates):
        lam = candidates[i]
        j = i + 1
        group = [lam]
        while j < len(candidates) and candidates[j] - lam <= 1e-9 * (1 + abs(lam)):
            group.append(candidates[j])
            j += 1
        i = j
        lam = group[0] if abs(group[0]) > 1e-12 else 0.0
        qualifying = _qualifying_trails(lam, trail_lengths)
        if not qualifying:
            continue
        secular = np.prod([np.exp(1j * lam * L) - 1.0 for L in trail_lengths])
        residual = abs(complex(secular)) / scale
        funcs = []
        for jt in qualifying:
            # Crossing an edge multiplies the amplitude by exp(-i lam l); a
            # qualifying trail closes the phase loop exactly.
            amp = np.zeros(g.n_edges, dtype=complex)
            phase = 1.0 + 0.0j
            for eid in d.trails[jt]:
                ei = g.edge_index(eid)
                amp[ei] = phase
                phase *= np.exp(-1j * lam * lengths[ei])
            funcs.append(Eigenfunction(complex(lam), amp))
        entries.append(
            EigenvalueEntry(complex(lam), len(qualifying), residual, tuple(funcs))
        )
    return SpectrumReport("closed-form", window, _sorted_entries(entries))


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
