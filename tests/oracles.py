"""Independent re-derivations the tests check the package against.

Each helper computes its answer the slow, direct way and shares no code
with the routine it checks: term-by-term polynomial evaluation, the secular
function summed straight from cycle collections, edge connectivity by
trying every removal subset, real eigenvalues by bisecting on the
eigenphase count of plain ``eigvals``, eigenvalue multiplicities from
the boundary subspace instead of the edge map, the eigenvalues of weighted
cycles by following each one around, the distinct roots of an
integer polynomial and the commensurability of lengths by exact rational
arithmetic.  The last helpers are library-style forms of the paper's
constructions that only tests use: the girth by cycle enumeration, the
splitting of an edge map into invariant blocks, the residual of an
eigenfunction against a boundary subspace, the substitution of 1 for one
polynomial variable, and the distance of two spans.
"""

import cmath
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from diracgraph.boundary import GEndomorphism
from diracgraph.charpoly import MAX_DENOMINATOR, MultiPoly, edge_classes
from diracgraph.graph import (
    DEFAULT_EDGE_CAP,
    MetricGraph,
    enumerate_cycle_collections,
    enumerate_cycles,
)
from diracgraph.linalg import intersection_dim, orthonormal_columns
from diracgraph.spectrum import DEDUPE_RADIUS, RANK_RTOL


def evaluate_point(poly, values) -> complex:
    """Evaluate a ``MultiPoly`` at one complex value per edge, term by term."""
    values = np.asarray(values, dtype=complex)
    total = 0.0 + 0.0j
    for mask, c in poly.terms.items():
        prod = c
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            prod *= values[i]
            m &= m - 1
        total += prod
    return complex(total)


def adjacency_char_function(g, lam: complex, cap: int = DEFAULT_EDGE_CAP) -> complex:
    """Secular function of the adjacency map, straight from collections.

    Each collection of total metric length ``L_C`` contributes its sign
    times ``exp(i lam (L_G - L_C))`` where ``L_G`` is the total graph
    length.
    """
    total = g.total_length
    acc = 0.0 + 0.0j
    for coll in enumerate_cycle_collections(g, cap):
        sign = -1.0 if coll.component_count % 2 else 1.0
        acc += sign * np.exp(1j * lam * (total - coll.total_length))
    return complex(acc)


def edge_connectivity_bruteforce(g) -> int:
    """Least number of edge removals that leave the underlying undirected
    graph disconnected, by trying all subsets.

    A vertex left without any incident edge counts as disconnecting.
    Exponential in the edge count.
    """

    def connected(remaining: list[int]) -> bool:
        if not g.vertices:
            return True
        incident: dict[str, list[int]] = {v: [] for v in g.vertices}
        for i in remaining:
            e = g.edges[i]
            incident[e.tail].append(i)
            if e.head != e.tail:
                incident[e.head].append(i)
        if any(not lst for lst in incident.values()):
            return False
        if len(g.vertices) == 1:
            return True
        vset = list(g.vertices)
        seen = {vset[0]}
        stack = [vset[0]]
        while stack:
            v = stack.pop()
            for i in incident[v]:
                e = g.edges[i]
                for w in (e.tail, e.head):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return len(seen) == len(vset)

    all_edges = list(range(g.n_edges))
    for k in range(g.n_edges + 1):
        for removed in combinations(all_edges, k):
            remaining = [i for i in all_edges if i not in removed]
            if not connected(remaining):
                return k
    return g.n_edges


def real_eigenvalues_by_bisection(a, lengths, lo: float, hi: float, tol: float = 1e-11):
    """Eigenvalues of a unitary edge map in ``[lo, hi)`` as sorted ``(centre,
    count)`` pairs, one cell at a time.

    ``S(x) = diag(exp(-i x l)) A`` is unitary; its eigenphases turn clockwise
    with summed rate ``L``, and each eigenvalue in a cell ``[x0, x1)`` wraps
    one of them from 0 to ``2 pi``, so the cell holds ``(L (x1 - x0) + sum
    theta(x1) - sum theta(x0)) / 2 pi`` eigenvalues, every ``theta`` from
    ``np.linalg.eigvals`` taken in ``[0, 2 pi)``.  Cells holding any are
    halved until narrower than ``tol``; two eigenvalues closer than that
    come back as one cell.
    """
    lengths = np.asarray(lengths, dtype=float)
    total = float(lengths.sum())

    def phase_sum(x):
        w = np.linalg.eigvals(np.diag(np.exp(-1j * x * lengths)) @ a.matrix)
        return float(np.sum(np.mod(np.angle(w), 2 * math.pi)))

    def count(x0, p0, x1, p1):
        return round((total * (x1 - x0) + p1 - p0) / (2 * math.pi))

    found = []
    stack = [(lo, phase_sum(lo), hi, phase_sum(hi))]
    while stack:
        x0, p0, x1, p1 = stack.pop()
        c = count(x0, p0, x1, p1)
        if c == 0:
            continue
        if x1 - x0 < tol:
            found.append(((x0 + x1) / 2, c))
            continue
        mid = (x0 + x1) / 2
        pm = phase_sum(mid)
        stack += [(x0, p0, mid, pm), (mid, pm, x1, p1)]
    return sorted(found)


def weighted_cycle_lattice(matrix, lengths, lo: float, hi: float):
    """Eigenvalues in ``[lo, hi]`` of a map with one nonzero entry in every
    row and column, as sorted ``(value, count)`` pairs.

    Following the entries from an edge back to itself traces one cycle,
    with the product ``c`` of its entries and its length ``L``; its
    eigenvalues are where ``c exp(-i lambda L) = 1``, the real lattice
    ``(arg c + 2 pi k) / L``.  Values within ``DEDUPE_RADIUS`` of the first
    of a run count as one, as the solvers report them.
    """
    n = len(lengths)
    target = [int(np.flatnonzero(matrix[:, j])[0]) for j in range(n)]
    seen, values = set(), []
    for start in range(n):
        c, total, j = 1.0 + 0.0j, 0.0, start
        while j not in seen:
            seen.add(j)
            c, total, j = c * complex(matrix[target[j], j]), total + float(lengths[j]), target[j]
        arg = cmath.phase(c)
        k = math.floor((lo * total - arg) / (2 * math.pi))
        while total and (x := (arg + 2 * math.pi * k) / total) <= hi:
            values += [x] if x >= lo else []
            k += 1
    found = []
    for x in sorted(values):
        if found and x - found[-1][0] <= DEDUPE_RADIUS:
            found[-1][1] += 1
        else:
            found.append([x, 1])
    return [(x, c) for x, c in found]


def general_eigencondition(b, lengths, lam: complex) -> int:
    """Eigenvalue multiplicity of ``lam`` under an arbitrary boundary subspace.

    Solutions of the scalar equation at ``lam`` have traces spanned by
    ``start_e + exp(-i lam l_e) end_e``; the multiplicity is the dimension
    of the intersection of that solution span with ``b``, computed from the
    rank of the stacked bases.
    """
    space = b.space
    lengths = np.asarray(lengths, dtype=float)
    n = space.graph.n_edges
    decay = np.exp(-1j * lam * lengths)
    sol = space.embed_start(np.eye(n, dtype=complex)).T
    sol += space.embed_end(np.diag(decay)).T
    return intersection_dim(sol, b.matrix, RANK_RTOL)


def _divide(a, b):
    """Quotient and remainder of polynomials of ``Fraction`` coefficients,
    highest degree first; the remainder has its leading zeros stripped."""
    a, quotient = list(a), []
    while len(a) >= len(b):
        c = a[0] / b[0]
        quotient.append(c)
        a = [x - c * y for x, y in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
    while a and a[0] == 0:
        a = a[1:]
    return quotient, a


def _remainder(a, b):
    """Pseudo-remainder of integer polynomials (highest degree first), the
    remainder of ``b[0]**k a`` by ``b``, divided by its content: a step of
    the primitive remainder sequence, whose integers stay small."""
    while len(a) >= len(b):
        a = [b[0] * x - a[0] * y for x, y in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
        while a and a[0] == 0:
            a = a[1:]
    content = math.gcd(*a) if a else 1
    return [c // content for c in a]


def distinct_roots(coeffs) -> np.ndarray:
    """Roots of an integer polynomial (highest degree first), each once:
    ``np.roots`` of ``p / gcd(p, p')``, whose roots are all simple, with the
    gcd taken in exact integer arithmetic.  ``np.roots`` of ``p`` itself
    scatters an ``m``-fold root by about ``eps**(1/m)``."""
    p = [int(c) for c in coeffs]
    g, r = p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
    while r:
        g, r = r, _remainder(g, r)
    return np.roots([float(c) for c in _divide([Fraction(c) for c in p], g)[0]])


def commensurable_by_fractions(lengths):
    """``(multipliers, delta)`` with ``l_e = m_e delta`` within relative
    ``1e-9``, or ``None``: each ratio to the first length reconstructed on
    its own by ``Fraction.limit_denominator(MAX_DENOMINATOR)``, the closest
    fraction of bounded denominator in exact arithmetic."""
    lengths = [float(x) for x in lengths]
    if not lengths or any(x <= 0 for x in lengths):
        return None
    fracs = [Fraction(x / lengths[0]).limit_denominator(MAX_DENOMINATOR) for x in lengths]
    if any(f <= 0 for f in fracs):
        return None
    common = math.lcm(*(f.denominator for f in fracs))
    delta = lengths[0] / common
    mult = [int(f.numerator * (common // f.denominator)) for f in fracs]
    if any(abs(m * delta - x) > 1e-9 * x for m, x in zip(mult, lengths)):
        return None
    return mult, delta


def girth_bruteforce(g, cap: int = DEFAULT_EDGE_CAP) -> int | None:
    """Length (edge count) of a shortest cycle, or ``None`` if none exists."""
    cycles = enumerate_cycles(g, cap)
    if not cycles:
        return None
    return min(c.edge_count for c in cycles)


def induced_graph(g, edge_ids) -> MetricGraph:
    """Standalone graph on an edge subset of ``g``, preserving its order."""
    edges = [e for e in g.edges if e.id in edge_ids]
    verts = {e.tail for e in edges} | {e.head for e in edges}
    return MetricGraph([v for v in g.vertices if v in verts], edges)


def split_reducible(a) -> list[tuple[frozenset[str], GEndomorphism]]:
    """Finest splitting of the edge set into invariant blocks.

    A subset of edges is invariant when the matrix maps values supported on
    it back into it.  The finest blocks are the classes of ``edge_classes``,
    in its order, so the full matrix is block triangular with the returned
    blocks on the diagonal: the characteristic polynomial factors over the
    blocks and the spectrum is the union of the block spectra.  An
    irreducible map comes back as a single block.
    """
    g = a.graph
    out = []
    for block in edge_classes(a.matrix):
        ids = frozenset(g.edges[i].id for i in block)
        sub = induced_graph(g, ids)
        out.append((ids, GEndomorphism(sub, a.matrix[np.ix_(block, block)])))
    return out


def eigenfunction_residual(b, f, lengths=None) -> float:
    """Distance of an eigenfunction's trace from the boundary subspace.

    The trace has the amplitude at each edge start and the amplitude damped
    by ``exp(-i lambda l_e)`` at each edge end; the residual is the norm of
    its component orthogonal to ``b``, normalized by the amplitude norm.
    """
    space = b.space
    if lengths is None:
        lengths = space.graph.lengths()
    lengths = np.asarray(lengths, dtype=float)
    w = np.asarray(f.amplitudes, dtype=complex)
    norm = np.linalg.norm(w)
    if norm == 0:
        raise ValueError("zero amplitude vector is not an eigenfunction")
    trace = space.embed_start(w) + space.embed_end(w * np.exp(-1j * f.eigenvalue * lengths))
    q = b.orthonormal_basis()
    resid = trace - q @ (q.conj().T @ trace) if q.size else trace
    return float(np.linalg.norm(resid) / norm)


def substitute_one(poly, edge_id: str):
    """``poly`` with the variable of one edge set to 1 and dropped from the
    variable list."""
    pos = poly.edge_ids.index(edge_id)
    low = (1 << pos) - 1
    terms: dict[int, complex] = {}
    for mask, c in poly.terms.items():
        new = (mask & low) | ((mask >> (pos + 1)) << pos)
        terms[new] = terms.get(new, 0.0) + c
    return MultiPoly(poly.edge_ids[:pos] + poly.edge_ids[pos + 1 :], terms)


def span_distance(a, b) -> float:
    """Spectral norm distance between the orthogonal projectors onto two spans."""
    qa = orthonormal_columns(a)
    qb = orthonormal_columns(b)
    n = a.shape[0]
    pa = qa @ qa.conj().T if qa.size else np.zeros((n, n), dtype=complex)
    pb = qb @ qb.conj().T if qb.size else np.zeros((n, n), dtype=complex)
    return float(np.linalg.norm(pa - pb, 2))
