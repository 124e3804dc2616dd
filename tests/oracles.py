"""Independent re-derivations the tests check the package against.

Each helper computes its answer the slow, direct way and shares no code
with the routine it checks: term-by-term polynomial evaluation, the secular
function summed straight from cycle collections, edge connectivity by
trying every removal subset, real eigenvalues by bisecting on the
eigenphase count of plain ``eigvals``, eigenvalue multiplicities from
the boundary subspace instead of the edge map, the eigenvalues of weighted
cycles by following each one around, the distinct roots of an
integer polynomial and the commensurability of lengths by exact rational
arithmetic.
"""

import cmath
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from diracgraph.charpoly import MAX_DENOMINATOR
from diracgraph.graph import DEFAULT_EDGE_CAP, enumerate_cycle_collections
from diracgraph.linalg import intersection_dim
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


def edge_connectivity_bruteforce(g, mode: str = "directed") -> int:
    """Least number of edge removals that disconnect the graph, by trying all subsets.

    ``mode="directed"`` requires strong connectivity of what remains,
    ``mode="undirected"`` only connectivity of the underlying undirected
    graph; a vertex left without any incident edge counts as disconnecting
    in both modes.  Exponential in the edge count.
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
        if mode == "undirected":
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
        # Strong connectivity: forward and backward reachability from one vertex.
        for direction in ("fwd", "bwd"):
            seen = {vset[0]}
            stack = [vset[0]]
            while stack:
                v = stack.pop()
                for i in remaining:
                    e = g.edges[i]
                    src, dst = (e.tail, e.head) if direction == "fwd" else (e.head, e.tail)
                    if src == v and dst not in seen:
                        seen.add(dst)
                        stack.append(dst)
            if len(seen) != len(vset):
                return False
        return True

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
