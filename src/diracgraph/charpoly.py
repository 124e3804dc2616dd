"""Multivariate characteristic polynomials of vertex-compatible edge maps.

For an edge map ``A`` on a graph with edges ``e_1 .. e_n`` the object of
interest is ``P_A(x) = det(diag(x_1, .., x_n) - A)``, a polynomial of degree
at most one in every variable.  Substituting ``x_e = exp(i lambda l_e)``
turns it into the secular function whose zeros are the eigenvalues of the
operator realization attached to ``A``; substituting ``x_e = z^{m_e}`` for
integer multipliers turns it into an ordinary polynomial.  Everything here
keeps the monomial structure exact: the determinant is expanded by a
memoized Laplace recursion, never by LU factorization, so integer inputs
produce integer coefficients without rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

import numpy as np

from .boundary import GEndomorphism
from .errors import EnumerationCapExceeded
from .graph import DEFAULT_EDGE_CAP, Edge, MetricGraph

# Relative size below which an accumulated coefficient is considered
# cancellation dust and dropped.
COEFF_CLEANUP = 1e-13

# Length ratios are only treated as commensurable up to this denominator;
# beyond it the lengths are handled as incommensurable (no univariate
# charpoly, no exact spectrum).
MAX_DENOMINATOR = 1000


@dataclass(frozen=True)
class MultiPoly:
    """Polynomial of degree at most one per variable, one variable per edge.

    ``terms`` maps a bitmask over ``edge_ids`` (bit ``i`` set means the
    monomial contains the variable of edge ``i``) to a complex coefficient.
    """

    edge_ids: tuple[str, ...]
    terms: dict[int, complex] = field(default_factory=dict)

    @property
    def n_vars(self) -> int:
        return len(self.edge_ids)

    def cleaned(self) -> "MultiPoly":
        """Drop coefficients below ``COEFF_CLEANUP`` relative to the largest one."""
        if not self.terms:
            return self
        cut = COEFF_CLEANUP * max(1.0, max(abs(c) for c in self.terms.values()))
        kept = {m: c for m, c in self.terms.items() if abs(c) > cut}
        return MultiPoly(self.edge_ids, kept)

    def term_edge_sets(self) -> dict[frozenset[str], complex]:
        """Terms keyed by the set of edge ids appearing in the monomial."""
        return {
            frozenset(self.edge_ids[i] for i in range(self.n_vars) if mask >> i & 1): c
            for mask, c in self.terms.items()
        }

    @classmethod
    def from_edge_sets(cls, edge_ids, mapping) -> "MultiPoly":
        edge_ids = tuple(edge_ids)
        pos = {eid: i for i, eid in enumerate(edge_ids)}
        terms: dict[int, complex] = {}
        for ids, c in mapping.items():
            mask = 0
            for eid in ids:
                mask |= 1 << pos[eid]
            terms[mask] = terms.get(mask, 0.0) + complex(c)
        return cls(edge_ids, terms)


def char_poly(a: GEndomorphism, cap: int = DEFAULT_EDGE_CAP) -> MultiPoly:
    """Exact expansion of ``det(diag(x) - A)`` as a :class:`MultiPoly`.

    Laplace expansion along rows with memoization on the set of unused
    columns; the row being expanded is determined by that set, so the cost is
    of order ``2^n`` states.  Sums and products of matrix entries are the
    only arithmetic involved, hence integer matrices yield exactly integer
    coefficients.  The leading monomial ``x_1 .. x_n`` always has
    coefficient one.
    """
    n = a.n_edges
    if n > cap:
        raise EnumerationCapExceeded(
            f"determinant expansion over {n} edges capped at {cap}; "
            "raise the cap explicitly if you accept the exponential cost"
        )
    mat = a.matrix
    memo: dict[int, dict[int, complex]] = {}

    def det(mask: int) -> dict[int, complex]:
        if mask == 0:
            return {0: 1.0 + 0.0j}
        cached = memo.get(mask)
        if cached is not None:
            return cached
        row = n - bin(mask).count("1")
        result: dict[int, complex] = {}
        sign = 1.0
        m = mask
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            child = det(mask & ~(1 << j))
            entry = mat[row, j]
            if j == row:
                bit = 1 << row
                for cm, cc in child.items():
                    key = cm | bit
                    result[key] = result.get(key, 0.0) + sign * cc
            if entry != 0:
                factor = -sign * entry
                for cm, cc in child.items():
                    result[cm] = result.get(cm, 0.0) + factor * cc
            sign = -sign
        memo[mask] = result
        return result

    full = det((1 << n) - 1)
    ids = tuple(e.id for e in a.graph.edges)
    return MultiPoly(ids, full).cleaned()


def reduce_vertex(a: GEndomorphism, vertex_id: str) -> tuple[MetricGraph, GEndomorphism]:
    """Contract a degree-(1,1) non-loop vertex out of the graph and the map.

    The incoming and outgoing edge at the vertex merge into a single edge
    whose length is the sum of both.  Writing ``alpha`` for the matrix entry
    that forwards the incoming edge onto the outgoing one, the merged edge
    keeps the outgoing edge's behaviour as a source and the incoming edge's
    behaviour (scaled by ``alpha``) as a target.  The characteristic
    polynomial transforms by substituting the product of the two old
    variables for the new one, and the secular function is unchanged.
    """
    g = a.graph
    ins, outs = g.in_edges(vertex_id), g.out_edges(vertex_id)
    if len(ins) != 1 or len(outs) != 1:
        raise ValueError(f"vertex {vertex_id!r} does not have in and out degree one")
    i_in, i_out = ins[0], outs[0]
    if i_in == i_out:
        raise ValueError(f"vertex {vertex_id!r} carries a loop; nothing to contract")
    e_in, e_out = g.edges[i_in], g.edges[i_out]

    merged_id = f"{e_in.id}~{e_out.id}"
    taken = {e.id for e in g.edges}
    while merged_id in taken:
        merged_id += "'"
    merged = Edge(merged_id, e_in.tail, e_out.head, e_in.length + e_out.length)

    # Merged edge takes the incoming edge's slot to keep ordering stable.
    keep = [i for i in range(g.n_edges) if i != i_out]
    edges = [merged if i == i_in else g.edges[i] for i in keep]
    vertices = [v for v in g.vertices if v != vertex_id]
    new_graph = MetricGraph(vertices, edges)
    # it receives as the incoming edge does, times alpha, and sends as the
    # outgoing edge does
    mat = a.matrix[np.ix_(keep, [i_out if i == i_in else i for i in keep])]
    mat[keep.index(i_in)] *= a.matrix[i_out, i_in]
    return new_graph, GEndomorphism(new_graph, mat)


def edge_classes(matrix) -> list[np.ndarray]:
    """Edge indices of the finest invariant blocks of an edge map's matrix.

    Edge ``j`` reaches edge ``i`` when a chain of nonzero entries carries a
    value on ``j`` to ``i``; the reachability matrix is the boolean closure
    of the support, at most ``n.bit_length()`` squarings of ``I +
    support``, and an irreducible map, whose closure is all true, stops
    there as one class.  The classes are the sets of mutually reaching
    edges, each in ascending order.  They come in an order where every
    class comes after the classes that feed it, at each step the one with
    the smallest leading edge index among those no remaining class feeds.
    """
    n = matrix.shape[0]
    reach = (matrix != 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach.astype(float) @ reach > 0
        if reach.all():
            return [np.arange(n)]
    classes = sorted({tuple(np.flatnonzero(row)) for row in reach & reach.T})
    out = []
    while classes:
        # the first class that no other remaining class reaches
        leads = [c[0] for c in classes]
        fed = reach[np.ix_(leads, leads)].sum(axis=1)
        out.append(np.array(classes.pop(int(np.argmin(fed)))))
    return out


class CharFunction:
    """Secular function ``lambda -> P_A(exp(i lambda l_e))`` of an edge map.

    Each monomial is evaluated as a single exponential of ``i lambda`` times
    the summed length of its edges, which stays stable for complex
    ``lambda`` where per-edge products would accumulate error.
    """

    def __init__(self, poly: MultiPoly, lengths):
        lengths = np.asarray(lengths, dtype=float)
        if lengths.shape != (poly.n_vars,):
            raise ValueError("need one length per variable")
        self.poly = poly
        self.lengths = lengths
        masks = list(poly.terms)
        self._coeffs = np.array([poly.terms[m] for m in masks], dtype=complex)
        self._mask_lengths = np.array(
            [sum(lengths[i] for i in range(poly.n_vars) if m >> i & 1) for m in masks],
            dtype=float,
        )

    @property
    def scale(self) -> float:
        """Sum of coefficient magnitudes; the natural size for residuals."""
        return float(np.sum(np.abs(self._coeffs))) if self._coeffs.size else 0.0

    def eval(self, lam):
        """Value at a complex point or an array of points."""
        return self._sum(lam, self._coeffs)

    def eval_dk(self, lam, k: int):
        """k-th derivative in ``lambda``; each monomial picks up ``i`` times
        its length per derivative."""
        return self._sum(lam, (1j * self._mask_lengths) ** k * self._coeffs)

    def _sum(self, lam, weights):
        """``sum_t weights_t exp(i lam L_t)``."""
        phases = np.multiply.outer(np.asarray(lam, dtype=complex), 1j * self._mask_lengths)
        return np.exp(phases, out=phases) @ weights

    def __call__(self, lam):
        return self.eval(lam)


def char_function(a: GEndomorphism, lengths=None, cap: int = DEFAULT_EDGE_CAP) -> CharFunction:
    """Secular function of an edge map, defaulting to the graph's edge lengths."""
    if lengths is None:
        lengths = a.graph.lengths()
    return CharFunction(char_poly(a, cap), lengths)


def specialize_univariate(poly: MultiPoly, multipliers) -> np.ndarray:
    """Coefficients of ``P(z^{m_1}, .., z^{m_n})``, lowest degree first, for
    nonnegative integers ``multipliers`` in edge order."""
    mult = [int(m) for m in multipliers]
    if len(mult) != poly.n_vars:
        raise ValueError("need one multiplier per variable")
    if any(m < 0 for m in mult):
        raise ValueError("multipliers must be nonnegative")
    degree = 0
    powers = {}
    for mask in poly.terms:
        p = sum(mult[i] for i in range(poly.n_vars) if mask >> i & 1)
        powers[mask] = p
        degree = max(degree, p)
    coeffs = np.zeros(degree + 1, dtype=complex)
    for mask, c in poly.terms.items():
        coeffs[powers[mask]] += c
    return coeffs


def detect_commensurable(lengths) -> tuple[list[int], float] | None:
    """Integer multipliers and a base length reproducing ``lengths``, if any.

    Each ratio to the first length is approximated, all at once, by its
    best fraction ``p / q`` with ``q`` at most ``MAX_DENOMINATOR``; when
    every length is matched within relative ``1e-9`` the common refinement
    ``delta`` and the list of multipliers ``m_e`` with ``l_e = m_e * delta``
    are returned, otherwise ``None``.
    """
    lengths = np.asarray(lengths, dtype=float)
    if not lengths.size or np.any(lengths <= 0):
        return None
    with np.errstate(over="ignore"):
        ratio = lengths / lengths[0]
        # |r q - p| / q without rounding r q: r splits into 43 and 10
        # significant bits (Dekker, Numer. Math. 18 (1971)), whose products
        # with q are exact
        split = ratio * 1025.0
    if not np.all(np.isfinite(split)):
        return None  # r q leaves the float range: no p / q matches
    q = np.arange(1.0, MAX_DENOMINATOR + 1)
    p = np.rint(np.multiply.outer(ratio, q))
    high = split - (split - ratio)
    miss = np.multiply.outer(high, q) - p
    miss += np.multiply.outer(ratio - high, q)
    best = np.argmin(np.abs(miss, out=miss) / q, axis=1)
    fracs = [(int(n), int(d)) for n, d in zip(p[np.arange(ratio.size), best], q[best])]
    if any(n <= 0 for n, _ in fracs):
        return None
    fracs = [(n // gcd(n, d), d // gcd(n, d)) for n, d in fracs]
    common = lcm(*(d for _, d in fracs))
    delta = float(lengths[0]) / common
    mult = [n * (common // d) for n, d in fracs]
    try:
        if any(abs(m * delta - x) > 1e-9 * x for m, x in zip(mult, lengths.tolist())):
            return None
    except OverflowError:  # a multiplier past the float range matches no length
        return None
    return mult, delta


def univariate_to_string(coeffs, var: str = "t") -> str:
    """Human readable form of a univariate polynomial, highest degree first."""
    coeffs = np.asarray(coeffs, dtype=complex)
    parts: list[str] = []
    for p in range(len(coeffs) - 1, -1, -1):
        c = coeffs[p]
        if c == 0:
            continue
        if abs(c.imag) < 1e-12 and abs(c.real - round(c.real)) < 1e-9:
            cr = round(c.real)
            mag = abs(cr)
            sign = "-" if cr < 0 else "+"
            body = "" if (mag == 1 and p > 0) else str(mag)
        else:
            sign = "+"
            body = f"({c.real:.6g}{c.imag:+.6g}i)"
        if p == 0:
            term = body or "1"
        elif p == 1:
            term = f"{body} {var}".strip()
        else:
            term = f"{body} {var}^{p}".strip()
        if not parts:
            parts.append(term if sign == "+" else f"-{term}")
        else:
            parts.append(f"{sign} {term}")
    return " ".join(parts) if parts else "0"
