"""Oracles for diracgraph outputs, written with numpy alone.

Nothing here imports diracgraph: every expected answer is re-derived from
the edge map ``A`` (rows are targets, columns are sources) and the edge
lengths by a route the program does not take.

* Unitary maps: the eigenvalues are the ``lambda`` where the quantum map
  ``S(lambda) = diag(exp(-i lambda l)) A`` has eigenvalue one (Kottos and
  Smilansky, Ann. Phys. 274, 1999).  Its eigenphases turn clockwise with
  summed rate ``L``, so the number of eigenvalues in ``(a, b]`` is
  ``(L (b - a) - sum phi_j(a) + sum phi_j(b)) / 2 pi`` with ``phi_j`` in
  ``[0, 2 pi)``.  Bisection on that count locates each eigenvalue.
* Lengths ``m_e delta``: cutting every edge into ``m_e`` unit pieces gives
  an edge map ``B`` with ``det(diag(z^m) - A) = det(z I - B)`` (invariance
  under subdivision, Berkolaiko and Kuchment, *Introduction to Quantum
  Graphs*, 2013, ch. 2-3), so the zeros are
  ``(arg mu + 2 pi k - i ln|mu|) / delta`` over the eigenvalues ``mu != 0``
  of ``B``.
* Permutation maps: a closed trail of length ``L_j`` contributes the
  lattice ``2 pi k / L_j``; trails are traced here from the map.
* Any reported eigenvalue: an SVD of ``diag(exp(i lambda l)) - A`` must
  show exactly the reported number of vanishing singular values.
* Multivariate polynomials: the polynomial at random unimodular points must
  equal ``det(diag(x) - A)``, and the full monomial must have coefficient 1.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Singular values below this share of the operand scale count as zero.  The
# program certifies at 1e-8; the oracle only has to tell the singular value
# of a polished eigenvalue (about 1e-12) from the next one, which is of the
# order of the distance to the next eigenvalue.
SVD_RTOL = 1e-6
# Reported and oracle eigenvalues must agree to this absolute distance.
MATCH_TOL = 1e-6


# -- unitary maps: eigenphase count -----------------------------------------


def phase_sums(a: np.ndarray, lengths: np.ndarray, xs) -> np.ndarray:
    """Sum of the eigenphases in ``[0, 2 pi)`` of ``S(x)`` for each ``x``."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    s = np.exp(-1j * np.multiply.outer(xs, lengths))[:, :, None] * a[None, :, :]
    phases = np.mod(np.angle(np.linalg.eigvals(s)), TWO_PI)
    return phases.sum(axis=1)


def _cell_counts(total, lo, hi, p_lo, p_hi):
    return np.rint((total * (hi - lo) - p_lo + p_hi) / TWO_PI).astype(int)


def count_real(a, lengths, lo: float, hi: float) -> int:
    """Eigenvalues of a unitary map in ``(lo, hi]``, with multiplicity."""
    lengths = np.asarray(lengths, dtype=float)
    p = phase_sums(a, lengths, [lo, hi])
    return int(_cell_counts(lengths.sum(), lo, hi, p[0], p[1]))


def locate_real(a, lengths, lo: float, hi: float, tol: float = 1e-10):
    """Eigenvalues of a unitary map in ``(lo, hi]`` by batched bisection.

    Returns sorted centres and multiplicities of cells of width at most
    ``tol`` that each hold at least one eigenvalue.  Two eigenvalues closer
    than ``tol`` come back as one cell of count two.
    """
    lengths = np.asarray(lengths, dtype=float)
    total = float(lengths.sum())
    n_cells = max(2, int(math.ceil((hi - lo) * total / TWO_PI * 4)))
    xs = np.linspace(lo, hi, n_cells + 1)
    p = phase_sums(a, lengths, xs)
    cnt = _cell_counts(total, xs[:-1], xs[1:], p[:-1], p[1:])
    keep = cnt > 0
    left, right = xs[:-1][keep], xs[1:][keep]
    p_left, p_right, cnt = p[:-1][keep], p[1:][keep], cnt[keep]
    while left.size and np.max(right - left) > tol:
        open_ = right - left > tol
        mid = np.where(open_, (left + right) / 2, left)
        p_mid = phase_sums(a, lengths, mid)
        c_low = np.where(open_, _cell_counts(total, left, mid, p_left, p_mid), cnt)
        c_high = cnt - c_low
        low = c_low > 0
        high = open_ & (c_high > 0)
        left = np.concatenate([left[low], mid[high]])
        right = np.concatenate([np.where(open_, mid, right)[low], right[high]])
        p_left = np.concatenate([p_left[low], p_mid[high]])
        p_right = np.concatenate([np.where(open_, p_mid, p_right)[low], p_right[high]])
        cnt = np.concatenate([c_low[low], c_high[high]])
        order = np.argsort(left)
        left, right, p_left, p_right, cnt = (
            left[order], right[order], p_left[order], p_right[order], cnt[order]
        )
    return (left + right) / 2, cnt


# -- lengths m_e * delta: subdivided map ---------------------------------------


def subdivided_map(a: np.ndarray, mult) -> np.ndarray:
    """Edge map after cutting edge ``e`` into ``mult[e]`` unit pieces.

    Pieces of one edge pass values on unchanged; the first piece of edge
    ``e`` receives ``A[e, f]`` times the value leaving the last piece of
    ``f``.
    """
    mult = [int(m) for m in mult]
    first = np.cumsum([0] + mult[:-1])
    last = first + np.array(mult) - 1
    b = np.zeros((sum(mult), sum(mult)), dtype=complex)
    for e, m in enumerate(mult):
        for k in range(1, m):
            b[first[e] + k, first[e] + k - 1] = 1.0
    b[np.ix_(first, last)] = a
    return b


def subdivided_zeros(a, mult, delta: float, re_lo: float, re_hi: float) -> np.ndarray:
    """All zeros with real part in ``[re_lo, re_hi]``, repeated by multiplicity."""
    mu = np.linalg.eigvals(subdivided_map(a, mult))
    mu = mu[np.abs(mu) > 1e-12]
    base = (np.mod(np.angle(mu), TWO_PI) - 1j * np.log(np.abs(mu))) / delta
    period = TWO_PI / delta
    out = []
    for z in base:
        k_lo = math.ceil((re_lo - z.real) / period)
        k_hi = math.floor((re_hi - z.real) / period)
        out.extend(z + k * period for k in range(k_lo, k_hi + 1))
    return np.array(sorted(out, key=lambda z: (z.real, z.imag)), dtype=complex)


# -- permutation maps: trail lattices ------------------------------------------


def trail_lengths(mapping: dict, lengths: dict) -> list[float]:
    """Metric lengths of the closed trails traced by an edge permutation."""
    seen: set = set()
    out = []
    for start in mapping:
        if start in seen:
            continue
        total, e = 0.0, start
        while e not in seen:
            seen.add(e)
            total += lengths[e]
            e = mapping[e]
        out.append(total)
    return out


def trail_lattice(trails: list[float], lo: float, hi: float) -> np.ndarray:
    """Eigenvalues ``2 pi k / L_j`` in ``(lo, hi]``, one entry per trail."""
    out = []
    for length in trails:
        step = TWO_PI / length
        out.extend(k * step for k in range(math.floor(lo / step) + 1, math.floor(hi / step) + 1))
    return np.sort(np.array(out))


# -- certificates for reported output ------------------------------------------


def svd_multiplicities(a, lengths, values) -> np.ndarray:
    """Kernel dimension of ``diag(exp(i lambda l)) - A`` at each value."""
    values = np.asarray(values, dtype=complex)
    if values.size == 0:
        return np.zeros(0, dtype=int)
    lengths = np.asarray(lengths, dtype=float)
    phases = np.exp(1j * np.multiply.outer(values, lengths))
    n = a.shape[0]
    m = -np.broadcast_to(a, (values.size, n, n)).copy()
    m[:, np.arange(n), np.arange(n)] += phases
    s = np.linalg.svd(m, compute_uv=False)
    scale = np.maximum(np.abs(phases).max(axis=1), np.linalg.norm(a))
    return np.count_nonzero(s <= SVD_RTOL * scale[:, None], axis=1)


def match_spectrum(expected_values, expected_mult, reported, tol: float = MATCH_TOL):
    """Compare reported ``(value, multiplicity)`` pairs with oracle ones.

    Returns ``(missing, extra)``: oracle multiplicity not covered by a
    reported value, and reported multiplicity with no oracle value.
    """
    exp_v = np.asarray(expected_values, dtype=complex)
    left = np.asarray(expected_mult, dtype=int).copy()
    extra = 0
    for value, mult in reported:
        if exp_v.size == 0:
            extra += mult
            continue
        d = np.abs(exp_v - value)
        i = int(np.argmin(d))
        if d[i] > tol:
            extra += mult
            continue
        take = min(mult, left[i])
        left[i] -= take
        extra += mult - take
    return int(left.sum()), extra


def group_values(values, tol: float = MATCH_TOL):
    """Merge sorted complex values closer than ``tol`` into (value, count)."""
    values = sorted(np.asarray(values, dtype=complex).tolist(), key=lambda z: (z.real, z.imag))
    out_v, out_c = [], []
    for z in values:
        if out_v and abs(z - out_v[-1]) <= tol:
            out_c[-1] += 1
        else:
            out_v.append(z)
            out_c.append(1)
    return np.array(out_v, dtype=complex), np.array(out_c, dtype=int)


def check_multipoly(terms, edge_ids, a, rng, n_points: int = 4, rtol: float = 1e-9) -> bool:
    """A multivariate polynomial document against ``det(diag(x) - A)``."""
    pos = {e: i for i, e in enumerate(edge_ids)}
    n = len(edge_ids)
    masks = np.zeros((len(terms), n), dtype=bool)
    coeffs = np.empty(len(terms), dtype=complex)
    lead = None
    for k, term in enumerate(terms):
        for e in term["edges"]:
            masks[k, pos[e]] = True
        coeffs[k] = complex(*term["coeff"])
        if len(term["edges"]) == n:
            lead = coeffs[k]
    if lead is None or abs(lead - 1.0) > rtol:
        return False
    scale = float(np.abs(coeffs).sum())
    for _ in range(n_points):
        x = np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        value = np.sum(coeffs * np.prod(np.where(masks, x[None, :], 1.0), axis=1))
        if abs(value - np.linalg.det(np.diag(x) - a)) > rtol * scale:
            return False
    return True


# -- self-check on closed forms --------------------------------------------------


def self_check() -> list[str]:
    """Check the oracles on cases with known answers; returns the failures."""
    failures = []

    # README double loop with the adjacency map: -i ln 2 and 2 pi - i ln 2.
    ones = np.ones((2, 2), dtype=complex)
    zeros = subdivided_zeros(ones, [1, 1], 1.0, -1.0, 7.0)
    zeros = zeros[(zeros.imag >= -2.0) & (zeros.imag <= 0.5)]
    want = np.array([-1j * math.log(2), TWO_PI - 1j * math.log(2)])
    if zeros.size != 2 or np.max(np.abs(zeros - want)) > 1e-12:
        failures.append(f"double loop zeros {zeros} != {want}")

    # Two loops of lengths 1 and 1.0005 with the identity map: 2 pi k and
    # 2 pi k / 1.0005 for k = 1..3 in (0.5, 20].
    eye = np.eye(2, dtype=complex)
    lengths = np.array([1.0, 1.0005])
    want = trail_lattice([1.0, 1.0005], 0.5, 20.0)
    centres, counts = locate_real(eye, lengths, 0.5, 20.0)
    if count_real(eye, lengths, 0.5, 20.0) != 6 or want.size != 6:
        failures.append("identity map on two loops: count is not 6")
    elif counts.sum() != 6 or np.max(np.abs(np.repeat(centres, counts) - want)) > 1e-8:
        failures.append(f"identity map on two loops: located {centres} != {want}")

    # A permutation of the bidirected triangle with two 3-edge trails and
    # lengths m_e delta: bisection, subdivision, the SVD and the trail
    # lattice must agree, also at the double eigenvalue 2 pi / delta.
    ids = ["a0", "a1", "a2", "b0", "b1", "b2"]
    mapping = {"a0": "a1", "a1": "a2", "a2": "a0", "b0": "b2", "b2": "b1", "b1": "b0"}
    mult = [1, 2, 3, 2, 2, 1]
    delta = 0.37
    length_of = {e: m * delta for e, m in zip(ids, mult)}
    perm = np.zeros((6, 6), dtype=complex)
    for src, dst in mapping.items():
        perm[ids.index(dst), ids.index(src)] = 1.0
    lat = trail_lattice(trail_lengths(mapping, length_of), 0.1, 30.0)
    vals, cnts = group_values(lat, 1e-9)
    centres, counts = locate_real(perm, np.array(mult) * delta, 0.1, 30.0)
    if centres.size != vals.size or np.any(counts != cnts) or np.max(np.abs(centres - vals.real)) > 1e-8:
        failures.append("permutation: eigenphase bisection disagrees with trail lattice")
    sub = subdivided_zeros(perm, mult, delta, 0.1, 30.0)
    if sub.size != lat.size or np.max(np.abs(sub - lat)) > 1e-8:
        failures.append("permutation: subdivided zeros disagree with trail lattice")
    if np.any(svd_multiplicities(perm, np.array(mult) * delta, vals) != cnts):
        failures.append("permutation: SVD multiplicities disagree with trail lattice")

    # det(diag(x) - A) of the 2x2 all-ones map is x1 x2 - x1 - x2.
    doc = [
        {"edges": ["e1", "e2"], "coeff": [1.0, 0.0]},
        {"edges": ["e1"], "coeff": [-1.0, 0.0]},
        {"edges": ["e2"], "coeff": [-1.0, 0.0]},
    ]
    rng = np.random.default_rng(0)
    if not check_multipoly(doc, ["e1", "e2"], ones, rng):
        failures.append("multivariate check rejects x1 x2 - x1 - x2")
    if check_multipoly(doc[:2], ["e1", "e2"], ones, rng):
        failures.append("multivariate check accepts a polynomial with a term missing")
    return failures
