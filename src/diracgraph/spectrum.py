"""Eigenvalue solvers for boundary conditions given by edge maps.

The point spectrum of the realization attached to the graph of an edge map
``A`` consists of the zeros of ``det T(lambda)``, ``T(lambda) =
diag(exp(i lambda l)) - A``, the secular function ``P_A(exp(i lambda l_1),
.., exp(i lambda l_n))``.  Three solvers cover the practical cases, and each
one only proposes candidate zeros:

* commensurable lengths (:func:`commensurable`, the one rule for spectra)
  make ``z = exp(i lambda delta)`` an eigenvalue of the subdivided edge map;
  its nonzero eigenvalues generate periodic eigenvalue families (exact
  route, for maps that are not unitary),
* unitary maps have real spectrum: ``lambda`` is an eigenvalue where the
  unitary ``S(lambda) = diag(exp(-i lambda l)) A`` has the eigenvalue 1, and
  the eigenphases of ``S``, read off its Cayley transform, count the
  eigenvalues of any real cell exactly; the eigenphase locator bisects
  cells by that count and pins each eigenvalue by bracketed Newton on
  ``det(I - S)``, once per block of the map, at a cost of ``sum_b
  expected_b n_b**3``, but proposes the eigenvalues ``(arg c + 2 pi k) /
  L_b`` of a block with one nonzero entry per row, a weighted cycle of
  holonomy ``c``, directly; with commensurable lengths it locates at most
  one period ``2 pi / delta`` of the spectrum and translates it,
* general maps have complex zeros, counted and located inside a rectangle
  by one contour integral (Beyn's method).

Every route works on ``n x n`` or ``d x d`` matrices; none expands ``P_A``.
The exact and contour routes group their root estimates by one rule first
(the group size is a multiplicity hint, :func:`_tree_groups`).  All three
end in one shared step, :func:`_certified_entries`, which takes the edge
map's matrix, never reads the graph, and is the only place where a
candidate is rank-tested by the kernel dimension of ``T(lambda)`` (SVD, in
one stacked call), polished, dropped or merged.  It takes the candidates
by blocks of edges: the exact and contour routes give one block of every
edge, the eigenphase locator the blocks of a unitary map, which is block
diagonal with exact zeros between them, so ``T(lambda)`` is too and its
kernel is the direct sum of the block kernels.  Each block is certified
on its own ``T_b``.  A certified value within ``DEDUPE_RADIUS`` of a kept
one meets one rule: where their kernels are independent it is a second
eigenvalue and the multiplicities add, otherwise it is the same one and is
dropped.  Entries of different blocks are always the independent case, and
so are the trails of an edge permutation, which
``trails.permutation_spectrum`` hands to the locator.  Multiplicities never
come from root clustering, and the kernel vectors double as eigenfunction amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import GEndomorphism, is_unitary
# Not called here: perfbench/spans.py wraps spectrum.char_function when it traces.
from .charpoly import char_function  # noqa: F401
from .charpoly import detect_commensurable, edge_classes
from .errors import ContourError, DiracGraphError, WindowTooLargeError

# Default tolerances: residuals are the smallest singular value of T relative
# to the operand scale of the rank test, rank decisions are relative SVD
# cutoffs against the same scale, and nearby roots merge within the dedupe
# radius.
RESIDUAL_TOL = 1e-10
RANK_RTOL = 1e-8
DEDUPE_RADIUS = 1e-7

# Refuse real windows expected to contain more roots to locate than this,
# and windows holding more members of periodic eigenvalue families to list
# than that.
MAX_EXPECTED_ROOTS = 10**5
MAX_FAMILY_MEMBERS = 5 * 10**5

# The exact solver eigensolves the subdivided map of size d = sum m_e, at a
# cost growing as d**3 (about 5 s at d = 1000 on one core), and refuses a
# larger degree.
MAX_EXACT_DEGREE = 1000

# Stacked SVD and eigenvalue calls take at most this many matrices at once.
STACK_CHUNK = 64

# Eigenphase count cells are bisected down to CELL_FLOOR times 1 + |x|; a
# cell holding one eigenvalue gets at most MAX_PHASE_STEPS Newton steps.
CELL_FLOOR = 1e-9
MAX_PHASE_STEPS = 50

# Commensurable lengths give a periodic spectrum, whose located period is
# translated, only where l_e = m_e delta holds to PERIOD_RTOL relative, four
# units of float rounding.
PERIOD_RTOL = 4 * 2.0**-52

# Contour panels: QUAD_ORDER Gauss-Legendre nodes, at most MAX_HALVINGS
# halvings; one below PANEL_FLOOR times the half-diagonal hits a zero.  A
# rectangle whose first round needs more than MAX_PANELS panels, or whose
# panels bisection grows MAX_PANEL_GROWTH-fold in a round, is refused.
QUAD_ORDER = 16
MAX_HALVINGS = 6
PANEL_FLOOR = 1e-9
MAX_PANELS = 4096
MAX_PANEL_GROWTH = 64


@dataclass(frozen=True)
class Window:
    """Axis-aligned region of the complex plane used to select eigenvalues.

    A real interval is the special case with unbounded imaginary part.
    """

    re_min: float
    re_max: float
    im_min: float = -math.inf
    im_max: float = math.inf

    def __post_init__(self):
        if not (self.re_min <= self.re_max and self.im_min <= self.im_max):
            raise ValueError("empty window or NaN bound")

    @classmethod
    def real(cls, a: float, b: float) -> "Window":
        return cls(float(a), float(b))

    @classmethod
    def rect(cls, re_min, re_max, im_min, im_max) -> "Window":
        return cls(float(re_min), float(re_max), float(im_min), float(im_max))

    @property
    def is_real_interval(self) -> bool:
        return math.isinf(self.im_min) and math.isinf(self.im_max)

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return (
            self.re_min - slack <= z.real <= self.re_max + slack
            and self.im_min - slack <= z.imag <= self.im_max + slack
        )


def as_window(w) -> Window:
    if isinstance(w, Window):
        return w
    a, b = w
    return Window.real(a, b)


@dataclass(frozen=True)
class Eigenfunction:
    """Eigenfunction data: per-edge amplitudes of ``w_e exp(-i lambda x)``."""

    eigenvalue: complex
    amplitudes: np.ndarray


@dataclass(frozen=True)
class EigenvalueEntry:
    value: complex
    multiplicity: int
    residual: float
    eigenfunctions: tuple[Eigenfunction, ...] = ()


@dataclass(frozen=True)
class SpectrumReport:
    """Outcome of one solver run: sorted eigenvalues plus diagnostics."""

    solver: str
    window: Window
    eigenvalues: tuple[EigenvalueEntry, ...]
    warnings: tuple[str, ...] = ()
    winding: int | None = None

    def values(self) -> list[complex]:
        return [e.value for e in self.eigenvalues]


def _t_matrices(matrix, lengths, lams):
    """``T(lam) = diag(exp(i lam l)) - A`` stacked over the points ``lams``,
    with the phases ``exp(i lam l)``."""
    phases = np.exp(1j * np.multiply.outer(lams, lengths))
    return phases[..., None] * np.eye(lengths.size) - matrix, phases


def multiplicity(a: GEndomorphism, lengths, lam: complex) -> tuple[int, np.ndarray]:
    """Eigenvalue multiplicity from the kernel of ``diag(exp(i lam l)) - A``.

    Returns the kernel dimension together with an orthonormal kernel basis
    (columns).  The kernel vectors are the edge values of eigenfunctions at
    the edge ends; zero dimension means ``lam`` is not an eigenvalue.
    """
    return _multiplicities(a.matrix, lengths, [lam])[0][:2]


def _multiplicities(matrix, lengths, lams):
    """:func:`multiplicity` at every point of ``lams`` for the edge map
    ``matrix``, by stacked SVDs, plus the residual: the smallest singular
    value relative to the operand scale.

    The matrices go to LAPACK ``STACK_CHUNK`` at a time, which bounds the stack.
    """
    lengths = np.asarray(lengths, dtype=float)
    lams = np.asarray(lams, dtype=complex).ravel()
    norm_a = float(np.linalg.norm(matrix))
    out = []
    for s in range(0, lams.size, STACK_CHUNK):
        t, phases = _t_matrices(matrix, lengths, lams[s : s + STACK_CHUNK])
        _, sv, vh = np.linalg.svd(t)
        # Threshold against the operand scale, not s[0]: at an eigenvalue of
        # a diagonal map the whole difference is tiny and every singular
        # value would look nonzero relative to the largest.
        scale = np.maximum(
            np.max(sv, axis=1, initial=0.0),
            np.maximum(np.max(np.abs(phases), axis=1, initial=0.0), norm_a),
        )
        ranks = np.count_nonzero(sv > RANK_RTOL * scale[:, None], axis=1)
        for k, rank in enumerate(ranks):
            kernel = vh[k, rank:].conj().T
            out.append((kernel.shape[1], kernel, float(sv[k, -1] / scale[k])))
    return out


def _polish(matrix, lengths, z0: complex, mult: int = 1) -> complex:
    """Guarded Newton on ``det T`` with the step ``mult det T / (det T)'``,
    quadratic at a zero of multiplicity ``mult``.

    ``(det T)' = sum_e i l_e exp(i lam l_e) adj(T)_ee`` takes the adjugate
    from the SVD ``T = U S V*`` as ``det(U) det(V*) V adj(S) U*``, where
    ``adj(S)_ii`` is the product of the other singular values: it stays
    finite where ``T`` is exactly singular (Guettel & Tisseur, Acta Numerica
    26 (2017), section 4).  Inside the evaluation-noise basin of a zero the
    computed ``det T`` is junk and a raw step can be enormous, so a step
    that does not decrease ``|det T|`` is halved, at most 10 times, and the
    iterate parks at the best point reached.  At most 80 steps; the
    iteration stops at a rejected step, a step below ``1e-14`` relative, or
    a zero or non-finite derivative.
    """
    others = ~np.eye(lengths.size, dtype=bool)

    def det(z):
        return np.complex128(np.linalg.det(_t_matrices(matrix, lengths, z)[0]))

    def deriv(z):
        # a stack of one: einsum sums in an order set by the operand shapes,
        # and this shape reproduces the values earlier versions reported
        t, phases = _t_matrices(matrix, lengths, [z])
        u, s, vh = np.linalg.svd(t)
        adj_s = np.prod(np.where(others, s[..., None, :], 1.0), axis=-1)
        adj = np.einsum("...ie,...i,...ei->...e", vh.conj(), adj_s, u.conj())
        adj *= (np.linalg.det(u) * np.linalg.det(vh))[..., None]
        return np.complex128(np.sum(1j * lengths * phases * adj, axis=-1)[0] / mult)

    # numpy scalars, not complex: Python rounds complex division differently
    z = np.complex128(z0)
    # trial steps may land where the exponentials overflow; the guard
    # rejects non-finite values, so the numpy warnings are just noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fz = det(z)
        for _ in range(80 if np.isfinite(np.abs(fz)) else 0):
            dp = deriv(z)
            step = fz / dp
            if dp == 0 or not np.isfinite(step):
                break
            for _damp in range(10):
                fc = det(z - step)
                if np.abs(fc) <= np.abs(fz):  # False for NaN
                    z, fz = z - step, fc
                    break
                step /= 2
            else:
                break
            if np.abs(step) <= 1e-14 * (1.0 + np.abs(z)):
                break
    return complex(z)


def _tree_groups(points, link) -> list[tuple[complex, list[complex]]]:
    """Groups of points as ``(centroid, members)`` pairs: the components of
    the edges of their minimum spanning tree that ``link(p, q)``, given the
    ends of every edge, joins.  Only tree edges are tested: the midpoint of
    two zeros can be a third, as on lattices.  An ``m``-fold root scatters
    symmetrically, so the centroid restores nearly full accuracy where the
    single roots only carry ``m``-th root of machine precision; the size is
    the multiplicity hint.  Groups come out by their leftmost points."""
    pts = np.array(sorted(map(complex, points), key=lambda z: (z.real, z.imag)), dtype=complex)
    dist = np.abs(np.subtract.outer(pts, pts))
    outside = np.ones(len(pts), dtype=bool)
    best, parent = np.full(len(pts), np.inf), np.zeros(len(pts), dtype=int)
    order, j = [], 0
    for _ in range(len(pts) - 1):
        outside[j] = False
        closer = outside & (dist[j] < best)
        best[closer], parent[closer] = dist[j, closer], j
        j = int(np.argmin(np.where(outside, best, np.inf)))
        order.append(j)
    # a point joins the tree after its parent, so labels pass down in order
    order, label = np.array(order, dtype=int), np.arange(len(pts))
    for j in order[link(pts[order], pts[parent[order]])]:
        label[j] = label[parent[j]]
    groups: dict[int, list[complex]] = {}
    for z, g in zip(pts, label):
        groups.setdefault(g, []).append(complex(z))
    return [(sum(g) / len(g), g) for g in groups.values()]


def _moduli(points, lengths, delta: float | None = None) -> np.ndarray:
    """``|exp(i lambda l_e)|`` at every point ``lambda`` for every edge, or
    with ``delta`` at ``lambda = -i log(z) / delta`` for roots ``z`` of ``B``."""
    points = np.asarray(points, dtype=complex)[..., None]
    with np.errstate(over="ignore"):
        if delta is None:
            return np.exp(-points.imag * lengths)
        return np.abs(points) ** (lengths / delta)


def _kernel_link(matrix, lengths, delta: float | None = None):
    """Link test of :func:`_tree_groups` for zero estimates: they coincide,
    or the rank test finds a kernel of ``T`` at three points between them;
    a defective ``m``-fold zero scatters them by about ``eps**(1/m)``,
    beyond any fixed radius.  With ``delta`` they are roots ``z`` of ``B``,
    tested at ``-i log(z) / delta`` on any branch, ``T`` being ``2 pi /
    delta``-periodic, and ``T(z = 0) = -A``.

    Where the :func:`_moduli` of edges whose columns of ``A`` are dependent
    are at most ``RANK_RTOL |A|`` (the longest edges get there first), ``T``
    has a kernel whatever ``lambda`` is.  So the points are the quarter
    points, on a grid of 64ths, of the part of the segment outside that
    region, else a root would be joined through it to the zero roots of
    ``B``.  A segment wholly inside it joins where the kernel at its quarter
    points is no smaller than at its ends: between two distinct roots it
    falls back to the region's own, across the scatter of one zero not.
    """
    floor = RANK_RTOL * np.linalg.norm(matrix)
    order = np.argsort(-lengths, kind="stable")
    pivots = np.abs(np.diag(np.linalg.qr(matrix[:, order], mode="r")))
    # the shortest of the fewest longest edges with dependent columns
    shortest = lengths[order[pivots <= floor]][:1]
    nullity = lengths.size - np.count_nonzero(np.linalg.svd(matrix, compute_uv=False) > floor)

    def kernels(points):
        out = np.full(points.shape, nullity)
        live = (points != 0) | (delta is None)
        lams = points[live] if delta is None else -1j * np.log(points[live]) / delta
        out[live] = [m for m, _, _ in _multiplicities(matrix, lengths, lams)]
        return out

    def link(p, q):
        grid = p + np.multiply.outer(np.arange(1, 64) / 64, q - p)
        free = np.all(_moduli(grid, shortest, delta) > floor, axis=-1)
        inside, cols = ~free.any(axis=0), np.arange(p.size)
        count = np.where(inside, free.shape[0], free.sum(axis=0))
        rows = np.argsort(~free, axis=0, kind="stable")
        picks = grid[rows[np.multiply.outer([0.25, 0.5, 0.75], count).astype(int), cols], cols]
        joined, out, ins = p == q, ~inside & (p != q), inside & (p != q)
        joined[out] = (kernels(picks[:, out]) > 0).all(axis=0)
        ends = kernels(np.stack([p[ins], q[ins]])).min(axis=0)
        joined[ins] = (kernels(picks[:, ins]) >= ends).all(axis=0)
        return joined

    return link


def _certified_entries(
    matrix,
    lengths,
    window: Window,
    blocks,
    residual_tol: float,
    warnings: list[str],
    *,
    pad: float = 0.0,
    real_axis: bool = False,
) -> tuple[EigenvalueEntry, ...]:
    """The step every solver ends in, and the only place where a candidate
    is rank-tested, polished, dropped or merged.

    ``blocks`` holds ``(idx, candidates)`` pairs: the edge indices of a
    block that exact zeros of ``matrix`` uncouple from every other edge, or
    of all edges, and its ``(point, hint)`` candidates.  ``T(lambda)`` is
    then block diagonal and its kernel is the direct sum of the block
    kernels (Horn & Johnson, *Matrix Analysis*, section 0.9), so each
    block's candidates are certified on its own ``T_b`` and their kernels
    embedded in the full edge space.  Candidates and certified values both
    have to lie in the window widened by ``pad + DEDUPE_RADIUS``.  Every
    candidate gets the strict rank test in one stacked call.  A polish is
    guarded Newton on ``det T`` at an assumed order (Guettel & Tisseur, Acta
    Numerica 26 (2017), section 4), with ``real_axis`` projected onto the
    real axis or discarded off it.  A candidate without kernel is polished
    at the orders ``max(2, hint) .. n`` until one certifies, else warned and
    dropped: the eigenphase locator gives a multiple eigenvalue as the
    middle of a cell ``CELL_FLOOR (1 + |x|)`` wide, too coarse far out for
    the rank test.  Otherwise one of kernel dimension ``m > 1`` is polished
    at ``m`` and replaced if the polish certifies ``m`` too.  A residual
    above ``residual_tol`` plus the rounding ``PERIOD_RTOL |lambda| max_e
    l_e`` of the value itself drops the entry with a warning, and a hint
    above the kernel dimension is warned as a defective zero.

    One sorted pass then meets each certified value within
    ``DEDUPE_RADIUS`` of the kept entry with one rule: where the joined
    kernel bases ``[K_kept K_new]`` have the full rank ``m_kept + m_new``
    under ``RANK_RTOL`` it is a second eigenvalue, so the multiplicities
    add, the eigenfunctions join and the larger residual is kept; otherwise
    it is the same eigenvalue, certified twice (scattered roots of one zero
    can all certify to it), and dropped.  Entries of different blocks are
    the independent case.
    """

    def polish(block, block_lengths, z: complex, order: int) -> complex | None:
        z = _polish(block, block_lengths, z, order)
        if real_axis:
            z = complex(z.real) if abs(z.imag) <= 1e-6 else None
        return z

    slack = pad + DEDUPE_RADIUS
    rounding = PERIOD_RTOL * float(np.max(lengths))
    found = []  # (entry, kernel basis in the full edge space)
    for idx, candidates in blocks:
        m_b, l_b = matrix[np.ix_(idx, idx)], lengths[idx]
        # a block of every edge, in edge order, needs no embedding
        embed = None if len(idx) == lengths.size else np.eye(lengths.size)[:, idx]
        tried = [(complex(lam), hint) for lam, hint in candidates if window.contains(lam, slack)]
        points = np.array([lam for lam, _ in tried], dtype=complex)
        strict = _multiplicities(m_b, l_b, points)
        for (lam, hint), (m, kernel, residual) in zip(tried, strict):
            if m == 0:
                for order in range(max(2, hint), l_b.size + 1):
                    z = polish(m_b, l_b, lam, order)
                    if z is not None and (cert := _multiplicities(m_b, l_b, [z])[0])[0]:
                        lam, (m, kernel, residual) = z, cert
                        break
                else:
                    warnings.append(f"candidate {lam:.6g} rejected by rank check")
                    continue
            elif m > 1:
                z = polish(m_b, l_b, lam, m)
                if z is not None and (cert := _multiplicities(m_b, l_b, [z])[0])[0] == m:
                    lam, (m, kernel, residual) = z, cert
            if not window.contains(lam, slack):
                continue
            if residual > residual_tol + rounding * abs(lam):
                warnings.append(f"candidate {lam:.6g} dropped: residual {residual:.2e}")
                continue
            if hint > m:
                warnings.append(
                    f"defective zero at {lam:.6g}: multiplicity hint {hint}, kernel dimension {m}"
                )
            # Kernel vectors hold end values; start amplitudes differ by exp(i lam l).
            grow = np.exp(1j * lam * l_b)
            amplitudes = [grow * kernel[:, k] for k in range(m)]
            if embed is not None:
                kernel, amplitudes = embed @ kernel, [embed @ w for w in amplitudes]
            funcs = tuple(Eigenfunction(lam, w) for w in amplitudes)
            found.append((EigenvalueEntry(lam, m, residual, funcs), kernel))
    unique: list[EigenvalueEntry] = []
    for entry, kernel in sorted(found, key=lambda f: (f[0].value.real, f[0].value.imag)):
        if not unique or abs(entry.value - unique[-1].value) > DEDUPE_RADIUS:
            unique.append(entry)
            kept = kernel
            continue
        joined = np.hstack([kept, kernel])
        sv = np.linalg.svd(joined, compute_uv=False)
        if np.count_nonzero(sv > RANK_RTOL * sv[0]) == joined.shape[1]:
            last = unique[-1]
            unique[-1] = EigenvalueEntry(
                last.value,
                last.multiplicity + entry.multiplicity,
                max(last.residual, entry.residual),
                last.eigenfunctions + entry.eigenfunctions,
            )
            kept = joined
    return tuple(unique)


def _check_count(name: str, count: int, entries, warnings: list[str]) -> None:
    """Warn when a zero count and the reported multiplicity sum differ."""
    reported = sum(e.multiplicity for e in entries)
    if reported != count:
        warnings.append(f"{name} {count} and reported multiplicity sum {reported} disagree")


# -- exact solver for commensurable lengths ------------------------------


def _subdivided_map(matrix, mult) -> np.ndarray:
    """Edge map after cutting edge ``e`` into ``mult[e]`` unit pieces.

    A piece passes its value on to the next piece of its edge; the first
    piece of edge ``e`` receives ``A[e, f]`` times the value leaving the
    last piece of ``f`` (the bond map of Kottos & Smilansky, Ann. Phys. 274
    (1999), on the subdivided graph).  Its characteristic polynomial is
    ``det(zI - B) = P_A(z^{m_1}, .., z^{m_n})``.
    """
    last = np.cumsum(mult) - 1
    first = last - np.asarray(mult) + 1
    b = np.eye(last[-1] + 1, k=-1, dtype=complex)
    b[first] = 0.0
    b[np.ix_(first, last)] = matrix
    return b


def spectrum_exact_commensurable(
    a: GEndomorphism,
    multipliers,
    delta: float,
    window,
    *,
    residual_tol: float = RESIDUAL_TOL,
) -> SpectrumReport:
    """Spectrum for edge lengths ``l_e = m_e * delta`` with integer ``m_e``.

    Substituting ``z = exp(i lambda delta)`` turns ``det T(lambda)`` into
    ``det(zI - B)`` for the ``d x d`` subdivided map ``B``, ``d = sum m_e``,
    so its nonzero eigenvalues are the roots, found by one eigensolve.
    Roots too small for the rank test to tell from zero are discarded, the
    others grouped where they coincide or the rank test links them
    (:func:`_kernel_link`).  A centroid that small is the scatter of a zero
    eigenvalue, and discarded, if the product of the group's roots is small
    too; else the group's roots are taken one by one.  Each
    centroid ``z`` with argument ``phi`` in ``[0, 2 pi)`` and modulus
    ``exp(alpha)`` yields the eigenvalue family ``(phi + 2 pi k - i alpha) /
    delta`` over all integers ``k``; the report lists the members inside the
    window.  A degree ``d`` above ``MAX_EXACT_DEGREE``, and a window listing
    more than ``MAX_FAMILY_MEMBERS`` eigenvalues, ``width L / 2 pi`` as on
    every real window (:func:`_check_width`), are refused before the
    eigensolve; that count takes in every root of ``B``, zero and repeated
    ones too.  For a unitary map on a real window the report's ``winding``
    is the eigenphase count of the window widened by ``DEDUPE_RADIUS``, a
    check on the listed multiplicities.
    """
    window = as_window(window)
    if delta <= 0:
        raise ValueError("base length must be positive")
    mult = [int(m) for m in multipliers]
    if any(m <= 0 for m in mult):
        raise ValueError("multipliers must be positive integers")
    if sum(mult) > MAX_EXACT_DEGREE:
        raise DiracGraphError(
            f"exact solver degree {sum(mult)} exceeds {MAX_EXACT_DEGREE}; "
            "use the contour solver on a rectangle instead"
        )
    lengths = np.array(mult, dtype=float) * delta
    period = 2 * math.pi / delta
    _check_width(window, float(lengths.sum()), period)

    # Where every exp(i lambda l_e) lies under the rank tolerance, T is -A
    # to within it: the zero roots of B lie there, or centre there linked.
    floor = RANK_RTOL * np.linalg.norm(a.matrix)
    roots = np.linalg.eigvals(_subdivided_map(a.matrix, mult))
    roots = roots[np.any(_moduli(roots, lengths, delta) > floor, axis=-1)]
    groups = []
    for z0, members in _tree_groups(roots, _kernel_link(a.matrix, lengths, delta)):
        if np.any(_moduli(z0, lengths, delta) > floor):
            groups.append((z0, len(members)))
        # the product of the roots is the constant term of the group's
        # factor of det(zI - B): the scatter of a zero root leaves it tiny
        elif abs(np.prod(members)) > floor:
            groups += [(z, 1) for z in members]
    warnings: list[str] = []
    if not groups:
        warnings.append(
            "secular polynomial is a single monomial; the map is singular and "
            "the spectrum in any window is empty"
        )
    candidates = []
    for z0, size in groups:
        phi = math.atan2(z0.imag, z0.real) % (2 * math.pi)
        base = (phi - 1j * math.log(abs(z0))) / delta
        k_lo = math.ceil((window.re_min - base.real) / period - 1e-12)
        k_hi = math.floor((window.re_max - base.real) / period + 1e-12)
        candidates += [(base + k * period, size) for k in range(k_lo, k_hi + 1)]
    everything = [(np.arange(lengths.size), candidates)]
    entries = _certified_entries(a.matrix, lengths, window, everything, residual_tol, warnings)
    winding = None
    if window.is_real_interval and is_unitary(a):
        lo, hi = window.re_min - DEDUPE_RADIUS, window.re_max + DEDUPE_RADIUS
        winding = _window_count(a.matrix, lengths, lo, hi)
        _check_count("eigenphase count", winding, entries, warnings)
    return SpectrumReport("exact-commensurable", window, entries, tuple(warnings), winding)


# -- eigenphase locator for unitary maps ---------------------------------


def _quantum_maps(matrix, lengths, xs) -> np.ndarray:
    """``S(x) = diag(exp(-i x l)) A`` stacked over the real points ``xs``."""
    return np.exp(-1j * np.multiply.outer(xs, lengths))[..., None] * matrix


def _phase_sums(matrix, lengths, xs) -> np.ndarray:
    """Sum of the eigenphases of ``S(x)`` in ``[0, 2 pi)`` at every point of
    ``xs``, ``STACK_CHUNK`` matrices at a time.

    The Cayley transform ``C = i (I + S)^-1 (I - S)`` of the unitary ``S``
    is Hermitian with the eigenvalues ``tan(theta / 2)`` (Horn & Johnson,
    *Matrix Analysis*, section 2.1), so one stacked ``solve`` and
    ``eigvalsh`` of its Hermitian part give the phases ``2 arctan(t)``.  A
    chunk where some ``I + S`` is exactly singular takes ``eigvals(S)``.
    """
    xs = np.asarray(xs, dtype=float)
    eye = np.eye(lengths.size)
    sums = np.empty(xs.size)
    for s in range(0, xs.size, STACK_CHUNK):
        q = _quantum_maps(matrix, lengths, xs[s : s + STACK_CHUNK])
        try:
            c = 1j * np.linalg.solve(eye + q, eye - q)
            theta = 2 * np.arctan(np.linalg.eigvalsh((c + c.conj().swapaxes(1, 2)) / 2))
        except np.linalg.LinAlgError:
            theta = np.angle(np.linalg.eigvals(q))
        sums[s : s + STACK_CHUNK] = np.mod(theta, 2 * math.pi).sum(axis=1)
    return sums


def _counts(total: float, x0, x1, p0, p1) -> np.ndarray:
    """Eigenvalues of a unitary map in the cells ``[x0, x1)``, with
    multiplicity, from the phase sums ``p0``, ``p1`` at the cell ends.

    ``S(x)`` is unitary with ``det S = exp(-i x L) det A``: its eigenphases
    turn clockwise with summed rate ``L``, and ``x`` is an eigenvalue of
    multiplicity ``m`` where ``m`` of them pass 0, each wrapping to ``2 pi``
    (Kottos & Smilansky, Ann. Phys. 274 (1999)).
    """
    turns = total * np.subtract(x1, x0) + np.subtract(p1, p0)
    return np.rint(turns / (2 * math.pi)).astype(int)


def _window_count(matrix, lengths, lo: float, hi: float) -> int:
    """Eigenvalues of a unitary map in ``[lo, hi)``, with multiplicity."""
    return int(_counts(float(lengths.sum()), lo, hi, *_phase_sums(matrix, lengths, [lo, hi])))


def _phase_newton(matrix, lengths, lo, hi, p_lo) -> np.ndarray:
    """The eigenvalue in each cell ``[lo, hi)`` holding one, all cells at once.

    With ``P(lo)`` the phase sum at ``lo`` and ``n`` edges, ``f(x) = det(I -
    S(x)) exp(-i (P(lo) - L (x - lo)) / 2) / (-i)^n`` is ``2^n`` times the
    product of ``sin(theta / 2)`` over the eigenphases: real, with the sign
    ``(-1)^c`` for the ``c`` eigenvalues in ``[lo, x)``.  The sign of
    ``slogdet`` shrinks the cell to the side holding the eigenvalue, and
    ``f / f' = -1 / Im sum_e l_e G_ee``, ``G = (I - S(x))^-1`` (Barra &
    Gaspard, J. Stat. Phys. 101 (2000)), gives the Newton step; a step
    leaving the shrunk cell, or a singular ``I - S``, is replaced by its
    midpoint.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    start, total, n = lo.copy(), float(lengths.sum()), lengths.size
    eye = np.eye(n)
    x = (lo + hi) / 2
    active = np.arange(x.size)
    # a step of 1 / 0 is infinite and lands outside the cell
    with np.errstate(divide="ignore"):
        for _ in range(MAX_PHASE_STEPS):
            if not active.size:
                break
            xa = x[active]
            m = eye - _quantum_maps(matrix, lengths, xa)
            sign, _ = np.linalg.slogdet(m)
            reference = p_lo[active] - total * (xa - start[active])
            below = (sign * np.exp(-0.5j * reference) * 1j**n).real > 0
            lo[active] = np.where(below, xa, lo[active])
            hi[active] = np.where(below, hi[active], xa)
            try:
                new = xa + 1 / np.einsum("e,kee->k", lengths, np.linalg.inv(m)).imag
            except np.linalg.LinAlgError:
                new = np.full(xa.size, np.nan)
            done = np.abs(new - xa) <= 1e-12 * (1 + np.abs(xa))
            inside = (new >= lo[active]) & (new <= hi[active])
            x[active] = np.where(inside, new, (lo[active] + hi[active]) / 2)
            active = active[~done]
    return x


def _locate(matrix, lengths, x0, x1, p0, p1, count) -> list[tuple[complex, int]]:
    """Candidates ``(point, hint)`` for the eigenvalues in the cells ``[x0,
    x1)``, which hold ``count`` of them by the phase sums ``p0``, ``p1``.

    Cells holding more than one are bisected, all at once, until each holds
    one or is narrower than ``CELL_FLOOR (1 + |x|)``; such a narrow cell is
    one candidate hinted at its count, the others go to
    :func:`_phase_newton`, ``STACK_CHUNK`` cells at a time.
    """
    total = float(lengths.sum())
    cells = [np.asarray(c)[np.asarray(count) > 0] for c in (x0, x1, p0, p1, count)]
    while True:
        x0, x1, p0, p1, count = cells
        split = (count > 1) & (x1 - x0 > CELL_FLOOR * (1 + np.abs(x0)))
        if not split.any():
            break
        mid = (x0[split] + x1[split]) / 2
        p_mid = _phase_sums(matrix, lengths, mid)
        low = _counts(total, x0[split], mid, p0[split], p_mid)
        parts = (
            [c[~split] for c in cells],
            [x0[split], mid, p0[split], p_mid, low],
            [mid, x1[split], p_mid, p1[split], count[split] - low],
        )
        cells = [np.concatenate(column) for column in zip(*parts)]
        cells = [c[cells[4] > 0] for c in cells]
    one = count == 1
    singles = [x0[one], x1[one], p0[one]]
    roots = [
        x
        for s in range(0, singles[0].size, STACK_CHUNK)
        for x in _phase_newton(matrix, lengths, *(c[s : s + STACK_CHUNK] for c in singles))
    ]
    narrow = zip((x0[~one] + x1[~one]) / 2, count[~one])
    return [(complex(x), 1) for x in roots] + [(complex(x), int(c)) for x, c in narrow]


def _cycle_candidates(matrix, lengths, base: float, top: float) -> list[tuple[complex, int]]:
    """Candidates ``(point, 1)`` on ``[base, top)`` of one weighted cycle, a
    block with one nonzero entry per row: ``det(I - S(x)) = 1 - c exp(-i x
    L)`` for its holonomy ``c``, the product of its entries, whose simple
    zeros ``(arg c + 2 pi k) / L`` need no search (Kottos & Smilansky)."""
    total = float(lengths.sum())
    step, shift = 2 * math.pi / total, float(np.angle(np.prod(matrix[matrix != 0]))) / total
    ks = range(math.ceil((base - shift) / step), math.ceil((top - shift) / step))
    return [(complex(shift + k * step), 1) for k in ks]


def _check_width(window: Window, total: float, period: float = math.inf) -> None:
    """Refuse a window, real or a rectangle's real extent, before anything is
    solved: for the total length ``L`` (a Python float, so that no NumPy
    overflow warns) it lists ``width L / 2 pi`` eigenvalues, at most
    ``MAX_FAMILY_MEMBERS``, and locates ``min(width, period) L / 2 pi``, at
    most ``MAX_EXPECTED_ROOTS``.  Where ``|lambda| L eps >= 2 pi``, one float
    step of ``lambda`` turns ``exp(i lambda L)`` a full turn."""
    width = window.re_max - window.re_min
    expected = width * total / (2 * math.pi)
    located = min(width, period) * total / (2 * math.pi)
    if not (located <= MAX_EXPECTED_ROOTS and expected <= MAX_FAMILY_MEMBERS):
        raise WindowTooLargeError(
            f"window of width {width:.3g} holds about {expected:.2e} eigenvalues; "
            "split it into smaller pieces"
        )
    if max(-window.re_min, window.re_max) * total * math.ulp(1.0) >= 2 * math.pi:
        raise WindowTooLargeError("window reaches where lambda L overflows float precision")


def _real_window(window: Window, lengths, period: float = math.inf) -> tuple[float, float]:
    """Bounds of a real window, checked by :func:`_check_width` and widened
    by ``DEDUPE_RADIUS``, for positive lengths."""
    if not window.is_real_interval and not (window.im_min <= 0.0 <= window.im_max):
        raise ValueError("real-axis solver needs a window containing the real line")
    if not np.all(np.asarray(lengths) > 0):
        raise ValueError("edge lengths must be positive")
    _check_width(window, float(np.sum(lengths)), period)
    return window.re_min - DEDUPE_RADIUS, window.re_max + DEDUPE_RADIUS


def commensurable(lengths) -> tuple[list[int], float] | None:
    """Integer multipliers ``m_e`` and a base length ``delta`` with ``l_e =
    m_e delta`` to rounding, or ``None``: the one commensurability rule of
    the spectrum routes.

    :func:`detect_commensurable` accepts lengths within relative ``1e-9`` of
    ``m_e delta``, but an eigenvalue computed for the lengths ``m_e delta``
    drifts from the true one by about ``|lambda| |l_e - m_e delta|``: enough,
    on a wide window or far from the origin, to merge two eigenvalues or
    land on another one.  Only lengths matching to ``PERIOD_RTOL``, the
    rounding of ``m_e delta``, count as commensurable.
    """
    found = detect_commensurable(lengths)
    if found is not None:
        mult, delta = found
        if np.any(np.abs(np.multiply(mult, delta) - lengths) > PERIOD_RTOL * np.asarray(lengths)):
            return None
    return found


def _require_unitary(a) -> None:
    if not is_unitary(a):
        raise DiracGraphError(
            "edge map is not unitary, its spectrum need not be real; "
            "use the contour solver on a rectangle instead"
        )


def spectrum_numeric(
    a: GEndomorphism,
    lengths=None,
    window=(-10.0, 10.0),
    *,
    residual_tol: float = RESIDUAL_TOL,
) -> SpectrumReport:
    """Real spectrum of a unitary edge map on a real window, by eigenphase count.

    ``lambda`` is an ``m``-fold eigenvalue exactly when ``S(lambda) =
    diag(exp(-i lambda l)) A`` has the eigenvalue 1 with multiplicity ``m``.
    A block triangular unitary matrix is block diagonal, so the map splits
    into the blocks that no entry couples to each other, the classes of the
    symmetrized support ``|A| + |A|^T`` (``edge_classes``); a map that is
    only unitary to ``UNITARY_TOL`` can be block triangular, and this split
    keeps its coupling entries inside one block.  The eigenphases of ``S``
    are those of the blocks, and each block ``b`` of ``n_b`` edges and
    length ``L_b`` is located on its own: phase sums at the ends of one cell
    per expected eigenvalue ``width L_b / 2 pi``, from stacked Cayley
    transforms (:func:`_phase_sums`), count the eigenvalues in each cell
    exactly (:func:`_counts`); cells are bisected until each holds one,
    which bracketed Newton on ``det(I - S_b)`` pins, or is too narrow to
    split, which is one multiple candidate.  A block with one nonzero entry
    per row is one weighted cycle, whose candidates come in closed form
    instead (:func:`_cycle_candidates`).  For :func:`commensurable`
    lengths ``l_e = m_e delta`` ``S`` has the period ``P = 2 pi / delta``: a
    window wider than that has one period of its tiling ``[lo + k P, lo + (k
    + 1) P)`` located, the one next to the origin, and its candidates
    translated by whole periods across the window.  Each block's candidates
    are certified on the same block, every listed one by its own rank test
    (:func:`_certified_entries`), and entries of different blocks within
    ``DEDUPE_RADIUS`` are merged, their kernels being independent: their
    multiplicities add.  The cost
    grows as ``sum_b expected_b n_b**3`` over at most one period, at most
    ``expected n**3``, with no polynomial expansion and no edge cap;
    :func:`_real_window` bounds the eigenvalues located and listed.  The
    report's ``winding``, the sum of the block counts of the window widened
    by ``DEDUPE_RADIUS``, checks the listed multiplicities; a cycle, and any
    block whose period was translated, is counted at the window ends, which
    checks the closed form and the translation.  For a map that is not
    unitary the spectrum need not be real and this solver refuses; use the
    contour solver instead.
    """
    window = as_window(window)
    lengths = np.asarray(a.graph.lengths() if lengths is None else lengths, dtype=float)
    found = commensurable(lengths)
    period = math.inf if found is None else 2 * math.pi / found[1]
    lo, hi = _real_window(window, lengths, period)
    _require_unitary(a)
    periodic = lo + period < hi
    base, top = lo, hi
    if periodic:
        # the located period starts in (-P, 0]: near the origin its
        # eigenvalues carry the least rounding
        first = math.ceil(lo / period)
        base = lo - first * period
        top = base + period
        turns = range(first, first + math.ceil((hi - lo) / period))
        # head has 24 bits, so k * head is exact (|k| < 2**29) and fsum
        # rounds each translate x + k P once
        head = float(np.float32(period))
        tail = period - head
    blocks, winding = [], 0
    support = np.abs(a.matrix)
    for idx in edge_classes(support + support.T):
        m, l = a.matrix[np.ix_(idx, idx)], lengths[idx]
        if np.all(np.count_nonzero(m, axis=1) == 1):
            located, count = _cycle_candidates(m, l, base, top), None
        else:
            cells = max(1, math.ceil((top - base) * l.sum() / (2 * math.pi)))
            xs = np.linspace(base, top, cells + 1)
            p = _phase_sums(m, l, xs)
            count = _counts(float(l.sum()), xs[:-1], xs[1:], p[:-1], p[1:])
            located = _locate(m, l, xs[:-1], xs[1:], p[:-1], p[1:], count)
        if periodic:
            located = [
                (math.fsum((x.real, k * head, k * tail)), hint)
                for k in turns
                for x, hint in located
            ]
        winding += _window_count(m, l, lo, hi) if periodic or count is None else int(count.sum())
        blocks.append((idx, located))
    warnings: list[str] = []
    entries = _certified_entries(
        a.matrix, lengths, window, blocks, residual_tol, warnings, real_axis=True
    )
    _check_count("winding number", winding, entries, warnings)
    return SpectrumReport("eigenphase", window, entries, tuple(warnings), winding=winding)


# -- contour solver for general maps -------------------------------------


def _quadrature(matrix, lengths, ends: np.ndarray, floor: float):
    """Nodes, weights, ``T^-1`` and ``tr(T^-1 T')`` for ``T(z) = diag(exp(i
    z l)) - A`` on the panels ``ends`` (rows: start, end), in stacked calls.

    A zero lies about ``1 / |T^-1 T'|_F`` or more from a node; a panel where
    that is under a quarter of its length is bisected.  A panel below
    ``floor`` or a singular ``T`` means a zero on the contour.  The panels
    kept and to evaluate number at most ``MAX_PANEL_GROWTH`` times the
    panels given: where ``T`` is near a singular ``-A`` along a side, far
    up, the bisection would otherwise end only with the memory.
    """
    x, wq = np.polynomial.legendre.leggauss(QUAD_ORDER)
    n = lengths.size
    parts, kept, limit = [], 0, MAX_PANEL_GROWTH * len(ends)
    # overflow far from the real axis is caught below as non-finite values
    with np.errstate(over="ignore", invalid="ignore"):
        while len(ends):
            if kept + len(ends) > limit:
                raise WindowTooLargeError(
                    f"contour panels grew {MAX_PANEL_GROWTH}-fold by bisection, "
                    "where T(lambda) is near singular; shrink the rectangle"
                )
            mid, half = ends.mean(axis=1), (ends[:, 1] - ends[:, 0]) / 2
            z = mid[:, None] + half[:, None] * x
            t, phases = _t_matrices(matrix, lengths, z)
            try:
                tinv = np.linalg.inv(t)
            except np.linalg.LinAlgError:
                raise ContourError("zero on the contour") from None
            dlog = np.einsum("...ee,...e->...", tinv, 1j * lengths * phases)
            reach = np.linalg.norm(tinv * (lengths * np.abs(phases))[..., None, :], axis=(2, 3))
            if not np.all(np.isfinite(reach) & np.isfinite(dlog)):
                raise ContourError("secular function is not finite on the contour")
            near = np.any(reach * np.abs(half)[:, None] > 2.0, axis=1)
            if np.any(np.abs(half[near]) < floor):
                raise ContourError("zero on or near the contour")
            parts.append((z[~near], half[~near, None] * wq, tinv[~near], dlog[~near]))
            kept += np.count_nonzero(~near)
            ends, mid = ends[near], mid[near]
            ends = np.concatenate([np.c_[ends[:, 0], mid], np.c_[mid, ends[:, 1]]])
    z, w, tinv, dlog = (np.concatenate(p) for p in zip(*parts))
    return z.ravel(), w.ravel(), tinv.reshape(-1, n, n), dlog.ravel()


def _panel_step(lengths) -> float:
    """Length of the first round's contour panels."""
    return min(1.0, 2.0 / lengths.sum())


def _contour_zeros(matrix, lengths, re0, re1, im0, im1, step=None):
    """Zero count and zero estimates inside a rectangle by Beyn's method.

    The count ``(1/2 pi i) sum w tr(T^-1 T')`` of zeros of ``det T`` settles
    as panels of ``h = min(1, 2/L)`` halve.  The moments ``A_p = (1/2 pi i)
    sum w u^p T^-1``, ``u = (z - c) / rho``, in ``K = count // n + 1``
    blocks ``H_s = [A_{i+j+s}]`` give the zeros as the eigenvalues of ``U*
    H_1 V / S``, the SVD of ``H_0`` cut to the count (Beyn 2012).  ``H_0``
    loses rank when more zeros share a kernel than there are blocks (as
    commensurable lengths repeat them every period) or crowd the contour;
    a rectangle longer than ``h`` is then cut in two, at the settled step.
    """
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]
    centre, rho = (corners[0] + corners[2]) / 2, abs(corners[2] - corners[0]) / 2
    h = _panel_step(lengths)

    def integrate(step):
        ends = []
        for z1, z2 in zip(corners, corners[1:] + corners[:1]):
            knots = np.linspace(z1, z2, max(1, math.ceil(abs(z2 - z1) / step)) + 1)
            ends.append(np.stack([knots[:-1], knots[1:]], axis=1))
        z, w, tinv, dlog = _quadrature(matrix, lengths, np.concatenate(ends), PANEL_FLOOR * rho)
        return float((w @ dlog / (2j * math.pi)).real), z, w, tinv

    settled, step = step is not None, step or h
    count, z, w, tinv = integrate(step)
    for _ in range(0 if settled else MAX_HALVINGS):
        step, previous = step / 2, count
        count, z, w, tinv = integrate(step)
        if settled := abs(count - previous) < 1e-2:
            break
    if not settled:
        raise ContourError(f"zero count {count:.3f} does not settle")
    winding = round(count)
    if abs(count - winding) > 0.25:
        raise ContourError(f"winding number {count:.3f} is not close to an integer")
    if winding <= 0:
        return 0, np.empty(0, dtype=complex)
    k = winding // lengths.size + 1
    coef = (w / (2j * math.pi))[:, None] * ((z - centre) / rho)[:, None] ** np.arange(2 * k)
    moments = np.tensordot(coef, tinv, axes=(0, 0))
    h0, h1 = (
        np.block([[moments[i + j + s] for j in range(k)] for i in range(k)]) for s in (0, 1)
    )
    left, sv, right = np.linalg.svd(h0)
    if sv[winding - 1] <= RANK_RTOL * sv[0] and max(re1 - re0, im1 - im0) > h:
        # cut off the middle, where symmetric inputs tend to put a zero
        x, y = re0 + 0.618 * (re1 - re0), im0 + 0.618 * (im1 - im0)
        parts = [(re0, x, im0, im1), (x, re1, im0, im1)]
        if re1 - re0 < im1 - im0:
            parts = [(re0, re1, im0, y), (re0, re1, y, im1)]
        found = [_contour_zeros(matrix, lengths, *part, step) for part in parts]
        if sum(c for c, _ in found) != winding:
            raise ContourError("zero counts of the parts disagree")
        return winding, np.concatenate([e for _, e in found])
    left, sv, right = left[:, :winding], sv[:winding], right[:winding].conj().T
    return winding, centre + rho * np.linalg.eigvals(left.conj().T @ h1 @ right / sv)


def spectrum_complex(
    a: GEndomorphism,
    lengths=None,
    rect=None,
    *,
    residual_tol: float = RESIDUAL_TOL,
) -> SpectrumReport:
    """Complex zeros of the secular function inside a rectangle.

    A contour integral of ``(diag(exp(i z l)) - A)^-1`` around the rectangle
    counts the enclosed zeros and estimates them (Beyn's method); estimates
    grouped by the rank test hint a multiple zero, single ones are polished
    by Newton on ``det T``.  If a zero sits on the contour the rectangle is widened
    slightly and retried, up to five times.  The report's ``winding`` field
    carries the count as a check on the listed multiplicities.  A rectangle
    that :func:`_check_width` refuses as a real window, or whose first round
    needs more than ``MAX_PANELS`` panels, is refused before anything is
    integrated.
    """
    if rect is None:
        raise ValueError("contour solver needs a rectangle")
    window = rect if isinstance(rect, Window) else Window.rect(*rect)
    bounds = (window.re_min, window.re_max, window.im_min, window.im_max)
    if not all(math.isfinite(b) for b in bounds):
        raise ValueError("contour solver needs a rectangle with finite bounds")
    lengths = np.asarray(a.graph.lengths() if lengths is None else lengths, dtype=float)
    warnings: list[str] = []
    re0, re1, im0, im1 = bounds
    _check_width(window, float(lengths.sum()))
    panels = 2 * ((re1 - re0) + (im1 - im0)) / _panel_step(lengths)
    if not panels <= MAX_PANELS:
        raise WindowTooLargeError(
            f"rectangle needs about {panels:.2e} contour panels; split it into smaller pieces"
        )
    size = max(re1 - re0, im1 - im0)
    pad = 0.0
    for attempt in range(5):
        try:
            box = (re0 - pad, re1 + pad, im0 - pad, im1 + pad)
            winding, estimates = _contour_zeros(a.matrix, lengths, *box)
            break
        except ContourError:
            pad = (attempt + 1) * max(residual_tol, 1e-7) * (1.0 + size)
            if attempt == 4:
                raise
    if pad > 0:
        warnings.append(f"contour perturbed outward by {pad:.2e} to avoid a zero")

    # A group's centroid restores the accuracy its scattered estimates lack.
    groups = _tree_groups(estimates, _kernel_link(a.matrix, lengths))
    candidates = [(z if len(g) > 1 else _polish(a.matrix, lengths, z), len(g)) for z, g in groups]
    everything = [(np.arange(lengths.size), candidates)]
    entries = _certified_entries(
        a.matrix, lengths, window, everything, residual_tol, warnings, pad=pad
    )
    _check_count("winding number", winding, entries, warnings)
    return SpectrumReport("contour", window, entries, tuple(warnings), winding=winding)
