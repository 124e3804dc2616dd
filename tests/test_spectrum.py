"""Eigenvalue solvers: exact commensurable, eigenphase locator, contour search."""

import math
import time

import numpy as np
import pytest

from diracgraph import (
    GEndomorphism,
    Window,
    directed_cycle,
    graph_from_edges,
    graph_of,
    multiplicity,
    rose,
    spectrum_complex,
    spectrum_exact_commensurable,
    spectrum_numeric,
)
from diracgraph import charpoly, spectrum
from diracgraph.charpoly import char_poly, specialize_univariate
from diracgraph.errors import DiracGraphError, WindowTooLargeError
from diracgraph.randgen import (
    random_eulerian_graph,
    random_g_endomorphism,
    random_unitary_g_endomorphism,
)
from diracgraph.spectrum import _subdivided_map, as_window
from oracles import eigenfunction_residual, general_eigencondition


def shift_map(g, weights):
    """Cyclic shift on a directed cycle: edge j feeds edge j+1 with weight."""
    n = g.n_edges
    m = np.zeros((n, n), dtype=complex)
    for i in range(n):
        m[(i + 1) % n, i] = weights[i]
    return GEndomorphism(g, m)


def scaled_identity_rose(n, a):
    """n loops at one vertex, each mapped to itself with factor ``a``.

    The secular function is ``(exp(i lam) - a)**n``: a single point spectrum
    ``-i ln a + 2 pi k`` of multiplicity ``n``, handy for multiple-zero tests.
    """
    g = rose(n)
    return g, GEndomorphism(g, a * np.eye(n))


# -- windows --------------------------------------------------------------


def test_window_from_pair_is_real_interval():
    w = as_window((-1.0, 2.0))
    assert w.is_real_interval
    assert w.contains(1.5) and w.contains(1.5 - 40j)
    assert not w.contains(2.5)


def test_rect_window_membership_and_slack():
    w = Window.rect(0, 1, -1, 0)
    assert w.contains(0.5 - 0.5j)
    assert not w.contains(0.5 + 0.1j)
    assert w.contains(0.5 + 0.1j, slack=0.2)
    assert not w.is_real_interval


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        Window.rect(1, 0, 0, 1)


# -- multiplicity ---------------------------------------------------------


def test_multiplicity_identity_loop():
    g = rose(1)
    a = GEndomorphism(g, np.eye(1))
    m, kernel = multiplicity(a, [1.0], 2 * math.pi)
    assert m == 1 and kernel.shape == (1, 1)
    assert multiplicity(a, [1.0], math.pi)[0] == 0


def test_multiplicity_full_kernel_for_scaled_identity():
    g, a = scaled_identity_rose(3, 2.0)
    lam = -1j * math.log(2.0)
    m, kernel = multiplicity(a, [1.0] * 3, lam)
    assert m == 3
    # orthonormal kernel basis
    assert np.allclose(kernel.conj().T @ kernel, np.eye(3))


def test_multiplicity_threshold_uses_operand_scale():
    # Near the eigenvalue the difference matrix is uniformly tiny; comparing
    # singular values against its own largest one would report full rank.
    g, a = scaled_identity_rose(2, 2.0)
    lam = -1j * math.log(2.0) + 1e-12
    assert multiplicity(a, [1.0, 1.0], lam)[0] == 2


def test_multiplicity_zero_map():
    g = rose(2)
    a = GEndomorphism(g, np.zeros((2, 2)))
    # exp(i lam l) is never zero, so the difference is always invertible
    assert multiplicity(a, [1.0, 1.0], 0.3 - 0.2j)[0] == 0


# -- exact solver on commensurable lengths --------------------------------


def test_exact_single_loop_lattice():
    g = rose(1)
    a = GEndomorphism(g, np.eye(1))
    rep = spectrum_exact_commensurable(a, [1], 1.0, (-7.0, 7.0))
    want = [2 * math.pi * k for k in (-1, 0, 1)]
    assert np.allclose(rep.values(), want, atol=1e-9)
    assert all(e.multiplicity == 1 for e in rep.eigenvalues)
    assert all(e.residual < 1e-12 for e in rep.eigenvalues)


def test_exact_rose_adjacency_damped_lattice():
    # All-ones map on n loops: specialization t^n - n t^{n-1}, so the only
    # root family is exp(i lam) = n, giving 2 pi k - i ln n.
    for n in (2, 3, 4):
        g = rose(n)
        a = GEndomorphism(g, np.ones((n, n)))
        rep = spectrum_exact_commensurable(
            a, [1] * n, 1.0, Window.rect(-0.5, 7.0, -3.0, 0.5)
        )
        want = [-1j * math.log(n), 2 * math.pi - 1j * math.log(n)]
        assert len(rep.eigenvalues) == 2
        assert np.allclose(rep.values(), want, atol=1e-9)
        assert all(e.multiplicity == 1 for e in rep.eigenvalues)


def test_exact_multiple_root_centroid():
    # (z - 2)^2 after specialization; the clustered companion roots must
    # recover the double root to full precision, not to sqrt(eps).
    g, a = scaled_identity_rose(2, 2.0)
    rep = spectrum_exact_commensurable(a, [1, 1], 1.0, Window.rect(-1, 1, -2, 0))
    assert len(rep.eigenvalues) == 1
    entry = rep.eigenvalues[0]
    assert entry.multiplicity == 2
    assert entry.value == pytest.approx(-1j * math.log(2.0), abs=1e-9)


def test_exact_high_multiplicity_roots():
    # companion roots of (z - 2)^n scatter by eps**(1/n); the derivative
    # polish has to recover the exact location before the rank test
    for n in (3, 4, 5):
        g, a = scaled_identity_rose(n, 2.0)
        rep = spectrum_exact_commensurable(a, [1] * n, 1.0, Window.rect(-1, 1, -2, 0))
        assert len(rep.eigenvalues) == 1
        entry = rep.eigenvalues[0]
        assert entry.multiplicity == n
        assert entry.value == pytest.approx(-1j * math.log(2.0), abs=1e-9)


def test_exact_mixed_lengths_against_closed_form():
    # Single cycle of total length 3 delta: exp(3 i lam delta) = 1.
    g = graph_from_edges([("e1", "u", "v", 0.5), ("e2", "v", "u", 1.0)])
    a = shift_map(g, [1.0, 1.0])
    rep = spectrum_exact_commensurable(a, [1, 2], 0.5, (-0.1, 9.0))
    want = [2 * math.pi * k / 1.5 for k in range(3)]
    assert np.allclose(rep.values(), want, atol=1e-9)


def test_exact_zero_root_discarded():
    # P = (x1 - 1) x2 specializes to z^2 - z; the z = 0 root is not an
    # eigenvalue and only the z = 1 lattice remains.
    g = rose(2)
    a = GEndomorphism(g, np.diag([1.0, 0.0]))
    rep = spectrum_exact_commensurable(a, [1, 1], 1.0, (-0.1, 0.1))
    assert np.allclose(rep.values(), [0.0], atol=1e-9)
    assert rep.eigenvalues[0].multiplicity == 1


def test_exact_singular_monomial_warns_empty():
    g = rose(1)
    a = GEndomorphism(g, np.zeros((1, 1)))
    rep = spectrum_exact_commensurable(a, [1], 1.0, (-10.0, 10.0))
    assert rep.eigenvalues == ()
    assert any("single monomial" in w for w in rep.warnings)


def test_exact_reports_the_eigenphase_count_on_unitary_maps():
    # rose(6) with the identity: three 6-fold values, two on the window ends
    g, a = scaled_identity_rose(6, 1.0)
    rep = spectrum_exact_commensurable(a, [1] * 6, 1.0, (0.0, 4 * math.pi))
    assert [e.multiplicity for e in rep.eigenvalues] == [6, 6, 6]
    assert rep.winding == 18 and rep.warnings == ()
    # no count off the real line or for a map that is not unitary
    rect = Window.rect(-1, 1, -1, 1)
    assert spectrum_exact_commensurable(a, [1] * 6, 1.0, rect).winding is None
    g, a = scaled_identity_rose(2, 2.0)
    assert spectrum_exact_commensurable(a, [1, 1], 1.0, (-1.0, 1.0)).winding is None


def test_exact_refuses_windows_with_too_many_family_members():
    g, a = scaled_identity_rose(1, 1.0)
    with pytest.raises(WindowTooLargeError, match="smaller pieces"):
        spectrum_exact_commensurable(a, [1], 1.0, (1e300, 1e301))
    # the family index overflows a float: refused, not an OverflowError
    with pytest.raises(WindowTooLargeError):
        spectrum_exact_commensurable(a, [1], 100.0, (-1e308, 1e308))
    with pytest.raises(WindowTooLargeError):
        spectrum_exact_commensurable(a, [1], 100.0, (1e308, 1.5e308))
    # no width, but lambda L overflows and so would the family index
    with pytest.raises(WindowTooLargeError, match="overflows"):
        spectrum_exact_commensurable(a, [1], 100.0, (1e308, 1e308))
    width = 2 * math.pi * spectrum.MAX_FAMILY_MEMBERS
    with pytest.raises(WindowTooLargeError):
        spectrum_exact_commensurable(a, [1], 1.0, (0.5, 0.5 + width * 1.001))
    rep = spectrum_exact_commensurable(a, [1], 1.0, (0.5, 0.5 + width * 1e-3))
    assert len(rep.eigenvalues) == spectrum.MAX_FAMILY_MEMBERS // 1000


def test_exact_refuses_a_wide_window_before_the_eigensolve():
    # d = 1000, the largest degree, but the window lists about 1.6e6
    # eigenvalues: refused without the 1000 x 1000 eigensolve
    g = rose(4)
    a = random_g_endomorphism(g, np.random.default_rng(0))
    start = time.perf_counter()
    with pytest.raises(WindowTooLargeError, match="smaller pieces"):
        spectrum_exact_commensurable(a, [250] * 4, 0.001, (0.0, 1e7))
    assert time.perf_counter() - start < 1.0


def test_exact_input_validation():
    g = rose(1)
    a = GEndomorphism(g, np.eye(1))
    with pytest.raises(ValueError):
        spectrum_exact_commensurable(a, [1], 0.0, (-1, 1))
    with pytest.raises(ValueError):
        spectrum_exact_commensurable(a, [0], 1.0, (-1, 1))


@pytest.mark.parametrize("seed", range(6))
def test_subdivided_map_has_the_specialized_characteristic_polynomial(seed):
    # det(zI - B) = P_A(z^{m_1}, .., z^{m_n}), against the expansion
    rng = np.random.default_rng(300 + seed)
    g = random_eulerian_graph(rng, max_edges=5)
    a = random_g_endomorphism(g, rng)
    mult = [int(m) for m in rng.integers(1, 4, size=g.n_edges)]
    want = specialize_univariate(char_poly(a), mult)[::-1]
    assert np.allclose(np.poly(_subdivided_map(a.matrix, mult)), want, atol=1e-9)


def counting_rank_tests(monkeypatch):
    """Points passed to the stacked rank test, counted through a wrapper."""
    points = []
    stacked = spectrum._multiplicities

    def counted(a, lengths, lams, *args):
        points.append(np.size(lams))
        return stacked(a, lengths, lams, *args)

    monkeypatch.setattr(spectrum, "_multiplicities", counted)
    return points


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exact_multiple_root_is_one_group(n, monkeypatch):
    # B = 2I has one n-fold eigenvalue, not n scattered companion roots
    points = counting_rank_tests(monkeypatch)
    g, a = scaled_identity_rose(n, 2.0)
    rep = spectrum_exact_commensurable(a, [1] * n, 1.0, Window.rect(-1, 1, -2, 0))
    assert [e.multiplicity for e in rep.eigenvalues] == [n]
    assert rep.eigenvalues[0].value == pytest.approx(-1j * math.log(2.0), abs=1e-12)
    assert sum(points) <= 2


def jordan_rose():
    """rose(5) under Q M Q*: M has one eigenvalue in Jordan blocks 2, 2, 1."""
    mu = -2.5082 - 0.2423j
    m = mu * np.eye(5) + np.diag([1.0, 0.0, 1.0, 0.0], k=1)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    return GEndomorphism(rose(5), q @ m @ q.conj().T)


def test_exact_defective_zero_is_reported_once_and_warned():
    # two 5-fold zeros of geometric multiplicity 3 in the rectangle
    a = jordan_rose()
    rect = (3.2373, 11.2455, -1.0678, 0.8634)
    rep = spectrum_exact_commensurable(a, [1] * 5, 1.0, Window.rect(*rect))
    contour = spectrum_complex(a, rect=rect)
    assert [e.multiplicity for e in rep.eigenvalues] == [3, 3]
    assert np.allclose(rep.values(), contour.values(), atol=1e-8)
    defects = [w for w in rep.warnings if "defective" in w]
    assert len(defects) == 2 and all("hint 5" in w and "dimension 3" in w for w in defects)


def test_exact_drops_zero_eigenvalues_of_a_singular_map():
    # all-ones map, multipliers (2, 2): det(zI - B) = z^2 (z^2 - 2); the
    # defective zero eigenvalue scatters off 0, where T(lambda) is -A to
    # within the rank tolerance
    a = GEndomorphism(rose(2), np.ones((2, 2)))
    rep = spectrum_exact_commensurable(a, [2, 2], 1.0, (-10.0, 10.0))
    want = [math.pi * k - 0.5j * math.log(2.0) for k in range(-3, 4)]
    assert np.allclose(rep.values(), want, atol=1e-9)
    assert rep.warnings == ()


def haar_q(n):
    """The Q factor of complex normals from ``default_rng(0)``."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


@pytest.mark.parametrize("n", [4, 5])
def test_exact_drops_the_scattered_zero_roots_of_a_jordan_map(n):
    # A = Q J_n(0) Q*: B = A has one n-fold zero eigenvalue, which scatters
    # to |z| ~ eps**(1/n), beyond any fixed radius, where T(lambda) is
    # nearly the singular -A; the rank test links the scattered roots into
    # one group, whose centroid is 0
    q = haar_q(n)
    a = GEndomorphism(rose(n), q @ np.eye(n, k=1) @ q.conj().T)
    rep = spectrum_exact_commensurable(a, [1] * n, 1.0, (-4.0, 4.0))
    assert rep.eigenvalues == ()
    assert len(rep.warnings) == 1 and "map is singular" in rep.warnings[0]


def test_exact_lists_no_family_of_the_zero_roots_of_an_all_ones_map():
    # det(zI - B) = z^8 (z^4 - 1.4 (2 z^3 + z^2 + 2)); the eight zero
    # roots scatter, and far up T(lambda) is nearly the singular -A
    a = GEndomorphism(rose(5), 1.4 * np.ones((5, 5)))
    rep = spectrum_exact_commensurable(a, [1, 4, 2, 1, 4], 1.0, (-33.0, -21.0))
    assert len(rep.eigenvalues) == 8 and rep.warnings == ()
    assert all(abs(v.imag) < 5 for v in rep.values())


@pytest.mark.parametrize("gap", [3e-6, 1e-6])
def test_exact_lists_both_roots_of_a_close_pair(gap):
    # the two simple roots 2 and 2 + gap of B: the rank test finds no
    # kernel between them, so they are not one double candidate
    a = GEndomorphism(rose(2), np.diag([2.0, 2.0 + gap]))
    rep = spectrum_exact_commensurable(a, [1, 1], 1.0, Window.rect(-1, 1, -2, 0))
    assert [e.multiplicity for e in rep.eigenvalues] == [1, 1] and rep.warnings == ()
    want = [-math.log(2.0 + gap), -math.log(2.0)]
    assert sorted(v.imag for v in rep.values()) == pytest.approx(want, abs=1e-12)
    assert [v.real for v in rep.values()] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_exact_adds_close_eigenvalues_whose_kernels_differ():
    # the roots 2 and 2 + 1e-7 of B give eigenvalues 5e-8 apart, within
    # DEDUPE_RADIUS, with the kernels e1 and e2: they are two eigenvalues,
    # listed as one entry of multiplicity 2, on a rectangle and on a real
    # window alike
    a = GEndomorphism(rose(2), np.diag([2.0, 2.0 + 1e-7]))
    for window in (Window.rect(-1, 1, -2, 0), Window.real(-1, 1)):
        rep = spectrum_exact_commensurable(a, [1, 1], 1.0, window)
        assert [e.multiplicity for e in rep.eigenvalues] == [2] and rep.warnings == ()
        assert rep.values()[0] == pytest.approx(-1j * math.log(2.0), abs=1e-7)
        assert len(rep.eigenvalues[0].eigenfunctions) == 2


def test_contour_adds_close_eigenvalues_whose_kernels_differ():
    # the same pair on the contour route: its count and the listed
    # multiplicities agree
    a = GEndomorphism(rose(2), np.diag([2.0, 2.0 + 1e-7]))
    rep = spectrum_complex(a, rect=(-1, 1, -2, 0))
    assert rep.winding == 2 and rep.warnings == ()
    assert [e.multiplicity for e in rep.eigenvalues] == [2]
    assert rep.values()[0] == pytest.approx(-1j * math.log(2.0), abs=1e-7)


@pytest.mark.parametrize("mult", [(30, 31), (31, 30), (100, 101)])
def test_exact_keeps_the_roots_beside_a_zero_column(mult):
    # A = diag(2, 0): B has the roots of z^m1 = 2 on a circle of radius
    # about 1 and exact zeros.  Between them, where |z|^m2 is below the rank
    # tolerance, T is -A to within it and has a kernel: no root may be
    # joined to the zeros through there
    m1 = mult[0]
    a = GEndomorphism(rose(2), np.diag([2.0, 0.0]))
    rep = spectrum_exact_commensurable(a, list(mult), 1.0, (-math.pi / m1, 2 * math.pi - math.pi / m1))
    assert [e.multiplicity for e in rep.eigenvalues] == [1] * m1 and rep.warnings == ()
    want = 2 * math.pi * np.arange(m1) / m1 - 1j * math.log(2) / m1
    assert np.allclose(sorted(rep.values(), key=lambda v: v.real), want, atol=1e-9)


@pytest.mark.parametrize(
    "block, mult",
    [([[0.0]], (1, 30)), ([[0.0]], (2, 60)), ([[0.0]], (5, 200)), ([[1, -1], [1, -1]], (2, 30, 30))],
)
def test_exact_keeps_the_roots_of_a_short_edge_beside_a_singular_block(block, mult):
    # A = 1/2 (+) a singular block on the long edges: the roots of
    # z^m1 = 1/2 lie where |exp(i lambda l_e)| on those edges is below the
    # rank tolerance, so T has a kernel there, and the block gives B only
    # zero roots.  Linked to each other across z = 0, the roots centre
    # there but are no zero root.  Values only: the block's kernel adds to
    # the multiplicity
    m1 = mult[0]
    matrix = np.zeros((len(mult), len(mult)))
    matrix[0, 0], matrix[1:, 1:] = 0.5, block
    a = GEndomorphism(rose(len(mult)), matrix)
    rep = spectrum_exact_commensurable(a, list(mult), 1.0, (-math.pi / m1, 2 * math.pi - math.pi / m1))
    want = (2 * math.pi * np.arange(m1) + 1j * math.log(2)) / m1
    assert np.allclose(sorted(rep.values(), key=lambda v: v.real), want, atol=1e-9)


def test_exact_keeps_two_roots_inside_the_kernel_region_apart():
    # the roots 1/2 and 3/5 of B both lie where |z|^100 is below the rank
    # tolerance, where T has the kernel of the zero column: between them
    # the kernel is no larger than that, so they are not one group
    a = GEndomorphism(rose(3), np.diag([0.5, 0.6, 0.0]))
    rep = spectrum_exact_commensurable(a, [1, 1, 100], 1.0, (-0.5, 0.5))
    assert rep.values() == pytest.approx([1j * math.log(5 / 3), 1j * math.log(2)], abs=1e-9)
    assert rep.warnings == ()


def test_windows_past_the_precision_of_lambda_are_refused():
    # from |lambda| L eps >= 2 pi on, one float step of lambda turns
    # exp(i lambda L) a full turn
    g, a = scaled_identity_rose(1, 2.0)
    with pytest.raises(WindowTooLargeError, match="overflows"):
        spectrum_exact_commensurable(a, [1], 100.0, (1e300, 1e300))
    with pytest.raises(WindowTooLargeError, match="overflows"):
        spectrum_complex(a, rect=(1e17, 1e17 + 1, -1, 0))
    limit = 2 * math.pi / math.ulp(1.0)
    below = -limit * (1 - 1e-9)
    spectrum._check_width(Window.real(below, below), 1.0)
    with pytest.raises(WindowTooLargeError, match="overflows"):
        spectrum._check_width(Window.real(-limit, -limit), 1.0)


def forbid_expansion(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the polynomial was expanded")

    monkeypatch.setattr(charpoly, "char_poly", refuse)


def test_exact_solver_has_no_edge_cap(monkeypatch):
    forbid_expansion(monkeypatch)
    rng = np.random.default_rng(30)
    a = random_unitary_g_endomorphism(rose(30), rng)
    rep = spectrum_exact_commensurable(a, [1] * 30, 1.0, (0.5, 0.5 + 2 * math.pi))
    want = np.sort((np.angle(np.linalg.eigvals(a.matrix)) - 0.5) % (2 * math.pi) + 0.5)
    got = np.concatenate([[e.value] * e.multiplicity for e in rep.eigenvalues])
    assert got.size == 30
    assert np.allclose(got, want, atol=1e-9)
    assert rep.warnings == ()


def test_contour_solver_has_no_edge_cap(monkeypatch):
    forbid_expansion(monkeypatch)
    rng = np.random.default_rng(31)
    a = random_g_endomorphism(rose(30), rng)
    rep = spectrum_complex(a, rect=(0.0, 2.0, -2.0, 0.5))
    assert rep.winding > 0
    assert rep.winding == sum(e.multiplicity for e in rep.eigenvalues)
    assert rep.warnings == ()


# -- real-axis solver -----------------------------------------------------


def test_eigenphase_cycle_phases_closed_form():
    rng = np.random.default_rng(101)
    for n in (1, 2, 3, 5):
        g = directed_cycle(n)
        phases = rng.uniform(0, 2 * math.pi, size=n)
        a = shift_map(g, np.exp(1j * phases))
        total = float(sum(g.lengths()))
        rep = spectrum_numeric(a, window=(-6.0, 6.0))
        want = []
        k = math.floor((-6.0 * total - phases.sum()) / (2 * math.pi)) - 1
        while True:
            lam = (phases.sum() + 2 * math.pi * k) / total
            if lam > 6.0:
                break
            if lam >= -6.0:
                want.append(lam)
            k += 1
        assert len(rep.eigenvalues) == len(want)
        assert np.allclose(rep.values(), want, atol=1e-8)
        assert all(e.multiplicity == 1 for e in rep.eigenvalues)


def cycle_lattice(phases, total, lo, hi):
    """The lattice ``(arg c + 2 pi k) / L`` of a weighted cycle on [lo, hi)."""
    arg = math.remainder(sum(phases), 2 * math.pi)
    first, stop = (math.ceil((x * total - arg) / (2 * math.pi)) for x in (lo, hi))
    return [(arg + 2 * math.pi * k) / total for k in range(first, stop)]


@pytest.mark.parametrize(
    "lengths, window",
    [((1.0, math.sqrt(2), math.sqrt(3)), (-5.0, 12.0)), ((1.0, 1.0, 2.0), (-30.0, 40.0))],
)
def test_eigenphase_proposes_a_weighted_cycle_in_closed_form(monkeypatch, lengths, window):
    # one nonzero entry per row: det(I - S(x)) = 1 - c exp(-i x L), so the
    # candidates are its lattice, with no search; the phase sums are read
    # once, at the window ends, for the count.  The second window spans
    # eleven periods 2 pi / delta, one located and the rest translated
    points = []
    phase_sums = spectrum._phase_sums
    monkeypatch.setattr(
        spectrum, "_phase_sums", lambda m, l, xs: points.append(len(xs)) or phase_sums(m, l, xs)
    )
    monkeypatch.setattr(spectrum, "_locate", None)
    monkeypatch.setattr(spectrum, "_phase_newton", None)
    phases = (0.3, 1.1, -2.0)
    a = shift_map(directed_cycle(3, list(lengths)), np.exp(1j * np.array(phases)))
    rep = spectrum_numeric(a, window=window)
    want = cycle_lattice(phases, sum(lengths), *window)
    assert rep.values() == pytest.approx(want, abs=1e-12)
    assert [e.multiplicity for e in rep.eigenvalues] == [1] * len(want)
    assert rep.winding == len(want) and rep.warnings == () and points == [2]


def test_eigenphase_treats_a_nearly_unitary_cycle_as_before():
    # |c| = 1 - 5e-9: the zeros of 1 - c exp(-i x L) lie 5e-9 / L off the
    # real axis.  Each lattice point passes the rank test, and its residual
    # 9.6e-10 drops it at the default tolerance and lists it at 1e-8
    phases = (0.3, 1.1, -2.0)
    weights = (1 - 5e-9) ** (1 / 3) * np.exp(1j * np.array(phases))
    total = 1 + math.sqrt(2) + math.sqrt(3)
    a = shift_map(directed_cycle(3, [1.0, math.sqrt(2), math.sqrt(3)]), weights)
    want = cycle_lattice(phases, total, -5.0, 12.0)
    rep = spectrum_numeric(a, window=(-5.0, 12.0))
    assert rep.eigenvalues == () and rep.winding == len(want) == 12
    assert all("dropped: residual 9.6" in w for w in rep.warnings[:-1])
    assert rep.warnings[-1] == "winding number 12 and reported multiplicity sum 0 disagree"
    rep = spectrum_numeric(a, window=(-5.0, 12.0), residual_tol=1e-8)
    assert rep.values() == pytest.approx(want, abs=1e-9)
    assert [e.multiplicity for e in rep.eigenvalues] == [1] * 12 and rep.warnings == ()


def test_eigenphase_agrees_with_exact_on_random_unitary_maps():
    rng = np.random.default_rng(103)
    for _ in range(15):
        g = random_eulerian_graph(rng, max_edges=5)
        a = random_unitary_g_endomorphism(g, rng)
        scan = spectrum_numeric(a, window=(-4.0, 4.0))
        exact = spectrum_exact_commensurable(a, [1] * g.n_edges, 1.0, (-4.0, 4.0))
        assert len(scan.eigenvalues) == len(exact.eigenvalues)
        for s, e in zip(scan.eigenvalues, exact.eigenvalues):
            assert s.value == pytest.approx(e.value, abs=1e-8)
            assert s.multiplicity == e.multiplicity


def test_eigenphase_degenerate_eigenvalues():
    # Two identical loops: every eigenvalue doubles.
    g, a = scaled_identity_rose(2, 1.0)
    rep = spectrum_numeric(a, window=(-0.5, 7.0))
    assert np.allclose(rep.values(), [0.0, 2 * math.pi], atol=1e-9)
    assert [e.multiplicity for e in rep.eigenvalues] == [2, 2]


def test_eigenphase_high_multiplicity_lattice():
    for n in (3, 5, 8):
        g, a = scaled_identity_rose(n, 1.0)
        rep = spectrum_numeric(a, window=(-0.5, 7.0))
        assert [e.multiplicity for e in rep.eigenvalues] == [n, n]
        assert np.allclose(rep.values(), [0.0, 2 * math.pi], atol=1e-9)


def test_eigenphase_eigenfunctions_solve_the_edge_equation():
    rng = np.random.default_rng(107)
    g = random_eulerian_graph(rng, max_edges=4)
    a = random_unitary_g_endomorphism(g, rng)
    lengths = np.array(g.lengths())
    # every root of det(zI - A) spawns a real lattice of spacing 2 pi, so a
    # window wider than that always holds an eigenvalue
    rep = spectrum_numeric(a, window=(-4.5, 4.5))
    assert rep.eigenvalues, "expected at least one eigenvalue in the window"
    for entry in rep.eigenvalues:
        assert len(entry.eigenfunctions) == entry.multiplicity
        for f in entry.eigenfunctions:
            ends = f.amplitudes * np.exp(-1j * f.eigenvalue * lengths)
            defect = np.diag(np.exp(1j * f.eigenvalue * lengths)) @ ends - a.matrix @ ends
            assert np.linalg.norm(defect) < 1e-8 * np.linalg.norm(f.amplitudes)


def twin_loops():
    """Loops of lengths 1 and 1.0005 under the identity: the eigenvalues
    2 pi k and 2 pi k / 1.0005 pair up within 0.02 of each other."""
    g = graph_from_edges([("a", "u", "u", 1.0), ("b", "u", "u", 1.0005)])
    want = sorted(2 * math.pi * k / l for k in (1, 2, 3) for l in (1.0, 1.0005))
    return GEndomorphism(g, np.eye(2)), want


def test_eigenphase_keeps_both_eigenvalues_of_a_close_pair():
    a, want = twin_loops()
    rep = spectrum_numeric(a, window=(0.5, 20.0))
    assert rep.values() == pytest.approx(want, abs=1e-9)
    assert [e.multiplicity for e in rep.eigenvalues] == [1] * 6
    assert rep.warnings == () and rep.winding == 6


# -- eigenphase locator ---------------------------------------------------


def test_eigenphase_twin_loops():
    a, want = twin_loops()
    rep = spectrum_numeric(a, window=(0.5, 20.0))
    assert rep.solver == "eigenphase" and rep.winding == 6 and rep.warnings == ()
    assert rep.values() == pytest.approx(want, abs=1e-9)


def test_eigenphase_rose_identity_multiplicities():
    g, a = scaled_identity_rose(6, 1.0)
    rep = spectrum_numeric(a, window=(-0.5, 13.0))
    assert rep.values() == pytest.approx([0.0, 2 * math.pi, 4 * math.pi], abs=1e-9)
    assert [e.multiplicity for e in rep.eigenvalues] == [6, 6, 6]
    assert rep.winding == 18 and rep.warnings == ()


@pytest.mark.parametrize(
    "window, want",
    [
        ((-0.3, 5.5), [(0.0, 2), (math.pi, 1), (1.5 * math.pi, 1)]),
        ((1000.0, 1006.0), [(1002.168056495144, 1), (1003.738852821939, 1), (320 * math.pi, 2)]),
    ],
)
def test_eigenphase_certifies_a_multiple_eigenvalue_inside_one_block(window, want):
    # The unitary DFT map couples all four loops, and S(lambda) has the
    # eigenvalue 1 twice at every multiple of 2 pi.  Far out, the cell that
    # holds the double eigenvalue is too wide for the rank test of its
    # middle, and the candidate is only certified after a polish.
    g = rose(4)
    rep = spectrum_numeric(GEndomorphism(g, np.fft.fft(np.eye(4)) / 2), np.ones(4), window)
    assert [e.value for e in rep.eigenvalues] == pytest.approx([v for v, _ in want], abs=1e-9)
    assert [e.multiplicity for e in rep.eigenvalues] == [m for _, m in want]
    assert rep.winding == 4 and rep.warnings == ()


def test_eigenphase_refusals():
    g, a = scaled_identity_rose(1, 2.0)
    with pytest.raises(DiracGraphError, match="unitary"):
        spectrum_numeric(a, window=(-1.0, 1.0))
    g, a = scaled_identity_rose(1, 1.0)
    with pytest.raises(ValueError):
        spectrum_numeric(a, window=Window.rect(-1, 1, 0.5, 1.0))
    # a loop of length 0 has every lambda as an eigenvalue, or none
    with pytest.raises(ValueError, match="positive"):
        spectrum_numeric(GEndomorphism(rose(2), np.eye(2)), [0.0, 1.0], window=(0.0, 7.0))
    # lambda L overflows: S(lambda) has no value there
    with pytest.raises(WindowTooLargeError, match="overflows"):
        spectrum_numeric(a, [100.0], window=(-1e308, -1e308))
    # incommensurable lengths: about 1.15e5 eigenvalues to locate, past 1e5
    g = graph_from_edges([("a", "u", "u", 1.0), ("b", "u", "u", math.sqrt(2))])
    start = time.perf_counter()
    with pytest.raises(WindowTooLargeError, match="smaller pieces"):
        spectrum_numeric(GEndomorphism(g, np.eye(2)), window=(0.0, 3e5))
    assert time.perf_counter() - start < 1.0
    # commensurable lengths: one period of 2 pi is located, but its
    # translates would list about 6.4e5 eigenvalues, past 5e5
    start = time.perf_counter()
    with pytest.raises(WindowTooLargeError, match="smaller pieces"):
        spectrum_numeric(a, window=(-2e6, 2e6))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("lo", [9e5, -9.5e5])
def test_eigenphase_translates_a_period_to_far_windows(lo):
    # exp(i lambda) = exp(0.3 i): 637 eigenvalues 0.3 + 2 pi k in a window of
    # about 637 periods near |lambda| = 1e6, where one float step is 1.2e-10;
    # each translate of the period next to the origin is rounded once
    g = rose(1)
    rep = spectrum_numeric(GEndomorphism(g, np.array([[np.exp(0.3j)]])), window=(lo, lo + 4000))
    ks = range(math.ceil((lo - 0.3) / (2 * math.pi)), math.floor((lo + 4000 - 0.3) / (2 * math.pi)) + 1)
    assert rep.values() == pytest.approx([0.3 + 2 * math.pi * k for k in ks], abs=1e-9)
    assert rep.warnings == () and rep.winding == len(ks) == 637


@pytest.mark.parametrize("lo", [300.0, -1000.0])
def test_eigenphase_translates_no_period_of_near_commensurable_lengths(lo):
    # detect_commensurable matches 1 + 5e-10 to 1 within 1e-9, but the pairs
    # 2 pi k and 2 pi k / (1 + 5e-10) are 3.1e-9 |k| apart, at least 1.5e-7
    # in these windows of 111 periods: the second loop's eigenvalue 0
    # translated by k periods would land on the first loop's 2 pi k
    g = graph_from_edges([("a", "u", "u", 1.0), ("b", "u", "u", 1 + 5e-10)])
    rep = spectrum_numeric(GEndomorphism(g, np.eye(2)), window=(lo, lo + 700))
    ks = range(math.ceil(lo / (2 * math.pi)), math.floor((lo + 700) / (2 * math.pi)) + 1)
    want = sorted(2 * math.pi * k / l for k in ks for l in (1.0, 1 + 5e-10))
    assert rep.values() == pytest.approx(want, rel=1e-12)
    assert [e.multiplicity for e in rep.eigenvalues] == [1] * len(want) == [1] * 224
    assert rep.warnings == () and rep.winding == 224


def test_eigenphase_count_reads_the_window_ends():
    # eigenvalues 0 and 2 pi sit on the window ends and are counted and listed
    g = rose(1)
    rep = spectrum_numeric(GEndomorphism(g, np.eye(1)), window=(0.0, 2 * math.pi))
    assert rep.values() == pytest.approx([0.0, 2 * math.pi], abs=1e-12)
    assert rep.winding == 2 and rep.warnings == ()


def test_eigenphase_merges_close_eigenvalues_of_different_blocks():
    # the pairs 2 pi k and 2 pi k / (1 + 5e-10) lie 3.1e-9 k apart, within
    # DEDUPE_RADIUS for k <= 31: each loop certifies its own eigenvalue, and
    # the merge adds the two multiplicities instead of dropping one
    g = graph_from_edges([("a", "u", "u", 1.0), ("b", "u", "u", 1 + 5e-10)])
    rep = spectrum_numeric(GEndomorphism(g, np.eye(2)), window=(0.0, 700.0))
    assert [e.multiplicity for e in rep.eigenvalues] == [2] * 32 + [1] * 160
    assert sum(e.multiplicity for e in rep.eigenvalues) == rep.winding == 224
    assert rep.warnings == ()


def test_eigenphase_certifies_a_nearly_triangular_map_as_one_block():
    # A is unitary to 1e-9 and block triangular: its support splits the
    # loops, but the entry 1e-9 couples them, so the locator splits by the
    # symmetrized support and certifies both loops on one T(lambda)
    g = graph_from_edges([("a", "u", "u", 1.0), ("b", "u", "u", math.sqrt(2))])
    a = GEndomorphism(g, np.array([[1.0, 1e-9], [0.0, 1.0]]))
    rep = spectrum_numeric(a, window=(0.5, 20.0))
    assert rep.winding == 7 and rep.warnings == ()
    b = graph_of(a)
    worst = max(eigenfunction_residual(b, f) for e in rep.eigenvalues for f in e.eigenfunctions)
    assert worst < 1e-12


def test_eigenphase_keeps_far_eigenvalues_within_the_rounding_of_lambda():
    # near 9e5 one float step of lambda moves exp(i lambda l_e) by about
    # the residual tolerance; the residual test allows for that rounding
    rng = np.random.default_rng(1)
    g = graph_from_edges([("a", "u", "u", 1.0), ("b", "u", "u", math.sqrt(2))])
    a = GEndomorphism(g, random_unitary_g_endomorphism(rose(2), rng).matrix)
    rep = spectrum_numeric(a, window=(9e5, 9e5 + 200))
    assert sum(e.multiplicity for e in rep.eigenvalues) == rep.winding == 77
    assert rep.warnings == ()


# -- contour solver -------------------------------------------------------


def test_contour_rose_adjacency_rect():
    g = rose(2)
    a = GEndomorphism(g, np.ones((2, 2)))
    rep = spectrum_complex(a, rect=(-1.0, 7.0, -2.0, 0.5))
    want = [-1j * math.log(2.0), 2 * math.pi - 1j * math.log(2.0)]
    assert rep.winding == 2
    assert len(rep.eigenvalues) == 2
    assert np.allclose(rep.values(), want, atol=1e-9)
    assert all(e.residual < 1e-9 for e in rep.eigenvalues)


def test_contour_multiple_zeros():
    for n in (2, 3):
        g, a = scaled_identity_rose(n, 2.0)
        rep = spectrum_complex(a, rect=(-1.0, 1.0, -1.5, 0.5))
        assert rep.winding == n
        assert len(rep.eigenvalues) == 1
        entry = rep.eigenvalues[0]
        assert entry.multiplicity == n
        assert entry.value == pytest.approx(-1j * math.log(2.0), abs=1e-8)


def test_contour_zero_on_boundary_perturbs():
    g, a = scaled_identity_rose(1, 1.0)
    rep = spectrum_complex(a, rect=(0.0, 2 * math.pi, -1.0, 1.0))
    assert any("perturbed" in w for w in rep.warnings)
    assert rep.winding == 2
    assert np.allclose(rep.values(), [0.0, 2 * math.pi], atol=1e-7)


def test_contour_agrees_with_exact_on_random_maps():
    rng = np.random.default_rng(109)
    checked = 0
    for _ in range(10):
        g = random_eulerian_graph(rng, max_edges=4)
        a = random_g_endomorphism(g, rng)
        rect = Window.rect(-3.3, 3.3, -1.6, 1.6)
        exact = spectrum_exact_commensurable(a, [1] * g.n_edges, 1.0, rect)
        contour = spectrum_complex(a, rect=rect)
        assert len(contour.eigenvalues) == len(exact.eigenvalues)
        for c, e in zip(contour.eigenvalues, exact.eigenvalues):
            assert c.value == pytest.approx(e.value, abs=1e-8)
            assert c.multiplicity == e.multiplicity
        checked += len(exact.eigenvalues)
    assert checked > 10


def test_contour_winding_matches_multiplicity_sum():
    rng = np.random.default_rng(113)
    g = random_eulerian_graph(rng, max_edges=4)
    a = random_g_endomorphism(g, rng)
    rep = spectrum_complex(a, rect=(-2.1, 2.1, -1.3, 1.3))
    assert rep.winding == sum(e.multiplicity for e in rep.eigenvalues)
    assert not any("disagree" in w for w in rep.warnings)


@pytest.mark.parametrize("n", [2, 3])
def test_contour_defective_zero_is_reported_once(n):
    # 2 J_n (a Jordan block): an n-fold zero of the secular function at
    # -i ln 2 with a one-dimensional kernel
    a = GEndomorphism(rose(n), 2 * (np.eye(n) + np.eye(n, k=1)))
    rep = spectrum_complex(a, rect=(-1.0, 1.0, -1.5, 0.5))
    assert rep.winding == n
    assert len(rep.eigenvalues) == 1
    assert rep.eigenvalues[0].multiplicity == 1
    assert rep.eigenvalues[0].value == pytest.approx(-1j * math.log(2.0), abs=1e-8)
    assert any("disagree" in w for w in rep.warnings)


@pytest.mark.parametrize(
    "rect, want",
    [((-1.0, 7.0, 0.0, 1.0), [0.0, 2 * math.pi]), ((0.0, 1.0, 0.0, 1.0), [0.0])],
)
def test_contour_zero_on_a_side_or_corner_perturbs(rect, want):
    g, a = scaled_identity_rose(1, 1.0)
    rep = spectrum_complex(a, rect=rect)
    assert any("perturbed" in w for w in rep.warnings)
    assert rep.winding == len(want)
    assert np.allclose(rep.values(), want, atol=1e-9)


def test_contour_agrees_with_exact_on_gaussian_roses():
    # unit lengths make the secular function 2 pi periodic, so rectangles
    # wider than 2 pi hold zeros sharing one kernel
    rng = np.random.default_rng(2012)
    rects = [(-3.0, 3.0, -0.9, 0.6), (-4.2, 4.2, -0.7, 0.5), (-0.5, 13.0, -0.6, 0.5)]
    checked = 0
    for k in range(6):
        n = 8 + k % 3
        m = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2 * n)
        a = GEndomorphism(rose(n), m)
        rect = Window.rect(*rects[k % 3])
        exact = spectrum_exact_commensurable(a, [1] * n, 1.0, rect)
        contour = spectrum_complex(a, rect=rect)
        assert contour.winding == sum(e.multiplicity for e in exact.eigenvalues)
        assert len(contour.eigenvalues) == len(exact.eigenvalues)
        for c, e in zip(contour.eigenvalues, exact.eigenvalues):
            assert c.value == pytest.approx(e.value, abs=1e-8)
            assert c.multiplicity == e.multiplicity
        assert contour.warnings == ()
        checked += len(exact.eigenvalues)
    assert checked > 40


def test_contour_many_zeros_sharing_one_kernel():
    # every zero -i ln 2 + 2 pi k of the double loop has the kernel (1, 1)
    a = GEndomorphism(rose(2), np.ones((2, 2)))
    rep = spectrum_complex(a, rect=(-1.0, 60.0, -2.0, 0.5))
    want = [2 * math.pi * k - 1j * math.log(2.0) for k in range(10)]
    assert rep.winding == 10
    assert np.allclose(rep.values(), want, atol=1e-9)
    assert rep.warnings == ()


def test_contour_requires_finite_rectangle():
    g, a = scaled_identity_rose(1, 1.0)
    with pytest.raises(ValueError):
        spectrum_complex(a, rect=None)
    with pytest.raises(ValueError):
        spectrum_complex(a, rect=Window.real(-1.0, 1.0))


def test_contour_rejects_infinite_and_nan_bounds():
    g, a = scaled_identity_rose(1, 1.0)
    for rect in [(-1.0, math.inf, -1.0, 1.0), (-math.inf, 1.0, -1.0, 1.0)]:
        with pytest.raises(ValueError):
            spectrum_complex(a, rect=rect)
    with pytest.raises(ValueError):
        Window.rect(math.nan, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        Window.real(0.0, math.nan)


def test_contour_empty_rectangle():
    g, a = scaled_identity_rose(1, 1.0)
    rep = spectrum_complex(a, rect=(2.0, 3.0, 0.5, 1.5))
    assert rep.winding == 0
    assert rep.eigenvalues == ()


def test_report_values_sorted():
    g, a = scaled_identity_rose(1, 1.0)
    rep = spectrum_numeric(a, window=(-13.0, 13.0))
    vals = rep.values()
    assert vals == sorted(vals, key=lambda z: (z.real, z.imag))


# -- boundary subspaces beyond edge maps ----------------------------------


def test_general_eigencondition_matches_multiplicity():
    rng = np.random.default_rng(127)
    for _ in range(10):
        g = random_eulerian_graph(rng, max_edges=4)
        a = random_unitary_g_endomorphism(g, rng)
        b = graph_of(a)
        lengths = np.array(g.lengths())
        rep = spectrum_numeric(a, window=(-3.0, 3.0))
        for entry in rep.eigenvalues:
            assert (
                general_eigencondition(b, lengths, entry.value)
                == entry.multiplicity
            )
        lam = float(rng.uniform(-3, 3))
        assert general_eigencondition(b, lengths, lam) == multiplicity(
            a, lengths, lam
        )[0]


def test_eigenfunction_residual_small_for_true_eigenfunctions():
    rng = np.random.default_rng(131)
    g = random_eulerian_graph(rng, max_edges=5)
    a = random_unitary_g_endomorphism(g, rng)
    b = graph_of(a)
    rep = spectrum_numeric(a, window=(-3.0, 3.0))
    assert rep.eigenvalues
    for entry in rep.eigenvalues:
        for f in entry.eigenfunctions:
            assert eigenfunction_residual(b, f) < 1e-8


def test_eigenfunction_residual_detects_wrong_subspace():
    g = rose(1)
    a = GEndomorphism(g, np.eye(1))
    rep = spectrum_numeric(a, window=(-0.5, 0.5))
    f = rep.eigenvalues[0].eigenfunctions[0]
    other = graph_of(GEndomorphism(g, -np.eye(1)))
    assert eigenfunction_residual(other, f) > 0.5


def test_eigenfunction_residual_rejects_zero_amplitudes():
    from diracgraph import Eigenfunction

    g = rose(1)
    b = graph_of(GEndomorphism(g, np.eye(1)))
    with pytest.raises(ValueError):
        eigenfunction_residual(b, Eigenfunction(0.0, np.zeros(1, dtype=complex)))
