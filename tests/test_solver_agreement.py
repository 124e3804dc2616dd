"""Differential tests: the spectrum solvers agree where two apply, and the
spectra keep the invariants the theory guarantees.

Graphs are random Eulerian graphs of up to 7 edges with integer length
multipliers 1-3, so the exact solver applies to every map, or with random
lengths for the eigenphase locator against a count-bisection oracle and the
contour solver; the locator also meets the oracle on shuffled direct sums of
unitary blocks.  Hypothesis draws the seeds (derandomized, so every run
checks the same cases).  The invariants are block splitting (the spectrum
of a reducible map is the union of its block spectra), edge relabeling,
length scaling, edge subdivision and vertex reduction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracgraph import (
    EigenvalueEntry,
    GEndomorphism,
    SpectrumReport,
    Window,
    graph_from_edges,
    reduce_vertex,
    rose,
    split_reducible,
    spectrum_complex,
    spectrum_exact_commensurable,
    spectrum_numeric,
    subdivide_edge,
)
from diracgraph import build_adjacency, spectrum
from diracgraph.charpoly import char_poly, specialize_univariate
from diracgraph.spectrum import DEDUPE_RADIUS
from diracgraph.randgen import (
    random_eulerian_graph,
    random_g_endomorphism,
    random_g_permutation,
    random_graph,
    random_unitary_g_endomorphism,
)
from oracles import distinct_roots, real_eigenvalues_by_bisection, weighted_cycle_lattice

CASES = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def commensurable_map(seed, random_map):
    rng = np.random.default_rng(seed)
    g = random_eulerian_graph(rng, max_edges=7)
    mult = [int(m) for m in rng.integers(1, 4, size=g.n_edges)]
    delta = float(rng.uniform(0.5, 1.5))
    return rng, random_map(g, rng), mult, delta


def assert_same_entries(got, want):
    """Same eigenvalues to 1e-8 and the same multiplicities, matched by value."""
    assert len(got.eigenvalues) == len(want.eigenvalues)
    for e in want.eigenvalues:
        match = min(got.eigenvalues, key=lambda f: abs(f.value - e.value))
        assert abs(match.value - e.value) <= 1e-8
        assert match.multiplicity == e.multiplicity


@CASES
@given(st.integers(0, 2**32 - 1))
def test_exact_and_contour_agree_on_gaussian_maps(seed):
    rng, a, mult, delta = commensurable_map(seed, random_g_endomorphism)
    re0, im0 = rng.uniform(-5.0, 5.0), -rng.uniform(0.2, 1.5)
    rect = (re0, re0 + rng.uniform(0.5, 4.0), im0, rng.uniform(0.2, 1.0))
    exact = spectrum_exact_commensurable(a, mult, delta, Window.rect(*rect))
    contour = spectrum_complex(a, np.multiply(mult, delta), rect)
    assert_same_entries(contour, exact)
    assert contour.winding == sum(e.multiplicity for e in contour.eigenvalues)


def check_exact_and_eigenphase(seed):
    rng, a, mult, delta = commensurable_map(seed, random_unitary_g_endomorphism)
    lo = rng.uniform(-5.0, 5.0)
    window = (lo, lo + rng.uniform(0.5, 3.0))
    exact = spectrum_exact_commensurable(a, mult, delta, window)
    located = spectrum_numeric(a, np.multiply(mult, delta), window)
    assert_same_entries(located, exact)


@CASES
@given(st.integers(0, 2**32 - 1))
def test_exact_and_eigenphase_agree_on_short_windows(seed):
    check_exact_and_eigenphase(seed)


def test_exact_and_eigenphase_agree_on_a_close_pair():
    # eigenvalues -0.302661 and -0.295918, 0.0067 apart
    check_exact_and_eigenphase(114108)


@CASES
@given(st.integers(0, 2**32 - 1))
def test_exact_and_eigenphase_agree_on_unitary_maps(seed):
    rng, a, mult, delta = commensurable_map(seed, random_unitary_g_endomorphism)
    lo = rng.uniform(-10.0, 10.0)
    window = (lo, lo + rng.uniform(0.5, 8.0))
    exact = spectrum_exact_commensurable(a, mult, delta, window)
    located = spectrum_numeric(a, np.multiply(mult, delta), window)
    assert_same_entries(located, exact)
    assert located.winding == sum(e.multiplicity for e in located.eigenvalues)
    # 2-40 periods of 2 pi / delta: one is located, the rest translated
    lo = rng.uniform(-10.0, 10.0)
    window = (lo, lo + rng.uniform(2.0, 40.0) * 2 * np.pi / delta)
    exact = spectrum_exact_commensurable(a, mult, delta, window)
    located = spectrum_numeric(a, np.multiply(mult, delta), window)
    assert_same_entries(located, exact)
    assert located.winding == sum(e.multiplicity for e in located.eigenvalues)


def weighted_permutation(seed, unit_lengths):
    """A vertex-compatible edge permutation on a random Eulerian graph, each
    entry times a random unit phase: every trail is a weighted cycle."""
    rng = np.random.default_rng(seed)
    g = random_eulerian_graph(rng, max_edges=7, unit_lengths=unit_lengths)
    phases = np.exp(2j * np.pi * rng.uniform(size=g.n_edges))
    return rng, GEndomorphism(g, random_g_permutation(g, rng).to_endomorphism().matrix * phases)


@CASES
@given(st.integers(0, 2**32 - 1))
def test_eigenphase_and_exact_agree_on_weighted_permutations(seed):
    # the locator proposes each cycle's lattice in closed form, the exact
    # route takes the roots of the subdivided map; a short window, and one
    # of 2-40 periods where one period is located and translated
    rng, a = weighted_permutation(seed, unit_lengths=True)
    mult = [int(m) for m in rng.integers(1, 4, size=a.n_edges)]
    delta, lo = float(rng.uniform(0.5, 1.5)), rng.uniform(-10.0, 10.0)
    for width in (rng.uniform(0.5, 8.0), rng.uniform(2.0, 40.0) * 2 * np.pi / delta):
        exact = spectrum_exact_commensurable(a, mult, delta, (lo, lo + width))
        located = spectrum_numeric(a, np.multiply(mult, delta), (lo, lo + width))
        assert_same_entries(located, exact)
        assert located.winding == sum(e.multiplicity for e in located.eigenvalues)
        assert located.warnings == ()


@CASES
@given(st.integers(0, 2**32 - 1))
def test_eigenphase_lists_the_lattices_of_weighted_cycles(seed):
    rng, a = weighted_permutation(seed, unit_lengths=False)
    lo = rng.uniform(-10.0, 10.0)
    hi = lo + rng.uniform(0.5, 8.0)
    located = spectrum_numeric(a, window=(lo, hi))
    want = weighted_cycle_lattice(a.matrix, a.graph.lengths(), lo - DEDUPE_RADIUS, hi + DEDUPE_RADIUS)
    assert [e.multiplicity for e in located.eigenvalues] == [c for _, c in want]
    assert np.allclose(located.values(), [x for x, _ in want], rtol=0, atol=1e-9)
    assert located.winding == sum(c for _, c in want) and located.warnings == ()


def singular_integer_maps(seed, top):
    """Integer maps with multipliers 1 to ``top``: the 0/1 adjacency of an
    Eulerian graph, and an all-ones map, a nilpotent shift and a diagonal
    map with entries 0-2 on roses."""
    rng = np.random.default_rng(seed)
    n, k = (int(x) for x in rng.integers(1, 7, size=2))
    maps = [
        build_adjacency(random_eulerian_graph(rng, max_edges=7)),
        GEndomorphism(rose(n), np.ones((n, n))),
        GEndomorphism(rose(k), np.eye(k, k=1)),
        GEndomorphism(rose(k), np.diag(rng.integers(0, 3, size=k)).astype(float)),
    ]
    return [(a, [int(m) for m in rng.integers(1, top + 1, size=a.graph.n_edges)]) for a in maps]


def family_members(roots, lo, hi):
    """Members ``arg z + 2 pi k - i log|z|`` with real part in ``[lo, hi]``."""
    out = []
    for z in roots:
        base = complex(np.angle(z), -np.log(np.abs(z)))
        first = np.ceil((lo - base.real) / (2 * np.pi))
        last = np.floor((hi - base.real) / (2 * np.pi))
        out += [base + 2 * np.pi * k for k in np.arange(first, last + 1)]
    return np.array(out, dtype=complex)


@pytest.mark.parametrize("top", [4, 40])
@CASES
@given(st.integers(0, 2**32 - 1))
def test_exact_lists_the_families_of_the_nonzero_roots(top, seed):
    # the polynomial of an integer map has exact integer coefficients, so
    # its zero roots are its trailing zero coefficients; the scattered zero
    # roots of B give no eigenvalue.  Values only: a defective root's
    # multiplicity is geometric.  Long edges make T nearly -A far from the
    # zero roots, where every root of B near the unit circle must stay apart.
    tol = 1e-5
    for a, mult in singular_integer_maps(seed, top):
        coeffs = specialize_univariate(char_poly(a), mult)[::-1]
        assert np.array_equal(coeffs, np.round(coeffs.real))
        roots = distinct_roots(np.trim_zeros(coeffs.real, "b"))
        got = np.array(spectrum_exact_commensurable(a, mult, 1.0, (-10.0, 10.0)).values())
        for value in got:
            assert np.min(np.abs(family_members(roots, -10.0 - tol, 10.0 + tol) - value)) <= tol
        for value in family_members(roots, -10.0 + tol, 10.0 - tol):
            assert got.size and np.min(np.abs(got - value)) <= tol


def incommensurable_map(seed):
    rng = np.random.default_rng(seed)
    g = random_eulerian_graph(rng, max_edges=7, unit_lengths=False)
    a = random_unitary_g_endomorphism(g, rng)
    lo = rng.uniform(-10.0, 10.0)
    return rng, a, (lo, lo + rng.uniform(0.5, 8.0))


@CASES
@given(st.integers(0, 2**32 - 1))
def test_eigenphase_agrees_with_bisection_and_contour_on_incommensurable_maps(seed):
    # the locator against bisection on plain eigvals of S(x), and against
    # Beyn's contour integral on a thin rectangle around the window
    _, a, (lo, hi) = incommensurable_map(seed)
    located = spectrum_numeric(a, window=(lo, hi))
    cells = real_eigenvalues_by_bisection(
        a, a.graph.lengths(), lo - DEDUPE_RADIUS, hi + DEDUPE_RADIUS
    )
    assert [e.multiplicity for e in located.eigenvalues] == [c for _, c in cells]
    assert np.allclose(located.values(), [x for x, _ in cells], rtol=0, atol=1e-9)
    assert located.winding == sum(c for _, c in cells)
    assert_same_entries(spectrum_complex(a, rect=(lo, hi, -0.5, 0.5)), located)


@CASES
@given(st.integers(0, 2**32 - 1), st.floats(0.2, 5.0))
def test_scaling_the_lengths_scales_the_spectrum(seed, c):
    # lengths c l turn T(lambda) into T(c lambda): eigenvalues lambda / c
    _, a, (lo, hi) = incommensurable_map(seed)
    base = spectrum_numeric(a, window=(lo, hi))
    scaled = spectrum_numeric(a, np.multiply(c, a.graph.lengths()), (lo / c, hi / c))
    assert [e.multiplicity for e in scaled.eigenvalues] == [
        e.multiplicity for e in base.eigenvalues
    ]
    assert np.allclose(np.multiply(c, scaled.values()), base.values(), rtol=0, atol=1e-8)


@CASES
@given(st.integers(0, 2**32 - 1))
def test_subdividing_an_edge_keeps_the_spectrum(seed):
    # the two halves of edge i pass values on with transfer 1: the value
    # leaving the second half is the one leaving the old edge
    rng, a, window = incommensurable_map(seed)
    g = a.graph
    i = int(rng.integers(g.n_edges))
    sub, _ = subdivide_edge(g, g.edges[i].id, float(rng.uniform(0.2, 0.8)))
    rows = [k + (k > i) for k in range(g.n_edges)]
    cols = [k + (k >= i) for k in range(g.n_edges)]
    m = np.zeros((g.n_edges + 1, g.n_edges + 1), dtype=complex)
    m[np.ix_(rows, cols)] = a.matrix
    m[i + 1, i] = 1.0
    got = spectrum_numeric(GEndomorphism(sub, m), window=window)
    assert_same_entries(got, spectrum_numeric(a, window=window))


@CASES
@given(st.integers(0, 2**32 - 1))
def test_reducing_a_vertex_keeps_the_spectrum(seed):
    # the new vertex's 1x1 block carries a unit phase, which reduce_vertex
    # folds into the merged edge's row: the map stays unitary
    rng, a, window = incommensurable_map(seed)
    g = a.graph
    i = int(rng.integers(g.n_edges))
    sub, mid = subdivide_edge(g, g.edges[i].id, float(rng.uniform(0.2, 0.8)))
    rows = [k + (k > i) for k in range(g.n_edges)]
    cols = [k + (k >= i) for k in range(g.n_edges)]
    m = np.zeros((g.n_edges + 1, g.n_edges + 1), dtype=complex)
    m[np.ix_(rows, cols)] = a.matrix
    m[i + 1, i] = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    subdivided = GEndomorphism(sub, m)
    _, reduced = reduce_vertex(subdivided, mid)
    got = spectrum_numeric(reduced, window=window)
    assert_same_entries(got, spectrum_numeric(subdivided, window=window))


def block_diagonal_map(seed):
    """A unitary map on a rose that is a shuffled direct sum of Haar blocks:
    two to four random ones, then a copy of the first with equal lengths
    (its eigenvalues come back double) and a twin with lengths times 1.0005
    (its eigenvalues come back 0.05% off theirs)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for k in rng.integers(1, 5, size=rng.integers(2, 5)):
        u = random_unitary_g_endomorphism(rose(int(k)), rng).matrix
        blocks.append((u, rng.uniform(0.3, 2.0, size=k)))
    blocks += [blocks[0], (blocks[0][0], blocks[0][1] * 1.0005)]
    n = sum(l.size for _, l in blocks)
    m, lengths, at = np.zeros((n, n), dtype=complex), np.empty(n), 0
    for u, l in blocks:
        m[at : at + l.size, at : at + l.size], lengths[at : at + l.size] = u, l
        at += l.size
    perm = rng.permutation(n)
    g = graph_from_edges([(f"e{k}", "v", "v", float(lengths[i])) for k, i in enumerate(perm)])
    lo = rng.uniform(0.5, 10.0)
    return GEndomorphism(g, m[np.ix_(perm, perm)]), (lo, lo + rng.uniform(0.5, 4.0))


@CASES
@given(st.integers(0, 2**32 - 1))
def test_eigenphase_agrees_with_bisection_on_block_diagonal_maps(seed):
    # the locator locates and certifies block by block; the oracle bisects
    # the whole map's eigenphase count
    a, (lo, hi) = block_diagonal_map(seed)
    located = spectrum_numeric(a, window=(lo, hi))
    cells = real_eigenvalues_by_bisection(
        a, a.graph.lengths(), lo - DEDUPE_RADIUS, hi + DEDUPE_RADIUS
    )
    assert [e.multiplicity for e in located.eigenvalues] == [c for _, c in cells]
    assert np.allclose(located.values(), [x for x, _ in cells], rtol=0, atol=1e-9)
    assert located.winding == sum(e.multiplicity for e in located.eigenvalues)
    assert located.warnings == ()


def test_eigenphase_certifies_a_repeated_block_without_polishing(monkeypatch):
    # each copy of the repeated block certifies its eigenvalues as simple on
    # its own, and the cross-block merge makes them double: no Newton polish,
    # and each double entry joins one eigenfunction from each copy
    polished = []
    polish = spectrum._polish
    monkeypatch.setattr(spectrum, "_polish", lambda *args: polished.append(args) or polish(*args))
    doubles = 0
    for seed in range(40):
        a, (lo, hi) = block_diagonal_map(seed)
        located = spectrum_numeric(a, window=(lo, hi))
        cells = real_eigenvalues_by_bisection(
            a, a.graph.lengths(), lo - DEDUPE_RADIUS, hi + DEDUPE_RADIUS
        )
        assert [e.multiplicity for e in located.eigenvalues] == [c for _, c in cells]
        assert located.warnings == ()
        for e in located.eigenvalues:
            supports = [np.abs(f.amplitudes) > 0 for f in e.eigenfunctions]
            assert not np.any(np.sum(supports, axis=0) > 1)
        doubles += sum(e.multiplicity == 2 for e in located.eigenvalues)
    assert polished == [] and doubles == 37


def random_rect(rng):
    re0, im0 = rng.uniform(-5.0, 5.0), -rng.uniform(1.0, 3.0)
    return Window.rect(re0, re0 + rng.uniform(2.0, 6.0), im0, rng.uniform(0.5, 1.5))


@CASES
@given(st.integers(0, 2**32 - 1))
def test_block_spectra_make_up_the_spectrum(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_edges=7, max_vertices=3)
    a = random_g_endomorphism(g, rng, density=rng.uniform(0.3, 0.9))
    mult = rng.integers(1, 4, size=g.n_edges)
    delta, rect = float(rng.uniform(0.5, 1.5)), random_rect(rng)
    blocks = split_reducible(a)
    order = [g.edge_index(e.id) for _, block in blocks for e in block.graph.edges]
    assert sorted(order) == list(range(g.n_edges))
    # a block only feeds the blocks after it: the permuted matrix is block
    # lower triangular
    label = np.repeat(np.arange(len(blocks)), [b.n_edges for _, b in blocks])
    permuted = a.matrix[np.ix_(order, order)]
    assert not np.any(permuted[label[:, None] < label[None, :]])
    union: dict[complex, int] = {}
    for _, block in blocks:
        block_mult = [mult[g.edge_index(e.id)] for e in block.graph.edges]
        for e in spectrum_exact_commensurable(block, block_mult, delta, rect).eigenvalues:
            near = [z for z in union if abs(z - e.value) <= 1e-8]
            key = near[0] if near else e.value
            union[key] = union.get(key, 0) + e.multiplicity
    merged = SpectrumReport(
        "union", rect, tuple(EigenvalueEntry(z, m, 0.0) for z, m in union.items())
    )
    assert_same_entries(merged, spectrum_exact_commensurable(a, mult, delta, rect))


@CASES
@given(st.integers(0, 2**32 - 1))
def test_edge_relabeling_keeps_the_spectrum(seed):
    rng, a, mult, delta = commensurable_map(seed, random_g_endomorphism)
    g, rect = a.graph, random_rect(rng)
    perm = rng.permutation(g.n_edges)
    relabeled = graph_from_edges(
        [(f"f{k}", g.edges[i].tail, g.edges[i].head) for k, i in enumerate(perm)]
    )
    b = GEndomorphism(relabeled, a.matrix[np.ix_(perm, perm)])
    got = spectrum_exact_commensurable(b, [mult[i] for i in perm], delta, rect)
    assert_same_entries(got, spectrum_exact_commensurable(a, mult, delta, rect))
