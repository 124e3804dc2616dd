"""Edge permutations, trail decompositions, and their closed-form spectra."""

import math

import numpy as np
import pytest

from diracgraph import (
    GPermutation,
    TrailDecomposition,
    decomposition_to_permutation,
    directed_cycle,
    enumerate_g_permutations,
    graph_from_edges,
    graph_of,
    longest_trail_from_spectrum,
    loop_count_via_trace,
    looped_dumbbell,
    permutation_spectrum,
    permutation_to_decomposition,
    rose,
    spectrum_numeric,
)
from diracgraph import bidirected_triangle, eigenfunction_residual
from diracgraph.errors import EnumerationCapExceeded
from diracgraph.randgen import random_eulerian_graph, random_g_permutation


def two_loop_graph(l1=2.0, l2=4.0):
    return graph_from_edges([("e1", "v", "v", l1), ("e2", "v", "v", l2)])


def identity_permutation(g):
    return GPermutation(g, {e.id: e.id for e in g.edges if e.is_loop})


# -- permutations ---------------------------------------------------------


def test_permutation_requires_bijection():
    g = directed_cycle(3)
    with pytest.raises(ValueError, match="bijection"):
        GPermutation(g, {"e1": "e2", "e2": "e3"})
    with pytest.raises(ValueError, match="bijection"):
        GPermutation(g, {"e1": "e2", "e2": "e2", "e3": "e1"})


def test_permutation_requires_head_to_tail():
    g = directed_cycle(3)
    with pytest.raises(ValueError, match="start where"):
        GPermutation(g, {"e1": "e1", "e2": "e2", "e3": "e3"})


def test_permutation_matrix_layout():
    g = directed_cycle(3)
    p = GPermutation(g, {"e1": "e2", "e2": "e3", "e3": "e1"})
    assert p("e1") == "e2"
    m = p.to_endomorphism().matrix
    want = np.zeros((3, 3))
    want[1, 0] = want[2, 1] = want[0, 2] = 1.0
    assert np.array_equal(m.real, want) and np.all(m.imag == 0)
    assert np.allclose(m @ m.conj().T, np.eye(3))


# -- decompositions -------------------------------------------------------


def test_orbit_decomposition_single_trail():
    g = directed_cycle(3)
    p = GPermutation(g, {"e1": "e2", "e2": "e3", "e3": "e1"})
    d = permutation_to_decomposition(p)
    assert d.trails == (("e1", "e2", "e3"),)
    assert d.trail_count == 1
    assert d.lengths() == (pytest.approx(3.0),)
    assert d.edge_counts() == (3,)


def test_trails_lead_with_smallest_edge_id():
    g = looped_dumbbell()
    p = GPermutation(g, {"a": "c", "c": "d", "d": "a", "b": "b"})
    d = permutation_to_decomposition(p)
    assert d.trails == (("a", "c", "d"), ("b",))


def test_decomposition_round_trip_on_all_permutations():
    for g in (rose(3), looped_dumbbell(), bidirected_triangle()):
        for p in enumerate_g_permutations(g):
            q = decomposition_to_permutation(permutation_to_decomposition(p))
            assert q.mapping == p.mapping


def test_decomposition_validation():
    g = looped_dumbbell()
    with pytest.raises(ValueError, match="head and tail"):
        decomposition_to_permutation(
            TrailDecomposition(g, (("a", "b"), ("c", "d")))
        )
    with pytest.raises(ValueError, match="twice"):
        decomposition_to_permutation(
            TrailDecomposition(g, (("a",), ("a",), ("b",), ("c", "d")))
        )
    with pytest.raises(ValueError, match="not covered"):
        decomposition_to_permutation(TrailDecomposition(g, (("a",), ("b",))))
    with pytest.raises(ValueError, match="empty"):
        decomposition_to_permutation(TrailDecomposition(g, ((), ("a",))))


# -- enumeration ----------------------------------------------------------


def test_enumeration_counts_are_degree_factorials():
    assert len(enumerate_g_permutations(rose(2))) == 2
    assert len(enumerate_g_permutations(directed_cycle(3))) == 1
    assert len(enumerate_g_permutations(looped_dumbbell())) == 4
    assert len(enumerate_g_permutations(bidirected_triangle())) == 8


def test_enumeration_empty_for_unbalanced_degrees():
    g = graph_from_edges([("e1", "u", "v")])
    assert enumerate_g_permutations(g) == []


def test_enumeration_guard():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_g_permutations(rose(4), guard=10)


def test_enumeration_distinct_and_deterministic():
    g = looped_dumbbell()
    first = [p.mapping for p in enumerate_g_permutations(g)]
    second = [p.mapping for p in enumerate_g_permutations(g)]
    assert first == second
    assert len({tuple(sorted(m.items())) for m in first}) == len(first)


def test_loop_count_via_trace():
    g = looped_dumbbell()
    p = GPermutation(g, {"a": "a", "b": "b", "c": "d", "d": "c"})
    assert loop_count_via_trace(p) == 2
    q = GPermutation(g, {"a": "c", "c": "d", "d": "a", "b": "b"})
    assert loop_count_via_trace(q) == 1
    r = directed_cycle(3)
    assert loop_count_via_trace(GPermutation(r, {"e1": "e2", "e2": "e3", "e3": "e1"})) == 0


# -- closed-form spectra --------------------------------------------------


def test_spectrum_two_trails_lengths_two_and_four():
    g = two_loop_graph(2.0, 4.0)
    p = identity_permutation(g)
    rep = permutation_spectrum(p, window=(-0.1, 5.0))
    # lattices pi k and (pi/2) k merge where the shorter divides
    want = {
        0.0: 2,
        math.pi / 2: 1,
        math.pi: 2,
        3 * math.pi / 2: 1,
    }
    assert len(rep.eigenvalues) == len(want)
    for entry in rep.eigenvalues:
        lam = entry.value.real
        key = min(want, key=lambda x: abs(x - lam))
        assert lam == pytest.approx(key, abs=1e-12)
        assert entry.multiplicity == want[key]
        assert entry.residual < 1e-9
    assert longest_trail_from_spectrum(rep) == (pytest.approx(4.0), 1)


def test_spectrum_zero_multiplicity_is_trail_count():
    g = looped_dumbbell()
    for p in enumerate_g_permutations(g):
        d = permutation_to_decomposition(p)
        rep = permutation_spectrum(p, window=(-0.1, 0.1))
        zero = [e for e in rep.eigenvalues if abs(e.value) < 1e-12]
        assert len(zero) == 1
        assert zero[0].multiplicity == d.trail_count


def test_spectrum_with_explicit_lengths_override():
    g = two_loop_graph(1.0, 1.0)
    p = identity_permutation(g)
    rep = permutation_spectrum(p, lengths=[2.0, 4.0], window=(0.5, 2.0))
    assert np.allclose(rep.values(), [math.pi / 2])
    assert rep.eigenvalues[0].multiplicity == 1


def test_spectrum_irrational_trail_lengths_stay_separate():
    g = two_loop_graph(1.0, math.sqrt(2))
    p = identity_permutation(g)
    rep = permutation_spectrum(p, window=(-0.1, 2 * math.pi + 0.1))
    vals = [(e.value.real, e.multiplicity) for e in rep.eigenvalues]
    want = [(0.0, 2), (2 * math.pi / math.sqrt(2), 1), (2 * math.pi, 1)]
    assert len(vals) == len(want)
    for (lam, m), (wl, wm) in zip(vals, want):
        assert lam == pytest.approx(wl, abs=1e-9)
        assert m == wm


def test_spectrum_eigenfunctions_live_on_their_trail():
    g = looped_dumbbell()
    p = GPermutation(g, {"a": "c", "c": "d", "d": "a", "b": "b"})
    lengths = np.array(g.lengths())
    rep = permutation_spectrum(p, window=(-0.1, 7.0))
    b = graph_of(p.to_endomorphism())
    d = permutation_to_decomposition(p)
    trail_sets = [frozenset(t) for t in d.trails]
    for entry in rep.eigenvalues:
        assert len(entry.eigenfunctions) == entry.multiplicity
        for f in entry.eigenfunctions:
            support = frozenset(
                g.edges[i].id for i in np.nonzero(np.abs(f.amplitudes) > 1e-12)[0]
            )
            assert support in trail_sets
            assert eigenfunction_residual(b, f) < 1e-9


def test_spectrum_rejects_window_off_the_real_line():
    g = two_loop_graph()
    p = identity_permutation(g)
    from diracgraph import Window

    with pytest.raises(ValueError):
        permutation_spectrum(p, window=Window.rect(-1, 1, 0.5, 1.0))


def test_spectrum_agrees_with_the_locator_on_random_permutations():
    rng = np.random.default_rng(211)
    for _ in range(12):
        g = random_eulerian_graph(rng, max_edges=6)
        p = random_g_permutation(g, rng)
        closed = permutation_spectrum(p, window=(-5.0, 5.0))
        scan = spectrum_numeric(p.to_endomorphism(), window=(-5.0, 5.0))
        assert len(closed.eigenvalues) == len(scan.eigenvalues)
        for c, s in zip(closed.eigenvalues, scan.eigenvalues):
            assert c.value == pytest.approx(s.value, abs=1e-8)
            assert c.multiplicity == s.multiplicity


def test_longest_trail_tie_counted():
    g = two_loop_graph(2.0, 2.0)
    p = identity_permutation(g)
    rep = permutation_spectrum(p, window=(-0.1, 4.0))
    length, count = longest_trail_from_spectrum(rep)
    assert length == pytest.approx(2.0)
    assert count == 2


def test_longest_trail_needs_positive_eigenvalue():
    g = two_loop_graph()
    p = identity_permutation(g)
    rep = permutation_spectrum(p, window=(-0.1, 0.1))
    with pytest.raises(ValueError):
        longest_trail_from_spectrum(rep)
