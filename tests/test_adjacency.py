"""Edge adjacency maps, collection polynomials, and coefficient topology."""

import numpy as np
import pytest

from diracgraph import (
    COSPECTRAL_MATE_COEFFS,
    AdjacencyEndomorphism,
    CharFunction,
    CoefficientProfile,
    GEndomorphism,
    MultiPoly,
    bidirected_triangle,
    build_adjacency,
    char_poly,
    charpoly_via_collections,
    directed_cycle,
    edge_connectivity,
    enumerate_cycles,
    graph_from_edges,
    looped_dumbbell,
    reduce_vertex,
    rose,
    subdivide_edge,
    topology_from_coefficients,
)
from diracgraph.errors import DiracGraphError, EnumerationCapExceeded
from diracgraph.randgen import random_eulerian_graph, random_graph
from oracles import adjacency_char_function, edge_connectivity_bruteforce, substitute_one


def brute_cycle_counts(g):
    counts: dict[int, int] = {}
    for c in enumerate_cycles(g):
        counts[c.edge_count] = counts.get(c.edge_count, 0) + 1
    return counts


# -- adjacency map --------------------------------------------------------


def test_adjacency_matches_allowed_support():
    rng = np.random.default_rng(301)
    for _ in range(10):
        g = random_graph(rng, max_edges=6)
        a = build_adjacency(g)
        assert isinstance(a, AdjacencyEndomorphism)
        assert np.array_equal(a.matrix != 0, GEndomorphism.allowed_support(g))
        assert set(np.unique(a.matrix.real)) <= {0.0, 1.0}


def test_adjacency_two_cycle_layout():
    a = build_adjacency(directed_cycle(2))
    assert np.array_equal(a.matrix.real, [[0, 1], [1, 0]])


def test_adjacency_rose_is_all_ones():
    a = build_adjacency(rose(3))
    assert np.array_equal(a.matrix.real, np.ones((3, 3)))


# -- invertibility --------------------------------------------------------


def adjacency_det(g) -> float:
    return np.linalg.det(build_adjacency(g).matrix).real


def cycle_sign(g) -> int:
    """``(-1)^(cycles - edges)``, the determinant of the adjacency map of a
    union of disjoint cycles."""
    return (-1) ** (len(enumerate_cycles(g)) - g.n_edges)


def test_nonsingular_single_cycles():
    for g in (directed_cycle(3), directed_cycle(2), rose(1)):
        assert adjacency_det(g) == pytest.approx(cycle_sign(g))
    assert cycle_sign(directed_cycle(2)) == -1


def test_nonsingular_disjoint_cycles():
    g = graph_from_edges(
        [
            ("e1", "v1", "v2"),
            ("e2", "v2", "v1"),
            ("e3", "v3", "v4"),
            ("e4", "v4", "v3"),
        ]
    )
    assert adjacency_det(g) == pytest.approx(cycle_sign(g))
    assert cycle_sign(g) == 1


def test_singular_for_higher_degrees():
    assert adjacency_det(looped_dumbbell()) == pytest.approx(0, abs=1e-12)
    assert adjacency_det(rose(2)) == pytest.approx(0, abs=1e-12)


# -- collection expansion of the characteristic polynomial ----------------


def test_collections_match_determinant_on_fixtures():
    for g in (
        rose(1),
        rose(3),
        directed_cycle(4),
        looped_dumbbell(),
        bidirected_triangle(),
    ):
        via_coll = charpoly_via_collections(g).term_edge_sets()
        via_det = char_poly(build_adjacency(g)).term_edge_sets()
        assert set(via_coll) == set(via_det)
        for key in via_coll:
            assert via_coll[key] == via_det[key]


def test_collections_match_determinant_on_random_graphs():
    rng = np.random.default_rng(307)
    for _ in range(30):
        g = random_graph(rng, max_edges=7)
        via_coll = charpoly_via_collections(g).term_edge_sets()
        via_det = char_poly(build_adjacency(g)).term_edge_sets()
        assert via_coll == via_det


def test_collections_cap():
    with pytest.raises(EnumerationCapExceeded):
        charpoly_via_collections(rose(4), cap=3)


def test_secular_value_from_collections():
    rng = np.random.default_rng(311)
    for g in (looped_dumbbell(), bidirected_triangle()):
        poly = charpoly_via_collections(g)
        lengths = g.lengths()
        for lam in rng.normal(size=4) + 0.2j * rng.normal(size=4):
            want = complex(CharFunction(poly, lengths).eval(lam))
            assert adjacency_char_function(g, lam) == pytest.approx(
                want, rel=1e-9, abs=1e-12
            )


# -- subdivision and contraction ------------------------------------------


def test_subdivided_adjacency_contracts_back():
    g = looped_dumbbell()
    g2, mid = subdivide_edge(g, "c")
    g3, a3 = reduce_vertex(build_adjacency(g2), mid)
    assert tuple(e.id for e in g3.edges) == ("a", "b", "c.a~c.b", "d")
    assert np.array_equal(a3.matrix, build_adjacency(g).matrix)


def test_subdivision_halves_always_travel_together():
    g = bidirected_triangle()
    g2, _ = subdivide_edge(g, "e23")
    poly = charpoly_via_collections(g2)
    for ids in poly.term_edge_sets():
        assert ("e23.a" in ids) == ("e23.b" in ids)
    collapsed = {
        frozenset("e23" if i == "e23.b" else i for i in ids): c
        for ids, c in substitute_one(poly, "e23.a").term_edge_sets().items()
    }
    assert collapsed == charpoly_via_collections(g).term_edge_sets()


# -- coefficient profiles -------------------------------------------------


def test_profile_fixtures():
    assert CoefficientProfile.from_graph(rose(3)).coeffs == (0, 0, -3, 1)
    assert CoefficientProfile.from_graph(directed_cycle(4)).coeffs == (-1, 0, 0, 0, 1)
    assert CoefficientProfile.from_graph(looped_dumbbell()).coeffs == (0, 0, 0, -2, 1)
    assert CoefficientProfile.from_graph(bidirected_triangle()).coeffs == (
        0,
        0,
        0,
        -2,
        -3,
        0,
        1,
    )


def test_dumbbell_shares_coefficients_with_its_mate():
    # different graphs, same collection polynomial: the profile alone does
    # not pin down the graph
    assert CoefficientProfile.from_graph(looped_dumbbell()).coeffs == COSPECTRAL_MATE_COEFFS


def test_profile_from_multipoly_round_trip():
    rng = np.random.default_rng(313)
    for _ in range(15):
        g = random_eulerian_graph(rng, max_edges=7)
        direct = CoefficientProfile.from_graph(g)
        via_poly = CoefficientProfile.from_multipoly(charpoly_via_collections(g))
        assert direct == via_poly
        assert direct.coeffs[-1] == 1
        assert len(direct.coeffs) == g.n_edges + 1


def test_profile_rejects_non_integer_coefficients():
    poly = MultiPoly.from_edge_sets(("a",), {frozenset({"a"}): 1.0, frozenset(): 0.5})
    with pytest.raises(ValueError, match="integer"):
        CoefficientProfile.from_multipoly(poly)


def test_profile_length_validation():
    with pytest.raises(ValueError):
        CoefficientProfile(2, (1, 2))
    assert np.array_equal(CoefficientProfile(1, (0, 1)).as_array(), [0.0, 1.0])


# -- topology from coefficients -------------------------------------------


def test_triangle_topology():
    profile = CoefficientProfile.from_graph(bidirected_triangle())
    top = topology_from_coefficients(profile, k_connectivity=2)
    assert top.girth == 2
    assert top.loop_count == 0
    assert top.cycle_counts == {1: 0, 2: 3, 3: 2}
    assert top.a_n_minus_2 == -3
    assert top.a_n_minus_3 == -2
    assert top.long_cycle_counts == {6: 0, 5: 0}


def test_rose_topology():
    top = topology_from_coefficients(CoefficientProfile.from_graph(rose(4)))
    assert top.girth == 1
    assert top.loop_count == 4
    assert top.cycle_counts == {1: 4}
    assert top.long_cycle_counts == {}


def test_long_cycle_counts_on_directed_cycle():
    profile = CoefficientProfile.from_graph(directed_cycle(4))
    top = topology_from_coefficients(profile, k_connectivity=1)
    assert top.girth == 4
    assert top.cycle_counts == {1: 0, 2: 0, 3: 0, 4: 1}
    assert top.long_cycle_counts == {4: 1}


def test_acyclic_graph_has_no_girth():
    profile = CoefficientProfile.from_graph(graph_from_edges([("e1", "u", "v")]))
    with pytest.raises(DiracGraphError, match="acyclic"):
        topology_from_coefficients(profile)


def test_topology_against_brute_force_on_random_graphs():
    rng = np.random.default_rng(317)
    for _ in range(25):
        g = random_eulerian_graph(rng, max_edges=8)
        top = topology_from_coefficients(CoefficientProfile.from_graph(g))
        brute = brute_cycle_counts(g)
        assert top.girth == min(brute)
        assert top.loop_count == sum(1 for e in g.edges if e.is_loop)
        for l, count in top.cycle_counts.items():
            assert count == brute.get(l, 0), f"length {l} cycles"


# -- edge connectivity ----------------------------------------------------


def test_connectivity_of_cycles():
    assert edge_connectivity(directed_cycle(3)) == 2
    assert edge_connectivity(directed_cycle(2)) == 2
    assert edge_connectivity(rose(1)) == 1


def test_connectivity_of_bidirected_triangle():
    assert edge_connectivity(bidirected_triangle()) == 4


def bidirected_cycle(k):
    return graph_from_edges(
        [(f"f{i}", f"v{i}", f"v{(i + 1) % k}") for i in range(k)]
        + [(f"b{i}", f"v{(i + 1) % k}", f"v{i}") for i in range(k)]
    )


def test_connectivity_of_forty_edge_bidirected_cycle():
    # Far beyond a subset search: 2^40 removal sets.
    g = bidirected_cycle(20)
    assert g.n_edges == 40
    assert edge_connectivity(g) == 4


def test_connectivity_matches_brute_force():
    rng = np.random.default_rng(331)
    graphs = [rose(n) for n in range(1, 5)]
    graphs += [directed_cycle(n) for n in range(2, 6)]
    graphs += [bidirected_triangle(), bidirected_cycle(4), looped_dumbbell()]
    graphs += [graph_from_edges([("e1", "u", "v")]), graph_from_edges([("e1", "u", "u")])]
    for i in range(240):
        # every fourth graph lives on one vertex: loops only
        graphs.append(random_graph(rng, max_edges=9, max_vertices=1 if i % 4 == 0 else 4))
    for _ in range(200):
        graphs.append(random_eulerian_graph(rng, max_edges=9))
    assert sum(len(g.vertices) == 1 for g in graphs) >= 60
    assert any(e.tail == e.head for g in graphs for e in g.edges if len(g.vertices) > 1)
    for g in graphs:
        assert edge_connectivity(g) == edge_connectivity_bruteforce(g), [
            (e.tail, e.head) for e in g.edges
        ]
