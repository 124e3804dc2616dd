"""Graph model, validation, and cycle collection enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracgraph import (
    CycleCollection,
    Edge,
    MetricGraph,
    bidirected_triangle,
    degrees,
    directed_cycle,
    enumerate_cycle_collections,
    enumerate_cycles,
    graph_from_edges,
    is_eulerian_components,
    looped_dumbbell,
    rose,
    subdivide_edge,
    validate,
)
from diracgraph.errors import EnumerationCapExceeded
from diracgraph.graph import collection_from_components, girth_bruteforce


def cycle_union_subsets(g):
    """Indices of edge subsets forming disjoint unions of directed cycles.

    A nonempty subset works exactly when every vertex it touches has in and
    out degree one inside the subset; the components are then automatically
    vertex-disjoint cycles.  Exponential in the edge count, used as an
    oracle against the recursive enumeration.
    """
    out = []
    n = g.n_edges
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            ins = {}
            outs = {}
            for i in subset:
                e = g.edges[i]
                outs[e.tail] = outs.get(e.tail, 0) + 1
                ins[e.head] = ins.get(e.head, 0) + 1
            touched = set(ins) | set(outs)
            if all(ins.get(v, 0) == 1 and outs.get(v, 0) == 1 for v in touched):
                out.append(frozenset(g.edges[i].id for i in subset))
    return out


# -- construction and basic accessors ------------------------------------


def test_edge_order_defines_indices():
    g = graph_from_edges([("b", "u", "v"), ("a", "v", "u"), ("c", "u", "u")])
    assert [e.id for e in g.edges] == ["b", "a", "c"]
    assert g.edge_index("b") == 0 and g.edge_index("c") == 2
    assert g.vertices == ("u", "v")
    assert g.edge("c").is_loop


def test_duplicate_edge_ids_rejected():
    with pytest.raises(ValueError):
        MetricGraph(["u"], [Edge("e", "u", "u"), Edge("e", "u", "u")])


def test_duplicate_vertex_ids_rejected():
    with pytest.raises(ValueError):
        MetricGraph(["u", "u"], [Edge("e", "u", "u")])


def test_lengths_and_total():
    g = graph_from_edges([("a", "u", "v", 0.5), ("b", "v", "u", 1.5)])
    assert g.lengths() == (0.5, 1.5)
    assert g.total_length == pytest.approx(2.0)


def test_degrees_counts_loops_once_per_side():
    g = looped_dumbbell()
    assert degrees(g, "u") == (2, 2)
    assert degrees(g, "w") == (2, 2)
    with pytest.raises(KeyError):
        degrees(g, "nope")


def test_validate_flags_each_violation():
    g = MetricGraph(
        ["u", "v", "w"],
        [Edge("a", "u", "x"), Edge("b", "u", "v", -1.0)],
    )
    problems = validate(g)
    assert any("unknown endpoint" in p for p in problems)
    assert any("nonpositive length" in p for p in problems)
    assert any("isolated" in p for p in problems)
    assert validate(rose(2)) == []


def test_require_valid_raises_on_bad_graph():
    g = MetricGraph(["u", "v"], [Edge("a", "u", "u")])
    with pytest.raises(ValueError):
        g.require_valid()


def test_eulerian_criterion():
    assert is_eulerian_components(rose(3))
    assert is_eulerian_components(directed_cycle(4))
    assert is_eulerian_components(looped_dumbbell())
    assert not is_eulerian_components(graph_from_edges([("e", "u", "v")]))
    # balanced but disconnected components still count
    two_loops = graph_from_edges([("a", "u", "u"), ("b", "v", "v")])
    assert is_eulerian_components(two_loops)


# -- cycle enumeration ---------------------------------------------------


def test_rose_cycles_are_the_loops():
    g = rose(4)
    cycles = enumerate_cycles(g)
    assert sorted(c.components[0] for c in cycles) == [
        ("e1",), ("e2",), ("e3",), ("e4",)
    ]
    # loops pairwise share the hub, so collections are empty set + singletons
    assert len(enumerate_cycle_collections(g)) == 5


def test_directed_cycle_has_one_cycle():
    g = directed_cycle(5)
    cycles = enumerate_cycles(g)
    assert len(cycles) == 1
    assert cycles[0].components[0] == ("e1", "e2", "e3", "e4", "e5")
    assert len(enumerate_cycle_collections(g)) == 2


def test_dumbbell_collections():
    g = looped_dumbbell()
    colls = enumerate_cycle_collections(g)
    got = sorted((c.subgraph.edge_ids for c in colls), key=sorted)
    want = [frozenset(), {"a"}, {"b"}, {"a", "b"}, {"c", "d"}]
    assert sorted(map(frozenset, want), key=sorted) == got


def test_bidirected_triangle_collections():
    g = bidirected_triangle()
    colls = enumerate_cycle_collections(g)
    assert len(colls) == 6
    by_size = {}
    for c in colls:
        by_size.setdefault(c.edge_count, []).append(c)
    assert len(by_size[0]) == 1
    assert len(by_size[2]) == 3
    assert len(by_size[3]) == 2
    assert all(c.component_count == 1 for c in by_size[2] + by_size[3])


def test_parallel_edges_give_distinct_two_cycles():
    g = graph_from_edges(
        [("f1", "u", "v"), ("f2", "u", "v"), ("r", "v", "u")]
    )
    cycles = enumerate_cycles(g)
    assert sorted((c.subgraph.edge_ids for c in cycles), key=sorted) == [
        frozenset({"f1", "r"}),
        frozenset({"f2", "r"}),
    ]


def test_collection_canonical_form_is_order_independent():
    g = looped_dumbbell()
    c1 = collection_from_components(g, [("b",), ("c", "d")])
    c2 = collection_from_components(g, [("d", "c"), ("b",)])
    assert c1 == c2
    assert c1.components == (("b",), ("c", "d"))


def test_collection_counts_and_length():
    g = looped_dumbbell()
    c = collection_from_components(g, [("a",), ("b",)])
    assert c.component_count == 2
    assert c.edge_count == 2
    assert c.total_length == pytest.approx(2.0)


def test_girth_bruteforce():
    assert girth_bruteforce(rose(2)) == 1
    assert girth_bruteforce(directed_cycle(6)) == 6
    assert girth_bruteforce(bidirected_triangle()) == 2
    assert girth_bruteforce(graph_from_edges([("e", "u", "v")])) is None


def test_enumeration_cap_guard():
    g = rose(7)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_cycles(g, cap=6)
    assert len(enumerate_cycles(g, cap=7)) == 7


def test_collections_match_subset_oracle_on_fixtures():
    for g in (rose(3), directed_cycle(4), looped_dumbbell(), bidirected_triangle()):
        oracle = cycle_union_subsets(g)
        colls = enumerate_cycle_collections(g)
        got = sorted((c.subgraph.edge_ids for c in colls if c.components), key=sorted)
        assert got == sorted(oracle, key=sorted)


def test_random_graphs_match_subset_oracle():
    rng = np.random.default_rng(20240817)
    for _ in range(60):
        n_v = int(rng.integers(1, 5))
        n_e = int(rng.integers(1, 7))
        specs = [
            (f"e{i}", f"v{rng.integers(n_v)}", f"v{rng.integers(n_v)}")
            for i in range(n_e)
        ]
        g = graph_from_edges(specs, vertices=[f"v{k}" for k in range(n_v)])
        oracle = sorted(cycle_union_subsets(g), key=sorted)
        colls = enumerate_cycle_collections(g)
        got = sorted((c.subgraph.edge_ids for c in colls if c.components), key=sorted)
        assert got == oracle


edge_lists = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=6
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(edge_lists)
def test_collection_components_satisfy_degree_criterion(pairs):
    specs = [(f"e{i}", f"v{t}", f"v{h}") for i, (t, h) in enumerate(pairs)]
    g = graph_from_edges(specs)
    for coll in enumerate_cycle_collections(g):
        # each component is a closed walk of (1,1)-degree vertices
        touched = set()
        for comp in coll.components:
            for eid, nxt in zip(comp, comp[1:] + comp[:1]):
                assert g.edge(eid).head == g.edge(nxt).tail
            verts = {g.edge(eid).tail for eid in comp}
            assert not verts & touched
            touched |= verts
        assert coll.edge_count == sum(len(c) for c in coll.components)


# -- subdivision ---------------------------------------------------------


def test_subdivide_preserves_length_and_slot():
    g = graph_from_edges([("a", "u", "v", 2.0), ("b", "v", "u", 1.0)])
    g2, mid = subdivide_edge(g, "a", split=0.25)
    assert [e.id for e in g2.edges] == ["a.a", "a.b", "b"]
    assert g2.edge("a.a").length == pytest.approx(0.5)
    assert g2.edge("a.b").length == pytest.approx(1.5)
    assert g2.total_length == pytest.approx(g.total_length)
    assert degrees(g2, mid) == (1, 1)
    assert validate(g2) == []


def test_subdivide_loop_keeps_graph_valid():
    g2, mid = subdivide_edge(rose(1), "e1")
    assert degrees(g2, mid) == (1, 1)
    assert girth_bruteforce(g2) == 2
    assert validate(g2) == []


def test_subdivide_rejects_degenerate_split():
    with pytest.raises(ValueError):
        subdivide_edge(rose(1), "e1", split=0.0)
