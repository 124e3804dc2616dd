"""JSON and CSV interchange round trips and input validation."""

import json
import math

import numpy as np
import pytest

from diracgraph import (
    CoefficientProfile,
    GEndomorphism,
    GPermutation,
    MultiPoly,
    bidirected_triangle,
    build_adjacency,
    charpoly_via_collections,
    directed_cycle,
    graph_from_edges,
    graph_of,
    looped_dumbbell,
    permutation_to_decomposition,
    rose,
    spectrum_numeric,
    topology_from_coefficients,
)
from diracgraph.errors import InputFormatError
from diracgraph.jsonio import (
    decomposition_to_json,
    endomorphism_to_json,
    graph_to_json,
    load_boundary,
    load_graph,
    multipoly_to_json,
    parse_boundary,
    parse_decomposition,
    parse_graph,
    profile_to_json,
    report_to_csv,
    report_to_json,
    subspace_to_json,
    topology_to_json,
)


GRAPH_DOC = {
    "vertices": ["u", "w"],
    "edges": [
        {"id": "a", "tail": "u", "head": "u", "length": 1.0},
        {"id": "c", "tail": "u", "head": "w", "length": 0.5},
        {"id": "d", "tail": "w", "head": "u"},
    ],
}


# -- graphs ---------------------------------------------------------------


def test_graph_round_trip():
    g = parse_graph(GRAPH_DOC)
    assert [e.id for e in g.edges] == ["a", "c", "d"]
    assert g.edge("d").length == 1.0  # defaulted
    doc = graph_to_json(g)
    g2 = parse_graph(doc)
    assert g2.vertices == g.vertices
    assert g2.edges == g.edges


def test_graph_load_from_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(GRAPH_DOC))
    g = load_graph(path)
    assert g.n_edges == 3


def test_graph_format_errors(tmp_path):
    bad = [
        [],
        {"vertices": ["u"]},
        {"vertices": ["u", "u"], "edges": []},
        {"vertices": ["u"], "edges": [{"id": "e", "tail": "u"}]},
        {"vertices": ["u"], "edges": [{"id": "e", "tail": "u", "head": "x"}]},
        {
            "vertices": ["u"],
            "edges": [
                {"id": "e", "tail": "u", "head": "u"},
                {"id": "e", "tail": "u", "head": "u"},
            ],
        },
        {
            "vertices": ["u"],
            "edges": [{"id": "e", "tail": "u", "head": "u", "length": "long"}],
        },
    ]
    for doc in bad:
        with pytest.raises(InputFormatError):
            parse_graph(doc)
    missing = tmp_path / "nope.json"
    with pytest.raises(InputFormatError):
        load_graph(missing)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(InputFormatError):
        load_graph(garbled)


# -- boundary conditions --------------------------------------------------


def test_subspace_round_trip():
    g = rose(1)
    b = graph_of(GEndomorphism(g, np.array([[0.5 - 0.5j]])))
    doc = subspace_to_json(b)
    assert doc["type"] == "subspace"
    parsed = parse_boundary(doc, g)
    assert parsed.kind == "subspace"
    assert parsed.subspace.equals(b)


def test_subspace_vectors_are_columns_start_before_end():
    g = rose(1)
    doc = {"type": "subspace", "basis": [[[1.0, 0.0], [0.0, 2.0]]]}
    parsed = parse_boundary(doc, g)
    col = parsed.subspace.orthonormal_basis()[:, 0]
    # trace order is start then end of the single edge
    assert abs(col[1] / col[0] - 2j) < 1e-12


def test_endomorphism_round_trip():
    g = directed_cycle(2)
    a = GEndomorphism(g, np.array([[0, 1j], [2.0, 0]]))
    parsed = parse_boundary(endomorphism_to_json(a), g)
    assert parsed.kind == "endomorphism"
    assert np.array_equal(parsed.endomorphism.matrix, a.matrix)


@pytest.mark.parametrize(
    "entry, message",
    [
        (["1.5", 0], "expected [re, im] pair, got ['1.5', 0]"),
        ([1], "expected [re, im] pair, got [1]"),
        ([1, 0, 0], "expected [re, im] pair, got [1, 0, 0]"),
        (None, "expected [re, im] pair, got None"),
        ([[1], [0]], "expected [re, im] pair, got [[1], [0]]"),
        # JSON's true, Infinity and NaN are no numbers here
        ([True, 0], "expected [re, im] pair, got [True, 0]"),
        ([math.inf, 0], "expected [re, im] pair, got [inf, 0]"),
        ([0, math.nan], "expected [re, im] pair, got [0, nan]"),
    ],
)
def test_endomorphism_entries_that_are_no_number_pair_are_named(entry, message):
    # the matrix is read in one array conversion, and only a matrix that is
    # not a numeric n x n x 2 array is walked entry by entry for the message
    doc = {"type": "endomorphism", "matrix": [[entry, [0, 0]], [[0, 0], [1, 0]]]}
    with pytest.raises(InputFormatError) as err:
        parse_boundary(doc, directed_cycle(2))
    assert str(err.value) == message


def test_endomorphism_reads_integers_and_signed_zeros():
    g = rose(2)
    doc = {"type": "endomorphism", "matrix": [[[1, 0], [1, -0.0]], [[0.5, 2], [0, 1e-320]]]}
    got = parse_boundary(doc, g).endomorphism.matrix
    assert got.tolist() == [[1, 1], [0.5 + 2j, 1e-320j]]
    assert math.copysign(1.0, got[0, 1].imag) == -1.0


def test_adjacency_boundary_kind():
    g = bidirected_triangle()
    parsed = parse_boundary({"type": "adjacency"}, g)
    assert parsed.kind == "adjacency"
    assert np.array_equal(parsed.endomorphism.matrix, build_adjacency(g).matrix)


def test_permutation_boundary_kind():
    g = directed_cycle(3)
    doc = {"type": "permutation", "map": {"e1": "e2", "e2": "e3", "e3": "e1"}}
    parsed = parse_boundary(doc, g)
    assert parsed.kind == "permutation"
    assert parsed.permutation.mapping == doc["map"]
    assert parsed.endomorphism is not None


def test_boundary_format_errors(tmp_path):
    g = directed_cycle(2)
    bad = [
        {"basis": []},
        {"type": "mystery"},
        {"type": "subspace", "basis": [[[1, 0]]]},
        {"type": "subspace", "basis": [[[1, 0], "x", [0, 0], [0, 0]]]},
        {"type": "endomorphism", "matrix": [[[1, 0]]]},
        {"type": "endomorphism", "matrix": [[[1, 0], [0, 0]], [[0, 0]]]},
        {"type": "permutation", "map": {"e1": "e1", "e2": "e2"}},
        {"type": "permutation", "map": []},
    ]
    for doc in bad:
        with pytest.raises(InputFormatError):
            parse_boundary(doc, g)
    # support violation: entry where no head matches tail
    with pytest.raises(InputFormatError):
        parse_boundary(
            {"type": "endomorphism", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
            g,
        )
    path = tmp_path / "bc.json"
    path.write_text(json.dumps({"type": "adjacency"}))
    assert load_boundary(path, g).kind == "adjacency"
    with pytest.raises(InputFormatError):
        load_boundary(tmp_path / "nope.json", g)


# -- polynomials ----------------------------------------------------------


def test_multipoly_round_trip():
    g = looped_dumbbell()
    p = charpoly_via_collections(g)
    doc = multipoly_to_json(p)
    assert {frozenset(t["edges"]): complex(*t["coeff"]) for t in doc["terms"]} == (
        p.term_edge_sets()
    )


def test_multipoly_terms_sorted_for_stable_output():
    p = MultiPoly.from_edge_sets(
        ("b", "a"), {frozenset({"b"}): 1.0, frozenset(): -1.0, frozenset({"a", "b"}): 2.0}
    )
    doc = multipoly_to_json(p)
    assert [t["edges"] for t in doc["terms"]] == [[], ["b"], ["a", "b"]]


def test_profile_to_json():
    profile = CoefficientProfile.from_graph(rose(2))
    assert profile_to_json(profile) == {"n": 2, "coeffs_low_to_high": [0, -2, 1]}


# -- spectra --------------------------------------------------------------


def test_report_json_and_csv():
    g = rose(1)
    rep = spectrum_numeric(GEndomorphism(g, np.eye(1)), window=(-0.5, 7.0))
    doc = report_to_json(rep)
    assert doc["solver"] == "eigenphase"
    assert [e["mult"] for e in doc["eigenvalues"]] == [1, 1]
    assert doc["eigenvalues"][1]["re"] == pytest.approx(2 * math.pi)
    assert doc["winding"] == 2

    csv = report_to_csv(rep)
    lines = csv.strip().split("\n")
    assert lines[0] == "re,im,mult"
    assert len(lines) == 3
    re_val, im_val, mult = lines[2].split(",")
    assert float(re_val) == pytest.approx(2 * math.pi)
    assert float(im_val) == 0.0
    assert mult == "1"


# -- trails and topology --------------------------------------------------


def test_decomposition_round_trip():
    g = directed_cycle(3)
    p = GPermutation(g, {"e1": "e2", "e2": "e3", "e3": "e1"})
    d = permutation_to_decomposition(p)
    doc = decomposition_to_json(d)
    assert doc == {"trails": [["e1", "e2", "e3"]]}
    d2 = parse_decomposition(doc, g)
    assert d2.trails == d.trails


def test_decomposition_parse_errors():
    g = directed_cycle(2)
    with pytest.raises(InputFormatError):
        parse_decomposition({"trails": [[]]}, g)
    with pytest.raises(InputFormatError):
        parse_decomposition({"trails": [["e9"]]}, g)
    with pytest.raises(InputFormatError):
        parse_decomposition({}, g)


def test_topology_to_json():
    profile = CoefficientProfile.from_graph(bidirected_triangle())
    report = topology_from_coefficients(profile, k_connectivity=2)
    doc = topology_to_json(report)
    assert doc["girth"] == 2
    assert doc["loops"] == 0
    assert doc["cycle_counts"] == {"1": 0, "2": 3, "3": 2}
    assert doc["a_n_minus_2"] == -3
    assert doc["long_cycle_counts"] == {"5": 0, "6": 0}
