"""End-to-end command line tests driving main() on temporary JSON files."""

import json
import math
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

import diracgraph
from diracgraph import (
    BoundarySubspace,
    GEndomorphism,
    TraceSpace,
    WindowTooLargeError,
    bidirected_triangle,
    graph_from_edges,
    graph_of,
    rose,
    spectrum_complex,
    spectrum_exact_commensurable,
)
from diracgraph.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_REFUSAL, main
from diracgraph.families import directed_cycle
from diracgraph.jsonio import (
    endomorphism_to_json,
    graph_to_json,
    subspace_to_json,
)
from diracgraph.randgen import random_unitary_g_endomorphism


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_graph(tmp_path, g, name="graph.json"):
    return write_json(tmp_path, name, graph_to_json(g))


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv)
    return rc, json.loads(out), err


TWO_LOOPS = graph_from_edges(
    [("a", "u", "u", 1.0), ("b", "u", "u", math.sqrt(2))]
)


# -- validate -------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    path = write_graph(tmp_path, rose(2))
    rc, payload, _ = run_json(capsys, ["validate", path])
    assert rc == EXIT_OK
    assert payload == {"valid": True, "violations": []}


def test_validate_isolated_vertex(tmp_path, capsys):
    doc = graph_to_json(rose(1))
    doc["vertices"].append("island")
    path = write_json(tmp_path, "bad.json", doc)
    rc, payload, _ = run_json(capsys, ["validate", path])
    assert rc == EXIT_REFUSAL
    assert payload["valid"] is False
    assert any("island" in v for v in payload["violations"])


def test_validate_pretty(tmp_path, capsys):
    path = write_graph(tmp_path, rose(1))
    rc, out, _ = run(capsys, ["validate", path, "--format", "pretty"])
    assert rc == EXIT_OK
    assert out.strip() == "valid"


def test_missing_graph_file_is_bad_input(tmp_path, capsys):
    rc, _, err = run(capsys, ["validate", str(tmp_path / "nope.json")])
    assert rc == EXIT_BAD_INPUT
    assert "input error" in err


# -- index ----------------------------------------------------------------


def test_index_of_edge_map_graph(tmp_path, capsys):
    g = rose(2)
    gp = write_graph(tmp_path, g)
    bc = write_json(
        tmp_path, "bc.json", endomorphism_to_json(GEndomorphism(g, np.eye(2)))
    )
    rc, payload, _ = run_json(capsys, ["index", gp, "--bc", bc, "--verify"])
    assert rc == EXIT_OK
    # constants solve start = end for the identity map, one per edge
    assert payload == {"index": 0, "kernel": 2, "cokernel": 2}


def test_index_of_zero_subspace(tmp_path, capsys):
    gp = write_graph(tmp_path, rose(1))
    bc = write_json(tmp_path, "bc.json", {"type": "subspace", "basis": []})
    rc, payload, _ = run_json(capsys, ["index", gp, "--bc", bc])
    assert rc == EXIT_OK
    assert payload["index"] == -1


# -- spectrum -------------------------------------------------------------


def test_spectrum_routes_exact_for_commensurable(tmp_path, capsys):
    # a map that is not unitary: exp(i lambda) = 2 at 2 pi k - i ln 2
    g = rose(1)
    gp = write_graph(tmp_path, g)
    bc = write_json(tmp_path, "bc.json", endomorphism_to_json(GEndomorphism(g, np.array([[2.0]]))))
    rc, payload, _ = run_json(
        capsys, ["spectrum", gp, "--bc", bc, "--window", "-1", "7"]
    )
    assert rc == EXIT_OK
    assert payload["solver"] == "exact-commensurable"
    values = [(complex(e["re"], e["im"]), e["mult"]) for e in payload["eigenvalues"]]
    assert [m for _, m in values] == [1, 1]
    want = [-1j * math.log(2), 2 * math.pi - 1j * math.log(2)]
    assert [v for v, _ in values] == pytest.approx(want, abs=1e-9)


def test_spectrum_routes_incommensurable_unitary_to_the_locator(tmp_path, capsys):
    gp = write_graph(tmp_path, TWO_LOOPS)
    bc = write_json(
        tmp_path,
        "bc.json",
        endomorphism_to_json(GEndomorphism(TWO_LOOPS, np.eye(2))),
    )
    rc, payload, _ = run_json(
        capsys, ["spectrum", gp, "--bc", bc, "--window", "-1", "7"]
    )
    assert rc == EXIT_OK
    assert payload["solver"] == "eigenphase"
    expected = sorted([0.0, 0.0, 2 * math.pi, 2 * math.pi / math.sqrt(2)])
    got = []
    for e in payload["eigenvalues"]:
        got.extend([e["re"]] * e["mult"])
    assert got == pytest.approx(expected, abs=1e-8)


def test_spectrum_routes_contour_for_rect(tmp_path, capsys):
    gp = write_graph(tmp_path, rose(1))
    bc = write_json(tmp_path, "bc.json", {"type": "adjacency"})
    rc, payload, _ = run_json(
        capsys, ["spectrum", gp, "--bc", bc, "--rect", "-1", "7", "-1", "1"]
    )
    assert rc == EXIT_OK
    assert payload["solver"] == "contour"
    assert payload["winding"] == 2
    assert [e["re"] for e in payload["eigenvalues"]] == pytest.approx(
        [0.0, 2 * math.pi], abs=1e-9
    )


@pytest.mark.parametrize(
    "window",
    [
        ["--rect", "7", "-1", "-2", "0.5"],
        ["--window", "nan", "1"],
        ["--rect", "-1", "inf", "-1", "1"],
        ["--rect", "-1", "1", "-1", "inf"],
    ],
)
def test_spectrum_malformed_window_is_bad_input(tmp_path, capsys, window):
    gp = write_graph(tmp_path, rose(1))
    bc = write_json(tmp_path, "bc.json", {"type": "adjacency"})
    rc, out, err = run(capsys, ["spectrum", gp, "--bc", bc] + window)
    assert rc == EXIT_BAD_INPUT
    assert out == "" and err.startswith("input error: ")


def test_spectrum_refuses_incommensurable_non_unitary(tmp_path, capsys):
    gp = write_graph(tmp_path, TWO_LOOPS)
    bc = write_json(
        tmp_path,
        "bc.json",
        endomorphism_to_json(GEndomorphism(TWO_LOOPS, np.diag([2.0, 1.0]))),
    )
    rc, _, err = run(capsys, ["spectrum", gp, "--bc", bc])
    assert rc == EXIT_REFUSAL
    assert "refused" in err and "--rect" in err


NEAR_TWINS = graph_from_edges([("a", "u", "u", 1.0), ("b", "u", "u", 1 + 5e-10)])


def test_spectrum_refuses_nearly_commensurable_non_unitary(tmp_path, capsys):
    # detect_commensurable matches 1 + 5e-10 to 1 within 1e-9; the exact
    # route on the rounded lengths would list one double eigenvalue at
    # 1005.309649149 where the given lengths have two simple ones
    gp = write_graph(tmp_path, NEAR_TWINS)
    bc = write_json(
        tmp_path, "bc.json", endomorphism_to_json(GEndomorphism(NEAR_TWINS, 2 * np.eye(2)))
    )
    rc, out, err = run(capsys, ["spectrum", gp, "--bc", bc, "--window", "1000", "1010"])
    assert rc == EXIT_REFUSAL and out == ""
    assert "refused" in err and "--rect" in err


def test_spectrum_dimension_mismatch_means_whole_plane(tmp_path, capsys):
    gp = write_graph(tmp_path, rose(1))
    bc = write_json(tmp_path, "bc.json", {"type": "subspace", "basis": []})
    rc, payload, err = run_json(capsys, ["spectrum", gp, "--bc", bc])
    assert rc == EXIT_OK
    assert payload["spectrum_is_all_of_C"] is True
    assert payload["eigenvalues"] == []
    assert "whole complex plane" in err


def test_spectrum_of_a_full_dimension_subspace_is_that_of_its_edge_map(tmp_path, capsys):
    a = random_unitary_g_endomorphism(TWO_LOOPS, np.random.default_rng(3))
    gp = write_graph(tmp_path, TWO_LOOPS)
    argv = ["spectrum", gp, "--window", "-1", "12", "--bc"]
    found = []
    for name, doc in (
        ("endo.json", endomorphism_to_json(a)),
        ("subspace.json", subspace_to_json(graph_of(a))),
    ):
        rc, payload, err = run_json(capsys, argv + [write_json(tmp_path, name, doc)])
        assert rc == EXIT_OK and err == ""
        found.append([(e["re"], e["mult"]) for e in payload["eigenvalues"]])
    assert len(found[0]) >= 5
    assert [m for _, m in found[1]] == [m for _, m in found[0]]
    assert [x for x, _ in found[1]] == pytest.approx([x for x, _ in found[0]], abs=1e-9)


def test_spectrum_refuses_a_full_dimension_subspace_that_is_no_graph(tmp_path, capsys):
    # the start values are free and the end values vanish: |E| dimensions,
    # but no edge map sends end values to start values
    gp = write_graph(tmp_path, TWO_LOOPS)
    space = TraceSpace(TWO_LOOPS)
    starts = BoundarySubspace(space, space.embed_start(np.eye(2)).T)
    bc = write_json(tmp_path, "bc.json", subspace_to_json(starts))
    rc, out, err = run(capsys, ["spectrum", gp, "--bc", bc, "--window", "0", "1"])
    assert rc == EXIT_REFUSAL and out == ""
    assert "only pointwise multiplicity queries" in err


def test_spectrum_csv_format(tmp_path, capsys):
    gp = write_graph(tmp_path, rose(1))
    bc = write_json(tmp_path, "bc.json", {"type": "adjacency"})
    rc, out, _ = run(
        capsys,
        ["spectrum", gp, "--bc", bc, "--window", "-1", "1", "--format", "csv"],
    )
    assert rc == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "re,im,mult"
    assert len(lines) == 2
    assert lines[1].endswith(",1")


def test_spectrum_near_commensurable_lengths_fall_back_to_the_locator(tmp_path, capsys):
    # ratio 665857/470832 approximates sqrt(2) beyond the denominator cap, so
    # the exact route must not fire (it would specialize to a huge degree)
    g = graph_from_edges(
        [("a", "u", "u", 1.0), ("b", "u", "u", 665857 / 470832)]
    )
    gp = write_graph(tmp_path, g)
    bc = write_json(
        tmp_path, "bc.json", endomorphism_to_json(GEndomorphism(g, np.eye(2)))
    )
    rc, payload, _ = run_json(
        capsys, ["spectrum", gp, "--bc", bc, "--window", "-1", "1"]
    )
    assert rc == EXIT_OK
    assert payload["solver"] == "eigenphase"


def write_cycle_permutation(tmp_path, lengths):
    """Directed cycle with the given lengths and the cycle permutation."""
    n = len(lengths)
    gp = write_graph(tmp_path, directed_cycle(n, lengths))
    cycle = {f"e{i + 1}": f"e{(i + 1) % n + 1}" for i in range(n)}
    bc = write_json(tmp_path, "bc.json", {"type": "permutation", "map": cycle})
    return gp, bc


def test_spectrum_routes_large_degree_to_the_locator(tmp_path, capsys):
    # lengths (1, 1 + 1/997, 1.5) are commensurable with d = sum m_e = 6981,
    # past the exact solver's degree bound: a unitary map goes to the
    # eigenphase locator
    gp, bc = write_cycle_permutation(tmp_path, [1.0, 1.0 + 1 / 997, 1.5])
    start = time.perf_counter()
    rc, payload, _ = run_json(capsys, ["spectrum", gp, "--bc", bc])
    assert time.perf_counter() - start < 1.0
    assert rc == EXIT_OK and payload["solver"] == "eigenphase"


def test_spectrum_refuses_large_degree_for_non_unitary_map(tmp_path, capsys):
    g = directed_cycle(3, [1.0, 1.0 + 1 / 997, 1.5])
    gp = write_graph(tmp_path, g)
    m = 2.0 * np.roll(np.eye(3), 1, axis=0)
    bc = write_json(tmp_path, "bc.json", endomorphism_to_json(GEndomorphism(g, m)))
    rc, _, err = run(capsys, ["spectrum", gp, "--bc", bc])
    assert rc == EXIT_REFUSAL
    assert "rectangle" in err and "--contour" not in err


def test_spectrum_exact_on_thirty_edges(tmp_path, capsys):
    # above the default edge cap of the polynomial expansion
    gp, bc = write_cycle_permutation(tmp_path, [1.0] * 30)
    rc, payload, _ = run_json(capsys, ["spectrum", gp, "--bc", bc, "--window", "-1", "1"])
    assert rc == EXIT_OK
    assert payload["solver"] == "eigenphase"
    values = [(e["re"], e["mult"]) for e in payload["eigenvalues"]]
    want = [2 * math.pi * k / 30 for k in range(-4, 5)]
    assert [m for _, m in values] == [1] * len(want)
    assert [v for v, _ in values] == pytest.approx(want, abs=1e-9)


def write_unitary_walk(tmp_path, edges, lengths, seed):
    """Graph with the given ``(tail, head)`` edges and lengths, and a random
    unitary edge map on it."""
    g = graph_from_edges(
        [(f"e{k}", t, h, float(l)) for k, ((t, h), l) in enumerate(zip(edges, lengths))]
    )
    a = random_unitary_g_endomorphism(g, np.random.default_rng(seed))
    return write_graph(tmp_path, g), write_json(tmp_path, "bc.json", endomorphism_to_json(a)), a


def test_spectrum_locator_lists_what_the_exact_solver_lists(tmp_path, capsys):
    # d = 300 and about 40 eigenvalues in the window, a fraction of a period
    edges = [("u", "u"), ("u", "v"), ("v", "u"), ("v", "v"), ("u", "v"), ("v", "u")]
    mult = [37, 53, 41, 61, 47, 61]
    gp, bc, a = write_unitary_walk(tmp_path, edges, np.multiply(mult, 10.0 / 300), 11)
    lo, hi = 3.0, 3.0 + 80 * math.pi / 10
    window = ["--window", str(lo), str(hi)]
    rc, located, err = run_json(capsys, ["spectrum", gp, "--bc", bc] + window)
    assert rc == EXIT_OK and err == ""
    assert located["solver"] == "eigenphase" and located["warnings"] == []
    exact = spectrum_exact_commensurable(a, mult, 10.0 / 300, (lo, hi))
    got = [(e["re"], e["mult"]) for e in located["eigenvalues"]]
    want = [(e.value.real, e.multiplicity) for e in exact.eigenvalues]
    assert 35 <= len(want) <= 45
    assert [m for _, m in got] == [m for _, m in want]
    assert [v for v, _ in got] == pytest.approx([v for v, _ in want], abs=1e-9)
    assert located["winding"] == sum(m for _, m in got)


def test_spectrum_locates_one_period_of_a_wide_commensurable_window(tmp_path, capsys):
    # lengths (1, 1.004) give d = 501 on 2 edges: the window holds about
    # 1.1e5 eigenvalues, 223 periods of 2 pi / 0.004; one is located
    gp, bc, _ = write_unitary_walk(tmp_path, [("u", "u"), ("u", "u")], [1.0, 1.004], 3)
    rc, payload, err = run_json(capsys, ["spectrum", gp, "--bc", bc, "--window", "0", "3.5e5"])
    assert rc == EXIT_OK and err == ""
    assert payload["solver"] == "eigenphase" and payload["warnings"] == []
    count = sum(e["mult"] for e in payload["eigenvalues"])
    assert payload["winding"] == count
    assert abs(count - 3.5e5 * 2.004 / (2 * math.pi)) < 3


@pytest.mark.parametrize("lower", ["-1e3", "-1E-1", "-.5", repr(-2 * math.pi)])
def test_spectrum_reads_negative_bounds_in_every_float_syntax(tmp_path, capsys, lower):
    gp = write_graph(tmp_path, rose(1))
    bc = write_json(tmp_path, "bc.json", {"type": "adjacency"})
    rc, payload, _ = run_json(capsys, ["spectrum", gp, "--bc", bc, "--window", lower, "0.5"])
    assert rc == EXIT_OK
    want = [2 * math.pi * k for k in range(-200, 1) if 2 * math.pi * k >= float(lower) - 1e-7]
    assert [e["re"] for e in payload["eigenvalues"]] == pytest.approx(want, abs=1e-9)
    rect = ["--rect", "-1e0", "1E-1", "-.5", "0.5"]
    rc, payload, _ = run_json(capsys, ["spectrum", gp, "--bc", bc] + rect)
    assert rc == EXIT_OK and payload["solver"] == "contour"
    assert [e["re"] for e in payload["eigenvalues"]] == pytest.approx([0.0], abs=1e-9)
    gp = write_graph(tmp_path, directed_cycle(3))
    perm = write_json(tmp_path, "perm.json", {"trails": [["e1", "e2", "e3"]]})
    argv = ["trails", gp, "--from-permutation", perm, "--spectrum", "--window", lower, "0.5"]
    rc, payload, _ = run_json(capsys, argv)
    assert rc == EXIT_OK
    want = [2 * math.pi * k / 3 for k in range(-500, 1) if 2 * math.pi * k / 3 >= float(lower)]
    assert [e["re"] for e in payload["eigenvalues"]] == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("re1", ["1e308", "1e12", "1e6"])
def test_spectrum_refuses_oversized_rectangles_at_once(tmp_path, capsys, re1):
    gp = write_graph(tmp_path, rose(1))
    bc = write_json(tmp_path, "bc.json", {"type": "adjacency"})
    start = time.perf_counter()
    rc, out, err = run(capsys, ["spectrum", gp, "--bc", bc, "--rect", "0", re1, "-1", "1"])
    assert time.perf_counter() - start < 1.0
    assert rc == EXIT_REFUSAL and out == "" and "split it into smaller pieces" in err


def test_spectrum_lists_both_roots_of_a_close_pair(tmp_path, capsys):
    gp = write_graph(tmp_path, rose(2))
    pair = GEndomorphism(rose(2), np.diag([2.0, 2.000003]))
    bc = write_json(tmp_path, "bc.json", endomorphism_to_json(pair))
    rc, payload, err = run_json(capsys, ["spectrum", gp, "--bc", bc, "--window", "-1", "1"])
    assert rc == EXIT_OK and err == "" and payload["warnings"] == []
    assert [e["mult"] for e in payload["eigenvalues"]] == [1, 1]
    want = [-math.log(2.000003), -math.log(2.0)]
    assert sorted(e["im"] for e in payload["eigenvalues"]) == pytest.approx(want, abs=1e-12)


def test_spectrum_keeps_the_roots_beside_a_zero_column(tmp_path, capsys):
    # loops of lengths 30 and 31 with A = diag(2, 0): the exact route lists
    # the 30 roots of z^30 = 2 once per period, none joined to the zeros
    g = graph_from_edges([("a", "u", "u", 30.0), ("b", "u", "u", 31.0)])
    gp = write_graph(tmp_path, g)
    bc = write_json(tmp_path, "bc.json", endomorphism_to_json(GEndomorphism(g, np.diag([2.0, 0.0]))))
    argv = ["spectrum", gp, "--bc", bc, "--window", "-0.1", str(2 * math.pi - 0.1)]
    rc, payload, err = run_json(capsys, argv)
    assert rc == EXIT_OK and err == "" and payload["warnings"] == []
    assert [e["mult"] for e in payload["eigenvalues"]] == [1] * 30
    assert [e["im"] for e in payload["eigenvalues"]] == pytest.approx([-math.log(2) / 30] * 30)


def test_spectrum_refuses_exact_windows_it_cannot_list(tmp_path, capsys):
    # one period of 2 pi is located, but the window would list about
    # 1.4e300 of its translates
    gp = write_graph(tmp_path, rose(1))
    bc = write_json(tmp_path, "bc.json", {"type": "adjacency"})
    start = time.perf_counter()
    rc, out, err = run(capsys, ["spectrum", gp, "--bc", bc, "--window", "1e300", "1e301"])
    assert time.perf_counter() - start < 1.0
    assert rc == EXIT_REFUSAL and out == "" and "split it into smaller pieces" in err


def test_spectrum_refuses_a_contour_that_would_exhaust_memory(tmp_path):
    # det T = exp(20 i lambda) has no zeros, but high up T is close to the
    # nilpotent -A: panels there are bisected without reaching the floor
    g = graph_from_edges([("a", "u", "u", 10.0), ("b", "u", "u", 10.0)])
    gp = write_graph(tmp_path, g)
    nilpotent = GEndomorphism(g, np.array([[0.0, 1.0], [0.0, 0.0]]))
    bc = write_json(tmp_path, "bc.json", endomorphism_to_json(nilpotent))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(diracgraph.__file__)))
    argv = ["spectrum", gp, "--bc", bc, "--rect", "0", "4", "-1", "1"]
    proc = subprocess.run(
        [sys.executable, "-c", f"from diracgraph.cli import main; raise SystemExit(main({argv}))"],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src),
        preexec_fn=cap_memory,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert "MemoryError" not in proc.stderr
    assert proc.returncode == EXIT_REFUSAL and proc.stdout == "" and "refused" in proc.stderr
    start = time.perf_counter()
    with pytest.raises(WindowTooLargeError, match="shrink the rectangle"):
        spectrum_complex(nilpotent, rect=(0.0, 4.0, -1.0, 1.0))
    assert time.perf_counter() - start < 5.0


def test_spectrum_locates_unitary_maps_above_the_edge_cap(tmp_path, capsys):
    # 60 edges with incommensurable lengths, past the expansion's edge cap
    rng = np.random.default_rng(5)
    edges = [(f"v{k % 6}", f"v{(k + 1) % 6}") for k in range(60)]
    lengths = rng.uniform(0.5, 1.5, size=60)
    gp, bc, a = write_unitary_walk(tmp_path, edges, lengths, 5)
    rc, payload, _ = run_json(capsys, ["spectrum", gp, "--bc", bc, "--window", "0", "2"])
    assert rc == EXIT_OK
    assert payload["solver"] == "eigenphase" and payload["warnings"] == []
    values = [(e["re"], e["mult"]) for e in payload["eigenvalues"]]
    assert len(values) >= 10 and payload["winding"] == sum(m for _, m in values)
    for lam, m in values:
        sv = np.linalg.svd(np.diag(np.exp(1j * lam * lengths)) - a.matrix, compute_uv=False)
        assert np.count_nonzero(sv < 1e-8) == m


# -- charpoly -------------------------------------------------------------


def test_charpoly_adjacency_univariate(tmp_path, capsys):
    gp = write_graph(tmp_path, rose(2))
    rc, payload, _ = run_json(capsys, ["charpoly", gp, "--adjacency"])
    assert rc == EXIT_OK
    assert payload == {"base_length": 1.0, "coeffs_low_to_high": [0, -2, 1]}


def test_charpoly_multivariate(tmp_path, capsys):
    gp = write_graph(tmp_path, rose(2))
    rc, payload, _ = run_json(
        capsys, ["charpoly", gp, "--adjacency", "--multivariate"]
    )
    assert rc == EXIT_OK
    sets = {tuple(t["edges"]) for t in payload["terms"]}
    assert sets == {("e1",), ("e2",), ("e1", "e2")}


def test_charpoly_pretty_univariate(tmp_path, capsys):
    gp = write_graph(tmp_path, directed_cycle(3))
    bc = write_json(tmp_path, "bc.json", {"type": "adjacency"})
    rc, out, _ = run(capsys, ["charpoly", gp, "--bc", bc, "--format", "pretty"])
    assert rc == EXIT_OK
    assert out.strip() == "t^3 - 1"


def test_charpoly_univariate_refused_for_incommensurable(tmp_path, capsys):
    gp = write_graph(tmp_path, TWO_LOOPS)
    rc, _, err = run(capsys, ["charpoly", gp, "--adjacency"])
    assert rc == EXIT_REFUSAL
    assert "commensurable" in err


def test_charpoly_needs_a_map(tmp_path, capsys):
    gp = write_graph(tmp_path, rose(1))
    rc, _, err = run(capsys, ["charpoly", gp])
    assert rc == EXIT_REFUSAL
    assert "--adjacency" in err


@pytest.mark.parametrize("use_bc", [False, True])
def test_charpoly_honours_cap(tmp_path, capsys, use_bc):
    gp = write_graph(tmp_path, rose(4))
    bc = write_json(tmp_path, "bc.json", {"type": "adjacency"})
    argv = ["charpoly", gp, *(["--bc", bc] if use_bc else ["--adjacency"])]
    rc, _, err = run(capsys, argv + ["--cap", "3"])
    assert rc == EXIT_REFUSAL
    assert "capped at 3" in err
    rc, _, _ = run(capsys, argv + ["--cap", "4"])
    assert rc == EXIT_OK


# -- trails ---------------------------------------------------------------


def test_trails_enumerate(tmp_path, capsys):
    gp = write_graph(tmp_path, rose(2))
    rc, payload, _ = run_json(capsys, ["trails", gp, "--enumerate"])
    assert rc == EXIT_OK
    assert payload["count"] == 2
    sets = {
        tuple(tuple(t) for t in d["trails"]) for d in payload["decompositions"]
    }
    assert (("e1",), ("e2",)) in sets
    assert (("e1", "e2"),) in sets


def test_trails_enumerate_unbalanced_graph_refused(tmp_path, capsys):
    g = graph_from_edges([("e", "u", "w", 1.0)])
    gp = write_graph(tmp_path, g)
    rc, _, err = run(capsys, ["trails", gp, "--enumerate"])
    assert rc == EXIT_REFUSAL
    assert "unbalanced" in err


def test_trails_spectrum_from_decomposition_file(tmp_path, capsys):
    gp = write_graph(tmp_path, directed_cycle(3))
    perm = write_json(tmp_path, "perm.json", {"trails": [["e1", "e2", "e3"]]})
    rc, payload, _ = run_json(
        capsys,
        ["trails", gp, "--from-permutation", perm, "--spectrum",
         "--window", "-1", "7"],
    )
    assert rc == EXIT_OK
    assert payload["solver"] == "closed-form"
    assert payload["trails"] == [["e1", "e2", "e3"]]
    assert payload["longest_trail"] == {"length": pytest.approx(3.0), "count": 1}
    res = [(e["re"], e["mult"]) for e in payload["eigenvalues"]]
    expected = [0.0, 2 * math.pi / 3, 4 * math.pi / 3, 2 * math.pi]
    assert [r[0] for r in res] == pytest.approx(expected, abs=1e-12)
    assert [r[1] for r in res] == [1, 1, 1, 1]


@pytest.mark.parametrize("lo, want", [(1000.0, 2), (1e5, 4)])
def test_trails_spectrum_keeps_close_eigenvalues_of_different_trails(tmp_path, capsys, lo, want):
    # the two loops' lattices 2 pi k and 2 pi k / (1 + 5e-10) pair up 5e-7
    # apart near 1000 and 5e-5 apart near 1e5: every eigenvalue is simple
    gp = write_graph(tmp_path, NEAR_TWINS)
    perm = write_json(tmp_path, "perm.json", {"map": {"a": "a", "b": "b"}})
    argv = ["trails", gp, "--from-permutation", perm, "--spectrum"]
    argv += ["--window", str(lo), str(lo + 10)]
    rc, payload, err = run_json(capsys, argv)
    assert rc == EXIT_OK and err == ""
    ks = range(math.ceil(lo / (2 * math.pi)), math.floor((lo + 10) / (2 * math.pi)) + 1)
    values = sorted(2 * math.pi * k / l for k in ks for l in (1.0, 1 + 5e-10))
    assert [e["re"] for e in payload["eigenvalues"]] == pytest.approx(values, rel=1e-12)
    assert [e["mult"] for e in payload["eigenvalues"]] == [1] * want
    assert all(e["residual"] <= 1e-10 for e in payload["eigenvalues"])


def test_trails_spectrum_empty_window_is_bad_input(tmp_path, capsys):
    gp = write_graph(tmp_path, directed_cycle(3))
    perm = write_json(tmp_path, "perm.json", {"trails": [["e1", "e2", "e3"]]})
    rc, out, err = run(
        capsys,
        ["trails", gp, "--from-permutation", perm, "--spectrum", "--window", "5", "1"],
    )
    assert rc == EXIT_BAD_INPUT
    assert out == "" and err.startswith("input error: ")


def test_trails_spectrum_refuses_windows_past_the_locator_bound(tmp_path, capsys):
    # one trail of length 1 + sqrt(2): the window would hold about 2e5
    # eigenvalues, twice the bound, and is refused before any is listed
    gp = write_graph(tmp_path, TWO_LOOPS)
    perm = write_json(tmp_path, "perm.json", {"map": {"a": "b", "b": "a"}})
    width = 2e5 * 2 * math.pi / (1 + math.sqrt(2))
    argv = ["trails", gp, "--from-permutation", perm, "--spectrum", "--window", "0", str(width)]
    start = time.perf_counter()
    rc, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert rc == EXIT_REFUSAL and out == "" and "split it into smaller pieces" in err


def test_pretty_spectrum_builds_no_json_payload(tmp_path, capsys, monkeypatch):
    import diracgraph.cli as cli

    calls = []
    original = cli.report_to_json

    def counted(report):
        calls.append(report)
        return original(report)

    monkeypatch.setattr(cli, "report_to_json", counted)
    gp = write_graph(tmp_path, directed_cycle(3))
    bc = write_json(tmp_path, "bc.json", {"type": "adjacency"})
    perm = write_json(tmp_path, "perm.json", {"trails": [["e1", "e2", "e3"]]})
    spectrum = ["spectrum", gp, "--bc", bc, "--window", "-1", "7"]
    trails = ["trails", gp, "--from-permutation", perm, "--spectrum"]
    for argv in (spectrum, trails + ["--window", "-1", "7"]):
        rc, out, _ = run(capsys, argv + ["--format", "pretty"])
        assert rc == EXIT_OK and out.startswith("solver: ")
    # an empty positive window still warns in the pretty format
    rc, _, err = run(capsys, trails + ["--window", "-7", "-1", "--format", "pretty"])
    assert rc == EXIT_OK and "longest trail omitted" in err
    assert calls == []
    rc, payload, _ = run_json(capsys, spectrum)
    assert rc == EXIT_OK and len(calls) == 1


def test_trails_from_permutation_map_file(tmp_path, capsys):
    gp = write_graph(tmp_path, rose(2))
    perm = write_json(tmp_path, "perm.json", {"map": {"e1": "e2", "e2": "e1"}})
    rc, payload, _ = run_json(capsys, ["trails", gp, "--from-permutation", perm])
    assert rc == EXIT_OK
    assert payload == {"trails": [["e1", "e2"]]}


def test_trails_needs_a_mode(tmp_path, capsys):
    gp = write_graph(tmp_path, rose(1))
    rc, _, err = run(capsys, ["trails", gp])
    assert rc == EXIT_REFUSAL
    assert "--enumerate" in err


# -- topology -------------------------------------------------------------


def test_topology_triangle(tmp_path, capsys):
    # undirected edge connectivity 4 unlocks the cycle counts of lengths 3..6
    gp = write_graph(tmp_path, bidirected_triangle())
    rc, payload, _ = run_json(capsys, ["topology", gp])
    assert rc == EXIT_OK
    assert payload["girth"] == 2
    assert payload["cycle_counts"] == {"1": 0, "2": 3, "3": 2}
    assert payload["long_cycle_counts"] == {"3": 2, "4": 0, "5": 0, "6": 0}
    assert payload["profile"] == {
        "n": 6,
        "coeffs_low_to_high": [0, 0, 0, -2, -3, 0, 1],
    }


def test_topology_computes_the_edge_connectivity(tmp_path, capsys):
    # loops a at u and b at v, joined by c: u->v and d: v->u; undirected
    # edge connectivity 2, so only the cycles of lengths 4 and 3 are read off
    g = graph_from_edges(
        [("a", "u", "u", 1.0), ("b", "v", "v", 1.0), ("c", "u", "v", 1.0), ("d", "v", "u", 1.0)]
    )
    gp = write_graph(tmp_path, g)
    rc, payload, _ = run_json(capsys, ["topology", gp])
    assert rc == EXIT_OK
    assert payload["cycle_counts"] == {"1": 2}
    assert payload["long_cycle_counts"] == {"3": 0, "4": 0}


def test_topology_honours_cap(tmp_path, capsys):
    gp = write_graph(tmp_path, rose(4))
    rc, _, err = run(capsys, ["topology", gp, "--cap", "3"])
    assert rc == EXIT_REFUSAL
    assert "capped at 3" in err


def test_topology_acyclic_refused(tmp_path, capsys):
    g = graph_from_edges([("e", "u", "w", 1.0)])
    gp = write_graph(tmp_path, g)
    rc, _, err = run(capsys, ["topology", gp])
    assert rc == EXIT_REFUSAL
    assert "girth" in err


# -- selfadjoint ----------------------------------------------------------


def test_selfadjoint_recovers_unitary(tmp_path, capsys):
    g = rose(1)
    gp = write_graph(tmp_path, g)
    sub = graph_of(GEndomorphism(g, np.array([[1j]])))
    bc = write_json(tmp_path, "bc.json", subspace_to_json(sub))
    rc, payload, _ = run_json(capsys, ["selfadjoint", gp, "--bc", bc])
    assert rc == EXIT_OK
    assert payload["selfadjoint"] is True
    [[pair]] = payload["unitary"]
    assert pair[0] == pytest.approx(0.0, abs=1e-9)
    assert pair[1] == pytest.approx(1.0)


def test_selfadjoint_refuses_non_unitary_map(tmp_path, capsys):
    g = rose(1)
    gp = write_graph(tmp_path, g)
    sub = graph_of(GEndomorphism(g, np.array([[2.0]])))
    bc = write_json(tmp_path, "bc.json", subspace_to_json(sub))
    rc, payload, err = run_json(capsys, ["selfadjoint", gp, "--bc", bc])
    assert rc == EXIT_REFUSAL
    assert payload == {"selfadjoint": False, "reason": "B != B^ad"}
    assert "B != B^ad" in err


def test_selfadjoint_refuses_dimension_mismatch(tmp_path, capsys):
    gp = write_graph(tmp_path, rose(1))
    bc = write_json(tmp_path, "bc.json", {"type": "subspace", "basis": []})
    rc, payload, _ = run_json(capsys, ["selfadjoint", gp, "--bc", bc])
    assert rc == EXIT_REFUSAL
    assert payload["reason"] == "dim != |E|"


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_tolerance_must_be_finite_and_positive(tmp_path, capsys, tol):
    gp = write_graph(tmp_path, rose(1))
    bc = write_json(tmp_path, "bc.json", {"type": "adjacency"})
    for argv in (["spectrum", gp, "--bc", bc], ["selfadjoint", gp, "--bc", bc]):
        rc, out, err = run(capsys, argv + ["--tol", tol])
        assert rc == EXIT_BAD_INPUT
        assert out == "" and err.startswith("input error: ")


# -- plumbing -------------------------------------------------------------


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    # a --rect goes to the contour solver, a --window to the eigenphase locator
    g = graph_from_edges([("a", "u", "u", 0.3), ("b", "u", "u", 0.7)])
    gp = write_graph(tmp_path, g)
    bc = write_json(tmp_path, "bc.json", endomorphism_to_json(GEndomorphism(g, np.eye(2))))
    rect = ["spectrum", gp, "--bc", bc, "--rect", "-1", "10", "-1", "1"]
    rc, first, _ = run(capsys, rect)
    assert rc == EXIT_OK and json.loads(first)["solver"] == "contour"
    rc, routed, _ = run_json(capsys, ["spectrum", gp, "--bc", bc, "--window", "-1", "10"])
    assert rc == EXIT_OK and routed["solver"] == "eigenphase"
    for argv in (["--version"], ["spectrum", gp, "--bc", bc, "--no-such-option"]):
        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()
    rc, again, _ = run(capsys, rect)
    assert rc == EXIT_OK and again == first




def test_malformed_boundary_is_bad_input(tmp_path, capsys):
    gp = write_graph(tmp_path, rose(1))
    bc = write_json(tmp_path, "bc.json", {"type": "mystery"})
    rc, _, err = run(capsys, ["index", gp, "--bc", bc])
    assert rc == EXIT_BAD_INPUT
    assert "input error" in err


def test_invalid_graph_refused_by_analysis_commands(tmp_path, capsys):
    doc = graph_to_json(rose(1))
    doc["vertices"].append("island")
    gp = write_json(tmp_path, "bad.json", doc)
    bc = write_json(tmp_path, "bc.json", {"type": "adjacency"})
    rc, _, err = run(capsys, ["spectrum", gp, "--bc", bc])
    assert rc == EXIT_REFUSAL
    assert "invalid graph" in err


def test_output_is_deterministic(tmp_path, capsys):
    gp = write_graph(tmp_path, bidirected_triangle())
    bc = write_json(tmp_path, "bc.json", {"type": "adjacency"})
    argv = ["spectrum", gp, "--bc", bc, "--window", "-4", "4"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--threads", "4"],
        ["spectrum", "--bc", "bc.json", "--seed", "7"],
        ["charpoly", "--adjacency", "--univariate"],
        ["validate", "--cap", "3"],
        ["index", "--bc", "bc.json", "--cap", "3"],
        ["spectrum", "--bc", "bc.json", "--cap", "3"],
        ["trails", "--enumerate", "--cap", "3"],
        ["selfadjoint", "--bc", "bc.json", "--cap", "3"],
        ["topology", "--k-connectivity", "2"],
        ["validate", "--tol", "1e-10"],
        ["index", "--bc", "bc.json", "--tol", "1e-10"],
        ["charpoly", "--adjacency", "--tol", "1e-10"],
        ["trails", "--enumerate", "--tol", "1e-10"],
        ["topology", "--tol", "1e-10"],
        ["spectrum", "--bc", "bc.json", "--exact"],
        ["spectrum", "--bc", "bc.json", "--contour"],
    ],
)
def test_options_that_would_do_nothing_are_rejected(tmp_path, argv):
    gp = write_graph(tmp_path, rose(1))
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + [gp] + argv[1:])
    assert exc.value.code == 2  # argparse's usage error
