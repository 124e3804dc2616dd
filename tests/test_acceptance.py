"""Acceptance suite: the headline guarantees of the library, checked end to end.

Each test covers one guarantee, prints a single ``ACCEPTANCE n: PASS|FAIL``
line (run pytest with ``-s`` to see them on success) and enforces both the
advertised tolerance and a wall clock budget.
"""

import math
import time

import numpy as np

from diracgraph import (
    CharFunction,
    CoefficientProfile,
    GEndomorphism,
    TraceSpace,
    Window,
    bidirected_triangle,
    build_adjacency,
    char_poly,
    charpoly_via_collections,
    directed_cycle,
    enumerate_cycles,
    graph_from_edges,
    graph_of,
    is_eulerian_components,
    is_unitary,
    longest_trail_from_spectrum,
    looped_dumbbell,
    permutation_spectrum,
    permutation_to_decomposition,
    reduce_vertex,
    rose,
    scalar_cokernel_dim,
    scalar_kernel_dim,
    self_adjointness_witness,
    specialize_univariate,
    spectrum_complex,
    spectrum_exact_commensurable,
    spectrum_numeric,
    subdivide_edge,
    topology_from_coefficients,
)
from diracgraph.randgen import (
    random_eulerian_graph,
    random_g_endomorphism,
    random_g_permutation,
    random_graph,
    random_subspace,
    random_unitary_g_endomorphism,
)
from oracles import girth_bruteforce, span_distance


def _finish(criterion: int, failures: list, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert not failures, failures[:5]
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget:.0f}s budget"


def test_acceptance_1_index_equals_dim_minus_edges():
    """kernel - cokernel = dim B - |E| exactly, for subspaces of every dimension."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    failures = []
    for _ in range(200):
        g = random_graph(rng, max_edges=6)
        space = TraceSpace(g)
        for dim in range(2 * g.n_edges + 1):
            b = random_subspace(space, dim, rng)
            got = scalar_kernel_dim(b) - scalar_cokernel_dim(b)
            if got != dim - g.n_edges:
                failures.append(
                    f"{g.n_edges} edges, dim {dim}: index {got} != {dim - g.n_edges}"
                )
    _finish(1, failures, t0, budget=10.0)


def test_acceptance_2_selfadjointness_classification():
    """Unitary edge maps are recovered from their graphs; everything else is
    refused with the right reason."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    failures = []

    for i in range(100):
        g = random_eulerian_graph(rng, max_edges=8)
        a = random_unitary_g_endomorphism(g, rng)
        b = graph_of(a)
        result = self_adjointness_witness(b)
        if result.endomorphism is None:
            failures.append(f"positive {i}: refused with {result.reason!r}")
            continue
        if not is_unitary(result.endomorphism):
            failures.append(f"positive {i}: witness not unitary")
        dist = span_distance(graph_of(result.endomorphism).matrix, b.matrix)
        if not dist < 1e-9:
            failures.append(f"positive {i}: subspace distance {dist:.2e}")

    for i in range(50):
        g = random_eulerian_graph(rng, max_edges=8)
        a = random_g_endomorphism(g, rng)
        result = self_adjointness_witness(graph_of(a))
        if result.reason != "B != B^ad":
            failures.append(f"non-unitary {i}: reason {result.reason!r}")

    produced = 0
    while produced < 50:
        g = random_graph(rng, max_edges=6)
        if is_eulerian_components(g):
            continue
        a = random_g_endomorphism(g, rng)
        result = self_adjointness_witness(graph_of(a))
        if result.reason != "graph not Eulerian":
            failures.append(f"non-Eulerian {produced}: reason {result.reason!r}")
        produced += 1

    _finish(2, failures, t0, budget=10.0)


def test_acceptance_3_cycle_spectrum_closed_form():
    """Scan on a weighted cycle reproduces lambda_k = (sum phases + 2 pi k)/L."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    failures = []
    for n in range(1, 6):
        lengths = rng.uniform(0.5, 2.0, size=n)
        phases = rng.uniform(-math.pi, math.pi, size=n)
        g = graph_from_edges(
            [(f"e{i + 1}", f"v{i + 1}", f"v{(i + 1) % n + 1}", lengths[i])
             for i in range(n)]
        )
        m = np.zeros((n, n), dtype=complex)
        for j in range(n):
            m[(j + 1) % n, j] = np.exp(1j * phases[j])
        a = GEndomorphism(g, m)

        total = float(np.sum(lengths))
        phase_sum = float(np.sum(phases))
        k_lo = math.ceil((-20.0 * total - phase_sum) / (2 * math.pi))
        k_hi = math.floor((20.0 * total - phase_sum) / (2 * math.pi))
        expected = sorted(
            (phase_sum + 2 * math.pi * k) / total for k in range(k_lo, k_hi + 1)
        )

        report = spectrum_numeric(a, g.lengths(), Window.real(-20.0, 20.0))
        got = [e.value.real for e in report.eigenvalues]
        if len(got) != len(expected):
            failures.append(f"C_{n}: {len(got)} eigenvalues, expected {len(expected)}")
            continue
        worst = max(abs(x - y) for x, y in zip(got, expected))
        if not worst < 1e-8:
            failures.append(f"C_{n}: worst eigenvalue error {worst:.2e}")
        if any(e.multiplicity != 1 for e in report.eigenvalues):
            failures.append(f"C_{n}: non-simple multiplicity reported")
    _finish(3, failures, t0, budget=5.0)


def test_acceptance_4_permutation_spectrum_matches_exact_solver():
    """Closed-form trail spectra agree with the exact solver, count trails at
    zero, and identify the longest trail."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    window = Window.real(-6.9, 6.9)
    failures = []
    for i in range(50):
        g = random_eulerian_graph(rng, max_edges=8, unit_lengths=True)
        p = random_g_permutation(g, rng)
        decomp = permutation_to_decomposition(p)

        closed = permutation_spectrum(p, g.lengths(), window)
        exact = spectrum_exact_commensurable(
            p.to_endomorphism(), [1] * g.n_edges, 1.0, window
        )
        cvals = [(e.value, e.multiplicity) for e in closed.eigenvalues]
        evals = [(e.value, e.multiplicity) for e in exact.eigenvalues]
        if len(cvals) != len(evals):
            failures.append(f"graph {i}: {len(cvals)} closed vs {len(evals)} exact")
            continue
        for (cv, cm), (ev, em) in zip(cvals, evals):
            if abs(cv - ev) >= 1e-9:
                failures.append(f"graph {i}: value gap {abs(cv - ev):.2e}")
            if cm != em:
                failures.append(f"graph {i}: multiplicity {cm} vs {em} at {cv:.4f}")

        at_zero = [e for e in closed.eigenvalues if abs(e.value) < 1e-12]
        if not at_zero or at_zero[0].multiplicity != len(decomp.trails):
            failures.append(f"graph {i}: m(0) does not count the trails")

        length, _count = longest_trail_from_spectrum(closed)
        true_max = max(len(t) for t in decomp.trails)
        if abs(length - true_max) >= 1e-9:
            failures.append(f"graph {i}: longest {length} != {true_max}")
    _finish(4, failures, t0, budget=30.0)


CORPUS_UNIVARIATE = (
    [(rose(n), [0] * (n - 1) + [-n, 1]) for n in range(1, 7)]
    + [(directed_cycle(n), [-1] + [0] * (n - 1) + [1]) for n in range(1, 9)]
    + [(looped_dumbbell(), [0, 0, 0, -2, 1]),
       (bidirected_triangle(), [0, 0, 0, -2, -3, 0, 1])]
)


def _corpus_graphs():
    rng = np.random.default_rng(505)
    graphs = [g for g, _ in CORPUS_UNIVARIATE]
    graphs += [random_graph(rng, max_edges=10, max_vertices=5) for _ in range(100)]
    return graphs


def test_acceptance_5_collection_charpoly_matches_determinant():
    """Cycle collection expansion equals the determinant expansion with exact
    integer coefficients, and named families give their known polynomials."""
    t0 = time.perf_counter()
    failures = []
    for g, expected in CORPUS_UNIVARIATE:
        coeffs = specialize_univariate(charpoly_via_collections(g), [1] * g.n_edges)
        listed = [complex(c) for c in coeffs]
        if any(c.imag != 0 for c in listed) or [
            int(c.real) for c in listed
        ] != expected:
            failures.append(f"{g.n_edges}-edge corpus graph: {listed} != {expected}")
    for i, g in enumerate(_corpus_graphs()):
        via_collections = charpoly_via_collections(g)
        via_det = char_poly(build_adjacency(g))
        if via_collections.terms != via_det.terms:
            failures.append(f"graph {i}: expansions differ")
            continue
        if any(c != round(c.real) for c in via_collections.terms.values()):
            failures.append(f"graph {i}: non-integer coefficient")
    _finish(5, failures, t0, budget=60.0)


def test_acceptance_6_coefficient_topology_matches_brute_force():
    """Girth and short cycle counts read off the coefficients agree with
    explicit cycle enumeration on every cyclic corpus graph."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for i, g in enumerate(_corpus_graphs()):
        brute = girth_bruteforce(g)
        if brute is None:
            continue
        checked += 1
        top = topology_from_coefficients(CoefficientProfile.from_graph(g))
        if top.girth != brute:
            failures.append(f"graph {i}: girth {top.girth} != {brute}")
            continue
        counts: dict[int, int] = {}
        for c in enumerate_cycles(g):
            if c.edge_count < 2 * top.girth:
                counts[c.edge_count] = counts.get(c.edge_count, 0) + 1
        for l, count in top.cycle_counts.items():
            if count != counts.get(l, 0):
                failures.append(f"graph {i}: {count} cycles of length {l}")
    if checked < 20:
        failures.append(f"only {checked} cyclic graphs in the corpus")
    _finish(6, failures, t0, budget=10.0)


def test_acceptance_7_vertex_reduction_preserves_char_function():
    """Contracting a degree-(1,1) vertex leaves the characteristic function
    unchanged up to 1e-9 of its coefficient scale."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    failures = []
    for i in range(50):
        base = random_graph(rng, max_edges=5)
        eid = base.edges[rng.integers(0, base.n_edges)].id
        g, mid = subdivide_edge(base, eid, split=float(rng.uniform(0.3, 0.7)))
        a = random_g_endomorphism(g, rng)
        reduced_graph, reduced = reduce_vertex(a, mid)

        cf = CharFunction(char_poly(a), g.lengths())
        cf_red = CharFunction(char_poly(reduced), reduced_graph.lengths())
        lams = rng.uniform(-30.0, 30.0, size=50)
        gap = max(abs(cf.eval(lam) - cf_red.eval(lam)) for lam in lams)
        if not gap < 1e-9 * cf.scale:
            failures.append(f"graph {i}: reduction defect {gap:.2e}")
    _finish(7, failures, t0, budget=5.0)


def test_acceptance_8_adjacency_contour_on_double_loop():
    """The contour solver finds exactly the two complex eigenvalues of the
    double loop under its adjacency condition."""
    t0 = time.perf_counter()
    failures = []
    g = rose(2)
    report = spectrum_complex(
        build_adjacency(g), g.lengths(), Window.rect(-1.0, 7.0, -2.0, 0.5)
    )
    expected = [complex(0.0, -math.log(2)), complex(2 * math.pi, -math.log(2))]
    got = [e.value for e in report.eigenvalues]
    if len(got) != 2:
        failures.append(f"{len(got)} eigenvalues, expected 2")
    else:
        worst = max(abs(x - y) for x, y in zip(got, expected))
        if not worst < 1e-9:
            failures.append(f"worst eigenvalue error {worst:.2e}")
    if report.winding != 2:
        failures.append(f"winding total {report.winding} != 2")
    if any(not e.residual < 1e-9 for e in report.eigenvalues):
        failures.append("residual above 1e-9")
    _finish(8, failures, t0, budget=5.0)
