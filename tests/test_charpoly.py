"""Multivariate characteristic polynomials, vertex contraction, secular functions."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracgraph import (
    CharFunction,
    GEndomorphism,
    MultiPoly,
    char_function,
    char_poly,
    detect_commensurable,
    directed_cycle,
    graph_from_edges,
    looped_dumbbell,
    permutation_to_decomposition,
    reduce_vertex,
    rose,
    specialize_univariate,
    univariate_to_string,
)
from diracgraph.charpoly import edge_classes
from diracgraph.errors import EnumerationCapExceeded
from diracgraph.randgen import (
    random_eulerian_graph,
    random_g_endomorphism,
    random_g_permutation,
    random_graph,
)
from oracles import (
    commensurable_by_fractions,
    evaluate_point,
    split_reducible,
    substitute_one,
)


def exact_det(rows):
    """Integer determinant by permutation expansion; exact for int entries."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = (-1) ** inv
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def charpoly_by_minors(mat, ids):
    """det(diag(x) - A) by subsets: the coefficient of ``x^S`` is the
    determinant of ``-A`` restricted to the complement of ``S``.  Independent
    of the Laplace recursion under test."""
    n = len(ids)
    out = {}
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            rest = [i for i in range(n) if i not in subset]
            rows = [[-mat[i][j] for j in rest] for i in rest]
            c = exact_det(rows)
            if c != 0:
                out[frozenset(ids[i] for i in subset)] = c
    return out


def random_integer_map(g, rng, lo=-3, hi=4):
    support = GEndomorphism.allowed_support(g)
    m = rng.integers(lo, hi, size=support.shape)
    return GEndomorphism(g, np.where(support, m, 0).astype(complex))


# -- MultiPoly algebra ----------------------------------------------------


def test_edge_set_round_trip():
    mapping = {
        frozenset(): 2.0 + 0j,
        frozenset({"a"}): -1.0,
        frozenset({"a", "b"}): 3.0j,
    }
    p = MultiPoly.from_edge_sets(("a", "b"), mapping)
    assert p.n_vars == 2
    assert p.term_edge_sets() == mapping


def test_substitute_one_drops_variable():
    ids = ("e1", "e2")
    p = MultiPoly.from_edge_sets(
        ids,
        {frozenset({"e1", "e2"}): 1.0, frozenset({"e1"}): -1.0, frozenset({"e2"}): -1.0},
    )
    q = substitute_one(p, "e1")
    assert q.edge_ids == ("e2",)
    # x1 x2 - x1 - x2 at x1 = 1 collapses to the constant -1
    assert q.cleaned().term_edge_sets() == {frozenset(): -1.0}
    assert evaluate_point(q, [0.37 + 0.2j]) == pytest.approx(-1.0)


def test_evaluate_point():
    p = MultiPoly.from_edge_sets(
        ("a", "b"), {frozenset({"a", "b"}): 2.0, frozenset({"b"}): -1.0j}
    )
    va, vb = 1.5 - 0.5j, -0.25 + 2.0j
    assert evaluate_point(p, [va, vb]) == pytest.approx(2.0 * va * vb - 1.0j * vb)


def test_cleaned_drops_cancellation_dust():
    p = MultiPoly(("a",), {0: 1e-20, 1: 1.0})
    assert p.cleaned().terms == {1: 1.0}


# -- characteristic polynomial --------------------------------------------


def test_zero_map_gives_pure_monomial():
    g = rose(3)
    p = char_poly(GEndomorphism(g, np.zeros((3, 3))))
    assert p.term_edge_sets() == {frozenset({"e1", "e2", "e3"}): 1.0}


def test_two_rose_all_ones():
    g = rose(2)
    p = char_poly(GEndomorphism(g, np.ones((2, 2))))
    assert p.term_edge_sets() == {
        frozenset({"e1", "e2"}): 1.0,
        frozenset({"e1"}): -1.0,
        frozenset({"e2"}): -1.0,
    }


def test_cycle_shift_product_minus_one():
    g = directed_cycle(4)
    m = np.zeros((4, 4))
    for i in range(4):
        m[(i + 1) % 4, i] = 1.0
    p = char_poly(GEndomorphism(g, m))
    full = frozenset(f"e{i}" for i in range(1, 5))
    assert p.term_edge_sets() == {full: 1.0, frozenset(): -1.0}


def test_leading_coefficient_always_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng, max_edges=5)
        a = random_g_endomorphism(g, rng)
        p = char_poly(a)
        assert p.terms[(1 << g.n_edges) - 1] == 1.0


def test_integer_maps_match_minor_expansion_exactly():
    rng = np.random.default_rng(23)
    for _ in range(40):
        g = random_graph(rng, max_edges=5)
        a = random_integer_map(g, rng)
        ids = tuple(e.id for e in g.edges)
        want = charpoly_by_minors(
            [[int(x.real) for x in row] for row in a.matrix], ids
        )
        got = char_poly(a).term_edge_sets()
        assert set(got) == set(want)
        for key, c in got.items():
            assert c.imag == 0.0
            assert c.real == want[key]


def test_matches_numeric_determinant_at_random_points():
    rng = np.random.default_rng(31)
    for _ in range(25):
        g = random_graph(rng, max_edges=6)
        a = random_g_endomorphism(g, rng)
        p = char_poly(a)
        n = g.n_edges
        for _ in range(4):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            want = np.linalg.det(np.diag(x) - a.matrix)
            assert evaluate_point(p, x) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_expansion_cap():
    g = rose(3)
    with pytest.raises(EnumerationCapExceeded):
        char_poly(GEndomorphism(g, np.ones((3, 3))), cap=2)


# -- vertex contraction ---------------------------------------------------


def test_contract_two_cycle_to_loop():
    g = directed_cycle(2)
    a_val, b_val = 0.7 - 0.3j, -1.1 + 0.4j
    a = GEndomorphism(g, np.array([[0, b_val], [a_val, 0]]))
    g2, a2 = reduce_vertex(a, "v2")
    assert [e.id for e in g2.edges] == ["e1~e2"]
    e = g2.edges[0]
    assert e.tail == e.head == "v1"
    assert e.length == pytest.approx(2.0)
    assert a2.matrix[0, 0] == pytest.approx(a_val * b_val)
    # P = x1 x2 - ab becomes y - ab under y = x1 x2
    assert char_poly(a2).term_edge_sets() == {
        frozenset({"e1~e2"}): 1.0,
        frozenset(): pytest.approx(-a_val * b_val),
    }


def test_contraction_preserves_polynomial_under_substitution():
    # v has in and out degree one; u and w carry the rest of the structure.
    g = graph_from_edges(
        [
            ("e1", "u", "v", 0.8),
            ("e2", "v", "w", 1.3),
            ("e3", "w", "u", 0.6),
            ("e4", "w", "u", 1.1),
        ]
    )
    rng = np.random.default_rng(41)
    for _ in range(10):
        a = random_g_endomorphism(g, rng)
        p = char_poly(a)
        g2, a2 = reduce_vertex(a, "v")
        assert tuple(e.id for e in g2.edges) == ("e1~e2", "e3", "e4")
        p2 = char_poly(a2)
        for _ in range(6):
            x = rng.normal(size=4) + 1j * rng.normal(size=4)
            got = evaluate_point(p2, [x[0] * x[1], x[2], x[3]])
            assert got == pytest.approx(evaluate_point(p, x), rel=1e-9, abs=1e-10)


def test_contraction_preserves_secular_function():
    g = graph_from_edges(
        [
            ("e1", "u", "v", 0.9),
            ("e2", "v", "u", 0.7),
            ("e3", "u", "u", 1.4),
        ]
    )
    rng = np.random.default_rng(43)
    a = random_g_endomorphism(g, rng)
    f = char_function(a)
    g2, a2 = reduce_vertex(a, "v")
    f2 = char_function(a2)
    assert g2.total_length == pytest.approx(g.total_length)
    for lam in rng.normal(size=8) + 1j * 0.2 * rng.normal(size=8):
        assert complex(f2.eval(lam)) == pytest.approx(complex(f.eval(lam)), rel=1e-9, abs=1e-10)


def test_chain_of_contractions_reaches_single_loop():
    g = directed_cycle(4)
    rng = np.random.default_rng(47)
    weights = rng.normal(size=4) + 1j * rng.normal(size=4)
    m = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        m[(i + 1) % 4, i] = weights[i]
    a = GEndomorphism(g, m)
    f = char_function(a)
    for v in ["v2", "v3", "v4"]:
        g, a = reduce_vertex(a, v)
    assert g.n_edges == 1 and g.edges[0].is_loop
    assert g.edges[0].length == pytest.approx(4.0)
    assert a.matrix[0, 0] == pytest.approx(np.prod(weights))
    f2 = char_function(a)
    for lam in np.random.default_rng(48).normal(size=6):
        assert complex(f2.eval(lam)) == pytest.approx(complex(f.eval(lam)), rel=1e-9)


def test_contract_rejects_loop_vertex():
    g = rose(1)
    a = GEndomorphism(g, np.array([[1.0]]))
    with pytest.raises(ValueError, match="loop"):
        reduce_vertex(a, "v")


def test_contract_rejects_higher_degree_vertex():
    g = looped_dumbbell()
    a = GEndomorphism(g, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="degree"):
        reduce_vertex(a, "u")


def test_merged_id_collision_gets_tick():
    g = graph_from_edges(
        [("e1", "a", "b"), ("e2", "b", "c"), ("e1~e2", "c", "a")]
    )
    m = np.zeros((3, 3), dtype=complex)
    m[1, 0] = m[2, 1] = m[0, 2] = 1.0
    g2, _ = reduce_vertex(GEndomorphism(g, m), "b")
    assert tuple(e.id for e in g2.edges) == ("e1~e2'", "e1~e2")


# -- block splitting ------------------------------------------------------


def test_disjoint_cycles_split_into_blocks():
    g = graph_from_edges(
        [
            ("e1", "v1", "v2"),
            ("e2", "v2", "v1"),
            ("e3", "v3", "v4"),
            ("e4", "v4", "v3"),
        ]
    )
    rng = np.random.default_rng(53)
    m = np.zeros((4, 4), dtype=complex)
    m[1, 0], m[0, 1] = rng.normal(size=2) + 1j * rng.normal(size=2)
    m[3, 2], m[2, 3] = rng.normal(size=2) + 1j * rng.normal(size=2)
    a = GEndomorphism(g, m)
    blocks = split_reducible(a)
    assert [ids for ids, _ in blocks] == [
        frozenset({"e1", "e2"}),
        frozenset({"e3", "e4"}),
    ]
    full = char_poly(a)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    prod = 1.0 + 0.0j
    for ids, block in blocks:
        idx = [g.edge_index(e.id) for e in block.graph.edges]
        prod *= evaluate_point(char_poly(block), x[idx])
    assert prod == pytest.approx(evaluate_point(full, x), rel=1e-9)


def test_triangular_map_splits_source_block_first():
    g = rose(2)
    a = GEndomorphism(g, np.array([[1.0, 1.0], [0.0, 1.0]]))
    blocks = split_reducible(a)
    # e2 only feeds e1, so the block on e2 comes first in topological order.
    assert [ids for ids, _ in blocks] == [frozenset({"e2"}), frozenset({"e1"})]
    for _, block in blocks:
        assert char_poly(block).term_edge_sets()[frozenset()] == -1.0


def test_irreducible_map_is_single_block():
    g = directed_cycle(3)
    m = np.zeros((3, 3))
    for i in range(3):
        m[(i + 1) % 3, i] = 1.0
    blocks = split_reducible(GEndomorphism(g, m))
    assert len(blocks) == 1
    ids, block = blocks[0]
    assert ids == frozenset({"e1", "e2", "e3"})
    assert np.array_equal(block.matrix, m)


def test_an_irreducible_map_has_one_edge_class():
    rng = np.random.default_rng(61)
    cycle = np.roll(np.eye(7), 1, axis=0)
    for m in (cycle, rng.normal(size=(5, 5)), np.ones((1, 1))):
        (only,) = edge_classes(m)
        assert only.tolist() == list(range(m.shape[0]))


def test_edge_classes_of_a_permutation_are_its_trails():
    rng = np.random.default_rng(67)
    for _ in range(20):
        p = random_g_permutation(random_eulerian_graph(rng, max_edges=8), rng)
        trails = permutation_to_decomposition(p).trails
        want = {frozenset(p.graph.edge_index(e) for e in t) for t in trails}
        classes = edge_classes(p.to_endomorphism().matrix)
        assert len(classes) == len(trails)
        assert {frozenset(c.tolist()) for c in classes} == want


def test_edge_classes_of_a_block_triangular_map():
    # dense Gaussian diagonal blocks above a sparse Gaussian lower part, the
    # edges shuffled: the classes are the shuffled blocks, each listed after
    # the classes that feed it, as split_reducible lists them
    rng = np.random.default_rng(71)
    for _ in range(25):
        sizes = rng.integers(1, 4, size=rng.integers(2, 5))
        label = np.repeat(np.arange(sizes.size), sizes)
        n = label.size
        m = rng.normal(size=(n, n))
        m[label[:, None] < label[None, :]] = 0.0
        m[(label[:, None] > label[None, :]) & (rng.random((n, n)) < 0.5)] = 0.0
        perm = rng.permutation(n)
        shuffled = m[np.ix_(perm, perm)]
        classes = edge_classes(shuffled)
        want = {frozenset(np.flatnonzero(label[perm] == b).tolist()) for b in range(sizes.size)}
        assert {frozenset(c.tolist()) for c in classes} == want
        order = np.concatenate(classes)
        rank = np.repeat(np.arange(len(classes)), [c.size for c in classes])
        assert not np.any(shuffled[np.ix_(order, order)][rank[:, None] < rank[None, :]])
        g = rose(n)
        blocks = split_reducible(GEndomorphism(g, shuffled))
        assert [c.tolist() for c in classes] == [
            sorted(g.edge_index(e.id) for e in block.graph.edges) for _, block in blocks
        ]


def test_split_factorizes_polynomial_on_random_maps():
    rng = np.random.default_rng(59)
    for _ in range(25):
        g = random_graph(rng, max_edges=6)
        a = random_g_endomorphism(g, rng, density=0.6)
        blocks = split_reducible(a)
        covered = [eid for ids, _ in blocks for eid in ids]
        assert sorted(covered) == sorted(e.id for e in g.edges)
        x = rng.normal(size=g.n_edges) + 1j * rng.normal(size=g.n_edges)
        prod = 1.0 + 0.0j
        for ids, block in blocks:
            idx = [g.edge_index(e.id) for e in block.graph.edges]
            prod *= evaluate_point(char_poly(block), x[idx])
        assert prod == pytest.approx(evaluate_point(char_poly(a), x), rel=1e-8, abs=1e-9)


# -- secular functions ----------------------------------------------------


def test_secular_value_matches_point_substitution():
    rng = np.random.default_rng(61)
    g = random_graph(rng, max_edges=5)
    a = random_g_endomorphism(g, rng)
    p = char_poly(a)
    f = char_function(a)
    lengths = np.array(g.lengths())
    for lam in rng.normal(size=6) + 1j * 0.3 * rng.normal(size=6):
        want = evaluate_point(p, np.exp(1j * lam * lengths))
        assert complex(f.eval(lam)) == pytest.approx(want, rel=1e-10, abs=1e-12)
        assert complex(CharFunction(p, lengths).eval(lam)) == pytest.approx(
            want, rel=1e-10, abs=1e-12
        )


def test_single_loop_derivative_closed_form():
    g = rose(1)
    f = char_function(GEndomorphism(g, np.array([[0.5]])), lengths=[1.7])
    lam = 0.43 - 0.1j
    # f = exp(i l lam) - 1/2, so each derivative brings down a factor i l
    assert complex(f.eval(lam)) == pytest.approx(np.exp(1.7j * lam) - 0.5)
    assert complex(f.eval_dk(lam, 1)) == pytest.approx(1.7j * np.exp(1.7j * lam))
    assert complex(f.eval_dk(lam, 3)) == pytest.approx(
        (1.7j) ** 3 * np.exp(1.7j * lam)
    )


def test_derivatives_against_finite_differences():
    rng = np.random.default_rng(67)
    g = random_graph(rng, max_edges=4)
    f = char_function(random_g_endomorphism(g, rng))
    h = 1e-6
    for lam in rng.normal(size=4):
        fd1 = (complex(f.eval(lam + h)) - complex(f.eval(lam - h))) / (2 * h)
        assert complex(f.eval_dk(lam, 1)) == pytest.approx(fd1, rel=1e-6, abs=1e-6 * f.scale)
        fd2 = (complex(f.eval_dk(lam + h, 1)) - complex(f.eval_dk(lam - h, 1))) / (2 * h)
        assert complex(f.eval_dk(lam, 2)) == pytest.approx(fd2, rel=1e-6, abs=1e-5 * f.scale)


def test_zeroth_derivative_is_value():
    g = directed_cycle(2)
    m = np.array([[0, 1.0], [1.0, 0]])
    f = char_function(GEndomorphism(g, m))
    lams = np.linspace(-2, 2, 7)
    assert np.allclose(f.eval_dk(lams, 0), f.eval(lams))


def test_vectorized_evaluation():
    g = directed_cycle(3)
    m = np.zeros((3, 3))
    for i in range(3):
        m[(i + 1) % 3, i] = 1.0
    f = char_function(GEndomorphism(g, m))
    lams = np.array([0.0, 0.5, 1.0 + 0.2j])
    vals = f.eval(lams)
    assert vals.shape == (3,)
    for lam, val in zip(lams, vals):
        assert complex(f(lam)) == pytest.approx(val)


def test_evaluation_on_a_long_2d_array_matches_point_substitution():
    # A long grid, shaped 2-d, for the value and a derivative; the
    # derivative oracle is the polynomial with each monomial weighted by i
    # times its summed length.
    rng = np.random.default_rng(71)
    g = random_graph(rng, max_edges=5)
    p = char_poly(random_g_endomorphism(g, rng))
    lengths = np.array(g.lengths())
    f = CharFunction(p, lengths)
    n = 549
    lams = (np.linspace(-30.0, 30.0, n) + 0.2j * rng.normal(size=n)).reshape(-1, 1)
    weighted = MultiPoly(
        p.edge_ids,
        {
            m: 1j * sum(lengths[i] for i in range(p.n_vars) if m >> i & 1) * c
            for m, c in p.terms.items()
        },
    )
    vals, derivs = f.eval(lams), f.eval_dk(lams, 1)
    assert vals.shape == derivs.shape == lams.shape
    for lam, val, der in zip(lams[:, 0], vals[:, 0], derivs[:, 0]):
        x = np.exp(1j * lam * lengths)
        assert val == pytest.approx(evaluate_point(p, x), rel=1e-10, abs=1e-12)
        assert der == pytest.approx(evaluate_point(weighted, x), rel=1e-10, abs=1e-12)


def test_scale_and_total_length():
    p = MultiPoly.from_edge_sets(("a", "b"), {frozenset({"a", "b"}): 1.0, frozenset(): -2.0})
    f = CharFunction(p, [0.5, 1.5])
    assert f.scale == pytest.approx(3.0)
    assert f.lengths.sum() == pytest.approx(2.0)


def test_length_count_mismatch_rejected():
    p = MultiPoly.from_edge_sets(("a",), {frozenset({"a"}): 1.0})
    with pytest.raises(ValueError):
        CharFunction(p, [1.0, 2.0])


# -- specialization to one variable ---------------------------------------


def test_specialize_three_rose():
    g = rose(3)
    p = char_poly(GEndomorphism(g, np.ones((3, 3))))
    coeffs = specialize_univariate(p, [1, 1, 1])
    assert np.allclose(coeffs, [0, 0, -3, 1])


def test_specialize_four_cycle():
    g = directed_cycle(4)
    m = np.zeros((4, 4))
    for i in range(4):
        m[(i + 1) % 4, i] = 1.0
    coeffs = specialize_univariate(char_poly(GEndomorphism(g, m)), [1, 1, 1, 1])
    assert np.allclose(coeffs, [-1, 0, 0, 0, 1])


def test_specialize_mixed_multipliers():
    g = rose(2)
    p = char_poly(GEndomorphism(g, np.array([[0, 1.0], [1.0, 0]])))
    # x1 x2 - 1 with x1 = z, x2 = z^2 gives z^3 - 1
    assert np.allclose(specialize_univariate(p, [1, 2]), [-1, 0, 0, 1])


def test_specialize_input_validation():
    p = MultiPoly.from_edge_sets(("a", "b"), {frozenset({"a"}): 1.0})
    with pytest.raises(ValueError):
        specialize_univariate(p, [1])
    with pytest.raises(ValueError):
        specialize_univariate(p, [1, -2])


def test_specialize_agrees_with_substitution_at_points():
    rng = np.random.default_rng(71)
    for _ in range(10):
        g = random_graph(rng, max_edges=5)
        a = random_integer_map(g, rng)
        p = char_poly(a)
        mult = rng.integers(0, 4, size=g.n_edges)
        coeffs = specialize_univariate(p, mult)
        for _ in range(4):
            z = rng.normal() + 1j * rng.normal()
            want = evaluate_point(p, z ** mult.astype(complex))
            got = np.polynomial.polynomial.polyval(z, coeffs)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


# -- commensurability detection -------------------------------------------


def test_commensurable_simple_ratios():
    assert detect_commensurable([1.0, 1.5, 2.0]) == ([2, 3, 4], pytest.approx(0.5))


def test_commensurable_irrational_ratio_rejected():
    # With a bounded denominator no convergent of sqrt(2) is close enough.
    assert detect_commensurable([1.0, math.sqrt(2)]) is None


def test_commensurable_denominator_bound():
    # Ratios are reconstructed with denominators up to 1000 and no further.
    mult, delta = detect_commensurable([1.0, 1.0 + 1 / 997])
    assert mult == [997, 998] and delta == pytest.approx(1 / 997)
    assert detect_commensurable([1.0, 1.0 + 1 / 1009]) is None


def test_commensurable_absorbs_tiny_noise():
    res = detect_commensurable([1.0, 1.0 + 1e-12])
    assert res is not None
    mult, delta = res
    assert mult == [1, 1]
    assert delta == pytest.approx(1.0)


def test_commensurable_invalid_inputs():
    assert detect_commensurable([]) is None
    assert detect_commensurable([1.0, -2.0]) is None
    assert detect_commensurable([0.0]) is None


def test_commensurable_multipliers_past_the_float_range():
    # the ratios fit in a float, but the common denominator 997 * 991 makes
    # the multiplier of 1e303 too large for one: no base length exists
    assert detect_commensurable([1.0, 1e303, 1 / 997, 1 / 991]) is None


def test_commensurable_round_trip():
    rng = np.random.default_rng(73)
    for _ in range(30):
        delta = float(rng.uniform(0.1, 2.0))
        mult = rng.integers(1, 20, size=int(rng.integers(1, 6)))
        lengths = mult * delta
        res = detect_commensurable(lengths)
        assert res is not None
        got_mult, got_delta = res
        assert np.allclose(np.array(got_mult) * got_delta, lengths, rtol=1e-9)


LENGTH_DRAWS = ["multiples", "fractions", "noisy", "random", "wide"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(LENGTH_DRAWS))
def test_commensurable_matches_the_fraction_oracle(seed, kind):
    # the array pass over all denominators against limit_denominator per
    # ratio: the same multipliers and the same base length, bit for bit
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 17))
    scale = float(rng.uniform(0.1, 5.0))
    if kind == "multiples":
        lengths = rng.integers(1, int(rng.choice([5, 50, 1000, 10**5])), size=n) * scale
    elif kind in ("fractions", "noisy"):
        lengths = rng.integers(1, 3000, size=n) / rng.integers(1, 1001, size=n) * scale
        if kind == "noisy":
            lengths *= 1 + rng.normal(0.0, 1e-9, size=n) * rng.choice([0.1, 1.0, 10.0])
    elif kind == "random":
        lengths = rng.uniform(0.1, 10.0, size=n) * scale
    else:
        lengths = 10.0 ** rng.uniform(-12, 12, size=n)
    assert detect_commensurable(lengths) == commensurable_by_fractions(lengths)


# -- printing -------------------------------------------------------------


def test_univariate_strings():
    assert univariate_to_string([0, 0, -3, 1]) == "t^3 - 3 t^2"
    assert univariate_to_string([-1, 0, 0, 0, 1]) == "t^4 - 1"
    assert univariate_to_string([0, 0, 0, -2, -3, 0, 1]) == "t^6 - 3 t^4 - 2 t^3"
    assert univariate_to_string([0, 1]) == "t"
    assert univariate_to_string([-1, 1]) == "t - 1"
    assert univariate_to_string([2, 1]) == "t + 2"
    assert univariate_to_string([5]) == "5"
    assert univariate_to_string([0]) == "0"
    assert univariate_to_string([0, 1], var="z") == "z"
