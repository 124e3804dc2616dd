"""Trace spaces, boundary subspaces, adjoints, and the unitarity witness."""

import numpy as np
import pytest

from diracgraph import (
    BoundarySubspace,
    GEndomorphism,
    TraceSpace,
    adjoint_condition,
    directed_cycle,
    endomorphism_from_subspace,
    graph_from_edges,
    graph_of,
    index,
    is_unitary,
    local_decomposition,
    looped_dumbbell,
    rose,
    scalar_cokernel_dim,
    scalar_kernel_dim,
    self_adjointness_witness,
)
from diracgraph.boundary import (
    REASON_DIMENSION,
    REASON_NOT_EULERIAN,
    REASON_NOT_LOCAL,
    REASON_NOT_SELF_ADJOINT,
)
from diracgraph.randgen import (
    random_eulerian_graph,
    random_subspace,
    random_unitary_g_endomorphism,
)
from oracles import span_distance


def scramble(b, rng):
    """Same subspace, new basis."""
    d = b.dim
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return BoundarySubspace(b.space, b.matrix @ np.linalg.qr(m)[0])


# -- trace space layout --------------------------------------------------


def test_trace_space_dimensions():
    g = rose(3)
    s = TraceSpace(g)
    assert s.dim == 6 and s.edge_dim == 3


def test_start_before_end_per_edge():
    s = TraceSpace(directed_cycle(2))
    # edge e owns coordinate 2e (start value) and 2e + 1 (end value)
    assert np.flatnonzero(s.embed_start([1.0, 0.0])).tolist() == [0]
    assert np.flatnonzero(s.embed_end([1.0, 0.0])).tolist() == [1]
    assert np.flatnonzero(s.embed_start([0.0, 1.0])).tolist() == [2]
    assert np.flatnonzero(s.embed_end([0.0, 1.0])).tolist() == [3]
    t = np.array([1.0, 2.0, 3.0, 4.0])
    assert s.project_start(t).tolist() == [1.0, 3.0]
    assert s.project_end(t).tolist() == [2.0, 4.0]


def test_embed_project_round_trip():
    s = TraceSpace(rose(2))
    w = np.array([1 + 2j, -3j])
    assert np.array_equal(s.project_start(s.embed_start(w)), w)
    assert np.array_equal(s.project_end(s.embed_end(w)), w)
    assert np.array_equal(s.project_end(s.embed_start(w)), np.zeros(2))
    # embeddings land in complementary slots
    assert np.array_equal(
        s.embed_start(w) + s.embed_end(w),
        np.array([1 + 2j, 1 + 2j, -3j, -3j]),
    )


def test_embed_is_batched():
    s = TraceSpace(rose(2))
    batch = np.eye(2)
    out = s.embed_end(batch)
    assert out.shape == (2, 4)
    assert np.array_equal(out[0], [0, 1, 0, 0])
    assert np.array_equal(out[1], [0, 0, 0, 1])


def test_vertex_coordinates():
    g = directed_cycle(2)
    s = TraceSpace(g)
    # v1 sees the start of e1 and the end of e2, v2 the rest
    assert s.vertex_coordinates("v1").tolist() == [0, 3]
    assert s.vertex_coordinates("v2").tolist() == [1, 2]
    loop = TraceSpace(rose(1))
    assert loop.vertex_coordinates("v").tolist() == [0, 1]


def test_constant_trace_matrix():
    s = TraceSpace(directed_cycle(2))
    m = s.constant_trace_matrix()
    assert np.array_equal(m[:, 0], [1, 1, 0, 0])
    assert np.array_equal(m[:, 1], [0, 0, 1, 1])


# -- boundary subspaces --------------------------------------------------


def test_subspace_rejects_dependent_columns():
    s = TraceSpace(rose(1))
    with pytest.raises(ValueError):
        BoundarySubspace(s, np.array([[1.0, 2.0], [1.0, 2.0]]))


def test_subspace_classmethods_and_equality():
    s = TraceSpace(rose(1))
    assert BoundarySubspace.zero(s).dim == 0
    assert BoundarySubspace.full(s).dim == 2
    b = BoundarySubspace.span(s, [np.array([1.0, 1j])])
    assert b.dim == 1
    assert b.contains(np.array([2j, -2.0]))
    assert not b.contains(np.array([1.0, 0.0]))
    rng = np.random.default_rng(5)
    assert b.equals(scramble(b, rng))
    assert span_distance(b.matrix, scramble(b, rng).matrix) < 1e-12
    other = BoundarySubspace.span(s, [np.array([1.0, 0.0])])
    assert not b.equals(other)
    assert span_distance(b.matrix, other.matrix) > 0.5


def test_scalar_pairing_matrix():
    # The adjoint condition annihilates b under the pairing diag(-i, +i, ..)
    # of i d/dx and has the complementary dimension.
    s = TraceSpace(directed_cycle(2))
    pairing = np.diag([-1j, 1j, -1j, 1j])
    rng = np.random.default_rng(17)
    for dim in range(5):
        b = random_subspace(s, dim, rng)
        adj = adjoint_condition(b)
        assert adj.dim == s.dim - dim
        assert np.abs(adj.matrix.conj().T @ pairing @ b.matrix).max(initial=0.0) < 1e-12


# -- edge maps and their graphs ------------------------------------------


def test_endomorphism_support_rule():
    g = directed_cycle(2)
    GEndomorphism(g, np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(ValueError):
        GEndomorphism(g, np.eye(2, dtype=complex))


def test_allowed_support_matches_bruteforce():
    g = looped_dumbbell()
    support = GEndomorphism.allowed_support(g)
    for i, target in enumerate(g.edges):
        for j, source in enumerate(g.edges):
            assert support[i, j] == (source.head == target.tail)


def test_cleaned_zeroes_small_entries():
    g = directed_cycle(2)
    noisy = np.array([[1e-14, 1.0], [1.0, -1e-15]], dtype=complex)
    a = GEndomorphism.cleaned(g, noisy, 1e-12)
    assert a.matrix[0, 0] == 0 and a.matrix[1, 1] == 0


def test_graph_of_explicit_columns():
    g = directed_cycle(2)
    alpha, beta = 2.0 + 1j, -0.5
    a = GEndomorphism(g, np.array([[0, beta], [alpha, 0]]))
    b = graph_of(a)
    expect = np.array(
        [[0, beta], [1, 0], [alpha, 0], [0, 1]], dtype=complex
    )
    assert np.allclose(b.matrix, expect)
    assert b.dim == 2


def test_graph_of_is_local_with_vertex_blocks():
    g = directed_cycle(2)
    a = GEndomorphism(g, np.array([[0, 1j], [1.0, 0]]))
    b = graph_of(a)
    blocks = local_decomposition(b)
    assert blocks is not None
    assert set(blocks) == {"v1", "v2"}
    s = b.space
    for v, block in blocks.items():
        outside = np.setdiff1d(np.arange(s.dim), s.vertex_coordinates(v))
        assert np.max(np.abs(block[outside, :])) < 1e-12


def test_non_local_subspace_detected():
    s = TraceSpace(directed_cycle(2))
    # couples the start of e1 (at v1) with its end (at v2)
    b = BoundarySubspace.span(s, [np.array([1.0, 1.0, 0, 0])])
    assert local_decomposition(b) is None


def test_zero_and_full_are_local():
    s = TraceSpace(rose(2))
    assert local_decomposition(BoundarySubspace.zero(s)) is not None
    assert local_decomposition(BoundarySubspace.full(s)) is not None


# -- adjoint condition ---------------------------------------------------


def test_adjoint_dimension_and_involution():
    rng = np.random.default_rng(17)
    s = TraceSpace(looped_dumbbell())
    for d in (0, 1, 3, 5, 8):
        b = random_subspace(s, d, rng)
        ad = adjoint_condition(b)
        assert ad.dim == s.dim - d
        assert adjoint_condition(ad).equals(b)


def test_adjoint_of_graph_is_graph_of_inverse_adjoint():
    rng = np.random.default_rng(23)
    g = directed_cycle(3)
    m = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        m[(i + 1) % 3, i] = rng.standard_normal() + 1j * rng.standard_normal()
    a = GEndomorphism(g, m)
    inv_adj = GEndomorphism(g, np.linalg.inv(m.conj().T))
    assert adjoint_condition(graph_of(a)).equals(graph_of(inv_adj))


def test_graph_selfadjoint_iff_unitary():
    rng = np.random.default_rng(31)
    g = rose(2)
    u = random_unitary_g_endomorphism(g, rng)
    b = graph_of(u)
    assert b.equals(adjoint_condition(b))
    a = GEndomorphism(g, np.array([[1.0, 1.0], [0.5, -1.0]]))
    assert not is_unitary(a)
    bg = graph_of(a)
    assert not bg.equals(adjoint_condition(bg))


# -- index, kernel, cokernel ---------------------------------------------


def test_index_formula_every_dimension():
    rng = np.random.default_rng(41)
    s = TraceSpace(looped_dumbbell())
    for d in range(s.dim + 1):
        b = random_subspace(s, d, rng)
        assert index(b) == d - 4


def test_full_and_zero_kernels():
    s = TraceSpace(rose(2))
    full = BoundarySubspace.full(s)
    assert scalar_kernel_dim(full) == 2
    assert scalar_cokernel_dim(full) == 0
    zero = BoundarySubspace.zero(s)
    assert scalar_kernel_dim(zero) == 0
    assert scalar_cokernel_dim(zero) == 2
    assert index(full) == 2 and index(zero) == -2


def test_kernel_minus_cokernel_matches_index():
    rng = np.random.default_rng(47)
    for _ in range(25):
        g = random_eulerian_graph(rng, max_edges=5)
        s = TraceSpace(g)
        d = int(rng.integers(0, s.dim + 1))
        b = random_subspace(s, d, rng)
        assert scalar_kernel_dim(b) - scalar_cokernel_dim(b) == index(b)


def test_constant_traces_all_in_kernel():
    g = directed_cycle(3)
    s = TraceSpace(g)
    b = BoundarySubspace(s, s.constant_trace_matrix())
    assert scalar_kernel_dim(b) == 3


# -- self-adjointness witness --------------------------------------------


def test_witness_recovers_unitary():
    rng = np.random.default_rng(53)
    for g in (rose(2), directed_cycle(3), looped_dumbbell()):
        u = random_unitary_g_endomorphism(g, rng)
        b = scramble(graph_of(u), rng)
        res = self_adjointness_witness(b)
        assert res.ok
        assert np.max(np.abs(res.endomorphism.matrix - u.matrix)) < 1e-9
        assert is_unitary(res.endomorphism)


def test_witness_refuses_non_local_first():
    # coupling both endpoints of a single edge is not local; that refusal
    # outranks the (also failing) degree balance check
    g = graph_from_edges([("e", "u", "v")])
    s = TraceSpace(g)
    b = BoundarySubspace.span(s, [np.array([1.0, 1.0])])
    assert self_adjointness_witness(b).reason == REASON_NOT_LOCAL


def test_witness_refuses_unbalanced_graph():
    g = graph_from_edges([("e", "u", "v")])
    s = TraceSpace(g)
    # Dirichlet at the start is local, but the graph has no closed trail
    b = BoundarySubspace.span(s, [np.array([0.0, 1.0])])
    assert self_adjointness_witness(b).reason == REASON_NOT_EULERIAN


def test_witness_refuses_wrong_dimension():
    s = TraceSpace(rose(1))
    b = BoundarySubspace.zero(s)
    assert self_adjointness_witness(b).reason == REASON_DIMENSION
    assert self_adjointness_witness(BoundarySubspace.full(s)).reason == REASON_DIMENSION


def test_witness_refuses_non_unitary_graph():
    g = rose(2)
    a = GEndomorphism(g, np.array([[1.0, 1.0], [0.0, 1.0]]))
    res = self_adjointness_witness(graph_of(a))
    assert res.reason == REASON_NOT_SELF_ADJOINT


def test_witness_handles_non_graph_local_condition():
    # Dirichlet-style: end of the loop pinned to zero, start free would be
    # dim 1 = |E| but equals span{e-}, whose adjoint is span{e+}; not equal
    s = TraceSpace(rose(1))
    b = BoundarySubspace.span(s, [np.array([1.0, 0.0])])
    assert self_adjointness_witness(b).reason == REASON_NOT_SELF_ADJOINT


# -- edge map recovery from a subspace -----------------------------------


def test_endomorphism_round_trip():
    rng = np.random.default_rng(61)
    g = looped_dumbbell()
    u = random_unitary_g_endomorphism(g, rng)
    b = scramble(graph_of(u), rng)
    rec = endomorphism_from_subspace(b)
    assert rec is not None
    assert np.max(np.abs(rec.matrix - u.matrix)) < 1e-9


def test_endomorphism_recovery_refusals():
    s = TraceSpace(rose(1))
    assert endomorphism_from_subspace(BoundarySubspace.zero(s)) is None
    # right dimension but degenerate end projection
    b = BoundarySubspace.span(s, [np.array([1.0, 0.0])])
    assert endomorphism_from_subspace(b) is None
