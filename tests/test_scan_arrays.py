"""Stacked rank tests, and the real-axis solver on a six-fold eigenvalue."""

import math

import numpy as np
import pytest

from diracgraph import GEndomorphism, rose, spectrum_numeric
from diracgraph.randgen import random_eulerian_graph, random_unitary_g_endomorphism
from diracgraph.spectrum import RANK_RTOL, _multiplicities


def pointwise_multiplicity(a, lengths, lam):
    """Kernel dimension of ``diag(exp(i lam l)) - A`` and its smallest
    singular value relative to the operand scale, one SVD per point."""
    phases = np.exp(1j * lam * np.asarray(lengths, dtype=float))
    s = np.linalg.svd(np.diag(phases) - a.matrix, compute_uv=False)
    scale = max(s[0], np.max(np.abs(phases)), np.linalg.norm(a.matrix))
    return int(np.count_nonzero(s <= RANK_RTOL * scale)), s[-1] / scale


@pytest.mark.parametrize("seed", range(6))
def test_stacked_rank_tests_match_pointwise_svd(seed):
    # Zeros of a random unitary map, points 1e-4 off them and generic
    # complex points; then the n-fold zeros of the identity on a rose.
    rng = np.random.default_rng(700 + seed)
    g = random_eulerian_graph(rng, max_edges=6)
    a = random_unitary_g_endomorphism(g, rng)
    lengths = g.lengths()
    zeros = spectrum_numeric(a, window=(-3.0, 9.0)).values()
    n = 4
    ident = GEndomorphism(rose(n), np.eye(n))
    lams = np.concatenate(
        [zeros, np.add(zeros, 1e-4), rng.uniform(-3, 9, 70) + 1j * rng.normal(size=70)]
    )
    got = _multiplicities(a.matrix, lengths, lams)
    want = [pointwise_multiplicity(a, lengths, z) for z in lams]
    assert [m for m, _, _ in got] == [m for m, _ in want]
    assert np.allclose([r for _, _, r in got], [r for _, r in want], rtol=1e-6, atol=1e-15)
    assert all(m >= 1 for m, _, _ in got[: len(zeros)])
    for lam, (m, kernel, _) in zip(lams, got):
        assert kernel.shape == (len(lengths), m)
        residual = (np.diag(np.exp(1j * lam * np.asarray(lengths))) - a.matrix) @ kernel
        assert np.linalg.norm(residual) <= 1e-6
    multiple = [2 * math.pi * k for k in range(-1, 2)] + [1.0, 2.0]
    got = _multiplicities(ident.matrix, [1.0] * n, multiple)
    assert [m for m, _, _ in got] == [n, n, n, 0, 0]


@pytest.mark.parametrize("lo", [-0.5, -0.3, 0.1])
def test_scan_keeps_six_fold_eigenvalue_whose_newton_limits_leave_the_axis(lo):
    # The 6-fold zero at 2 pi: Newton limits from its noise plateau leave
    # the axis, so the count cell around it has to carry the zero.
    a = GEndomorphism(rose(6), np.eye(6))
    rep = spectrum_numeric(a, window=(lo, 13.0))
    want = [2 * math.pi * k for k in range(3) if 2 * math.pi * k >= lo]
    assert np.allclose(rep.values(), want, atol=1e-9)
    assert [e.multiplicity for e in rep.eigenvalues] == [6] * len(want)
    assert rep.warnings == ()
