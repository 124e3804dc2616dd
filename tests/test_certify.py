"""The step shared by the spectrum solvers: grouping and certification."""

import math

import numpy as np
import pytest

from diracgraph import (
    spectrum_complex,
    spectrum_exact_commensurable,
    spectrum_numeric,
)
from diracgraph.randgen import random_eulerian_graph, random_unitary_g_endomorphism
from diracgraph.spectrum import RESIDUAL_TOL, Window, _certified_entries, _group


def single_linkage(points, radius):
    """Transitive closure of the ``radius`` relation, by repeated full scans."""
    points = sorted((complex(z) for z in points), key=lambda z: (z.real, z.imag))
    used = [False] * len(points)
    out = []
    for i, z in enumerate(points):
        if used[i]:
            continue
        cluster = [z]
        used[i] = True
        grew = True
        while grew:
            grew = False
            for j, y in enumerate(points):
                if not used[j] and any(abs(y - c) <= radius for c in cluster):
                    cluster.append(y)
                    used[j] = True
                    grew = True
        out.append(cluster)
    return out


def random_points(rng):
    """Scattered points, chains of sub-radius steps, and stacks of points
    sharing a real part but too far apart in imaginary part to link."""
    pts = list(rng.uniform(0, 40, 40) + 1j * rng.uniform(0, 4, 40))
    for _ in range(3):
        start = complex(rng.uniform(0, 40), rng.uniform(0, 4))
        angles = rng.uniform(0, 2 * math.pi, 6)
        steps = 0.95 * np.exp(1j * angles)
        pts.extend(start + np.cumsum(steps))
    for _ in range(3):
        x = rng.uniform(0, 40)
        pts.extend(x + 1j * np.arange(4) * rng.uniform(1.05, 2.0))
    return pts


@pytest.mark.parametrize("seed", range(40))
def test_group_matches_single_linkage(seed):
    rng = np.random.default_rng(seed)
    pts = random_points(rng)
    got = _group(pts, 1.0)
    want = single_linkage(pts, 1.0)
    assert sorted(size for _, size in got) == sorted(len(c) for c in want)
    assert sum(size for _, size in got) == len(pts)
    key = lambda z: (round(z.real, 9), round(z.imag, 9))  # noqa: E731
    assert sorted(key(c) for c, _ in got) == sorted(key(sum(c) / len(c)) for c in want)


def test_group_size_hints_repeated_points():
    z = 0.3 - 0.7j
    assert _group([z, z, z, 5.0], 1e-7) == [(pytest.approx(z), 3), (5.0, 1)]
    assert _group([], 1.0) == []


def test_every_solver_drops_entries_above_the_residual_tolerance():
    rng = np.random.default_rng(103)
    g = random_eulerian_graph(rng, max_edges=5)
    a = random_unitary_g_endomorphism(g, rng)
    ones = [1] * g.n_edges
    solvers = (
        lambda tol: spectrum_exact_commensurable(a, ones, 1.0, (-4.0, 4.0), residual_tol=tol),
        lambda tol: spectrum_numeric(a, window=(-4.0, 4.0), residual_tol=tol),
        lambda tol: spectrum_complex(a, rect=(-4.0, 4.0, -0.5, 0.5), residual_tol=tol),
    )
    for solve in solvers:
        found = solve(1e-10)
        assert len(found.eigenvalues) == 5 and not found.warnings
        # residuals can be exactly zero, so only a negative tolerance is
        # below every one of them
        strict = solve(-1.0)
        assert strict.eigenvalues == ()
        dropped = [w for w in strict.warnings if "dropped: residual" in w]
        assert len(dropped) == 5


def test_a_candidate_without_kernel_is_warned_and_dropped():
    # one loop mapped to itself: the eigenvalues are 2 pi k, and one edge
    # leaves no higher order to polish a rejected candidate at
    warnings = []
    entries = _certified_entries(
        np.eye(1), np.ones(1), Window.real(-1.0, 7.0), [(2 * math.pi, 1), (1.0, 1)],
        RESIDUAL_TOL, warnings,
    )
    assert [(e.value, e.multiplicity) for e in entries] == [(pytest.approx(2 * math.pi), 1)]
    assert warnings == ["candidate 1+0j rejected by rank check"]


def test_a_rejected_candidate_is_polished_at_its_hint():
    # two loops of length 1 mapped to themselves: a double eigenvalue at 0,
    # and 1e-6 away the rank test of a double zero finds no kernel
    warnings = []
    entries = _certified_entries(
        np.eye(2), np.ones(2), Window.real(-1.0, 1.0), [(1e-6, 2)], RESIDUAL_TOL, warnings,
        real_axis=True,
    )
    assert [(e.value, e.multiplicity) for e in entries] == [(pytest.approx(0.0, abs=1e-12), 2)]
    assert warnings == []
