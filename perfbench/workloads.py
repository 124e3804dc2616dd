"""Seeded inputs for the three workloads, with their oracle answers.

Everything is drawn from ``numpy.random.default_rng(seed)`` and written as
the JSON graph and boundary files the ``diracgraph`` command reads; nothing
here imports diracgraph.  Each workload is a list of :class:`Query` objects,
one round; a run repeats the round until its time is up, so every run
attempts the same operations in the same proportions.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracles

TWO_PI = oracles.TWO_PI

# Window placement: no oracle eigenvalue within MARGIN of a window edge.
MARGIN = 0.01
# Seeded scan windows keep oracle eigenvalues at least SCAN_GAP apart, three
# steps of the scan's 0.01 grid.  Closer pairs trip the scan's known fault
# only on some seeds; the fault is measured by fixed queries instead.
SCAN_GAP = 0.03
# Oracle cells for real spectra are bisected to this width.  A reported
# value matches a cell within the same distance; the SVD check then pins it
# to an eigenvalue.
CELL = 1e-4


@dataclass
class Verdict:
    ok: bool
    eigenvalues: int = 0  # reported, counted with multiplicity
    scan_drop: bool = False  # short of the oracle, every reported value certified
    reason: str = ""


@dataclass
class Query:
    """One CLI call, the files it reads, and the oracle that judges it."""

    name: str
    argv: list[str]
    inputs: tuple[str, str]  # graph and boundary files, loaded in setup
    judge: object = field(repr=False)  # callable(payload) -> Verdict
    known_fault: bool = False  # expected to fail every time: the scan fault


# -- graphs and edge maps --------------------------------------------------------


@dataclass
class Instance:
    vertices: list[str]
    edges: list[tuple[str, str, str]]  # (id, tail, head)
    lengths: np.ndarray
    matrix: np.ndarray  # rows are target edges, columns source edges

    @property
    def ids(self) -> list[str]:
        return [e[0] for e in self.edges]

    def graph_json(self) -> dict:
        return {
            "vertices": self.vertices,
            "edges": [
                {"id": i, "tail": t, "head": h, "length": float(l)}
                for (i, t, h), l in zip(self.edges, self.lengths)
            ],
        }

    def endomorphism_json(self) -> dict:
        return {
            "type": "endomorphism",
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in self.matrix],
        }


def _haar(n: int, rng) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


def closed_walk_graph(n_edges: int, n_vertices: int, rng):
    """Random connected Eulerian multigraph: one closed walk of ``n_edges``
    steps that visits all ``n_vertices`` vertices (loops allowed)."""
    while True:
        walk = rng.integers(0, n_vertices, n_edges)
        if len(set(walk.tolist())) == n_vertices:
            break
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = [
        (f"e{k + 1}", vertices[walk[k]], vertices[walk[(k + 1) % n_edges]])
        for k in range(n_edges)
    ]
    return vertices, edges


def bidirected_cycle(k: int):
    vertices = [f"v{i}" for i in range(k)]
    edges = []
    for i in range(k):
        a, b = vertices[i], vertices[(i + 1) % k]
        edges += [(f"f{i}", a, b), (f"r{i}", b, a)]
    return vertices, edges


def rose(n: int):
    return ["v"], [(f"e{k + 1}", "v", "v") for k in range(n)]


def unitary_map(vertices, edges, rng) -> np.ndarray:
    """Independent Haar unitary block per vertex, from arriving to leaving edges."""
    a = np.zeros((len(edges), len(edges)), dtype=complex)
    for v in vertices:
        ins = [k for k, e in enumerate(edges) if e[2] == v]
        outs = [k for k, e in enumerate(edges) if e[1] == v]
        a[np.ix_(outs, ins)] = _haar(len(ins), rng)
    return a


def sparse_rose_map(n: int, rng) -> np.ndarray:
    """Unitary on ``n`` loops: 2x2 Haar blocks, columns shifted cyclically by
    one so that the blocks chain into one irreducible map.  The support is
    fixed, so the cost of expanding it does not depend on the seed."""
    a = np.zeros((n, n), dtype=complex)
    for i in range(0, n - 1, 2):
        a[i : i + 2, i : i + 2] = _haar(2, rng)
    if n % 2:
        a[n - 1, n - 1] = np.exp(1j * rng.uniform(0, TWO_PI))
    return np.roll(a, 1, axis=1)


def integer_multipliers(n: int, total: int, rng) -> list[int]:
    """Positive integers with sum ``total`` and greatest common divisor 1."""
    while True:
        w = rng.uniform(0.5, 1.5, n)
        m = np.maximum(1, np.floor(w / w.sum() * total)).astype(int)
        m[int(rng.integers(n))] += total - int(m.sum())
        if m.min() >= 1 and math.gcd(*m.tolist()) == 1:
            return m.tolist()


# -- file output ---------------------------------------------------------------


class Writer:
    """Writes input files into one directory with unique names."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def write(self, name: str, doc) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def instance(self, tag: str, inst: Instance, bc=None) -> tuple[str, str]:
        g = self.write(f"{tag}.graph.json", inst.graph_json())
        b = self.write(f"{tag}.bc.json", bc if bc is not None else inst.endomorphism_json())
        return g, b


# -- judges --------------------------------------------------------------------


def _reported(payload):
    return [(complex(e["re"], e["im"]), int(e["mult"])) for e in payload["eigenvalues"]]


def spectrum_judge(matrix, lengths, exp_values, exp_mult, tol=oracles.MATCH_TOL):
    """Judge a spectrum payload against oracle values and multiplicities."""

    def judge(payload) -> Verdict:
        rep = _reported(payload)
        n_rep = sum(m for _, m in rep)
        svd = oracles.svd_multiplicities(matrix, lengths, [v for v, _ in rep])
        certified = all(int(s) == m for s, (_, m) in zip(svd, rep))
        missing, extra = oracles.match_spectrum(exp_values, exp_mult, rep, tol)
        if certified and missing == 0 and extra == 0:
            return Verdict(True, n_rep)
        return Verdict(
            False,
            n_rep,
            scan_drop=certified and extra == 0 and missing > 0 and payload.get("solver") == "scan",
            reason=f"missing {missing}, extra {extra}, svd certified {certified}",
        )

    return judge


def charpoly_judge(matrix, ids, seed):
    def judge(payload) -> Verdict:
        rng = np.random.default_rng(seed)
        if oracles.check_multipoly(payload["terms"], ids, matrix, rng):
            return Verdict(True)
        return Verdict(False, reason="polynomial disagrees with det(diag(x) - A)")

    return judge


# -- window placement ----------------------------------------------------------


def place_real_window(inst: Instance, rng, count: int, lo_range, gap: float | None):
    """Real window holding exactly ``count`` oracle eigenvalues.

    The eigenvalues in ``lo_range`` (plus room for the window) are located
    once; among the runs of ``count`` consecutive ones whose outer gaps are
    at least ``2 MARGIN`` (and, with ``gap`` set, whose inner gaps are at
    least ``gap`` with every eigenvalue simple), one is drawn at random.
    The edges sit midway in the outer gaps.  Returns ``(a, b, values,
    multiplicities)``, or None when no run qualifies.
    """
    total = float(np.sum(inst.lengths))
    hi = lo_range[1] + (count + 4) * TWO_PI / total
    values, mult = oracles.locate_real(inst.matrix, inst.lengths, lo_range[0], hi, CELL)
    gaps = np.diff(values)
    n_runs = values.size - count - 1
    if n_runs <= 0:
        return None
    outer_ok = (gaps[:n_runs] >= 2 * MARGIN) & (gaps[count : count + n_runs] >= 2 * MARGIN)
    if gap is not None:
        # bad[i]: gap i too small or eigenvalue i + 1 not simple; run i covers
        # eigenvalues i + 1 .. i + count and inner gaps i + 1 .. i + count - 1.
        bad = np.r_[(gaps[:-1] < gap) | (mult[1:-1] > 1), False].astype(int)
        csum = np.r_[0, np.cumsum(bad)]
        inner_bad = csum[count : count + n_runs] - csum[1 : 1 + n_runs]
        inner_bad += (mult[1 : 1 + n_runs] > 1)
        outer_ok &= inner_bad == 0
    runs = np.flatnonzero(outer_ok)
    if runs.size == 0:
        return None
    i = int(rng.choice(runs))
    a = float((values[i] + values[i + 1]) / 2)
    b = float((values[i + count] + values[i + count + 1]) / 2)
    return a, b, values[i + 1 : i + count + 1], mult[i + 1 : i + count + 1]


# -- workloads -----------------------------------------------------------------


def _window_query(w: Writer, tag, make_instance, rng, count: int, lo_range, gap=SCAN_GAP, check=None):
    """Spectrum query on a unitary map over a real window placed by the
    oracle; the instance is drawn again until a window can be placed.
    ``check(inst, a, b, values, mult)`` may cross-check the placement."""
    while True:
        inst = make_instance()
        placed = place_real_window(inst, rng, count, lo_range, gap)
        if placed is not None:
            break
    a, b, values, mult = placed
    if check is not None:
        check(inst, a, b, values, mult)
    g, bc = w.instance(tag, inst)
    argv = ["spectrum", g, "--bc", bc, "--window", repr(a), repr(b)]
    judge = spectrum_judge(inst.matrix, inst.lengths, values, mult, CELL)
    return Query(tag, argv, (g, bc), judge)


def twin_loops_query(w: Writer) -> Query:
    """Two loops of lengths 1 and 1.0005, identity map, window (0.5, 20].

    The six eigenvalues are 2 pi k and 2 pi k / 1.0005, k = 1..3; each pair
    is closer than the scan's grid step.  Independent of the seed.
    """
    vertices, edges = rose(2)
    inst = Instance(vertices, edges, np.array([1.0, 1.0005]), np.eye(2, dtype=complex))
    g, bc = w.instance("twin-loops", inst, {"type": "permutation", "map": {"e1": "e1", "e2": "e2"}})
    lat = oracles.trail_lattice([1.0, 1.0005], 0.5, 20.0)
    values, mult = oracles.group_values(lat, 1e-12)
    argv = ["spectrum", g, "--bc", bc, "--window", "0.5", "20"]
    judge = spectrum_judge(inst.matrix, inst.lengths, values.real, mult)
    return Query("twin-loops", argv, (g, bc), judge, known_fault=True)


def twin_trails_query(w: Writer) -> Query:
    """Rose of 16 loops under a permutation with two 8-loop trails whose
    lengths differ by a factor 1.0005, window (0.5, 20].

    Each of the 25 lattice points 2 pi k / L1 has a partner 2 pi k / L2
    closer than the scan's grid step.  Independent of the seed.
    """
    vertices, edges = rose(16)
    ids = [e[0] for e in edges]
    base = np.array([1.0 + 0.1 * math.sqrt(k + 2) for k in range(8)])
    lengths = np.concatenate([base, base * 1.0005])
    mapping = {}
    for start in (0, 8):
        for k in range(8):
            mapping[ids[start + k]] = ids[start + (k + 1) % 8]
    matrix = np.zeros((16, 16), dtype=complex)
    for src, dst in mapping.items():
        matrix[ids.index(dst), ids.index(src)] = 1.0
    inst = Instance(vertices, edges, lengths, matrix)
    g, bc = w.instance("twin-trails", inst, {"type": "permutation", "map": mapping})
    trails = oracles.trail_lengths(mapping, dict(zip(ids, lengths)))
    values, mult = oracles.group_values(oracles.trail_lattice(trails, 0.5, 20.0), 1e-12)
    argv = ["spectrum", g, "--bc", bc, "--window", "0.5", "20"]
    judge = spectrum_judge(matrix, lengths, values.real, mult)
    return Query("twin-trails", argv, (g, bc), judge, known_fault=True)


def walk_instance(n_edges: int, n_vertices: int, terms: int | None, rng, make_map, lengths):
    """Random closed-walk graph with exactly ``terms`` balanced edge subsets.

    The number of terms of ``det(diag(x) - A)`` for a generic map on the
    vertex-compatible support is the number of edge subsets balanced at
    every vertex; fixing it per slot keeps the cost of a query from
    varying with the seed by more than the values do.
    """
    while True:
        vertices, edges = closed_walk_graph(n_edges, n_vertices, rng)
        if terms is None or balanced_subsets(vertices, edges) == terms:
            return Instance(vertices, edges, lengths, make_map(vertices, edges, rng))


@functools.cache
def _subset_bits(n: int) -> np.ndarray:
    return ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(np.float32)


def balanced_subsets(vertices, edges) -> int:
    """Number of edge subsets with in-degree equal to out-degree everywhere."""
    pos = {v: i for i, v in enumerate(vertices)}
    incidence = np.zeros((len(vertices), len(edges)), dtype=np.float32)
    for k, (_id, tail, head) in enumerate(edges):
        incidence[pos[tail], k] += 1
        incidence[pos[head], k] -= 1
    # Entries are small integers, exact in float32; float32 gets a BLAS product.
    imbalance = _subset_bits(len(edges)) @ incidence.T
    return int(np.count_nonzero(~np.any(imbalance, axis=1)))


def lengths_summing_to(n: int, total: float, rng) -> np.ndarray:
    """Random incommensurable lengths in a 1:3 range with a fixed sum."""
    x = rng.uniform(0.5, 1.5, n)
    return x * (total / x.sum())


def wide_scan(w: Writer, rng, size: float = 1.0) -> list[Query]:
    """Unitary maps on random Eulerian graphs of 10-12 edges, real windows of
    300 eigenvalues, and the seed-independent twin-loop query."""
    count = max(20, int(300 * size))
    queries = []
    shapes = [(10, 3, 192), (11, 4, 160), (12, 5, 144)] * 3
    for k, (n, v, terms) in enumerate(shapes):
        make = lambda: walk_instance(  # noqa: E731
            n, v, terms, rng, unitary_map, lengths_summing_to(n, n, rng)
        )
        queries.append(_window_query(w, f"scan{k}-{n}e", make, rng, count, (0.0, 60.0 * size)))
    queries.append(twin_loops_query(w))
    return queries


def many_edges(w: Writer, rng, size: float = 1.0) -> list[Query]:
    """Graphs of 16 edges: narrow scan windows and multivariate char_poly
    queries on a bidirected cycle, a rose and random Eulerian walks, plus
    the seed-independent twin-trail query (a rose of 16 loops).

    All seven queries have 16 edges, so their costs form one group and the
    median query time does not fall between two groups.
    """
    n = 16 if size >= 1.0 else 10
    count = 8
    walk_terms = {16: 240}

    def walk():
        return walk_instance(n, n // 2, walk_terms.get(n), rng, unitary_map, lengths_summing_to(n, n, rng))

    def flower():
        vertices, edges = rose(n)
        return Instance(vertices, edges, lengths_summing_to(n, n, rng), sparse_rose_map(n, rng))

    vertices, edges = bidirected_cycle(n // 2)
    cycle = Instance(vertices, edges, lengths_summing_to(n, n, rng), unitary_map(vertices, edges, rng))
    return [
        _charpoly_query(w, f"cycle{n}-poly", cycle, rng),
        _charpoly_query(w, f"rose{n}-poly", flower(), rng),
        _window_query(w, f"rose{n}-scan", flower, rng, count, (0.0, 50.0)),
        _charpoly_query(w, f"walk{n}-poly", walk(), rng),
        _window_query(w, f"walk{n}-scan", walk, rng, count, (0.0, 50.0)),
        _window_query(w, f"walk{n}-scan2", walk, rng, count, (0.0, 50.0)),
        twin_trails_query(w) if size >= 1.0 else twin_loops_query(w),
    ]


def _charpoly_query(w, tag, inst, rng):
    g, bc = w.instance(tag, inst)
    argv = ["charpoly", g, "--bc", bc, "--multivariate"]
    judge = charpoly_judge(inst.matrix, inst.ids, int(rng.integers(2**31)))
    return Query(tag, argv, (g, bc), judge)


def fine_lengths(w: Writer, rng, size: float = 1.0) -> list[Query]:
    """Unitary maps on 6-8 edges with lengths m_e * delta and sum m_e of 300,
    500 and 700: the CLI picks the exact solver."""
    queries = []
    for k, (n, v, terms, degree) in enumerate([(6, 2, 24, 300), (7, 2, 48, 500), (8, 3, 48, 700)]):
        degree = max(20, int(degree * size))
        make = lambda: walk_instance(  # noqa: E731
            n, v, terms, rng, unitary_map, np.array(integer_multipliers(n, degree, rng)) * (10.0 / degree)
        )
        check = functools.partial(_subdivision_check, delta=10.0 / degree)
        queries.append(
            _window_query(w, f"fine{k}-d{degree}", make, rng, 40, (0.0, 100.0), gap=None, check=check)
        )
    return queries


def _subdivision_check(inst: Instance, a, b, values, counts, delta: float) -> None:
    """The subdivided map must give the zeros the eigenphase cells hold."""
    mult = np.rint(inst.lengths / delta).astype(int)
    zeros = oracles.subdivided_zeros(inst.matrix, mult, delta, a, b)
    if (
        zeros.size != counts.sum()
        or np.max(np.abs(zeros.imag)) > 1e-6
        or np.max(np.abs(np.sort(zeros.real) - np.repeat(values, counts))) > CELL
    ):
        raise RuntimeError("subdivided map and eigenphase count disagree")


WORKLOADS = {
    "wide-scan": wide_scan,
    "many-edges": many_edges,
    "fine-lengths": fine_lengths,
}
