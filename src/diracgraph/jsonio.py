"""JSON and CSV interchange for graphs, boundary conditions and reports.

Complex numbers travel as ``[re, im]`` pairs.  Trace vectors are indexed
edge by edge, start component before end component, in graph edge order;
univariate polynomial coefficients are listed lowest degree first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .adjacency import CoefficientProfile, TopologyReport, build_adjacency
from .boundary import BoundarySubspace, GEndomorphism, TraceSpace
from .charpoly import MultiPoly
from .errors import InputFormatError
from .graph import Edge, MetricGraph
from .spectrum import SpectrumReport
from .trails import GPermutation, TrailDecomposition


def _complex_pair(value) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) for x in value)
    ):
        raise InputFormatError(f"expected [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# -- graphs --------------------------------------------------------------


def parse_graph(data) -> MetricGraph:
    """Graph from ``{"vertices": [...], "edges": [{id, tail, head, length?}]}``.

    Missing lengths default to 1.  Duplicate ids and endpoints naming
    unknown vertices are format errors.
    """
    if not isinstance(data, dict):
        raise InputFormatError("graph document must be an object")
    vertices = data.get("vertices")
    edges_raw = data.get("edges")
    if not isinstance(vertices, list) or not isinstance(edges_raw, list):
        raise InputFormatError("graph needs 'vertices' and 'edges' lists")
    vertex_ids = [str(v) for v in vertices]
    if len(set(vertex_ids)) != len(vertex_ids):
        raise InputFormatError("duplicate vertex ids")
    edges = []
    seen_ids: set[str] = set()
    for item in edges_raw:
        if not isinstance(item, dict):
            raise InputFormatError("each edge must be an object")
        try:
            eid = str(item["id"])
            tail = str(item["tail"])
            head = str(item["head"])
        except KeyError as missing:
            raise InputFormatError(f"edge missing field {missing}") from None
        if eid in seen_ids:
            raise InputFormatError(f"duplicate edge id {eid!r}")
        seen_ids.add(eid)
        for endpoint in (tail, head):
            if endpoint not in vertex_ids:
                raise InputFormatError(
                    f"edge {eid!r} references unknown vertex {endpoint!r}"
                )
        length = item.get("length", 1.0)
        if not isinstance(length, (int, float)):
            raise InputFormatError(f"edge {eid!r} has non-numeric length")
        edges.append(Edge(eid, tail, head, float(length)))
    return MetricGraph(vertex_ids, edges)


def graph_to_json(g: MetricGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "length": e.length}
            for e in g.edges
        ],
    }


def load_json(path, what: str):
    """The JSON document in the file ``path``; ``what`` names it in the error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read {what} from {path}: {exc}") from exc


def load_graph(path) -> MetricGraph:
    return parse_graph(load_json(path, "graph"))


# -- boundary conditions -------------------------------------------------


@dataclass(frozen=True)
class BoundaryInput:
    """Parsed boundary condition: a subspace or a structure that induces one.

    ``kind`` is one of ``subspace``, ``endomorphism``, ``adjacency`` or
    ``permutation``.  ``endomorphism`` is filled for the last three kinds;
    ``subspace`` is filled only for explicit subspace input (use
    :func:`diracgraph.boundary.graph_of` to expand an edge map when
    needed).
    """

    kind: str
    subspace: BoundarySubspace | None = None
    endomorphism: GEndomorphism | None = None
    permutation: GPermutation | None = None


def parse_boundary(data, g: MetricGraph) -> BoundaryInput:
    """Boundary condition from its JSON object, resolved against a graph."""
    if not isinstance(data, dict) or "type" not in data:
        raise InputFormatError("boundary condition needs a 'type' field")
    kind = data["type"]
    if kind == "subspace":
        basis_raw = data.get("basis")
        if not isinstance(basis_raw, list):
            raise InputFormatError("subspace condition needs a 'basis' list")
        space = TraceSpace(g)
        cols = []
        for vec in basis_raw:
            if not isinstance(vec, list) or len(vec) != space.dim:
                raise InputFormatError(
                    f"basis vector length {len(vec) if isinstance(vec, list) else '?'}"
                    f" does not match trace dimension {space.dim}"
                )
            cols.append([_complex_pair(x) for x in vec])
        try:
            sub = (
                BoundarySubspace(space, np.array(cols, dtype=complex).T)
                if cols
                else BoundarySubspace.zero(space)
            )
        except ValueError as exc:
            raise InputFormatError(str(exc)) from exc
        return BoundaryInput("subspace", subspace=sub)
    if kind == "endomorphism":
        matrix_raw = data.get("matrix")
        n = g.n_edges
        if not isinstance(matrix_raw, list) or len(matrix_raw) != n:
            raise InputFormatError(f"matrix must have {n} rows")
        try:
            # no dtype: a string such as "1.5" stays a string and is refused
            pairs = np.array(matrix_raw)
        except ValueError:  # ragged nesting
            pairs = np.empty(0)
        if pairs.dtype.kind in "biuf" and pairs.shape == (n, n, 2):
            matrix = np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]
        else:
            for row in matrix_raw:
                if not isinstance(row, list) or len(row) != n:
                    raise InputFormatError(f"matrix rows must have {n} entries")
            matrix = np.array([[_complex_pair(x) for x in row] for row in matrix_raw])
        try:
            endo = GEndomorphism(g, matrix)
        except ValueError as exc:
            raise InputFormatError(str(exc)) from exc
        return BoundaryInput("endomorphism", endomorphism=endo)
    if kind == "adjacency":
        return BoundaryInput("adjacency", endomorphism=build_adjacency(g))
    if kind == "permutation":
        mapping = data.get("map")
        if not isinstance(mapping, dict):
            raise InputFormatError("permutation condition needs a 'map' object")
        try:
            perm = GPermutation(g, {str(k): str(v) for k, v in mapping.items()})
        except (KeyError, ValueError) as exc:
            raise InputFormatError(str(exc)) from exc
        return BoundaryInput(
            "permutation", endomorphism=perm.to_endomorphism(), permutation=perm
        )
    raise InputFormatError(f"unknown boundary condition type {kind!r}")


def load_boundary(path, g: MetricGraph) -> BoundaryInput:
    return parse_boundary(load_json(path, "boundary condition"), g)


def subspace_to_json(b: BoundarySubspace) -> dict:
    return {
        "type": "subspace",
        "basis": [[_pair(x) for x in col] for col in b.matrix.T],
    }


def endomorphism_to_json(a: GEndomorphism) -> dict:
    return {
        "type": "endomorphism",
        "matrix": [[_pair(x) for x in row] for row in a.matrix],
    }


# -- polynomials ---------------------------------------------------------


def multipoly_to_json(p: MultiPoly) -> dict:
    terms = []
    for ids, c in sorted(
        p.term_edge_sets().items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
    ):
        terms.append({"edges": sorted(ids), "coeff": _pair(c)})
    return {"terms": terms}


def parse_multipoly(data, edge_ids) -> MultiPoly:
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise InputFormatError("polynomial document needs a 'terms' list")
    mapping = {}
    known = set(edge_ids)
    for item in data["terms"]:
        if not isinstance(item, dict):
            raise InputFormatError("each term must be an object")
        edges = item.get("edges")
        if not isinstance(edges, list) or not set(map(str, edges)) <= known:
            raise InputFormatError(f"term names unknown edges: {edges!r}")
        key = frozenset(map(str, edges))
        mapping[key] = mapping.get(key, 0.0) + _complex_pair(item.get("coeff"))
    return MultiPoly.from_edge_sets(tuple(edge_ids), mapping)


def profile_to_json(profile: CoefficientProfile) -> dict:
    return {"n": profile.n, "coeffs_low_to_high": list(profile.coeffs)}


# -- spectra -------------------------------------------------------------


def report_to_json(report: SpectrumReport) -> dict:
    return {
        "solver": report.solver,
        "eigenvalues": [
            {
                "re": float(e.value.real),
                "im": float(e.value.imag),
                "mult": e.multiplicity,
                "residual": float(e.residual),
            }
            for e in report.eigenvalues
        ],
        "warnings": list(report.warnings),
        **({"winding": report.winding} if report.winding is not None else {}),
    }


def report_to_csv(report: SpectrumReport) -> str:
    lines = ["re,im,mult"]
    for e in report.eigenvalues:
        lines.append(f"{e.value.real:.17g},{e.value.imag:.17g},{e.multiplicity}")
    return "\n".join(lines) + "\n"


# -- trails and topology -------------------------------------------------


def decomposition_to_json(d: TrailDecomposition) -> dict:
    return {"trails": [list(t) for t in d.trails]}


def parse_decomposition(data, g: MetricGraph) -> TrailDecomposition:
    if not isinstance(data, dict) or not isinstance(data.get("trails"), list):
        raise InputFormatError("decomposition document needs a 'trails' list")
    trails = []
    for t in data["trails"]:
        if not isinstance(t, list) or not t:
            raise InputFormatError("each trail must be a nonempty list of edge ids")
        trails.append(tuple(str(e) for e in t))
    for t in trails:
        for eid in t:
            if eid not in {e.id for e in g.edges}:
                raise InputFormatError(f"trail references unknown edge {eid!r}")
    return TrailDecomposition(g, tuple(trails))


def topology_to_json(report: TopologyReport) -> dict:
    out = {
        "girth": report.girth,
        "loops": report.loop_count,
        "cycle_counts": {str(k): v for k, v in sorted(report.cycle_counts.items())},
    }
    if report.a_n_minus_2 is not None:
        out["a_n_minus_2"] = report.a_n_minus_2
    if report.a_n_minus_3 is not None:
        out["a_n_minus_3"] = report.a_n_minus_3
    if report.long_cycle_counts:
        out["long_cycle_counts"] = {
            str(k): v for k, v in sorted(report.long_cycle_counts.items())
        }
    return out
