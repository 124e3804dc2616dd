"""Spans around diracgraph's layer boundaries, for the traced run only.

:func:`install` replaces public functions with timing wrappers in the
modules whose code calls them (``cli`` and ``spectrum`` import names into
their own namespace, so each lookup site is patched).  A span records its
name, start, end, parent span and query, plus one count: points for a
secular evaluation, terms for an expansion, 1 for a rank test that
certified, warnings for a solver run, bytes written for a query.  Spans
stay in memory; :meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# Span name -> layer whose self time it adds to.
LAYER_OF = {
    "query": "cli.self_s",
    "char_poly": "charpoly.expand_s",
    "char_function": "charpoly.expand_s",
    "eval": "charpoly.secular_s",
    "eval_dk": "charpoly.secular_s",
    "multiplicity": "spectrum.certify_s",
    "solver": "spectrum.locate_s",
    "load": "jsonio.load_s",
    "dump": "jsonio.dump_s",
    "validate": "graph.validate_s",
    "boundary": "boundary.s",
}

# (name, unit) of every per-layer metric, in report order.
METRICS = [
    ("charpoly.expand_s", "s"),
    ("charpoly.expand_calls", "count"),
    ("charpoly.terms", "count"),
    ("charpoly.secular_s", "s"),
    ("charpoly.secular_calls", "count"),
    ("charpoly.secular_points", "count"),
    ("charpoly.points_per_call", "points/call"),
    ("spectrum.certify_s", "s"),
    ("spectrum.rank_tests", "count"),
    ("spectrum.certified_ratio", "ratio"),
    ("spectrum.solver_s", "s"),
    ("spectrum.locate_s", "s"),
    ("spectrum.warnings", "count"),
    ("jsonio.load_s", "s"),
    ("jsonio.dump_s", "s"),
    ("jsonio.out_bytes", "B"),
    ("graph.validate_s", "s"),
    ("boundary.s", "s"),
    ("cli.self_s", "s"),
    ("cli.query_s", "s"),
]


class Tracer:
    """Spans in parallel compact arrays; a span's id is its index."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.query_of = array("q")
        self.name_of = array("b")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self._stack: list[int] = []
        self.query = -1

    def __len__(self) -> int:
        return len(self.parent)

    def wrap(self, name, fn, count=None):
        """Timing wrapper around ``fn``; ``count(args, result)`` gives the span count."""
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        tracer, stack = self, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.parent)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.query_of.append(tracer.query)
            tracer.name_of.append(code)
            tracer.end.append(0.0)
            tracer.count.append(0.0)
            stack.append(sid)
            start = time.perf_counter()
            tracer.start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = time.perf_counter()
                stack.pop()
            if count is not None:
                tracer.count[sid] = count(args, result)
            return result

        return wrapper

    def summary(self, n_queries: int) -> dict:
        """Per-layer metrics, per query where they are totals."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name_of = np.frombuffer(self.name_of, dtype=np.int8)
        count = np.frombuffer(self.count)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(self))
        own = dur - child

        def select(*names):
            codes = [self.names.index(n) for n in names if n in self.names]
            return np.isin(name_of, codes)

        per = 1.0 / max(1, n_queries)
        values = {name: 0.0 for name, _ in METRICS}
        for span, layer in LAYER_OF.items():
            values[layer] += float(own[select(span)].sum()) * per
        evals = select("eval", "eval_dk")
        tests = select("multiplicity")
        expansions = select("char_poly")
        queries = select("query")
        values.update(
            {
                "charpoly.expand_calls": expansions.sum() * per,
                "charpoly.terms": count[expansions].sum() / max(1, expansions.sum()),
                "charpoly.secular_calls": evals.sum() * per,
                "charpoly.secular_points": count[evals].sum() * per,
                "charpoly.points_per_call": count[evals].sum() / max(1, evals.sum()),
                "spectrum.rank_tests": tests.sum() * per,
                "spectrum.certified_ratio": count[tests].sum() / max(1, tests.sum()),
                "spectrum.solver_s": dur[select("solver")].sum() * per,
                "spectrum.warnings": count[select("solver")].sum() * per,
                "jsonio.out_bytes": count[queries].sum() * per,
                "cli.query_s": float(np.median(dur[queries])) if queries.any() else 0.0,
            }
        )
        return {name: {"value": float(values[name]), "unit": unit} for name, unit in METRICS}

    def dump(self, path: str) -> None:
        """Write every span as columns of an ``.npz`` file."""
        t0 = self.start[0] if len(self) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            query=np.frombuffer(self.query_of, dtype=np.int64),
            name=np.frombuffer(self.name_of, dtype=np.int8),
            start_s=np.frombuffer(self.start) - t0,
            end_s=np.frombuffer(self.end) - t0,
            count=np.frombuffer(self.count),
        )


def _points(args, result):
    return int(np.size(args[1]))


def install(tracer: Tracer, cli, spectrum, charpoly) -> None:
    """Wrap the layer boundaries of a freshly imported diracgraph."""
    expand = tracer.wrap("char_poly", charpoly.char_poly, lambda a, r: len(r.terms))
    for module in (charpoly, spectrum, cli):
        module.char_poly = expand
    spectrum.char_function = tracer.wrap("char_function", spectrum.char_function)
    cf = charpoly.CharFunction
    cf.eval = tracer.wrap("eval", cf.eval, _points)
    cf.eval_dk = tracer.wrap("eval_dk", cf.eval_dk, _points)
    spectrum.multiplicity = tracer.wrap(
        "multiplicity", spectrum.multiplicity, lambda a, r: int(r[0] > 0)
    )
    warnings = lambda a, r: len(r.warnings)  # noqa: E731
    for attr in ("spectrum_exact_commensurable", "spectrum_numeric", "spectrum_complex"):
        setattr(cli, attr, tracer.wrap("solver", getattr(cli, attr), warnings))
    for attr in ("load_graph", "load_boundary"):
        setattr(cli, attr, tracer.wrap("load", getattr(cli, attr)))
    cli.validate_graph = tracer.wrap("validate", cli.validate_graph)
    # _emit prints json.dumps of the payload: the serialization step proper.
    for attr in ("report_to_json", "multipoly_to_json", "_emit"):
        setattr(cli, attr, tracer.wrap("dump", getattr(cli, attr)))
    for module, attr in ((cli, "is_unitary"), (spectrum, "is_unitary"), (cli, "endomorphism_from_subspace")):
        setattr(module, attr, tracer.wrap("boundary", getattr(module, attr)))
