"""Benchmark of the diracgraph command line, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  The workload's inputs are generated from the
seed as JSON files; its queries then go, closed loop, through
``diracgraph.cli.main(argv)`` in this process with standard output captured,
in rounds until ``--seconds`` have passed.  Every output is judged by the
oracles in ``oracles.py``, which do not use diracgraph.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the layer
boundaries (``spans.py``) and reports the per-layer metrics instead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs every workload
on small inputs, traced and untraced, with every check, in a few seconds.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are small, and a second thread adds noise
# rather than speed.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 15

END_TO_END = [
    ("setup_s", "s"),
    ("query_s", "s"),
    ("eigenvalues_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def import_diracgraph():
    """Import diracgraph afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "diracgraph" or m.startswith("diracgraph.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("diracgraph")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"diracgraph imported from {pkg.__file__}, not from {SRC}")
    return (
        importlib.import_module("diracgraph.cli"),
        importlib.import_module("diracgraph.spectrum"),
        importlib.import_module("diracgraph.charpoly"),
    )


def setup_once(queries):
    """Import diracgraph and load and validate every input file once."""
    start = time.perf_counter()
    modules = import_diracgraph()
    jsonio = sys.modules["diracgraph.jsonio"]
    graph = sys.modules["diracgraph.graph"]
    for q in queries:
        g_path, bc_path = q.inputs
        g = jsonio.load_graph(g_path)
        problems = graph.validate(g)
        if problems:
            raise RuntimeError(f"{q.name}: generated graph is invalid: {problems}")
        jsonio.load_boundary(bc_path, g)
    return time.perf_counter() - start, modules


def run_query(cli, q, tracer=None):
    """One CLI call: (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    main = cli.main if tracer is None else tracer.wrap("query", cli.main)
    sid = len(tracer) if tracer is not None else -1
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(q.argv)
    except Exception as exc:  # a crash is a failed query, not a dead benchmark
        code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if tracer is not None:
        tracer.count[sid] = len(text.encode())
    return seconds, code, text


def judge(q, code, text):
    if code != 0:
        return workloads.Verdict(False, reason=f"exit {code}")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return workloads.Verdict(False, reason=f"unparsable output: {exc}")
    try:
        return q.judge(payload)
    except (KeyError, TypeError, ValueError) as exc:
        return workloads.Verdict(False, reason=f"malformed output: {exc!r}")


def run_workload(name, seed, seconds, trace, size=1.0):
    """Generate, set up, run rounds and judge; returns the result object."""
    self_check = oracles.self_check()
    for problem in self_check:
        print(f"oracle self-check failed: {problem}")
    work = os.path.join(HERE, "work", f"{name}-s{seed}-p{os.getpid()}")
    try:
        made = time.perf_counter()
        rng = np.random.default_rng(seed)
        queries = workloads.WORKLOADS[name](workloads.Writer(work), rng, size)
        print(f"{name} seed {seed}: {len(queries)} queries a round, inputs made in "
            f"{time.perf_counter() - made:.2f} s")
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            elapsed, modules = setup_once(queries)
            setups.append(elapsed)
        cli, spectrum, charpoly = modules
        tracer = None
        if trace:
            tracer = spans.Tracer()
            spans.install(tracer, cli, spectrum, charpoly)

        # Whole rounds only, so that every run attempts the same operations in
        # the same proportions; stop at the round count nearest ``seconds``.
        records = []  # (query, seconds, code, text)
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or (time.perf_counter() - start) * (1 + 0.5 / rounds) < seconds:
            for q in queries:
                if tracer is not None:
                    tracer.query = len(records)
                records.append((q,) + run_query(cli, q, tracer))
            rounds += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verdicts = {}
    failed = 0
    expected_failures = True
    eigenvalues = 0
    for q, _sec, code, text in records:
        key = (q.name, code, text)
        if key not in verdicts:
            verdicts[key] = judge(q, code, text)
            v = verdicts[key]
            status = "ok" if v.ok else ("FAILED (scan fault)" if v.scan_drop else "FAILED")
            median = statistics.median(r[1] for r in records if r[0] is q)
            print(f"  {q.name:<16} {median:8.4f} s  {v.eigenvalues:5d} eigenvalues  {status} {v.reason}")
        v = verdicts[key]
        if v.ok:
            eigenvalues += v.eigenvalues
        else:
            failed += 1
            expected_failures &= q.known_fault and v.scan_drop

    times = [r[1] for r in records]
    print(f"{name} seed {seed}: {rounds} rounds, {len(records)} queries, {failed} failed")
    if trace:
        metrics = tracer.summary(len(records))
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        tracer.dump(os.path.join(HERE, "traces", f"{name}-seed{seed}.npz"))
    else:
        values = {
            "setup_s": statistics.median(setups),
            "query_s": statistics.median(times),
            "eigenvalues_per_s": eigenvalues / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    for m, v in metrics.items():
        print(f"  {m:<26} {v['value']:.6g} {v['unit']}")
    return {
        "correct": not self_check and expected_failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def smoke() -> int:
    """Every workload on small inputs, traced and untraced, with all checks."""
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, seed=1, seconds=0.0, trace=trace, size=0.1)
            print(json.dumps({"workload": name, "trace": trace, **result}))
            ok &= result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick run of everything")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "diracgraph")):
        print(f"diracgraph sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required without --smoke")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
