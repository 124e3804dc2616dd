"""Command line interface.

Subcommands: validate, index, spectrum, charpoly, trails, topology,
selfadjoint.  Standard output carries exactly one machine readable payload
(JSON unless another format is selected); all diagnostics go to standard
error.  Exit codes: 0 success, 1 domain refusal (valid input, no answer of
the requested kind), 2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import __version__
from .adjacency import (
    CoefficientProfile,
    build_adjacency,
    charpoly_via_collections,
    edge_connectivity,
    topology_from_coefficients,
)
from .boundary import (
    adjoint_condition,
    endomorphism_from_subspace,
    graph_of,
    index as boundary_index,
    is_unitary,
    scalar_cokernel_dim,
    scalar_kernel_dim,
    self_adjointness_witness,
)
from .charpoly import (
    char_poly,
    detect_commensurable,
    specialize_univariate,
    univariate_to_string,
)
from .errors import DiracGraphError, InputFormatError
from .graph import DEFAULT_EDGE_CAP, validate as validate_graph
from .jsonio import (
    decomposition_to_json,
    endomorphism_to_json,
    load_boundary,
    load_graph,
    load_json,
    multipoly_to_json,
    parse_boundary,
    parse_decomposition,
    profile_to_json,
    report_to_csv,
    report_to_json,
    topology_to_json,
)
from .spectrum import (
    Window,
    commensurable,
    spectrum_complex,
    spectrum_exact_commensurable,
    spectrum_numeric,
)
from .trails import (
    decomposition_to_permutation,
    enumerate_g_permutations,
    longest_trail_from_spectrum,
    permutation_spectrum,
    permutation_to_decomposition,
)

EXIT_OK = 0
EXIT_REFUSAL = 1
EXIT_BAD_INPUT = 2


def _emit(payload, fmt: str, pretty_lines=None) -> None:
    if fmt == "pretty" and pretty_lines is not None:
        for line in pretty_lines:
            print(line)
        return
    if fmt == "csv" and isinstance(payload, str):
        sys.stdout.write(payload)
        return
    print(json.dumps(payload, separators=(",", ":")))


def _warn(message: str) -> None:
    print(message, file=sys.stderr)


def _load_valid_graph(path):
    g = load_graph(path)
    problems = validate_graph(g)
    if problems:
        raise DiracGraphError("invalid graph: " + "; ".join(problems))
    return g


def _window(bounds) -> Window:
    """A ``--window`` or ``--rect`` argument; malformed bounds are bad input."""
    if not (np.all(np.isfinite(bounds)) and np.all(np.less_equal(bounds[::2], bounds[1::2]))):
        raise InputFormatError(f"window bounds must be finite and ascending: {list(bounds)}")
    return Window(*bounds)


def _tol(value: float) -> float:
    """A ``--tol`` argument; a tolerance that is not finite and positive is bad input."""
    if not 0.0 < value < np.inf:
        raise InputFormatError(f"tolerance must be finite and positive: {value}")
    return value


def _resolve_endomorphism(bc, g):
    """Edge map behind a boundary condition, or a refusal."""
    if bc.endomorphism is not None:
        return bc.endomorphism
    endo = endomorphism_from_subspace(bc.subspace)
    if endo is None:
        raise DiracGraphError(
            "boundary subspace is not the graph of a vertex-compatible edge "
            "map; only pointwise multiplicity queries are available for it"
        )
    return endo


# -- subcommands ---------------------------------------------------------


def cmd_validate(args) -> int:
    g = load_graph(args.graph)
    problems = validate_graph(g)
    payload = {"valid": not problems, "violations": problems}
    lines = ["valid"] if not problems else [f"violation: {p}" for p in problems]
    _emit(payload, args.format, lines)
    return EXIT_OK if not problems else EXIT_REFUSAL


def cmd_index(args) -> int:
    g = _load_valid_graph(args.graph)
    bc = load_boundary(args.bc, g)
    sub = bc.subspace if bc.subspace is not None else graph_of(bc.endomorphism)
    idx = boundary_index(sub)
    payload = {"index": idx}
    lines = [f"index = {idx}"]
    if args.verify:
        kernel = scalar_kernel_dim(sub)
        coker = scalar_cokernel_dim(sub)
        payload.update({"kernel": kernel, "cokernel": coker})
        lines.append(f"kernel = {kernel}, cokernel = {coker}")
        if kernel - coker != idx:
            _warn(
                f"index identity violated numerically: {kernel} - {coker} != {idx}"
            )
    _emit(payload, args.format, lines)
    return EXIT_OK


def _report_payload(report, fmt: str):
    # The pretty format prints the report lines only: build no payload for it.
    if fmt == "pretty":
        return None
    if fmt == "csv":
        return report_to_csv(report)
    return report_to_json(report)


def _report_lines(report, fmt: str):
    # One f-string per eigenvalue: build them only for the format printing them.
    if fmt != "pretty":
        return None
    lines = [f"solver: {report.solver}"]
    for e in report.eigenvalues:
        lines.append(
            f"  {e.value.real:+.12g} {e.value.imag:+.12g}i  "
            f"mult={e.multiplicity}  residual={e.residual:.2e}"
        )
    if not report.eigenvalues:
        lines.append("  (empty)")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    return lines


def cmd_spectrum(args) -> int:
    g = _load_valid_graph(args.graph)
    bc = load_boundary(args.bc, g)
    window = _window(args.window)
    rect = _window(args.rect) if args.rect else None
    tol = _tol(args.tol)

    if bc.kind == "subspace" and bc.subspace.dim != g.n_edges:
        _warn(
            f"boundary subspace has dimension {bc.subspace.dim}, edge count is "
            f"{g.n_edges}: the spectrum is the whole complex plane"
        )
        payload = {
            "solver": "none",
            "spectrum_is_all_of_C": True,
            "eigenvalues": [],
            "warnings": ["dimension differs from edge count"],
        }
        _emit(payload, args.format, ["spectrum = C (dimension mismatch)"])
        return EXIT_OK

    a = _resolve_endomorphism(bc, g)
    lengths = g.lengths()
    if rect is not None:
        report = spectrum_complex(a, lengths, rect, residual_tol=tol)
    elif is_unitary(a):
        report = spectrum_numeric(a, lengths, window, residual_tol=tol)
    else:
        found = commensurable(lengths)
        if found is None:
            raise DiracGraphError(
                "edge map is not unitary and lengths are not commensurable to "
                "rounding; pass --rect to search a complex rectangle"
            )
        mult, delta = found
        report = spectrum_exact_commensurable(a, mult, delta, window, residual_tol=tol)

    for w in report.warnings:
        _warn(w)
    _emit(_report_payload(report, args.format), args.format, _report_lines(report, args.format))
    return EXIT_OK


def cmd_charpoly(args) -> int:
    g = _load_valid_graph(args.graph)
    if args.adjacency:
        poly = charpoly_via_collections(g, args.cap)
    else:
        if not args.bc:
            raise DiracGraphError("charpoly needs --bc FILE or --adjacency")
        bc = load_boundary(args.bc, g)
        poly = char_poly(_resolve_endomorphism(bc, g), args.cap)

    if args.multivariate:
        payload = multipoly_to_json(poly)
        lines = [json.dumps(payload)]
        _emit(payload, args.format, lines)
        return EXIT_OK

    commensurable = detect_commensurable(g.lengths())
    if commensurable is None:
        raise DiracGraphError(
            "edge lengths are not commensurable; a univariate specialization "
            "does not exist, use --multivariate"
        )
    mult, delta = commensurable
    coeffs = specialize_univariate(poly, mult)
    if np.allclose(coeffs.imag, 0, atol=1e-9) and np.allclose(
        coeffs.real, np.round(coeffs.real), atol=1e-9
    ):
        listed = [int(round(c.real)) for c in coeffs]
    else:
        listed = [[float(c.real), float(c.imag)] for c in coeffs]
    payload = {"base_length": delta, "coeffs_low_to_high": listed}
    _emit(payload, args.format, [univariate_to_string(coeffs)])
    return EXIT_OK


def cmd_trails(args) -> int:
    g = _load_valid_graph(args.graph)
    if args.enumerate:
        perms = enumerate_g_permutations(g)
        if not perms:
            raise DiracGraphError(
                "no vertex-compatible edge permutations: in and out degrees "
                "are unbalanced"
            )
        decomps = [permutation_to_decomposition(p) for p in perms]
        payload = {
            "count": len(decomps),
            "decompositions": [decomposition_to_json(d) for d in decomps],
        }
        lines = [f"{len(decomps)} decompositions"] + [
            "  " + " | ".join(",".join(t) for t in d.trails) for d in decomps
        ]
        _emit(payload, args.format, lines)
        return EXIT_OK

    if not args.from_permutation:
        raise DiracGraphError(
            "trails needs --enumerate or --from-permutation FILE"
        )
    data = load_json(args.from_permutation, "permutation")
    if isinstance(data, dict) and "trails" in data:
        perm = decomposition_to_permutation(parse_decomposition(data, g))
    else:
        if isinstance(data, dict) and "map" in data and "type" not in data:
            data = {"type": "permutation", **data}
        bc = parse_boundary(data, g)
        if bc.permutation is None:
            raise InputFormatError("file does not describe an edge permutation")
        perm = bc.permutation
    decomp = permutation_to_decomposition(perm)

    if args.spectrum:
        report = permutation_spectrum(perm, g.lengths(), _window(args.window))
        for w in report.warnings:
            _warn(w)
        payload = _report_payload(report, args.format)
        if args.format != "csv":
            extra = {"trails": [list(t) for t in decomp.trails]}
            try:
                length, count = longest_trail_from_spectrum(report)
                extra["longest_trail"] = {"length": length, "count": count}
            except ValueError:
                _warn("window contains no positive eigenvalue; longest trail omitted")
            if payload is not None:
                payload.update(extra)
        _emit(payload, args.format, _report_lines(report, args.format))
        return EXIT_OK

    _emit(
        decomposition_to_json(decomp),
        args.format,
        [" -> ".join(t) for t in decomp.trails],
    )
    return EXIT_OK


def cmd_topology(args) -> int:
    g = _load_valid_graph(args.graph)
    profile = CoefficientProfile.from_graph(g, cap=args.cap)
    try:
        report = topology_from_coefficients(profile, edge_connectivity(g, "undirected"))
    except DiracGraphError:
        _warn("graph has no cycles; girth undefined")
        raise
    payload = topology_to_json(report)
    payload["profile"] = profile_to_json(profile)
    lines = [
        f"girth = {report.girth}",
        f"loops = {report.loop_count}",
        "cycle counts: "
        + ", ".join(f"{l}: {c}" for l, c in sorted(report.cycle_counts.items())),
        "profile: " + univariate_to_string(profile.as_array()),
    ]
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_selfadjoint(args) -> int:
    g = _load_valid_graph(args.graph)
    bc = load_boundary(args.bc, g)
    sub = bc.subspace if bc.subspace is not None else graph_of(bc.endomorphism)
    result = self_adjointness_witness(sub, subspace_tol=_tol(args.tol))
    if not result.ok:
        _warn(f"refused: {result.reason}")
        _emit({"selfadjoint": False, "reason": result.reason}, args.format,
              [f"refused: {result.reason}"])
        return EXIT_REFUSAL
    payload = {
        "selfadjoint": True,
        "unitary": endomorphism_to_json(result.endomorphism)["matrix"],
    }
    lines = ["self-adjoint; unitary edge map:"]
    for row in result.endomorphism.matrix:
        lines.append("  " + "  ".join(f"{x.real:+.6f}{x.imag:+.6f}i" for x in row))
    _emit(payload, args.format, lines)
    return EXIT_OK


# -- argument parsing ----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads every negative number as a value: argparse's own pattern takes
    ``-5`` and ``-.5`` but sees ``-1e3`` as an unknown option, so a window
    bound such as ``--window -1e3 5`` would fail.  Subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first :func:`main` call:
    building it costs about twenty times what parsing one argv does."""
    parser = _Parser(
        prog="diracgraph",
        description="Spectral analysis of first order operators on metric digraphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "pretty"),
                        default="json", help="output format (default json)")
    # only the commands that run an exponential enumeration take --cap
    cap = dict(type=int, default=DEFAULT_EDGE_CAP,
               help="edge count cap for exponential enumerations "
                    f"(default {DEFAULT_EDGE_CAP})")
    # only the commands that read a tolerance take --tol
    tol = dict(type=float, default=1e-10)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check a graph file for structural violations")
    p.add_argument("graph")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("index", parents=[common],
                       help="Fredholm index of a boundary condition")
    p.add_argument("graph")
    p.add_argument("--bc", required=True, help="boundary condition JSON file")
    p.add_argument("--verify", action="store_true",
                   help="also compute kernel and cokernel dimensions")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser(
        "spectrum", parents=[common], help="eigenvalues of a boundary condition",
        description="Eigenvalues of a boundary condition. A --rect goes to the "
        "contour solver. Otherwise a unitary map goes to the eigenphase "
        "locator, which locates one period of a spectrum with commensurable "
        "lengths and translates it across the window; any other map goes to "
        "the exact solver if its lengths are commensurable to rounding and "
        "is refused if they are not.",
    )
    p.add_argument("graph")
    p.add_argument("--bc", required=True)
    p.add_argument("--window", nargs=2, type=float, default=(-10.0, 10.0),
                   metavar=("A", "B"), help="real window (default -10 10)")
    p.add_argument("--rect", nargs=4, type=float, default=None,
                   metavar=("RE0", "RE1", "IM0", "IM1"),
                   help="complex rectangle for the contour solver")
    p.add_argument("--tol", **tol,
                   help="largest residual, the smallest singular value of "
                        "diag(exp(i lambda l)) - A relative to its scale "
                        "(default 1e-10)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("charpoly", parents=[common],
                       help="characteristic polynomial of an edge map")
    p.add_argument("graph")
    p.add_argument("--bc", default=None)
    p.add_argument("--adjacency", action="store_true",
                   help="use the directed edge adjacency map")
    p.add_argument("--multivariate", action="store_true",
                   help="emit the full multivariate polynomial")
    p.add_argument("--cap", **cap)
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("trails", parents=[common],
                       help="closed trail decompositions and their spectra")
    p.add_argument("graph")
    p.add_argument("--enumerate", action="store_true",
                   help="enumerate all edge permutations as decompositions")
    p.add_argument("--from-permutation", default=None, metavar="FILE",
                   help="permutation or decomposition JSON file")
    p.add_argument("--spectrum", action="store_true",
                   help="spectrum of the given permutation: the closed form "
                        "2 pi k / L per trail, each trail certified by rank "
                        "on its own and coinciding trails merged")
    p.add_argument("--window", nargs=2, type=float, default=(-10.0, 10.0),
                   metavar=("A", "B"))
    p.set_defaults(func=cmd_trails)

    p = sub.add_parser("topology", parents=[common],
                       help="girth and cycle counts from the coefficient profile")
    p.add_argument("graph")
    p.add_argument("--cap", **cap)
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("selfadjoint", parents=[common],
                       help="certify a boundary condition by a unitary edge map")
    p.add_argument("graph")
    p.add_argument("--bc", required=True)
    p.add_argument("--tol", **tol, help="subspace tolerance (default 1e-10)")
    p.set_defaults(func=cmd_selfadjoint)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        _warn(f"input error: {exc}")
        return EXIT_BAD_INPUT
    except DiracGraphError as exc:
        _warn(f"refused: {exc}")
        return EXIT_REFUSAL


def console() -> None:  # pragma: no cover
    sys.exit(main())
