"""Command-line front end: JSON matrix I/O over the library.

Matrices travel as ``{"n": int, "data": [[row], ...]}`` documents; every
matrix argument accepts either a file path or that JSON inline.  Results are
JSON on stdout, errors are ``{"error": code, "message": text}`` on stderr.
Exit codes: 0 success, 2 classification found no arc, 1 anything else,
including every argparse failure, which is a ``parse`` error.
"""

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import IllConditionedError, TraceGeoError
from .matcore import _det, matrix_document


class _ParseError(argparse.ArgumentTypeError):
    """Unreadable input.  Raised by an option's ``type=``, argparse prefixes the option's name."""


class _Parser(argparse.ArgumentParser):
    """Every argparse failure (subcommands included) is a ``parse`` error, not usage and exit 2."""

    def error(self, message):
        raise _ParseError(message)


def _number(convert, test, wants):
    """An argparse ``type=``: ``convert`` the text and require ``test`` of the value."""

    def parse(text):
        try:
            value = convert(text)
            ok = test(value)
        except ValueError:
            ok = False
        if not ok:
            raise _ParseError(f"must be {wants}, got {text!r}")
        return value

    return parse


_positive = _number(float, lambda v: math.isfinite(v) and v > 0, "a positive finite number")
_finite = _number(float, math.isfinite, "a finite number")
_count = _number(int, lambda v: v >= 0, "a non-negative integer")
_positive_count = _number(int, lambda v: v >= 1, "a positive integer")


# Each command imports the modules it runs when it runs, so a process compiles only those:
# metricspace, geodesy or curvature, or tracegeo.verify, the costliest, whose two options take
# their allowed values from it when they are parsed.
def _suite(text):
    from . import verify

    return _number(str, lambda v: v in (*verify.SUITES, "all"),
                   f"one of {', '.join(verify.SUITES)} or all")(text)


def _order(text):
    from . import verify

    return _number(int, lambda v: v in verify.ORDERS,
                   f"an integer from {verify.ORDERS[0]} to {verify.ORDERS[-1]}")(text)


def load_matrix(arg):
    """Load a matrix document from inline JSON, a file path, or stdin ("-")."""
    try:
        if arg.strip() == "-":
            text = sys.stdin.read()
        elif arg.lstrip().startswith("{"):
            text = arg
        else:
            text = Path(arg).read_text()
    except (OSError, ValueError) as exc:  # no such file, a directory, not UTF-8 text
        raise _ParseError(f"cannot read matrix: {exc}") from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise _ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "n" not in doc or "data" not in doc:
        raise _ParseError("matrix document needs keys 'n' and 'data'")
    n = doc["n"]
    data = doc["data"]
    if isinstance(n, bool) or not isinstance(n, int) or n <= 0:
        raise _ParseError("'n' must be a positive integer")
    try:
        M = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _ParseError(f"'data' is not a numeric array: {exc}") from exc
    if M.shape != (n, n):
        raise _ParseError(f"'data' must be {n}x{n}, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise _ParseError("'data' has non-finite entries")
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for row in data for x in row):
        raise _ParseError("'data' entries must be JSON numbers")
    return M


def _profile_document(profile):
    return {
        "tolerance": profile.tolerance,
        "clusters": [
            {
                "eigenvalue": {"re": c.eigenvalue.real, "im": c.eigenvalue.imag},
                "block_sizes": sorted(c.block_sizes, reverse=True),
            }
            for c in profile.clusters
        ],
    }


def _witness_document(geo):
    return {"k": matrix_document(geo.base_point), "c": matrix_document(geo.direction)}


def _cmd_metric(args):
    from . import metricspace

    return {"value": metricspace.trace_metric(args.at, args.x, args.y)}, 0


def _cmd_signature(args):
    from . import metricspace

    sig = metricspace.signature_at(args.at)
    return {"positive": sig.positive, "negative": sig.negative}, 0


def _cmd_classify(args):
    from . import geodesy

    outcome = geodesy.classify_arc(args.k0, args.k1, args.tol)
    payload = {
        "verdict": outcome.verdict.value,
        "profile": _profile_document(outcome.profile),
    }
    if outcome.witness is not None:
        payload["witness"] = _witness_document(outcome.witness)
    return payload, (2 if outcome.verdict is geodesy.ArcKind.NO_ARC else 0)


def _cmd_arc(args):
    payload, code = _cmd_classify(args)
    del payload["profile"]
    payload.update(payload.pop("witness", {}))
    return payload, code


# Most matrix entries (samples * n^2) one ``geodesic`` call emits: at the cap a process peaks
# near 45 MB resident at n = 2 and 40 MB at n = 6 (Python 3.11, numpy 2.4).
_MAX_SAMPLE_ENTRIES = 1_000_000


def _cmd_geodesic(args):
    if args.samples * args.k.size > _MAX_SAMPLE_ENTRIES:
        raise _ParseError(f"argument --samples: {args.samples} samples of {args.k.size} entries "
                          f"exceed the {_MAX_SAMPLE_ENTRIES} one call may emit")
    if not math.isfinite(args.t_to - args.t_from):  # np.linspace needs a finite span
        raise _ParseError("--t-from and --t-to span more than the float range")
    from . import geodesy

    if args.c is not None:
        geo = geodesy.Geodesic(args.k, args.c)
    else:
        geo = geodesy.geodesic_from_velocity(args.k, args.velocity)
    ts = np.linspace(args.t_from, args.t_to, args.samples)
    points = np.empty((args.samples, *args.k.shape))
    dets = np.empty(args.samples)
    for i, t in enumerate(ts):  # every point before any output: an overflow leaves stdout empty
        points[i] = geo.point(float(t))
        dets[i] = _det(points[i])
    return _documents(ts, points, dets), 0


def _documents(ts, points, dets):
    """The ``geodesic`` documents, made one at a time as :func:`main` prints them."""
    for t, P, det in zip(ts, points, dets):
        doc = matrix_document(P)
        doc["t"] = float(t)
        doc["det"] = float(det)
        yield doc


def _cmd_broken_arc(args):
    from . import geodesy

    arc = geodesy.broken_arc(args.k1, args.k2)
    payload = {
        "joint": matrix_document(arc.joint),
        "first": _witness_document(arc.first),
        "second": _witness_document(arc.second),
    }
    return payload, 0


# --kind -> (tracegeo.curvature function, the tangent options it takes after --at)
_CURVATURES = {
    "sectional": ("sectional", ("x", "y")),
    "riemann04": ("riemann_04", ("x", "y", "z", "w")),
    "ricci": ("ricci", ("x", "y")),
    "scalar": ("scalar_curvature", ()),
}


def _cmd_curvature(args):
    function, options = _CURVATURES[args.kind]
    tangents = [getattr(args, option) for option in options]
    if any(X is None for X in tangents):
        raise _ParseError(f"--kind {args.kind} needs " + " ".join("--" + o for o in options))
    stray = [o for o in ("x", "y", "z", "w") if o not in options and getattr(args, o) is not None]
    if stray:
        raise _ParseError(f"--kind {args.kind} takes no " + " ".join("--" + o for o in stray))
    from . import curvature

    return {"value": getattr(curvature, function)(args.at, *tangents)}, 0


def _cmd_verify(args):
    from . import verify

    tol_assert = args.tol_assert
    if tol_assert is None:
        try:
            tol_assert = _positive(os.environ.get("TRACEGEO_TOL", "1e-8"))
        except _ParseError as exc:
            raise _ParseError(f"TRACEGEO_TOL {exc}") from None
    kwargs = dict(tol_assert=tol_assert, tol_cluster=args.tol_cluster, fd_step=args.fd_step)
    if args.suite == "all":
        report = verify.run_all(args.n, args.seed, args.cases, **kwargs)
    else:
        report = verify.run_suite(args.suite, args.n, args.seed, args.cases, **kwargs)
    return report, (0 if not report["failures"] else 1)


def _dumps(payload):
    """Strict JSON: a non-finite number is an error, never a NaN/Infinity token."""
    try:
        return json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        raise IllConditionedError(f"result is not a finite number: {exc}") from exc


def _matrix_options(parser, *options, required=True):
    for option in options:
        parser.add_argument(option, required=required, type=load_matrix,
                            help="matrix: file path, inline JSON, or - for stdin")


def build_parser():
    parser = _Parser(
        prog="tracegeo",
        description="Trace-metric geometry of invertible matrices: metric, geodesics, curvature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metric", help="metric value g_A(V, W)")
    _matrix_options(p, "--at", "--x", "--y")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("signature", help="metric signature at a point")
    _matrix_options(p, "--at")
    p.set_defaults(func=_cmd_signature)

    p = sub.add_parser("classify", help="classify geodesic arcs between two points")
    _matrix_options(p, "--k0", "--k1")
    p.add_argument("--tol", type=_positive, default=1e-8, help="eigenvalue clustering tolerance")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("arc", help="construct a geodesic arc between two points")
    _matrix_options(p, "--k0", "--k1")
    p.add_argument("--tol", type=_positive, default=1e-8)
    p.set_defaults(func=_cmd_arc)

    p = sub.add_parser("geodesic", help="sample a geodesic K exp(tC)")
    _matrix_options(p, "--k")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--c", type=load_matrix, help="direction matrix C")
    group.add_argument("--velocity", type=load_matrix, help="initial velocity S (uses C = K^{-1} S)")
    p.add_argument("--t-from", type=_finite, default=0.0)
    p.add_argument("--t-to", type=_finite, default=1.0)
    p.add_argument("--samples", type=_positive_count, default=11)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("broken-arc", help="singly broken geodesic between same-component points")
    _matrix_options(p, "--k1", "--k2")
    p.set_defaults(func=_cmd_broken_arc)

    p = sub.add_parser("curvature", help="curvature scalars at a point")
    _matrix_options(p, "--at")
    p.add_argument("--kind", required=True, choices=_CURVATURES)
    _matrix_options(p, "--x", "--y", "--z", "--w", required=False)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("verify", help="run a seeded self-verification suite")
    p.add_argument("--suite", required=True, type=_suite, help="a suite name, or all")
    p.add_argument("--n", type=_order, default=2, help="matrix order, 2 to 6")
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--cases", type=_count, default=50)
    p.add_argument("--tol-assert", type=_positive, default=None,
                   help="default 1e-8, or the TRACEGEO_TOL environment variable")
    p.add_argument("--tol-cluster", type=_positive, default=1e-8)
    p.add_argument("--fd-step", type=_positive, default=1e-4)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        payload, code = args.func(args)
        text = _dumps(payload) if isinstance(payload, dict) else None
    except TraceGeoError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 1
    except (_ParseError, ValueError, OSError) as exc:
        print(json.dumps({"error": "parse", "message": str(exc)}), file=sys.stderr)
        return 1
    if text is None:  # geodesic's documents: the array json.dumps writes, one document at a time
        sys.stdout.write("[")
        for k, doc in enumerate(payload):
            sys.stdout.write((", " if k else "") + _dumps(doc))
        text = "]"
    print(text)
    return code


def run():
    """Process entry of ``tracegeo`` and ``python -m tracegeo.cli``: :func:`main`'s exit code.

    ``gc.freeze()`` once ``main`` has returned spares interpreter shut-down collecting and freeing
    what numpy and tracegeo imported, object by object (about 20 ms); ``atexit`` handlers and the
    stream flush still run.  ``main`` never freezes, so in-process callers keep their collector.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
