"""Command-line front end: JSON matrix I/O over the library.

Matrices travel as ``{"n": int, "data": [[row], ...]}`` documents; every
matrix argument accepts either a file path or that JSON inline.  Results are
JSON on stdout, errors are ``{"error": code, "message": text}`` on stderr.
Exit codes: 0 success, 2 classification found no arc, 1 anything else.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import curvature as curvature_mod
from . import geodesy, metricspace, verify
from .errors import IllConditionedError, TraceGeoError
from .matcore import _overflow_guard
from .verify import matrix_document

_det = _overflow_guard("determinant")(np.linalg.det)


class _ParseError(Exception):
    pass


# argparse destinations of the options that must be positive finite numbers
_TOLERANCE_OPTIONS = ("tol", "tol_cluster", "tol_assert", "fd_step")


def _check_tolerance(name, value):
    """Return ``value`` when it is a positive finite number; else a parse error."""
    if not (math.isfinite(value) and value > 0):
        raise _ParseError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _default_assert_tol():
    raw = os.environ.get("TRACEGEO_TOL")
    if raw is None:
        return 1e-8
    try:
        value = float(raw)
    except ValueError as exc:
        raise _ParseError(f"TRACEGEO_TOL is not a number: {raw!r}") from exc
    return _check_tolerance("TRACEGEO_TOL", value)


def load_matrix(arg):
    """Load a matrix document from inline JSON, a file path, or stdin ("-")."""
    if arg.strip() == "-":
        text = sys.stdin.read()
    elif arg.lstrip().startswith("{"):
        text = arg
    else:
        path = Path(arg)
        if not path.exists():
            raise _ParseError(f"no such matrix file: {arg}")
        text = path.read_text()
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
    A = load_matrix(args.at)
    V = load_matrix(args.x)
    W = load_matrix(args.y)
    return {"value": metricspace.trace_metric(A, V, W)}, 0


def _cmd_signature(args):
    sig = metricspace.signature_at(load_matrix(args.at))
    return {"positive": sig.positive, "negative": sig.negative}, 0


def _cmd_classify(args):
    outcome = geodesy.classify_arc(load_matrix(args.k0), load_matrix(args.k1), args.tol)
    payload = {
        "verdict": outcome.verdict.value,
        "profile": _profile_document(outcome.profile),
    }
    if outcome.witness is not None:
        payload["witness"] = _witness_document(outcome.witness)
    return payload, (2 if outcome.verdict is geodesy.ArcKind.NO_ARC else 0)


def _cmd_arc(args):
    outcome = geodesy.classify_arc(load_matrix(args.k0), load_matrix(args.k1), args.tol)
    payload = {"verdict": outcome.verdict.value}
    if outcome.witness is None:
        return payload, 2
    payload.update(_witness_document(outcome.witness))
    return payload, 0


def _cmd_geodesic(args):
    K = load_matrix(args.k)
    if args.c is not None:
        geo = geodesy.Geodesic(K, load_matrix(args.c))
    else:
        geo = geodesy.geodesic_from_velocity(K, load_matrix(args.velocity))
    if args.samples < 1:
        raise _ParseError("--samples must be at least 1")
    ts = np.linspace(args.t_from, args.t_to, args.samples)
    out = []
    for t in ts:
        P = geo.point(float(t))
        doc = matrix_document(P)
        doc["t"] = float(t)
        doc["det"] = float(_det(P))
        out.append(doc)
    return out, 0


def _cmd_broken_arc(args):
    arc = geodesy.broken_arc(load_matrix(args.k1), load_matrix(args.k2), args.tol)
    payload = {
        "joint": matrix_document(arc.joint),
        "first": _witness_document(arc.first),
        "second": _witness_document(arc.second),
    }
    return payload, 0


def _cmd_curvature(args):
    K = load_matrix(args.at)
    kind = args.kind
    if kind == "scalar":
        return {"value": curvature_mod.scalar_curvature(K)}, 0
    if args.x is None or args.y is None:
        raise _ParseError(f"--kind {kind} needs --x and --y")
    X = load_matrix(args.x)
    Y = load_matrix(args.y)
    if kind == "sectional":
        return {"value": curvature_mod.sectional(K, X, Y)}, 0
    if kind == "ricci":
        return {"value": curvature_mod.ricci(K, X, Y)}, 0
    if args.z is None or args.w is None:
        raise _ParseError("--kind riemann04 needs --z and --w")
    value = curvature_mod.riemann_04(K, X, Y, load_matrix(args.z), load_matrix(args.w))
    return {"value": value}, 0


def _cmd_verify(args):
    kwargs = dict(
        tol_assert=args.tol_assert,
        tol_cluster=args.tol_cluster,
        fd_step=args.fd_step,
    )
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tracegeo",
        description="Trace-metric geometry of invertible matrices: metric, geodesics, curvature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metric", help="metric value g_A(V, W)")
    p.add_argument("--at", required=True, help="base point (file or inline JSON)")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("signature", help="metric signature at a point")
    p.add_argument("--at", required=True)
    p.set_defaults(func=_cmd_signature)

    p = sub.add_parser("classify", help="classify geodesic arcs between two points")
    p.add_argument("--k0", required=True)
    p.add_argument("--k1", required=True)
    p.add_argument("--tol", type=float, default=1e-8, help="eigenvalue clustering tolerance")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("arc", help="construct a geodesic arc between two points")
    p.add_argument("--k0", required=True)
    p.add_argument("--k1", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_arc)

    p = sub.add_parser("geodesic", help="sample a geodesic K exp(tC)")
    p.add_argument("--k", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--c", help="direction matrix C")
    group.add_argument("--velocity", help="initial velocity S (uses C = K^{-1} S)")
    p.add_argument("--t-from", type=float, default=0.0)
    p.add_argument("--t-to", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=11)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("broken-arc", help="singly broken geodesic between same-component points")
    p.add_argument("--k1", required=True)
    p.add_argument("--k2", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_broken_arc)

    p = sub.add_parser("curvature", help="curvature scalars at a point")
    p.add_argument("--at", required=True)
    p.add_argument("--kind", required=True, choices=["sectional", "riemann04", "ricci", "scalar"])
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--z")
    p.add_argument("--w")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("verify", help="run a seeded self-verification suite")
    p.add_argument("--suite", required=True, choices=list(verify.SUITES) + ["all"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--tol-assert", type=float, default=None,
                   help="default 1e-8, or the TRACEGEO_TOL environment variable")
    p.add_argument("--tol-cluster", type=float, default=1e-8)
    p.add_argument("--fd-step", type=float, default=1e-4)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "func", None) is _cmd_verify and args.tol_assert is None:
            args.tol_assert = _default_assert_tol()
        for dest in _TOLERANCE_OPTIONS:
            value = getattr(args, dest, None)
            if value is not None:
                _check_tolerance("--" + dest.replace("_", "-"), value)
        payload, code = args.func(args)
        text = _dumps(payload)
    except _ParseError as exc:
        print(json.dumps({"error": "parse", "message": str(exc)}), file=sys.stderr)
        return 1
    except TraceGeoError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": "parse", "message": str(exc)}), file=sys.stderr)
        return 1
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
