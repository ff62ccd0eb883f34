"""Seeded inputs, operations and output checks for the benchmark workloads.

Each workload is a pool of operations built from the seed alone.  An
operation carries a label, a zero-argument ``call`` that makes exactly one
library (or CLI) call, and a ``check`` that takes the call's result and
returns its worst error divided by its tolerance: at most 1 passes, ``inf``
marks a wrong verdict or payload or a non-finite output.  Checks run outside the timed span and
compute their references with numpy directly, never with the function under
test.

Library functions are looked up on their module at call time, so that the
traced run sees the wrappers it installs.
"""

import itertools
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import scipy.linalg as sla

import tracegeo as tg
from tracegeo import verify as tg_verify

ARC_CLASSES = (
    "spd",
    "nonsym-pos",
    "complex-pair",
    "paired-neg",
    "repeated-pos",
    "unpaired-neg",
    "broken",
)
EXPECTED_VERDICT = {
    "spd": "unique",
    "nonsym-pos": "unique",
    "complex-pair": "countable",
    "paired-neg": "continuum",
    "repeated-pos": "continuum",
    "unpaired-neg": "no-arc",
}
ARC_ORDERS = (2, 3, 4, 6)
ARC_REPLICAS = 16  # pairs per (class, n) in the pool
SCALE_DECADES = 6.0  # c is log-uniform over 10^-6 .. 10^6
ENDPOINT_RTOL = 1e-8

FIELD_ORDERS = (2, 3, 4, 5, 6)
FIELD_REPLICAS = 4
CHRISTOFFEL_MAX_N = 4
FORMULA_RTOL = 1e-9  # isometry pullback, and numpy forms of the closed formulas
SCALAR_RTOL = 1e-8
PRODUCT_TOL = 1e-10

VERIFY_ORDERS = (2, 3, 4, 6)
VERIFY_SEEDS = 5  # pool: every suite at every order under this many seeds
VERIFY_CASES = 4

CLI_ORDERS = (2, 3, 4)
CLI_TIMEOUT_S = 60.0
PAYLOAD_RTOL = 1e-12  # the CLI runs the same code as the in-process reference

# Percentile of the pool's per-op times reported as tail_ms: the highest one
# with at least ten pool ops beyond it (arcs 448 ops, fields 592, verify 100).
# The cli pool has 8 ops, so its p75 has only 2 beyond it.
TAIL_PERCENTILE = {"arcs": 97, "fields": 98, "verify": 90, "cli": 75}


@dataclass(frozen=True, eq=False)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], float]
    inputs: tuple = ()  # what the call receives, as generated from the seed


# ---------------------------------------------------------------------------
# Random matrices, independent of tracegeo's own generators
# ---------------------------------------------------------------------------


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


def _conditioned(rng, n, cond=10.0):
    """U diag(s) V^T with singular values log-spread over [1, cond]."""
    s = np.exp(rng.uniform(0.0, math.log(cond), n))
    s[0], s[-1] = 1.0, cond
    return _orthogonal(rng, n) @ np.diag(s) @ _orthogonal(rng, n).T


def _distinct(rng, k, low=0.5, high=3.0, min_gap=1e-3):
    """k uniform draws on [low, high], redrawn until they differ pairwise by min_gap.

    The gap is the one tracegeo.verify.random_spd uses for its spectra.
    """
    while True:
        v = rng.uniform(low, high, k)
        if k < 2 or float(np.diff(np.sort(v)).min()) >= min_gap:
            return v


def _spd(rng, n, w):
    Q = _orthogonal(rng, n)
    return Q @ (np.asarray(w)[:, None] * Q.T)


def spectrum_blocks(rng, cls, n):
    """Real block-diagonal D whose Jordan structure defines the class."""
    if cls == "complex-pair":
        r, *rest = _distinct(rng, n - 1)
        th = rng.uniform(0.3, math.pi - 0.3)
        rot = r * np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        return sla.block_diag(rot, *rest)
    if cls in ("paired-neg", "repeated-pos"):
        lam, *rest = _distinct(rng, n - 1)
        sign = -1.0 if cls == "paired-neg" else 1.0
        return sla.block_diag(sign * lam * np.eye(2), *rest)
    if cls == "unpaired-neg":
        mu, *rest = _distinct(rng, n)
        return np.diag([-mu, *rest])
    return np.diag(_distinct(rng, n))  # nonsym-pos


def arc_pair(rng, cls, n, c):
    """Endpoints (K0, K1) of class ``cls`` with K1 scaled by c > 0.

    exp(X) = cM iff exp(X - log(c) I) = M, so the class does not depend on c.
    For ``broken`` the pair is two same-component points.
    """
    if cls == "spd":
        w0 = _distinct(rng, n)
        K0 = _spd(rng, n, w0)
        half = np.linalg.cholesky(K0)  # K0^-1 (L D L^T) = L^-T D L^T has spectrum D
        D = _spd(rng, n, _distinct(rng, n))
        return K0, c * (half @ D @ half.T)
    if cls == "broken":
        K0, K1 = _conditioned(rng, n), _conditioned(rng, n)
        if np.linalg.det(K0) * np.linalg.det(K1) < 0:
            K1[0] = -K1[0]
        return K0, c * K1
    K0 = _conditioned(rng, n)
    S = _conditioned(rng, n)
    M = S @ spectrum_blocks(rng, cls, n) @ np.linalg.inv(S)
    return K0, c * (K0 @ M)


def _rel(err, scale):
    """err / scale; inf when either is not finite, so a NaN output never passes."""
    ratio = float(err) / max(float(scale), np.finfo(float).tiny)
    return ratio if math.isfinite(ratio) else math.inf


def _endpoint_ratio(K, C, target):
    """||K expm(C) - target|| over ENDPOINT_RTOL ||target||."""
    return _rel(np.linalg.norm(K @ sla.expm(C) - target), ENDPOINT_RTOL * np.linalg.norm(target))


def _check_classify(K0, K1, expected):
    def check(out):
        if out.verdict.value != expected:
            return math.inf
        if expected == "no-arc":
            return 0.0 if out.witness is None else math.inf
        if out.witness is None:
            return math.inf
        base = _rel(np.linalg.norm(out.witness.base_point - K0), ENDPOINT_RTOL * np.linalg.norm(K0))
        return max(base, _endpoint_ratio(K0, out.witness.direction, K1))

    return check


def _check_broken(K1, K2):
    def check(arc):
        Z = arc.joint
        return max(
            _rel(np.linalg.norm(arc.first.base_point - K1), ENDPOINT_RTOL * np.linalg.norm(K1)),
            _endpoint_ratio(K1, arc.first.direction, Z),
            _rel(np.linalg.norm(arc.second.base_point - Z), ENDPOINT_RTOL * np.linalg.norm(Z)),
            _endpoint_ratio(Z, arc.second.direction, K2),
        )

    return check


def arc_op(rng, cls, n, c):
    K0, K1 = arc_pair(rng, cls, n, c)
    if cls == "broken":
        return Op(cls, lambda: tg.broken_arc(K0, K1), _check_broken(K0, K1), (K0, K1))
    return Op(cls, lambda: tg.classify_arc(K0, K1), _check_classify(K0, K1, EXPECTED_VERDICT[cls]),
              (K0, K1))


def build_arcs(seed):
    rng = np.random.default_rng([seed, 1])
    ops = []
    for cls in ARC_CLASSES:
        for n in ARC_ORDERS:
            for _ in range(ARC_REPLICAS):
                c = 10.0 ** rng.uniform(-SCALE_DECADES, SCALE_DECADES)
                ops.append(arc_op(rng, cls, n, c))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Pointwise fields
# ---------------------------------------------------------------------------


def _metric(A, V, W):
    B = np.linalg.inv(A)
    return float(np.trace(B @ V @ B @ W))


def _cs_scale(A, V, W):
    """Cauchy-Schwarz bound on |tr(A^-1 V A^-1 W)|: the honest scale of the metric."""
    B = np.linalg.inv(A)
    return float(np.linalg.norm(B @ V) * np.linalg.norm(B @ W))


def _close(got, want, tol):
    return _rel(np.linalg.norm(np.asarray(got) - np.asarray(want)), tol)


def _comm(a, b):
    return a @ b - b @ a


def _iso_map(kind, G, X):
    if kind == "left-translate":
        return G @ X
    if kind == "right-translate":
        return X @ G
    if kind == "conjugate":
        return np.linalg.inv(G) @ X @ G
    if kind == "congruence":
        return G.T @ X @ G
    if kind == "inversion":
        return np.linalg.inv(X)
    if kind == "transposition":
        return X.T
    if kind == "negation":
        return -X
    return G @ np.linalg.inv(X) @ G  # point symmetry about G


def _isometry(kind, G):
    if kind in ("inversion", "transposition", "negation"):
        return tg.Isometry(kind)
    return tg.Isometry(kind, G)


ISOMETRY_KINDS = (
    "left-translate",
    "right-translate",
    "conjugate",
    "congruence",
    "inversion",
    "transposition",
    "negation",
    "point-symmetry",
)


def _isometry_ops(rng, n):
    ops = []
    for kind in ISOMETRY_KINDS:
        iso = _isometry(kind, _conditioned(rng, n))
        G = iso.parameter
        A = _conditioned(rng, n)
        V = rng.uniform(-1.0, 1.0, (n, n))
        fA = _iso_map(kind, G, A)
        ops.append(Op(
            "apply_isometry",
            lambda iso=iso, A=A: tg.apply_isometry(iso, A),
            lambda out, fA=fA: _close(out, fA, FORMULA_RTOL * np.linalg.norm(fA)),
            (kind, G, A),
        ))
        # pullback: g_{f(A)}(f_* V, f_* V) = g_A(V, V)
        g = _metric(A, V, V)
        scale = max(1.0, abs(g), _cs_scale(A, V, V))

        def pullback(fV, fA=fA, g=g, scale=scale):
            s = max(scale, _cs_scale(fA, fV, fV))
            return _rel(abs(_metric(fA, fV, fV) - g), FORMULA_RTOL * s)

        ops.append(Op("pushforward", lambda iso=iso, A=A, V=V: tg.pushforward(iso, A, V), pullback,
                      (kind, G, A, V)))
    return ops


def _geodesic_ops(rng, n):
    K = _conditioned(rng, n)
    S = _conditioned(rng, n)
    lam = rng.uniform(-1.0, 1.0, n)
    Sinv = np.linalg.inv(S)
    C = S @ np.diag(lam) @ Sinv
    geo = tg.Geodesic(K, C)
    t = float(rng.uniform(-1.0, 2.0))
    want = K @ S @ np.diag(np.exp(t * lam)) @ Sinv
    vel = rng.uniform(-1.0, 1.0, (n, n))
    direction = np.linalg.inv(K) @ vel
    # unit spectral norm keeps the central-difference residual above roundoff
    Cr = rng.uniform(-1.0, 1.0, (n, n))
    Cr /= max(1.0, float(np.linalg.norm(Cr, 2)))
    geo_r = tg.Geodesic(K, Cr)
    return [
        Op("Geodesic.point", lambda: geo.point(t),
           lambda P: _close(P, want, ENDPOINT_RTOL * np.linalg.norm(want)), (K, C, t)),
        Op("geodesic_from_velocity", lambda: tg.geodesic_from_velocity(K, vel),
           lambda g: max(_close(g.base_point, K, 1e-12 * np.linalg.norm(K)),
                         _close(g.direction, direction, FORMULA_RTOL * np.linalg.norm(direction))),
           (K, vel)),
        Op("curve_residual", lambda: tg.curve_residual(geo_r.point, t),
           lambda r: _rel(abs(r), tg_verify.RESIDUAL_TOL), (K, Cr, t)),
    ]


def _curvature_ops(rng, n):
    K = _conditioned(rng, n)
    B = np.linalg.inv(K)
    X, Y, Z, W = (rng.uniform(-1.0, 1.0, (n, n)) for _ in range(4))
    BX, BY, BZ, BW = B @ X, B @ Y, B @ Z, B @ W
    r04 = 0.25 * float(np.trace(_comm(BX, BY) @ _comm(BZ, BW)))
    s04 = max(1.0, abs(r04), _cs_scale(K, X, Y) * _cs_scale(K, Z, W))
    left, right = _comm(BX, BY), _comm(X @ B, Y @ B)
    r13 = -0.25 * (Z @ left - right @ Z)
    s13 = max(1.0, 0.25 * (np.linalg.norm(Z) * (np.linalg.norm(left) + np.linalg.norm(right))))
    ric = float(0.5 * np.trace(BX) * np.trace(BY) - 0.5 * n * np.trace(BX @ BY))
    s_ric = max(1.0, abs(ric), n * _cs_scale(K, X, Y))
    # symmetric directions at the identity span a space-like (nondegenerate) plane
    S1, S2 = (rng.uniform(-1.0, 1.0, (n, n)) for _ in range(2))
    S1, S2 = K @ (S1 + S1.T), K @ (S2 + S2.T)
    bs1, bs2 = B @ S1, B @ S2
    g11, g22, g12 = (float(np.trace(a @ b)) for a, b in ((bs1, bs1), (bs2, bs2), (bs1, bs2)))
    denom = g11 * g22 - g12 * g12
    sec = 0.25 * float(np.trace(_comm(bs1, bs2) @ _comm(bs1, bs2))) / denom
    s_sec = max(abs(sec), (np.linalg.norm(bs1) * np.linalg.norm(bs2)) ** 2 / denom)
    want_scalar = -(n + 1) * n * (n - 1) / 2.0
    ops = [
        Op("riemann_04", lambda: tg.riemann_04(K, X, Y, Z, W),
           lambda v: _rel(abs(v - r04), FORMULA_RTOL * s04), (K, X, Y, Z, W)),
        Op("riemann_13", lambda: tg.riemann_13(K, X, Y, Z),
           lambda v: _close(v, r13, FORMULA_RTOL * s13), (K, X, Y, Z)),
        Op("sectional", lambda: tg.sectional(K, S1, S2),
           lambda v: _rel(abs(v - sec), FORMULA_RTOL * s_sec), (K, S1, S2)),
        Op("ricci", lambda: tg.ricci(K, X, Y),
           lambda v: _rel(abs(v - ric), FORMULA_RTOL * s_ric), (K, X, Y)),
        Op("scalar_curvature", lambda: tg.scalar_curvature(K),
           lambda v: _rel(abs(v - want_scalar), SCALAR_RTOL * abs(want_scalar)), (K,)),
    ]
    if n <= CHRISTOFFEL_MAX_N:
        P = _conditioned(rng, n)
        Xc, Yc = (rng.uniform(-1.0, 1.0, (n, n)) for _ in range(2))
        Pinv = np.linalg.inv(P)
        nab = -0.5 * (Xc @ Pinv @ Yc + Yc @ Pinv @ Xc)  # constant fields: no Euclidean part

        def christoffel(gamma):
            got = np.einsum("a,b,abc->c", Xc.ravel(order="F"), Yc.ravel(order="F"), gamma)
            return _close(got.reshape((n, n), order="F"), nab,
                          ENDPOINT_RTOL * max(1.0, np.linalg.norm(nab)))

        ops.append(Op("christoffel_closed", lambda: tg.christoffel_closed(P), christoffel, (P,)))
    return ops


def _metric_ops(rng, n):
    A = _conditioned(rng, n)
    V, W = (rng.uniform(-1.0, 1.0, (n, n)) for _ in range(2))
    g = _metric(A, V, W)
    scale = max(1.0, _cs_scale(A, V, W))
    want_sig = (n * (n + 1) // 2, n * (n - 1) // 2)
    K = _conditioned(rng, n)
    Wp = rng.uniform(-1.0, 1.0, (n, n))
    Kinv = np.linalg.inv(K)
    proj = Wp - (float(np.trace(Kinv @ Wp)) / n) * K
    pscale = max(1.0, float(np.linalg.norm(Kinv @ Wp)))

    def projection(out):
        return max(
            _rel(abs(float(np.trace(Kinv @ out))), 1e-10 * pscale),
            _close(out, proj, 1e-10 * max(1.0, np.linalg.norm(proj))),
        )

    return [
        Op("trace_metric", lambda: tg.trace_metric(A, V, W),
           lambda v: _rel(abs(v - g), FORMULA_RTOL * scale), (A, V, W)),
        Op("signature_at", lambda: tg.signature_at(A),
           lambda s: 0.0 if (s.positive, s.negative) == want_sig else math.inf, (A,)),
        Op("sl_tangent_project", lambda: tg.sl_tangent_project(K, Wp), projection, (K, Wp)),
    ]


def _product_ops(rng, n):
    Q = _conditioned(rng, n)
    if np.linalg.det(Q) < 0:
        Q[0] = -Q[0]
    A = _conditioned(rng, n)
    if np.linalg.det(A) < 0:
        A[0] = -A[0]
    P = A / np.linalg.det(A) ** (1.0 / n)
    x = float(rng.uniform(-1.5, 1.5))
    point = tg.ProductPoint(P, x)
    root = math.sqrt(n)

    def inverse(p):
        back = math.exp(p.line_part / root) * p.sl_part
        return max(_close(back, Q, PRODUCT_TOL * np.linalg.norm(Q)),
                   _rel(abs(np.linalg.det(p.sl_part) - 1.0), PRODUCT_TOL))

    def forward(Qf):
        d = float(np.linalg.det(Qf))
        return max(_close(Qf / d ** (1.0 / n), P, PRODUCT_TOL * np.linalg.norm(P)),
                   _rel(abs(math.log(d) / root - x), PRODUCT_TOL * max(1.0, abs(x))))

    return [
        Op("product_inverse", lambda: tg.product_inverse(Q), inverse, (Q,)),
        Op("product_forward", lambda: tg.product_forward(point), forward, (P, x)),
    ]


def build_fields(seed):
    rng = np.random.default_rng([seed, 2])
    ops = []
    for n in FIELD_ORDERS:
        for _ in range(FIELD_REPLICAS):
            for part in (_metric_ops, _isometry_ops, _geodesic_ops, _curvature_ops, _product_ops):
                ops.extend(part(rng, n))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Verify suites
# ---------------------------------------------------------------------------


def _check_report(suite, seed_i):
    def check(report):
        ok = (report["suite"] == suite and report["seed"] == seed_i
              and report["cases"] > 0 and not report["failures"])
        return 0.0 if ok else math.inf

    return check


def build_verify(seed):
    rng = np.random.default_rng([seed, 3])
    ops = []
    for suite in tg_verify.SUITES:
        for n in VERIFY_ORDERS * VERIFY_SEEDS:
            seed_i = int(rng.integers(0, 2**31))
            ops.append(Op(
                suite,
                lambda suite=suite, n=n, seed_i=seed_i: tg_verify.run_suite(suite, n, seed_i,
                                                                            VERIFY_CASES),
                _check_report(suite, seed_i),
                (suite, n, seed_i, VERIFY_CASES),
            ))
    return ops


# ---------------------------------------------------------------------------
# CLI processes
# ---------------------------------------------------------------------------


def _doc(M):
    return {"n": int(M.shape[0]), "data": np.asarray(M, dtype=float).tolist()}


def _same(got, want):
    """Structural equality of JSON values, floats within PAYLOAD_RTOL."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return abs(got - want) <= PAYLOAD_RTOL * max(1.0, abs(want))
    return got == want


def _witness(geo):
    return {"k": _doc(geo.base_point), "c": _doc(geo.direction)}


def _cli_cases(rng, workdir):
    """(command, argv, expected payload, expected exit code) for each CLI command.

    Matrix arguments alternate between inline JSON and files under ``workdir``
    from one command to the next; n cycles through CLI_ORDERS.
    """
    files = itertools.count()

    def inline(M):
        return json.dumps(_doc(M))

    def file(M):
        path = workdir / f"m{next(files)}.json"
        path.write_text(inline(M))
        return str(path)

    orders = itertools.cycle(CLI_ORDERS)
    cases = []

    n, a = next(orders), inline
    A = _conditioned(rng, n)
    V, W = (rng.uniform(-1.0, 1.0, (n, n)) for _ in range(2))
    cases.append(("metric", ["metric", "--at", a(A), "--x", a(V), "--y", a(W)],
                  {"value": tg.trace_metric(A, V, W)}, 0))

    n, a = next(orders), file
    A = _conditioned(rng, n)
    sig = tg.signature_at(A)
    cases.append(("signature", ["signature", "--at", a(A)],
                  {"positive": sig.positive, "negative": sig.negative}, 0))

    n, a = next(orders), inline
    K0, K1 = arc_pair(rng, "unpaired-neg", n, 1.0)
    out = tg.classify_arc(K0, K1)
    want = {"verdict": out.verdict.value,
            "profile": {"tolerance": out.profile.tolerance, "clusters": [
                {"eigenvalue": {"re": c.eigenvalue.real, "im": c.eigenvalue.imag},
                 "block_sizes": sorted(c.block_sizes, reverse=True)}
                for c in out.profile.clusters]}}
    cases.append(("classify", ["classify", "--k0", a(K0), "--k1", a(K1)], want, 2))

    n, a = next(orders), file
    K0, K1 = arc_pair(rng, "paired-neg", n, 1.0)
    out = tg.classify_arc(K0, K1)
    cases.append(("arc", ["arc", "--k0", a(K0), "--k1", a(K1)],
                  {"verdict": out.verdict.value, **_witness(out.witness)}, 0))

    n, a = next(orders), inline
    K1, K2 = arc_pair(rng, "broken", n, 1.0)
    arc = tg.broken_arc(K1, K2)
    cases.append(("broken-arc", ["broken-arc", "--k1", a(K1), "--k2", a(K2)],
                  {"joint": _doc(arc.joint), "first": _witness(arc.first),
                   "second": _witness(arc.second)}, 0))

    n, a = next(orders), file
    K = _conditioned(rng, n)
    C = rng.uniform(-1.0, 1.0, (n, n))
    geo = tg.Geodesic(K, C)
    samples = []
    for t in np.linspace(0.0, 1.0, 5):
        P = geo.point(float(t))
        samples.append({**_doc(P), "t": float(t), "det": float(np.linalg.det(P))})
    cases.append(("geodesic", ["geodesic", "--k", a(K), "--c", a(C), "--samples", "5"],
                  samples, 0))

    n, a = next(orders), inline
    K = _conditioned(rng, n)
    X, Y = (rng.uniform(-1.0, 1.0, (n, n)) for _ in range(2))
    cases.append(("curvature", ["curvature", "--at", a(K), "--kind", "ricci",
                                "--x", a(X), "--y", a(Y)],
                  {"value": tg.ricci(K, X, Y)}, 0))

    suite = tg_verify.SUITES[int(rng.integers(len(tg_verify.SUITES)))]
    seed_i = int(rng.integers(0, 2**31))
    report = tg_verify.run_suite(suite, 2, seed_i, 3)
    cases.append(("verify", ["verify", "--suite", suite, "--n", "2", "--seed", str(seed_i),
                             "--cases", "3"], report, 0))
    return cases


class CliRunner:
    """Runs ``python [flags] -m tracegeo.cli ...`` in a fresh process per call."""

    def __init__(self, env):
        self.env = env
        self.flags = ()  # the traced run sets ("-X", "importtime")

    def run(self, argv):
        """Returns (exit code, stdout, stderr)."""
        proc = subprocess.run([sys.executable, *self.flags, "-m", "tracegeo.cli", *argv],
                              env=self.env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr


def _check_cli(want, want_code):
    def check(result):
        code, stdout, _ = result
        if code != want_code:
            return math.inf
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return math.inf
        return 0.0 if _same(got, want) else math.inf

    return check


def build_cli(seed, workdir, runner):
    """One CLI op per command; matrices arrive inline for half of them, as files for the rest."""
    rng = np.random.default_rng([seed, 4])
    return [Op(command, lambda argv=argv: runner.run(argv), _check_cli(want, code), tuple(argv))
            for command, argv, want, code in _cli_cases(rng, workdir)]
