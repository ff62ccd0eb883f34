"""Seeded self-verification suites behind the ``verify`` CLI command.

Every suite draws reproducible random inputs from a seeded generator, checks
the library's defining identities, and reports failures in a structured
form.  Suites are deterministic functions of (suite, n, seed, cases).
"""

import numpy as np

from . import _lapack, curvature, geodesy, metricspace
from .matcore import matrix_document

RESIDUAL_TOL = 1e-5  # geodesic ODE residual at the default step
ORDERS = range(2, 7)  # the matrix orders n the suites are sized for
# Most cases one suite run may take: the stacked suites hold every case at once, and at the cap
# ``verify --suite all --n 6`` peaks near 340 MB resident (about 12 s; Python 3.11, numpy 2.4).
MAX_CASES = 10_000


def random_invertible(rng, n):
    """Uniform [-1, 1] entries, resampled until |det| >= 0.1 and cond_2 <= 100."""
    while True:
        A = rng.uniform(-1.0, 1.0, (n, n))
        s = _lapack.svd(A, compute_uv=False)
        if s[-1] > 0 and s[0] / s[-1] <= 100.0 and abs(_lapack.det(A)) >= 0.1:
            return A


def random_special_orthogonal(rng, n):
    M = rng.normal(size=(n, n))
    Q, R = _lapack.qr(M)
    Q = Q * np.sign(np.diag(R))
    if _lapack.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_spd(rng, n):
    """SPD matrix of order n >= 2, eigenvalues in [0.5, 3] at least 1e-3 apart (stable verdicts)."""
    while True:
        w = np.sort(rng.uniform(0.5, 3.0, n))
        if float(np.diff(w).min()) >= 1e-3:
            break
    Q = random_special_orthogonal(rng, n)
    P = Q @ (w[:, None] * Q.T)
    return 0.5 * (P + P.T)


class _Recorder:
    def __init__(self):
        self.failures = []
        self.cases = 0

    def check(self, name, got, expected, tol=None, inputs=()):
        self.cases += 1
        if isinstance(expected, float) and tol is not None:
            ok = not isinstance(got, str) and abs(got - expected) <= tol  # a str is a refusal
        else:
            ok = got == expected
        if not ok:
            self.failures.append(
                {
                    "check": name,
                    "inputs": [matrix_document(m, lab) for lab, m in inputs],
                    "expected": expected if isinstance(expected, (int, float, str)) else str(expected),
                    "got": got if isinstance(got, (int, float, str)) else str(got),
                }
            )


def _refused_or(difference_quotient, *args):
    """The quotient's value, or the message of its refusal of the step (``ValueError``).

    A step that some operand rounds away fails that one check, so the report
    of every suite is still written.
    """
    try:
        return difference_quotient(*args)
    except ValueError as exc:
        return str(exc)


def _metric_scale(A, V, W):
    """Honest relative scale of tr(A^{-1}V A^{-1}W): the Cauchy-Schwarz bound; of stacks of
    cases, the list of theirs, case by case."""
    AV, AW = _lapack.norms(_lapack.solve(A, [V, W]))
    return (AV * AW).tolist()


def _all_isometries(G, A0):
    return [
        metricspace.left_translate(G),
        metricspace.right_translate(G),
        metricspace.conjugate_by(G),
        metricspace.congruence_by(G),
        metricspace.inversion(),
        metricspace.transposition(),
        metricspace.negation(),
        metricspace.point_symmetry(A0),
    ]


# Every suite draws all its cases first, in the order one case at a time would draw them, then
# evaluates each identity once on the stack of cases (the pointwise functions, classify_arc and the
# product chart take stacks, member by member), and records the checks case by case.


def _suite_metric(rec, rng, n, cases, tol, fd_step, tol_cluster):
    want_sig = (n * (n + 1) // 2, n * (n - 1) // 2)
    A, V, W, V2, G, A0 = np.empty((6, cases, n, n))
    a = np.empty(cases)
    for i in range(cases):
        A[i] = random_invertible(rng, n)
        V[i] = rng.uniform(-1.0, 1.0, (n, n))
        W[i] = rng.uniform(-1.0, 1.0, (n, n))
        a[i] = rng.uniform(-2.0, 2.0)
        V2[i] = rng.uniform(-1.0, 1.0, (n, n))
        G[i] = random_invertible(rng, n)
        A0[i] = random_invertible(rng, n)
    scales = _metric_scale(A, V, W)
    g = metricspace.trace_metric(A, V, W).tolist()
    swapped = metricspace.trace_metric(A, W, V).tolist()
    lhs = metricspace.trace_metric(A, a[:, None, None] * V + V2, W).tolist()
    g2 = metricspace.trace_metric(A, V2, W).tolist()
    signatures = metricspace.signature_at(A)
    pulled = []
    for iso in _all_isometries(G, A0):
        fA = metricspace.apply_isometry(iso, A)
        fV, fW = metricspace.pushforward(iso, A, V), metricspace.pushforward(iso, A, W)
        pulled.append((iso.kind, metricspace.trace_metric(fA, fV, fW).tolist(),
                       _metric_scale(fA, fV, fW)))
    for i, ai in enumerate(a.tolist()):
        scale = max(1.0, scales[i])
        inputs = [("A", A[i]), ("V", V[i]), ("W", W[i])]
        rec.check("symmetry", swapped[i], g[i], tol * scale, inputs)
        rec.check("bilinearity", lhs[i], ai * g[i] + g2[i], tol * scale * (1.0 + abs(ai)),
                  [("A", A[i])])
        sig = signatures[i]
        rec.check("signature", (sig.positive, sig.negative), want_sig, None, [("A", A[i])])
        for kind, value, pscales in pulled:
            pscale = max(scale, pscales[i], abs(g[i]))
            rec.check(f"isometry-{kind}", value[i], g[i], tol / 10 * max(1.0, pscale), inputs)
    # splitting of the tangent space at the identity: g_I(V, W) = vec(V) @ G @ vec(W), columnwise,
    # for the symmetric and the skew unit of each pair i <= j, all in one product
    G = metricspace.gram_matrix(np.eye(n))
    rows, cols = np.triu_indices(n)
    S = np.zeros((rows.size, n, n))
    S[np.arange(rows.size), rows, cols] = S[np.arange(rows.size), cols, rows] = 1.0
    s, a = (X.swapaxes(-1, -2).reshape(-1, n * n) for X in (S, np.triu(S, 1) - np.tril(S, -1)))
    sym, skew, cross = (np.vecdot(x @ G, y).tolist() for x, y in ((s, s), (a, a), (s, a)))
    for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
        rec.check("split-symmetric-positive", sym[k] > 0, True, None)
        if i < j:
            rec.check("split-skew-negative", skew[k] < 0, True, None)
            rec.check("split-orthogonal", cross[k], 0.0, tol)


_RESIDUAL_TIMES = np.array([-1.0, 0.37, 2.0])
_JACOBI_TIMES = np.array([-2.0, -0.6, 1.3, 2.0])
_LEAF_TIMES = np.array([-2.0, -0.5, 0.9, 2.0])


def _suite_geodesic(rec, rng, n, cases, tol, fd_step, tol_cluster):
    K, C, K0, K1, G = np.empty((5, cases, n, n))
    shift = np.empty((cases, 2))
    for i in range(cases):
        K[i] = random_invertible(rng, n)
        C[i] = rng.uniform(-1.0, 1.0, (n, n))
        shift[i] = rng.uniform(-1.5, 1.5, 2)
        K0[i], K1[i], G[i] = random_spd(rng, n), random_spd(rng, n), random_invertible(rng, n)
    # unit spectral norm keeps the h^2 residual signal above the
    # floating-point floor eps*||P||/h^2 over the sampled window
    C /= np.maximum(1.0, _lapack.svd(C, compute_uv=False)[:, :1, None])
    geo = geodesy.Geodesic(K, C)
    try:
        residuals = geodesy.curve_residual(geo.point, _RESIDUAL_TIMES[:, None], fd_step).tolist()
    except ValueError:  # one t whose step rounds away refuses them all: each t alone, then
        residuals = [_refused_or(lambda t: geodesy.curve_residual(geo.point, t, fd_step).tolist(),
                                 t) for t in _RESIDUAL_TIMES[:, None]]
    s, t = shift.T
    direct = geo.point(s + t)
    shifted = geodesy.Geodesic(geo.point(s), C).point(t)
    shift_gap, direct_norm = (_lapack.norms(x).tolist() for x in (direct - shifted, direct))
    dets = _lapack.det(geo.point(_JACOBI_TIMES[:, None])).T.tolist()
    wants = (_lapack.det(K)[:, None] * np.exp(_JACOBI_TIMES * _lapack.trace(C)[:, None])).tolist()
    # unique arcs between commensurate positive-definite endpoints, each pair beside its left
    # translate: [pair 0, translate 0, pair 1, ...], the order one case at a time classifies them
    outcomes = geodesy.classify_arc(np.stack([K0, G @ K0], 1), np.stack([K1, G @ K1], 1),
                                    tol_cluster)
    witnesses = {i: pair[0].witness for i, pair in enumerate(outcomes)
                 if pair[0].witness is not None}
    if witnesses:  # every endpoint from one stacked geodesic
        arcs = geodesy.Geodesic(*(np.array([getattr(w, name) for w in witnesses.values()])
                                  for name in ("base_point", "direction")))
        gaps = dict(zip(witnesses, _lapack.norms(arcs.point(1.0) - K1[list(witnesses)]).tolist()))
    for i in range(cases):
        inputs = [("K", K[i]), ("C", C[i])]
        for row in residuals:
            rec.check("ode-residual", row if isinstance(row, str) else row[i], 0.0, RESIDUAL_TOL,
                      inputs)
        rec.check("parameter-shift", shift_gap[i], 0.0, tol / 10 * max(1.0, direct_norm[i]),
                  inputs)
        for got, want in zip(dets[i], wants[i]):
            rec.check("jacobi-determinant", got, want, tol * max(1.0, abs(want)), inputs)
        outcome, translated = outcomes[i]
        rec.check("spd-unique", outcome.verdict.value, "unique", None,
                  [("K0", K0[i]), ("K1", K1[i])])
        if i in witnesses:
            rec.check("spd-endpoint", gaps[i], 0.0,
                      tol * max(1.0, _lapack.norm(K1[i])), [("K0", K0[i]), ("K1", K1[i])])
        rec.check("classify-left-invariance", translated.verdict.value,
                  outcome.verdict.value, None, [("G", G[i])])


def _suite_curvature(rec, rng, n, cases, tol, fd_step, tol_cluster):
    eye = np.eye(n)
    K, X, Y, Z, W, X0, Y0, Z0 = np.empty((8, cases, n, n))
    for i in range(cases):
        K[i] = random_invertible(rng, n)
        for M in (X, Y, Z, W, X0, Y0, Z0):
            M[i] = rng.uniform(-1.0, 1.0, (n, n))
    R = curvature.riemann_04
    base = R(np.broadcast_to(eye, K.shape), X, Y, Z, W).tolist()  # first: K's cut is then kept
    r = R(K, X, Y, Z, W)
    antisym_12, antisym_34, pair_exchange = (
        R(K, Y, X, Z, W).tolist(), R(K, X, Y, W, Z).tolist(), R(K, Z, W, X, Y).tolist())
    bianchi = (r + R(K, Y, Z, X, W) + R(K, Z, X, Y, W)).tolist()
    compat = metricspace.trace_metric(K, curvature.riemann_13(K, X, Y, Z), W).tolist()
    left = R(K, K @ X, K @ Y, K @ Z, K @ W).tolist()
    ric = curvature.ricci(K, X, Y).tolist() if n <= 3 else None
    scalar = curvature.scalar_curvature(K).tolist()
    want_scalar = -(n + 1) * n * (n - 1) / 2.0
    # Cartan-Schouten identities for left-invariant fields
    brk = X0 @ Y0 - Y0 @ X0
    want, want13 = 0.5 * K @ brk, 0.25 * K @ (brk @ Z0 - Z0 @ brk)
    nab_gap = _lapack.norms(geodesy.nabla(K, K @ X0, K @ Y0, K @ (X0 @ Y0)) - want).tolist()
    r13_gap = _lapack.norms(curvature.riemann_13(K, K @ X0, K @ Y0, K @ Z0) - want13).tolist()
    want_norm, want13_norm = _lapack.norms(want).tolist(), _lapack.norms(want13).tolist()
    scales = zip(_metric_scale(K, X, Y), _metric_scale(K, Z, W))
    for i, (ri, (sxy, szw)) in enumerate(zip(r.tolist(), scales)):
        mscale = max(1.0, abs(ri), sxy * szw)
        rec.check("antisym-12", antisym_12[i], -ri, tol / 10 * mscale)
        rec.check("antisym-34", antisym_34[i], -ri, tol / 10 * mscale)
        rec.check("pair-exchange", pair_exchange[i], ri, tol / 10 * mscale)
        rec.check("first-bianchi", bianchi[i], 0.0, tol / 10 * mscale, [("K", K[i])])
        rec.check("compat-04-13", compat[i], ri, tol / 100 * mscale, [("K", K[i])])
        rec.check("left-invariance", left[i], base[i], tol / 10 * max(1.0, abs(base[i])),
                  [("K", K[i])])
        if n <= 3:
            rec.check("ricci-trace-oracle", curvature.ricci_trace_oracle(K[i], X[i], Y[i]),
                      ric[i], tol * mscale, [("K", K[i])])
        rec.check("scalar-curvature", scalar[i], want_scalar,
                  tol * max(1.0, abs(want_scalar)), [("K", K[i])])
        rec.check("cartan-schouten-nabla", nab_gap[i], 0.0, tol / 100 * max(1.0, want_norm[i]),
                  [("K", K[i])])
        rec.check("left-invariant-riemann", r13_gap[i], 0.0,
                  tol / 100 * max(1.0, want13_norm[i]), [("K", K[i])])
    if n <= 3:
        for P in (eye, eye + 0.2 * rng.uniform(-1.0, 1.0, (n, n))):
            closed = curvature.christoffel_closed(P)
            fd = _refused_or(curvature.christoffel_fd, P, fd_step)
            fd_error = fd if isinstance(fd, str) else float(np.abs(closed - fd).max())
            rec.check("christoffel-closed-vs-fd", fd_error, 0.0, 1e-5, [("P", P)])
            rec.check("christoffel-symmetry",
                      bool(np.array_equal(closed, closed.transpose(1, 0, 2))), True, None)
            X0 = rng.uniform(-1.0, 1.0, (n, n))
            Y0 = rng.uniform(-1.0, 1.0, (n, n))
            assembled = np.einsum("a,b,abc->c", X0.ravel(order="F"), Y0.ravel(order="F"), closed)
            assembled = assembled.reshape((n, n), order="F")
            direct = geodesy.nabla(P, X0, Y0, np.zeros((n, n)))
            rec.check("christoffel-nabla", _lapack.norm(assembled - direct), 0.0,
                      1e-5 * max(1.0, _lapack.norm(direct)), [("P", P)])


def _suite_foliation(rec, rng, n, cases, tol, fd_step, tol_cluster):
    K, W, U, U2, C = np.empty((5, cases, n, n))
    for i in range(cases):
        K[i] = random_invertible(rng, n)
        for M in (W, U, U2, C):
            M[i] = rng.uniform(-1.0, 1.0, (n, n))
        C[i] -= (_lapack.trace(C[i]) / n) * np.eye(n)
    proj = metricspace.sl_tangent_project(K, W)
    quotients = _lapack.solve(K, [W, proj])
    scale = _lapack.norms(quotients[0]).tolist()
    tangency = _lapack.trace(quotients[1]).tolist()
    again = _lapack.norms(metricspace.sl_tangent_project(K, proj) - proj).tolist()
    proj_norm = _lapack.norms(proj).tolist()
    X = metricspace.sl_tangent_project(K, U)
    Y = metricspace.sl_tangent_project(K, U2)
    lhs, rhs = (v.tolist() for v in curvature.sl_einstein_check(K, X, Y))
    c = metricspace.leaf_of(K).tolist()
    dets = _lapack.det(geodesy.Geodesic(K, C).point(_LEAF_TIMES[:, None])).T.tolist()
    # the left-translation chart from the leaf to the unimodular group
    P0 = np.array([metricspace.leaf_base_point(ci, n) for ci in c]).reshape(K.shape)
    chart = metricspace.left_translate(_lapack.inv(P0))
    Q = metricspace.apply_isometry(chart, K)
    unimodular = _lapack.det(Q).tolist()
    g0 = metricspace.trace_metric(K, X, Y).tolist()
    g1 = metricspace.trace_metric(Q, metricspace.pushforward(chart, K, X),
                                  metricspace.pushforward(chart, K, Y)).tolist()
    for i, xy_scale in enumerate(_metric_scale(K, X, Y)):
        rec.check("projection-tangency", tangency[i], 0.0, tol / 100 * max(1.0, scale[i]),
                  [("K", K[i]), ("W", W[i])])
        rec.check("projection-idempotent", again[i], 0.0, tol / 100 * max(1.0, proj_norm[i]),
                  [("K", K[i])])
        rec.check("einstein-on-leaf", lhs[i], rhs[i],
                  tol / 10 * max(1.0, abs(rhs[i]), xy_scale), [("K", K[i])])
        for det in dets[i]:
            rec.check("leaf-invariant-determinant", det, c[i], tol * max(1.0, abs(c[i])),
                      [("K", K[i]), ("C", C[i])])
        rec.check("leaf-chart-unimodular", unimodular[i], 1.0, tol, [("K", K[i])])
        rec.check("leaf-chart-isometry", g1[i], g0[i],
                  tol / 10 * max(1.0, abs(g0[i]), xy_scale), [("K", K[i])])


def random_unimodular(rng, n):
    A = random_invertible(rng, n)
    if _lapack.det(A) < 0:
        A[0] = -A[0]
    return A / _lapack.det(A) ** (1.0 / n)


def _suite_product(rec, rng, n, cases, tol, fd_step, tol_cluster):
    P, Q2, U, U2 = np.empty((4, cases, n, n))
    x, a, a2 = np.empty((3, cases))
    for i in range(cases):
        P[i] = random_unimodular(rng, n)
        x[i] = rng.uniform(-1.5, 1.5)
        Q2[i] = random_invertible(rng, n)
        if _lapack.det(Q2[i]) < 0:
            Q2[i, 0] = -Q2[i, 0]
        U[i] = rng.uniform(-1.0, 1.0, (n, n))
        U2[i] = rng.uniform(-1.0, 1.0, (n, n))
        a[i], a2[i] = rng.uniform(-1.0, 1.0, 2)
    point = metricspace.ProductPoint(P, x)
    Q = metricspace.product_forward(point)
    back = metricspace.product_inverse(Q)
    sl_gap, line_part = _lapack.norms(back.sl_part - P).tolist(), back.line_part.tolist()
    forward = metricspace.product_forward(metricspace.product_inverse(Q2))
    gl_gap, gl_norm = (_lapack.norms(m).tolist() for m in (forward - Q2, Q2))
    M, M2 = metricspace.sl_tangent_project(P, U), metricspace.sl_tangent_project(P, U2)
    push = metricspace.product_pushforward(point, M, a)
    push2 = metricspace.product_pushforward(point, M2, a2)
    got = metricspace.trace_metric(Q, push, push2).tolist()
    want = (metricspace.trace_metric(P, M, M2) + a * a2).tolist()
    scales = _metric_scale(P, M, M2)
    for i, xi in enumerate(x.tolist()):
        rec.check("roundtrip-sl", sl_gap[i], 0.0, tol / 100, [("P", P[i])])
        rec.check("roundtrip-line", line_part[i], xi, tol / 100 * max(1.0, abs(xi)))
        rec.check("roundtrip-glplus", gl_gap[i], 0.0, tol / 100 * max(1.0, gl_norm[i]),
                  [("Q", Q2[i])])
        rec.check("product-isometry", got[i], want[i],
                  tol / 10 * max(1.0, abs(want[i]), scales[i]), [("P", P[i])])


# each suite's generator is seeded with its index, so this order is part of the reports
_SUITE_FUNCTIONS = {
    "metric": _suite_metric,
    "geodesic": _suite_geodesic,
    "curvature": _suite_curvature,
    "foliation": _suite_foliation,
    "product": _suite_product,
}
SUITES = tuple(_SUITE_FUNCTIONS)


def run_suite(suite, n, seed, cases, tol_assert=1e-8, tol_cluster=1e-8, fd_step=1e-4):
    """Run one named suite and return its VerifyReport dictionary."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES} or 'all'")
    if n not in ORDERS:
        raise ValueError("suites are sized for 2 <= n <= 6")
    if not (isinstance(cases, (int, np.integer)) and 0 <= cases <= MAX_CASES):
        raise ValueError(f"cases must be an integer from 0 to {MAX_CASES}, got {cases!r}")
    rng = np.random.default_rng([seed, SUITES.index(suite)])
    rec = _Recorder()
    _SUITE_FUNCTIONS[suite](rec, rng, n, cases, tol_assert, fd_step, tol_cluster)
    return {
        "suite": suite,
        "cases": rec.cases,
        "failures": rec.failures,
        "seed": int(seed),
        "tolerances": {
            "assert": tol_assert,
            "cluster": tol_cluster,
            "fd-step": fd_step,
            "residual": RESIDUAL_TOL,
        },
    }


def run_all(n, seed, cases, tol_assert=1e-8, tol_cluster=1e-8, fd_step=1e-4):
    """Run every suite; one combined report with suite-prefixed check names."""
    reports = [run_suite(suite, n, seed, cases, tol_assert, tol_cluster, fd_step)
               for suite in SUITES]
    return {
        "suite": "all",
        "suites": list(SUITES),
        "cases": sum(report["cases"] for report in reports),
        "failures": [dict(failure, check=f"{report['suite']}:{failure['check']}")
                     for report in reports for failure in report["failures"]],
        "seed": int(seed),
        "tolerances": reports[0]["tolerances"],  # the same in every suite
    }
