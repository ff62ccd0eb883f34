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
    """Honest relative scale of tr(A^{-1}V A^{-1}W): the Cauchy-Schwarz bound."""
    AV, AW = _lapack.solve(A, [V, W])
    return _lapack.norm(AV) * _lapack.norm(AW)


def _all_isometries(rng, n):
    G = random_invertible(rng, n)
    A0 = random_invertible(rng, n)
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


def _suite_metric(rec, rng, n, cases, tol, fd_step, tol_cluster):
    want_sig = (n * (n + 1) // 2, n * (n - 1) // 2)
    for _ in range(cases):
        A = random_invertible(rng, n)
        V = rng.uniform(-1.0, 1.0, (n, n))
        W = rng.uniform(-1.0, 1.0, (n, n))
        scale = max(1.0, _metric_scale(A, V, W))
        g = metricspace.trace_metric(A, V, W)
        rec.check("symmetry", metricspace.trace_metric(A, W, V), g, tol * scale,
                  [("A", A), ("V", V), ("W", W)])
        a = float(rng.uniform(-2.0, 2.0))
        V2 = rng.uniform(-1.0, 1.0, (n, n))
        lhs = metricspace.trace_metric(A, a * V + V2, W)
        rhs = a * g + metricspace.trace_metric(A, V2, W)
        rec.check("bilinearity", lhs, rhs, tol * scale * (1.0 + abs(a)), [("A", A)])
        sig = metricspace.signature_at(A)
        rec.check("signature", (sig.positive, sig.negative), want_sig, None, [("A", A)])
        for iso in _all_isometries(rng, n):
            fA = metricspace.apply_isometry(iso, A)
            fV = metricspace.pushforward(iso, A, V)
            fW = metricspace.pushforward(iso, A, W)
            pulled = metricspace.trace_metric(fA, fV, fW)
            pscale = max(scale, _metric_scale(fA, fV, fW), abs(g))
            rec.check(f"isometry-{iso.kind}", pulled, g, tol / 10 * max(1.0, pscale),
                      [("A", A), ("V", V), ("W", W)])
    # splitting of the tangent space at the identity: g_I(V, W) = vec(V) @ G @ vec(W), columnwise
    G = metricspace.gram_matrix(np.eye(n))
    for i in range(n):
        for j in range(i, n):
            S = np.zeros((n, n))
            S[i, j] = S[j, i] = 1.0
            s = S.ravel(order="F")
            rec.check("split-symmetric-positive", float(s @ G @ s) > 0, True, None)
            if i < j:
                Askew = np.zeros((n, n))
                Askew[i, j], Askew[j, i] = 1.0, -1.0
                a = Askew.ravel(order="F")
                rec.check("split-skew-negative", float(a @ G @ a) < 0, True, None)
                rec.check("split-orthogonal", float(s @ G @ a), 0.0, tol)


def _suite_geodesic(rec, rng, n, cases, tol, fd_step, tol_cluster):
    for _ in range(cases):
        K = random_invertible(rng, n)
        C = rng.uniform(-1.0, 1.0, (n, n))
        # unit spectral norm keeps the h^2 residual signal above the
        # floating-point floor eps*||P||/h^2 over the sampled window
        C /= max(1.0, float(_lapack.svd(C, compute_uv=False)[0]))
        geo = geodesy.Geodesic(K, C)
        for t in (-1.0, 0.37, 2.0):
            rec.check("ode-residual", _refused_or(geodesy.curve_residual, geo.point, t, fd_step),
                      0.0, RESIDUAL_TOL, [("K", K), ("C", C)])
        s, t = (float(x) for x in rng.uniform(-1.5, 1.5, 2))
        direct = geo.point(s + t)
        shifted = geodesy.Geodesic(geo.point(s), C).point(t)
        rec.check("parameter-shift", _lapack.norm(direct - shifted), 0.0,
                  tol / 10 * max(1.0, _lapack.norm(direct)), [("K", K), ("C", C)])
        detK = _lapack.det(K)
        for t in (-2.0, -0.6, 1.3, 2.0):
            want = detK * np.exp(t * C.trace())
            rec.check("jacobi-determinant", float(_lapack.det(geo.point(t))), float(want),
                      tol * max(1.0, abs(want)), [("K", K), ("C", C)])
        # unique arcs between commensurate positive-definite endpoints
        K0 = random_spd(rng, n)
        K1 = random_spd(rng, n)
        outcome = geodesy.classify_arc(K0, K1, tol_cluster)
        rec.check("spd-unique", outcome.verdict.value, "unique", None, [("K0", K0), ("K1", K1)])
        if outcome.witness is not None:
            end = outcome.witness.point(1.0)
            rec.check("spd-endpoint", _lapack.norm(end - K1), 0.0,
                      tol * max(1.0, _lapack.norm(K1)), [("K0", K0), ("K1", K1)])
        G = random_invertible(rng, n)
        translated = geodesy.classify_arc(G @ K0, G @ K1, tol_cluster)
        rec.check("classify-left-invariance", translated.verdict.value,
                  outcome.verdict.value, None, [("G", G)])


def _suite_curvature(rec, rng, n, cases, tol, fd_step, tol_cluster):
    eye = np.eye(n)
    for _ in range(cases):
        K = random_invertible(rng, n)
        X, Y, Z, W = (rng.uniform(-1.0, 1.0, (n, n)) for _ in range(4))
        r = curvature.riemann_04(K, X, Y, Z, W)
        mscale = max(1.0, abs(r),
                     _metric_scale(K, X, Y) * _metric_scale(K, Z, W))
        rec.check("antisym-12", curvature.riemann_04(K, Y, X, Z, W), -r, tol / 10 * mscale)
        rec.check("antisym-34", curvature.riemann_04(K, X, Y, W, Z), -r, tol / 10 * mscale)
        rec.check("pair-exchange", curvature.riemann_04(K, Z, W, X, Y), r, tol / 10 * mscale)
        bianchi = (r + curvature.riemann_04(K, Y, Z, X, W)
                   + curvature.riemann_04(K, Z, X, Y, W))
        rec.check("first-bianchi", bianchi, 0.0, tol / 10 * mscale, [("K", K)])
        compat = metricspace.trace_metric(K, curvature.riemann_13(K, X, Y, Z), W)
        rec.check("compat-04-13", compat, r, tol / 100 * mscale, [("K", K)])
        left = curvature.riemann_04(K, K @ X, K @ Y, K @ Z, K @ W)
        base = curvature.riemann_04(eye, X, Y, Z, W)
        rec.check("left-invariance", left, base, tol / 10 * max(1.0, abs(base)), [("K", K)])
        if n <= 3:
            rec.check("ricci-trace-oracle", curvature.ricci_trace_oracle(K, X, Y),
                      curvature.ricci(K, X, Y), tol * mscale, [("K", K)])
        want_scalar = -(n + 1) * n * (n - 1) / 2.0
        rec.check("scalar-curvature", curvature.scalar_curvature(K), want_scalar,
                  tol * max(1.0, abs(want_scalar)), [("K", K)])
        # Cartan-Schouten identities for left-invariant fields
        X0, Y0, Z0 = (rng.uniform(-1.0, 1.0, (n, n)) for _ in range(3))
        nab = geodesy.nabla(K, K @ X0, K @ Y0, K @ (X0 @ Y0))
        want = 0.5 * K @ (X0 @ Y0 - Y0 @ X0)
        rec.check("cartan-schouten-nabla", _lapack.norm(nab - want), 0.0,
                  tol / 100 * max(1.0, _lapack.norm(want)), [("K", K)])
        r13 = curvature.riemann_13(K, K @ X0, K @ Y0, K @ Z0)
        brk = X0 @ Y0 - Y0 @ X0
        want13 = 0.25 * K @ (brk @ Z0 - Z0 @ brk)
        rec.check("left-invariant-riemann", _lapack.norm(r13 - want13), 0.0,
                  tol / 100 * max(1.0, _lapack.norm(want13)), [("K", K)])
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
    for _ in range(cases):
        K = random_invertible(rng, n)
        W = rng.uniform(-1.0, 1.0, (n, n))
        proj = metricspace.sl_tangent_project(K, W)
        scale = max(1.0, _lapack.norm(_lapack.solve(K, W)))
        rec.check("projection-tangency", float(_lapack.solve(K, proj).trace()), 0.0,
                  tol / 100 * scale, [("K", K), ("W", W)])
        again = metricspace.sl_tangent_project(K, proj)
        rec.check("projection-idempotent", _lapack.norm(again - proj), 0.0,
                  tol / 100 * max(1.0, _lapack.norm(proj)), [("K", K)])
        X = metricspace.sl_tangent_project(K, rng.uniform(-1.0, 1.0, (n, n)))
        Y = metricspace.sl_tangent_project(K, rng.uniform(-1.0, 1.0, (n, n)))
        lhs, rhs = curvature.sl_einstein_check(K, X, Y)
        rec.check("einstein-on-leaf", lhs, rhs,
                  tol / 10 * max(1.0, abs(rhs), _metric_scale(K, X, Y)), [("K", K)])
        C = rng.uniform(-1.0, 1.0, (n, n))
        C -= (C.trace() / n) * np.eye(n)
        geo = geodesy.Geodesic(K, C)
        c = metricspace.leaf_of(K)
        for t in (-2.0, -0.5, 0.9, 2.0):
            rec.check("leaf-invariant-determinant", float(_lapack.det(geo.point(t))), c,
                      tol * max(1.0, abs(c)), [("K", K), ("C", C)])
        # the left-translation chart from the leaf to the unimodular group
        P0 = metricspace.leaf_base_point(c, n)
        chart = metricspace.left_translate(_lapack.inv(P0))
        Q = metricspace.apply_isometry(chart, K)
        rec.check("leaf-chart-unimodular", float(_lapack.det(Q)), 1.0,
                  tol, [("K", K)])
        g0 = metricspace.trace_metric(K, X, Y)
        g1 = metricspace.trace_metric(Q, metricspace.pushforward(chart, K, X),
                                      metricspace.pushforward(chart, K, Y))
        rec.check("leaf-chart-isometry", g1, g0,
                  tol / 10 * max(1.0, abs(g0), _metric_scale(K, X, Y)), [("K", K)])


def random_unimodular(rng, n):
    A = random_invertible(rng, n)
    if _lapack.det(A) < 0:
        A[0] = -A[0]
    return A / _lapack.det(A) ** (1.0 / n)


def _suite_product(rec, rng, n, cases, tol, fd_step, tol_cluster):
    for _ in range(cases):
        P = random_unimodular(rng, n)
        x = float(rng.uniform(-1.5, 1.5))
        point = metricspace.ProductPoint(P, x)
        Q = metricspace.product_forward(point)
        back = metricspace.product_inverse(Q)
        rec.check("roundtrip-sl", _lapack.norm(back.sl_part - P), 0.0, tol / 100,
                  [("P", P)])
        rec.check("roundtrip-line", back.line_part, x, tol / 100 * max(1.0, abs(x)))
        Q2 = random_invertible(rng, n)
        if _lapack.det(Q2) < 0:
            Q2[0] = -Q2[0]
        forward = metricspace.product_forward(metricspace.product_inverse(Q2))
        rec.check("roundtrip-glplus", _lapack.norm(forward - Q2), 0.0,
                  tol / 100 * max(1.0, _lapack.norm(Q2)), [("Q", Q2)])
        M = metricspace.sl_tangent_project(P, rng.uniform(-1.0, 1.0, (n, n)))
        M2 = metricspace.sl_tangent_project(P, rng.uniform(-1.0, 1.0, (n, n)))
        a, a2 = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        push = metricspace.product_pushforward(point, M, a)
        push2 = metricspace.product_pushforward(point, M2, a2)
        got = metricspace.trace_metric(Q, push, push2)
        want = metricspace.trace_metric(P, M, M2) + a * a2
        rec.check("product-isometry", got, want,
                  tol / 10 * max(1.0, abs(want), _metric_scale(P, M, M2)), [("P", P)])


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
