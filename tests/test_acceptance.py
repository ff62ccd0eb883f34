"""Acceptance suite: every advertised identity at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``); the
assertions carry the same tolerances, so a red test is a failed criterion.
"""

import numpy as np
import pytest
import scipy.linalg as sla

import tracegeo as tg
from tracegeo.verify import _metric_scale, random_invertible, random_spd, random_unimodular

SEED = 1105


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_01_signature_constant():
    """signature_at equals (n(n+1)/2, n(n-1)/2) at 100 random points per order."""
    rng = np.random.default_rng(SEED)
    ok = True
    for n in (2, 3, 4):
        want = (n * (n + 1) // 2, n * (n - 1) // 2)
        for _ in range(100):
            sig = tg.signature_at(random_invertible(rng, n))
            ok = ok and (sig.positive, sig.negative) == want
    _report("01 signature", ok)


def test_02_isometries_preserve_metric():
    """All 8 isometry kinds preserve the metric on 50 triples each, 1e-9 relative."""
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    n = 3
    for _ in range(50):
        A = random_invertible(rng, n)
        V = rng.uniform(-1, 1, (n, n))
        W = rng.uniform(-1, 1, (n, n))
        G = random_invertible(rng, n)
        A0 = random_invertible(rng, n)
        base = tg.trace_metric(A, V, W)
        for iso in (
            tg.left_translate(G), tg.right_translate(G), tg.conjugate_by(G),
            tg.congruence_by(G), tg.inversion(), tg.transposition(), tg.negation(),
            tg.point_symmetry(A0),
        ):
            fA = tg.apply_isometry(iso, A)
            fV = tg.pushforward(iso, A, V)
            fW = tg.pushforward(iso, A, W)
            got = tg.trace_metric(fA, fV, fW)
            denom = max(1.0, abs(base), _metric_scale(A, V, W), _metric_scale(fA, fV, fW))
            worst = max(worst, abs(got - base) / denom)
    _report("02 isometry-pullback", worst <= 1e-9)


def test_03_geodesic_equation_residual():
    """ODE residual below 1e-5 at five times for 50 random geodesics per order.

    Directions are normalised to unit spectral norm: with h = 1e-4 the h^2
    truncation signal must stay above the floating-point floor eps*||P||/h^2,
    which bounds the curve excursion over t in [-1, 2].
    """
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(50):
            C = rng.uniform(-1, 1, (n, n))
            C /= max(1.0, np.linalg.norm(C, 2))
            geo = tg.Geodesic(random_invertible(rng, n), C)
            for t in (-1.0, -0.4, 0.37, 1.2, 2.0):
                worst = max(worst, tg.curve_residual(geo.point, t, 1e-4))
    _report("03 geodesic-ode", worst <= 1e-5)


def test_04_arc_classification():
    """Curated verdicts plus 200 positive-definite pairs, all unique, 1e-8 endpoints."""
    I2 = np.eye(2)
    curated = [
        (I2, np.diag([1.0, 2.0]), tg.ArcKind.UNIQUE),
        (I2, np.array([[0.0, -1.0], [1.0, 0.0]]), tg.ArcKind.COUNTABLE),
        (I2, -I2, tg.ArcKind.CONTINUUM),
        (I2, np.diag([-1.0, 2.0]), tg.ArcKind.NO_ARC),
        (I2, I2, tg.ArcKind.CONTINUUM),
        (I2, np.array([[1.0, 1.0], [0.0, 1.0]]), tg.ArcKind.UNIQUE),
    ]
    ok = True
    for K0, K1, want in curated:
        out = tg.classify_arc(K0, K1)
        ok = ok and out.verdict is want
        if out.witness is not None:
            ok = ok and np.linalg.norm(out.witness.point(1.0) - K1) <= 1e-8 * max(1.0, np.linalg.norm(K1))
    rng = np.random.default_rng(SEED + 3)
    for i in range(200):
        n = 2 + i % 3
        K0 = random_spd(rng, n)
        K1 = random_spd(rng, n)
        out = tg.classify_arc(K0, K1)
        ok = ok and out.verdict is tg.ArcKind.UNIQUE
        err = np.linalg.norm(out.witness.point(1.0) - K1)
        ok = ok and err <= 1e-8 * max(1.0, np.linalg.norm(K1))
    _report("04 arc-classification", ok)


def _pair_with_spectrum(rng, n, kind):
    """Same-component pair whose quotient matrix has the requested spectrum type."""
    K1 = random_invertible(rng, n)
    if kind == "negative":
        w = -rng.uniform(0.5, 2.0, n)
        if np.prod(w) < 0:
            w[0] = -w[0]
        S = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
        M = S @ np.diag(w) @ np.linalg.inv(S)
    elif kind == "complex":
        theta = rng.uniform(0.3, 2.5)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        blocks = [rot] * (n // 2) + ([np.eye(1)] if n % 2 else [])
        S = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
        M = S @ sla.block_diag(*blocks) @ np.linalg.inv(S)
    else:
        M = random_invertible(rng, n)
        if np.linalg.det(M) < 0:
            M[0] = -M[0]
    return K1, K1 @ M


def test_05_broken_geodesics():
    """50 same-component pairs, joints reproduced within 1e-8."""
    rng = np.random.default_rng(SEED + 4)
    kinds = ["generic"] * 30 + ["negative"] * 10 + ["complex"] * 10
    ok = True
    for i, kind in enumerate(kinds):
        n = 2 + i % 3
        K1, K2 = _pair_with_spectrum(rng, n, kind)
        arc = tg.broken_arc(K1, K2)
        scale = max(1.0, np.linalg.norm(K1), np.linalg.norm(K2), np.linalg.norm(arc.joint))
        ok = ok and np.linalg.norm(arc.first.point(0.0) - K1) <= 1e-8 * scale
        ok = ok and np.linalg.norm(arc.first.point(1.0) - arc.joint) <= 1e-8 * scale
        ok = ok and np.linalg.norm(arc.second.point(0.0) - arc.joint) <= 1e-8 * scale
        ok = ok and np.linalg.norm(arc.second.point(1.0) - K2) <= 1e-8 * scale
    _report("05 broken-geodesics", ok)


def test_06_curvature_closed_form_vs_oracles():
    """Ricci trace oracle at 1e-8, Christoffel finite differences at 1e-5,
    tensor symmetries and the first cyclic identity at 1e-9."""
    rng = np.random.default_rng(SEED + 5)
    ok = True
    for n in (2, 3):
        for _ in range(50):
            K = random_invertible(rng, n)
            X = rng.uniform(-1, 1, (n, n))
            Y = rng.uniform(-1, 1, (n, n))
            want = tg.ricci(K, X, Y)
            denom = max(1.0, abs(want), _metric_scale(K, X, Y))
            ok = ok and abs(tg.ricci_trace_oracle(K, X, Y) - want) <= 1e-8 * denom
    for n in (2, 3):
        for P in (np.eye(n), np.eye(n) + 0.2 * rng.uniform(-1, 1, (n, n))):
            closed = tg.christoffel_closed(P)
            fd = tg.christoffel_fd(P, 1e-4)
            ok = ok and float(np.abs(closed - fd).max()) <= 1e-5
    for n in (2, 3, 4):
        for _ in range(50):
            K = random_invertible(rng, n)
            X, Y, Z, W = (rng.uniform(-1, 1, (n, n)) for _ in range(4))
            r = tg.riemann_04(K, X, Y, Z, W)
            scale = max(1.0, abs(r))
            ok = ok and abs(tg.riemann_04(K, Y, X, Z, W) + r) <= 1e-9 * scale
            ok = ok and abs(tg.riemann_04(K, X, Y, W, Z) + r) <= 1e-9 * scale
            ok = ok and abs(tg.riemann_04(K, Z, W, X, Y) - r) <= 1e-9 * scale
            cyc = r + tg.riemann_04(K, Y, Z, X, W) + tg.riemann_04(K, Z, X, Y, W)
            ok = ok and abs(cyc) <= 1e-9 * scale
    _report("06 curvature-oracles", ok)


def test_07_scalar_curvature_constant():
    """Scalar curvature equals -(n+1)n(n-1)/2 at 50 random points per order."""
    rng = np.random.default_rng(SEED + 6)
    ok = True
    for n, want in ((2, -3.0), (3, -12.0), (4, -30.0)):
        for _ in range(50):
            got = tg.scalar_curvature(random_invertible(rng, n))
            ok = ok and abs(got - want) <= 1e-8
    _report("07 scalar-curvature", ok)


def test_08_einstein_leaves_and_determinant_transport():
    """Ricci = -(n/2) g on leaf tangents at 1e-9; trace-free directions keep
    the determinant constant over [-2, 2] at 1e-8."""
    rng = np.random.default_rng(SEED + 7)
    ok = True
    for i in range(50):
        n = 2 + i % 3
        K = random_invertible(rng, n)
        X = tg.sl_tangent_project(K, rng.uniform(-1, 1, (n, n)))
        Y = tg.sl_tangent_project(K, rng.uniform(-1, 1, (n, n)))
        lhs, rhs = tg.sl_einstein_check(K, X, Y)
        ok = ok and abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs), _metric_scale(K, X, Y))
        C = rng.uniform(-1, 1, (n, n))
        C -= (np.trace(C) / n) * np.eye(n)
        geo = tg.Geodesic(K, C)
        c = np.linalg.det(K)
        for t in np.linspace(-2.0, 2.0, 9):
            ok = ok and abs(np.linalg.det(geo.point(float(t))) - c) <= 1e-8 * max(1.0, abs(c))
    _report("08 einstein-leaves", ok)


def test_09_product_isometry():
    """Pullback of the metric equals the product metric at 1e-9; both chart
    round trips are the identity at 1e-10."""
    rng = np.random.default_rng(SEED + 8)
    ok = True
    for i in range(50):
        n = 2 + i % 3
        P = random_unimodular(rng, n)
        x = float(rng.uniform(-1.5, 1.5))
        point = tg.ProductPoint(P, x)
        Q = tg.product_forward(point)
        back = tg.product_inverse(Q)
        ok = ok and np.linalg.norm(back.sl_part - P) <= 1e-10
        ok = ok and abs(back.line_part - x) <= 1e-10 * max(1.0, abs(x))
        Q2 = random_invertible(rng, n)
        if np.linalg.det(Q2) < 0:
            Q2[0] = -Q2[0]
        ok = ok and np.linalg.norm(tg.product_forward(tg.product_inverse(Q2)) - Q2) <= 1e-10 * max(
            1.0, np.linalg.norm(Q2)
        )
        M = tg.sl_tangent_project(P, rng.uniform(-1, 1, (n, n)))
        M2 = tg.sl_tangent_project(P, rng.uniform(-1, 1, (n, n)))
        a, a2 = (float(v) for v in rng.uniform(-1, 1, 2))
        got = tg.trace_metric(Q, tg.product_pushforward(point, M, a), tg.product_pushforward(point, M2, a2))
        want = tg.trace_metric(P, M, M2) + a * a2
        ok = ok and abs(got - want) <= 1e-9 * max(1.0, abs(want), _metric_scale(P, M, M2))
    _report("09 product-isometry", ok)


def test_10_bi_invariant_connection_identities():
    """For left-invariant fields the connection is half the bracket and the
    curvature a quarter of the iterated bracket, at 1e-10."""
    rng = np.random.default_rng(SEED + 9)
    ok = True
    for i in range(20):
        n = 2 + i % 3
        P = random_invertible(rng, n)
        X0, Y0, Z0 = (rng.uniform(-1, 1, (n, n)) for _ in range(3))
        got = tg.nabla(P, P @ X0, P @ Y0, P @ (X0 @ Y0))
        want = 0.5 * P @ (X0 @ Y0 - Y0 @ X0)
        ok = ok and np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))
        got13 = tg.riemann_13(P, P @ X0, P @ Y0, P @ Z0)
        brk = X0 @ Y0 - Y0 @ X0
        want13 = 0.25 * P @ (brk @ Z0 - Z0 @ brk)
        ok = ok and np.linalg.norm(got13 - want13) <= 1e-10 * max(1.0, np.linalg.norm(want13))
    _report("10 bi-invariant-connection", ok)


def test_verify_suites_all_green():
    """The CLI verification suites themselves report zero failures."""
    from tracegeo import verify

    report = verify.run_all(n=2, seed=42, cases=25)
    print(f"ACCEPTANCE verify-all: {'PASS' if not report['failures'] else 'FAIL'}")
    assert report["failures"] == []


@pytest.mark.parametrize("n, cases", [(2, 911), (3, 918), (4, 902), (6, 931)])
def test_verify_reports_keep_every_check(n, cases):
    """``verify --suite all --seed 42 --cases 20``: green, with the case count and tolerances the
    suites have had since their identities were first pinned."""
    from tracegeo import verify

    report = verify.run_all(n, 42, 20)
    assert report["failures"] == []
    assert report["cases"] == cases
    assert report["tolerances"] == {"assert": 1e-8, "cluster": 1e-8, "fd-step": 1e-4, "residual": 1e-5}


def test_metric_suite_reads_the_identity_splitting_off_one_gram_matrix(monkeypatch):
    from tracegeo import metricspace, verify

    trace_metric, gram_matrix, grams = metricspace.trace_metric, metricspace.gram_matrix, []

    def spy(A, V, W):
        assert not np.array_equal(A, np.eye(len(A))), "trace_metric called at the identity"
        return trace_metric(A, V, W)

    monkeypatch.setattr(metricspace, "trace_metric", spy)
    monkeypatch.setattr(metricspace, "gram_matrix", lambda A: grams.append(A) or gram_matrix(A))
    for n in (2, 4):
        grams.clear()
        report = verify.run_suite("metric", n, 42, 2)
        assert report["failures"] == []
        assert [np.array_equal(A, np.eye(n)) for A in grams] == [True]
