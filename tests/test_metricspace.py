import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from tracegeo import (
    DegenerateMetricError,
    IllConditionedError,
    Isometry,
    NonPositiveDeterminantError,
    NotUnimodularError,
    ProductPoint,
    SingularMatrixError,
    apply_isometry,
    congruence_by,
    conjugate_by,
    gram_matrix,
    inversion,
    leaf_base_point,
    leaf_of,
    left_translate,
    negation,
    point_symmetry,
    product_forward,
    product_inverse,
    product_pushforward,
    pushforward,
    right_translate,
    signature_at,
    sl_tangent_project,
    standard_basis,
    trace_metric,
    transposition,
)
from tracegeo import _lapack
from tracegeo.metricspace import ISOMETRY_KINDS
from tracegeo.verify import random_invertible, random_unimodular

I2 = np.eye(2)

entries = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def square(n):
    return arrays(np.float64, (n, n), elements=entries)


def catalog(G, A0):
    """One isometry of each kind, with parameter G (A0 for the point symmetry)."""
    return [
        left_translate(G), right_translate(G), conjugate_by(G), congruence_by(G),
        inversion(), transposition(), negation(), point_symmetry(A0),
    ]


class TestTraceMetric:
    def test_identity_values(self, basis2):
        assert trace_metric(I2, I2, I2) == pytest.approx(2.0)
        assert trace_metric(I2, basis2["E12"], basis2["E21"]) == pytest.approx(1.0)
        assert trace_metric(2 * I2, I2, I2) == pytest.approx(0.5)

    def test_singular_base_rejected(self):
        with pytest.raises(SingularMatrixError):
            trace_metric(np.diag([1.0, 0.0]), I2, I2)

    # +inf, and inf - inf = nan
    @pytest.mark.parametrize("W", [1e308 * I2, np.diag([1e308, -1e308])], ids=["inf", "nan"])
    def test_overflow_is_a_typed_error_without_warnings(self, W):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match="overflow"):
                trace_metric(I2, 1e308 * I2, W)

    @settings(max_examples=50, deadline=None)
    @given(V=square(3), W=square(3))
    def test_symmetric(self, V, W):
        A = np.diag([1.0, 2.0, 0.5])
        assert trace_metric(A, V, W) == pytest.approx(trace_metric(A, W, V), abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(V=square(3), W=square(3), Z=square(3), a=st.floats(-2.0, 2.0))
    def test_bilinear(self, V, W, Z, a):
        A = np.diag([1.0, 2.0, 0.5])
        lhs = trace_metric(A, a * V + Z, W)
        rhs = a * trace_metric(A, V, W) + trace_metric(A, Z, W)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestSignature:
    def test_small_identities(self):
        assert (signature_at(I2).positive, signature_at(I2).negative) == (3, 1)
        sig3 = signature_at(np.eye(3))
        assert (sig3.positive, sig3.negative) == (6, 3)

    def test_constant_over_random_points(self, rng):
        for n in (2, 3, 4):
            want = (n * (n + 1) // 2, n * (n - 1) // 2)
            for _ in range(25):
                sig = signature_at(random_invertible(rng, n))
                assert (sig.positive, sig.negative) == want

    def test_gram_at_identity_is_transpose_pairing(self):
        G = gram_matrix(I2)
        basis = standard_basis(2)
        for a in range(4):
            for b in range(4):
                assert G[a, b] == pytest.approx(np.trace(basis[a] @ basis[b]))

    def test_degenerate_threshold_guard(self):
        # Moderately scaled points keep a clean Gram spectrum...
        sig = signature_at(np.diag([1.0, 1e-3]))
        assert (sig.positive, sig.negative) == (3, 1)
        # ...an extreme spread collapses the smallest Gram eigenvalue into the
        # zero threshold, which is reported as breakdown rather than guessed
        with pytest.raises(DegenerateMetricError):
            signature_at(np.diag([1.0, 1e-8]))
        with pytest.raises(SingularMatrixError):
            signature_at(np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("c", [1e-150, 1.0, 1e150])
    def test_gram_is_exactly_symmetric(self, c, rng):
        # signature_at hands the Gram matrix to eigvalsh unsymmetrised: its entries (ji, lk) and
        # (lk, ji) are one product of two floats
        for n in range(2, 7):
            G = gram_matrix(c * random_invertible(rng, n))
            assert np.array_equal(G, G.T)

    @pytest.mark.parametrize("c", [1e-6, 1e3, 1e100, 1e200])
    def test_unchanged_by_scaling(self, c, rng):
        A = random_invertible(rng, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert signature_at(c * A) == signature_at(A)


class TestIsometries:
    def test_apply_examples(self, rng):
        A = random_invertible(rng, 2)
        assert_allclose(apply_isometry(point_symmetry(A), A), A, atol=1e-12)
        assert_allclose(apply_isometry(inversion(), np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
        G = random_invertible(rng, 2)
        assert_allclose(apply_isometry(congruence_by(G), I2), G.T @ G)

    def test_pushforward_examples(self, rng):
        V = rng.uniform(-1, 1, (2, 2))
        assert_allclose(pushforward(inversion(), I2, V), -V)
        A = random_invertible(rng, 2)
        W = rng.uniform(-1, 1, (2, 2))
        assert_allclose(pushforward(point_symmetry(A), A, W), -W, atol=1e-12)
        G = random_invertible(rng, 2)
        assert_allclose(pushforward(left_translate(G), A, V), G @ V)

    def test_every_kind_preserves_metric(self, rng):
        for n in (2, 3):
            for _ in range(10):
                A = random_invertible(rng, n)
                V = rng.uniform(-1, 1, (n, n))
                W = rng.uniform(-1, 1, (n, n))
                G = random_invertible(rng, n)
                A0 = random_invertible(rng, n)
                base = trace_metric(A, V, W)
                for iso in catalog(G, A0):
                    fA = apply_isometry(iso, A)
                    got = trace_metric(fA, pushforward(iso, A, V), pushforward(iso, A, W))
                    assert got == pytest.approx(base, abs=1e-9 * max(1.0, abs(base)))

    def test_pushforward_is_derivative_of_map(self, rng):
        # central difference (f(A + hV) - f(A - hV)) / 2h of apply_isometry
        h = 1e-5
        for n in (2, 3):
            for _ in range(5):
                A = random_invertible(rng, n)
                V = rng.uniform(-1, 1, (n, n))
                G = random_invertible(rng, n)
                isometries = catalog(G, G)
                assert {iso.kind for iso in isometries} == set(ISOMETRY_KINDS)
                for iso in isometries:
                    fd = (apply_isometry(iso, A + h * V) - apply_isometry(iso, A - h * V)) / (2 * h)
                    got = pushforward(iso, A, V)
                    assert np.linalg.norm(got - fd) <= 1e-6 * max(1.0, np.linalg.norm(got)), iso.kind

    def test_parameter_validation(self):
        with pytest.raises(SingularMatrixError):
            left_translate(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Isometry("nope")
        with pytest.raises(ValueError):
            Isometry("inversion", I2)


class TestSplittingAtIdentity:
    def test_symmetric_positive_skew_negative_orthogonal(self):
        n = 3
        eye = np.eye(n)
        for i in range(n):
            for j in range(i, n):
                S = np.zeros((n, n))
                S[i, j] = S[j, i] = 1.0
                assert trace_metric(eye, S, S) > 0
                if i < j:
                    A = np.zeros((n, n))
                    A[i, j], A[j, i] = 1.0, -1.0
                    assert trace_metric(eye, A, A) < 0
                    assert trace_metric(eye, S, A) == pytest.approx(0.0, abs=1e-12)


class TestLeafTangentProjection:
    def test_examples(self):
        assert_allclose(sl_tangent_project(I2, I2), np.zeros((2, 2)))
        E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert_allclose(sl_tangent_project(I2, E12), E12)
        assert_allclose(sl_tangent_project(I2, np.diag([2.0, 0.0])), np.diag([1.0, -1.0]))

    @settings(max_examples=40, deadline=None)
    @given(W=square(3))
    def test_idempotent_and_tangent(self, W):
        K = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.5]])
        P = sl_tangent_project(K, W)
        assert np.trace(np.linalg.solve(K, P)) == pytest.approx(0.0, abs=1e-10)
        assert np.linalg.norm(sl_tangent_project(K, P) - P) <= 1e-10 * max(1.0, np.linalg.norm(P))


class TestProductStructure:
    def test_forward_examples(self):
        assert_allclose(product_forward(ProductPoint(I2, 0.0)), I2)
        assert_allclose(product_forward(ProductPoint(I2, np.sqrt(2.0))), np.e * I2, rtol=1e-14)
        D = np.diag([2.0, 0.5])
        assert_allclose(product_forward(ProductPoint(D, 0.0)), D)

    def test_inverse_examples(self):
        p = product_inverse(I2)
        assert_allclose(p.sl_part, I2)
        assert p.line_part == pytest.approx(0.0)
        p = product_inverse(np.e * I2)
        assert_allclose(p.sl_part, I2, rtol=1e-14)
        assert p.line_part == pytest.approx(np.sqrt(2.0))
        p = product_inverse(np.diag([4.0, 1.0]))
        assert_allclose(p.sl_part, np.diag([2.0, 0.5]), rtol=1e-14)
        assert p.line_part == pytest.approx(np.log(4.0) / np.sqrt(2.0))

    def test_round_trips(self, rng):
        for n in (2, 3, 4):
            P = random_unimodular(rng, n)
            x = float(rng.uniform(-2, 2))
            back = product_inverse(product_forward(ProductPoint(P, x)))
            assert np.linalg.norm(back.sl_part - P) <= 1e-10
            assert back.line_part == pytest.approx(x, abs=1e-10)
            Q = random_invertible(rng, n)
            if np.linalg.det(Q) < 0:
                Q[0] = -Q[0]
            assert np.linalg.norm(product_forward(product_inverse(Q)) - Q) <= 1e-10 * np.linalg.norm(Q)

    def test_ill_conditioned_inverse_round_trips(self, rng):
        # det(sl_part) computes to 1 only within about n u cond(Q): the point is not re-checked
        for n in (2, 3, 4, 6):
            U, V = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
            Q = U @ np.diag(np.geomspace(1.0, 1e8, n)) @ V.T
            if np.linalg.det(Q) < 0:
                Q[0] = -Q[0]
            assert np.linalg.norm(product_forward(product_inverse(Q)) - Q) <= 1e-10 * np.linalg.norm(Q)

    @pytest.mark.parametrize("cond", [1e8, 1e10, 1e12])
    def test_an_inverse_chart_point_is_a_product_point(self, cond, rng):
        # det(sl_part) computes to 1 only within about 4 n u cond_2(P), past 1e-10 from cond 1e8
        # on: a point is accepted within 10 n u cond_2(P), at any scale of Q
        for n in range(2, 7):
            for _ in range(40):
                U, V = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
                Q = 10.0 ** rng.uniform(-100, 100) * U @ np.diag(np.geomspace(1.0, cond, n)) @ V.T
                if np.linalg.slogdet(Q)[0] < 0:
                    Q[0] = -Q[0]
                p = product_inverse(Q)
                assert np.array_equal(ProductPoint(p.sl_part, p.line_part).sl_part, p.sl_part)

    def test_a_unimodular_point_takes_no_svd(self, rng, monkeypatch):
        P = random_unimodular(rng, 4)
        monkeypatch.setattr(_lapack, "svd", None)
        assert ProductPoint(P, 0.5).sl_part is not P  # as_squares' copy, accepted by det alone

    def test_forward_lands_in_positive_component(self, rng):
        P = random_unimodular(rng, 3)
        Q = product_forward(ProductPoint(P, 1.3))
        assert np.linalg.det(Q) > 0

    def test_pushforward_isometry(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            P = random_unimodular(rng, n)
            x = float(rng.uniform(-1.5, 1.5))
            point = ProductPoint(P, x)
            M = sl_tangent_project(P, rng.uniform(-1, 1, (n, n)))
            M2 = sl_tangent_project(P, rng.uniform(-1, 1, (n, n)))
            a, a2 = rng.uniform(-1, 1, 2)
            got = trace_metric(
                product_forward(point),
                product_pushforward(point, M, a),
                product_pushforward(point, M2, a2),
            )
            want = trace_metric(P, M, M2) + a * a2
            assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))

    def test_errors(self):
        # the last two are singular: cond_2 = 6.7e20 would admit a det of 1.5, and a det of 1 needs
        # no second test unless ||P||_F^n >= 1e12 asks for the singular cut
        for P in (np.diag([2.0, 1.0]), np.diag([1.001, 1.0]), np.zeros((2, 2)),
                  np.diag([1e7, 1e7, 1.5e-14]), np.diag([1e7, 1e7, 1e-14])):
            with pytest.raises(NotUnimodularError, match="sl_part must have determinant 1"):
                ProductPoint(P, 0.0)
        with pytest.raises(NonPositiveDeterminantError):
            product_inverse(np.diag([-1.0, 1.0]))

    def test_overflow_is_a_typed_error_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = ProductPoint(I2, 2000.0)  # e^(2000 / sqrt 2) is past the float range
            with pytest.raises(IllConditionedError, match="product chart overflows"):
                product_forward(far)
            with pytest.raises(IllConditionedError, match="product chart overflows"):
                product_pushforward(far, I2, 1.0)
            with pytest.raises(NotUnimodularError):
                ProductPoint(1e200 * I2, 0.0)  # det overflows

    def test_a_frobenius_power_past_the_float_range_is_no_overflow(self):
        # ||P||_F^n is 1e360 and 300^150: a singular P keeps its typed refusal, a unimodular one
        # passes the singular cut
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnimodularError, match="sl_part must have determinant 1"):
                ProductPoint(np.diag([1e60, 1e-60, 1.0, 1.0, 1.0, 1.0]), 0.0)
            assert ProductPoint(np.eye(300), 0.0).line_part == 0.0

    def test_underflow_is_a_typed_error_without_warnings(self):
        # e^(-2000 / sqrt 2) is below the normal float range: the chart would land on 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            near = ProductPoint(I2, -2000.0)
            with pytest.raises(IllConditionedError, match="product chart underflows"):
                product_forward(near)
            with pytest.raises(IllConditionedError, match="product chart underflows"):
                product_pushforward(near, I2, 1.0)
            # e^(-1000 / sqrt 2) ~ 1e-307 is still normal
            assert product_forward(ProductPoint(I2, -1000.0))[0, 0] > 0

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_line_part_rejected(self, x):
        with pytest.raises(ValueError, match="line_part must be finite"):
            ProductPoint(I2, x)

    def test_inverse_reads_the_log_determinant_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = product_inverse(1e200 * I2)
        assert_allclose(p.sl_part, I2, rtol=1e-12)  # exp(log det / n) errs by about |log det| u
        assert p.line_part == pytest.approx(400.0 * np.log(10.0) / np.sqrt(2.0), rel=1e-14)

    def test_inverse_overflowing_log_determinant_is_a_typed_error_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match="product chart overflows"):
                product_inverse([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]])
            with pytest.raises(IllConditionedError, match="product chart overflows"):
                product_inverse(np.diag([1e300, 1e-300, 1e-300]))  # finite det, overflowing quotient


class TestLeaves:
    def test_leaf_labels(self):
        assert leaf_of(I2) == pytest.approx(1.0)
        assert leaf_of(np.diag([2.0, 3.0])) == pytest.approx(6.0)
        assert leaf_of(np.diag([-1.0, 1.0])) == pytest.approx(-1.0)

    def test_determinant_overflow_is_a_typed_error_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match="determinant"):
                leaf_of(1e200 * I2)

    def test_leaf_base_point(self):
        P0 = leaf_base_point(-8.0, 3)
        assert np.linalg.det(P0) == pytest.approx(-8.0, rel=1e-12)
        P1 = leaf_base_point(5.0, 2)
        assert np.linalg.det(P1) == pytest.approx(5.0, rel=1e-12)

    def test_leaf_chart_is_isometry_onto_unimodular_group(self, rng):
        K = random_invertible(rng, 3)
        c = leaf_of(K)
        chart = left_translate(np.linalg.inv(leaf_base_point(c, 3)))
        Q = apply_isometry(chart, K)
        assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-10)
        V = rng.uniform(-1, 1, (3, 3))
        W = rng.uniform(-1, 1, (3, 3))
        got = trace_metric(Q, pushforward(chart, K, V), pushforward(chart, K, W))
        want = trace_metric(K, V, W)
        assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))
