import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tracegeo import (
    DegenerateSectionError,
    IllConditionedError,
    LinearlyDependentError,
    NotTangentError,
    SingularMatrixError,
    TraceGeoError,
    cartan_killing,
    christoffel_closed,
    christoffel_fd,
    gram_matrix,
    nabla,
    orthonormal_frame,
    ricci,
    ricci_trace_oracle,
    riemann_04,
    riemann_13,
    scalar_curvature,
    sectional,
    sl_einstein_check,
    sl_tangent_project,
    trace_metric,
)
from tracegeo import _lapack, curvature, metricspace, verify
from tracegeo.verify import random_invertible

I2 = np.eye(2)


class TestRiemann13:
    def test_commuting_diagonal_arguments(self, rng):
        Z = rng.uniform(-1, 1, (2, 2))
        got = riemann_13(I2, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), Z)
        assert_allclose(got, np.zeros((2, 2)))

    def test_antisymmetry(self, rng):
        K = random_invertible(rng, 3)
        X = rng.uniform(-1, 1, (3, 3))
        Z = rng.uniform(-1, 1, (3, 3))
        assert_allclose(riemann_13(K, X, X, Z), np.zeros((3, 3)), atol=1e-12)
        Y = rng.uniform(-1, 1, (3, 3))
        assert_allclose(riemann_13(K, X, Y, Z), -riemann_13(K, Y, X, Z), atol=1e-12)

    def test_left_invariant_form(self, rng):
        K = random_invertible(rng, 3)
        X0, Y0, Z0 = (rng.uniform(-1, 1, (3, 3)) for _ in range(3))
        got = riemann_13(K, K @ X0, K @ Y0, K @ Z0)
        brk = X0 @ Y0 - Y0 @ X0
        want = 0.25 * K @ (brk @ Z0 - Z0 @ brk)
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


class TestRiemann04:
    def test_frozen_values(self, basis2):
        S12, A12, D1 = basis2["S12"], basis2["A12"], basis2["D1"]
        assert riemann_04(I2, S12, A12, S12, A12) == pytest.approx(0.5, abs=1e-12)
        assert riemann_04(I2, D1, S12, D1, S12) == pytest.approx(-0.25, abs=1e-12)

    def test_equals_the_two_commutator_formula_bit_for_bit(self, rng):
        for n in range(1, 7):
            for _ in range(10):
                K = random_invertible(rng, n) if n > 1 else rng.uniform(0.5, 2.0, (1, 1))
                X, Y, Z, W = (rng.uniform(-1, 1, (n, n)) for _ in range(4))
                bX, bY, bZ, bW = (np.linalg.solve(K, V) for V in (X, Y, Z, W))
                left, right = bX @ bY - bY @ bX, bZ @ bW - bW @ bZ
                assert riemann_04(K, X, Y, Z, W) == float(0.25 * np.trace(left @ right))

    def test_degenerate_slots_vanish(self, rng):
        X, Z, W = (rng.uniform(-1, 1, (2, 2)) for _ in range(3))
        assert riemann_04(I2, X, X, Z, W) == pytest.approx(0.0, abs=1e-14)

    def test_tensor_symmetries_and_bianchi(self, rng):
        for n in (2, 3, 4):
            for _ in range(10):
                K = random_invertible(rng, n)
                X, Y, Z, W = (rng.uniform(-1, 1, (n, n)) for _ in range(4))
                r = riemann_04(K, X, Y, Z, W)
                scale = max(1.0, abs(r))
                assert riemann_04(K, Y, X, Z, W) == pytest.approx(-r, abs=1e-9 * scale)
                assert riemann_04(K, X, Y, W, Z) == pytest.approx(-r, abs=1e-9 * scale)
                assert riemann_04(K, Z, W, X, Y) == pytest.approx(r, abs=1e-9 * scale)
                cyc = r + riemann_04(K, Y, Z, X, W) + riemann_04(K, Z, X, Y, W)
                assert cyc == pytest.approx(0.0, abs=1e-9 * scale)

    def test_compatible_with_13_form(self, rng):
        K = random_invertible(rng, 3)
        X, Y, Z, W = (rng.uniform(-1, 1, (3, 3)) for _ in range(4))
        lhs = riemann_04(K, X, Y, Z, W)
        rhs = trace_metric(K, riemann_13(K, X, Y, Z), W)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))

    def test_left_invariance(self, rng):
        K = random_invertible(rng, 3)
        X, Y, Z, W = (rng.uniform(-1, 1, (3, 3)) for _ in range(4))
        base = riemann_04(np.eye(3), X, Y, Z, W)
        moved = riemann_04(K, K @ X, K @ Y, K @ Z, K @ W)
        assert moved == pytest.approx(base, abs=1e-9 * max(1.0, abs(base)))


class TestSectional:
    def test_frozen_values(self, basis2):
        assert sectional(I2, basis2["D1"], basis2["S12"]) == pytest.approx(-0.25, abs=1e-12)
        assert sectional(I2, basis2["S12"], basis2["A12"]) == pytest.approx(-0.5, abs=1e-12)
        assert sectional(I2, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-14)

    def test_basis_invariance(self, rng, basis2):
        X, Y = basis2["D1"], basis2["S12"]
        base = sectional(I2, X, Y)
        for _ in range(10):
            a, b, c, d = rng.uniform(-2, 2, 4)
            if abs(a * d - b * c) < 0.1:
                continue
            again = sectional(I2, a * X + b * Y, c * X + d * Y)
            assert again == pytest.approx(base, abs=1e-8 * max(1.0, abs(base)))

    def test_scale_free_in_each_tangent_without_overflow(self, rng):
        # the value is invariant under X -> aX, Y -> bY, even where the Gram entries of aX, bY
        # would leave the float range
        for n in (2, 3, 5):
            K = random_invertible(rng, n)
            X, Y = rng.uniform(-1, 1, (2, n, n))
            base = sectional(K, X, Y)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for a, b in ((1e200, 1e200), (1e-6, 3.0), (1e250, 1e255)):
                    assert sectional(K, a * X, b * Y) == pytest.approx(base, rel=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sectional(I2, np.diag([1e200, 0.0]), np.diag([0.0, 1e200])) == 0.0

    def test_matches_the_per_entry_formula(self, rng):
        # the Gram entries as three traces of products and the commutator formed twice, on the
        # same normalised tangents and scaled base point as sectional itself
        def reference(K, X, Y):
            tangents = np.stack([X / np.abs(X).max(), Y / np.abs(Y).max()])
            bX, bY = np.linalg.solve(np.ldexp(K, -np.frexp(np.abs(K).max())[1]), tangents)
            gxx, gyy, gxy = (float(np.trace(a @ b)) for a, b in ((bX, bX), (bY, bY), (bX, bY)))
            comm = bX @ bY - bY @ bX
            return 0.25 * float(np.trace(comm @ comm)) / (gxx * gyy - gxy * gxy)

        for n in range(2, 7):
            for _ in range(20):
                K = random_invertible(rng, n)
                X, Y = rng.uniform(-1, 1, (2, n, n))
                want = reference(K, X, Y)
                assert sectional(K, X, Y) == pytest.approx(want, rel=1e-13)

    def test_linear_dependence_rejected(self, basis2):
        with pytest.raises(LinearlyDependentError):
            sectional(I2, basis2["S12"], 2.0 * basis2["S12"])

    def test_degenerate_section_rejected(self, basis2):
        # E12 is a null direction orthogonal to D1: the plane Gram determinant vanishes
        with pytest.raises(DegenerateSectionError):
            sectional(I2, basis2["E12"], basis2["D1"])


# X -> aX must not move a decision on the tangents: their cuts read the tangents' own scale
TANGENT_SCALES = (1e-300, 1e-200, 1e-20, 1.0, 1e20, 1e150)


@pytest.mark.parametrize("a", TANGENT_SCALES)
def test_sectional_cuts_are_on_the_tangents_scale(rng, a):
    K = random_invertible(rng, 3)
    X, Y, S = rng.uniform(-1, 1, (3, 3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sectional(K, a * X, a * Y) == pytest.approx(sectional(K, X, Y), rel=1e-12)
        for pair in ((a * S, 2.0 * a * S), (a * S, 0.0 * S)):
            with pytest.raises(LinearlyDependentError):
                sectional(K, *pair)


@pytest.mark.parametrize("n", [2, 3])
def test_sectional_is_free_of_one_tangents_scale(rng, n):
    # Y -> bY moves neither the value nor the 2-plane test, which reads the scaled tangents;
    # Y = cX is refused at every c
    if n == 2:
        K, X, Y = I2, np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    else:
        K, (X, Y) = random_invertible(rng, n), rng.uniform(-1, 1, (2, n, n))
    base = sectional(K, X, Y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in (1e-300, 1e-100, 1e-13, 1.0, 1e13, 1e100, 1e300):
            assert sectional(K, X, b * Y) == pytest.approx(base, rel=1e-12)
            with pytest.raises(LinearlyDependentError):
                sectional(K, X, b * X)


@pytest.mark.parametrize("c", [1e-300, 1e-100, 1.0, 1e100, 1e300])
def test_sectional_is_free_of_the_base_points_scale(rng, c):
    # K -> cK scales the metric by c^-2, which the Gram determinant divides out
    K = random_invertible(rng, 3)
    X, Y = rng.uniform(-1, 1, (2, 3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sectional(c * K, X, Y) == pytest.approx(sectional(K, X, Y), rel=1e-12)


@pytest.mark.parametrize("a", TANGENT_SCALES)
def test_einstein_tangent_cut_is_on_the_tangents_scale(rng, a):
    K = random_invertible(rng, 3)
    X, Y = (sl_tangent_project(K, a * U) for U in rng.uniform(-1, 1, (2, 3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sl_einstein_check(K, X, Y)
        for tangents in ((a * K, Y), (X, a * K)):  # tr(K^-1 aK) = n a: never tangent
            with pytest.raises(NotTangentError):
                sl_einstein_check(K, *tangents)


class TestRicci:
    def test_frame_values(self, basis2):
        assert ricci(I2, basis2["D1"], basis2["D1"]) == pytest.approx(-0.5, abs=1e-12)
        assert ricci(I2, basis2["S12"], basis2["S12"]) == pytest.approx(-1.0, abs=1e-12)
        assert ricci(I2, basis2["A12"], basis2["A12"]) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_bilinear(self, rng):
        K = random_invertible(rng, 3)
        X, Y, Z = (rng.uniform(-1, 1, (3, 3)) for _ in range(3))
        a = float(rng.uniform(-2, 2))
        assert ricci(K, X, Y) == pytest.approx(ricci(K, Y, X), abs=1e-10)
        assert ricci(K, a * X + Z, Y) == pytest.approx(
            a * ricci(K, X, Y) + ricci(K, Z, Y), abs=1e-9
        )

    def test_matches_cartan_killing_at_identity(self, rng):
        for n in (2, 3):
            X = rng.uniform(-1, 1, (n, n))
            Y = rng.uniform(-1, 1, (n, n))
            assert ricci(np.eye(n), X, Y) == pytest.approx(-0.25 * cartan_killing(X, Y), abs=1e-10)


class TestRicciTraceOracle:
    def test_agrees_with_closed_form(self, rng):
        for n in (2, 3):
            for _ in range(10):
                K = random_invertible(rng, n)
                X = rng.uniform(-1, 1, (n, n))
                Y = rng.uniform(-1, 1, (n, n))
                want = ricci(K, X, Y)
                assert ricci_trace_oracle(K, X, Y) == pytest.approx(want, abs=1e-8 * max(1.0, abs(want)))

    def test_unit_pair_value(self, basis2):
        assert ricci_trace_oracle(I2, basis2["E12"], basis2["E21"]) == pytest.approx(-1.0, abs=1e-10)
        assert ricci_trace_oracle(I2, basis2["D1"], basis2["D1"]) == pytest.approx(-0.5, abs=1e-10)

    def test_symmetric(self, rng):
        K = random_invertible(rng, 2)
        X = rng.uniform(-1, 1, (2, 2))
        Y = rng.uniform(-1, 1, (2, 2))
        assert ricci_trace_oracle(K, X, Y) == pytest.approx(ricci_trace_oracle(K, Y, X), abs=1e-10)

    def test_one_batched_pass_with_one_svd(self, rng, monkeypatch):
        # K is decided once: the oracle's cut is the one SVD, and ricci's cut of the same K is
        # remembered; neither the public (1,3) formula nor gram_matrix is called per unit
        def refuse(*args, **kwargs):
            raise AssertionError("public formula called")

        svd, seen = _lapack.svd, []
        monkeypatch.setattr(_lapack, "svd", lambda a, *args, **kw: seen.append(a) or svd(a, *args, **kw))
        monkeypatch.setattr(curvature, "riemann_13", refuse)
        monkeypatch.setattr(metricspace, "gram_matrix", refuse)
        for n in (2, 3):
            K = random_invertible(rng, n)
            X, Y = rng.uniform(-1, 1, (2, n, n))
            seen.clear()
            assert ricci_trace_oracle(K, X, Y) == pytest.approx(ricci(K, X, Y), abs=1e-8)
            assert len(seen) == 1


class TestScalarCurvature:
    def test_constant_values(self, rng):
        for n, want in ((2, -3.0), (3, -12.0), (4, -30.0)):
            for _ in range(10):
                K = random_invertible(rng, n)
                assert scalar_curvature(K) == pytest.approx(want, abs=1e-8)

    def test_one_contraction_matches_the_per_vector_ricci_sum(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ricci called")

        for n in (2, 3, 4):
            K = random_invertible(rng, n)
            frame = orthonormal_frame(K)
            loop = sum(s * ricci(K, v, v) for s, v in zip(frame.signs, frame.vectors))
            with monkeypatch.context() as patch:
                patch.setattr(curvature, "ricci", refuse)
                got = scalar_curvature(K)
            assert got == pytest.approx(loop, rel=1e-12)

    def test_one_factorisation_and_the_frame_built_once_per_order(self, rng, monkeypatch):
        solve, shapes = _lapack.solve, []

        def spy(a, b):
            shapes.append((np.ndim(a), np.ndim(b)))
            return solve(a, b)

        monkeypatch.setattr(_lapack, "solve", spy)
        for n in (2, 3, 5):
            K = random_invertible(rng, n)
            first = scalar_curvature(K)
            built = curvature._identity_frame.cache_info().misses
            shapes.clear()
            assert scalar_curvature(2.0 * K) == pytest.approx(first, rel=1e-12)
            assert shapes == [(2, 2)]
            assert curvature._identity_frame.cache_info().misses == built

    def test_every_verify_order_stays_cached(self, rng):
        orders = list(verify.ORDERS)
        for n in orders:
            scalar_curvature(random_invertible(rng, n))
        built = curvature._identity_frame.cache_info().misses
        for _ in range(4):  # every order in a shuffled order, as the fields pool draws them
            for n in rng.permutation(orders):
                scalar_curvature(random_invertible(rng, int(n)))
        assert curvature._identity_frame.cache_info().misses == built

    def test_shared_frame_arrays_are_read_only(self, rng):
        K = random_invertible(rng, 3)
        frame = orthonormal_frame(K)
        with pytest.raises(ValueError):
            frame.signs[0] = -1.0
        at_identity, _ = curvature._identity_frame(3)
        with pytest.raises(ValueError):
            at_identity[0, 0, 0] = 2.0
        again = orthonormal_frame(K)
        assert np.array_equal(again.signs, np.repeat([1.0, -1.0], [6, 3]))
        assert np.array_equal(again.vectors, frame.vectors)

    def test_frame_is_orthonormal_with_expected_characters(self, rng):
        n = 3
        K = random_invertible(rng, n)
        frame = orthonormal_frame(K)
        assert int(np.sum(frame.signs > 0)) == n * (n + 1) // 2
        assert int(np.sum(frame.signs < 0)) == n * (n - 1) // 2
        assert frame.causal.count("time-like") == n * (n - 1) // 2
        m = len(frame.vectors)
        for a in range(m):
            for b in range(a, m):
                want = frame.signs[a] if a == b else 0.0
                got = trace_metric(K, frame.vectors[a], frame.vectors[b])
                assert got == pytest.approx(want, abs=1e-10)


class TestChristoffel:
    def test_symbols_past_the_float_range_are_a_typed_refusal(self):
        # Gamma ~ P^-1 = 1e310 I overflows: the closed form refuses as the difference oracle does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for christoffel in (christoffel_closed, christoffel_fd):
                with pytest.raises(IllConditionedError, match="Christoffel symbols overflows"):
                    christoffel(1e-310 * I2)

    def test_oracle_agreement_at_identity(self):
        closed = christoffel_closed(I2)
        fd = christoffel_fd(I2, h=1e-4)
        assert float(np.abs(closed - fd).max()) <= 1e-5
        assert closed.shape == (4, 4, 4)

    @pytest.mark.parametrize("c", [1e-6, 1e3, 1e100, 1e200])
    def test_homothety_scales_the_symbols(self, c, rng):
        # Gamma(cP) = Gamma(P) / c, with no underflow of the triple products of (cP)^-1
        P = np.eye(2) + 0.3 * rng.uniform(-1, 1, (2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = christoffel_closed(c * P)
        want = christoffel_closed(P) / c
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_oracle_agreement_near_identity(self, rng):
        for n in (2, 3):
            P = np.eye(n) + 0.2 * rng.uniform(-1, 1, (n, n))
            closed = christoffel_closed(P)
            fd = christoffel_fd(P, 1e-4)
            assert float(np.abs(closed - fd).max()) <= 1e-5

    def test_symmetry_exact(self, rng):
        P = np.eye(2) + 0.3 * rng.uniform(-1, 1, (2, 2))
        gamma = christoffel_closed(P)
        assert np.array_equal(gamma, gamma.transpose(1, 0, 2))

    def test_matmul_contraction_matches_einsum_and_stays_exactly_symmetric(self, rng):
        # every contraction of the closed formula as an einsum; the contraction's rounding error
        # is bounded by the same sum taken over the absolute values of its terms
        def reference(P):
            n = P.shape[0]
            m, e = n * n, np.frexp(np.abs(P).max())[1]
            B = np.linalg.inv(np.ldexp(P, -e))
            T = np.einsum("jk,lr,si->jilksr", B, B, B).reshape(m, m, m)
            sym = T + T.transpose(1, 0, 2)
            Ginv = np.linalg.inv(gram_matrix(np.ldexp(P, -e)))
            gamma = -0.5 * np.einsum("cd,abd->abc", Ginv, sym)
            terms = 0.5 * np.einsum("cd,abd->abc", np.abs(Ginv), np.abs(sym))
            return np.ldexp(gamma, -e), np.ldexp(terms, -e)

        for n in (2, 3, 4, 5):
            for _ in range(100):
                P = random_invertible(rng, n)
                gamma = christoffel_closed(P)
                want, terms = reference(P)
                assert np.all(np.abs(gamma - want) <= 1e-14 * terms)
                assert np.array_equal(gamma, gamma.transpose(1, 0, 2))

    @pytest.mark.parametrize("P, h", [(I2 + 0.1, 1e-20), (I2 + 0.1, 1e-17),
                                      (1e12 * (I2 + 0.1), 1e-4), (I2 + 0.1, 1e-13),
                                      (I2 + 0.1, 1e-15), (I2 + 0.1, 1.2e-16)])
    def test_step_that_rounds_away_is_refused(self, P, h):
        # P + h rounded back to P would read a zero difference for that entry; the last three
        # move every entry of I + 0.1, yet rounding puts the symbols off by 1e-3, 0.13 and 0.47
        # of max |Gamma|: the floor is 2^20 ulp(max|P|), 2.3e-10 here
        with pytest.raises(ValueError, match="move every entry of P"):
            christoffel_fd(P, h)

    def test_default_step_is_relative_to_the_condition(self):
        # a fixed step 1e-4 missed christoffel_closed by more than 1e-5 of max|Gamma| on 16 of
        # these 200 draws, worst 1.06 at cond(P) = 632
        rng = np.random.default_rng(2)
        errors = []
        for k in range(200):
            n = 2 + k % 2
            P = rng.normal(size=(n, n)) + 2 * np.eye(n)
            closed = christoffel_closed(P)
            errors.append(np.abs(christoffel_fd(P) - closed).max() / np.abs(closed).max())
        assert sum(e > 1e-5 for e in errors) <= 2
        assert max(errors) < 1e-4

    def test_default_step_never_refuses(self):
        # 1e-4 sigma_min / sigma_max is far below 2^20 ulp(1) here: the default takes the floor
        assert christoffel_fd(np.diag([1.0, 1e-12])).shape == (4, 4, 4)

    @pytest.mark.parametrize("h", [None, 1e-4])
    def test_a_singular_point_is_named_as_itself(self, h):
        # the cut covers P and its 2 n^2 neighbours, but the caller passed P alone: no stack index
        with pytest.raises(SingularMatrixError, match=r"^P is numerically singular$"):
            christoffel_fd([[1.0, 2.0], [2.0, 4.0]], h)

    def test_a_singular_neighbour_is_named_by_the_step(self):
        # P = I is invertible, but P - h E_11 = diag(0, 1) is singular at h = 1
        message = "P + h E_d or P - h E_d is numerically singular at the step h = 1"
        with pytest.raises(SingularMatrixError, match=f"^{re.escape(message)}$"):
            christoffel_fd(I2, 1.0)

    def test_one_batched_cut_of_every_point(self, rng, monkeypatch):
        # P +- h E_d and P, 2 n^2 + 1 points, in one SVD call; gram_matrix is never called
        def refuse(*args, **kwargs):
            raise AssertionError("gram_matrix called")

        svd, seen = _lapack.svd, []
        monkeypatch.setattr(_lapack, "svd", lambda a, *args, **kw: seen.append(a) or svd(a, *args, **kw))
        monkeypatch.setattr(metricspace, "gram_matrix", refuse)
        for n in (2, 3):
            P = np.eye(n) + 0.2 * rng.uniform(-1, 1, (n, n))
            seen.clear()
            christoffel_fd(P, 1e-4)
            assert [a.shape for a in seen] == [(2 * n * n + 1, n, n)]

    def test_assembled_connection_matches_closed_form(self, rng):
        for n in (2, 3):
            P = np.eye(n) + 0.2 * rng.uniform(-1, 1, (n, n))
            gamma = christoffel_closed(P)
            X = rng.uniform(-1, 1, (n, n))
            Y = rng.uniform(-1, 1, (n, n))
            assembled = np.einsum(
                "a,b,abc->c", X.ravel(order="F"), Y.ravel(order="F"), gamma
            ).reshape((n, n), order="F")
            direct = nabla(P, X, Y, np.zeros((n, n)))
            assert np.linalg.norm(assembled - direct) <= 1e-5 * max(1.0, np.linalg.norm(direct))


def _exact_inverse(P):
    """P^-1 as rows of Fractions: Gauss-Jordan elimination on the exact values of P's entries."""
    n = P.shape[0]
    rows = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
            for i, row in enumerate(P.tolist())]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _christoffel_exact(P):
    """Gamma of P, each entry rounded once from its exact value: the coefficients of
    nabla_{E_a} E_b = -(E_a P^-1 E_b + E_b P^-1 E_a) / 2, where E_ij P^-1 E_kl = (P^-1)_jk E_il."""
    B = _exact_inverse(P)
    n = len(B)
    gamma = np.zeros((n * n,) * 3)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        exact = {}
        for c, v in ((i + n * l, B[j][k]), (k + n * j, B[l][i])):
            exact[c] = exact.get(c, 0) - v / 2
        for c, v in exact.items():
            gamma[i + n * j, k + n * l, c] = float(v)
    return gamma


@pytest.mark.parametrize("cond", [1e2, 1e4, 1e8])
def test_christoffel_closed_against_an_exact_reference(cond):
    # Gamma is read straight off P^-1, two entries per (a, b), so its error is a multiple of
    # u cond(P): on these 50 draws 0.31, 0.27 and 0.23 u cond at cond 1e2, 1e4 and 1e8.  The
    # trace formula with the closed-form inverse metric cancelled terms of size cond^2 max|Gamma|
    # and read 0.18 and 0.20 u cond^2 at 1e2 and 1e4.
    rng = np.random.default_rng(29)
    worst = 0.0
    for n in (2, 3):
        for _ in range(25):
            s = np.exp(rng.uniform(0.0, math.log(cond), n))
            s[0], s[-1] = 1.0, cond
            P = (verify.random_special_orthogonal(rng, n) @ np.diag(s)
                 @ verify.random_special_orthogonal(rng, n).T)
            want = _christoffel_exact(P)
            worst = max(worst, np.abs(christoffel_closed(P) - want).max() / np.abs(want).max())
    assert worst <= 0.5 * 2.0**-53 * cond


@pytest.mark.parametrize("n", [2, 3])
def test_oracles_are_scale_free_typed_and_silent(rng, n):
    # Ric(cK) = Ric(K) / c^2 and Gamma(cP) = Gamma(P) / c: each oracle agrees with its closed form
    # at the acceptance bounds, or refuses with a typed error where the closed form refuses too
    def outcome(f, *args):
        try:
            return f(*args)
        except TraceGeoError as exc:
            return type(exc)

    points = [10.0**k * (rng.normal(size=(n, n)) + 2 * np.eye(n)) for k in range(-150, 151, 50)]
    points += [1e200 * np.eye(n)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for K in points:
            c = float(np.abs(K).max())
            X, Y = rng.uniform(-1, 1, (2, n, n))
            want, got = outcome(ricci, K, X, Y), outcome(ricci_trace_oracle, K, X, Y)
            if isinstance(want, type) or isinstance(got, type):
                assert got == want
            else:
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want), verify._metric_scale(K, X, Y))
            P = c * (np.eye(n) + 0.2 * rng.uniform(-1, 1, (n, n)))
            closed, fd = outcome(christoffel_closed, P), outcome(christoffel_fd, P, 1e-4 * c)
            if isinstance(closed, type) or isinstance(fd, type):
                assert fd == closed
            else:
                assert np.abs(closed - fd).max() <= 1e-5 * np.abs(closed).max()


def test_oracles_name_their_singular_operand():
    with pytest.raises(SingularMatrixError, match="K is numerically singular"):
        ricci_trace_oracle(np.diag([1.0, 0.0]), I2, I2)
    with pytest.raises(SingularMatrixError, match="P is numerically singular"):
        christoffel_fd(np.diag([1.0, 0.0]), 1e-4)


class TestEinsteinOnLeaves:
    def test_frame_pairs(self, basis2):
        assert sl_einstein_check(I2, basis2["S12"], basis2["S12"]) == pytest.approx((-1.0, -1.0))
        assert sl_einstein_check(I2, basis2["A12"], basis2["A12"]) == pytest.approx((1.0, 1.0))
        lhs, rhs = sl_einstein_check(I2, np.diag([1.0, -1.0]), basis2["A12"])
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_random_leaf_tangents(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            K = random_invertible(rng, n)
            X = sl_tangent_project(K, rng.uniform(-1, 1, (n, n)))
            Y = sl_tangent_project(K, rng.uniform(-1, 1, (n, n)))
            lhs, rhs = sl_einstein_check(K, X, Y)
            assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))

    def test_non_tangent_rejected(self):
        with pytest.raises(NotTangentError):
            sl_einstein_check(I2, I2, I2)
