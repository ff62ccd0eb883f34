import copy
import pickle
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose, assert_array_equal

from tracegeo import (
    ArcKind,
    DifferentComponentsError,
    Geodesic,
    IllConditionedError,
    NotSPDError,
    NotSymmetricError,
    NotUniqueError,
    SingularMatrixError,
    TraceGeoError,
    broken_arc,
    christoffel_fd,
    classify_arc,
    curve_residual,
    fractional_power,
    geodesic_from_velocity,
    nabla,
    spd_geodesic,
    spectral_profile,
    unique_arc,
)
from tracegeo import geodesy, matcore
from tracegeo.verify import random_invertible, random_spd, random_special_orthogonal

I2 = np.eye(2)


def jordan_block(lam, k):
    return lam * np.eye(k) + np.eye(k, k, 1)


class TestGeodesicEvaluation:
    def test_constant_curve(self):
        geo = Geodesic(I2, np.zeros((2, 2)))
        for t in (-3.0, 0.0, 1.7):
            assert_allclose(geo.point(t), I2)

    def test_diagonal(self):
        geo = Geodesic(I2, np.diag([1.0, -1.0]))
        assert_allclose(geo.point(1.0), np.diag([np.e, 1.0 / np.e]), rtol=1e-14)

    def test_scaled_base(self):
        geo = Geodesic(np.diag([2.0, 1.0]), np.diag([np.log(2.0), 0.0]))
        assert_allclose(geo.point(1.0), np.diag([4.0, 1.0]), rtol=1e-14)

    def test_result_invertible_for_all_t(self, rng):
        geo = Geodesic(random_invertible(rng, 3), rng.uniform(-1, 1, (3, 3)))
        for t in (-2.0, -0.3, 0.9, 2.0):
            assert abs(np.linalg.det(geo.point(t))) > 0

    def test_parameter_shift_property(self, rng):
        K = random_invertible(rng, 3)
        C = rng.uniform(-1, 1, (3, 3))
        geo = Geodesic(K, C)
        s, t = 0.6, -1.1
        direct = geo.point(s + t)
        shifted = Geodesic(geo.point(s), C).point(t)
        assert np.linalg.norm(direct - shifted) <= 1e-9 * max(1.0, np.linalg.norm(direct))

    def test_jacobi_determinant(self, rng):
        K = random_invertible(rng, 4)
        C = rng.uniform(-1, 1, (4, 4))
        geo = Geodesic(K, C)
        for t in (-2.0, 0.4, 2.0):
            want = np.linalg.det(K) * np.exp(t * np.trace(C))
            assert np.linalg.det(geo.point(t)) == pytest.approx(want, abs=1e-8 * max(1.0, abs(want)))

    def test_overflow_raises_without_a_warning(self):
        geo = Geodesic(I2, np.diag([800.0, 1.0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IllConditionedError, match="overflows"):
                geo.point(1.0)
            with pytest.raises(IllConditionedError, match="overflows"):
                spd_geodesic(I2, np.diag([800.0, 1.0]), 1.0)
        assert caught == []

    def test_overflow_of_the_product_with_the_base_raises_without_a_warning(self):
        # expm(C) ~ 1e304 is finite; only K @ expm(C) leaves the float range
        geo = Geodesic(1e300 * I2, np.diag([700.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match="overflows"):
                geo.point(1.0)

    def test_spd_overflow_of_the_outer_product_raises_without_a_warning(self):
        # the inner exponential is diag(e^700, e); the factors K^{1/2} = 1e50 I push it over
        K = 1e100 * I2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match="overflows"):
                spd_geodesic(K, 1e100 * np.diag([700.0, 1.0]), 1.0)


_D = np.diag([1.0, 2.0])


# a non-finite curve parameter or step names itself, where it once read as an
# overflow ("matrix exponential/power overflows") or as a bad matrix operand
@pytest.mark.parametrize("call, message", [
    (lambda x: Geodesic(I2, _D).point(x), "t must be finite"),
    (lambda x: spd_geodesic(I2, _D, x), "t must be finite"),
    (lambda x: fractional_power(_D, x), "t must be finite"),
    (lambda x: christoffel_fd(I2, x), "step h must be positive and finite"),
    (lambda x: curve_residual(Geodesic(I2, _D).point, 0.0, x), "step h must be positive and finite"),
], ids=["point", "spd_geodesic", "fractional_power", "christoffel_fd", "curve_residual"])
@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_non_finite_scalar_is_a_value_error(call, message, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call(x)


def _expm_spy(monkeypatch):
    calls, expm = [], sla.expm
    monkeypatch.setattr(sla, "expm", lambda A: calls.append(A) or expm(A))
    return calls


class TestEigenbasisRoute:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_point_matches_scipy_expm(self, n, rng):
        # the eigenbasis error grows with ||tC|| as expm's own does
        for scale in 10.0 ** np.arange(-6, 7, 2):
            for size in (0.1, 1.0, 5.0):
                K = scale * random_invertible(rng, n)
                C = size * rng.uniform(-1, 1, (n, n))
                geo = Geodesic(K, C)
                for t in np.linspace(-2.0, 2.0, 9):
                    want = K @ sla.expm(t * C)
                    bound = 1e-12 * max(1.0, np.linalg.norm(t * C, 2)) * np.linalg.norm(want)
                    assert np.linalg.norm(geo.point(t) - want) <= bound

    def test_diagonalisable_direction_never_reaches_expm(self, rng, monkeypatch):
        calls = _expm_spy(monkeypatch)
        geo = Geodesic(random_invertible(rng, 3), rng.uniform(-1, 1, (3, 3)))
        for t in (-1.0, 0.5, 2.0):
            geo.point(t)
        assert calls == []

    @pytest.mark.parametrize("C", [
        jordan_block(0.0, 2),  # nilpotent: eig finds one eigenvector
        np.array([[1.0, 1.0], [0.0, 1.0 + 1e-9]]),  # eigenvectors 1e-9 apart: cond_1(V) ~ 4e9
    ], ids=["nilpotent", "near-defective"])
    def test_defective_direction_falls_back_to_expm(self, C, monkeypatch):
        calls = _expm_spy(monkeypatch)
        K = np.array([[2.0, 1.0], [0.0, 1.0]])
        geo = Geodesic(K, C)
        ts = (-1.5, 0.3, 2.0)
        for t in ts:
            assert_allclose(geo.point(t), K @ sla.expm(t * C), rtol=1e-13)
        assert len(calls) == 2 * len(ts)  # one in the route, one in the oracle

    def test_complex_pair_gives_a_real_point(self):
        geo = Geodesic(I2, np.array([[0.1, -2.0], [2.0, 0.1]]))
        P = geo.point(0.7)
        assert P.dtype == np.float64
        assert_allclose(P, sla.expm(0.7 * geo.direction), rtol=1e-14)

    def test_overflowing_t_raises_without_a_warning(self, rng):
        geo = Geodesic(random_invertible(rng, 3), rng.uniform(-1, 1, (3, 3)) + np.diag([2.0, 0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match="overflows"):
                geo.point(1e4)
            with pytest.raises(IllConditionedError, match="overflows"):
                geo.point(-1e4)

    def test_arrays_are_read_only(self, rng):
        K, C = random_invertible(rng, 3), rng.uniform(-1, 1, (3, 3))
        geo = Geodesic(K, C)
        before = geo.point(1.0)
        with pytest.raises(ValueError):
            geo.direction[0, 0] = 5.0
        with pytest.raises(ValueError):
            geo.base_point[0, 0] = 5.0
        K[0, 0] = C[0, 0] = 5.0  # the caller's arrays were copied, and stay writable
        assert_array_equal(geo.point(1.0), before)

    def test_copies_are_read_only_too(self, rng):
        geo = Geodesic(random_invertible(rng, 3), rng.uniform(-1, 1, (3, 3)))
        before = geo.point(1.0)  # fills the cache that the copies must not carry stale
        for other in (pickle.loads(pickle.dumps(geo)), copy.copy(geo), copy.deepcopy(geo)):
            with pytest.raises(ValueError):
                other.direction[0, 0] = 5.0
            assert_array_equal(other.point(1.0), before)

    def test_spd_geodesic_matches_scipy_expm(self, rng):
        for n in (2, 3, 4, 6):
            for scale in 10.0 ** np.arange(-6, 7, 3):
                K = scale * random_spd(rng, n)
                S = scale * rng.uniform(-1, 1, (n, n))
                S = S + S.T
                w, Q = np.linalg.eigh(K)
                half, inv_half = Q @ np.diag(np.sqrt(w)) @ Q.T, Q @ np.diag(w**-0.5) @ Q.T
                for t in (-2.0, -0.3, 0.5, 2.0):
                    tA = t * inv_half @ S @ inv_half
                    want = half @ sla.expm(tA) @ half
                    bound = 1e-12 * max(1.0, np.linalg.norm(tA, 2)) * np.linalg.norm(want)
                    assert np.linalg.norm(spd_geodesic(K, S, t) - want) <= bound

    def test_spd_geodesic_never_reaches_expm(self, rng, monkeypatch):
        calls = _expm_spy(monkeypatch)
        S = rng.uniform(-1, 1, (3, 3))
        spd_geodesic(random_spd(rng, 3), S + S.T, 0.8)
        assert calls == []


class TestFromVelocity:
    def test_identity_base(self, rng):
        S = rng.uniform(-1, 1, (3, 3))
        geo = geodesic_from_velocity(np.eye(3), S)
        assert_allclose(geo.direction, S)

    def test_worked_example(self):
        geo = geodesic_from_velocity(np.diag([4.0, 1.0]), np.diag([4.0 * np.log(4.0), 0.0]))
        assert_allclose(geo.point(1.0), np.diag([16.0, 1.0]), rtol=1e-13)

    def test_zero_velocity(self, rng):
        K = random_invertible(rng, 2)
        geo = geodesic_from_velocity(K, np.zeros((2, 2)))
        assert_allclose(geo.point(5.0), K)

    def test_initial_velocity_matches(self, rng):
        K = random_invertible(rng, 3)
        S = rng.uniform(-1, 1, (3, 3))
        geo = geodesic_from_velocity(K, S)
        h = 1e-6
        vel = (geo.point(h) - geo.point(-h)) / (2 * h)
        assert np.linalg.norm(vel - S) <= 1e-8 * max(1.0, np.linalg.norm(S))


class TestSpdGeodesic:
    def test_identity_base_is_plain_exponential(self, rng):
        S = rng.uniform(-1, 1, (3, 3))
        S = 0.5 * (S + S.T)
        assert_allclose(spd_geodesic(np.eye(3), S, 0.7), sla.expm(0.7 * S), rtol=1e-12)

    def test_worked_example(self):
        got = spd_geodesic(np.diag([4.0, 1.0]), np.diag([4.0 * np.log(4.0), 0.0]), 1.0)
        assert_allclose(got, np.diag([16.0, 1.0]), rtol=1e-13)

    def test_zero_velocity(self, rng):
        K = random_spd(rng, 3)
        assert_allclose(spd_geodesic(K, np.zeros((3, 3)), 2.0), K, atol=1e-13)

    def test_matches_velocity_form(self, rng):
        for _ in range(5):
            K = random_spd(rng, 3)
            S = rng.uniform(-1, 1, (3, 3))
            S = 0.5 * (S + S.T)
            for t in (-1.0, 0.5, 1.0):
                sym = spd_geodesic(K, S, t)
                generic = geodesic_from_velocity(K, S).point(t)
                assert np.linalg.norm(sym - generic) <= 1e-9 * max(1.0, np.linalg.norm(generic))
                assert np.linalg.norm(sym - sym.T) <= 1e-9
                assert np.linalg.eigvalsh(0.5 * (sym + sym.T)).min() > 0

    def test_input_validation(self, rng):
        S = np.diag([1.0, 2.0])
        with pytest.raises(NotSPDError):
            spd_geodesic(np.array([[1.0, 1.0], [0.0, 1.0]]), S, 0.5)
        with pytest.raises(NotSPDError):
            spd_geodesic(np.diag([1.0, -2.0]), S, 0.5)
        with pytest.raises(NotSymmetricError):
            spd_geodesic(I2, np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)

    def test_symmetry_tests_do_not_overflow(self):
        # ||S|| of entries near 1e300 overflows; the tests scale by the largest entry first
        lopsided = np.array([[1e300, 1e300], [0.0, 1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotSymmetricError):
                spd_geodesic(I2, lopsided, 0.0)
            with pytest.raises(NotSPDError, match="symmetric"):
                spd_geodesic(lopsided, I2, 0.0)
            assert_allclose(spd_geodesic(1e300 * I2, np.zeros((2, 2)), 1.0), 1e300 * I2)

    def test_symmetry_tests_have_no_floor(self):
        # a lopsided velocity is not symmetric at any scale
        lopsided = np.array([[1.0, 1.0], [0.0, 1.0]])
        for c in (1e-12, 1e-300):
            with pytest.raises(NotSymmetricError):
                spd_geodesic(I2, c * lopsided, 1.0)
            with pytest.raises(NotSPDError, match="symmetric"):
                spd_geodesic(c * lopsided, I2, 1.0)


class TestNabla:
    def test_constant_fields_at_identity(self, rng):
        X = rng.uniform(-1, 1, (3, 3))
        Y = rng.uniform(-1, 1, (3, 3))
        got = nabla(np.eye(3), X, Y, np.zeros((3, 3)))
        assert_allclose(got, -0.5 * (X @ Y + Y @ X))

    def test_left_invariant_fields_give_half_bracket(self, rng):
        P = random_invertible(rng, 3)
        X0 = rng.uniform(-1, 1, (3, 3))
        Y0 = rng.uniform(-1, 1, (3, 3))
        got = nabla(P, P @ X0, P @ Y0, P @ X0 @ Y0)
        want = 0.5 * P @ (X0 @ Y0 - Y0 @ X0)
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))

    def test_linear_in_first_slot(self, rng):
        P = random_invertible(rng, 2)
        Y = rng.uniform(-1, 1, (2, 2))
        assert_allclose(nabla(P, np.zeros((2, 2)), Y, np.zeros((2, 2))), np.zeros((2, 2)))


class TestResidual:
    def test_constant_geodesic(self):
        geo = Geodesic(I2, np.zeros((2, 2)))
        assert curve_residual(geo.point, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_direction(self, basis2):
        geo = Geodesic(I2, basis2["A12"])
        assert curve_residual(geo.point, 0.3, 1e-4) <= 1e-6

    def test_random_geodesics_satisfy_equation(self, rng):
        # unit-norm directions keep the h^2 signal above the roundoff floor
        for n in (2, 3, 4):
            for _ in range(5):
                C = rng.uniform(-1, 1, (n, n))
                C /= max(1.0, np.linalg.norm(C, 2))
                geo = Geodesic(random_invertible(rng, n), C)
                for t in (-1.0, 0.37, 2.0):
                    assert curve_residual(geo.point, t, 1e-4) <= 1e-5

    def test_straight_line_is_not_a_geodesic(self, rng):
        K = np.eye(2)
        V = np.array([[0.3, 0.8], [-0.2, 0.5]])
        line = lambda t: K + t * V  # noqa: E731
        assert curve_residual(line, 0.3, 1e-4) > 1e-2


class TestClassification:
    def test_curated_verdicts(self):
        cases = [
            (np.diag([1.0, 2.0]), ArcKind.UNIQUE),
            (np.array([[0.0, -1.0], [1.0, 0.0]]), ArcKind.COUNTABLE),
            (-I2, ArcKind.CONTINUUM),
            (np.diag([-1.0, 2.0]), ArcKind.NO_ARC),
            (I2, ArcKind.CONTINUUM),
            (np.array([[1.0, 1.0], [0.0, 1.0]]), ArcKind.UNIQUE),
        ]
        for K1, want in cases:
            out = classify_arc(I2, K1)
            assert out.verdict is want, f"{K1=} gave {out.verdict}"
            if want is ArcKind.NO_ARC:
                assert out.witness is None
            else:
                end = out.witness.point(1.0)
                assert np.linalg.norm(end - K1) <= 1e-8 * max(1.0, np.linalg.norm(K1))
                assert_allclose(out.witness.base_point, I2)

    def test_minus_identity_witness_is_canonical_rotation(self):
        out = classify_arc(I2, -I2)
        assert_allclose(out.witness.direction, [[0.0, -np.pi], [np.pi, 0.0]], atol=1e-12)

    def test_unique_needs_distinct_blocks(self, rng):
        # same eigenvalue, distinct block sizes: still unique.  The cluster
        # tolerance must sit above the cube-root eigenvalue splitting that a
        # perturbed size-3 block exhibits (~1e-5 here).
        core = sla.block_diag(jordan_block(2.0, 3), [[2.0]])
        S = np.eye(4) + 0.2 * rng.uniform(-1, 1, (4, 4))
        M = S @ core @ np.linalg.inv(S)
        out = classify_arc(np.eye(4), M, 1e-4)
        assert out.verdict is ArcKind.UNIQUE
        # repeated 1x1 block of a positive eigenvalue: a continuum
        out = classify_arc(np.eye(3), np.diag([2.0, 2.0, 3.0]))
        assert out.verdict is ArcKind.CONTINUUM

    def test_complex_pair_with_two_blocks_is_continuum(self, rng):
        rot = np.array([[0.6, -0.8], [0.8, 0.6]])
        M = sla.block_diag(rot, rot)
        out = classify_arc(np.eye(4), M, 1e-6)
        assert out.verdict is ArcKind.CONTINUUM
        assert np.linalg.norm(out.witness.point(1.0) - M) <= 1e-8 * np.linalg.norm(M)

    def test_negative_parity(self):
        # two -1 blocks of equal size pass the parity test, a lone one fails
        assert classify_arc(np.eye(3), np.diag([-1.0, -1.0, 2.0])).verdict is ArcKind.CONTINUUM
        assert classify_arc(np.eye(3), np.diag([-1.0, 2.0, 3.0])).verdict is ArcKind.NO_ARC
        assert classify_arc(np.eye(4), np.diag([-1.0, -1.0, -2.0, -2.0])).verdict is ArcKind.CONTINUUM

    def test_defective_negative_pairing_witness(self, rng):
        core = sla.block_diag(jordan_block(-1.0, 2), jordan_block(-1.0, 2))
        out = classify_arc(np.eye(4), core)
        assert out.verdict is ArcKind.CONTINUUM
        assert np.linalg.norm(out.witness.point(1.0) - core) <= 1e-8 * np.linalg.norm(core)
        S = np.eye(4) + 0.25 * rng.uniform(-1, 1, (4, 4))
        M = S @ core @ np.linalg.inv(S)
        out = classify_arc(np.eye(4), M, 1e-6)
        assert out.verdict is ArcKind.CONTINUUM
        assert np.linalg.norm(out.witness.point(1.0) - M) <= 1e-8 * np.linalg.norm(M)

    def test_mixed_spectrum_witness(self, rng):
        core = sla.block_diag([[-1.0, 0.0], [0.0, -1.0]], [[0.6, -0.8], [0.8, 0.6]], [[2.0]])
        S = np.eye(5) + 0.3 * rng.uniform(-1, 1, (5, 5))
        M = S @ core @ np.linalg.inv(S)
        out = classify_arc(np.eye(5), M, 1e-6)
        assert out.verdict is ArcKind.CONTINUUM
        assert np.linalg.norm(out.witness.point(1.0) - M) <= 1e-8 * np.linalg.norm(M)

    def test_left_translation_invariance(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            K0 = random_spd(rng, n)
            K1 = random_spd(rng, n)
            G = random_invertible(rng, n)
            assert classify_arc(K0, K1).verdict is classify_arc(G @ K0, G @ K1).verdict

    def test_profile_is_the_spectral_profile_of_the_quotient(self, rng):
        rot = np.array([[0.6, -0.8], [0.8, 0.6]])
        cores = [
            np.diag([0.5, 1.5, 2.5]),  # positive distinct: unique
            sla.block_diag(rot, [[2.0]]),  # complex pair: countable
            np.diag([2.0, 2.0, 3.0]),  # repeated positive: continuum
            np.diag([-1.0, -1.0, 2.0]),  # paired negative: continuum
            np.diag([-1.0, 2.0, 3.0]),  # unpaired negative: no arc
            sla.block_diag(jordan_block(2.0, 2), [[3.0]]),  # Jordan block: unique
            sla.block_diag(jordan_block(-1.0, 2), jordan_block(-1.0, 2)),  # defective pairs
        ]
        for core in cores:
            n = core.shape[0]
            S = np.eye(n) + 0.2 * rng.uniform(-1, 1, (n, n))
            K0 = random_invertible(rng, n)
            K1 = K0 @ S @ core @ np.linalg.inv(S)
            out = classify_arc(K0, K1, 1e-6)
            assert out.profile == spectral_profile(np.linalg.solve(K0, K1), 1e-6)

    @pytest.mark.parametrize("case", ["paired", "defective-pairs", "mixed"])
    def test_negative_witness_needs_no_second_profile(self, case, rng, monkeypatch):
        # the negative-spectrum log takes its clusters from the profile of M and reads
        # chains off one staircase run per cluster; it never clusters anything again
        def refuse(*args, **kwargs):
            raise AssertionError("spectral_profile called")

        eigvals, solves = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals", lambda A: solves.append(A) or eigvals(A))
        monkeypatch.setattr(matcore, "spectral_profile", refuse)
        monkeypatch.setattr(geodesy, "spectral_profile", refuse, raising=False)
        rot = np.array([[0.6, -0.8], [0.8, 0.6]])
        core, tol = {
            "paired": (np.diag([-1.0, -1.0, 2.0]), 1e-8),
            "defective-pairs": (sla.block_diag(jordan_block(-1.0, 2), jordan_block(-1.0, 2)), 1e-8),
            "mixed": (sla.block_diag(-I2, rot, [[2.0]]), 1e-6),
        }[case]
        n = core.shape[0]
        S = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n)) if case == "mixed" else np.eye(n)
        M = S @ core @ np.linalg.inv(S)
        out = classify_arc(np.eye(n), M, tol)
        assert out.verdict is ArcKind.CONTINUUM
        assert np.linalg.norm(out.witness.point(1.0) - M) <= 1e-8 * np.linalg.norm(M)
        assert len(solves) == 1

    @pytest.mark.parametrize("case", ["paired", "defective-pairs", "mixed"])
    def test_negative_witness_needs_no_schur_split(self, case, rng, monkeypatch):
        # the witness reads the negative spectral projector off M's own Jordan chains
        rot = np.array([[0.6, -0.8], [0.8, 0.6]])
        core = {
            "paired": np.diag([-1.0, -1.0, 2.0]),
            "defective-pairs": sla.block_diag(jordan_block(-1.0, 2), jordan_block(-1.0, 2)),
            "mixed": sla.block_diag(-I2, rot, [[2.0]]),
        }[case]
        n = core.shape[0]
        S = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
        M = S @ core @ np.linalg.inv(S)

        def refuse(*args, **kwargs):
            raise AssertionError("Schur split called")

        for name in ("schur", "solve_sylvester", "block_diag"):
            monkeypatch.setattr(sla, name, refuse)
        out = classify_arc(np.eye(n), M, 1e-6)
        assert out.verdict is ArcKind.CONTINUUM
        assert np.linalg.norm(out.witness.point(1.0) - M) <= 1e-8 * np.linalg.norm(M)

    @pytest.mark.parametrize(
        "blocks",
        [(1, 1), (2, 2), (3, 3), (2, 2, 1, 1)],
        ids=["J1+J1", "J2+J2", "J3+J3", "J2+J2+J1+J1"],
    )
    def test_jordan_chains_follow_the_block_sizes(self, blocks):
        B = sla.block_diag(*(jordan_block(-1.0, k) for k in blocks))
        (cluster,) = spectral_profile(B).clusters
        assert cluster.block_sizes == blocks
        chains, _ = geodesy._jordan_chains(B, -1.0, cluster.multiplicity, 1e-8)
        assert tuple(sorted((len(c) for c in chains), reverse=True)) == cluster.block_sizes
        E = B + np.eye(B.shape[0])
        for chain in chains:
            assert np.linalg.norm(E @ chain[0]) <= 1e-12
            for below, above in zip(chain, chain[1:]):
                assert np.linalg.norm(E @ above - below) <= 1e-12

    def test_singular_endpoint_rejected(self):
        from tracegeo import SingularMatrixError

        with pytest.raises(SingularMatrixError):
            classify_arc(I2, np.diag([1.0, 0.0]))

    def test_ill_conditioned_profile_raises(self, rng):
        # a defective block perturbed at the clustering scale is ambiguous
        core = sla.block_diag(jordan_block(-1.0, 2), jordan_block(-1.0, 2))
        S = rng.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        M = S @ core @ np.linalg.inv(S)
        with pytest.raises(IllConditionedError):
            classify_arc(np.eye(4), M, 1e-8)


def test_classify_takes_one_svd_per_endpoint(rng, monkeypatch):
    # as_point_and_tangents cuts K0 and require_invertible K1; the witness takes them as read
    K0 = random_invertible(rng, 3)
    K1 = K0 @ random_spd(rng, 3)  # K0^{-1} K1 is SPD: a unique arc with a witness
    svd, seen = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: seen.append(a) or svd(a, *args, **kw))
    outcome = classify_arc(K0, K1)
    assert outcome.witness is not None
    assert [sum(np.array_equal(a, K) for a in seen) for K in (K0, K1)] == [1, 1]


def _positive_nonsymmetric(rng, n):
    S = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
    return S @ np.diag(rng.uniform(0.5, 3.0, n)) @ np.linalg.inv(S)


def _complex_pair(rng, n):
    S = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
    core = np.diag(rng.uniform(0.5, 3.0, n))
    core[:2, :2] = [[0.6, -0.8], [0.8, 0.6]]
    return S @ core @ np.linalg.inv(S)


@pytest.mark.parametrize("quotient, verdict", [
    (random_spd, ArcKind.UNIQUE),
    (_positive_nonsymmetric, ArcKind.UNIQUE),
    (_complex_pair, ArcKind.COUNTABLE),
], ids=["spd", "positive-nonsymmetric", "complex-pair"])
def test_principal_witness_takes_no_second_validation(rng, monkeypatch, quotient, verdict):
    # K0 and K1 passed the singular cut: M = K0^{-1} K1 is logged without real_log_principal's
    # operand check and third cut
    def refuse(*args, **kwargs):
        raise AssertionError("classify_arc called real_log_principal")

    monkeypatch.setattr(matcore, "real_log_principal", refuse)
    monkeypatch.setattr(geodesy, "real_log_principal", refuse)
    K0 = random_invertible(rng, 3)
    K1 = K0 @ quotient(rng, 3)
    outcome = classify_arc(K0, K1)
    assert outcome.verdict is verdict
    end = outcome.witness.point(1.0)
    assert np.linalg.norm(end - K1) <= 1e-8 * np.linalg.norm(K1)


def test_endpoints_past_the_cut_are_joined_though_their_quotient_is_not():
    # M = diag(1e-7, 1e7) has sigma_min / sigma_max = 1e-14, below the singular cut; its arc
    # C = diag(log 1e-7, log 1e7) exists all the same
    K0, K1 = np.diag([1.0, 1e-7]), np.diag([1e-7, 1.0])
    outcome = classify_arc(K0, K1)
    assert outcome.verdict is ArcKind.UNIQUE
    assert_allclose(outcome.witness.direction, np.diag(np.log([1e-7, 1e7])), rtol=1e-14)
    end = outcome.witness.point(1.0)
    assert np.linalg.norm(end - K1) <= 1e-8 * np.linalg.norm(K1)


def test_witness_endpoint_check_runs_on_scipy_expm(rng, monkeypatch):
    # the check must not go through the witness's own eigenbasis, which would check itself
    calls = _expm_spy(monkeypatch)
    K0, K1 = random_spd(rng, 3), random_spd(rng, 3)
    outcome = classify_arc(K0, K1)
    assert len(calls) == 1
    assert_array_equal(calls[0], outcome.witness.direction)


def test_witness_endpoint_check_is_not_vacuous_at_large_scale(monkeypatch):
    # ||K1|| overflows for entries of 1.34e154; a wrong witness must still be caught
    K = 1.34e154 * I2
    monkeypatch.setattr(geodesy, "_real_log_witness", lambda M, profile, tol: np.diag([1.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedError, match="witness endpoint check failed"):
            classify_arc(K, K)


def test_witness_endpoint_check_is_not_vacuous_at_small_scale(monkeypatch):
    # the gap is relative to ||K1|| with no floor, so it holds for K1 of norm 1e-12 too
    K = 1e-12 * I2
    monkeypatch.setattr(geodesy, "_real_log_witness", lambda M, profile, tol: np.diag([1.0, 0.0]))
    with pytest.raises(IllConditionedError, match="witness endpoint check failed"):
        classify_arc(K, K)


HOSTILE_CORES = {
    "J2(-0.7)^2": np.kron(np.eye(2), jordan_block(-0.7, 2)),
    "J3(-2)^2": np.kron(np.eye(2), jordan_block(-2.0, 3)),
    "J2(-1)^2+(-1)^2": sla.block_diag(jordan_block(-1.0, 2), jordan_block(-1.0, 2), -I2),
}


@pytest.mark.parametrize("core", HOSTILE_CORES)
def test_hostile_negative_spectra_get_a_typed_refusal_or_a_true_witness(core):
    # near-defective negative blocks at units scale 1e-6..1e6: no untyped exception, no warning
    core = HOSTILE_CORES[core]
    n = core.shape[0]
    for seed in range(400):  # includes 10, 20, 39, 93 and 388
        rng = np.random.default_rng(seed)
        S = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
        K0 = rng.uniform(-1, 1, (n, n)) + 3 * np.eye(n)
        K1 = 10 ** rng.uniform(-6, 6) * (K0 @ S @ core @ np.linalg.inv(S))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = classify_arc(K0, K1)
            except TraceGeoError:
                continue
        if out.witness is not None:
            err = np.linalg.norm(K0 @ sla.expm(out.witness.direction) - K1)
            assert err <= 1e-8 * np.linalg.norm(K1), f"seed {seed}"


class TestUniqueArc:
    def test_geometric_mean_of_commuting_pair(self):
        geo = unique_arc(I2, np.diag([1.0, 4.0]))
        assert_allclose(geo.point(0.5), np.diag([1.0, 2.0]), rtol=1e-13)
        geo = unique_arc(np.diag([1.0, 1.0]), np.diag([4.0, 9.0]))
        assert_allclose(geo.point(0.5), np.diag([2.0, 3.0]), rtol=1e-13)

    def test_jordan_block_interpolation(self):
        geo = unique_arc(I2, np.array([[1.0, 1.0], [0.0, 1.0]]))
        for t in (0.25, 0.5, 0.9):
            assert_allclose(geo.point(t), [[1.0, t], [0.0, 1.0]], atol=1e-12)

    def test_endpoints(self, rng):
        K0 = random_spd(rng, 3)
        K1 = random_spd(rng, 3)
        geo = unique_arc(K0, K1)
        assert np.linalg.norm(geo.point(0.0) - K0) <= 1e-10 * np.linalg.norm(K0)
        assert np.linalg.norm(geo.point(1.0) - K1) <= 1e-8 * np.linalg.norm(K1)

    def test_matches_fractional_power_curve(self, rng):
        from tracegeo import fractional_power

        K0 = random_spd(rng, 3)
        K1 = random_spd(rng, 3)
        geo = unique_arc(K0, K1)
        M = np.linalg.solve(K0, K1)
        for t in (-0.5, 0.25, 0.8, 1.7):
            want = K0 @ fractional_power(M, t)
            assert np.linalg.norm(geo.point(t) - want) <= 1e-9 * max(1.0, np.linalg.norm(want))

    def test_nested_uniqueness(self, rng):
        K0 = random_spd(rng, 3)
        K1 = random_spd(rng, 3)
        geo = unique_arc(K0, K1)
        r, s = 0.2, 0.75
        inner = classify_arc(geo.point(r), geo.point(s))
        assert inner.verdict is ArcKind.UNIQUE
        # the inner witness overlaps the outer geodesic
        for u in (0.0, 0.4, 1.0):
            outer_point = geo.point(r + u * (s - r))
            inner_point = inner.witness.point(u)
            assert np.linalg.norm(outer_point - inner_point) <= 1e-8 * max(1.0, np.linalg.norm(outer_point))

    def test_not_unique_rejected(self):
        with pytest.raises(NotUniqueError):
            unique_arc(I2, -I2)
        with pytest.raises(NotUniqueError):
            unique_arc(I2, I2)


class TestBrokenArc:
    def test_trivial_pair(self):
        arc = broken_arc(I2, I2)
        assert_allclose(arc.joint, I2)
        assert_allclose(arc.first.direction, np.zeros((2, 2)), atol=1e-12)
        assert_allclose(arc.second.direction, np.zeros((2, 2)), atol=1e-12)

    def test_half_turn(self):
        arc = broken_arc(I2, -I2)
        assert_allclose(arc.joint, I2, atol=1e-12)
        assert_allclose(arc.first.direction, np.zeros((2, 2)), atol=1e-12)
        assert_allclose(arc.second.direction, [[0.0, -np.pi], [np.pi, 0.0]], atol=1e-12)

    def test_joint_consistency(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            K1 = random_invertible(rng, n)
            K2 = random_invertible(rng, n)
            if np.linalg.det(K1) * np.linalg.det(K2) < 0:
                K2[0] = -K2[0]
            arc = broken_arc(K1, K2)
            scale = max(1.0, np.linalg.norm(K2))
            assert np.linalg.norm(arc.first.point(0.0) - K1) <= 1e-10 * scale
            assert np.linalg.norm(arc.first.point(1.0) - arc.joint) <= 1e-8 * scale
            assert np.linalg.norm(arc.second.point(0.0) - arc.joint) <= 1e-10 * scale
            assert np.linalg.norm(arc.second.point(1.0) - K2) <= 1e-8 * scale

    def test_spd_to_rotation(self, rng):
        K1 = random_spd(rng, 3)
        K2 = random_special_orthogonal(rng, 3)
        arc = broken_arc(K1, K2)
        assert np.linalg.norm(arc.second.point(1.0) - K2) <= 1e-8

    def test_negative_component_pair(self, rng):
        K1 = random_invertible(rng, 3)
        if np.linalg.det(K1) > 0:
            K1[0] = -K1[0]
        K2 = random_invertible(rng, 3)
        if np.linalg.det(K2) > 0:
            K2[0] = -K2[0]
        arc = broken_arc(K1, K2)
        assert np.linalg.norm(arc.second.point(1.0) - K2) <= 1e-8 * max(1.0, np.linalg.norm(K2))

    @pytest.mark.parametrize("singular", ["K1", "K2"])
    def test_singular_endpoint_raises(self, singular, rng):
        ends = {"K1": random_spd(rng, 3), "K2": random_spd(rng, 3)}
        ends[singular] = np.diag([1.0, 2.0, 0.0])
        with pytest.raises(SingularMatrixError):
            broken_arc(ends["K1"], ends["K2"])

    def test_each_endpoint_takes_one_svd(self, rng, monkeypatch):
        # the polar decompositions make the singular cuts on K1 and K2; the legs take them as read
        K1, K2 = random_spd(rng, 3), random_invertible(rng, 3)
        if np.linalg.det(K2) < 0:
            K2[0] = -K2[0]
        svd, seen = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: seen.append(a) or svd(a, *args, **kw))
        broken_arc(K1, K2)
        assert [sum(np.array_equal(a, K) for a in seen) for K in (K1, K2)] == [1, 1]

    def test_legs_are_read_only(self, rng):
        arc = broken_arc(random_spd(rng, 3), random_spd(rng, 3))
        with pytest.raises(ValueError):
            arc.first.direction[0, 0] = 5.0
        with pytest.raises(ValueError):
            arc.second.base_point[0, 0] = 5.0

    def test_different_components_rejected(self):
        with pytest.raises(DifferentComponentsError):
            broken_arc(I2, np.diag([-1.0, 1.0]))

    def test_component_test_reads_determinant_signs_without_overflow(self):
        # det(K1) det(K2) = 1e800 overflows; the signs decide
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DifferentComponentsError):
                broken_arc(1e200 * I2, np.diag([-1e200, 1e200]))
            arc = broken_arc(1e200 * I2, 1e200 * I2)
        assert_allclose(arc.joint, 1e200 * I2)
