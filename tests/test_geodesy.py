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
    SpectrumNotPositiveError,
    SpectrumOnCutError,
    TraceGeoError,
    broken_arc,
    christoffel_fd,
    classify_arc,
    curve_residual,
    fractional_power,
    geodesic_from_velocity,
    nabla,
    real_log_principal,
    spd_geodesic,
    spectral_profile,
    unique_arc,
)
from tracegeo import geodesy, matcore
from tracegeo.verify import RESIDUAL_TOL, random_invertible, random_spd, random_special_orthogonal

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
    """Records every matrix exponential as ("pade", A) for tracegeo's own, ``matcore._expm``, and
    ("scipy", A) for ``scipy.linalg.expm``, the tests' independent oracle."""
    calls, pade, expm = [], matcore._expm, sla.expm

    def spy(A, left=None):
        calls.append(("pade", A))
        return pade(A, left)

    for module in (matcore, geodesy):  # geodesy imported the name
        monkeypatch.setattr(module, "_expm", spy)
    monkeypatch.setattr(sla, "expm", lambda A: calls.append(("scipy", A)) or expm(A))
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
        # one Pade exponential in the route, one scipy exponential in the oracle
        assert [kind for kind, _ in calls] == ["pade", "scipy"] * len(ts)

    def test_exactly_singular_eigenbasis_falls_back_to_expm(self):
        # eig returns a singular eigenvector matrix for J3(0), which _eigenbasis cannot invert
        N = jordan_block(0.0, 3)
        geo = Geodesic(np.eye(3), N)
        for t in (-2.5, 0.3, 4.0):
            assert_allclose(geo.point(t), np.eye(3) + t * N + t * t / 2.0 * (N @ N), rtol=1e-15, atol=1e-15)

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

    def test_base_is_halved_before_it_is_symmetrised(self):
        # K + K.T overflows for an entry of 1.7e308; 0.5 K + 0.5 K.T does not.  K^1/2 K^1/2 is
        # K to rounding: sqrt(1.7e308)^2 is one ulp below it
        K = np.diag([1.7e308, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_allclose(spd_geodesic(K, np.zeros((2, 2)), 0.5), K, rtol=1e-15)

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

    def test_steps_are_the_ones_taken(self):
        # at a power of two t - h rounds on the finer grid of the binade below t, so the two steps
        # differ by up to half an ulp of t; dividing by 2h read 0.0165 at 2^20 and 16.9 at 2^30
        geo = Geodesic(I2, np.array([[0.0, 1.0], [-1.0, 0.0]]))
        for t in (1.0, 2.0**20, -(2.0**20), 2.0**30):
            assert curve_residual(geo.point, t, 1e-4) <= RESIDUAL_TOL, t

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

        eig, solves = np.linalg.eig, []
        monkeypatch.setattr(np.linalg, "eig", lambda A: solves.append(A) or eig(A))
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
        # one eig of M serves the profile and every witness: the chains route of a defective
        # negative cluster takes the flipped M (I - 2P) to logm without decomposing it
        assert len(solves) == 1
        assert_array_equal(solves[0], np.linalg.solve(np.eye(n), M))
        assert out.verdict is ArcKind.CONTINUUM
        assert np.linalg.norm(out.witness.point(1.0) - M) <= 1e-8 * np.linalg.norm(M)

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
        chains, _ = matcore._jordan_chains(B, -1.0, cluster.multiplicity, 1e-8)
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
    # operand check and third cut; broken_arc's legs skip real_log_principal and so_log alike
    for name in ("real_log_principal", "so_log"):
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"an arc builder called {name}")

        monkeypatch.setattr(matcore, name, refuse)
        monkeypatch.setattr(geodesy, name, refuse, raising=False)
    K0 = random_invertible(rng, 3)
    K1 = K0 @ quotient(rng, 3)
    outcome = classify_arc(K0, K1)
    assert outcome.verdict is verdict
    end = outcome.witness.point(1.0)
    assert np.linalg.norm(end - K1) <= 1e-8 * np.linalg.norm(K1)
    arc = broken_arc(K0, K1)  # det(quotient) > 0: one component
    assert np.linalg.norm(arc.first.point(1.0) - arc.joint) <= 1e-8 * np.linalg.norm(arc.joint)
    assert np.linalg.norm(arc.second.point(1.0) - K1) <= 1e-8 * np.linalg.norm(K1)


def test_endpoints_past_the_cut_are_joined_though_their_quotient_is_not():
    # M = diag(1e-7, 1e7) has sigma_min / sigma_max = 1e-14, below the singular cut; its arc
    # C = diag(log 1e-7, log 1e7) exists all the same
    K0, K1 = np.diag([1.0, 1e-7]), np.diag([1e-7, 1.0])
    outcome = classify_arc(K0, K1)
    assert outcome.verdict is ArcKind.UNIQUE
    assert_allclose(outcome.witness.direction, np.diag(np.log([1e-7, 1e7])), rtol=1e-14)
    end = outcome.witness.point(1.0)
    assert np.linalg.norm(end - K1) <= 1e-8 * np.linalg.norm(K1)


def test_witness_endpoint_check_runs_on_the_pade_exponential(rng, monkeypatch):
    # the check must not go through the witness's own eigenbasis, which would check itself
    calls = _expm_spy(monkeypatch)
    K0, K1 = random_spd(rng, 3), random_spd(rng, 3)
    outcome = classify_arc(K0, K1)
    assert len(calls) == 1
    kind, A = calls[0]
    assert kind == "pade"
    assert_array_equal(A, outcome.witness.direction)


def test_witness_endpoint_check_is_not_vacuous_at_large_scale(monkeypatch):
    # ||K1|| overflows for entries of 1.34e154; a wrong witness must still be caught
    K = 1.34e154 * I2
    monkeypatch.setattr(geodesy, "_real_log", lambda M, eigs, vecs, negative, tol: np.diag([1.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedError, match="witness endpoint check failed"):
            classify_arc(K, K)


def test_witness_endpoint_check_is_not_vacuous_at_small_scale(monkeypatch):
    # the gap is relative to ||K1|| with no floor, so it holds for K1 of norm 1e-12 too
    K = 1e-12 * I2
    monkeypatch.setattr(geodesy, "_real_log", lambda M, eigs, vecs, negative, tol: np.diag([1.0, 0.0]))
    with pytest.raises(IllConditionedError, match="witness endpoint check failed"):
        classify_arc(K, K)


# ---------------------------------------------------------------------------
# One profile pass when every decision has a decade of margin
# ---------------------------------------------------------------------------


def _pass_spy(monkeypatch):
    """The tolerance of every profile pass classify_arc makes."""
    calls, profile_pass = [], geodesy._profile_pass

    def spy(A, eigs, norm2, tol):
        calls.append(tol)
        return profile_pass(A, eigs, norm2, tol)

    monkeypatch.setattr(geodesy, "_profile_pass", spy)
    return calls


def _rotation_block(a, b):
    return np.array([[a, -b], [b, a]])


# a core of K0^-1 K1 for every class that classify_arc sees, spectra far from every cut
SEPARATED_CORES = {
    "nonsym-pos": (np.diag([0.5, 1.5, 3.0]), ArcKind.UNIQUE),
    "complex-pair": (sla.block_diag(_rotation_block(1.0, 2.0), [[3.0]]), ArcKind.COUNTABLE),
    "paired-neg": (np.diag([-2.0, -2.0, 3.0]), ArcKind.CONTINUUM),
    "repeated-pos": (np.diag([2.0, 2.0, 3.0]), ArcKind.CONTINUUM),
    "unpaired-neg": (np.diag([-2.0, 3.0, 4.0]), ArcKind.NO_ARC),
}


@pytest.mark.parametrize("cls", ["spd", *SEPARATED_CORES])
def test_well_separated_pairs_take_one_profile_pass(cls, monkeypatch):
    calls = _pass_spy(monkeypatch)
    rng = np.random.default_rng(12)
    for _ in range(10):
        if cls == "spd":
            K0, K1, verdict = random_spd(rng, 3), random_spd(rng, 3), ArcKind.UNIQUE
        else:
            core, verdict = SEPARATED_CORES[cls]
            S = np.eye(3) + 0.3 * rng.uniform(-1, 1, (3, 3))
            K0 = random_invertible(rng, 3)
            K1 = 10 ** rng.uniform(-3, 3) * (K0 @ S @ core @ np.linalg.inv(S))
        calls.clear()
        assert classify_arc(K0, K1).verdict is verdict
        assert calls == [1e-8]


_J = np.array([[2.0, 1.0], [0.0, 2.0]])
NEAR_CUT = {
    # eigenvalues 2 and 2 + d, d twice the clustering cut: merged at 10 tol into one J2 block
    "gap": (np.array([[2.0, 1.0], [0.0, 2.0 + 2e-8 * np.linalg.norm(_J, 2)]]), ArcKind.UNIQUE),
    # E = M - 2I has the singular value 6e-8, twice the rank cut tol * ||E||_2 = 3e-8
    "staircase": (sla.block_diag([[2.0, 6e-8], [0.0, 2.0]], 5.0, 5.0), ArcKind.CONTINUUM),
}


@pytest.mark.parametrize("case", NEAR_CUT)
def test_a_decision_within_a_decade_of_its_cut_reruns_the_profile(case, monkeypatch):
    calls = _pass_spy(monkeypatch)
    M, verdict = NEAR_CUT[case]
    outcome = classify_arc(np.eye(len(M)), M)
    assert outcome.verdict is verdict
    assert calls == [1e-8, 1e-9, 1e-7]
    end = outcome.witness.point(1.0)
    assert np.linalg.norm(end - M) <= 1e-8 * np.linalg.norm(M)


def _upper(a, e, b):
    return np.array([[a, e, 0.0], [0.0, a, 0.0], [0.0, 0.0, b]])


# classify_arc(I, M) before and after the single-pass rule: the verdict, or the refusal's message.
# The pairs +-3 +- 2.1e-7 i are 1.4 clustering cuts wide even at 10 tol: no re-run makes them real.
NEAR_THRESHOLD_TABLE = [
    (1e-3 * np.diag([1.0, 1.0 + 1e-6, 2.0]), "continuum"),
    (0.1 * np.diag([1.0, 1.0 + 1e-6, 2.0]), "ambiguous at tolerance 1e-08 (differs at 1e-07)"),
    (np.diag([1.0, 1.0 + 1e-6, 2.0]), "unique"),
    (np.diag([2.0, 2.0 + 4e-9, 5.0]), "continuum"),
    (np.diag([2.0, 2.0 + 1e-7, 5.0]), "ambiguous at tolerance 1e-08 (differs at 1e-07)"),
    (np.diag([2.0, 2.0 + 1e-6, 5.0]), "unique"),
    (np.diag([-2.0, -2.0 - 1e-7, 5.0]), "ambiguous at tolerance 1e-08 (differs at 1e-07)"),
    (_upper(2.0, 3e-10, 5.0), "continuum"),
    (_upper(2.0, 6e-8, 5.0), "ambiguous at tolerance 1e-08 (differs at 1e-07)"),
    (_upper(2.0, 6e-6, 5.0), "unique"),
    (_upper(-2.0, 6e-8, 5.0), "ambiguous at tolerance 1e-08 (differs at 1e-09)"),
    (sla.block_diag(_rotation_block(3.0, 3e-10), 1.0), "continuum"),
    (sla.block_diag(_rotation_block(3.0, 2.1e-7), 1.0), "countable"),
    (sla.block_diag(_rotation_block(-3.0, 2.1e-7), 1.0), "countable"),
    (sla.block_diag(_rotation_block(3.0, 3e-4), 1.0), "countable"),
]


@pytest.mark.parametrize("M, want", NEAR_THRESHOLD_TABLE)
def test_near_threshold_pairs_refuse_as_before(M, want):
    try:
        got = classify_arc(np.eye(3), M).verdict.value
    except IllConditionedError as exc:
        got = str(exc).removeprefix("verdict is ")
    assert got == want


def always_three_passes(K0, K1, tol):
    """Reference: the profile at tol and the verdict-stability rule that re-profiles at tol/10 and
    10 tol every time; the verdict, or the message of the refusal."""
    M = np.linalg.solve(K0, K1)
    eigs, norm2 = np.linalg.eigvals(M), float(np.linalg.norm(M, 2))
    profile = matcore._profile_pass(M, eigs, norm2, tol)[0]
    for factor in (0.1, 10.0):
        other = matcore._profile_pass(M, eigs, norm2, tol * factor)[0]
        if geodesy._verdict(other) is not geodesy._verdict(profile):
            return profile, f"verdict is ambiguous at tolerance {tol:g} (differs at {tol * factor:g})"
    return profile, geodesy._verdict(profile)


def near_threshold_core(rng):
    """A 3 x 3 core with one decision placed 10^-2.5 .. 10^2.5 cuts from its cut: an eigenvalue
    gap, a Jordan coupling, or the imaginary part of a near-real pair, next to the eigenvalue 3."""
    a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.5))
    size = 10 ** rng.uniform(-2.5, 2.5) * 3e-8  # cuts are tol * 3 here
    kind = rng.choice(["gap", "coupling", "near-real"])
    if kind == "gap":
        return np.diag([a, a + size, 3.0])
    if kind == "coupling":
        return _upper(a, size, 3.0)
    return sla.block_diag(_rotation_block(a, size), 3.0)


def test_single_pass_rule_matches_always_three_passes(monkeypatch):
    calls = _pass_spy(monkeypatch)
    single = rerun = 0
    for seed in range(400):
        rng = np.random.default_rng(seed)
        S = np.eye(3) + 0.3 * rng.uniform(-1, 1, (3, 3))
        K0 = random_invertible(rng, 3)
        K1 = K0 @ S @ near_threshold_core(rng) @ np.linalg.inv(S)
        profile, want = always_three_passes(K0, K1, 1e-8)
        calls.clear()
        try:
            outcome = classify_arc(K0, K1)
        except IllConditionedError as exc:
            assert str(exc) == want, f"seed {seed}"
        else:
            assert outcome.verdict is want, f"seed {seed}"
            assert outcome.profile == profile
        single += calls == [1e-8]
        rerun += calls[1:2] == [1e-9]
    assert single >= 100 and rerun >= 100


# ---------------------------------------------------------------------------
# One eigendecomposition of M per arc
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls", ["spd", *SEPARATED_CORES])
def test_classify_arc_decomposes_the_quotient_once(cls, rng, monkeypatch):
    # the profile and the principal witness share eig(M); eigvals is never called
    def refuse(*args, **kwargs):
        raise AssertionError("eigvals called")

    eig, seen = np.linalg.eig, []
    monkeypatch.setattr(np.linalg, "eig", lambda A: seen.append(A) or eig(A))
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    if cls == "spd":
        K0, K1, verdict = random_spd(rng, 3), random_spd(rng, 3), ArcKind.UNIQUE
    else:
        core, verdict = SEPARATED_CORES[cls]
        S = np.eye(3) + 0.3 * rng.uniform(-1, 1, (3, 3))
        K0 = random_invertible(rng, 3)
        K1 = K0 @ S @ core @ np.linalg.inv(S)
    outcome = classify_arc(K0, K1)
    M = np.linalg.solve(K0, K1)
    assert outcome.verdict is verdict
    assert sum(np.array_equal(A, M) for A in seen) == 1
    assert_array_equal(seen[0], M)
    # the paired negatives here are semisimple: their witness takes no second eig either
    assert len(seen) == 1


def eigvals_route(K0, K1, tol):
    """Reference: classify_arc with M's spectrum read twice, as before one eigendecomposition
    served the profile and the witness: ``eigvals(M)`` and ``norm(M, 2)`` for the profile, then
    ``eig(M)`` again for the witness.  The verdict, profile and witness direction, or the type and
    message of the refusal."""
    try:
        M = np.linalg.solve(K0, K1)
        eigs, norm2 = np.linalg.eigvals(M), float(np.linalg.norm(M, 2))
        profile, settled = matcore._profile_pass(M, eigs, norm2, tol)
        verdict = geodesy._verdict(profile)
        for factor in () if settled else matcore._RERUN_FACTORS:
            if geodesy._verdict(matcore._profile_pass(M, eigs, norm2, tol * factor)[0]) is not verdict:
                raise IllConditionedError(
                    f"verdict is ambiguous at tolerance {tol:g} (differs at {tol * factor:g})")
        if verdict is ArcKind.NO_ARC:
            return verdict, profile, None
        C = matcore._real_log(M, *np.linalg.eig(M), profile.negative_real(), tol)
        gap = matcore._relative_gap(matcore._expm(C, left=K0), K1)
        if gap > 1e-6:
            raise IllConditionedError(f"witness endpoint check failed (relative error {gap:g})")
        return verdict, profile, C
    except TraceGeoError as exc:
        return type(exc), str(exc)


def arcs_class_pair(rng, cls, n):
    """Endpoints whose quotient K0^-1 K1 has the spectral class ``cls`` of the perfbench ``arcs``
    workload, with K1 scaled by c log-uniform over 1e-6..1e6."""
    c = 10 ** rng.uniform(-6, 6)
    if cls == "spd":
        return random_spd(rng, n), c * random_spd(rng, n)
    positive = list(rng.uniform(0.5, 3.0, n))
    if cls == "complex-pair":
        theta = rng.uniform(0.3, np.pi - 0.3)
        core = sla.block_diag(positive[0] * _rotation_block(np.cos(theta), np.sin(theta)),
                              *positive[2:])
    elif cls in ("paired-neg", "repeated-pos"):
        sign = -1.0 if cls == "paired-neg" else 1.0
        core = sla.block_diag(sign * positive[0] * I2, *positive[2:])
    elif cls == "unpaired-neg":
        core = np.diag([-positive[0], *positive[1:]])
    else:  # nonsym-pos
        core = np.diag(positive)
    S = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
    K0 = random_invertible(rng, n)
    return K0, c * (K0 @ S @ core @ np.linalg.inv(S))


ARCS_CLASSES = ("spd", "nonsym-pos", "complex-pair", "paired-neg", "repeated-pos", "unpaired-neg")


@pytest.mark.parametrize("n", range(2, 7))
def test_one_eigendecomposition_matches_the_eigvals_route(n, monkeypatch):
    # the spectrum and spectral norm the first profile pass reads, and every answer
    seen, profile_pass = [], geodesy._profile_pass
    monkeypatch.setattr(geodesy, "_profile_pass",
                        lambda A, eigs, norm2, tol: seen.append((A, eigs, norm2)) or
                        profile_pass(A, eigs, norm2, tol))
    for cls in ARCS_CLASSES:
        for seed in range(20):
            rng = np.random.default_rng([n, ARCS_CLASSES.index(cls), seed])
            K0, K1 = arcs_class_pair(rng, cls, n)
            want = eigvals_route(K0, K1, 1e-8)
            seen.clear()
            try:
                outcome = classify_arc(K0, K1)
            except TraceGeoError as exc:
                assert (type(exc), str(exc)) == want, (cls, seed)
                continue
            M, eigs, norm2 = seen[0]
            assert_array_equal(eigs, np.linalg.eigvals(M))
            assert norm2 == float(np.linalg.norm(M, 2))
            verdict, profile, C = want
            assert outcome.verdict is verdict, (cls, seed)
            assert outcome.profile == profile, (cls, seed)
            if C is None:
                assert outcome.witness is None
            else:
                assert_array_equal(outcome.witness.direction, C)


# ---------------------------------------------------------------------------
# Paired negative witnesses from the one eigendecomposition
# ---------------------------------------------------------------------------


def chains_witness(M, eigs, vecs, negative, tol):
    """Reference: the witness with every negative cluster taken through its Jordan chains, as
    before semisimple clusters were read off eig(M): C = log(M (I - 2P)) + pi J with P and J
    from the chains and the staircase's left kernel, or M's principal log with its cut test when
    no cluster is negative."""
    xs, ys, lefts = [], [], []
    for cluster in negative:
        chains, left = matcore._jordan_chains(M, cluster.eigenvalue.real, cluster.multiplicity, tol)
        chains.sort(key=len)
        for x, y in zip(chains[0::2], chains[1::2]):
            xs.extend(x)
            ys.extend(y)
        lefts.append(left)
    if not xs:
        return matcore._log_from_eig(M, eigs, vecs, tol)
    V = np.column_stack(xs + ys)
    W = np.hstack(lefts)
    D = np.linalg.solve(W.T @ V, W.T)
    A = M - 2.0 * (M @ (V @ D))
    half = len(xs)
    J = V[:, half:] @ D[:half] - V[:, :half] @ D[half:]
    return matcore._log_from_eig(A, *np.linalg.eig(A), tol) + np.pi * J


def semisimple_negative_pair(rng, n, kind):
    """Endpoints whose quotient has one or two semisimple negative eigenvalue pairs ("paired"),
    or one beside a complex pair ("mixed"), the rest positive; similarity S with cond(S) up to
    1e3, K1 scaled by c log-uniform over 1e-6..1e6."""
    values = list(rng.uniform(0.5, 3.0, n))
    blocks = [-values[0] * I2]
    if kind == "mixed" and n >= 4:
        theta = rng.uniform(0.3, np.pi - 0.3)
        blocks.append(values[1] * _rotation_block(np.cos(theta), np.sin(theta)))
    elif n >= 4 and rng.uniform() < 0.5:
        blocks.append(-values[1] * I2)
    core = sla.block_diag(*blocks, *values[2 * len(blocks):])
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    Vt, _ = np.linalg.qr(rng.normal(size=(n, n)))
    S = U @ np.diag(np.logspace(0, rng.uniform(0, 3), n)) @ Vt
    K0 = random_invertible(rng, n)
    return K0, 10 ** rng.uniform(-6, 6) * (K0 @ S @ core @ np.linalg.inv(S))


def _endpoint_error(outcome, K1):
    K0, C = outcome.witness.base_point, outcome.witness.direction
    return np.linalg.norm(K0 @ sla.expm(C) - K1) / np.linalg.norm(K1)


@pytest.mark.parametrize("kind", ["paired", "mixed"])
@pytest.mark.parametrize("n", range(2, 7))
def test_semisimple_negative_witness_matches_the_chains_route(n, kind, monkeypatch):
    def answer(K0, K1):
        try:
            return classify_arc(K0, K1)
        except TraceGeoError as exc:
            return type(exc), str(exc)

    witnesses = 0
    for seed in range(40):
        rng = np.random.default_rng([n, seed, kind == "mixed"])
        K0, K1 = semisimple_negative_pair(rng, n, kind)
        outcome = answer(K0, K1)
        with monkeypatch.context() as patch:
            patch.setattr(geodesy, "_real_log", chains_witness)
            reference = answer(K0, K1)
        if isinstance(reference, tuple):  # a refusal before any witness is built
            assert outcome == reference, seed
            continue
        assert outcome.verdict is reference.verdict is ArcKind.CONTINUUM, seed
        assert outcome.profile == reference.profile, seed
        assert _endpoint_error(reference, K1) <= 1e-8, seed
        assert _endpoint_error(outcome, K1) <= 1e-8, seed
        witnesses += 1
    assert witnesses >= 36


def _witness_route_spy(monkeypatch):
    """The arrays eig decomposes and the clusters whose Jordan chains are taken."""
    eig, chains, decomposed, chained = np.linalg.eig, matcore._jordan_chains, [], []
    monkeypatch.setattr(np.linalg, "eig", lambda A: decomposed.append(A) or eig(A))
    monkeypatch.setattr(matcore, "_jordan_chains",
                        lambda B, lam, mult, tol: chained.append(lam) or chains(B, lam, mult, tol))
    return decomposed, chained


@pytest.mark.parametrize("core, chained", [
    (np.diag([-1.0, -1.0, 2.0]), False),
    (sla.block_diag(-I2, -3.0 * I2, 0.5), False),
    (sla.block_diag(jordan_block(-1.0, 2), jordan_block(-1.0, 2)), True),
    (sla.block_diag(jordan_block(-1.0, 2), jordan_block(-1.0, 2), -2.0 * I2), True),
    # coupling 1e-6 over a 1e-13 perturbation: the profile reads blocks (2, 2) while the
    # eigenbasis passes its conditioning test, and the eig route would miss M by 7e-7
    (np.kron(I2, [[-1.0, 1e-6], [1e-13, -1.0]]), True),
], ids=["(-1)^2", "(-1)^2+(-3)^2", "J2(-1)^2", "J2(-1)^2+(-2)^2", "near-J2(-1)^2"])
def test_only_a_defective_negative_cluster_takes_the_chains_route(core, chained, monkeypatch):
    decomposed, lams = _witness_route_spy(monkeypatch)
    n = core.shape[0]
    outcome = classify_arc(np.eye(n), core)
    assert outcome.verdict is ArcKind.CONTINUUM
    # either route decomposes M alone; the chains spy tells them apart
    assert len(decomposed) == 1
    assert bool(lams) is chained
    assert np.linalg.norm(outcome.witness.point(1.0) - core) <= 1e-8 * np.linalg.norm(core)


def test_an_ill_conditioned_eigenbasis_takes_the_chains_route(monkeypatch):
    # diag(-1, -1, 2) under a similarity whose eigenbasis has cond_1 above 1e4
    S = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-5]])
    M = S @ np.diag([-1.0, -1.0, 2.0]) @ np.linalg.inv(S)
    assert matcore._eigenbasis(*np.linalg.eig(M)) is None
    decomposed, lams = _witness_route_spy(monkeypatch)
    outcome = classify_arc(np.eye(3), M)
    assert outcome.verdict is ArcKind.CONTINUUM
    assert len(decomposed) == 1 and lams
    assert np.linalg.norm(outcome.witness.point(1.0) - M) <= 1e-8 * np.linalg.norm(M)


# A near-negative pair just outside the clustering cut (half-width 8e-9 against the cut 1e-8)
# sits inside the logarithm's own cut tol * max(1, |lam|): the profile calls it non-real, and
# the witness follows the profile instead of raising SpectrumOnCutError after a stable verdict.
NEAR_CUT_PAIR = _rotation_block(-0.5, 8e-9)
_S_NEAR_DEPENDENT = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 1.0], [0, 0, 0, 1e-5]])
UNMERGED_NEAR_NEGATIVE = {
    "principal": sla.block_diag(NEAR_CUT_PAIR, 0.9, 0.9),
    "paired": sla.block_diag(NEAR_CUT_PAIR, -0.9, -0.9),
    "paired-2490": sla.block_diag(_rotation_block(-0.2657, 8.87e-9), -0.3174 * I2),
    # no negative cluster and an eigenbasis of cond_1 above 1e4: M's logm, with no second cut
    "ill-conditioned": _S_NEAR_DEPENDENT @ sla.block_diag(NEAR_CUT_PAIR, 0.9, 0.9)
    @ np.linalg.inv(_S_NEAR_DEPENDENT),
    # defective paired negatives: the chains route, whose flipped M (I - 2P) keeps the pair
    "defective": sla.block_diag(NEAR_CUT_PAIR, jordan_block(-0.9, 2), jordan_block(-0.9, 2)),
}


@pytest.mark.parametrize("case", UNMERGED_NEAR_NEGATIVE)
def test_an_unmerged_near_negative_pair_gets_its_witness(case):
    M = UNMERGED_NEAR_NEGATIVE[case]
    outcome = classify_arc(np.eye(len(M)), M)
    assert outcome.verdict is ArcKind.CONTINUUM
    assert len(outcome.profile.non_real()) == 2
    assert _endpoint_error(outcome, M) <= 1e-8
    # the principal logarithm and the fractional power keep their own cut tests
    with pytest.raises(SpectrumOnCutError):
        real_log_principal(M)
    with pytest.raises(SpectrumNotPositiveError):
        fractional_power(M, 0.5)


def test_an_eigenvalue_that_underflows_to_zero_is_refused_as_on_the_cut():
    # each endpoint passes the singular cut, but M's third eigenvalue 1e-324 rounds to 0 beside a
    # complex pair: refused before log 0, not a divide-by-zero warning
    K1 = sla.block_diag(1e-150 * np.array([[0.6, -0.8], [0.8, 0.6]]), [[1e-162]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectrumOnCutError, match="closed negative real axis"):
            classify_arc(1e162 * np.eye(3), K1)


def test_a_real_cluster_across_zero_is_refused_as_on_the_cut():
    # 2e-9 and -1e-9 merge at the cut 3e-8 into a cluster of mean 5e-10 > 0, and -1e-9 has no
    # real logarithm: a typed refusal, not a NaN read as an overflow
    with pytest.raises(SpectrumOnCutError, match="closed negative real axis"):
        classify_arc(np.eye(3), np.diag([2e-9, -1e-9, 3.0]))


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


def _relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _same_component_pair(rng, n, cond):
    """Two endpoints U diag(s) V^T with singular values 1, cond and n - 2 log-uniform between,
    the second's first row flipped into the first's component."""
    K1, K2 = (np.linalg.qr(rng.standard_normal((n, n)))[0]
              @ np.diag(np.concatenate([[1.0, cond], cond ** rng.uniform(0.0, 1.0, n - 2)]))
              @ np.linalg.qr(rng.standard_normal((n, n)))[0].T for _ in range(2))
    if np.linalg.det(K1) * np.linalg.det(K2) < 0:
        K2[0] = -K2[0]
    return K1, K2


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
        # the polar decompositions make the singular cuts on K1 and K2; the legs take them as read,
        # and det(O1^T O2) alone decides the component
        K1, K2 = random_spd(rng, 3), random_invertible(rng, 3)
        if np.linalg.det(K2) < 0:
            K2[0] = -K2[0]
        seen = {"svd": [], "det": [], "slogdet": []}
        for name, calls in seen.items():
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, *args, calls=calls, fn=fn, **kw: calls.append(a) or fn(a, *args, **kw))
        broken_arc(K1, K2)
        assert [len(calls) for calls in seen.values()] == [2, 1, 0]
        assert [sum(np.array_equal(a, K) for a in seen["svd"]) for K in (K1, K2)] == [1, 1]

    def test_endpoints_past_the_cut_are_joined_though_their_quotient_is_not(self):
        # K1^-1 Z has sigma_min / sigma_max = 1e-14, below the singular cut; its arc exists
        K1, K2 = np.diag([1.0, 1e-7]), np.diag([1e-7, 1.0])
        arc = broken_arc(K1, K2)
        assert _relative_error(K1 @ sla.expm(arc.first.direction), arc.joint) <= 1e-8
        assert _relative_error(arc.joint @ sla.expm(arc.second.direction), K2) <= 1e-8

    def test_ill_conditioned_endpoints_are_joined(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            K1, K2 = _same_component_pair(rng, n, 1e7)
            arc = broken_arc(K1, K2)
            assert _relative_error(K1 @ sla.expm(arc.first.direction), arc.joint) <= 1e-7
            assert _relative_error(arc.joint @ sla.expm(arc.second.direction), K2) <= 1e-7

    def test_extreme_conditioning_is_a_typed_refusal(self):
        # at 1e12 the first leg misses its joint by up to 3.5e-4: each pair is refused by the
        # spectrum cut or by the endpoint gate, and the gate is what stops some of them
        rng = np.random.default_rng(5)
        refusals = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(30):
                K1, K2 = _same_component_pair(rng, int(rng.integers(2, 7)), 1e12)
                with pytest.raises((SpectrumOnCutError, IllConditionedError)) as refusal:
                    broken_arc(K1, K2)
                refusals.append(refusal.value)
        gated = [e for e in refusals if "witness endpoint check failed" in str(e)]
        assert all(isinstance(e, SpectrumOnCutError) for e in refusals if e not in gated)
        assert gated

    def test_first_leg_endpoint_check_is_not_vacuous(self, monkeypatch):
        monkeypatch.setattr(geodesy, "_real_log", lambda M, eigs, vecs, negative, tol: np.diag([1.0, 0.0]))
        with pytest.raises(IllConditionedError, match="witness endpoint check failed"):
            broken_arc(I2, np.diag([2.0, 3.0]))

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
