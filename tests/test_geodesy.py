import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from tracegeo import (
    ArcKind,
    DifferentComponentsError,
    Geodesic,
    IllConditionedError,
    NotSPDError,
    NotSymmetricError,
    NotUniqueError,
    broken_arc,
    classify_arc,
    curve_residual,
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
        # the negative-spectrum log reads block sizes and chains off one
        # staircase run per cluster; it never profiles its Schur block again
        def refuse(*args, **kwargs):
            raise AssertionError("spectral_profile called")

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

    @pytest.mark.parametrize(
        "blocks",
        [(1, 1), (2, 2), (3, 3), (2, 2, 1, 1)],
        ids=["J1+J1", "J2+J2", "J3+J3", "J2+J2+J1+J1"],
    )
    def test_jordan_chains_follow_the_block_sizes(self, blocks):
        B = sla.block_diag(*(jordan_block(-1.0, k) for k in blocks))
        (cluster,) = spectral_profile(B).clusters
        assert cluster.block_sizes == blocks
        chains = geodesy._jordan_chains(B, -1.0, cluster.multiplicity, 1e-8)
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


def test_witness_endpoint_check_is_not_vacuous_at_large_scale(monkeypatch):
    # ||K1|| overflows for entries of 1.34e154; a wrong witness must still be caught
    K = 1.34e154 * I2
    monkeypatch.setattr(geodesy, "_real_log_witness", lambda M, profile, tol: np.diag([1.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedError, match="witness endpoint check failed"):
            classify_arc(K, K)


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
