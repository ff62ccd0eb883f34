import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from tracegeo import (
    NotSpecialOrthogonalError,
    SingularMatrixError,
    SpectrumNotPositiveError,
    SpectrumOnCutError,
    cartan_killing,
    fractional_power,
    mat_exp,
    polar_decompose,
    real_log_principal,
    so_log,
    spectral_profile,
)
from tracegeo.verify import random_invertible, random_spd, random_special_orthogonal

I2 = np.eye(2)


def jordan_block(lam, k):
    return lam * np.eye(k) + np.eye(k, k, 1)


def jordan_block_log(lam, k):
    """Series oracle: log(lam) I + sum_i (-1)^{i+1} N^i / (i lam^i)."""
    L = np.log(lam) * np.eye(k)
    for i in range(1, k):
        L += ((-1) ** (i + 1) / (i * lam**i)) * np.eye(k, k, i)
    return L


def jordan_block_power(lam, k, t):
    """Binomial oracle: lam^t (I + sum_s C(t, s) N^s / lam^s)."""
    P = np.eye(k)
    coeff = 1.0
    for s in range(1, k):
        coeff *= (t - s + 1) / s
        P += coeff * np.eye(k, k, s) / lam**s
    return lam**t * P


class TestMatExp:
    def test_zero_gives_identity(self):
        assert_allclose(mat_exp(np.zeros((2, 2))), I2)

    def test_diagonal(self):
        assert_allclose(mat_exp(np.diag([1.0, -1.0])), np.diag([np.e, 1.0 / np.e]), rtol=1e-14)

    def test_quarter_turn(self):
        gen = np.array([[0.0, -np.pi / 2], [np.pi / 2, 0.0]])
        assert_allclose(mat_exp(gen), [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)

    def test_derivative_matches_generator(self, rng):
        A = rng.uniform(-1, 1, (3, 3))
        h = 1e-6
        dd = (mat_exp((1 + h) * A) - mat_exp((1 - h) * A)) / (2 * h)
        assert_allclose(dd, A @ mat_exp(A), atol=1e-8)


DIAGONALISABLE_KINDS = ("positive-distinct", "complex-pair", "repeated-semisimple", "spd-product")


def diagonalisable(rng, kind, n):
    """A diagonalisable matrix with spectrum off the cut, of the named kind."""
    if kind == "spd-product":  # P1^{-1} S, the first leg of a broken arc
        return np.linalg.solve(random_spd(rng, n), random_spd(rng, n))
    if kind == "positive-distinct":
        core = np.diag(np.sort(rng.uniform(0.5, 3.0, n)))
    elif kind == "complex-pair":
        r, theta = rng.uniform(0.5, 2.0), rng.uniform(0.3, 2.8)
        rot = r * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        core = sla.block_diag(rot, np.diag(rng.uniform(0.5, 3.0, n - 2)))
    else:
        lam = rng.uniform(0.5, 3.0)
        core = np.diag([lam, lam, *rng.uniform(0.5, 3.0, n - 2)])
    G = random_invertible(rng, n)
    return G @ core @ np.linalg.inv(G)


class TestRealLogPrincipal:
    def test_identity(self):
        assert_allclose(real_log_principal(I2), np.zeros((2, 2)))

    def test_matches_block_series(self):
        assert_allclose(real_log_principal([[1.0, 1.0], [0.0, 1.0]]), [[0.0, 1.0], [0.0, 0.0]], atol=1e-14)
        for lam, k in [(1.0, 2), (2.0, 3), (0.5, 4)]:
            J = jordan_block(lam, k)
            assert_allclose(real_log_principal(J), jordan_block_log(lam, k), atol=1e-12)

    def test_near_defective_matches_divided_difference(self):
        # [[a, 1], [0, d]] has log [[log a, (log d - log a) / (d - a)], [0, log d]]
        d = 1.0 + 1e-9
        want = [[0.0, np.log1p(1e-9) / 1e-9], [0.0, np.log1p(1e-9)]]
        assert_allclose(real_log_principal([[1.0, 1.0], [0.0, d]]), want, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:logm result may be inaccurate")
    @pytest.mark.parametrize("kind", DIAGONALISABLE_KINDS)
    def test_diagonalisable_agrees_with_logm_at_every_scale(self, kind):
        rng = np.random.default_rng([11, DIAGONALISABLE_KINDS.index(kind)])
        for n in range(2, 7):
            for _ in range(6):
                A = diagonalisable(rng, kind, n) * 10.0 ** rng.uniform(-6.0, 6.0)
                L = real_log_principal(A)
                ref = sla.logm(A).real
                assert np.linalg.norm(L - ref) <= 1e-12 * np.linalg.norm(ref)
                # expm's own error grows with ||L||: expm(logm(A)) misses a flat
                # 1e-12 at scale 1e6 as well
                scale = max(1.0, np.linalg.norm(L, 2)) * np.linalg.norm(A)
                assert np.linalg.norm(sla.expm(L) - A) <= 1e-12 * scale

    # distinct eigenvalues fix the eigenbasis up to column scaling, so its
    # condition number stays near cond(G) <= 100; a repeated one does not
    @pytest.mark.parametrize("kind", ["positive-distinct", "complex-pair", "spd-product"])
    def test_well_conditioned_eigenbasis_skips_logm(self, kind, monkeypatch):
        def forbidden(A):
            raise AssertionError("logm called on a well-conditioned diagonalisable input")

        A = diagonalisable(np.random.default_rng([12, DIAGONALISABLE_KINDS.index(kind)]), kind, 4)
        want = sla.logm(A).real
        monkeypatch.setattr(sla, "logm", forbidden)
        assert_allclose(real_log_principal(A), want, rtol=1e-12, atol=1e-12 * np.linalg.norm(want))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(SpectrumOnCutError):
            real_log_principal(np.diag([-2.0, 3.0]))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            real_log_principal(np.diag([0.0, 1.0]))

    def test_round_trip_off_the_cut(self, rng):
        # exp(R) with ||R|| <= 1 keeps the spectrum well inside the log strip
        for n in (2, 3, 4, 6):
            for _ in range(10):
                R = rng.uniform(-1, 1, (n, n))
                R /= max(1.0, np.linalg.norm(R, 2))
                A = mat_exp(R)
                back = mat_exp(real_log_principal(A))
                assert np.linalg.norm(back - A) <= 1e-8 * np.linalg.norm(A)


class TestFractionalPower:
    def test_square_root(self):
        assert_allclose(fractional_power(np.diag([1.0, 4.0]), 0.5), np.diag([1.0, 2.0]), atol=1e-14)

    def test_jordan_binomial(self):
        for t in (-0.7, 0.0, 0.3, 1.0, 2.5):
            got = fractional_power([[1.0, 1.0], [0.0, 1.0]], t)
            assert_allclose(got, [[1.0, t], [0.0, 1.0]], atol=1e-12)
        for lam, k, t in [(2.0, 3, 0.5), (0.7, 4, 1.8)]:
            assert_allclose(fractional_power(jordan_block(lam, k), t), jordan_block_power(lam, k, t), atol=1e-11)

    def test_power_zero_and_one(self, rng):
        A = random_invertible(rng, 3) @ random_invertible(rng, 3).T + 3 * np.eye(3)
        assert_allclose(fractional_power(A, 0.0), np.eye(3), atol=1e-12)
        assert_allclose(fractional_power(A, 1.0), A, atol=1e-10)

    def test_power_law(self, rng):
        for _ in range(5):
            B = rng.uniform(-1, 1, (4, 4))
            A = B @ B.T + 4 * np.eye(4)
            s, t = rng.uniform(-1.5, 1.5, 2)
            lhs = fractional_power(A, s + t)
            rhs = fractional_power(A, s) @ fractional_power(A, t)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * max(1.0, np.linalg.norm(lhs))

    def test_non_positive_spectrum_rejected(self):
        with pytest.raises(SpectrumNotPositiveError):
            fractional_power(np.array([[0.0, -1.0], [1.0, 0.0]]), 0.5)


class TestSpectralProfile:
    def test_identity(self):
        prof = spectral_profile(I2)
        assert len(prof.clusters) == 1
        assert prof.clusters[0].eigenvalue == 1.0
        assert sorted(prof.clusters[0].block_sizes) == [1, 1]

    def test_jordan_block(self):
        prof = spectral_profile([[1.0, 1.0], [0.0, 1.0]])
        assert prof.clusters[0].block_sizes == (2,)

    def test_distinct_diagonal(self):
        prof = spectral_profile(np.diag([2.0, 3.0]))
        assert [(c.eigenvalue, c.block_sizes) for c in prof.clusters] == [(2.0, (1,)), (3.0, (1,))]

    def test_conjugate_clusters_mirror(self):
        M = np.array([[0.0, -2.0], [2.0, 0.0]])
        prof = spectral_profile(M)
        eigs = sorted((c.eigenvalue for c in prof.clusters), key=lambda z: z.imag)
        assert eigs[0] == eigs[1].conjugate()  # exact mirror by construction
        assert eigs[1] == pytest.approx(complex(0, 2), abs=1e-12)
        assert prof.clusters[0].block_sizes == prof.clusters[1].block_sizes == (1,)

    def test_mixed_structure(self, rng):
        # J3(2) + J1(2) + a conjugate pair, under a similarity
        core = np.zeros((6, 6))
        core[:3, :3] = jordan_block(2.0, 3)
        core[3, 3] = 2.0
        core[4:, 4:] = [[0.6, -0.8], [0.8, 0.6]]
        S = np.eye(6) + 0.2 * rng.uniform(-1, 1, (6, 6))
        prof = spectral_profile(S @ core @ np.linalg.inv(S), 1e-6)

        def cluster_near(z):
            return min(prof.clusters, key=lambda c: abs(c.eigenvalue - z))

        for target, sizes in [(2.0 + 0j, [1, 3]), (0.6 + 0.8j, [1]), (0.6 - 0.8j, [1])]:
            cluster = cluster_near(target)
            assert abs(cluster.eigenvalue - target) <= 1e-5
            assert sorted(cluster.block_sizes) == sizes

    def test_partition_invariant(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = rng.uniform(-1, 1, (n, n))
            prof = spectral_profile(A)
            assert prof.order == n
            for c in prof.clusters:
                assert sum(c.block_sizes) == c.multiplicity
                assert all(s >= 1 for s in c.block_sizes)


class TestPolar:
    def test_identity(self):
        pf = polar_decompose(I2, "left")
        assert_allclose(pf.orthogonal, I2)
        assert_allclose(pf.positive, I2)

    def test_worked_example(self):
        A = np.array([[0.0, -2.0], [3.0, 0.0]])
        pf = polar_decompose(A, "left")
        assert_allclose(pf.orthogonal, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)
        assert_allclose(pf.positive, np.diag([3.0, 2.0]), atol=1e-14)

    def test_already_orthogonal(self):
        pf = polar_decompose(np.diag([-1.0, 1.0]), "left")
        assert_allclose(pf.orthogonal, np.diag([-1.0, 1.0]), atol=1e-14)
        assert_allclose(pf.positive, I2, atol=1e-14)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_invariants(self, rng, side):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = random_invertible(rng, n)
            pf = polar_decompose(A, side)
            O, P = pf.orthogonal, pf.positive
            assert np.linalg.norm(O.T @ O - np.eye(n)) <= 1e-10
            assert np.linalg.norm(P - P.T) <= 1e-12
            assert np.linalg.eigvalsh(P).min() > 0
            assert np.linalg.norm(pf.product() - A) <= 1e-10 * max(1.0, np.linalg.norm(A))
            assert np.sign(np.linalg.det(O)) == np.sign(np.linalg.det(A))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            polar_decompose(np.zeros((2, 2)), "left")


class TestSoLog:
    def test_identity(self):
        assert_allclose(so_log(np.eye(3)), np.zeros((3, 3)))

    def test_quarter_turn(self):
        got = so_log([[0.0, -1.0], [1.0, 0.0]])
        assert_allclose(got, [[0.0, -np.pi / 2], [np.pi / 2, 0.0]], atol=1e-12)

    def test_half_turn_canonical(self):
        got = so_log(-I2)
        assert_allclose(got, [[0.0, -np.pi], [np.pi, 0.0]], atol=1e-12)

    def test_round_trip_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            O = random_special_orthogonal(rng, n)
            L = so_log(O)
            assert np.array_equal(L, -L.T)  # exact skewness by construction
            assert np.linalg.norm(mat_exp(L) - O) <= 1e-8

    def test_minus_identity_even_dimension(self):
        L = so_log(-np.eye(4))
        assert np.linalg.norm(mat_exp(L) + np.eye(4)) <= 1e-10

    def test_not_special_orthogonal(self):
        with pytest.raises(NotSpecialOrthogonalError):
            so_log(np.diag([1.0, 2.0]))
        with pytest.raises(NotSpecialOrthogonalError):
            so_log(np.diag([-1.0, 1.0]))  # orthogonal but det = -1


class TestCartanKilling:
    def test_identity_pair(self):
        assert cartan_killing(I2, I2) == 0.0

    def test_unit_pair(self):
        E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert cartan_killing(E12, E12.T) == 4.0

    def test_zero(self, rng):
        X = rng.uniform(-1, 1, (3, 3))
        assert cartan_killing(X, np.zeros((3, 3))) == 0.0

    def test_symmetric_bilinear(self, rng):
        for _ in range(10):
            X, Y, Z = (rng.uniform(-1, 1, (3, 3)) for _ in range(3))
            a = float(rng.uniform(-2, 2))
            assert cartan_killing(X, Y) == pytest.approx(cartan_killing(Y, X), abs=1e-12)
            assert cartan_killing(a * X + Z, Y) == pytest.approx(
                a * cartan_killing(X, Y) + cartan_killing(Z, Y), abs=1e-10
            )
