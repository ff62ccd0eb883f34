import json
import math
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose, assert_array_equal

from tracegeo import (
    IllConditionedError,
    NotSpecialOrthogonalError,
    SingularMatrixError,
    SpectrumNotPositiveError,
    SpectrumOnCutError,
    cartan_killing,
    classify_arc,
    fractional_power,
    mat_exp,
    polar_decompose,
    real_log_principal,
    so_log,
    spectral_profile,
    unique_arc,
)
from tracegeo import _lapack, matcore, verify
from tracegeo.matcore import EigenCluster, SpectralProfile, require_invertible
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


class TestPadeExponential:
    # 1-norms inside the bound of each Pade degree (3; 5 twice; 7 twice; 9 twice), where the
    # approximant alone meets e^A to a few roundoffs, then degree 13 after s = 0, 2, 5 and 8
    # squarings, where the error of scipy's expm, like ours, grows with the 1-norm
    NORMS = (1e-3, 0.1, 0.25, 0.6, 0.9, 1.5, 2.0, 5.0, 20.0, 100.0, 1e3)

    @staticmethod
    def operands(rng, n, norm):
        """A general matrix (up to 1-norm 100, where e^A stays finite), a skew matrix with a small
        general part, and a strictly upper-triangular (nilpotent, far from normal) one."""
        B = rng.uniform(-1, 1, (n, n))
        kinds = [B - B.T + 0.01 * B, np.triu(B, 1)] + [B] * (norm <= 100.0)
        return [norm / np.abs(A).sum(axis=0).max() * A for A in kinds]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_scipy_on_every_degree_and_scaling(self, n, rng):
        for norm in self.NORMS:
            for _ in range(10):
                for A in self.operands(rng, n, norm):
                    want = sla.expm(A)
                    err = np.linalg.norm(matcore._expm(A) - want, 1) / np.linalg.norm(want, 1)
                    assert err <= (1e-14 if norm <= 2.0 else 1e-12 * norm)

    @staticmethod
    def list_table_expm(A, left=None):
        """Reference: ``matcore._expm`` with its even powers collected in a Python list and
        stacked by ``np.reshape``: the same products in the same order, so the same bits."""
        columns = abs(A).T.tolist()
        norm = max(map(sum, columns))
        for theta, coef in matcore._PADE:
            if norm <= theta:
                break
        s = math.ceil(math.log2(norm / theta)) if norm > theta else 0
        upper = not any(any(column[j + 1:]) for j, column in enumerate(columns))
        diagonal = np.diagonal(A)
        if s:
            A = A * 2.0**-s
        n = A.shape[0]
        A2 = A @ A
        evens = [np.eye(n), A2]
        while len(evens) < coef.shape[1]:
            evens.append(evens[-1] @ A2)
        V, W = (coef @ np.reshape(evens, (-1, n * n))).reshape(2, n, n)
        U = A @ W
        E = np.linalg.solve(V - U, V + U)
        for k in range(1, s + 1):
            E = E @ E
            if upper:
                np.fill_diagonal(E, np.exp(diagonal * 2.0 ** (k - s)))
        return E if left is None else left @ E

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_in_place_power_table_keeps_every_bit(self, n, rng):
        # every Pade degree and scaling (NORMS), general, skew-like and upper-triangular operands
        for norm in self.NORMS:
            for _ in range(4):
                K = random_invertible(rng, n)
                for A in self.operands(rng, n, norm):
                    for left in (None, K):
                        assert_array_equal(matcore._expm(A, left=left), self.list_table_expm(A, left))

    def test_left_factor(self, rng):
        K, A = random_invertible(rng, 3), rng.uniform(-1, 1, (3, 3))
        assert_allclose(matcore._expm(A, left=K), K @ sla.expm(A), rtol=1e-13)

    @pytest.mark.parametrize("A", [
        np.full((3, 3), 1e308),  # the 1-norm itself is inf
        np.diag([1e308, 1.0]),  # a finite 1-norm whose squarings overflow
        np.array([[0.0, 1e308], [1e308, 0.0]]),  # cosh and sinh of 1e308
    ], ids=["inf-norm", "squarings", "hyperbolic"])
    def test_overflow_raises_without_a_warning(self, A):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match="matrix exponential overflows"):
                mat_exp(A)

    def test_underflow_is_a_finite_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_array_equal(mat_exp(np.diag([-1e308, 0.0])), np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("t", [1e3, 1e6, 1e10, 1e100, 1e300])
    def test_triangular_diagonal_does_not_drift_with_the_squarings(self, t):
        # without the diagonal reset, s = log2(t / 5.4) squarings drive a diagonal of 1 - u
        # toward 0 (0.97 at t = 1e15)
        assert_allclose(mat_exp([[0.0, t], [0.0, 0.0]]), [[1.0, t], [0.0, 1.0]], rtol=1e-15)
        assert_allclose(mat_exp([[-t, 0.0], [0.0, 0.5]]), np.diag([0.0, np.exp(0.5)]), rtol=1e-15)


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

    def test_logm_fallback_is_typed_and_silent(self, monkeypatch):
        # scipy checks logm against expm(logm A) - A: a warning there is no refusal, but an
        # estimate that overflows (ValueError), a non-finite logarithm or any other failure of
        # the call is a typed error
        logm, J = sla.logm, jordan_block(2.0, 2)  # defective: the logm route

        def inaccurate(A):
            warnings.warn("logm result may be inaccurate, approximate err = 5e-13", RuntimeWarning)
            return logm(A)

        def estimate_overflows(A):
            np.full((2, 2), 1e300) @ np.full((2, 2), 1e300)
            raise ValueError("array must not contain infs or NaNs")

        def nearly_singular(A):  # scipy's own warning category, then a bare Exception
            warnings.warn("The logm input matrix may be nearly singular.", UserWarning)
            raise Exception("R is not upper triangular")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monkeypatch.setattr(sla, "logm", inaccurate)
            assert_allclose(real_log_principal(J), jordan_block_log(2.0, 2), atol=1e-12)
            for broken in (estimate_overflows, lambda A: np.full((2, 2), np.inf)):
                monkeypatch.setattr(sla, "logm", broken)
                with pytest.raises(IllConditionedError, match="matrix logarithm overflows"):
                    real_log_principal(J)
            monkeypatch.setattr(sla, "logm", nearly_singular)
            with pytest.raises(IllConditionedError, match="matrix logarithm failed"):
                real_log_principal(J)

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


def test_eigenbasis_condition_is_the_1_norm_product(rng):
    # cond_1(V) from column sums decides the route exactly as norm(V, 1) * norm(V^-1, 1) would
    routes = []
    for _ in range(200):
        n = int(rng.integers(2, 7))
        V = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        V[:, 0] = V[:, 1] + 10 ** rng.uniform(-6, 0) * V[:, 0]  # cond from ~1 to ~1e7
        cond = np.linalg.norm(V, 1) * np.linalg.norm(np.linalg.inv(V), 1)
        basis = matcore._eigenbasis(np.ones(n), V)
        assert (basis is None) == (cond > matcore._EIGENBASIS_COND_MAX)
        routes.append(basis is None)
    assert 20 <= sum(routes) <= 180


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

    def test_one_eigensolve(self, monkeypatch):
        calls = []
        eig = _lapack.eig
        monkeypatch.setattr(_lapack, "eig", lambda A: calls.append(1) or eig(A))
        assert_allclose(fractional_power(np.diag([1.0, 4.0]), 0.5), np.diag([1.0, 2.0]), atol=1e-14)
        assert len(calls) == 1


    def test_matches_the_scipy_route(self, rng):
        # old route: expm(t log A); the error of both grows with ||t log A|| as expm's does
        for n in (2, 3, 4, 6):
            for scale in 10.0 ** np.arange(-6, 7, 2):
                B = rng.uniform(-1, 1, (n, n))
                A = scale * (B @ B.T + n * np.eye(n))
                L = real_log_principal(A)
                for t in (-2.0, -0.3, 0.5, 2.0):
                    want = sla.expm(t * L)
                    bound = 1e-12 * max(1.0, np.linalg.norm(t * L, 2)) * np.linalg.norm(want)
                    assert np.linalg.norm(fractional_power(A, t) - want) <= bound

    def test_only_a_defective_input_reaches_scipy(self, rng, monkeypatch):
        calls, logm, pade = [], sla.logm, matcore._expm
        monkeypatch.setattr(sla, "logm", lambda A: calls.append("logm") or logm(A))
        monkeypatch.setattr(matcore, "_expm", lambda A: calls.append("expm") or pade(A))
        B = rng.uniform(-1, 1, (3, 3))
        fractional_power(B @ B.T + 3 * np.eye(3), 0.5)
        assert calls == []
        fractional_power(jordan_block(2.0, 3), 0.5)
        assert calls == ["logm", "expm"]  # scipy's logarithm, then the Pade exponential

    def test_the_fallback_decides_once(self, monkeypatch):
        # the rejected eigenbasis is not rebuilt for the logarithm: one inverse of V in all
        calls, inv = [], _lapack.inv
        monkeypatch.setattr(_lapack, "inv", lambda A: calls.append(1) or inv(A))
        assert_allclose(fractional_power([[2.0, 1.0], [0.0, 2.0]], 0.5),
                        jordan_block_power(2.0, 2, 0.5), atol=1e-12)
        assert len(calls) == 1

    def test_complex_pair_near_the_axis_gives_a_real_power(self):
        A = np.array([[2.0, -1e-10], [1e-10, 2.0]])  # eigenvalues 2 +- 1e-10 i count as positive
        P = fractional_power(A, 0.5)
        assert P.dtype == np.float64
        assert_allclose(P, sla.sqrtm(A).real, rtol=1e-14)

    def test_overflow_raises_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match="overflows"):
                fractional_power(np.diag([1e10, 1.0]), 40.0)


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

    def test_a_pair_outside_the_clustering_cut_is_not_real(self):
        # 3 +- 2.9e-8 i is 11.6 clustering cuts wide at ||M||_2 = 5: a conjugate pair, not two
        # real clusters at 3, whatever |Im| is against |3|
        prof = spectral_profile(sla.block_diag([[3.0, -2.9e-8], [2.9e-8, 3.0]], 5.0))
        low, high, five = prof.clusters
        assert [c.is_real for c in prof.clusters] == [False, False, True]
        assert low.eigenvalue == high.eigenvalue.conjugate()
        assert high.eigenvalue == pytest.approx(3.0 + 2.9e-8j, abs=1e-20)
        assert five.eigenvalue == 5.0
        assert low.block_sizes == high.block_sizes == five.block_sizes == (1,)

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

    def test_one_eigendecomposition(self, monkeypatch):
        # the spectrum comes from eig, as classify_arc's does: no second eigensolver
        calls, eig = [], _lapack.eig
        monkeypatch.setattr(_lapack, "eig", lambda A: calls.append(A) or eig(A))
        A = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
        assert spectral_profile(A) == SpectralProfile(
            (EigenCluster(-1.0 + 0j, (1,)), EigenCluster(2.0 + 0j, (2,))), 1e-8)
        assert len(calls) == 1
        assert_array_equal(calls[0], A)
        assert not hasattr(_lapack, "eigvals")

    def test_a_cluster_whose_eigenvalues_sum_past_the_float_range_has_a_finite_mean(self):
        # 1e308 + 1e308 overflows; the mean sums each eigenvalue halved instead
        prof = spectral_profile(1e308 * np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert prof == SpectralProfile((EigenCluster(1e308 + 0j, (2,)),), 1e-8)

    def test_a_finite_sum_keeps_the_plain_mean(self):
        lams = [1.955, 2.366, 0.282]  # the two sums differ in the last bit here
        assert matcore._mean(lams) == complex(sum(lams) / 3) != complex(sum(x / 3 for x in lams))

    @pytest.mark.parametrize("rest", [[[-0.9e308, -0.1e308], [0.1e308, -0.9e308]], [[-1e308]]],
                             ids=["complex-pair", "negative"])
    def test_a_staircase_shift_past_the_float_range_reads_the_block(self, rest):
        # A - 1e308 I overflows on the far eigenvalues; the staircase halves both terms instead,
        # and reads the Jordan block that the 1e-300 scaled copy reads, with no warning
        A = sla.block_diag(1e308 * jordan_block(1.0, 2), rest)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sizes = [c.block_sizes for c in spectral_profile(A).clusters]
            assert sizes == [c.block_sizes for c in spectral_profile(1e-300 * A).clusters]
            assert sizes[-1] == (2,)
            if len(rest) == 1:  # an unpaired negative block: no arc
                assert classify_arc(np.eye(3), A).verdict.value == "no-arc"

    def test_a_staircase_shift_that_overflows_when_halved_is_ill_conditioned(self):
        # only a shift past the float range does, and _spectrum refuses those before any staircase
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditionedError, match="^kernel staircase overflows"):
                matcore._kernel_staircase(np.diag([1e308, -1e308]), complex(math.inf), 2, 1e-8)

    @pytest.mark.parametrize("A", [np.full((2, 2), 1e308), [[1.5e308, 1e308], [1e308, 1.5e308]]],
                             ids=["norm-2e308", "norm-2.5e308"])
    def test_a_spectrum_past_the_float_range_is_ill_conditioned(self, A):
        with pytest.raises(IllConditionedError, match="^spectrum overflows the float range$"):
            spectral_profile(A)


def three_pass_profile(A, eigs, norm2, tol):
    """Reference pairing: real clusters, then each upper cluster with its nearest unpaired
    lower cluster within max(cut, 1e-12 max(1, |conj|)), then a pass over the leftovers."""
    thresh = tol * max(1.0, norm2)
    reps = [(lam, len(members)) for lam, members in matcore._clusters(eigs, norm2, tol)[0]]
    clusters = []
    done = [False] * len(reps)
    for i, (lam, mult) in enumerate(reps):
        if lam.imag == 0.0:
            clusters.append(EigenCluster(lam, matcore._block_sizes(A, lam, mult, tol)[0]))
            done[i] = True
    for i, (lam, mult) in enumerate(reps):
        if done[i] or lam.imag < 0:
            continue
        sizes = matcore._block_sizes(A, lam, mult, tol)[0]
        clusters.append(EigenCluster(lam, sizes))
        done[i] = True
        conj = lam.conjugate()
        j = min(
            (k for k in range(len(reps)) if not done[k] and reps[k][0].imag < 0),
            key=lambda k: abs(reps[k][0] - conj),
            default=None,
        )
        if j is not None and abs(reps[j][0] - conj) <= max(thresh, 1e-12 * max(1.0, abs(conj))):
            clusters.append(EigenCluster(conj, sizes))
            done[j] = True
    for i, (lam, mult) in enumerate(reps):
        if not done[i]:
            clusters.append(EigenCluster(lam, matcore._block_sizes(A, lam, mult, tol)[0]))
    clusters.sort(key=lambda c: (c.eigenvalue.real, c.eigenvalue.imag))
    return SpectralProfile(tuple(clusters), float(tol))


def conjugate_pair_core(rng, n):
    """A real n x n core of rotation-scale blocks (simple, repeated, defective and near the
    real axis) filled up with real eigenvalues and real Jordan blocks."""
    blocks = []
    while (room := n - sum(b.shape[0] for b in blocks)) > 0:
        kinds = ["real"] + ["pair", "near-axis", "real-jordan"] * (room >= 2)
        kinds += ["repeated-pair", "defective-pair"] * (room >= 4)
        kind = kinds[rng.integers(len(kinds))]
        a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
        b = float(rng.uniform(0.2, 2.0))
        if kind == "near-axis":
            b = abs(a) * 10.0 ** rng.uniform(-12, -5)
        R = np.array([[a, -b], [b, a]])
        if kind == "real":
            blocks.append(np.array([[a]]))
        elif kind == "real-jordan":
            blocks.append(jordan_block(a, 2))
        elif kind in ("pair", "near-axis"):
            blocks.append(R)
        elif kind == "repeated-pair":
            blocks.append(sla.block_diag(R, R))
        else:
            blocks.append(np.block([[R, np.eye(2)], [np.zeros((2, 2)), R]]))
    return sla.block_diag(*blocks)


def test_mirrored_clusters_match_the_three_pass_pairing():
    rng = np.random.default_rng(7)
    with_pairs = 0
    for _ in range(150):
        n = int(rng.integers(2, 7))
        S = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
        A = 10.0 ** rng.uniform(-8, 8) * (S @ conjugate_pair_core(rng, n) @ np.linalg.inv(S))
        eigs, norm2 = np.linalg.eigvals(A), float(np.linalg.norm(A, 2))
        for tol in (1e-10, 1e-8, 1e-6):
            got = matcore._profile_pass(A, eigs, norm2, tol)[0]
            want = three_pass_profile(A, eigs, norm2, tol)

            def bits(profile):
                return [(c.eigenvalue.real.hex(), c.eigenvalue.imag.hex(), c.block_sizes)
                        for c in profile.clusters]

            assert bits(got) == bits(want)
            with_pairs += bool(got.non_real())
    assert with_pairs >= 150


def connected_components(vals, cut):
    """Index lists of the connected components of the graph joining values within ``cut``."""
    label = list(range(len(vals)))  # each index ends labelled by the smallest index it reaches
    changed = True
    while changed:
        changed = False
        for i, a in enumerate(vals):
            for j, b in enumerate(vals):
                if abs(a - b) <= cut and label[j] < label[i]:
                    label[i], changed = label[j], True
    return [[i for i in range(len(vals)) if label[i] == root] for root in sorted(set(label))]


def connected_components_means(eigs, norm2, tol):
    """Brute-force reference for _clusters: the connected components of the graph that joins
    eigenvalues within tol * max(1, norm2), each mean summed in index order, with its members."""
    vals = eigs.tolist()
    return [(complex(sum(vals[i] for i in members) / len(members)), tuple(members))
            for members in connected_components(vals, tol * max(1.0, norm2))]


def snapped_profile(A, eigs, norm2, tol):
    """Reference: the profile under the second real-axis cut it once had, which moved each cluster
    mean within tol * max(1, |mean|) of the axis onto it; block sizes as in _profile_pass."""
    reps = [(complex(lam.real, 0.0) if matcore._on_real_axis(lam, tol) else lam, len(members))
            for lam, members in matcore._clusters(eigs, norm2, tol)[0]]
    upper = {lam: matcore._block_sizes(A, lam, mult, tol)[0] for lam, mult in reps if lam.imag > 0}
    clusters = [EigenCluster(lam, upper.get(complex(lam.real, abs(lam.imag)))
                             or matcore._block_sizes(A, lam, mult, tol)[0]) for lam, mult in reps]
    clusters.sort(key=lambda c: (c.eigenvalue.real, c.eigenvalue.imag))
    return SpectralProfile(tuple(clusters), float(tol))


def test_the_clustering_cut_alone_decides_which_clusters_are_real():
    rng = np.random.default_rng(7)
    compared = duplicated = 0
    for _ in range(300):
        n = int(rng.integers(2, 7))
        S = np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
        A = 10.0 ** rng.uniform(-8, 8) * (S @ conjugate_pair_core(rng, n) @ np.linalg.inv(S))
        eigs, norm2 = np.linalg.eigvals(A), float(np.linalg.norm(A, 2))
        vals = eigs.tolist()
        for tol in (1e-10, 1e-8, 1e-6):
            got = matcore._profile_pass(A, eigs, norm2, tol)[0]
            means = [c.eigenvalue for c in got.clusters]
            assert len(set(means)) == len(means)
            # the real clusters are the self-conjugate components, each mean exactly on the axis
            self_conjugate = sorted(
                complex(sum(vals[i] for i in c) / len(c)).real
                for c in connected_components(vals, tol * max(1.0, norm2))
                if Counter(vals[i] for i in c) == Counter(vals[i].conjugate() for i in c))
            assert sorted(lam.real for lam in means if lam.imag == 0.0) == self_conjugate
            want = snapped_profile(A, eigs, norm2, tol)
            if len({c.eigenvalue for c in want.clusters}) < len(want.clusters):
                duplicated += 1  # two halves of one pair snapped onto the same real mean
            else:
                assert got == want
                compared += 1
    assert compared >= 850 and duplicated >= 10


def clustered_points(rng, cut):
    """Eigenvalue-like points around a few centres: transitive chains with steps just inside the
    cut, a pair just outside it, a late bridge between two earlier clusters, coincident points,
    and each non-real point followed by its conjugate, as ``np.linalg.eig`` returns them."""
    points = []
    for _ in range(int(rng.integers(1, 4))):
        centre = complex(rng.uniform(-3, 3), rng.choice([0.0, rng.uniform(0.1, 3)]))
        direction = np.exp(1j * rng.uniform(0, 2 * np.pi))
        shape = rng.choice(["chain", "split", "bridge", "coincident"])
        if shape == "chain":  # a ~ b ~ c with a, c apart: one cluster
            steps = [0.0, 0.9, 1.8]
        elif shape == "split":  # two clusters
            steps = [0.0, 1.1]
        elif shape == "bridge":  # two clusters until the last point joins them
            steps = [0.0, 1.2, 0.6]
        else:
            steps = [0.0, 0.0, 0.5]
        group = [centre + s * cut * direction for s in steps]
        if shape != "bridge":
            group = [group[k] for k in rng.permutation(len(group))]
        for z in group:
            points += [z, z.conjugate()] if z.imag else [z]
    return np.array(points)


def bits(reps):
    return sorted((lam.real.hex(), lam.imag.hex(), members) for lam, members in reps)


def test_merge_loop_matches_connected_components():
    rng = np.random.default_rng(11)
    merged = 0
    for _ in range(300):
        norm2 = 10.0 ** rng.uniform(-2, 4)
        tol = 10.0 ** rng.uniform(-10, -4)
        eigs = clustered_points(rng, tol * max(1.0, norm2))
        if not np.iscomplex(eigs).any():
            eigs = eigs.real  # eig of a real spectrum returns a float array
        got = matcore._clusters(eigs, norm2, tol)[0]
        assert bits(got) == bits(connected_components_means(eigs, norm2, tol))
        assert sum(len(members) for _, members in got) == len(eigs)
        upper = {lam for lam, _ in got if lam.imag > 0}
        assert {lam.conjugate() for lam, _ in got if lam.imag < 0} == upper  # exact mirrors
        merged += any(len(members) > 1 for _, members in got)
    assert merged >= 250


@pytest.mark.parametrize("steps, sizes", [
    ([0.0, 0.9, 1.8], [3]),  # transitive chain
    ([0.0, 1.8, 0.9], [3]),  # the last point bridges two clusters
    ([0.0, 1.1], [1, 1]),
    ([0.0, 0.0, 5.0], [1, 2]),  # coincident points
])
def test_single_linkage_on_the_real_line(steps, sizes):
    eigs = 2.0 + 1e-8 * np.array(steps)
    reps = matcore._clusters(eigs, 1.0, 1e-8)[0]
    assert sorted(len(members) for _, members in reps) == sizes
    assert all(lam.imag == 0.0 for lam, _ in reps)


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

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_subnormal_input_keeps_its_positive_factor(self, side):
        # the smallest subnormal passes the singular cut (ratio 1); mirroring a triangle keeps it
        tiny = 5e-324 * I2
        pf = polar_decompose(tiny, side)
        assert np.array_equal(pf.positive, tiny)
        assert np.array_equal(pf.product(), tiny)

    def test_require_invertible_cuts_a_stack(self):
        # one batched SVD; a stack is refused when any one member is singular
        good = np.stack([I2, np.diag([1.0, 1.1e-13])])
        require_invertible(good, "P")
        with pytest.raises(SingularMatrixError, match="P is numerically singular"):
            require_invertible(np.concatenate([good, [np.diag([1.0, 0.9e-13])]]), "P")

    def test_same_singular_cut_as_require_invertible(self):
        # the cut sits at sigma_min = 1e-13 sigma_max
        below, above = np.diag([1.0, 0.9e-13]), np.diag([1.0, 1.1e-13])
        for side in ("left", "right"):
            with pytest.raises(SingularMatrixError, match="polar decomposition"):
                polar_decompose(below, side)
            assert polar_decompose(above, side).positive[1, 1] == pytest.approx(1.1e-13)
        with pytest.raises(SingularMatrixError, match="numerically singular"):
            require_invertible(below)
        require_invertible(above)

    @pytest.mark.parametrize("c", [1e-300, 1e-14, 1.0, 1e300])
    def test_singular_cut_does_not_move_with_the_scale(self, c, rng):
        # cK is invertible exactly when K is: the cut reads sigma_min / sigma_max alone
        K = random_invertible(rng, 3)
        require_invertible(c * K)
        for side in ("left", "right"):
            pf = polar_decompose(c * K, side)
            assert np.linalg.norm(pf.product() / c - K) <= 1e-12 * np.linalg.norm(K)
        below = c * np.diag([1.0, 0.9e-13])
        with pytest.raises(SingularMatrixError, match="numerically singular"):
            require_invertible(below)
        for side in ("left", "right"):
            with pytest.raises(SingularMatrixError, match="polar decomposition"):
                polar_decompose(below, side)


class _Forgetful(list):
    """A memo slot that keeps nothing written to it: the singular cut with its memo off."""

    def __setitem__(self, index, value):
        pass


class TestSingularCutMemo:
    @pytest.fixture
    def svds(self, monkeypatch):
        svd, seen = _lapack.svd, []
        monkeypatch.setattr(_lapack, "svd", lambda a, *args, **kw: seen.append(a) or svd(a, *args, **kw))
        return seen

    def test_a_second_cut_of_equal_bytes_runs_no_svd(self, rng, svds):
        K, L = random_invertible(rng, 3), random_invertible(rng, 3)
        svds.clear()
        require_invertible(K, "K")
        require_invertible(K.copy(), "K")  # another array, the same bytes
        require_invertible(K.tolist(), "K")  # an array-like, as the cut takes one
        assert len(svds) == 1
        require_invertible(L, "L")
        require_invertible(K, "K")  # one entry: the matrix passed in between displaced K
        assert len(svds) == 3

    def test_a_passed_matrix_mutated_in_place_to_singular_is_refused(self, rng):
        K = random_invertible(rng, 3)
        require_invertible(K, "K")
        K[2] = K[0] + K[1]
        with pytest.raises(SingularMatrixError, match="K is numerically singular"):
            require_invertible(K, "K")

    def test_equal_bytes_of_another_dtype_or_shape_are_cut_afresh(self, svds):
        K = np.diag([1.0, 2.0, 3.0, 4.0])
        require_invertible(K)
        for other in (K.reshape(2, 8), K.view(np.int64), K.view(np.complex128).reshape(4, 2)):
            assert other.tobytes() == K.tobytes()
            require_invertible(other)
        assert len(svds) == 4
        require_invertible(K)  # the last pass was of another shape
        assert len(svds) == 5

    def test_a_singular_matrix_raises_on_every_call_and_is_never_remembered(self, rng, svds):
        K, S = random_invertible(rng, 2), np.diag([1.0, 0.9e-13])
        svds.clear()
        require_invertible(K)
        for _ in range(3):
            with pytest.raises(SingularMatrixError):
                require_invertible(S)
        assert len(svds) == 4
        require_invertible(K)  # still the entry: a refusal displaces nothing
        assert len(svds) == 4

    def test_a_stack_is_always_cut(self, rng, svds):
        P = np.stack([random_invertible(rng, 2), I2])
        svds.clear()
        for _ in range(3):
            require_invertible(P, "P")
        assert len(svds) == 3
        require_invertible(I2)
        require_invertible(I2)  # a stack is never remembered, but a matrix of it is cut as any other
        assert len(svds) == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_verify_reports_are_identical_with_the_memo_off(self, n, monkeypatch, svds):
        # at tol_assert = 0 nearly every check fails and its report carries the value computed
        def reports():
            return [verify.run_suite(suite, n, seed, 4, tol_assert=0.0)
                    for suite in verify.SUITES for seed in range(5)]

        on = reports()
        with_memo = len(svds)
        monkeypatch.setattr(matcore, "_passed", _Forgetful([None]))
        off = reports()
        assert len(svds) - with_memo > with_memo  # the memo was in play, and off means off
        assert json.dumps(on) == json.dumps(off)


def schur_so_log(O):
    """Reference skew log: angles read off the real Schur form, -1 pairs mapped to pi."""
    n = O.shape[0]
    T, Z = sla.schur(O, output="real")
    S = np.zeros((n, n))
    minus_ones = []
    i = 0
    while i < n:
        if i + 1 < n and abs(T[i + 1, i]) > 1e-12:
            theta = np.arctan2(T[i + 1, i], T[i, i])
            S[i, i + 1], S[i + 1, i] = -theta, theta
            i += 2
        else:
            if T[i, i] < 0:
                minus_ones.append(i)
            i += 1
    for a, b in zip(minus_ones[0::2], minus_ones[1::2]):
        S[a, b], S[b, a] = -np.pi, np.pi
    return Z @ S @ Z.T


def planar_rotation(Q, angles):
    """Q diag(R(angle_1), ..., R(angle_k), 1, ...) Q^T for orthogonal Q."""
    B = np.eye(Q.shape[0])
    for k, theta in enumerate(angles):
        c, s = np.cos(theta), np.sin(theta)
        B[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, -s], [s, c]]
    return Q @ B @ Q.T


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

    def assert_matches_schur(self, O):
        L = so_log(O)
        want = schur_so_log(O)
        assert np.array_equal(L, -L.T)
        assert np.linalg.norm(L - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(mat_exp(L) - O) <= 1e-12 * np.linalg.norm(O)

    def count_schur_calls(self, monkeypatch):
        calls = []
        schur = sla.schur
        monkeypatch.setattr(sla, "schur", lambda *a, **k: calls.append(1) or schur(*a, **k))
        return calls

    def test_agrees_with_schur_route(self, rng, monkeypatch):
        calls = self.count_schur_calls(monkeypatch)
        for n in range(2, 7):
            for _ in range(20):
                self.assert_matches_schur(random_special_orthogonal(rng, n))
        assert len(calls) == 100  # the references' own calls only

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_near_half_turn(self, rng, n, monkeypatch):
        calls = self.count_schur_calls(monkeypatch)
        others = list(rng.uniform(-3.0, 3.0, n // 2 - 1))
        Q = random_special_orthogonal(rng, n)
        # an angle 1e-6 short of pi sits outside tol of the cut: eigendecomposition route
        self.assert_matches_schur(planar_rotation(Q, [np.pi - 1e-6, *others]))
        assert len(calls) == 1
        # 1e-9 short of pi is on the cut within tol: the Schur route
        self.assert_matches_schur(planar_rotation(Q, [np.pi - 1e-9, *others]))
        assert len(calls) == 3

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-13])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_near_half_turn_route_ignores_tol(self, n, tol, monkeypatch):
        # tol only bounds the orthogonality defect: 1e-11 and 1e-12 short of pi take the Schur
        # route at every tol (an eigenbasis chosen by a 1e-13 cut lost 3.4e-7 of these angles)
        calls = self.count_schur_calls(monkeypatch)
        rng = np.random.default_rng([7, n])
        Q = random_special_orthogonal(rng, n)
        others = list(rng.uniform(-3.0, 3.0, n // 2 - 1))
        for short in (1e-11, 1e-12):
            O = planar_rotation(Q, [np.pi - short, *others])
            L, want = so_log(O, tol), schur_so_log(O)
            assert np.array_equal(L, -L.T)
            assert np.linalg.norm(L - want) <= 1e-12 * np.linalg.norm(want)
        assert len(calls) == 4  # one per so_log, one per reference

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_minus_one_pairs(self, rng, n):
        Q = random_special_orthogonal(rng, n)
        self.assert_matches_schur(planar_rotation(Q, [np.pi] * (n // 2)))
        self.assert_matches_schur(planar_rotation(Q, [np.pi, *rng.uniform(-3.0, 3.0, n // 2 - 1)]))

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


_TOL_TAKERS = {
    "spectral_profile": lambda tol: spectral_profile(np.diag([2.0, 3.0]), tol),
    "classify_arc": lambda tol: classify_arc(I2, np.diag([2.0, 3.0]), tol),
    "unique_arc": lambda tol: unique_arc(I2, np.diag([2.0, 3.0]), tol),
    "real_log_principal": lambda tol: real_log_principal(np.diag([2.0, 3.0]), tol),
    "fractional_power": lambda tol: fractional_power(np.diag([2.0, 3.0]), 0.5, tol),
    "so_log": lambda tol: so_log(np.diag([1.0, 2.0]), tol),  # not orthogonal: a nan tol admitted it
}


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf, None])
@pytest.mark.parametrize("name", list(_TOL_TAKERS))
def test_tol_must_be_a_positive_finite_number(name, tol):
    with pytest.raises(ValueError, match="^tol must be a positive finite number"):
        _TOL_TAKERS[name](tol)


# ---------------------------------------------------------------------------
# L0 kernels: tracegeo._lapack against numpy.linalg
# ---------------------------------------------------------------------------


_LAPACK_NAMES = ("svd", "solve", "inv", "qr", "eig", "eigh", "eigvalsh", "det", "slogdet")
_COMPLEX_KERNELS = ("inv", "svd")  # a complex eigenbasis; a complex cluster's staircase powers


def _assert_same_result(got, want):
    """Equal types, dtypes, shapes and bytes, part by part; numpy's named tuples compare as
    tuples."""
    got, want = (got, tuple(want)) if isinstance(want, tuple) else ((got,), (want,))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (type(g), g.dtype, g.shape) == (type(w), w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def _kernel_operands(rng, name):
    """Seeded square operands, n = 1..6, one matrix and a stack of three: real of mixed spectrum,
    real symmetric (a real spectrum) and real scaled by 1e200, near the top of the float range;
    for the kernels that take complex operands, also complex and Hermitian."""
    for n in range(1, 7):
        for shape in ((n, n), (3, n, n)):
            real = rng.standard_normal(shape)
            cplx = real + 1j * rng.standard_normal(shape)
            yield real
            yield real + np.swapaxes(real, -1, -2)
            yield 1e200 * real
            if name in _COMPLEX_KERNELS:
                yield cplx
                yield cplx + np.conj(np.swapaxes(cplx, -1, -2))


class TestLapackKernels:
    """Each kernel returns the bytes of its np.linalg namesake on the operands the library gives
    it and raises its LinAlgError: a numpy that changes its gufuncs fails here, not in a distant
    tolerance."""

    @pytest.mark.parametrize("name", ["inv", "eig", "eigh", "eigvalsh", "det", "slogdet"])
    def test_one_operand_kernels_match_numpy(self, name, rng):
        for a in _kernel_operands(rng, name):
            with np.errstate(over="ignore"):  # det and slogdet run bare: 1e200^n overflows
                _assert_same_result(getattr(_lapack, name)(a), getattr(np.linalg, name)(a))

    def test_svd_matches_numpy(self, rng):
        for a in _kernel_operands(rng, "svd"):
            for b in (a, a[..., :-1], np.swapaxes(a, -1, -2)[..., :-1]):  # square and both oblongs
                if b.size:
                    _assert_same_result(_lapack.svd(b), np.linalg.svd(b))
                    _assert_same_result(_lapack.svd(b, compute_uv=False),
                                        np.linalg.svd(b, compute_uv=False))

    def test_solve_matches_numpy(self, rng):
        # right-hand sides: a matrix or stack of a's shape, an oblong matrix, a list of two
        for a in _kernel_operands(rng, "solve"):
            n = a.shape[-1]
            for b in (rng.standard_normal(a.shape), rng.standard_normal((n, 2)),
                      [rng.standard_normal(a.shape), rng.standard_normal(a.shape)]):
                _assert_same_result(_lapack.solve(a, b), np.linalg.solve(a, b))

    def test_qr_matches_numpy_and_leaves_its_operand(self, rng):
        # square and tall, at unit scale and at 1e200 and 1e-200
        for a in _kernel_operands(rng, "qr"):
            for b in (a, a[..., :-1]) if a.shape[-1] > 1 else (a,):
                for c in (b, 1e-200 * b):
                    before = c.copy()
                    _assert_same_result(_lapack.qr(c), np.linalg.qr(c))
                    assert_array_equal(c, before)

    def test_norm_matches_numpy(self, rng):
        # numpy's bits as a Python float: vectors, matrices, stacks, strided and transposed views,
        # zeros, and entries at 1e+-200, where the squares overflow (both warn) or underflow
        for shape in ((1,), (7,), (1, 1), (3, 3), (6, 6), (2, 6), (4, 3, 3), (2, 3, 6, 6)):
            a = rng.standard_normal(shape)
            for b in (a, a.T, a[..., ::2], np.zeros(shape), 1e200 * a, 1e-200 * a):
                with np.errstate(over="ignore"):
                    got, want = _lapack.norm(b), np.linalg.norm(b)
                assert type(got) is float and got.hex() == float(want).hex()

    @pytest.mark.parametrize("name", ["solve", "qr", "eig", "eigh", "eigvalsh", "det", "slogdet",
                                      "norm"])
    def test_a_float_kernel_refuses_a_complex_operand(self, name):
        # no silent cast: a complex operand is a TypeError (numpy's UFuncTypeError, or astype's)
        A = np.eye(3) + 1j * np.eye(3, k=1)
        for args in ((A, np.eye(3)), (np.eye(3), A)) if name == "solve" else ((A,),):
            with pytest.raises(TypeError):
                getattr(_lapack, name)(*args)

    @staticmethod
    def _assert_same_refusal(name, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError) as want:
                getattr(np.linalg, name)(*args)
            with pytest.raises(np.linalg.LinAlgError) as got:
                getattr(_lapack, name)(*args)
        assert str(got.value) == str(want.value)
        return str(got.value)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_an_exactly_singular_matrix_is_refused_as_numpy_refuses_it(self, dtype):
        for n in range(1, 7):
            S = np.ones((n, n), dtype=dtype) if n > 1 else np.zeros((1, 1), dtype=dtype)
            assert self._assert_same_refusal("inv", S) == "Singular matrix"
            if dtype is float:
                assert self._assert_same_refusal("solve", S, np.eye(n)) == "Singular matrix"

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_operand_is_refused_as_numpy_refuses_it(self, bad):
        for n in range(1, 7):
            for A in (np.eye(n), np.full((2, n, n), 1e200)):
                A[..., -1, 0] = bad
                assert self._assert_same_refusal("eig", A) == "Array must not contain infs or NaNs"

    def test_lapack_failures_raise_numpys_messages(self):
        nan = np.full((3, 3), np.nan)
        assert self._assert_same_refusal("svd", nan) == "SVD did not converge"
        assert self._assert_same_refusal("svd", nan, False) == "SVD did not converge"
        assert self._assert_same_refusal("eigh", nan) == "Eigenvalues did not converge"
        assert self._assert_same_refusal("eigvalsh", nan) == "Eigenvalues did not converge"


def _finiteness_cases():
    """Operands with a NaN, +inf or -inf at each position, or in the imaginary part; empty
    arrays; 0-d arrays and numpy scalars; tuples of same-shape arrays."""
    for bad in (np.nan, np.inf, -np.inf):
        for shape in ((3,), (2, 3), (2, 2, 3)):
            for k in range(math.prod(shape)):
                a = np.ones(shape)
                a.flat[k] = bad
                yield a
        yield np.array(bad)
        yield np.float64(bad)
        yield np.array([1.0, complex(2.0, bad), 3.0])
        yield np.ones((2, 2)), np.full((2, 2), bad)
    yield from (np.ones(0), np.ones((0, 3)), np.ones((2, 0, 2)), np.array(1.0), np.float64(2.0),
                np.ones(3, dtype=complex), (np.ones((2, 2)), np.zeros((2, 2))), np.zeros((4, 4)))


def test_all_finite_equals_the_reduction():
    for a in _finiteness_cases():
        assert _lapack.all_finite(a) == np.isfinite(a).all()


def _representative_calls(rng):
    """One pass over the library: every arc class of classify_arc, broken_arc, every fields op of
    the benchmark's pool, the matcore functions and run_suite of each verify suite."""
    import tracegeo as tg

    n = 3
    K, X, Y, Z, W = random_invertible(rng, n), *rng.uniform(-1, 1, (4, n, n))
    S, P = random_spd(rng, n), verify.random_unimodular(rng, n)
    Q = K @ K  # a positive determinant
    cores = [random_spd(rng, n), np.diag([0.5, 1.5, 3.0]), np.diag([-2.0, -2.0, 3.0]),
             np.diag([2.0, 2.0, 3.0]), np.diag([-2.0, 3.0, 4.0]),
             np.array([[1.0, -2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]])]
    for core in cores:
        K0 = random_invertible(rng, n)
        tg.classify_arc(K0, K0 @ core)
    J = np.kron(np.eye(2), [[-1.0, 1.0], [0.0, -1.0]])  # J2(-1)^2, exactly: the chains route
    tg.classify_arc(2.0 * np.eye(4), 2.0 * J)
    tg.unique_arc(K, K @ S)
    tg.broken_arc(S, Q)
    for kind in tg.metricspace.ISOMETRY_KINDS:
        iso = tg.Isometry(kind, K if kind in ("left-translate", "right-translate", "conjugate",
                                              "congruence", "point-symmetry") else None)
        tg.apply_isometry(iso, S)
        tg.pushforward(iso, S, X)
    geo = tg.geodesic_from_velocity(K, X)
    geo.point(0.5)
    tg.Geodesic(K, np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])).point(0.5)  # Pade
    tg.spd_geodesic(S, S, 0.5)
    tg.nabla(K, X, Y, Z)
    tg.curve_residual(geo.point, 0.3)
    tg.trace_metric(K, X, Y)
    tg.gram_matrix(K)
    tg.signature_at(K)
    tg.riemann_13(K, X, Y, Z)
    tg.riemann_04(K, X, Y, Z, W)
    tg.sectional(K, X, Y)
    tg.ricci(K, X, Y)
    tg.ricci_trace_oracle(K, X, Y)
    tg.scalar_curvature(K)
    tg.orthonormal_frame(K)
    tg.christoffel_closed(S)
    tg.christoffel_fd(S)
    tg.sl_einstein_check(P, *(tg.sl_tangent_project(P, V) for V in (X, Y)))
    tg.leaf_of(Q)
    tg.leaf_base_point(2.0, n)
    point = tg.product_inverse(Q)
    tg.product_forward(point)
    tg.ProductPoint(np.diag([1e5, 1e-5, 1.0]), 0.0)  # a large norm: the SVD test of det = 1
    tg.product_pushforward(point, tg.sl_tangent_project(point.sl_part, X), 0.5)
    tg.mat_exp(X)
    tg.real_log_principal(S)
    tg.fractional_power(S, 0.5)
    tg.fractional_power(np.array([[1.0, 1.0], [0.0, 1.0]]), 0.5)  # defective: the logm fallback
    tg.spectral_profile(X)
    tg.polar_decompose(K)
    tg.so_log(random_special_orthogonal(rng, n))
    tg.so_log(np.diag([-1.0, -1.0, 1.0]))  # a half turn: the Schur route
    for suite in verify.SUITES:
        verify.run_suite(suite, n, 7, 2)


def test_the_library_calls_no_numpy_linalg_lapack_function(monkeypatch):
    # every factorisation and norm goes through tracegeo._lapack, and every spectrum through its eig
    calls = []
    for name in (*_LAPACK_NAMES, "eigvals", "norm"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *args, name=name, fn=fn, **kw: calls.append(name) or fn(*args, **kw))
    _representative_calls(np.random.default_rng(5))
    assert calls == []


def test_the_representative_calls_reach_every_qr_caller(monkeypatch):
    # a semisimple negative cluster's turn, a Jordan chain's complement and verify's rotations
    callers, qr = set(), _lapack.qr
    monkeypatch.setattr(_lapack, "qr",
                        lambda a: callers.add(sys._getframe(1).f_code.co_name) or qr(a))
    _representative_calls(np.random.default_rng(5))
    assert callers == {"_semisimple_log", "_pick_complement", "random_special_orthogonal"}


def test_valid_pointwise_calls_run_no_numpy_reduction():
    # ndarray.all/any/max/sum run the Python of numpy/_core/_methods.py; the finiteness tests,
    # the singular cut and the overflow guard of a valid call count in C instead
    import tracegeo as tg

    rng = np.random.default_rng(3)
    K, V, W, C = random_invertible(rng, 3), *rng.uniform(-1, 1, (3, 3, 3))
    geo = tg.geodesic_from_velocity(K, C)
    geo.point(0.1)  # builds the eigenbasis, whose 1-norms are reductions
    calls = [lambda: matcore.as_squares(A=K, V=V, W=W), lambda: tg.trace_metric(K, V, W),
             lambda: geo.point(0.5)]
    for iso in (tg.left_translate(K), tg.transposition(), tg.inversion(), tg.point_symmetry(K)):
        calls += [lambda iso=iso: tg.apply_isometry(iso, W),
                  lambda iso=iso: tg.pushforward(iso, K, V)]
    entered = []
    sys.setprofile(lambda frame, event, arg: event == "call" and entered.append(frame.f_code))
    try:
        for call in calls:
            call()
    finally:
        sys.setprofile(None)
    files = {code.co_filename.replace("\\", "/") for code in entered}
    assert any(f.endswith("tracegeo/matcore.py") for f in files)
    assert [f for f in files if f.endswith("numpy/_core/_methods.py")] == []
