"""The operand contract and the left-trivialised L1 formulas.

Every pointwise function validates its operands once, through
``matcore.as_point_and_tangents`` or ``matcore.as_squares``, and reads its
tangents through bV = K^{-1} V from one solve.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tracegeo import (
    DimensionMismatchError,
    IllConditionedError,
    SingularMatrixError,
    apply_isometry,
    cartan_killing,
    congruence_by,
    curve_residual,
    geodesic_from_velocity,
    gram_matrix,
    inversion,
    leaf_base_point,
    left_translate,
    nabla,
    point_symmetry,
    pushforward,
    ricci,
    ricci_trace_oracle,
    riemann_04,
    riemann_13,
    sectional,
    sl_einstein_check,
    sl_tangent_project,
    spd_geodesic,
    trace_metric,
)
from tracegeo.matcore import _relative_gap
from tracegeo.verify import random_invertible

I2 = np.eye(2)
NAN2 = np.array([[1.0, np.nan], [0.0, 1.0]])
RAGGED = [[1.0, 2.0], [3.0]]

# (call, exception type, fragment of the message naming the operand)
OPERAND_DEFECTS = {
    "non-square-tangent": (lambda: trace_metric(I2, np.ones((2, 3)), I2),
                           ValueError, "V must be square, got shape (2, 3)"),
    "non-square-base": (lambda: ricci(np.ones((2, 3)), I2, I2), ValueError, "K must be square"),
    "empty-base": (lambda: riemann_13(np.zeros((0, 0)), I2, I2, I2),
                   ValueError, "K must be square, got shape (0, 0)"),
    "one-dimensional-tangent": (lambda: sectional(I2, I2, [1.0, 2.0]),
                                ValueError, "Y must be square, got shape (2,)"),
    "non-finite-fourth-tangent": (lambda: riemann_04(I2, I2, I2, I2, NAN2),
                                  ValueError, "W has non-finite entries"),
    "non-finite-base": (lambda: sl_tangent_project(NAN2, I2),
                        ValueError, "K has non-finite entries"),
    "first-of-two-defects": (lambda: nabla(I2, NAN2, np.ones((2, 3)), I2),
                             ValueError, "Xp has non-finite entries"),
    "ragged-tangent": (lambda: nabla(I2, I2, RAGGED, I2), ValueError, "Yp is not a numeric matrix"),
    "ragged-base": (lambda: trace_metric(RAGGED, I2, I2), ValueError, "A is not a numeric matrix"),
    "order-mismatch": (lambda: sl_einstein_check(I2, I2, np.eye(3)),
                       DimensionMismatchError, "matrix orders differ: [2, 3]"),
    "order-mismatch-without-base": (lambda: cartan_killing(np.eye(3), I2),
                                    DimensionMismatchError, "matrix orders differ: [2, 3]"),
    "non-finite-before-mismatch": (lambda: spd_geodesic(I2, np.full((3, 3), np.inf), 0.0),
                                   ValueError, "S has non-finite entries"),
    "pushforward-non-square": (lambda: pushforward(inversion(), I2, np.ones((3, 2))),
                               ValueError, "V must be square"),
    "oracle-order-mismatch": (lambda: ricci_trace_oracle(I2, I2, np.eye(3)),
                              DimensionMismatchError, "matrix orders differ"),
    "singular-base": (lambda: riemann_13(np.diag([1.0, 0.0]), I2, I2, I2),
                      SingularMatrixError, "K is numerically singular"),
    "singular-velocity-base": (lambda: geodesic_from_velocity(np.zeros((2, 2)), I2),
                               SingularMatrixError, "K is numerically singular"),
    "defect-before-singular-base": (lambda: trace_metric(np.zeros((2, 2)), I2, NAN2),
                                    ValueError, "W has non-finite entries"),
    # h * h = 0 would divide the second difference by zero
    "step-squared-underflows": (lambda: curve_residual(lambda t: I2, 0.0, 1e-200),
                                ValueError, "h * h a normal float"),
    # t +- h rounded to t would read a line that is no geodesic as one (residual 0.0)
    "step-rounds-to-t": (lambda: curve_residual(lambda t: I2 + t * np.diag([1.0, 2.0]), 0.3, 1e-20),
                         ValueError, "t + h and t - h distinct from t"),
    "order-zero-leaf": (lambda: leaf_base_point(1.0, 0),
                        ValueError, "n must be a positive integer"),
    "fractional-order-leaf": (lambda: leaf_base_point(1.0, 2.5),
                              ValueError, "n must be a positive integer"),
    # solve(curve(t), velocity) needs an invertible curve(t): cut before the solve, not by it
    "singular-curve-point": (lambda: curve_residual(lambda t: I2 * t, 0.0),
                             SingularMatrixError, "curve(t) is numerically singular"),
}


@pytest.mark.parametrize("case", OPERAND_DEFECTS)
def test_each_operand_defect_keeps_its_type_and_names_the_operand(case):
    call, exc, fragment = OPERAND_DEFECTS[case]
    with pytest.raises(exc) as info:
        call()
    assert fragment in str(info.value)


def _commutator(a, b):
    return a @ b - b @ a


def _two_sided_riemann_13(K, X, Y, Z):
    """The earlier closed form -(Z [bX, bY] - [X K^{-1}, Y K^{-1}] Z) / 4, kept as the reference."""
    B = np.linalg.inv(K)
    return -0.25 * (Z @ _commutator(B @ X, B @ Y) - _commutator(X @ B, Y @ B) @ Z)


@pytest.mark.parametrize("n", range(2, 7))
def test_riemann_13_matches_the_two_sided_formula(rng, n):
    for _ in range(50):
        K = random_invertible(rng, n)
        X, Y, Z = (rng.uniform(-1.0, 1.0, (n, n)) for _ in range(3))
        want = _two_sided_riemann_13(K, X, Y, Z)
        got = riemann_13(K, X, Y, Z)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _trivialised_scale(K, *tangents):
    """Product of the ||K^{-1} V||: the size every left-trivialised formula is relative to."""
    return max(1.0, float(np.prod([np.linalg.norm(np.linalg.solve(K, V)) for V in tangents])))


@pytest.mark.parametrize("n", range(2, 7))
def test_left_translation_equivariance(rng, n):
    for _ in range(10):
        K, G = random_invertible(rng, n), random_invertible(rng, n)
        X, Y, Z, W = (rng.uniform(-1.0, 1.0, (n, n)) for _ in range(4))
        GK, GX, GY, GZ, GW = (G @ M for M in (K, X, Y, Z, W))
        tol = 1e-10
        for f, args in ((trace_metric, (X, Y)), (ricci, (X, Y)), (sectional, (X, Y)),
                        (riemann_04, (X, Y, Z, W))):
            scale = _trivialised_scale(K, *args)
            moved = f(GK, *(G @ V for V in args))
            assert abs(moved - f(K, *args)) <= tol * scale, f.__name__
        assert_allclose(riemann_13(GK, GX, GY, GZ), G @ riemann_13(K, X, Y, Z),
                        rtol=0, atol=tol * _trivialised_scale(K, K, X, Y, Z) * np.linalg.norm(G))
        assert_allclose(nabla(GK, GX, GY, GZ), G @ nabla(K, X, Y, Z),
                        rtol=0, atol=tol * _trivialised_scale(K, K, X, Y) * np.linalg.norm(G))
        assert_allclose(sl_tangent_project(GK, GW), G @ sl_tangent_project(K, W),
                        rtol=0, atol=tol * _trivialised_scale(K, K, W) * np.linalg.norm(G))
        assert_allclose(geodesic_from_velocity(GK, GW).direction,
                        geodesic_from_velocity(K, W).direction,
                        rtol=0, atol=tol * _trivialised_scale(K, W))
        TX, TY = sl_tangent_project(K, X), sl_tangent_project(K, Y)
        moved = sl_einstein_check(GK, G @ TX, G @ TY)
        for got, want in zip(moved, sl_einstein_check(K, TX, TY)):
            assert abs(got - want) <= tol * _trivialised_scale(K, TX, TY)


BIG = 1e200 * I2
NEAR_SINGULAR = np.diag([1e-12, 1.0])  # ||K^-1|| = 1e12, inside the singular cut
E12, E21 = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])

# calls whose result leaves the float range, each with finite operands
OVERFLOWS = {
    "trace_metric": lambda: trace_metric(I2, BIG, BIG),
    "riemann_04": lambda: riemann_04(I2, 1e200 * E12, 1e200 * E21, 1e200 * E12, 1e200 * E21),
    "riemann_13": lambda: riemann_13(I2, 1e120 * E12, 1e120 * E21, 1e120 * E12),
    "ricci": lambda: ricci(I2, BIG, BIG),
    "nabla": lambda: nabla(I2, BIG, BIG, I2),
    "sl_tangent_project": lambda: sl_tangent_project(NEAR_SINGULAR, np.diag([1e300, 0.0])),
    "sl_einstein_check": lambda: sl_einstein_check(I2, 1e200 * E12, 1e200 * E21),
    "geodesic_from_velocity": lambda: geodesic_from_velocity(NEAR_SINGULAR, np.diag([1e300, 0.0])),
    # a point of scale 1e-300 passes the scale-free singular cut; its inverse is 1e300
    "pushforward-inversion": lambda: pushforward(inversion(), 1e-300 * I2, I2),
    "pushforward-point-symmetry": lambda: pushforward(point_symmetry(I2), 1e-300 * I2, I2),
    "apply-point-symmetry": lambda: apply_isometry(point_symmetry(1e10 * I2), 1e-300 * I2),
    # the linear isometries overflow too, at large parameter and point
    "apply-left-translate": lambda: apply_isometry(left_translate(BIG), BIG),
    "pushforward-congruence": lambda: pushforward(congruence_by(BIG), I2, I2),
    "gram_matrix": lambda: gram_matrix(1e-300 * I2),
    "cartan_killing": lambda: cartan_killing(BIG, BIG),
}


@pytest.mark.parametrize("case", OVERFLOWS)
def test_overflow_is_an_ill_conditioned_error_without_a_warning(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedError, match="overflows the float range"):
            OVERFLOWS[case]()


def test_relative_gap_is_the_frobenius_ratio_and_does_not_overflow(rng):
    for _ in range(20):
        A, B = rng.uniform(-3.0, 3.0, (2, 4, 4))
        want = np.linalg.norm(A - B) / max(1.0, np.linalg.norm(B))
        assert _relative_gap(A, B) == pytest.approx(want, rel=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _relative_gap(1e300 * A, 1e300 * B) == pytest.approx(want, rel=1e-14)
        assert _relative_gap(np.array([[1e308, -1e308]]), np.array([[-1e308, 1e308]])) == 2.0
    assert _relative_gap(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


def _exact_gap(A, B):
    """``||A - B||_F / ||B||_F`` in rational arithmetic, rounded once before the root."""
    diff = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(A.flat, B.flat))
    base = sum(Fraction(b) ** 2 for b in B.flat)
    return math.sqrt(diff / base) if base else (math.inf if diff else 0.0)


@pytest.mark.parametrize("exponent", [*range(-160, -139, 5), *range(140, 161, 5), -300, -200, 200, 300])
def test_relative_gap_agrees_across_its_two_routes(exponent, rng):
    # ||B|| and ||A - B|| inside (1e-150, 1e150) take the norms directly, outside it the scaled
    # route: both meet the exact ratio, on either side of the switch and with one norm across it
    # and a close pair, A = B (1 + 1e-12 U): the scaled route scales by a power of two, exactly,
    # so no rounding of the scaling cancels into the difference (2e-4 off when it divided)
    for _ in range(10):
        A, B = rng.uniform(-3.0, 3.0, (2, 4, 4)) * 10.0**exponent
        close = B * (1.0 + 1e-12 * rng.uniform(-1.0, 1.0, B.shape))
        for a in (A, 2.0 * B, 1e5 * A, 1e-5 * A, B, close):
            assert _relative_gap(a, B) == pytest.approx(_exact_gap(a, B), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("A, B", [
    # subnormal B: multiples of the smallest subnormal are exact, as are their scaled ratios
    (5e-324 * np.array([[2.0, 4.0], [6.0, 9.0]]), 5e-324 * np.array([[1.0, 2.0], [3.0, 4.0]])),
    (np.ones((2, 2)), np.zeros((2, 2))),
    (np.zeros((2, 2)), np.zeros((2, 2))),
    # the squares of A - B underflow beside ||B||: the direct route would read 0, the scaled one
    # reads 1e-30
    (np.diag([1e-140, 2e-170]), np.diag([1e-140, 1e-170])),
], ids=["subnormal", "zero-B", "both-zero", "underflowing-difference"])
def test_relative_gap_at_the_ends_of_the_float_range(A, B):
    assert _relative_gap(A, B) == pytest.approx(_exact_gap(A, B), rel=1e-14, abs=0.0)
