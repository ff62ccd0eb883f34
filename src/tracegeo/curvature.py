"""Curvature of the trace metric in closed form, with independent oracles.

Sign convention: R_{XY}Z = -nabla_X nabla_Y Z + nabla_Y nabla_X Z for
commuting coordinate fields, so cross-checks against texts using the
opposite convention need a global sign flip.
"""

from functools import lru_cache

import numpy as np

from . import _lapack
from .errors import DegenerateSectionError, LinearlyDependentError, NotTangentError
from .matcore import _Record, _overflow_guard, as_point_and_tangents, as_squares, require_invertible
from .metricspace import _gram_of_inverse, standard_basis

__all__ = [
    "riemann_13",
    "riemann_04",
    "sectional",
    "ricci",
    "scalar_curvature",
    "ricci_trace_oracle",
    "christoffel_closed",
    "christoffel_fd",
    "OrthonormalFrame",
    "orthonormal_frame",
    "sl_einstein_check",
]


def _commutator(a, b):
    return a @ b - b @ a


@_overflow_guard("curvature")
def riemann_13(K, X, Y, Z):
    """(1,3) curvature: -K [bZ, [bX, bY]] / 4 for bV = K^{-1} V."""
    stack = as_point_and_tangents(K, "K", X=X, Y=Y, Z=Z)
    return _riemann_13(stack[0], *_lapack.solve(stack[0], stack[1:]))


def _riemann_13(K, bX, bY, bZ):
    """:func:`riemann_13` from the quotients bV = K^{-1} V, any of them a stack (broadcast)."""
    return -0.25 * K @ _commutator(bZ, _commutator(bX, bY))


@_overflow_guard("curvature")
def riemann_04(K, X, Y, Z, W):
    """(0,4) curvature: tr([bX, bY] [bZ, bW]) / 4 for bV = K^{-1} V."""
    stack = as_point_and_tangents(K, "K", X=X, Y=Y, Z=Z, W=W)
    S = _lapack.solve(stack[0], stack[1:])
    C = _commutator(S[0::2], S[1::2])  # [bX, bY] and [bZ, bW] in one batched product
    return float(0.25 * (C[0] @ C[1]).trace())


@_overflow_guard("curvature")
def sectional(K, X, Y):
    """Sectional curvature of the 2-plane spanned by X, Y at K.

    The value tr([bX, bY]^2) / 4 over the Gram determinant of the plane, for
    bV = K^{-1} V; only defined on nondegenerate sections.
    """
    stack = as_point_and_tangents(K, "K", X=X, Y=Y)
    # invariant under X -> aX, Y -> bY and K -> cK: tangents of largest entry 1, and K over the
    # power of two of its largest entry (an exact scaling), keep the Gram entries far from the
    # ends of the float range, as the singular cut bounds ||K^-1|| against ||K||
    peaks = np.abs(stack[1:]).max(axis=(1, 2), keepdims=True)
    tangents = stack[1:] / np.maximum(peaks, np.finfo(float).smallest_subnormal)  # 0 stays 0
    s = _lapack.svd(tangents.reshape(2, -1).T, compute_uv=False)
    if s[1] <= 1e-12 * s[0]:  # of the scaled pair: the verdict is as scale-free as the value
        raise LinearlyDependentError("X and Y do not span a 2-plane")
    solved = _lapack.solve(np.ldexp(stack[0], -np.frexp(np.abs(stack[0]).max())[1]), tangents)
    (gxx, gxy), (_, gyy) = np.einsum("aij,bji->ab", solved, solved)  # tr(bA bB) for A, B in {X, Y}
    denom = gxx * gyy - gxy * gxy
    fxx, fyy = np.einsum("aij,aij->a", solved, solved)  # ||bX||^2, ||bY||^2
    if abs(denom) <= 1e-10 * max(fxx * fyy, np.finfo(float).tiny):
        raise DegenerateSectionError("metric is degenerate on the section")
    bracket = _commutator(*solved)
    return float(0.25 * (bracket @ bracket).trace() / denom)


def _ricci_form(n, BX, BY):
    """tr(BX) tr(BY) / 2 - n tr(BX BY) / 2 for BX = K^{-1}X, BY = K^{-1}Y, or stacks of them."""
    trX, trY, trXY = (M.trace(axis1=-2, axis2=-1) for M in (BX, BY, BX @ BY))
    return 0.5 * trX * trY - 0.5 * n * trXY


@_overflow_guard("curvature")
def ricci(K, X, Y):
    """Ricci curvature tr(bX) tr(bY) / 2 - n tr(bX bY) / 2 for bV = K^{-1} V."""
    stack = as_point_and_tangents(K, "K", X=X, Y=Y)
    bX, bY = _lapack.solve(stack[0], stack[1:])
    return float(_ricci_form(stack.shape[1], bX, bY))


class OrthonormalFrame(_Record):
    """g-orthonormal tangent frame at a base point, with causal characters.

    ``signs[a]`` is +1 for space-like and -1 for time-like frame vectors;
    there are n(n+1)/2 space-like and n(n-1)/2 time-like directions.
    """

    base_point: np.ndarray
    vectors: np.ndarray  # shape (n*n, n, n)
    signs: np.ndarray  # shape (n*n,), entries +-1
    _fields = ("base_point", "vectors", "signs")

    def __init__(self, base_point, vectors, signs):
        self.__dict__.update(base_point=base_point, vectors=vectors, signs=signs)

    @property
    def causal(self):
        return ["space-like" if s > 0 else "time-like" for s in self.signs]


@lru_cache(maxsize=5)
def _identity_frame(n):
    """The standard orthonormal frame at the n x n identity and its signs, read-only.

    Built once per order: the cache holds the 5 orders used last, as many as
    ``verify.ORDERS`` (n = 2..6) has, so a mix of those orders never rebuilds one.
    An order costs 8 (n^4 + n^2) bytes, 10.7 kB at n = 6 and 18.9 kB for n = 2..6.
    """
    units = np.eye(n * n).reshape(n, n, n, n)  # units[i, j] = E_ij
    i, j = np.nonzero(np.less.outer(range(n), range(n)))  # the pairs i < j, row by row
    sums, differences = units[i, j] + units[j, i], units[i, j] - units[j, i]
    at_identity = np.concatenate([units[range(n), range(n)], sums / np.sqrt(2.0),
                                  differences / np.sqrt(2.0)])
    signs = np.repeat([1.0, -1.0], [n * (n + 1) // 2, n * (n - 1) // 2])
    at_identity.flags.writeable = signs.flags.writeable = False  # shared by every caller
    return at_identity, signs


def orthonormal_frame(K):
    """Left-translate of the standard orthonormal frame at the identity.

    At the identity the frame is the diagonal units, the normalised
    symmetric pair sums (space-like) and the normalised antisymmetric pair
    differences (time-like); left translation by K transports it to K.
    ``signs`` is shared between frames of one order and is read-only.
    """
    K = as_point_and_tangents(K, "K")[0]
    at_identity, signs = _identity_frame(K.shape[0])
    return OrthonormalFrame(base_point=K, vectors=K @ at_identity, signs=signs)


def scalar_curvature(K):
    """Scalar curvature at ``K``: the signed Ricci trace over an orthonormal frame.

    Constant over the whole space, equal to -(n+1) n (n-1) / 2; computed, not
    hard-coded, so the formula chain stays honest.
    """
    K = as_point_and_tangents(K, "K")[0]
    n = K.shape[0]
    at_identity, signs = _identity_frame(n)
    # K^{-1} X_a = (K^{-1} K) E_a for the frame X_a = K E_a: one n x n solve, no frame vectors
    BV = _lapack.solve(K, K) @ at_identity
    return float(signs @ _ricci_form(n, BV, BV))


@_overflow_guard("curvature")
def ricci_trace_oracle(K, X, Y):
    """Ricci via the trace of Z -> R_{XZ}Y over the standard basis.

    Components are extracted with the metric-dual expansion
    V = sum g^{ab} g(V, E_b) E_a, with the inverse metric g^{ab} = tr(K E_a^T K E_b^T)
    in closed form, so the oracle shares no code path with the closed Ricci formula.
    One batched (1,3) call gives every R(X, E_a)Y, taken at K / 2^e for e the
    exponent of max |K|, as Ric(K) = 4^-e Ric(K / 2^e) exactly.
    """
    stack = as_point_and_tangents(K, "K", X=X, Y=Y)
    e = np.frexp(np.abs(stack[0]).max())[1]
    K = np.ldexp(stack[0], -e)
    n = K.shape[0]
    bX, bY, B = _lapack.solve(K, [*stack[1:], np.eye(n)])
    T = _riemann_13(K, bX, B @ standard_basis(n), bY)  # T[a] = R(X, E_a)Y
    gvecs = B @ T @ B  # gvecs[a].ravel()[b] = g_K(T[a], E_b)
    Ginv = _gram_of_inverse(K.T)  # the inverse metric tr(K xi K eta)
    return float(np.ldexp(Ginv.ravel() @ gvecs.ravel(), -2 * e))


@_overflow_guard("Christoffel symbols")
def christoffel_closed(P):
    """Christoffel symbols from the closed form of the connection.

    Gamma[a, b, c] is the coefficient of E_c in nabla_{E_a} E_b = -(E_a B E_b + E_b B E_a) / 2,
    B = P^{-1}: for E_ij and E_kl, -B_jk / 2 at E_il and -B_li / 2 at E_kj, with no sum (error
    about u cond(P) max|Gamma|; exact (a, b) symmetry).  B is taken of P / 2^e, e the exponent of
    max |P|, as Gamma(P) = Gamma(P / 2^e) / 2^e exactly.
    """
    P = as_point_and_tangents(P, "P")[0]
    n = P.shape[0]
    e = np.frexp(np.abs(P).max())[1]
    h = -0.5 * _lapack.inv(np.ldexp(P, -e))
    i, j, k, l = np.indices((n,) * 4)
    gamma = np.zeros((n,) * 6)  # axes (j, i, l, k, q, p) for E_ij, E_kl and E_pq (alpha = i + n j)
    gamma[j, i, l, k, l, i] = h[j, k]
    gamma[j, i, l, k, j, k] += h[l, i]
    return np.ldexp(gamma.reshape((n * n,) * 3), -e)


@_overflow_guard("Christoffel symbols")
def christoffel_fd(P, h=None):
    """Christoffel symbols from central differences of the Gram matrix, in one pass: one batched
    cut and ``inv`` of the 2n^2 + 1 points P +- h E_d and P.  Taken at P / 2^e with the step
    h / 2^e, e the exponent of max |P|, as Gamma(P, h) = Gamma(P / 2^e, h / 2^e) / 2^e exactly.

    The default step is relative, 1e-4 (sigma_min / sigma_max) max|P|, and never below the floor
    an explicit ``h`` must clear: the difference error grows with ||P^-1||, so a fixed step loses
    the symbols of an ill-conditioned P."""
    P = as_squares(P=P)[0]
    peak = float(np.abs(P).max())
    e = np.frexp(peak)[1]
    # Below 2^20 ulp(max|P|) rounding swamps the quotient (1e-3 of max|Gamma| at h = 1e-13 near
    # I), and below half an ulp P + h rounds back to P.
    floor = 2.0**20 * float(np.spacing(peak))
    if h is None:  # sigma of P / 2^e, which cannot overflow; a zero P gets the floor and is cut
        s = _lapack.svd(np.ldexp(P, -e), compute_uv=False)
        h = max(1e-4 * float(s[-1] / s[0]) * peak, floor) if peak else floor
    if not 0 < h < np.inf:
        raise ValueError("step h must be positive and finite")
    if h < floor:
        raise ValueError(f"step h must move every entry of P well past rounding: "
                         f"h >= 2^20 ulp(max|P|) = {floor:.3g}")
    P, h = np.ldexp(P, -e), np.ldexp(h, -e)
    m = P.shape[0] ** 2
    steps = h * standard_basis(P.shape[0])
    points = np.concatenate([P + steps, P - steps, P[None]])
    require_invertible(points, "P")
    G = _gram_of_inverse(_lapack.inv(points))
    dG = (G[:m] - G[m:-1]) / (2 * h)  # dG[d, a, b] = d g_{ab} / d p^d
    Ginv = _lapack.inv(G[-1])
    # Gamma^c_{ab} = (1/2) g^{cd} (g_{ad,b} + g_{bd,a} - g_{ab,d})
    bracket = np.einsum("bad->abd", dG) + dG - np.einsum("dab->abd", dG)
    return np.ldexp(0.5 * np.einsum("cd,abd->abc", Ginv, bracket), -e)


_LEAF_TRACE_RTOL = 1e-10  # tangent to the leaf: |tr(K^-1 X)| at most this fraction of ||K^-1 X||


@_overflow_guard("curvature")
def sl_einstein_check(K, X, Y):
    """Einstein identity on a determinant leaf: (Ric(X,Y), -(n/2) g(X,Y)).

    Requires X and Y tangent to the leaf through K, i.e. tr(K^{-1}X) and
    tr(K^{-1}Y) vanish; project with sl_tangent_project first if needed.
    """
    stack = as_point_and_tangents(K, "K", X=X, Y=Y)
    n = stack.shape[1]
    bX, bY = _lapack.solve(stack[0], stack[1:])
    for name, bV in (("X", bX), ("Y", bY)):
        unit = bV / max(float(np.abs(bV).max()), np.finfo(float).tiny)  # ||unit|| cannot underflow
        if abs(float(unit.trace())) > _LEAF_TRACE_RTOL * _lapack.norm(unit):
            raise NotTangentError(f"{name} is not tangent to the determinant leaf")
    return float(_ricci_form(n, bX, bY)), float(-0.5 * n * (bX @ bY).trace())
