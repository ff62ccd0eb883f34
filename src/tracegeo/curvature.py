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
    bX, bY, bZ, bW = _lapack.solve(stack[0], stack[1:])
    return float(0.25 * np.trace(_commutator(bX, bY) @ _commutator(bZ, bW)))


@_overflow_guard("curvature")
def sectional(K, X, Y):
    """Sectional curvature of the 2-plane spanned by X, Y at K.

    The value tr([bX, bY]^2) / 4 over the Gram determinant of the plane, for
    bV = K^{-1} V; only defined on nondegenerate sections.
    """
    K, X, Y = stack = as_point_and_tangents(K, "K", X=X, Y=Y)
    pair = np.column_stack([X.ravel(), Y.ravel()])
    s = _lapack.svd(pair, compute_uv=False)
    if s[1] <= 1e-12 * s[0]:  # relative to the pair alone: X -> aX, Y -> aY keeps the verdict
        raise LinearlyDependentError("X and Y do not span a 2-plane")
    # invariant under X -> aX, Y -> bY and K -> cK: tangents of largest entry 1, and K over the
    # power of two of its largest entry (an exact scaling), keep the Gram entries far from the
    # ends of the float range, as the singular cut bounds ||K^-1|| against ||K||
    tangents = stack[1:] / np.abs(stack[1:]).max(axis=(1, 2), keepdims=True)
    solved = _lapack.solve(np.ldexp(K, -np.frexp(np.abs(K).max())[1]), tangents)
    (gxx, gxy), (_, gyy) = np.einsum("aij,bji->ab", solved, solved)  # tr(bA bB) for A, B in {X, Y}
    denom = gxx * gyy - gxy * gxy
    fxx, fyy = np.einsum("aij,aij->a", solved, solved)  # ||bX||^2, ||bY||^2
    if abs(denom) <= 1e-10 * max(fxx * fyy, np.finfo(float).tiny):
        raise DegenerateSectionError("metric is degenerate on the section")
    bracket = _commutator(*solved)
    return float(0.25 * np.trace(bracket @ bracket) / denom)


def _ricci_form(n, BX, BY):
    """tr(BX) tr(BY) / 2 - n tr(BX BY) / 2 for BX = K^{-1}X, BY = K^{-1}Y, or stacks of them."""
    trX, trY, trXY = (np.trace(M, axis1=-2, axis2=-1) for M in (BX, BY, BX @ BY))
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
    frame = orthonormal_frame(K)
    K = frame.base_point
    n = K.shape[0]
    # K^{-1} X_a for the whole frame from one factorisation: the X_a side by side as n x n^3
    BV = _lapack.solve(K, frame.vectors.transpose(1, 0, 2).reshape(n, -1))
    BV = BV.reshape(n, -1, n).transpose(1, 0, 2)
    return float(frame.signs @ _ricci_form(n, BV, BV))


@_overflow_guard("curvature")
def ricci_trace_oracle(K, X, Y):
    """Ricci via the trace of Z -> R_{XZ}Y over the standard basis.

    Components are extracted with the metric-dual expansion
    V = sum g^{ab} g(V, E_b) E_a, so the oracle shares no code path with the
    closed Ricci formula.  One batched (1,3) call gives every R(X, E_a)Y, taken at
    K / 2^e for e the exponent of max |K|, as Ric(K) = 4^-e Ric(K / 2^e) exactly.
    """
    stack = as_point_and_tangents(K, "K", X=X, Y=Y)
    e = np.frexp(np.abs(stack[0]).max())[1]
    K = np.ldexp(stack[0], -e)
    n = K.shape[0]
    bX, bY, B = _lapack.solve(K, [*stack[1:], np.eye(n)])
    T = _riemann_13(K, bX, B @ standard_basis(n), bY)  # T[a] = R(X, E_a)Y
    gvecs = B @ T @ B  # gvecs[a].ravel()[b] = g_K(T[a], E_b)
    Ginv = _lapack.inv(_gram_of_inverse(B))
    return float(np.ldexp(Ginv.ravel() @ gvecs.ravel(), -2 * e))


def christoffel_closed(P):
    """Christoffel symbols from the closed trace formula.

    Gamma[a, b, c] is the coefficient of E_c in nabla_{E_a} E_b, equal to
    -(1/2) sum_d g^{cd} (tr(P^{-1}E_a P^{-1}E_b P^{-1}E_d) + (a <-> b)).
    """
    P = as_point_and_tangents(P, "P")[0]
    n = P.shape[0]
    e = np.frexp(np.abs(P).max())[1]  # Gamma(P) = Gamma(P / 2^e) / 2^e, exactly, with no overflow
    B = _lapack.inv(np.ldexp(P, -e))
    m = n * n
    # T[ji, lk, sr] = B[j, k] B[l, r] B[s, i], by broadcasting over the axes (j, i, l, k, s, r)
    T = (B[:, None, None, :, None, None] * B[None, None, :, None, None, :]
         * B.T[None, :, None, None, :, None]).reshape(m, m, m)
    sym = (T + T.transpose(1, 0, 2)).reshape(m * m, m)  # rows (a, b) and (b, a) are equal
    Ginv = _lapack.inv(_gram_of_inverse(B))
    return np.ldexp(-0.5 * (sym @ Ginv.T).reshape(m, m, m), -e)


@_overflow_guard("Christoffel symbols")
def christoffel_fd(P, h=1e-4):
    """Christoffel symbols from central differences of the Gram matrix, in one pass: one batched
    cut and ``inv`` of the 2n^2 + 1 points P +- h E_d and P.  Taken at P / 2^e with the step
    h / 2^e, e the exponent of max |P|, as Gamma(P, h) = Gamma(P / 2^e, h / 2^e) / 2^e exactly."""
    P = as_squares(P=P)[0]
    if not 0 < h < np.inf:
        raise ValueError("step h must be positive and finite")
    # Below 2^20 ulp(max|P|) rounding swamps the quotient (1e-3 of max|Gamma| at h = 1e-13 near
    # I), and below half an ulp P + h rounds back to P.
    floor = 2.0**20 * float(np.spacing(np.abs(P).max()))
    if h < floor:
        raise ValueError(f"step h must move every entry of P well past rounding: "
                         f"h >= 2^20 ulp(max|P|) = {floor:.3g}")
    e = np.frexp(np.abs(P).max())[1]
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
        if abs(float(np.trace(unit))) > _LEAF_TRACE_RTOL * float(np.linalg.norm(unit)):
            raise NotTangentError(f"{name} is not tangent to the determinant leaf")
    return float(_ricci_form(n, bX, bY)), float(-0.5 * n * np.trace(bX @ bY))
