"""Curvature of the trace metric in closed form, with independent oracles.

Sign convention: R_{XY}Z = -nabla_X nabla_Y Z + nabla_Y nabla_X Z for
commuting coordinate fields, so cross-checks against texts using the
opposite convention need a global sign flip.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSectionError, LinearlyDependentError, NotTangentError
from .matcore import as_point_and_tangents, as_square, require_invertible, require_same_order
from .metricspace import gram_matrix, standard_basis, trace_metric

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


def riemann_13(K, X, Y, Z):
    """(1,3) curvature: -( Z [K^{-1}X, K^{-1}Y] - [XK^{-1}, YK^{-1}] Z ) / 4."""
    K, X, Y, Z = as_point_and_tangents(K, "K", X=X, Y=Y, Z=Z)
    B = np.linalg.inv(K)
    left = _commutator(B @ X, B @ Y)
    right = _commutator(X @ B, Y @ B)
    return -0.25 * (Z @ left - right @ Z)


def riemann_04(K, X, Y, Z, W):
    """(0,4) curvature: tr([K^{-1}X, K^{-1}Y] [K^{-1}Z, K^{-1}W]) / 4."""
    K, X, Y, Z, W = as_point_and_tangents(K, "K", X=X, Y=Y, Z=Z, W=W)
    B = np.linalg.inv(K)
    return float(0.25 * np.trace(_commutator(B @ X, B @ Y) @ _commutator(B @ Z, B @ W)))


def sectional(K, X, Y):
    """Sectional curvature of the 2-plane spanned by X, Y at K.

    The value tr([K^{-1}X, K^{-1}Y]^2) / 4 over the Gram determinant of the
    plane; only defined on nondegenerate sections.
    """
    K, X, Y = as_point_and_tangents(K, "K", X=X, Y=Y)
    pair = np.column_stack([X.ravel(), Y.ravel()])
    s = np.linalg.svd(pair, compute_uv=False)
    if s[1] <= 1e-12 * max(1.0, s[0]):
        raise LinearlyDependentError("X and Y do not span a 2-plane")
    B = np.linalg.inv(K)
    BX, BY = B @ X, B @ Y
    gxx = float(np.trace(BX @ BX))
    gyy = float(np.trace(BY @ BY))
    gxy = float(np.trace(BX @ BY))
    denom = gxx * gyy - gxy * gxy
    scale = (np.linalg.norm(BX) * np.linalg.norm(BY)) ** 2
    if abs(denom) <= 1e-10 * max(scale, np.finfo(float).tiny):
        raise DegenerateSectionError("metric is degenerate on the section")
    numer = 0.25 * float(np.trace(_commutator(BX, BY) @ _commutator(BX, BY)))
    return numer / denom


def _ricci_form(n, BX, BY):
    """tr(BX) tr(BY) / 2 - n tr(BX BY) / 2 for BX = K^{-1}X, BY = K^{-1}Y, or stacks of them."""
    trX, trY, trXY = (np.trace(M, axis1=-2, axis2=-1) for M in (BX, BY, BX @ BY))
    return 0.5 * trX * trY - 0.5 * n * trXY


def ricci(K, X, Y):
    """Ricci curvature tr(K^{-1}X) tr(K^{-1}Y) / 2 - n g_K(X, Y) / 2."""
    K, X, Y = as_point_and_tangents(K, "K", X=X, Y=Y)
    return float(_ricci_form(K.shape[0], np.linalg.solve(K, X), np.linalg.solve(K, Y)))


@dataclass(frozen=True, eq=False)
class OrthonormalFrame:
    """g-orthonormal tangent frame at a base point, with causal characters.

    ``signs[a]`` is +1 for space-like and -1 for time-like frame vectors;
    there are n(n+1)/2 space-like and n(n-1)/2 time-like directions.
    """

    base_point: np.ndarray
    vectors: np.ndarray  # shape (n*n, n, n)
    signs: np.ndarray  # shape (n*n,), entries +-1

    @property
    def causal(self):
        return ["space-like" if s > 0 else "time-like" for s in self.signs]


def orthonormal_frame(K):
    """Left-translate of the standard orthonormal frame at the identity.

    At the identity the frame is the diagonal units, the normalised
    symmetric pair sums (space-like) and the normalised antisymmetric pair
    differences (time-like); left translation by K transports it to K.
    """
    K = as_square(K, "K")
    require_invertible(K, "K")
    n = K.shape[0]
    vectors = []
    signs = []
    for i in range(n):
        E = np.zeros((n, n))
        E[i, i] = 1.0
        vectors.append(K @ E)
        signs.append(1.0)
    root2 = np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            S = np.zeros((n, n))
            S[i, j] = S[j, i] = 1.0 / root2
            vectors.append(K @ S)
            signs.append(1.0)
    for i in range(n):
        for j in range(i + 1, n):
            A = np.zeros((n, n))
            A[i, j] = 1.0 / root2
            A[j, i] = -1.0 / root2
            vectors.append(K @ A)
            signs.append(-1.0)
    return OrthonormalFrame(base_point=K, vectors=np.array(vectors), signs=np.array(signs))


def scalar_curvature(K):
    """Scalar curvature at ``K``: the signed Ricci trace over an orthonormal frame.

    Constant over the whole space, equal to -(n+1) n (n-1) / 2; computed, not
    hard-coded, so the formula chain stays honest.
    """
    frame = orthonormal_frame(K)
    K = frame.base_point
    BV = np.linalg.solve(K, frame.vectors)  # K^{-1} X_a for the whole frame at once
    return float(frame.signs @ _ricci_form(K.shape[0], BV, BV))


def ricci_trace_oracle(K, X, Y):
    """Ricci via the trace of Z -> R_{XZ}Y over the standard basis.

    Components are extracted with the metric-dual expansion
    V = sum g^{ab} g(V, E_b) E_a, so the oracle shares no code path with the
    closed Ricci formula.
    """
    K = as_square(K, "K")
    X = as_square(X, "X")
    Y = as_square(Y, "Y")
    require_same_order(K, X, Y)
    G = gram_matrix(K)
    Ginv = np.linalg.inv(G)
    B = np.linalg.inv(K)
    basis = standard_basis(K.shape[0])
    total = 0.0
    for alpha in range(basis.shape[0]):
        T = riemann_13(K, X, basis[alpha], Y)
        gvec = (B @ T @ B).ravel()  # gvec[beta] = g_K(T, E_beta)
        total += float(Ginv[alpha] @ gvec)
    return total


def christoffel_closed(P):
    """Christoffel symbols from the closed trace formula.

    Gamma[a, b, c] is the coefficient of E_c in nabla_{E_a} E_b, equal to
    -(1/2) sum_d g^{cd} (tr(P^{-1}E_a P^{-1}E_b P^{-1}E_d) + (a <-> b)).
    """
    P = as_square(P, "P")
    require_invertible(P, "P")
    n = P.shape[0]
    B = np.linalg.inv(P)
    T = np.einsum("jk,lr,si->jilksr", B, B, B).reshape(n * n, n * n, n * n)
    sym = T + T.transpose(1, 0, 2)
    Ginv = np.linalg.inv(gram_matrix(P))
    return -0.5 * np.einsum("cd,abd->abc", Ginv, sym)


def christoffel_fd(P, h=1e-4):
    """Christoffel symbols from central differences of the Gram matrix."""
    P = as_square(P, "P")
    require_invertible(P, "P")
    if h <= 0:
        raise ValueError("step h must be positive")
    n = P.shape[0]
    basis = standard_basis(n)
    m = n * n
    dG = np.empty((m, m, m))  # dG[d, a, b] = d g_{ab} / d p^d
    for delta in range(m):
        dG[delta] = (gram_matrix(P + h * basis[delta]) - gram_matrix(P - h * basis[delta])) / (2 * h)
    Ginv = np.linalg.inv(gram_matrix(P))
    # Gamma^c_{ab} = (1/2) g^{cd} (g_{ad,b} + g_{bd,a} - g_{ab,d})
    bracket = np.einsum("bad->abd", dG) + dG - np.einsum("dab->abd", dG)
    return 0.5 * np.einsum("cd,abd->abc", Ginv, bracket)


def sl_einstein_check(K, X, Y, tol=1e-10):
    """Einstein identity on a determinant leaf: (Ric(X,Y), -(n/2) g(X,Y)).

    Requires X and Y tangent to the leaf through K, i.e. tr(K^{-1}X) and
    tr(K^{-1}Y) vanish; project with sl_tangent_project first if needed.
    """
    K, X, Y = as_point_and_tangents(K, "K", X=X, Y=Y)
    n = K.shape[0]
    BX = np.linalg.solve(K, X)
    BY = np.linalg.solve(K, Y)
    for name, BV in (("X", BX), ("Y", BY)):
        if abs(float(np.trace(BV))) > tol * max(1.0, float(np.linalg.norm(BV))):
            raise NotTangentError(f"{name} is not tangent to the determinant leaf")
    return ricci(K, X, Y), float(-0.5 * n * trace_metric(K, X, Y))
