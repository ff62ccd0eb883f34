"""Matrix-analysis engine.

Exponential, real principal logarithm, fractional powers, eigenvalue/Jordan
structure estimation, polar decomposition, the canonical skew logarithm of a
special orthogonal matrix, and the Cartan-Killing form of n x n matrices.
All functions are pure and operate on plain ``numpy`` arrays.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionMismatchError,
    NotSpecialOrthogonalError,
    SingularMatrixError,
    SpectrumNotPositiveError,
    SpectrumOnCutError,
)

DEFAULT_TOL = 1e-8


def as_square(a, name="matrix"):
    """Validate and return ``a`` as a finite square float matrix."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def require_same_order(*mats):
    orders = {m.shape[0] for m in mats}
    if len(orders) != 1:
        raise DimensionMismatchError(f"matrix orders differ: {sorted(orders)}")


def require_invertible(a, name="matrix", rtol=1e-13):
    """Raise SingularMatrixError when the smallest singular value is negligible."""
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= rtol * max(1.0, s[0]):
        raise SingularMatrixError(f"{name} is numerically singular")


def as_point_and_tangents(base, name, **tangents):
    """Validate an invertible base point and matrices of the same order.

    Each operand goes through :func:`as_square` under its own name (the
    keyword names the tangents), then the orders must agree, and last the
    base must be invertible.  Returns the base followed by the tangents.
    """
    mats = [as_square(base, name)]
    mats.extend(as_square(m, key) for key, m in tangents.items())
    require_same_order(*mats)
    require_invertible(mats[0], name)
    return mats


def is_negative_real(lam, tol=DEFAULT_TOL):
    """Decide whether the complex scalar ``lam`` counts as a negative real."""
    lam = complex(lam)
    return lam.real < 0 and abs(lam.imag) <= tol * max(1.0, abs(lam))


def is_positive_real(lam, tol=DEFAULT_TOL):
    lam = complex(lam)
    return lam.real > 0 and abs(lam.imag) <= tol * max(1.0, abs(lam))


def mat_exp(A):
    """Matrix exponential e^A (scaling-and-squaring Pade)."""
    return sla.expm(as_square(A, "A"))


# Largest 1-norm condition number of the eigenvector matrix for which the
# logarithm is taken through the eigendecomposition: cond(V) u <~ 1e-12, far
# inside the 1e-8 endpoint gates.  The bound is scale-free, so A and cA take
# the same route.
_EIGENBASIS_COND_MAX = 1e4


def real_log_principal(A, tol=DEFAULT_TOL):
    """Principal real logarithm of ``A``.

    Valid when ``A`` is invertible with no eigenvalue on the closed negative
    real axis; the result is the unique real ``L`` with ``expm(L) = A`` whose
    spectrum lies in the strip ``|Im| < pi``.

    One eigendecomposition ``A = V diag(lam) V^{-1}`` gives both the cut test
    and, when the eigenbasis is well conditioned, ``L = V diag(log lam) V^{-1}``
    (error about ``cond(V) u``, Higham 2008, section 4.5).  Defective and
    near-defective inputs fall back to ``scipy.linalg.logm``.

    Raises
    ------
    SingularMatrixError
        ``A`` is numerically singular.
    SpectrumOnCutError
        Some eigenvalue sits on the closed negative real axis within ``tol``.
    """
    A = as_square(A, "A")
    require_invertible(A, "A")
    eigs, V = np.linalg.eig(A)
    if any(is_negative_real(lam, tol) for lam in eigs):
        raise SpectrumOnCutError("eigenvalue on the closed negative real axis")
    try:
        Vinv = np.linalg.inv(V)
        diagonal = np.linalg.norm(V, 1) * np.linalg.norm(Vinv, 1) <= _EIGENBASIS_COND_MAX
    except np.linalg.LinAlgError:  # eigenbasis exactly singular: a defective A
        diagonal = False
    L = (V * np.log(eigs)) @ Vinv if diagonal else sla.logm(A)
    if np.iscomplexobj(L):
        dirt = float(np.abs(L.imag).max())
        if dirt > tol * max(1.0, float(np.abs(L.real).max())):
            raise SpectrumOnCutError("logarithm came back complex; spectrum too close to the cut")
        L = L.real
    return L


def fractional_power(A, t, tol=DEFAULT_TOL):
    """A^t = exp(t log A) for matrices with positive real spectrum.

    Raises SpectrumNotPositiveError if any eigenvalue fails to be positive
    real within ``tol``.
    """
    A = as_square(A, "A")
    eigs = np.linalg.eigvals(A)
    if not all(is_positive_real(lam, tol) for lam in eigs):
        raise SpectrumNotPositiveError("spectrum is not positive real")
    return mat_exp(float(t) * real_log_principal(A, tol))


# ---------------------------------------------------------------------------
# Eigenvalue clusters and Jordan block sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenCluster:
    """One eigenvalue cluster with its Jordan block-size multiset."""

    eigenvalue: complex
    block_sizes: tuple[int, ...]

    @property
    def multiplicity(self):
        return sum(self.block_sizes)

    @property
    def is_real(self):
        # Representatives of real clusters are snapped to imag == 0 exactly.
        return self.eigenvalue.imag == 0.0


@dataclass(frozen=True)
class SpectralProfile:
    """Eigenvalue clusters of a matrix, with the tolerance that produced them."""

    clusters: tuple[EigenCluster, ...]
    tolerance: float

    @property
    def order(self):
        return sum(c.multiplicity for c in self.clusters)

    def negative_real(self):
        return [c for c in self.clusters if c.is_real and c.eigenvalue.real < 0]

    def positive_real(self):
        return [c for c in self.clusters if c.is_real and c.eigenvalue.real > 0]

    def non_real(self):
        return [c for c in self.clusters if not c.is_real]


def _cluster_indices(eigs, thresh):
    """Single-linkage clustering of complex scalars at distance <= thresh."""
    m = len(eigs)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(eigs[i] - eigs[j]) <= thresh:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _rank(M, cutoff):
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > cutoff))


def _block_sizes(A, lam, mult, tol):
    """Jordan block sizes for eigenvalue ``lam`` from the rank staircase.

    The number of blocks of size >= k is rank((A - lam I)^{k-1}) minus
    rank((A - lam I)^k); ranks are decided by a singular-value cutoff scaled
    to the k-th power of the shifted matrix norm.
    """
    if mult == 1:  # the staircase can only find one block of size 1
        return (1,)
    n = A.shape[0]
    shift = lam.real if lam.imag == 0.0 else lam
    E = A - shift * np.eye(n)
    s1 = float(np.linalg.svd(E, compute_uv=False)[0]) if n else 0.0
    floor = n - mult
    ranks = [n]
    Ek = np.eye(n, dtype=E.dtype)
    for k in range(1, mult + 1):
        Ek = Ek @ E
        r = _rank(Ek, tol * max(1.0, s1) ** k)
        r = min(max(r, floor), ranks[-1])
        ranks.append(r)
        if r == floor:
            break
    if ranks[-1] != floor:
        ranks.append(floor)
    weyr = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    weyr.sort(reverse=True)  # defensive: keep a valid partition of mult
    sizes = []
    for k, w in enumerate(weyr, start=1):
        w_next = weyr[k] if k < len(weyr) else 0
        sizes.extend([k] * (w - w_next))
    sizes.sort(reverse=True)
    return tuple(sizes)


def spectral_profile(A, tol=DEFAULT_TOL):
    """Cluster the eigenvalues of ``A`` and estimate Jordan block sizes.

    Eigenvalues are merged when closer than ``tol * max(1, ||A||_2)``;
    near-real cluster means are snapped onto the real axis and complex
    clusters are emitted in exact conjugate pairs with identical block
    structure.
    """
    A = as_square(A, "A")
    return profile_from_spectrum(A, np.linalg.eigvals(A), float(np.linalg.norm(A, 2)), tol)


def profile_from_spectrum(A, eigs, norm2, tol):
    """:func:`spectral_profile` of the square float matrix ``A`` at ``tol``.

    ``eigs`` are the eigenvalues of ``A`` and ``norm2`` its spectral norm,
    computed once by a caller that profiles the same matrix at several
    tolerances.
    """
    thresh = tol * max(1.0, norm2)
    groups = _cluster_indices(eigs, thresh)

    reps = []
    for idx in groups:
        lam = complex(np.mean(eigs[idx]))
        if abs(lam.imag) <= tol * max(1.0, abs(lam)):
            lam = complex(lam.real, 0.0)
        reps.append((lam, len(idx)))

    clusters = []
    done = [False] * len(reps)
    for i, (lam, mult) in enumerate(reps):
        if lam.imag == 0.0:
            clusters.append(EigenCluster(lam, _block_sizes(A, lam, mult, tol)))
            done[i] = True
    # complex clusters of a real matrix come in conjugate mirrors; compute the
    # upper-half-plane representative once and mirror the block structure
    for i, (lam, mult) in enumerate(reps):
        if done[i] or lam.imag < 0:
            continue
        sizes = _block_sizes(A, lam, mult, tol)
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
    for i, (lam, mult) in enumerate(reps):  # pathological leftovers
        if not done[i]:
            clusters.append(EigenCluster(lam, _block_sizes(A, lam, mult, tol)))
    clusters.sort(key=lambda c: (c.eigenvalue.real, c.eigenvalue.imag))
    return SpectralProfile(tuple(clusters), float(tol))


# ---------------------------------------------------------------------------
# Polar decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PolarFactors:
    """Factors of a polar decomposition.

    ``side == "left"`` means the input factors as orthogonal @ positive,
    ``side == "right"`` as positive @ orthogonal.
    """

    orthogonal: np.ndarray
    positive: np.ndarray
    side: str

    def product(self):
        if self.side == "left":
            return self.orthogonal @ self.positive
        return self.positive @ self.orthogonal


def polar_decompose(A, side="left"):
    """Polar decomposition of an invertible matrix via the SVD.

    side="left" returns (O, P) with A = O P; side="right" returns A = P O.
    O is orthogonal with det(O) of the same sign as det(A); P is symmetric
    positive definite.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    A = as_square(A, "A")
    U, s, Vt = np.linalg.svd(A)
    if s[-1] <= 1e-13 * max(1.0, s[0]):
        raise SingularMatrixError("polar decomposition requires an invertible matrix")
    O = U @ Vt
    if side == "left":
        P = Vt.T @ (s[:, None] * Vt)
    else:
        P = U @ (s[:, None] * U.T)
    P = 0.5 * (P + P.T)
    return PolarFactors(orthogonal=O, positive=P, side=side)


# ---------------------------------------------------------------------------
# Canonical skew logarithm on SO(n)
# ---------------------------------------------------------------------------


def so_log(O, tol=DEFAULT_TOL):
    """Canonical real skew-symmetric logarithm of a special orthogonal matrix.

    The matrix is block-diagonalised by a real Schur similarity into planar
    rotation blocks and +1/-1 entries; rotation angles are taken in
    (-pi, pi] and -1 eigenvalue pairs are mapped to angle pi.  The output L
    is exactly skew-symmetric and satisfies expm(L) ~= O.
    """
    O = as_square(O, "O")
    n = O.shape[0]
    ortho_defect = float(np.linalg.norm(O.T @ O - np.eye(n)))
    if ortho_defect > max(tol, 1e-10) * n or np.linalg.det(O) < 0:
        raise NotSpecialOrthogonalError("input is not special orthogonal within tolerance")
    T, Z = sla.schur(O, output="real")
    S = np.zeros((n, n))
    minus_ones = []
    i = 0
    while i < n:
        if i + 1 < n and abs(T[i + 1, i]) > 1e-12:
            theta = float(np.arctan2(T[i + 1, i], T[i, i]))
            S[i, i + 1] = -theta
            S[i + 1, i] = theta
            i += 2
        else:
            d = T[i, i]
            if abs(d - 1.0) > abs(d + 1.0):
                minus_ones.append(i)
            i += 1
    if len(minus_ones) % 2:
        raise NotSpecialOrthogonalError("odd number of -1 eigenvalues")
    for a, b in zip(minus_ones[0::2], minus_ones[1::2]):
        S[a, b] = -np.pi
        S[b, a] = np.pi
    L = Z @ S @ Z.T
    return 0.5 * (L - L.T)


def cartan_killing(X, Y):
    """Cartan-Killing form 2n tr(XY) - 2 tr(X) tr(Y) on n x n matrices."""
    X = as_square(X, "X")
    Y = as_square(Y, "Y")
    require_same_order(X, Y)
    n = X.shape[0]
    return float(2.0 * n * np.trace(X @ Y) - 2.0 * np.trace(X) * np.trace(Y))
