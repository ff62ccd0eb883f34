"""Matrix-analysis engine.

Exponential, real principal logarithm, fractional powers, eigenvalue/Jordan
structure estimation, polar decomposition, the canonical skew logarithm of a
special orthogonal matrix, and the Cartan-Killing form of n x n matrices.
All functions are pure and operate on plain ``numpy`` arrays.

``scipy.linalg`` is imported on first use, through :func:`_scipy_linalg`: the
metric, curvature and most arc work never need it, and its import dominates
the start of a short process.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IllConditionedError,
    NotSpecialOrthogonalError,
    SingularMatrixError,
    SpectrumNotPositiveError,
    SpectrumOnCutError,
)

DEFAULT_TOL = 1e-8


def as_squares(**operands):
    """The keyword operands as one ``(k, n, n)`` stack of finite square float matrices.

    A defect names the first operand that has it (ValueError; TypeError for
    non-numbers); DimensionMismatchError when the orders differ.
    """
    try:
        stack = np.asarray(list(operands.values()), dtype=float)
        if stack.ndim == 3 and stack.shape[1] == stack.shape[2] > 0 and np.isfinite(stack).all():
            return stack
    except (TypeError, ValueError):  # ragged or not numbers: the loop below names the operand
        pass
    orders = set()
    for name, value in operands.items():
        try:
            m = np.asarray(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"{name} is not a numeric matrix: {exc}") from exc
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError(f"{name} must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError(f"{name} has non-finite entries")
        orders.add(m.shape[0])
    raise DimensionMismatchError(f"matrix orders differ: {sorted(orders)}")


_SINGULAR_RTOL = 1e-13  # the singular cut, relative to max(1, sigma_max)


def _is_singular(s):  # s: singular values, largest first
    return s[-1] <= _SINGULAR_RTOL * max(1.0, s[0])


def require_invertible(a, name="matrix"):
    """Raise SingularMatrixError when the smallest singular value is negligible."""
    if _is_singular(np.linalg.svd(a, compute_uv=False)):
        raise SingularMatrixError(f"{name} is numerically singular")


def as_point_and_tangents(base, name, **tangents):
    """:func:`as_squares` of the base (under ``name``) and the tangents, then
    :func:`require_invertible` of the base.  Returns the stack, base first."""
    stack = as_squares(**{name: base}, **tangents)
    require_invertible(stack[0], name)
    return stack


def _overflow_guard(what):
    """Decorator: no floating-point warning escapes the function (an ``errstate`` decorator costs
    half a ``with``), and a non-finite result (numbers or arrays) raises IllConditionedError."""

    def decorate(fn):
        @functools.wraps(fn)
        @np.errstate(over="ignore", invalid="ignore")
        def guarded(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not np.isfinite(out).all():
                raise IllConditionedError(f"{what} overflows the float range")
            return out

        return guarded

    return decorate


def _relative_gap(A, B):
    """``||A - B||_F / max(1, ||B||_F)``, free of overflow: A, B scaled by their largest entry."""
    s = float(max(np.abs(A).max(), np.abs(B).max())) or 1.0
    return float(np.linalg.norm(A / s - B / s)) / max(1.0 / s, float(np.linalg.norm(B / s)))


def _on_real_axis(lam, tol):
    """The real-axis test: ``|Im lam| <= tol * max(1, |lam|)`` for a complex ``lam``."""
    return abs(lam.imag) <= tol * max(1.0, abs(lam))


def is_negative_real(lam, tol=DEFAULT_TOL):
    """Decide whether the complex scalar ``lam`` counts as a negative real."""
    lam = complex(lam)
    return lam.real < 0 and _on_real_axis(lam, tol)


def is_positive_real(lam, tol=DEFAULT_TOL):
    lam = complex(lam)
    return lam.real > 0 and _on_real_axis(lam, tol)


def _scipy_linalg():
    """The ``scipy.linalg`` module, imported on the first call.

    Callers look each function up on the module at the call, so a wrapper
    installed on the module attribute sees every call.
    """
    import scipy.linalg

    return scipy.linalg


@_overflow_guard("matrix exponential")
def _expm(A, left=None, right=None):
    """``left @ scipy.linalg.expm(A) @ right`` of float matrices; either factor may be omitted."""
    E = _scipy_linalg().expm(A)
    if left is not None:
        E = left @ E
    if right is not None:
        E = E @ right
    return E


def mat_exp(A):
    """Matrix exponential e^A (scaling-and-squaring Pade)."""
    return _expm(as_squares(A=A)[0])


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
    A = as_point_and_tangents(A, "A")[0]
    return _log_from_eig(A, *np.linalg.eig(A), tol)


def _log_from_eig(A, eigs, V, tol):
    """:func:`real_log_principal` of the invertible ``A = V diag(eigs) V^{-1}``."""
    if any(is_negative_real(lam, tol) for lam in eigs):
        raise SpectrumOnCutError("eigenvalue on the closed negative real axis")
    try:
        Vinv = np.linalg.inv(V)
        diagonal = np.linalg.norm(V, 1) * np.linalg.norm(Vinv, 1) <= _EIGENBASIS_COND_MAX
    except np.linalg.LinAlgError:  # eigenbasis exactly singular: a defective A
        diagonal = False
    L = (V * np.log(eigs)) @ Vinv if diagonal else _scipy_linalg().logm(A)
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
    A = as_squares(A=A)[0]
    eigs, V = np.linalg.eig(A)
    if not all(is_positive_real(lam, tol) for lam in eigs):
        raise SpectrumNotPositiveError("spectrum is not positive real")
    require_invertible(A, "A")
    return mat_exp(float(t) * _log_from_eig(A, eigs, V, tol))


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


def _kernel_staircase(A, lam, mult, tol):
    """``E = A - lam I`` and kernel bases of E^0, E^1, ..., from one full SVD per power.

    Rank E^k counts singular values above ``tol * max(1, ||E||_2)^k``, clamped to
    [n - mult, rank E^(k-1)]; if ``mult`` powers stay above n - mult, one forced step ends there.
    """
    n = A.shape[0]
    shift = lam.real if lam.imag == 0.0 else lam
    E = A - shift * np.eye(n)
    floor, rank = n - mult, n
    bases = [np.zeros((n, 0), dtype=E.dtype)]
    Ek = E
    for k in range(1, mult + 1):
        _, s, Vh = np.linalg.svd(Ek)
        if k == 1:
            scale = max(1.0, float(s[0]))
        rank = min(max(int(np.count_nonzero(s > tol * scale**k)), floor), rank)
        bases.append(Vh[rank:].conj().T)
        if rank == floor:
            return E, bases
        Ek = Ek @ E
    bases.append(Vh[floor:].conj().T)  # the forced step
    return E, bases


def _jordan_partition(bases):
    """Jordan block sizes, largest first: dim ker E^k - dim ker E^(k-1) blocks have size >= k."""
    dims = [b.shape[1] for b in bases]
    # w_k = dim ker E^k - dim ker E^(k-1), sorted defensively to keep a valid partition of mult
    weyr = sorted((hi - lo for lo, hi in zip(dims, dims[1:])), reverse=True) + [0]
    # w_k - w_(k+1) blocks of size exactly k
    return tuple(k for k in range(len(weyr) - 1, 0, -1) for _ in range(weyr[k - 1] - weyr[k]))


def _block_sizes(A, lam, mult, tol):
    """Jordan block sizes for eigenvalue ``lam`` from the kernel staircase."""
    if mult == 1:  # the staircase can only find one block of size 1
        return (1,)
    return _jordan_partition(_kernel_staircase(A, lam, mult, tol)[1])


def spectral_profile(A, tol=DEFAULT_TOL):
    """Cluster the eigenvalues of ``A`` and estimate Jordan block sizes.

    Eigenvalues are merged when closer than ``tol * max(1, ||A||_2)``;
    near-real cluster means are snapped onto the real axis and complex
    clusters are emitted in exact conjugate pairs with identical block
    structure.
    """
    A = as_squares(A=A)[0]
    return profile_from_spectrum(A, np.linalg.eigvals(A), float(np.linalg.norm(A, 2)), tol)


def _cluster_means(eigs, norm2, tol):
    """The cut ``tol * max(1, norm2)`` and a (mean, multiplicity) pair per
    eigenvalue cluster at that cut, near-real means snapped onto the real axis."""
    thresh = tol * max(1.0, norm2)
    reps = []
    for idx in _cluster_indices(eigs, thresh):
        lam = complex(np.mean(eigs[idx]))
        reps.append((complex(lam.real, 0.0) if _on_real_axis(lam, tol) else lam, len(idx)))
    return thresh, reps


def profile_from_spectrum(A, eigs, norm2, tol):
    """:func:`spectral_profile` of the square float matrix ``A`` at ``tol``.

    ``eigs`` are the eigenvalues of ``A`` and ``norm2`` its spectral norm,
    computed once by a caller that profiles the same matrix at several
    tolerances.
    """
    thresh, reps = _cluster_means(eigs, norm2, tol)
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
    A = as_squares(A=A)[0]
    U, s, Vt = np.linalg.svd(A)
    if _is_singular(s):
        raise SingularMatrixError("polar decomposition requires an invertible matrix")
    O = U @ Vt
    if side == "left":
        P = Vt.T @ (s[:, None] * Vt)
    else:
        P = U @ (s[:, None] * U.T)
    P = 0.5 * P + 0.5 * P.T  # halves first: no overflow
    return PolarFactors(orthogonal=O, positive=P, side=side)


# ---------------------------------------------------------------------------
# Canonical skew logarithm on SO(n)
# ---------------------------------------------------------------------------


def so_log(O, tol=DEFAULT_TOL):
    """Canonical real skew-symmetric logarithm of a special orthogonal matrix.

    Rotation angles are taken in (-pi, pi] and -1 eigenvalue pairs are mapped
    to angle pi.  With no eigenvalue at -1 within ``tol`` this is the skew
    part of :func:`real_log_principal`.  Otherwise the matrix is
    block-diagonalised by a real Schur similarity into planar rotation blocks
    and +1/-1 entries.  The output L is exactly skew-symmetric and satisfies
    expm(L) ~= O.
    """
    O = as_squares(O=O)[0]
    n = O.shape[0]
    ortho_defect = float(np.linalg.norm(O.T @ O - np.eye(n)))
    if ortho_defect > max(tol, 1e-10) * n or np.linalg.det(O) < 0:
        raise NotSpecialOrthogonalError("input is not special orthogonal within tolerance")
    try:  # real_log_principal without its singular test: O is orthogonal
        L = _log_from_eig(O, *np.linalg.eig(O), tol)
    except SpectrumOnCutError:
        L = _schur_so_log(O)
    return 0.5 * (L - L.T)


def _schur_so_log(O):
    """Skew logarithm of the special orthogonal ``O`` from its real Schur form."""
    n = O.shape[0]
    T, Z = _scipy_linalg().schur(O, output="real")
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
    return Z @ S @ Z.T


def cartan_killing(X, Y):
    """Cartan-Killing form 2n tr(XY) - 2 tr(X) tr(Y) on n x n matrices."""
    X, Y = as_squares(X=X, Y=Y)
    n = X.shape[0]
    return float(2.0 * n * np.trace(X @ Y) - 2.0 * np.trace(X) * np.trace(Y))
