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
import math
import warnings
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


def _curve_parameter(t):
    """``t`` as a float; a non-finite parameter is a ValueError, not an overflow downstream."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    return t


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


_det = _overflow_guard("determinant")(np.linalg.det)


def _relative_gap(A, B):
    """``||A - B||_F / ||B||_F``, free of overflow: A, B scaled by their largest entry.

    Scale-free, so a zero ``B`` is matched only by a zero ``A`` (any other ``A`` is ``inf``)."""
    s = float(max(np.abs(A).max(), np.abs(B).max()))
    if s == 0.0:
        return 0.0
    scale = float(np.linalg.norm(B / s))
    return float(np.linalg.norm(A / s - B / s)) / scale if scale else math.inf


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


# Largest 1-norm condition number of the eigenvector matrix for which a matrix
# function is taken through the eigendecomposition: cond(V) u <~ 1e-12, far
# inside the 1e-8 endpoint gates.  The bound is scale-free, so A and cA take
# the same route.
_EIGENBASIS_COND_MAX = 1e4


def _eigenbasis(eigs, V, left=None):
    """``(eigs, left @ V, V^{-1})`` for ``A = V diag(eigs) V^{-1}``, from which :func:`_spectral`
    takes ``left @ f(A)``; None when ``cond_1(V)`` exceeds ``_EIGENBASIS_COND_MAX`` (defective or
    nearly so: the caller falls back to scipy).  The error is about ``cond(V) u`` (Higham 2008,
    section 4.5); near-defective ``A`` is the case of Moler and Van Loan's warning (SIAM Rev.
    2003, method 14)."""
    try:
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError:  # eigenbasis exactly singular: a defective A
        return None
    if np.linalg.norm(V, 1) * np.linalg.norm(Vinv, 1) > _EIGENBASIS_COND_MAX:
        return None
    return eigs, (V if left is None else left @ V), Vinv


def _spectral(f, basis):
    """``left @ V diag(f(eigs)) V^{-1}`` from the :func:`_eigenbasis` of ``A``."""
    eigs, LV, Vinv = basis
    return (LV * f(eigs)) @ Vinv


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
    basis = _eigenbasis(eigs, V)
    L = _logm(A) if basis is None else _spectral(np.log, basis)
    if np.iscomplexobj(L):
        dirt = float(np.abs(L.imag).max())
        if dirt > tol * max(1.0, float(np.abs(L.real).max())):
            raise SpectrumOnCutError("logarithm came back complex; spectrum too close to the cut")
        L = L.real
    return L


@_overflow_guard("matrix logarithm")
def _logm(A):
    """``scipy.linalg.logm(A)`` without its warnings; an overflow of its error estimate raises.

    The estimate ``expm(logm A) - A`` can overflow (ValueError from its finiteness check), and its
    "result may be inaccurate" warning fires near 1e-12 on logarithms that pass the endpoint gates.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return _scipy_linalg().logm(A)
        except ValueError as exc:
            raise IllConditionedError("matrix logarithm overflows the float range") from exc


def fractional_power(A, t, tol=DEFAULT_TOL):
    """A^t = exp(t log A) for matrices with positive real spectrum.

    Taken as ``V diag(lam^t) V^{-1}`` from one eigendecomposition, or through
    ``expm(t logm A)`` when the eigenbasis is ill conditioned.

    Raises SpectrumNotPositiveError if any eigenvalue fails to be positive
    real within ``tol``.
    """
    A = as_squares(A=A)[0]
    eigs, V = np.linalg.eig(A)
    if not all(is_positive_real(lam, tol) for lam in eigs):
        raise SpectrumNotPositiveError("spectrum is not positive real")
    require_invertible(A, "A")
    t = _curve_parameter(t)
    basis = _eigenbasis(eigs, V)
    if basis is None:
        return _expm(t * _log_from_eig(A, eigs, V, tol))
    return _power(basis, t)


@_overflow_guard("matrix power")
def _power(basis, t):
    return _spectral(lambda lam: lam**t, basis).real  # real up to rounding for complex pairs


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


def _kernel_staircase(A, lam, mult, tol):
    """``E = A - lam I``, kernel bases of E^0, E^1, ..., and a left kernel basis ``U`` of the last
    power (``U^H E^k = 0``, the left generalised eigenspace), from one full SVD per power.

    Rank E^k counts singular values above ``tol * s^k`` for ``s = max(1, ||E||_2)``, read as
    those of ``E (E/s)^(k-1)`` above ``tol * s`` so that no power overflows; clamped to
    [n - mult, rank E^(k-1)]; if ``mult`` powers stay above n - mult, one forced step ends there.
    """
    n = A.shape[0]
    shift = lam.real if lam.imag == 0.0 else lam
    E = A - shift * np.eye(n)
    floor, rank = n - mult, n
    bases = [np.zeros((n, 0), dtype=E.dtype)]
    Ek = E
    for k in range(1, mult + 1):
        U, s, Vh = np.linalg.svd(Ek)
        if k == 1:
            scale = max(1.0, float(s[0]))
            step = E / scale
        rank = min(max(int(np.count_nonzero(s > tol * scale)), floor), rank)
        bases.append(Vh[rank:].conj().T)
        if rank == floor:
            return E, bases, U[:, floor:]
        Ek = Ek @ step
    bases.append(Vh[floor:].conj().T)  # the forced step
    return E, bases, U[:, floor:]


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
    """A (mean, multiplicity) pair per single-linkage cluster at the cut ``tol * max(1, norm2)``,
    near-real means snapped onto the real axis.  Each eigenvalue merges every cluster within the
    cut; a mean sums its members in ``eigs`` order, so conjugate clusters are exact mirrors."""
    cut = tol * max(1.0, norm2)
    eigs = eigs.tolist()
    clusters = []  # index lists, ascending
    for k, lam in enumerate(eigs):
        near = [c for c in clusters if any(abs(eigs[i] - lam) <= cut for i in c)]
        clusters = [c for c in clusters if c not in near] + [sorted(sum(near, [k]))]
    reps = []
    for c in clusters:
        lam = complex(sum(eigs[i] for i in c) / len(c))
        reps.append((complex(lam.real, 0.0) if _on_real_axis(lam, tol) else lam, len(c)))
    return reps


def profile_from_spectrum(A, eigs, norm2, tol):
    """:func:`spectral_profile` of the square float matrix ``A`` at ``tol``.

    ``eigs`` are the eigenvalues of ``A`` and ``norm2`` its spectral norm,
    computed once by a caller that profiles the same matrix at several
    tolerances.
    """
    reps = _cluster_means(eigs, norm2, tol)
    # eig of a real matrix returns exact conjugate pairs and single linkage is mirror-symmetric, so
    # each lower-half-plane mean is the exact conjugate of an upper one and takes its block sizes
    upper = {lam: _block_sizes(A, lam, mult, tol) for lam, mult in reps if lam.imag > 0}
    clusters = []
    for lam, mult in reps:
        sizes = upper.get(complex(lam.real, abs(lam.imag))) or _block_sizes(A, lam, mult, tol)
        clusters.append(EigenCluster(lam, sizes))
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
