"""Matrix-analysis engine.

Exponential, real logarithms, eigenvalue/Jordan structure estimation, polar
decomposition and the canonical skew logarithm of a special orthogonal matrix;
also the JSON matrix document that the CLI and the verify suites write.  A
real power ``A^t`` is ``geodesy.Geodesic(I, real_log_principal(A)).point(t)``.
All functions are pure and operate on plain ``numpy`` arrays.

The exponential is Pade scaling and squaring (:func:`_expm`), the logarithm
inverse scaling and squaring (:func:`_logm`), and the rotation logarithm one
``eigh`` (:func:`_so_log`): the package needs no module beyond numpy.

Every LAPACK factorisation, Frobenius ``norm`` and finiteness test of the
package is taken through :mod:`tracegeo._lapack` (numpy.linalg's own gufuncs,
without its per-call wrapper); no ``numpy.linalg`` function is called.  Every
profile reads its spectrum from :func:`_spectrum`: one ``eig`` and the spectral
norm.
"""

import cmath
import functools
import math

import numpy as np

from . import _lapack
from .errors import (
    DimensionMismatchError,
    IllConditionedError,
    NotSpecialOrthogonalError,
    SingularMatrixError,
    SpectrumOnCutError,
)

DEFAULT_TOL = 1e-8


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a tracegeo record."""


class _Record:
    """Base of the package's immutable results.  A subclass annotates its fields, fills them into
    the instance ``__dict__`` in its own ``__init__``, and names in ``_fields`` those its repr
    shows.  A record equals itself alone: copies and unpickled records are distinct objects."""

    _fields = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class _Value(_Record):
    """A record equal to one of its own class with equal ``_fields``, and hashed by them."""

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())


def as_squares(*, stacks=False, **operands):
    """The keyword operands as one ``(k, n, n)`` stack of finite square real matrices.

    With ``stacks=True`` each operand may also be a stack of matrices, shape ``(*s, n, n)``
    shared by every operand, and the result is ``(k, *s, n, n)``.  A defect names the first
    operand that has it (ValueError; TypeError for non-numbers and for complex operands, which
    are refused, not cast); DimensionMismatchError when the orders or the shapes differ.
    """
    try:
        stack = np.asarray(list(operands.values()))
        if stack.dtype.char != "d":
            if stack.dtype.kind == "c":
                raise TypeError  # a cast would drop the imaginary part: the loop names the operand
            stack = stack.astype(float)
        if ((stack.ndim == 3 or stacks and stack.ndim > 3)
                and stack.shape[-1] == stack.shape[-2] > 0 and _lapack.all_finite(stack)):
            return stack
    except (TypeError, ValueError):  # ragged, complex or not numbers: the loop names the operand
        pass
    shapes = []
    for name, value in operands.items():
        try:
            m = np.asarray(value)
            if m.dtype.kind != "c":
                m = m.astype(float)
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"{name} is not a numeric matrix: {exc}") from exc
        if m.dtype.kind == "c":
            raise TypeError(f"{name} is not a real matrix")
        if not (m.ndim == 2 or stacks and m.ndim > 2) or not m.shape[-1] == m.shape[-2] > 0:
            raise ValueError(f"{name} must be square, got shape {m.shape}")
        if not _lapack.all_finite(m):
            raise ValueError(f"{name} has non-finite entries")
        shapes.append(m.shape)
    orders = sorted({shape[-1] for shape in shapes})
    raise DimensionMismatchError(f"matrix orders differ: {orders}" if len(orders) > 1
                                 else f"operand shapes differ: {shapes}")


_SINGULAR_RTOL = 1e-13  # the singular cut, relative to sigma_max: cA is singular exactly when A is


def _is_singular(s):  # s: singular values, largest first, along axis 0 (a stack's, transposed)
    return s[-1] <= _SINGULAR_RTOL * s[0]


# (bytes, shape, dtype) of the last operand, a matrix or a stack, the cut passed.  The SVD's
# verdict is a function of these alone, so an equal operand passes again without one: the verify
# suites cut one base point, or one stack of them, once per identity they check there.  One entry;
# a refusal is never remembered.  Every entry is a pass, so callers that share it (threads, tests)
# can cost each other SVDs, not verdicts.
_passed = [None]


def require_invertible(a, name="matrix"):
    """Raise SingularMatrixError when the smallest singular value is negligible; of a stack of
    matrices (the last two axes), one batched SVD cuts each, and the first singular one in C order
    is named by its stack index.  An operand equal in bytes, shape and dtype to the last one passed
    is passed with no SVD."""
    a = np.asarray(a)
    key = (a.tobytes(), a.shape, a.dtype)
    if key == _passed[0]:
        return
    s = _lapack.svd(a, compute_uv=False)
    if _is_singular(s) if s.ndim == 1 else np.count_nonzero(_is_singular(s.T)):  # no reduction
        at = _at_member(_is_singular(s.T).T)  # the flags in the stack's shape
        raise SingularMatrixError(f"{name} is numerically singular{at}")
    _passed[0] = key


def _at_member(flags):
    """`` at stack index i`` for the first true flag of a stack's flags in C order (``i`` an int
    for one stack axis, else a tuple); nothing for the one flag of a single matrix."""
    return _at_index(np.unravel_index(np.argmax(flags), flags.shape) if flags.ndim else ())


def _at_index(index):
    """`` at stack index i`` for the member at the tuple ``index``; nothing for ``()``."""
    index = tuple(int(i) for i in index)
    return f" at stack index {index[0] if len(index) == 1 else index}" if index else ""


def as_point_and_tangents(base, name, *, stacks=False, **tangents):
    """:func:`as_squares` of the base (under ``name``) and the tangents, then
    :func:`require_invertible` of the base.  Returns the stack, base first."""
    stack = as_squares(stacks=stacks, **{name: base}, **tangents)
    require_invertible(stack[0], name)
    return stack


def _scalar(x):
    """A result of a stack-taking function: a 0-d value as a Python ``float``, a stack as itself."""
    return x if x.ndim else float(x)


def matrix_document(M, label=None):
    """JSON form ``{"n", "data"[, "label"]}`` of a matrix, as the CLI reads and writes it."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    doc = {"n": int(M.shape[0]), "data": M.tolist()}
    if label:
        doc["label"] = label
    return doc


def _curve_parameter(t):
    """``t`` as a float; a non-finite parameter is a ValueError, not an overflow downstream."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    return t


def _curve_parameters(t):
    """An array of curve parameters as floats; each must be finite (ValueError)."""
    t = np.asarray(t)
    if t.dtype.kind not in "biuf":
        raise ValueError("t must be a real number or an array of them")
    t = t.astype(float)
    if not _lapack.all_finite(t):
        raise ValueError("t must be finite")
    return t


def _tolerance(tol):
    """``tol`` as a float; anything but a positive finite number is a ValueError."""
    try:
        if 0 < tol < math.inf:
            return float(tol)
    except TypeError:  # not a number
        pass
    raise ValueError(f"tol must be a positive finite number, got {tol!r}")


def _overflow_guard(what):
    """Decorator: no floating-point warning escapes the function (an ``errstate`` decorator costs
    half a ``with``), and a non-finite result (:func:`_finite`) raises IllConditionedError."""

    def decorate(fn):
        @functools.wraps(fn)
        @np.errstate(over="ignore", invalid="ignore")
        def guarded(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not _finite(out):
                raise IllConditionedError(f"{what} overflows the float range")
            return out

        return guarded

    return decorate


def _finite(x):
    """Whether ``x`` (numbers or arrays) is finite; a ``float`` by ``math.isfinite``, with no numpy
    dispatch."""
    return math.isfinite(x) if isinstance(x, float) else _lapack.all_finite(x)


@_overflow_guard("determinant")
def _det(a):
    return _lapack.det(a)


@np.errstate(over="ignore", invalid="ignore")
def _relative_gap(A, B):
    """``||A - B||_F / ||B||_F``, free of overflow.

    Both norms come straight from ``_lapack.norm`` (the root of a sum of squares) when each
    lies in (1e-150, 1e150), or ``A - B`` is exactly zero: no square can then overflow, and a
    square that underflows loses at most 5e-324 against a sum above 1e-300.  Outside that range
    A and B are first scaled by the power of two that brings their largest entry into [1/2, 1):
    the scaling is exact, so ``A - B`` is the scaled difference with no rounding of its own to
    cancel.  ``||B||`` is taken at B's own power of two, so a B far below A keeps its norm.
    Scale-free, so a zero ``B`` is matched only by a zero ``A`` (any other ``A`` is ``inf``)."""
    D = A - B
    gap, norm = _lapack.norm(D), _lapack.norm(B)
    if 1e-150 < norm < 1e150 and (1e-150 < gap < 1e150 or not np.count_nonzero(D)):
        return gap / norm
    b = float(np.abs(B).max())
    if b == 0.0:
        return math.inf if A.any() else 0.0
    e, f = math.frexp(max(float(np.abs(A).max()), b))[1], math.frexp(b)[1]
    gap = _lapack.norm(np.ldexp(A, -e) - np.ldexp(B, -e))
    return float(np.ldexp(gap / _lapack.norm(np.ldexp(B, -f)), e - f))


def _on_real_axis(lam, tol):
    """The real-axis test: ``|Im lam| <= tol * max(1, |lam|)`` for a complex ``lam``."""
    return abs(lam.imag) <= tol * max(1.0, abs(lam))


# Higham (SIAM J. Matrix Anal. Appl. 26, 2005), table 2.3: for each Pade degree m, the largest
# 1-norm at which the diagonal approximant r_m = p_m(A) / p_m(-A) meets e^A to unit roundoff, and
# p_m's coefficients b_j = (2m - j)! / (j! (m - j)!) split by parity: V = sum b_2k A^2k over the
# even powers and U = A W, W = sum b_2k+1 A^2k, so that r_m = (V - U)^-1 (V + U).
_PADE = tuple(
    (theta, np.array([[math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j))
                       for j in range(parity, m + 1, 2)] for parity in (0, 1)], dtype=float))
    for m, theta in ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
                     (7, 9.504178996162932e-1), (9, 2.097847961257068), (13, 5.371920351148152))
)


@_overflow_guard("matrix exponential")
def _expm(A, left=None):
    """``left @ e^A`` of a float matrix (``left`` may be omitted), by scaling and squaring: the
    lowest Pade degree whose bound holds ``||A||_1``, else degree 13 on ``A / 2^s`` squared ``s``
    times (Higham 2005, algorithm 2.3).  Each squaring of an upper-triangular ``A`` resets the
    diagonal to its exact exponentials, where the rounding of the approximant would grow ``2^s``
    fold (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 2009, section 2).  A 1-norm past the
    float range raises.  The even powers fill one preallocated ``(k, n, n)`` stack in place, and
    one product with the coefficient rows gives both V and W."""
    columns = abs(A).T.tolist()
    norm = max(map(sum, columns))
    if not math.isfinite(norm):
        raise IllConditionedError("matrix exponential overflows the float range")
    for theta, coef in _PADE:
        if norm <= theta:
            break
    s = math.ceil(math.log2(norm / theta)) if norm > theta else 0
    upper = not any(any(column[j + 1:]) for j, column in enumerate(columns))
    diagonal = np.diagonal(A)
    if s:
        A = A * 2.0**-s
    n, powers = A.shape[0], coef.shape[1]
    evens = np.zeros((powers, n, n))  # I, A^2, A^4, ..., each written in place
    evens[0].flat[:: n + 1] = 1.0
    np.matmul(A, A, out=evens[1])
    for j in range(2, powers):
        np.matmul(evens[j - 1], evens[1], out=evens[j])
    V, W = (coef @ evens.reshape(powers, n * n)).reshape(2, n, n)
    U = A @ W
    E = _lapack.solve(V - U, V + U)
    for k in range(1, s + 1):
        E = E @ E
        if upper:
            np.fill_diagonal(E, np.exp(diagonal * 2.0 ** (k - s)))
    return E if left is None else left @ E


def mat_exp(A):
    """Matrix exponential e^A (scaling and squaring with Pade degree 3 to 13, Higham 2005)."""
    return _expm(as_squares(A=A)[0])


# Largest 1-norm condition number of the eigenvector matrix for which a matrix
# function is taken through the eigendecomposition: cond(V) u <~ 1e-12, far
# inside the 1e-8 endpoint gates.  The bound is scale-free, so A and cA take
# the same route.
_EIGENBASIS_COND_MAX = 1e4


def _eigenbasis(eigs, V, left=None):
    """``(eigs, left @ V, V^{-1})`` for ``A = V diag(eigs) V^{-1}``, from which :func:`_spectral`
    takes ``left @ f(A)``, or batched for a stack of them; None when ``cond_1(V)`` (the largest
    column sums of ``|V|`` and ``|V^{-1}|``, multiplied) exceeds ``_EIGENBASIS_COND_MAX`` for one
    (defective or nearly so: the caller falls back to ``_logm`` or ``_expm``).  The error is about
    ``cond(V) u`` (Higham 2008, section 4.5); near-defective ``A`` is the case of Moler and Van
    Loan's warning (SIAM Rev. 2003, method 14)."""
    try:
        Vinv = _lapack.inv(V)
    except np.linalg.LinAlgError:  # eigenbasis exactly singular: a defective A
        return None
    cond = abs(V).sum(axis=-2).max(axis=-1) * abs(Vinv).sum(axis=-2).max(axis=-1)
    if np.count_nonzero(cond > _EIGENBASIS_COND_MAX):
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
    near-defective inputs fall back to inverse scaling and squaring (:func:`_logm`).

    Raises SingularMatrixError for a numerically singular ``A``, and
    SpectrumOnCutError for an eigenvalue on the closed negative real axis within ``tol``.
    """
    A, tol = as_point_and_tangents(A, "A")[0], _tolerance(tol)
    eigs, V = _lapack.eig(A)
    if any(lam.real < 0 and _on_real_axis(lam, tol) for lam in eigs.tolist()):
        raise SpectrumOnCutError("eigenvalue on the closed negative real axis")
    return _real_log(A, eigs, V, (), tol)


# The 8-point Gauss-Legendre rule's positive nodes on [-1, 1] and weights.  Moved to [0, 1], on
# log(I + Y) = int_0^1 Y (I + sY)^-1 ds it is the [8/8] Pade approximant (Higham 2008, 11.4).
_GL = np.array([
    [0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362],
    [0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706]])
_GAUSS = 0.5 * np.array([np.hstack([1.0 - _GL[0], 1.0 + _GL[0]]), np.hstack([_GL[1], _GL[1]])])


@_overflow_guard("matrix logarithm")
def _logm(A):
    """Principal logarithm of a float matrix with no eigenvalue on the closed negative real axis, by
    inverse scaling and squaring (Cheng, Higham, Kenney and Laub, SIAM J. Matrix Anal. Appl. 22,
    2001): ``log A = 2^k log X`` for ``X = A^(1/2^k)`` with ``||X - I||_1 <= 1/4``.  Each square
    root is the scaled product Denman-Beavers iteration (Higham 2008, (6.29)), ended by a step from
    ``||M - I||_1 <= 2^-26``; 100 steps or a singular M raise IllConditionedError."""
    n = A.shape[0]
    I = np.eye(n)
    X, k = A, 0
    while np.abs(X - I).sum(axis=0).max() > 0.25:
        M, k = X, k + 1
        for _ in range(100):
            gap = np.abs(M - I).sum(axis=0).max()  # >= 1 for a singular M
            try:
                P = _lapack.inv(M)
            except np.linalg.LinAlgError:
                break
            g = math.exp(-_lapack.slogdet(M)[1] / (2 * n))
            X, M = 0.5 * (X @ (g * I + P / g)), 0.5 * I + 0.25 * (g * g * M + P / (g * g))
            if gap <= 2.0**-26:
                break
        if gap > 2.0**-26:
            raise IllConditionedError("matrix square root did not converge")
    Y = X - I
    terms = _lapack.solve(I + _GAUSS[0, :, None, None] * Y, np.broadcast_to(Y, (8, n, n)))
    return np.ldexp(np.tensordot(_GAUSS[1], terms, 1), k)


# ---------------------------------------------------------------------------
# Eigenvalue clusters and Jordan block sizes
# ---------------------------------------------------------------------------


class EigenCluster(_Value):
    """One eigenvalue cluster with its Jordan block-size multiset.  ``members`` are the positions,
    in the spectrum the profile was built from, of the eigenvalues the cluster merged; neither
    equality nor the repr reads them."""

    eigenvalue: complex
    block_sizes: tuple[int, ...]
    members: tuple[int, ...]
    _fields = ("eigenvalue", "block_sizes")

    def __init__(self, eigenvalue, block_sizes, members=()):
        self.__dict__.update(eigenvalue=eigenvalue, block_sizes=block_sizes, members=members)

    @property
    def multiplicity(self):
        return sum(self.block_sizes)

    @property
    def is_real(self):
        # A self-conjugate cluster's mean is exactly real (see _clusters); any other is not.
        return self.eigenvalue.imag == 0.0


class SpectralProfile(_Value):
    """Eigenvalue clusters of a matrix, with the tolerance that produced them."""

    clusters: tuple[EigenCluster, ...]
    tolerance: float
    _fields = ("clusters", "tolerance")

    def __init__(self, clusters, tolerance):
        self.__dict__.update(clusters=clusters, tolerance=tolerance)

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
    """``E = A - lam I``, kernel bases of E^0, E^1, ..., a left kernel basis ``U`` of the last
    power (``U^H E^k = 0``, the left generalised eigenspace), from one full SVD per power, and
    whether no singular value of a power sits within a decade of its rank cut (:func:`_decade`).

    Rank E^k counts singular values above ``tol * s^k`` for ``s = max(1, ||E||_2)``, read as
    those of ``E (E/s)^(k-1)`` above ``tol * s`` so that no power overflows; clamped to
    [n - mult, rank E^(k-1)]; if ``mult`` powers stay above n - mult, one forced step ends there.
    An ``A - lam I`` past the float range is taken as ``E = A/2 - (lam/2) I``: halving rounds
    nothing above the subnormals, and there ``||E||_2 >> 1``, so each cut is the same fraction of
    ``||E||_2`` and every rank decision is the same.
    """
    n = A.shape[0]
    shift = lam.real if lam.imag == 0.0 else lam
    with np.errstate(over="ignore", invalid="ignore"):
        E = A - shift * np.eye(n)
        if not _lapack.all_finite(E):  # the halves of two finite floats differ by a finite float
            E = 0.5 * A - (0.5 * shift) * np.eye(n)
            if not _lapack.all_finite(E):  # a lam past the float range, which _spectrum refuses
                raise IllConditionedError("kernel staircase overflows the float range")
    floor, rank = n - mult, n
    bases = [np.zeros((n, 0), dtype=E.dtype)]
    Ek = E
    settled = True
    for k in range(1, mult + 1):
        U, s, Vh = _lapack.svd(Ek)
        if k == 1:
            scale = max(1.0, float(s[0]))
            step = E / scale
        low, high = _decade(tol, scale)
        settled = settled and not any(low < x <= high for x in s.tolist())
        rank = min(max(int(np.count_nonzero(s > tol * scale)), floor), rank)
        bases.append(Vh[rank:].conj().T)
        if rank == floor:
            return E, bases, U[:, floor:], settled
        Ek = Ek @ step
    bases.append(Vh[floor:].conj().T)  # the forced step
    return E, bases, U[:, floor:], settled


def _jordan_partition(bases):
    """Jordan block sizes, largest first: dim ker E^k - dim ker E^(k-1) blocks have size >= k."""
    dims = [b.shape[1] for b in bases]
    # w_k = dim ker E^k - dim ker E^(k-1), sorted defensively to keep a valid partition of mult
    weyr = sorted((hi - lo for lo, hi in zip(dims, dims[1:])), reverse=True) + [0]
    # w_k - w_(k+1) blocks of size exactly k
    return tuple(k for k in range(len(weyr) - 1, 0, -1) for _ in range(weyr[k - 1] - weyr[k]))


def _block_sizes(A, lam, mult, tol):
    """Jordan block sizes for eigenvalue ``lam`` from the kernel staircase, and whether the
    staircase had a decade of margin at every cut."""
    if mult == 1:  # the staircase can only find one block of size 1
        return (1,), True
    _, bases, _, settled = _kernel_staircase(A, lam, mult, tol)
    return _jordan_partition(bases), settled


def spectral_profile(A, tol=DEFAULT_TOL):
    """Cluster the eigenvalues of ``A`` and estimate Jordan block sizes.

    A profile makes two kinds of decision: eigenvalues within
    ``tol * max(1, ||A||_2)`` of each other merge (single linkage), and a
    staircase singular value above its rank cut counts as rank.  A cluster is
    real exactly when it is its own conjugate, which the merge cut alone
    decides; the other clusters come in exact conjugate pairs with identical
    block structure.
    """
    A, tol = as_squares(A=A)[0], _tolerance(tol)
    eigs, _, norm2, wide = _spectrum(A)
    if wide is not None:
        raise IllConditionedError(_SPECTRUM_OVERFLOW)
    return _profile_pass(A, eigs, float(norm2), tol)[0]


_SPECTRUM_OVERFLOW = "spectrum overflows the float range"


def _spectrum(M):
    """``(eigs, vecs, ||M||_2, wide)`` of the square float matrix ``M``, or of each of a stack of
    them: the input of every profile (:func:`spectral_profile`, ``classify_arc``), from one
    ``eig`` and one SVD.  ``wide`` is None, or flags (in the stack's shape) each matrix whose norm
    or an eigenvalue is past the float range, for which the caller raises
    IllConditionedError(``_SPECTRUM_OVERFLOW``)."""
    eigs, vecs = _lapack.eig(M)
    norm2 = _lapack.svd(M, compute_uv=False)[..., 0][()]  # of one matrix, a numpy float
    if _finite(norm2) and _lapack.all_finite(eigs):
        return eigs, vecs, norm2, None
    return eigs, vecs, norm2, ~(np.isfinite(norm2) & np.isfinite(eigs).all(axis=-1))


# classify_arc tests a verdict's stability by re-profiling at these multiples of tol
_RERUN_FACTORS = (0.1, 10.0)


def _decade(tol, base):
    """The cuts ``tol/10 * base`` and ``10 tol * base``, rounded as the re-runs at those tolerances
    round them.  A decision ``x <= tol * base`` with ``x`` outside ``(low, high]`` is the same at
    ``tol / 10``, ``tol`` and ``10 tol``."""
    down, up = _RERUN_FACTORS
    return tol * down * base, tol * up * base


def _clusters(eigs, norm2, tol):
    """A (mean, members) pair per single-linkage cluster at the cut ``tol * max(1, norm2)``,
    and whether the clustering is settled: no pair distance within a decade of the cut
    (:func:`_decade`).  Each eigenvalue merges every cluster within the cut; ``members`` are the
    ascending positions in ``eigs`` of its eigenvalues, and :func:`_mean` sums them in that order.
    The cut is the only real-axis decision: ``eig`` of a real matrix returns each conjugate pair
    as ``+b`` then ``-b`` and single linkage is mirror-symmetric, so a cluster is either its own
    mirror, whose mean has ``imag == 0.0`` exactly, or lies in one open half-plane and has an
    exact mirror."""
    base = max(1.0, norm2)
    cut = tol * base
    low, high = _decade(tol, base)
    eigs = eigs.tolist()
    clusters, settled = [], True  # clusters: index lists, ascending
    for k, lam in enumerate(eigs):
        dist = [abs(mu - lam) for mu in eigs[:k]]
        if min(dist, default=math.inf) > high:  # the usual case: a new cluster, far from every cut
            clusters.append([k])
            continue
        settled = settled and not any(low < d <= high for d in dist)
        near = [c for c in clusters if any(dist[i] <= cut for i in c)]
        clusters = [c for c in clusters if c not in near] + [sorted(sum(near, [k]))]
    return [(_mean([eigs[i] for i in c]), tuple(c)) for c in clusters], settled


def _mean(lams):
    """The mean of ``lams`` as a complex, summed in order; a sum past the float range sums
    ``lam / k`` instead, so that finite eigenvalues have a finite mean."""
    k, total = len(lams), sum(lams)
    return complex(total / k if cmath.isfinite(total) else sum(lam / k for lam in lams))


def _profile_pass(A, eigs, norm2, tol):
    """:func:`spectral_profile` of the square float matrix ``A``, whose eigenvalues ``eigs`` and
    spectral norm ``norm2`` the caller computed, at ``tol``; and whether the profiles at
    ``tol / 10`` and ``10 tol`` are sure to equal it: every decision it made had a decade of
    margin."""
    reps, settled = _clusters(eigs, norm2, tol)
    # eig of a real matrix returns exact conjugate pairs and single linkage is mirror-symmetric, so
    # each lower-half-plane mean is the exact conjugate of an upper one and takes its block sizes
    upper = {lam: _block_sizes(A, lam, len(members), tol) for lam, members in reps if lam.imag > 0}
    clusters = []
    for lam, members in reps:
        mirror = upper.get(complex(lam.real, abs(lam.imag)))
        sizes, clear = mirror or _block_sizes(A, lam, len(members), tol)
        settled = settled and clear
        clusters.append(EigenCluster(lam, sizes, members))
    clusters.sort(key=lambda c: (c.eigenvalue.real, c.eigenvalue.imag))
    return SpectralProfile(tuple(clusters), float(tol)), settled


# ---------------------------------------------------------------------------
# Real logarithms
# ---------------------------------------------------------------------------


def _real_log(M, eigs, vecs, negative, tol):
    """The one logarithm dispatch: a real C with exp(C) = M = vecs diag(eigs) vecs^-1, principal
    where possible, following the profile's ``negative`` clusters (none for a principal log) with
    no real-axis test: semisimple ones with an :func:`_eigenbasis` take :func:`_semisimple_log`;
    else :func:`_logm`, or :func:`_chains_log`, whose staircase reads ``tol``."""
    semisimple = all(len(c.block_sizes) == c.multiplicity for c in negative)
    basis = _eigenbasis(eigs, vecs) if semisimple else None
    if basis is not None:
        return _semisimple_log(basis, negative)
    if not negative:
        return _logm(M)
    return _chains_log(M, negative, tol)


@_overflow_guard("arc logarithm")
def _chains_log(M, negative, tol):
    """log(M (I - 2P)) + pi J from the Jordan chains of the ``negative`` clusters, whose blocks the
    verdict paired.  The chains come off the profile's staircase, so equal-length chains pair up
    as x, y.  With dual rows D (D [X Y] = I, from the left generalised eigenspaces),
    P = [X Y] D is the negative spectral projector and J = Y D_x - X D_y has J^2 = -P; both
    commute with M, so exp(pi J) = I - 2P: the principal log with the negative spectrum flipped,
    then the angle-pi turn that flips it back.  Guarded: P can overflow near a singular W^T V."""
    xs, ys, lefts = [], [], []
    for cluster in negative:
        chains, left = _jordan_chains(M, cluster.eigenvalue.real, cluster.multiplicity, tol)
        chains.sort(key=len)
        for x, y in zip(chains[0::2], chains[1::2]):
            xs.extend(x)
            ys.extend(y)
        lefts.append(left)
    V = np.column_stack(xs + ys)
    W = np.hstack(lefts)
    try:
        D = _lapack.solve(W.T @ V, W.T)
    except np.linalg.LinAlgError:
        raise IllConditionedError("negative Jordan chains have no dual basis") from None
    half = len(xs)
    J = V[:, half:] @ D[:half] - V[:, :half] @ D[half:]
    return _logm(M - 2.0 * (M @ (V @ D))) + np.pi * J


def _semisimple_log(basis, negative):
    """V diag(log lam) V^-1 + pi J from the eigenbasis (lam, V, V^-1) of M, whose ``negative``
    clusters are semisimple.

    Each negative cluster c, of mean mu, trades its eigenvalues for |mu| in the spectral sum, which
    adds log|mu| P_c for its spectral projector P_c = V_c W_c (W_c: its rows of V^-1), and adds an
    angle-pi turn J_c.  With Q an orthonormal real basis of range P_c (one QR of Re v for a real
    eigenvalue, Re v and Im v for a conjugate pair) and D = Q^T P_c, QD = P_c and DQ = I, so the
    halves Q = [Q_x Q_y], D = [D_x; D_y] give J_c = Q_y D_x - Q_x D_y with J_c^2 = -P_c.  J_c maps
    range P_c into itself and kills every other eigenvector, and a semisimple M is mu on range P_c
    up to the cluster's spread, so J_c commutes with M and with log|mu| P_c; hence
    exp(log|mu| P_c + pi J_c) = -|mu| P_c = mu P_c.  As J_c = [Q_y, -Q_x] D, the orthonormal Q
    keeps ||J_c||_2 <= ||P_c||_2; raw eigenvectors with their dual rows would inflate J_c by the
    conditioning of the basis inside the cluster, which a nearly defective cluster makes large.
    An eigenvalue <= 0 left after the trade sits in a cluster of mean >= 0 that reaches across 0,
    and has no real log: SpectrumOnCutError for a real spectrum or an exact 0, and for a complex
    one whose log comes back with an imaginary residue past ``DEFAULT_TOL * max(1, max |Re L|)``.
    """
    eigs, V, Vinv = basis
    lams, J = eigs.copy(), 0.0
    for cluster in negative:
        members = list(cluster.members)
        lams[members] = -cluster.eigenvalue.real
        Vc = V[:, members]
        # a conjugate pair's columns v, conj(v) become Re v and Re(i conj(v)) = Im v
        Q = _lapack.qr((Vc * np.where(eigs[members].imag < 0, 1j, 1.0)).real)[0]
        D = ((Q.T @ Vc) @ Vinv[members]).real
        half = len(members) // 2
        J = J + Q[:, half:] @ D[:half] - Q[:, :half] @ D[half:]
    if (lams.dtype.kind == "f" and lams.min() <= 0) or np.count_nonzero(lams) < lams.size:
        raise SpectrumOnCutError("eigenvalue on the closed negative real axis")
    L = _spectral(np.log, (lams, V, Vinv))
    if np.iscomplexobj(L):
        if np.abs(L.imag).max() > DEFAULT_TOL * max(1.0, np.abs(L.real).max()):
            raise SpectrumOnCutError("logarithm came back complex; spectrum too close to the cut")
        L = L.real
    return L + np.pi * J if negative else L


def _pick_complement(candidates, excluded, need):
    """``need`` columns inside span(candidates) independent of span(excluded)."""
    if candidates.shape[1] < need:
        raise IllConditionedError("Jordan chain extraction ran out of directions")
    if excluded.shape[1]:
        Q, _ = _lapack.qr(excluded)
        reduced = candidates - Q @ (Q.T @ candidates)
    else:
        reduced = candidates
    _, s, Vh = _lapack.svd(reduced)
    if s.size < need or s[need - 1] <= 1e-10:
        raise IllConditionedError("Jordan chain extraction found dependent directions")
    return candidates @ Vh[:need].T


def _jordan_chains(B, lam, mult, tol):
    """Jordan chains of B for the real eigenvalue lam, and a basis of its left generalised
    eigenspace, from one kernel staircase.

    Each chain is returned bottom-up: [x_1, ..., x_k] with E x_1 = 0 and E x_j = x_{j-1}, up to
    one scale per chain, for the staircase's E (B - lam, halved past the float range).
    """
    E, null_bases, left, _ = _kernel_staircase(B, lam, mult, tol)
    sizes = _jordan_partition(null_bases)
    n = B.shape[0]
    chains = []
    carry = np.zeros((n, 0))  # height-k vectors inherited from longer chains
    for k in range(sizes[0], 0, -1):  # sizes come largest first
        need = sizes.count(k)
        tops = np.zeros((n, 0))
        if need:
            excluded = np.hstack([null_bases[k - 1], carry])
            tops = _pick_complement(null_bases[k], excluded, need)
            for idx in range(need):
                top = tops[:, idx]
                chain = [top]
                for _ in range(k - 1):
                    chain.append(E @ chain[-1])
                chain.reverse()
                scale = max(_lapack.norm(v) for v in chain)
                chains.append([v / scale for v in chain])
        level = np.hstack([carry, tops])
        carry = E @ level if level.shape[1] else level
    return chains, left


# ---------------------------------------------------------------------------
# Polar decomposition
# ---------------------------------------------------------------------------


def polar_decompose(A):
    """Polar decomposition ``A = O P`` of an invertible matrix, from one SVD: the tuple
    ``(O, P)``, O orthogonal with det(O) of the sign of det(A), P symmetric positive definite.
    A numerically singular ``A`` raises SingularMatrixError."""
    A = as_squares(A=A)[0]
    U, s, Vt = _lapack.svd(A)
    if _is_singular(s):
        raise SingularMatrixError("polar decomposition requires an invertible matrix")
    P = Vt.T @ (s[:, None] * Vt)
    P = np.triu(P) + np.triu(P, 1).T  # exactly symmetric, with no arithmetic to round a subnormal
    return U @ Vt, P


# ---------------------------------------------------------------------------
# Canonical skew logarithm on SO(n)
# ---------------------------------------------------------------------------


def so_log(O, tol=DEFAULT_TOL):
    """Canonical real skew-symmetric logarithm of a special orthogonal matrix.

    Rotation angles are taken in (-pi, pi] and -1 eigenvalue pairs are mapped
    to angle pi, from one ``eigh`` (:func:`_so_log`).  L is exactly
    skew-symmetric with expm(L) ~= O.  ``tol`` only admits an O with
    ``||O^T O - I||_F <= max(tol, 1e-10) n``, and one past ``1e-10 n`` is
    taken to its polar factor, so that no defect splits a plane's eigenvalues.
    """
    O, tol = as_squares(O=O)[0], _tolerance(tol)
    n = O.shape[0]
    ortho_defect = _lapack.norm(O.T @ O - np.eye(n))
    if ortho_defect > max(tol, 1e-10) * n or _lapack.det(O) < 0:
        raise NotSpecialOrthogonalError("input is not special orthogonal within tolerance")
    if ortho_defect > 1e-10 * n:
        O = polar_decompose(O)[0]
    return _so_log(O)


def _so_log(O):
    """:func:`so_log` of a float matrix the caller knows to be special orthogonal: ``eigh`` of
    ``(O + O^T) / 2`` has eigenvalue cos(theta) on each plane O turns by theta, and those within
    1e-3 share a cluster (a plane apart from the +-1 spaces then has theta >= 0.045, and
    eigenvectors good to u / (theta^2 / 2)).  On a cluster's columns Q_c, ``B = Q_c^T O Q_c``; a
    2-dimensional B is one plane, turned by ``atan2((B10 - B01) / 2, tr B / 2)`` (-pi read as pi),
    a larger one takes :func:`_logm` (mean >= 0) or :func:`_half_turns`; a single +1 adds nothing."""
    n = O.shape[0]
    w, Q = _lapack.eigh(0.5 * (O + O.T))
    Q[:, 0] *= math.copysign(1.0, _lapack.det(Q))  # a proper basis: at n = 2, pi in it is pi in O
    w = w.tolist()
    B = Q.T @ O @ Q
    L = np.zeros((n, n))
    edges = [0, *(i for i in range(1, n) if w[i] - w[i - 1] > 1e-3), n]
    for a, b in zip(edges, edges[1:]):
        if b - a == 2:
            theta = math.atan2(0.5 * (B[a + 1, a] - B[a, a + 1]), 0.5 * (B[a, a] + B[a + 1, a + 1]))
            theta = theta if theta > -math.pi else math.pi
            L[a + 1, a], L[a, a + 1] = theta, -theta
        elif sum(w[a:b]) < 0:
            L[a:b, a:b] = _half_turns(B[a:b, a:b])
        elif b - a > 1:
            L[a:b, a:b] = _logm(B[a:b, a:b])
    L = Q @ L @ Q.T
    return 0.5 * (L - L.T)


def _half_turns(B):
    """log B = K + pi J for an orthogonal B of even order with eigenvalues near -1, K = log(-B):
    J is ``-U V^T`` on the planes of the SVD ``K = U S V^T`` wider than 1e-13, and pairs the rest
    (exact half turns) in V's order, or B's when K has no such plane.  That is good to u ||K|| / s
    on a plane of width s; Newton's ``J <- (J - J^-1) / 2`` then makes J^2 = -I, commuting with K."""
    K = _logm(-B)
    U, s, Vh = _lapack.svd(K)
    r = 2 * (np.count_nonzero(s > 1e-13) // 2)  # singular values of a skew K come in pairs
    Z = Vh[r:].T if r else np.eye(len(B))
    W = Z[:, 1::2] @ Z[:, 0::2].T - 0.5 * U[:, :r] @ Vh[:r]
    J = W - W.T
    for _ in range(8):  # quadratic from the polar factor's error, below 1e-2
        J = 0.5 * (J - _lapack.inv(J))
    return K + np.pi * J
