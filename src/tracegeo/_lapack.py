"""L0: tracegeo's LAPACK kernels, ``numpy.linalg``'s gufuncs called without its per-call wrapper.

Each kernel (``svd``, ``solve``, ``inv``, ``qr``, ``eig``, ``eigh``, ``eigvalsh``, ``det``,
``slogdet``) calls the ``numpy.linalg._umath_linalg`` gufunc its ``np.linalg`` namesake calls, with
the signature numpy picks for the operand, and returns the same bytes; at n <= 6 the rest of
numpy's wrapper costs more than LAPACK does.  ``norm`` is ``np.linalg.norm``'s own Frobenius route,
the root of one dot product, returned as a Python float of the same value; ``norms`` takes the
same dot product of each matrix of a stack, and ``trace`` the trace of each.  ``inv`` (of a complex
eigenbasis) and ``svd`` (of a complex cluster's staircase powers) take float64 or complex128; the
other kernels take float64 alone, and refuse a complex operand with a TypeError instead of casting
it.  Kept from numpy: ``eig`` comes back real when every imaginary part is zero, and refuses a
non-finite operand; a LAPACK failure raises numpy's LinAlgError through numpy's error state, with
no floating-point warning; ``det`` and ``slogdet`` run bare.  Operands are ndarrays; ``solve``'s
right-hand side may also be a list of matrices, but not a vector.  ``svd`` returns full matrices,
``qr`` the reduced factors, ``eigh`` reads the lower triangle, and results are plain tuples.
:func:`all_finite` is the package's finiteness test of an operand or a result.  Callers look a
kernel up on this module at call time, so one patch reaches every call site.
"""

import math

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg import _umath_linalg as _gufuncs


def _raising(message):
    """numpy.linalg's error state: LAPACK's failure flag (invalid) raises LinAlgError(message)."""

    def fail(err, flag):
        raise LinAlgError(message)

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


_singular = _raising("Singular matrix")
_no_svd = _raising("SVD did not converge")
_no_eig = _raising("Eigenvalues did not converge")


def all_finite(a):
    """``np.isfinite(a).all()`` as a bool, from a count instead of a ufunc reduction: ``a`` may be
    an array, a number or a tuple of same-shape arrays, so the flags' size is read, not ``a``'s."""
    flags = np.isfinite(a)
    return np.count_nonzero(flags) == flags.size


def norm(a):
    """``np.linalg.norm(a)``, the Frobenius norm of any shape, from ``x.dot(x)`` for
    ``x = a.ravel(order="K")`` as numpy takes it; float64 alone, so no complex route is needed."""
    x = a.ravel(order="K")
    if x.dtype.char != "d":
        raise TypeError(f"norm takes a float64 operand, not {x.dtype}")
    return math.sqrt(x.dot(x))


def norms(a):
    """The Frobenius norm of each matrix of a stack (the last two axes), as an array: the bits of
    :func:`norm` of each, from the dot product of each flattened matrix with itself."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))


def trace(a):
    """The trace of a matrix, or of each matrix of a stack (the last two axes): the bits of
    ``a.trace(0, -2, -1)`` from one ``add.reduce`` of the diagonals, without the method's generic
    reduction call."""
    return np.add.reduce(a.diagonal(0, -2, -1), -1)


@_singular
def solve(a, b):
    return _gufuncs.solve(a, b, signature="dd->d")


@_singular
def inv(a):
    return _gufuncs.inv(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


@_no_svd
def svd(a, compute_uv=True):
    """``(U, s, Vh)`` with full U and Vh, or the singular values alone."""
    complex_ = a.dtype.kind == "c"
    if compute_uv:
        return _gufuncs.svd_f(a, signature="D->DdD" if complex_ else "d->ddd")
    return _gufuncs.svd(a, signature="D->d" if complex_ else "d->d")


@_no_eig
def eig(a):
    if not all_finite(a):
        raise LinAlgError("Array must not contain infs or NaNs")
    w, v = _gufuncs.eig(a, signature="d->DD")
    return (w, v) if np.count_nonzero(w.imag) else (w.real, v.real)


@_raising("Incorrect argument found while performing QR factorization")
def qr(a):
    """numpy's reduced ``(Q, R)``, factored in a copy of ``a``: one error state for both gufuncs,
    where numpy's wrapper enters one per gufunc."""
    a = a.astype(np.float64, casting="same_kind")  # a complex operand is a TypeError, not a cast
    tau = _gufuncs.qr_r_raw(a, signature="d->d")  # leaves R above the diagonal of a
    return _gufuncs.qr_reduced(a, tau, signature="dd->d"), np.triu(a[..., : min(a.shape[-2:]), :])


@_no_eig
def eigh(a):
    return _gufuncs.eigh_lo(a, signature="d->dd")


@_no_eig
def eigvalsh(a):
    return _gufuncs.eigvalsh_lo(a, signature="d->d")


def det(a):
    return _gufuncs.det(a, signature="d->d")


def slogdet(a):
    return _gufuncs.slogdet(a, signature="d->dd")
