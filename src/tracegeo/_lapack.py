"""L0: tracegeo's LAPACK kernels, ``numpy.linalg``'s gufuncs called without its per-call wrapper.

Each kernel calls the ``numpy.linalg._umath_linalg`` gufunc its ``np.linalg`` namesake calls, with
the signature numpy picks for the operand, and returns the same bytes; at n <= 6 the rest of
numpy's wrapper costs more than LAPACK does.  ``inv`` (of a complex eigenbasis) and ``svd`` (of a
complex cluster's staircase powers) take float64 or complex128; the other kernels take float64
alone, and refuse a complex operand with numpy's UFuncTypeError, a TypeError, instead of casting
it.  Kept from numpy: ``eig`` comes back real when every imaginary part is zero, and refuses a
non-finite operand; a LAPACK failure raises numpy's LinAlgError through numpy's error state, with
no floating-point warning; ``det`` and ``slogdet`` run bare.  Operands are ndarrays; ``solve``'s
right-hand side may also be a list of matrices, but not a vector.  ``svd`` returns full matrices,
``eigh`` reads the lower triangle, and results are plain tuples.  Callers look a kernel up on this
module at call time, so one patch reaches every call site.
"""

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
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    w, v = _gufuncs.eig(a, signature="d->DD")
    return (w, v) if np.count_nonzero(w.imag) else (w.real, v.real)


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
