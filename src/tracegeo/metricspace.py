"""The trace metric on invertible matrices and its symmetry structure.

The metric is g_A(V, W) = tr(A^{-1} V A^{-1} W) for an invertible base point
A and tangent matrices V, W.  This module computes the metric and its
signature, applies the catalog of isometries and their differentials,
projects onto tangent spaces of determinant level sets, and realises the
isometry between the positive-determinant component and the product of the
unimodular group with a Euclidean line.
"""

import math
import numbers

import numpy as np

from . import _lapack
from .errors import (
    DegenerateMetricError,
    DimensionMismatchError,
    IllConditionedError,
    NonPositiveDeterminantError,
    NotUnimodularError,
    SingularMatrixError,
)
from .matcore import (
    _Record, _Value, _at_member, _det, _finite, _is_singular, _overflow_guard, _scalar,
    as_point_and_tangents, as_squares, require_invertible,
)


@_overflow_guard("metric value")
def trace_metric(A, V, W):
    """Metric value tr(A^{-1} V A^{-1} W) = tr(bV bW), bV = A^{-1} V; symmetric and bilinear.

    Operands may be stacks ``(*s, n, n)`` of one shared shape; the result is then the array of
    shape ``s`` of the values, each the one its matrices give alone (as for every function that
    takes stacks)."""
    stack = as_point_and_tangents(A, "A", stacks=True, V=V, W=W)
    bV, bW = _lapack.solve(stack[0], stack[1:])
    return _scalar(_lapack.trace(bV @ bW))


def standard_basis(n):
    """The n^2 matrix units E_alpha ordered column by column."""
    return np.eye(n * n).reshape(n * n, n, n).transpose(0, 2, 1)  # alpha = i + n j <-> E_ij


@_overflow_guard("Gram matrix")
def gram_matrix(A):
    """Gram matrix of the metric at ``A`` in the standard basis.

    Entry (alpha, beta) is g_A(E_alpha, E_beta) with alpha enumerating the
    matrix units column by column.  For B = A^{-1} the value collapses to
    B[j, k] * B[l, i] with alpha <-> (i, j), beta <-> (k, l).
    """
    return _gram_of_inverse(_lapack.inv(as_point_and_tangents(A, "A")[0]))


def _gram_of_inverse(B):
    """:func:`gram_matrix` at ``B^{-1}``, or a stack of them for a stack of ``B`` (its last two
    axes): entry [ji, lk] is the one product B[j, k] B[l, i], by broadcasting over (j, i, l, k)."""
    n = B.shape[-1]
    G = B[..., :, None, None, :] * B.swapaxes(-1, -2)[..., None, :, :, None]
    return G.reshape(B.shape[:-2] + (n * n, n * n))


class MetricSignature(_Value):
    """Counts of positive and negative directions of the metric."""

    positive: int
    negative: int
    _fields = ("positive", "negative")

    def __init__(self, positive, negative):
        self.__dict__.update(positive=positive, negative=negative)


_GRAM_ZERO_RTOL = 1e-10  # a Gram eigenvalue is zero at this fraction of the largest


def signature_at(A):
    """Signature of the metric at ``A`` from the eigenvalues of its Gram matrix.

    Raises DegenerateMetricError when a Gram eigenvalue is numerically zero,
    which signals breakdown rather than a mathematical possibility.
    """
    A = as_point_and_tangents(A, "A")[0]
    # the signature is scale-free; a power of two near the largest entry keeps B (x) B in range
    G = _gram_of_inverse(_lapack.inv(np.ldexp(A, -np.frexp(np.abs(A).max())[1])))
    w = _lapack.eigvalsh(G)  # G is exactly symmetric: G[ji, lk] and G[lk, ji] are one product
    cut = _GRAM_ZERO_RTOL * float(np.abs(w).max())
    if np.count_nonzero(np.abs(w) <= cut):
        raise DegenerateMetricError("Gram matrix has a numerically zero eigenvalue")
    pos = int(np.count_nonzero(w > 0))
    return MetricSignature(positive=pos, negative=w.size - pos)


# ---------------------------------------------------------------------------
# Isometries
# ---------------------------------------------------------------------------

def _inversion_differential(G, A, V):
    Ainv = _lapack.inv(A)
    return -Ainv @ V @ Ainv


# kind -> (takes a parameter G, map (G, X) -> f(X), differential (G, A, V) -> df_A(V)).
# A differential of None marks a linear map, which is its own differential
# and applies to any matrix; the other maps need an invertible point.
_ISOMETRY_TABLE = {
    "left-translate": (True, lambda G, X: G @ X, None),
    "right-translate": (True, lambda G, X: X @ G, None),
    "conjugate": (True, lambda G, X: _lapack.solve(G, X @ G), None),
    "congruence": (True, lambda G, X: G.swapaxes(-1, -2) @ X @ G, None),
    "point-symmetry": (
        True,
        lambda G, X: G @ _lapack.inv(X) @ G,
        lambda G, A, V: G @ _inversion_differential(G, A, V) @ G,
    ),
    "inversion": (False, lambda G, X: _lapack.inv(X), _inversion_differential),
    "transposition": (False, lambda G, X: X.swapaxes(-1, -2), None),
    "negation": (False, lambda G, X: -X, None),
}
ISOMETRY_KINDS = tuple(_ISOMETRY_TABLE)


class Isometry(_Record):
    """One isometry of the trace metric, tagged by kind.

    Parametric kinds carry an invertible matrix: translations multiply by it,
    conjugation maps X to G^{-1} X G, congruence to G^T X G, and the point
    symmetry about A maps X to A X^{-1} A.  Inversion, transposition and
    negation need no parameter.  A stack ``(*s, n, n)`` of parameters applies member by member
    to operands of that shape; one matrix applies to operands of any shape.
    """

    kind: str
    parameter: np.ndarray | None
    _fields = ("kind", "parameter")

    def __init__(self, kind, parameter=None):
        if kind not in _ISOMETRY_TABLE:
            raise ValueError(f"unknown isometry kind {kind!r}")
        if _ISOMETRY_TABLE[kind][0]:
            if parameter is None:
                raise ValueError(f"{kind} requires a parameter matrix")
            parameter = as_point_and_tangents(parameter, "parameter", stacks=True)[0]
        elif parameter is not None:
            raise ValueError(f"{kind} takes no parameter")
        self.__dict__.update(kind=kind, parameter=parameter)


def left_translate(G):
    return Isometry("left-translate", G)


def right_translate(G):
    return Isometry("right-translate", G)


def conjugate_by(G):
    return Isometry("conjugate", G)


def congruence_by(G):
    return Isometry("congruence", G)


def inversion():
    return Isometry("inversion")


def transposition():
    return Isometry("transposition")


def negation():
    return Isometry("negation")


def point_symmetry(A):
    return Isometry("point-symmetry", A)


def _parameter_misfit(G, X):
    """DimensionMismatchError unless the parameter ``G``, whose shape is not X's, is one matrix of
    X's order (the shape check is inline at the call sites, which it keeps to two comparisons)."""
    if G.shape != X.shape[-2:]:
        raise DimensionMismatchError(f"parameter of shape {G.shape} does not fit operands of "
                                     f"shape {X.shape}")


@_overflow_guard("isometry")
def apply_isometry(iso, X):
    """Apply ``iso`` to the matrix ``X``, which must be invertible for nonlinear kinds; or to a
    stack ``(*s, n, n)`` of them."""
    X = as_squares(stacks=True, X=X)[0]
    G = iso.parameter
    if G is not None and G.shape != X.shape:
        _parameter_misfit(G, X)
    _, forward, differential = _ISOMETRY_TABLE[iso.kind]
    if differential is not None:
        require_invertible(X, "X")
    return forward(G, X)


@_overflow_guard("isometry")
def pushforward(iso, A, V):
    """Differential of ``iso`` at the point ``A`` applied to the tangent ``V``.

    Linear isometries are their own differential; inversion has differential
    -A^{-1} V A^{-1}, and the point symmetry about G has -G A^{-1} V A^{-1} G.  ``A`` and
    ``V`` may be stacks ``(*s, n, n)`` of one shared shape.
    """
    A, V = as_squares(stacks=True, A=A, V=V)
    G = iso.parameter
    if G is not None and G.shape != A.shape:
        _parameter_misfit(G, A)
    _, forward, differential = _ISOMETRY_TABLE[iso.kind]
    if differential is None:
        return forward(G, V)
    require_invertible(A, "A")
    return differential(G, A, V)


# ---------------------------------------------------------------------------
# Determinant level sets and the product structure
# ---------------------------------------------------------------------------


@_overflow_guard("projection")
def sl_tangent_project(K, W):
    """g_K-orthogonal projection of W onto {V : tr(K^{-1} V) = 0}.

    Returns W - (tr(bW) / n) K for bW = K^{-1} W, the left translate of the
    trace-free part of bW; idempotent, and the output satisfies the trace
    condition up to roundoff.  Takes stacks ``(*s, n, n)`` of one shared shape.
    """
    K, W = stack = as_point_and_tangents(K, "K", stacks=True, W=W)
    (bW,) = _lapack.solve(K, stack[1:])
    t = _lapack.trace(bW) / K.shape[-1]
    return W - (t[..., None, None] if t.ndim else float(t)) * K


def leaf_of(Q):
    """Label of the determinant leaf through ``Q``: det(Q); of each member of a stack."""
    return _scalar(_det(as_point_and_tangents(Q, "Q", stacks=True)[0]))


def leaf_base_point(c, n):
    """Deterministic base point with determinant ``c`` on the leaf.

    Left translation by its inverse carries the leaf isometrically onto the
    unimodular group.
    """
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n}")
    c = float(c)
    if c == 0.0 or not math.isfinite(c):
        raise SingularMatrixError("leaf label must be a nonzero finite real")
    P = np.eye(n) * abs(c) ** (1.0 / n)
    P[0, 0] *= math.copysign(1.0, c)
    return P


class ProductPoint(_Record):
    """Point (P, x) of the product of the unimodular group with a line, or a stack of them:
    ``sl_part`` of shape ``(*s, n, n)`` and ``line_part`` an array of shape ``s`` (one point's is a
    float).

    ``det P`` must be 1 within 1e-10, or within ``10 n u cond_2(P)`` (u the unit roundoff) for an
    invertible P: the computed det of an exactly unimodular P errs by up to about 4 n u cond_2(P),
    and :func:`product_inverse` of an ill-conditioned Q gives such a P.  Only a determinant past
    1e-10, or ``||P||_F^n >= 1e12`` (``sigma_min sigma_max^(n-1) >= |det P|``, so a singular P with
    det near 1 has ``sigma_max^n >~ 1e13``), pays for the SVD of the second test and the cut; of a
    stack, only the members that do.  Each member is checked alone; a stack names its first
    refused member by `` at stack index i``: a non-finite x (ValueError), then a P that is not
    unimodular (NotUnimodularError).
    """

    sl_part: np.ndarray
    line_part: float
    _fields = ("sl_part", "line_part")

    def __init__(self, sl_part, line_part):
        P = as_squares(stacks=True, sl_part=sl_part)[0]
        x = _line_values(line_part, "line_part", P)
        n = P.shape[-1]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing det is not 1 either
            miss = abs(_lapack.det(P) - 1.0)
            # ||P||_F^n >= 1e12 as a root: a float power past the float range is an OverflowError
            past = ~(miss <= 1e-10) | (_lapack.norms(P) >= 1e12 ** (1.0 / n))
            if _lapack.count_nonzero(past):
                s = _lapack.svd(P[past], compute_uv=False).T  # of the members past, in C order
                cond = s[0] / s[-1]
                refused = np.zeros(np.shape(past), bool)
                refused[past] = _is_singular(s) | ~(miss[past] <= 10 * n * 2.0**-53 * cond)
                if _lapack.count_nonzero(refused):
                    raise NotUnimodularError("sl_part must have determinant 1"
                                             + _at_member(refused))
        self.__dict__.update(sl_part=P, line_part=x)


def _line_values(x, name, P):
    """The line coordinates ``x`` of the matrices ``P``: a float for one matrix, a float array of
    their stack shape for a stack (else DimensionMismatchError); each must be finite (ValueError,
    naming a stack's first non-finite member by its index)."""
    if isinstance(x, (np.ndarray, list, tuple)) and np.ndim(x):
        x = np.array(x, dtype=float)
        if not _lapack.all_finite(x):
            raise ValueError(f"{name} must be finite{_at_member(~np.isfinite(x))}")
    else:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite")
    if np.shape(x) != P.shape[:-2]:
        raise DimensionMismatchError(f"{name} of shape {np.shape(x)} does not fit matrices of "
                                     f"shape {P.shape}")
    return x


def _per_matrix(v):
    """Line values with two trailing axes, so that a stack's scale its matrices one by one; one
    value (a float or a numpy scalar) as it is."""
    return v[..., None, None] if isinstance(v, np.ndarray) else v


_TINY = np.finfo(float).tiny


def _chart_scale(x, n):
    """e^{x / sqrt(n)} per matrix (:func:`_per_matrix`), raising once it leaves the normal float
    range: below it here, naming a stack's first such member, and above it as an overflow
    through the caller's guard."""
    scale = np.exp(x / math.sqrt(n))
    low = scale < _TINY
    if _lapack.count_nonzero(low):
        raise IllConditionedError("product chart underflows the float range" + _at_member(low))
    return _per_matrix(scale)


@_overflow_guard("product chart")
def product_forward(p):
    """Map (P, x) to e^{x / sqrt(n)} P in the positive-determinant component; a stacked point
    maps member by member."""
    P = p.sl_part
    return _chart_scale(p.line_part, P.shape[-1]) * P


def product_inverse(Q):
    """Inverse of :func:`product_forward`.

    Returns (Q / det(Q)^{1/n}, log(det Q) / sqrt(n)); requires det(Q) > 0.  Takes a stack
    ``(*s, n, n)`` and returns the stacked point; it refuses a stack's first member with
    ``det Q <= 0`` by its index, then any member past the float range.
    Its determinant is not re-checked: det(sl_part) computes to 1 only within about n u cond(Q),
    which :class:`ProductPoint` accepts.
    """
    Q = as_squares(stacks=True, Q=Q)[0]
    n = Q.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        sign, logdet = _lapack.slogdet(Q)
        if _lapack.count_nonzero(sign <= 0.0):
            raise NonPositiveDeterminantError("product chart needs a positive determinant"
                                              + _at_member(sign <= 0.0))
        # det(Q)^{1/n} from the log: det(diag(1e300, 1e-300, 1e-300))^{1/3} = 1e-100; by
        # math.exp member by member, as np.exp rounds otherwise
        e = logdet / n
        P = Q / _per_matrix(math.exp(e) if not e.ndim
                            else np.reshape([math.exp(v) for v in e.ravel().tolist()], e.shape))
    x = _scalar(logdet / math.sqrt(n))
    if not (_finite(x) and _lapack.all_finite(P)):
        raise IllConditionedError("product chart overflows the float range")
    point = object.__new__(ProductPoint)
    point.__dict__.update(sl_part=P, line_part=x)
    return point


@_overflow_guard("product chart")
def product_pushforward(p, M, a):
    """Differential of :func:`product_forward` at (P, x) on the tangent (M, a); of a stacked
    point, on stacks ``M`` of its shape and ``a`` of its stack shape (each finite, or a
    ValueError naming its index)."""
    P, M = as_squares(stacks=True, sl_part=p.sl_part, M=M)
    a = _line_values(a, "a", P)
    n = P.shape[-1]
    scale = _chart_scale(p.line_part, n)
    return scale * M + (scale / math.sqrt(n)) * _per_matrix(a) * P
