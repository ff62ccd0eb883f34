"""Geodesics of the trace metric: evaluation, arcs, classification, joints.

Geodesics are exactly the curves t -> K exp(tC) with K invertible.  Whether
two points K0, K1 can be joined by a geodesic arc reduces to the existence
of a real solution of exp(X) = K0^{-1} K1, which is read off the Jordan
structure of that matrix: blocks of negative eigenvalues must pair up
evenly, and uniqueness requires a positive spectrum with no repeated block.
"""

import enum
import functools
from collections import Counter

import numpy as np

from . import _lapack
from .errors import (
    DifferentComponentsError,
    IllConditionedError,
    NotSPDError,
    NotSymmetricError,
    NotUniqueError,
    SingularMatrixError,
)
from .matcore import (
    DEFAULT_TOL,
    SpectralProfile,
    _RERUN_FACTORS,
    _Record,
    _curve_parameter,
    _curve_parameters,
    _eigenbasis,
    _expm,
    _is_singular,
    _overflow_guard,
    _profile_pass,
    _real_log,
    _relative_gap,
    _so_log,
    _spectral,
    _spectrum,
    _tolerance,
    as_point_and_tangents,
    as_squares,
)


class Geodesic(_Record):
    """The geodesic t -> base_point @ expm(t * direction).

    Points come from one eigendecomposition of the direction, made on the
    first call of :meth:`point`; a defective or ill-conditioned direction
    takes the Pade exponential ``matcore._expm`` instead.  Both arrays are
    read-only, so the eigenbasis cannot go stale.
    """

    base_point: np.ndarray
    direction: np.ndarray
    _fields = ("base_point", "direction")

    def __init__(self, base_point, direction):
        self._settle(*as_point_and_tangents(base_point, "base_point", direction=direction))

    @classmethod
    def _unchecked(cls, K, C):
        """The geodesic of a base point and direction the caller has already validated (square,
        finite, ``K`` invertible); the arrays become read-only."""
        geo = cls.__new__(cls)
        geo._settle(K, C)
        return geo

    def _settle(self, K, C):
        K.flags.writeable = False
        C.flags.writeable = False
        self.__dict__.update(base_point=K, direction=C)

    def __reduce__(self):  # a copy or unpickled geodesic gets read-only arrays and no cached basis
        return Geodesic._unchecked, (self.base_point, self.direction)

    @functools.cached_property
    def _basis(self):
        return _eigenbasis(*_lapack.eig(self.direction), left=self.base_point)

    @_overflow_guard("matrix exponential")
    def point(self, t):
        """Point of the geodesic at parameter ``t`` (defined for every real t).  For a 1-D array
        of m parameters, the ``(m, n, n)`` stack of their points, from the same eigenbasis."""
        if isinstance(t, float) or not np.ndim(t):
            t = _curve_parameter(t)
            if self._basis is None:
                return _expm(t * self.direction, left=self.base_point)
            return _spectral(lambda lam: np.exp(t * lam), self._basis).real  # real up to rounding
        t = _curve_parameters(t)
        if self._basis is None:
            points = [_expm(x * self.direction, left=self.base_point) for x in t.tolist()]
            return np.array(points).reshape(t.shape + self.direction.shape)
        return _spectral(lambda lam: np.exp(t[:, None] * lam)[:, None, :], self._basis).real


def geodesic_from_velocity(K, S):
    """The unique geodesic through K at t=0 with initial velocity S.

    The curve is K exp(t bS) for bS = K^{-1} S.
    """
    return Geodesic._unchecked(*_point_and_direction(K, S))


@_overflow_guard("geodesic direction")
def _point_and_direction(K, S):
    K, S = as_point_and_tangents(K, "K", S=S)
    return K, _lapack.solve(K, S)


@_overflow_guard("matrix exponential")
def spd_geodesic(K, S, t):
    """Symmetric-positive-definite geodesic K^{1/2} exp(t K^{-1/2} S K^{-1/2}) K^{1/2}.

    Agrees with geodesic_from_velocity(K, S) evaluated at t; stated for a
    symmetric positive definite base and a symmetric velocity, where the
    whole curve stays symmetric positive definite.  ``exp(tA)`` of the
    symmetric ``A = K^{-1/2} S K^{-1/2}`` is taken through its orthogonal
    eigenbasis: no conditioning fallback.
    """
    K, S = as_squares(K=K, S=S)
    if _relative_gap(K, K.T) > 1e-10:
        raise NotSPDError("base point must be symmetric")
    if _relative_gap(S, S.T) > 1e-10:
        raise NotSymmetricError("velocity must be symmetric")
    w, Q = _lapack.eigh(0.5 * K + 0.5 * K.T)  # halves first: no overflow
    if w.min() <= 0:
        raise NotSPDError("base point must be positive definite")
    half = Q @ (np.sqrt(w)[:, None] * Q.T)
    inv_half = Q @ (np.sqrt(w)[:, None] ** -1 * Q.T)
    t = _curve_parameter(t)
    A = inv_half @ S @ inv_half
    mu, R = _lapack.eigh(0.5 * A + 0.5 * A.T)
    return half @ ((R * np.exp(t * mu)) @ R.T) @ half


@_overflow_guard("covariant derivative")
def nabla(P, Xp, Yp, euc_deriv):
    """Covariant derivative value (X(Y))_P - (Xp P^{-1} Yp + Yp P^{-1} Xp)/2.

    That is D - (Xp bY + Yp bX) / 2 for bV = P^{-1} V, where ``euc_deriv`` is the
    caller-supplied Euclidean derivative D of the field Y along X at P (zero
    for constant-coefficient fields).  Takes stacks ``(*s, n, n)`` of one shared shape.
    """
    P, Xp, Yp, D = stack = as_point_and_tangents(P, "P", stacks=True, Xp=Xp, Yp=Yp,
                                                 euc_deriv=euc_deriv)
    bX, bY = _lapack.solve(P, stack[1:3])
    return D - 0.5 * (Xp @ bY + Yp @ bX)


def curve_residual(curve, t, h=1e-4):
    """Frobenius norm of the geodesic-equation defect of ``curve`` at ``t``.

    ``curve`` is a callable returning a matrix, invertible at ``t``; derivatives are central
    differences of step ``h``.  Vanishes as O(h^2) on true geodesics.
    """
    t = _curve_parameter(t)
    # acc divides by h * h, and t +- h rounded to t would read every curve as a geodesic
    if not (0 < h < np.inf and h * h >= np.finfo(float).tiny and t - h != t != t + h):
        raise ValueError("step h must be positive and finite, h * h a normal float, "
                         "and t + h and t - h distinct from t")
    # the singular cut on curve(t), which the solve below inverts
    P0, Pp, Pm = as_point_and_tangents(curve(t), "curve(t)",
                                       **{"curve(t+h)": curve(t + h), "curve(t-h)": curve(t - h)})
    hp, hm = (t + h) - t, t - (t - h)  # the steps taken: t +- h round on the grids of their binades
    vel = (Pp - Pm) / (hp + hm)
    acc = 2.0 * ((Pp - P0) / hp - (P0 - Pm) / hm) / (hp + hm)
    return _lapack.norm(acc - vel @ _lapack.solve(P0, vel))


# ---------------------------------------------------------------------------
# Arc classification
# ---------------------------------------------------------------------------


class ArcKind(str, enum.Enum):
    """Cardinality of the family of geodesic arcs joining two points."""

    NO_ARC = "no-arc"
    UNIQUE = "unique"
    COUNTABLE = "countable"
    CONTINUUM = "continuum"


class ArcClassification(_Record):
    """Verdict for one pair of endpoints, plus a witness arc when one exists."""

    verdict: ArcKind
    witness: Geodesic | None
    profile: SpectralProfile  # of K0^{-1} K1
    _fields = ("verdict", "witness", "profile")

    def __init__(self, verdict, witness, profile):
        self.__dict__.update(verdict=verdict, witness=witness, profile=profile)


def _verdict(profile):
    neg = profile.negative_real()
    pos = profile.positive_real()
    cplx = profile.non_real()
    for c in neg:
        if any(count % 2 for count in Counter(c.block_sizes).values()):
            return ArcKind.NO_ARC
    pos_no_repeat = all(len(set(c.block_sizes)) == len(c.block_sizes) for c in pos)
    if not neg and not cplx and pos_no_repeat:
        return ArcKind.UNIQUE
    if not neg and cplx and pos_no_repeat and all(len(c.block_sizes) == 1 for c in cplx):
        return ArcKind.COUNTABLE
    return ArcKind.CONTINUUM


def classify_arc(K0, K1, tol=DEFAULT_TOL):
    """Classify the geodesic arcs joining ``K0`` to ``K1``.

    The verdict is read off the Jordan structure of M = K0^{-1} K1:

    * no arc when some negative eigenvalue has a block size occurring an odd
      number of times;
    * a unique arc when the spectrum is positive real and no (eigenvalue,
      size) pair repeats;
    * countably many when non-real eigenvalues each own a single block and
      the real spectrum is positive without repeats;
    * a continuum otherwise.

    When an arc exists the returned witness starts at K0 and reaches K1 at
    t = 1: its direction is ``matcore._real_log`` of M, from the one
    eigendecomposition that also gives the profile's eigenvalues, and
    :func:`_arc` checks its endpoint.  A verdict that differs at tol/10 or
    10 tol raises IllConditionedError instead of guessing.  Each of the
    profile's two kinds of decision (an eigenvalue pair within the clustering
    cut, which alone decides which clusters are real, and a staircase
    singular value above the rank cut) compares a quantity with a cut
    proportional to tol, and the quantities do not depend on tol.  So when
    none of them lies within a decade of its cut, the profiles at tol/10 and
    10 tol equal the one at tol and the verdict cannot differ; only otherwise
    is the profile re-run at both.

    One batched SVD of both endpoints makes their singular cuts, K0's first,
    as :func:`broken_arc` makes its own.  A quotient M past the float range
    raises IllConditionedError.
    """
    K0, K1 = ends = as_squares(K0=K0, K1=K1)
    tol = _tolerance(tol)
    s0, s1 = _lapack.svd(ends, compute_uv=False)
    for name, s in (("K0", s0), ("K1", s1)):
        if _is_singular(s):
            raise SingularMatrixError(f"{name} is numerically singular")
    M = _lapack.solve(K0, K1)
    if not _lapack.all_finite(M):  # two valid endpoints whose quotient overflows
        raise IllConditionedError("K0^-1 K1 overflows the float range")
    eigs, vecs, norm2 = _spectrum(M)
    profile, settled = _profile_pass(M, eigs, norm2, tol)
    verdict = _verdict(profile)
    for factor in () if settled else _RERUN_FACTORS:
        if _verdict(_profile_pass(M, eigs, norm2, tol * factor)[0]) is not verdict:
            raise IllConditionedError(
                f"verdict is ambiguous at tolerance {tol:g} (differs at {tol * factor:g})"
            )
    witness = None
    if verdict is not ArcKind.NO_ARC:
        witness = _arc(K0, _real_log(M, eigs, vecs, profile.negative_real(), tol), K1)
    return ArcClassification(verdict=verdict, witness=witness, profile=profile)


def _arc(K, C, end):
    """The geodesic K exp(tC), once it reaches ``end`` at t = 1 within 1e-6 relative error; e^C
    is taken by Pade scaling and squaring, not by C's own eigenbasis, which would check itself."""
    gap = _relative_gap(_expm(C, left=K), end)
    if gap > 1e-6:
        raise IllConditionedError(f"witness endpoint check failed (relative error {gap:g})")
    return Geodesic._unchecked(K, C)


def unique_arc(K0, K1, tol=DEFAULT_TOL):
    """The unique geodesic arc between ``K0`` and ``K1``: K0 (K0^{-1}K1)^t.

    Raises NotUniqueError when the classification verdict is anything else;
    callers who already classified can read the witness off the verdict.
    """
    outcome = classify_arc(K0, K1, tol)
    if outcome.verdict is not ArcKind.UNIQUE:
        raise NotUniqueError(f"arc classification is {outcome.verdict.value!r}, not unique")
    return outcome.witness


# ---------------------------------------------------------------------------
# Singly broken geodesics
# ---------------------------------------------------------------------------


class BrokenArc(_Record):
    """Two geodesic arcs sharing the joint: first.point(1) = second.point(0) = joint."""

    first: Geodesic
    second: Geodesic
    joint: np.ndarray
    _fields = ("first", "second", "joint")

    def __init__(self, first, second, joint):
        self.__dict__.update(first=first, second=second, joint=joint)


def broken_arc(K1, K2):
    """Join two same-component points by a singly broken geodesic arc.

    One SVD of each endpoint, K1 = U1 S1 V1^T and K2 = U2 S2 V2^T, makes the singular cuts and
    the polar factors O1 = U1 V1^T, P2 = U2 S2 U2^T and O2 = U2 V2^T; the joint is Z = P2 O1.
    The first leg is :func:`_positive_leg`, with the endpoint check of :func:`_arc`.
    Z^{-1} K2 = O1^T O2 is special orthogonal iff K1 and K2 share a component; the second leg is
    its rotation arc (:func:`matcore.so_log`), which clusters eigenvalues at a fixed cut: no
    tolerance to set.
    """
    ends = as_squares(K1=K1, K2=K2)
    (U1, U2), (s1, s2), (V1t, V2t) = _lapack.svd(ends)
    if _is_singular(s1) or _is_singular(s2):
        raise SingularMatrixError("polar decomposition requires an invertible matrix")
    O1 = U1 @ V1t
    R = O1.T @ (U2 @ V2t)
    if _lapack.det(R) < 0:
        raise DifferentComponentsError("endpoints lie in different determinant components")
    Z = U2 @ (s2[:, None] * (U2.T @ O1))
    first = _arc(ends[0], _positive_leg(s1, V1t, U1.T @ U2, s2), Z)
    return BrokenArc(first=first, second=Geodesic._unchecked(Z, _so_log(R)), joint=Z)


@_overflow_guard("arc logarithm")
def _positive_leg(s1, V1t, W, s2):
    """C = V1 S1^-1/2 X diag(2 log phi) X^T S1^1/2 V1^T, the logarithm of K1^{-1} Z.

    K1^{-1} Z = V1 S1^-1 W S2 W^T V1^T for W = U1^T U2 is similar, through V1 S1^-1/2, to F F^T
    with F = S1^-1/2 W S2^1/2 = X diag(phi) Y^T.  So its spectrum phi^2 is positive by
    construction: no eigendecomposition of a nonsymmetric matrix, no cut test, no fallback.
    """
    r1 = np.sqrt(s1)
    F = W / r1[:, None] * np.sqrt(s2)
    if not _lapack.all_finite(F):  # LAPACK leaves the SVD of an infinite matrix unspecified
        raise IllConditionedError("arc logarithm overflows the float range")
    X, phi, _ = _lapack.svd(F)
    return ((V1t.T / r1 @ X) * (2.0 * np.log(phi))) @ (X.T * r1) @ V1t
