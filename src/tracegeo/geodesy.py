"""Geodesics of the trace metric: evaluation, arcs, classification, joints.

Geodesics are exactly the curves t -> K exp(tC) with K invertible.  Whether
two points K0, K1 can be joined by a geodesic arc reduces to the existence
of a real solution of exp(X) = K0^{-1} K1, which is read off the Jordan
structure of that matrix: blocks of negative eigenvalues must pair up
evenly, and uniqueness requires a positive spectrum with no repeated block.
"""

import enum
import functools

import numpy as np

from . import _lapack
from .errors import (
    DifferentComponentsError,
    IllConditionedError,
    SingularMatrixError,
    TraceGeoError,
)
from .matcore import (
    DEFAULT_TOL,
    SpectralProfile,
    _RERUN_FACTORS,
    _Record,
    _SPECTRUM_OVERFLOW,
    _at_index,
    _curve_parameter,
    _curve_parameters,
    _eigenbasis,
    _expm,
    _indices,
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
    """The geodesic t -> base_point @ expm(t * direction), or a stack ``(*s, n, n)`` of them.

    Points come from one eigendecomposition of the direction (batched over a stack), made on the
    first call of :meth:`point`; a defective or ill-conditioned member takes the Pade exponential
    ``matcore._expm`` instead, and every member's points have the bits it gives alone.  Both
    arrays are read-only, so the eigenbasis cannot go stale.
    """

    base_point: np.ndarray
    direction: np.ndarray
    _fields = ("base_point", "direction")

    def __init__(self, base_point, direction):
        self._settle(*as_point_and_tangents(base_point, "base_point", stacks=True,
                                            direction=direction))

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
        """The direction's :func:`_eigenbasis`, or None (``_expm``); of a stack of mixed routes,
        ``(members, part)`` pairs that split it into geodesics of one: by realness first (``eig``
        of a stack is complex when one member's is), then, past a defective member, by member."""
        return self._route(*_lapack.eig(self.direction))

    def _route(self, w, V):
        """:attr:`_basis` from the direction's eigendecomposition; each part of a split is given
        its slice of ``(w, V)``, real where its members' spectra are, and decomposes nothing."""
        K, C = self.base_point, self.direction
        real = np.count_nonzero(w.imag, axis=-1) == 0
        split = (real, ~real)
        if _lapack.count_nonzero(real) in (0, real.size):  # one dtype for every member
            basis = _eigenbasis(w, V, left=K)
            if basis is not None or real.size == 1:
                return basis
            split = np.eye(real.size, dtype=bool).reshape(-1, *real.shape)  # each member alone
        parts = []
        for m in split:
            part = Geodesic._unchecked(K[m], C[m])
            part.__dict__["_basis"] = part._route(*_lapack.real_if_real(w[m], V[m]))
            parts.append((m, part))
        return parts

    @_overflow_guard("matrix exponential")
    def point(self, t):
        """Points at ``t`` (every real t), of shape ``np.broadcast_shapes(np.shape(t), s) + (n, n)``
        for the stack shape s: one geodesic gives a float one point and m parameters ``(m, n, n)``;
        a stack of c gives t of shape (c,) one per member, and ``t[:, None]`` all m to each."""
        if self.direction.ndim == 2 and (isinstance(t, float) or not np.ndim(t)):
            t = _curve_parameter(t)
            if self._basis is None:
                return _expm(t * self.direction, left=self.base_point)
            return _spectral(lambda lam: np.exp(t * lam), self._basis).real  # real up to rounding
        t, basis = _curve_parameters(t), self._basis
        if isinstance(basis, tuple):
            return _spectral(lambda lam: np.exp(t[..., None] * lam)[..., None, :], basis).real
        shape = np.broadcast_shapes(t.shape, self.direction.shape[:-2])
        t, square = np.broadcast_to(t, shape), self.direction.shape[-2:]
        if basis is None:  # each member at each of its t by the Pade exponential
            K, C = (np.broadcast_to(a, shape + square) for a in (self.base_point, self.direction))
            points = [_expm(float(t[j]) * C[j], left=K[j]) for j in np.ndindex(shape)]
            return np.array(points).reshape(shape + square)
        out = np.empty(shape + square)
        for members, part in basis:
            out[..., members, :, :] = part.point(t[..., members])
        return out


def geodesic_from_velocity(K, S):
    """The unique geodesic through K at t=0 with initial velocity S.

    The curve is K exp(t bS) for bS = K^{-1} S.
    """
    return Geodesic._unchecked(*_point_and_direction(K, S))


@_overflow_guard("geodesic direction")
def _point_and_direction(K, S):
    K, S = as_point_and_tangents(K, "K", S=S)
    return K, _lapack.solve(K, S)


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
    differences of step ``h``.  Vanishes as O(h^2) on true geodesics.  An array t takes one call
    of ``curve`` on each of t, t + h and t - h, which returns ``(*r, n, n)`` stacks (as a stacked
    :class:`Geodesic`'s ``point`` does), and gives the norms of shape r, each with the bits of
    its t alone, from one batched cut and ``solve``; one t whose step rounds away refuses all.
    """
    one = isinstance(t, float) or not np.ndim(t)
    t = _curve_parameter(t) if one else _curve_parameters(t)
    # acc divides by h * h, and t +- h rounded to t would read every curve as a geodesic
    if not (0 < h < np.inf and h * h >= np.finfo(float).tiny
            and (t - h != t != t + h if one
                 else _lapack.count_nonzero((t - h != t) & (t + h != t)) == t.size)):
        raise ValueError("step h must be positive and finite, h * h a normal float, "
                         "and t + h and t - h distinct from t")
    # the singular cut on curve(t), which the solve below inverts
    P0, Pp, Pm = as_point_and_tangents(curve(t), "curve(t)", stacks=not one,
                                       **{"curve(t+h)": curve(t + h), "curve(t-h)": curve(t - h)})
    s = t if one else t[..., None, None]  # t, with the points' matrix axes
    hp, hm = (s + h) - s, s - (s - h)  # the steps taken: t +- h round on the grids of their binades
    vel = (Pp - Pm) / (hp + hm)
    acc = 2.0 * ((Pp - P0) / hp - (P0 - Pm) / hm) / (hp + hm)
    defect = acc - vel @ _lapack.solve(P0, vel)
    return _lapack.norm(defect) if one else _lapack.norms(defect)


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
    neg, pos, cplx = profile._kinds()
    for c in neg:
        if any(c.block_sizes.count(size) % 2 for size in set(c.block_sizes)):
            return ArcKind.NO_ARC
    pos_no_repeat = all(len(set(c.block_sizes)) == len(c.block_sizes) for c in pos)
    if not neg and not cplx and pos_no_repeat:
        return ArcKind.UNIQUE
    if not neg and cplx and pos_no_repeat and all(len(c.block_sizes) == 1 for c in cplx):
        return ArcKind.COUNTABLE
    return ArcKind.CONTINUUM


# classify_arc's refusals before a pair's profile, in the order it raises them
_FRONT_REFUSALS = ((SingularMatrixError, "K0 is numerically singular"),
                   (SingularMatrixError, "K1 is numerically singular"),
                   (IllConditionedError, "K0^-1 K1 overflows the float range"),
                   (IllConditionedError, _SPECTRUM_OVERFLOW))


def classify_arc(K0, K1, tol=DEFAULT_TOL):
    """Classify the geodesic arcs joining ``K0`` to ``K1``, or each pair of two stacks of them.

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

    ``K0`` and ``K1`` may be stacks ``(*s, n, n)`` of one shared shape; the result is then the
    records nested as ``ndarray.tolist()`` nests ``s`` (``[]`` for an empty stack), each the one
    its pair gives alone, and one pair gives one record.  One batched SVD of both endpoints makes
    their singular cuts, then one ``solve``, one ``eig`` and one spectral norm serve every pair.
    Then two phases, each in C order.  First, pair by pair, the front end's refusals, the profile,
    the verdict and its re-runs, up to the first refused pair.  Then the witnesses of the pairs
    before it: one :func:`matcore._real_log` of those whose spectra are real and one of the others
    (one batched eigenbasis and logarithm each; member by member past a member that is not
    semisimple or has no eigenbasis), and pair by pair the :func:`_arc` endpoint check.  A pair is
    refused for, in this order: K0, then K1, numerically singular (SingularMatrixError); a
    quotient M past the float range; a spectrum past it; an ambiguous verdict, a logarithm or a
    witness endpoint that fails (IllConditionedError, SpectrumOnCutError).  A stack raises what
    its first refused pair raises alone, with `` at stack index i`` appended, whichever phase
    refuses it.
    """
    ends = as_squares(stacks=True, K0=K0, K1=K1)
    tol = _tolerance(tol)
    shape, n = ends.shape[1:-2], ends.shape[-1]
    refusals = [None] * 4  # per pair, the flags of each of _FRONT_REFUSALS that any pair meets
    singular = _is_singular(_lapack.svd(ends, compute_uv=False).T).T  # K0's flags, then K1's
    if _lapack.count_nonzero(singular):  # a refused pair's quotient is never read: I stands in
        refusals[:2] = singular
        ends = np.where((singular[0] | singular[1])[..., None, None], np.eye(n), ends)
    K0, K1 = ends
    M = _lapack.solve(K0, K1)
    if not _lapack.all_finite(M):  # two valid endpoints whose quotient overflows
        refusals[2] = ~np.isfinite(M).all(axis=(-2, -1))
        M = np.where(refusals[2][..., None, None], np.eye(n), M)  # eig refuses a non-finite M
    eigs, vecs, norm2, refusals[3] = _spectrum(M)
    out, refused, groups = np.empty(shape, object), [], {}  # groups: the arcs, by realness
    for i in _indices(shape):
        try:
            for flags, (error, message) in zip(refusals, _FRONT_REFUSALS):
                if flags is not None and flags[i]:
                    raise error(message)
            w, _ = _lapack.real_if_real(eigs[i], vecs[i])
            profile, settled = _profile_pass(M[i], w, float(norm2[i]), tol)
            verdict = _verdict(profile)
            for factor in () if settled else _RERUN_FACTORS:
                rerun = _profile_pass(M[i], w, float(norm2[i]), tol * factor)[0]
                if _verdict(rerun) is not verdict:
                    raise IllConditionedError(f"verdict is ambiguous at tolerance {tol:g} (differs "
                                              f"at {tol * factor:g})")
        except TraceGeoError as exc:
            refused.append((i, type(exc), str(exc)))
            break
        if verdict is ArcKind.NO_ARC:
            out[i] = ArcClassification(verdict, None, profile)
        else:
            groups.setdefault(w.dtype.kind, []).append((i, verdict, profile))
    for group in groups.values():
        index, verdicts, profiles = zip(*group)
        at = tuple(map(np.array, zip(*index)))  # () for one pair: the front end's own arrays
        w, V = _lapack.real_if_real(eigs[at], vecs[at])
        logs = _real_log(M[at], w, V, [p.negative_real() for p in profiles], tol)
        for i, verdict, profile, C in zip(index, verdicts, profiles, logs):
            if isinstance(C, TraceGeoError):  # a refused logarithm, never raised
                refused.append((i, type(C), str(C)))
                break
            try:
                out[i] = ArcClassification(verdict, _arc(K0[i], C, K1[i]), profile)
            except TraceGeoError as exc:
                refused.append((i, type(exc), str(exc)))
                break
    # the first refused pair in C order, raised anew: a kept exception would hold this frame
    if refused:
        i, error, message = min(refused, key=lambda refusal: refusal[0])
        raise error(message + _at_index(i))
    return out.tolist()


def _arc(K, C, end):
    """The geodesic K exp(tC), once it reaches ``end`` at t = 1 within 1e-6 relative error; e^C
    is taken by Pade scaling and squaring, not by C's own eigenbasis, which would check itself."""
    gap = _relative_gap(_expm(C, left=K), end)
    if gap > 1e-6:
        raise IllConditionedError(f"witness endpoint check failed (relative error {gap:g})")
    return Geodesic._unchecked(K, C)


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
