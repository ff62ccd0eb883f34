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
from dataclasses import dataclass

import numpy as np

from .errors import (
    DifferentComponentsError,
    IllConditionedError,
    NotSPDError,
    NotSymmetricError,
    NotUniqueError,
    SpectrumOnCutError,
)
from .matcore import (
    DEFAULT_TOL,
    SpectralProfile,
    _RERUN_FACTORS,
    _curve_parameter,
    _eigenbasis,
    _expm,
    _jordan_partition,
    _kernel_staircase,
    _log_from_eig,
    _overflow_guard,
    _profile_pass,
    _real_part,
    _relative_gap,
    _spectral,
    as_point_and_tangents,
    as_squares,
    polar_decompose,
    real_log_principal,
    require_invertible,
    so_log,
)


@dataclass(frozen=True, eq=False)
class Geodesic:
    """The geodesic t -> base_point @ expm(t * direction).

    Points come from one eigendecomposition of the direction, made on the
    first call of :meth:`point`; a defective or ill-conditioned direction
    takes the Pade exponential ``matcore._expm`` instead.  Both arrays are
    read-only, so the eigenbasis cannot go stale.
    """

    base_point: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        K, C = as_point_and_tangents(self.base_point, "base_point", direction=self.direction)
        self._settle(K, C)

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
        object.__setattr__(self, "base_point", K)
        object.__setattr__(self, "direction", C)

    def __reduce__(self):  # a copy or unpickled geodesic gets read-only arrays and no cached basis
        return Geodesic._unchecked, (self.base_point, self.direction)

    @functools.cached_property
    def _basis(self):
        return _eigenbasis(*np.linalg.eig(self.direction), left=self.base_point)

    @_overflow_guard("matrix exponential")
    def point(self, t):
        """Point of the geodesic at parameter ``t`` (defined for every real t)."""
        t = _curve_parameter(t)
        if self._basis is None:
            return _expm(t * self.direction, left=self.base_point)
        return _spectral(lambda lam: np.exp(t * lam), self._basis).real  # real up to rounding


def geodesic_from_velocity(K, S):
    """The unique geodesic through K at t=0 with initial velocity S.

    The curve is K exp(t bS) for bS = K^{-1} S.
    """
    return Geodesic._unchecked(*_point_and_direction(K, S))


@_overflow_guard("geodesic direction")
def _point_and_direction(K, S):
    K, S = as_point_and_tangents(K, "K", S=S)
    return K, np.linalg.solve(K, S)


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
    w, Q = np.linalg.eigh(0.5 * (K + K.T))
    if w.min() <= 0:
        raise NotSPDError("base point must be positive definite")
    half = Q @ (np.sqrt(w)[:, None] * Q.T)
    inv_half = Q @ (np.sqrt(w)[:, None] ** -1 * Q.T)
    t = _curve_parameter(t)
    A = inv_half @ S @ inv_half
    mu, R = np.linalg.eigh(0.5 * A + 0.5 * A.T)
    return half @ ((R * np.exp(t * mu)) @ R.T) @ half


@_overflow_guard("covariant derivative")
def nabla(P, Xp, Yp, euc_deriv):
    """Covariant derivative value (X(Y))_P - (Xp P^{-1} Yp + Yp P^{-1} Xp)/2.

    That is D - (Xp bY + Yp bX) / 2 for bV = P^{-1} V, where ``euc_deriv`` is the
    caller-supplied Euclidean derivative D of the field Y along X at P (zero
    for constant-coefficient fields).
    """
    P, Xp, Yp, D = stack = as_point_and_tangents(P, "P", Xp=Xp, Yp=Yp, euc_deriv=euc_deriv)
    bX, bY = np.linalg.solve(P, stack[1:3])
    return D - 0.5 * (Xp @ bY + Yp @ bX)


def curve_residual(curve, t, h=1e-4):
    """Frobenius norm of the geodesic-equation defect of ``curve`` at ``t``.

    ``curve`` is a callable returning a matrix; derivatives are central
    differences of step ``h``.  Vanishes as O(h^2) on true geodesics.
    """
    t = _curve_parameter(t)
    # acc divides by h * h, and t +- h rounded to t would read every curve as a geodesic
    if not (0 < h < np.inf and h * h >= np.finfo(float).tiny and t - h != t != t + h):
        raise ValueError("step h must be positive and finite, h * h a normal float, "
                         "and t + h and t - h distinct from t")
    samples = {"curve(t)": curve(t), "curve(t+h)": curve(t + h), "curve(t-h)": curve(t - h)}
    P0, Pp, Pm = as_squares(**samples)
    vel = (Pp - Pm) / (2.0 * h)
    acc = (Pp - 2.0 * P0 + Pm) / (h * h)
    return float(np.linalg.norm(acc - vel @ np.linalg.solve(P0, vel)))


# ---------------------------------------------------------------------------
# Arc classification
# ---------------------------------------------------------------------------


class ArcKind(str, enum.Enum):
    """Cardinality of the family of geodesic arcs joining two points."""

    NO_ARC = "no-arc"
    UNIQUE = "unique"
    COUNTABLE = "countable"
    CONTINUUM = "continuum"


@dataclass(frozen=True, eq=False)
class ArcClassification:
    """Verdict for one pair of endpoints, plus a witness arc when one exists."""

    verdict: ArcKind
    witness: Geodesic | None
    profile: SpectralProfile  # of K0^{-1} K1


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


def _pick_complement(candidates, excluded, need):
    """``need`` columns inside span(candidates) independent of span(excluded)."""
    if candidates.shape[1] < need:
        raise IllConditionedError("Jordan chain extraction ran out of directions")
    if excluded.shape[1]:
        Q, _ = np.linalg.qr(excluded)
        reduced = candidates - Q @ (Q.T @ candidates)
    else:
        reduced = candidates
    _, s, Vh = np.linalg.svd(reduced)
    if s.size < need or s[need - 1] <= 1e-10:
        raise IllConditionedError("Jordan chain extraction found dependent directions")
    return candidates @ Vh[:need].T


def _jordan_chains(B, lam, mult, tol):
    """Jordan chains of B for the real eigenvalue lam, and a basis of its left generalised
    eigenspace, from one kernel staircase.

    Each chain is returned bottom-up: [x_1, ..., x_k] with (B - lam) x_1 = 0
    and (B - lam) x_j = x_{j-1}.
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
                scale = max(np.linalg.norm(v) for v in chain)
                chains.append([v / scale for v in chain])
        level = np.hstack([carry, tops])
        carry = E @ level if level.shape[1] else level
    return chains, left


@_overflow_guard("arc logarithm")
def _real_log_witness(M, eigs, vecs, profile, tol):
    """Some real solution C of exp(C) = M = vecs diag(eigs) vecs^-1, principal wherever possible.

    Every branch choice comes from the profile.  When every negative cluster is semisimple (all
    its blocks of size 1) and :func:`matcore._eigenbasis` accepts ``vecs``, C comes from that one
    eigendecomposition (:func:`_semisimple_log`); with no negative cluster it is M's principal log.
    Otherwise a negative cluster is defective or the basis is ill conditioned.  With no negative
    cluster, C is then :func:`matcore._log_from_eig`'s fallback: its negative-axis cut, then
    ``scipy.linalg.logm``.  With one, the verdict paired the Jordan blocks of each negative
    cluster, and the chains of M come off the profile's staircase, so equal-length chains pair up
    as x, y.  With dual rows D (D [X Y] = I, from the left generalised eigenspaces),
    P = [X Y] D is the negative spectral projector and J = Y D_x - X D_y has J^2 = -P; both
    commute with M, so exp(pi J) = I - 2P and C = log(M (I - 2P)) + pi J: the principal log with
    the negative spectrum flipped, then the angle-pi turn that flips it back.
    """
    negative = profile.negative_real()
    semisimple = all(len(c.block_sizes) == c.multiplicity for c in negative)
    basis = _eigenbasis(eigs, vecs) if semisimple else None
    if basis is not None:
        return _semisimple_log(basis, negative, tol)
    if not negative:
        return _log_from_eig(M, eigs, vecs, tol)
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
    try:  # a singular W^T V, or one so near it that the projector overflows
        D = np.linalg.solve(W.T @ V, W.T)
        A = M - 2.0 * (M @ (V @ D))
        eigs, Q = np.linalg.eig(A)
    except np.linalg.LinAlgError:
        raise IllConditionedError("negative Jordan chains have no dual basis") from None
    half = len(xs)
    J = V[:, half:] @ D[:half] - V[:, :half] @ D[half:]
    return _log_from_eig(A, eigs, Q, tol) + np.pi * J


def _semisimple_log(basis, negative, tol):
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
    and has no real log: SpectrumOnCutError, raised here for a real spectrum and by
    :func:`matcore._real_part` for a complex one, whose log comes back complex.
    """
    eigs, V, Vinv = basis
    lams, J = eigs.copy(), 0.0
    for cluster in negative:
        members = list(cluster.members)
        lams[members] = -cluster.eigenvalue.real
        Vc = V[:, members]
        # a conjugate pair's columns v, conj(v) become Re v and Re(i conj(v)) = Im v
        Q = np.linalg.qr((Vc * np.where(eigs[members].imag < 0, 1j, 1.0)).real)[0]
        D = ((Q.T @ Vc) @ Vinv[members]).real
        half = len(members) // 2
        J = J + Q[:, half:] @ D[:half] - Q[:, :half] @ D[half:]
    if lams.dtype.kind == "f" and lams.min() <= 0:
        raise SpectrumOnCutError("eigenvalue on the closed negative real axis")
    L = _real_part(_spectral(np.log, (lams, V, Vinv)), tol)
    return L + np.pi * J if negative else L


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
    t = 1.  One eigendecomposition M = V diag(lam) V^-1 serves both the
    profile (its eigenvalues) and, when every negative cluster is semisimple,
    the witness V diag(log lam) V^-1 (Higham 2008, section 4.5), with each
    negative cluster's eigenvalues traded for the modulus of its mean and an
    angle-pi turn J added on its eigenspace, where M is a multiple of the
    identity, so that J commutes with M.  A defective negative cluster takes
    its witness from M's Jordan chains instead.  A verdict that
    differs at tol/10 or 10 tol raises IllConditionedError instead of
    guessing.  Each of the profile's two kinds of decision (an eigenvalue
    pair within the clustering cut, which alone decides which clusters are
    real, and a staircase singular value above the rank cut) compares a
    quantity with a cut proportional to tol, and the quantities do not
    depend on tol.  So when none of them lies within a decade of its cut,
    the profiles at tol/10 and 10 tol equal the one at tol and the verdict
    cannot differ; only otherwise is the profile re-run at both.  The witness
    endpoint check takes e^C by Pade scaling and squaring, not through C's
    own eigenbasis, which would check itself.
    """
    K0, K1 = as_point_and_tangents(K0, "K0", K1=K1)
    require_invertible(K1, "K1")
    M = np.linalg.solve(K0, K1)

    eigs, vecs = np.linalg.eig(M)
    norm2 = float(np.linalg.svd(M, compute_uv=False)[0])
    profile, settled = _profile_pass(M, eigs, norm2, tol)
    verdict = _verdict(profile)
    for factor in () if settled else _RERUN_FACTORS:
        if _verdict(_profile_pass(M, eigs, norm2, tol * factor)[0]) is not verdict:
            raise IllConditionedError(
                f"verdict is ambiguous at tolerance {tol:g} (differs at {tol * factor:g})"
            )
    witness = None
    if verdict is not ArcKind.NO_ARC:
        C = _real_log_witness(M, eigs, vecs, profile, tol)
        gap = _relative_gap(_expm(C, left=K0), K1)
        if gap > 1e-6:
            raise IllConditionedError(f"witness endpoint check failed (relative error {gap:g})")
        witness = Geodesic._unchecked(K0, C)
    return ArcClassification(verdict=verdict, witness=witness, profile=profile)


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


@dataclass(frozen=True, eq=False)
class BrokenArc:
    """Two geodesic arcs sharing the joint: first.point(1) = second.point(0) = joint."""

    first: Geodesic
    second: Geodesic
    joint: np.ndarray


def broken_arc(K1, K2, tol=DEFAULT_TOL):
    """Join two same-component points by a singly broken geodesic arc.

    With left polar K1 = O1 P1 and right polar K2 = P2 O2 the joint is
    Z = P2 O1.  K1^{-1} Z has positive spectrum, so the first leg is a
    principal-log arc; Z^{-1} K2 = O1^T O2 is special orthogonal, so the
    second leg is a rotation arc through the skew logarithm.
    """
    K1, K2 = as_squares(K1=K1, K2=K2)
    left = polar_decompose(K1, side="left")  # the singular cuts on K1 and K2
    right = polar_decompose(K2, side="right")
    if np.linalg.slogdet(K1)[0] != np.linalg.slogdet(K2)[0]:
        raise DifferentComponentsError("endpoints lie in different determinant components")
    Z = right.positive @ left.orthogonal
    C1 = real_log_principal(np.linalg.solve(K1, Z), tol)
    C2 = so_log(left.orthogonal.T @ right.orthogonal, tol)
    return BrokenArc(first=Geodesic._unchecked(K1, C1), second=Geodesic._unchecked(Z, C2), joint=Z)
