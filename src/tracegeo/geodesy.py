"""Geodesics of the trace metric: evaluation, arcs, classification, joints.

Geodesics are exactly the curves t -> K exp(tC) with K invertible.  Whether
two points K0, K1 can be joined by a geodesic arc reduces to the existence
of a real solution of exp(X) = K0^{-1} K1, which is read off the Jordan
structure of that matrix: blocks of negative eigenvalues must pair up
evenly, and uniqueness requires a positive spectrum with no repeated block.
"""

import enum
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    DifferentComponentsError,
    IllConditionedError,
    NotSPDError,
    NotSymmetricError,
    NotUniqueError,
)
from .matcore import (
    DEFAULT_TOL,
    SpectralProfile,
    _cluster_means,
    _expm,
    _jordan_partition,
    _kernel_staircase,
    _overflow_guard,
    _relative_gap,
    _scipy_linalg,
    as_point_and_tangents,
    as_squares,
    is_negative_real,
    polar_decompose,
    profile_from_spectrum,
    real_log_principal,
    require_invertible,
    so_log,
)


@dataclass(frozen=True, eq=False)
class Geodesic:
    """The geodesic t -> base_point @ expm(t * direction)."""

    base_point: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        K, C = as_point_and_tangents(self.base_point, "base_point", direction=self.direction)
        object.__setattr__(self, "base_point", K)
        object.__setattr__(self, "direction", C)

    def point(self, t):
        """Point of the geodesic at parameter ``t`` (defined for every real t)."""
        return _expm(float(t) * self.direction, left=self.base_point)


def geodesic_from_velocity(K, S):
    """The unique geodesic through K at t=0 with initial velocity S.

    The curve is K exp(t bS) for bS = K^{-1} S.
    """
    return Geodesic(*_point_and_direction(K, S))


@_overflow_guard("geodesic direction")
def _point_and_direction(K, S):
    K, S = as_point_and_tangents(K, "K", S=S)
    return K, np.linalg.solve(K, S)


def spd_geodesic(K, S, t):
    """Symmetric-positive-definite geodesic K^{1/2} exp(t K^{-1/2} S K^{-1/2}) K^{1/2}.

    Agrees with geodesic_from_velocity(K, S) evaluated at t; stated for a
    symmetric positive definite base and a symmetric velocity, where the
    whole curve stays symmetric positive definite.
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
    return _expm(float(t) * inv_half @ S @ inv_half, left=half, right=half)


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
    if h <= 0:
        raise ValueError("step h must be positive")
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
    """Jordan chains of B for the real eigenvalue lam, from one kernel staircase.

    Each chain is returned bottom-up: [x_1, ..., x_k] with (B - lam) x_1 = 0
    and (B - lam) x_j = x_{j-1}.
    """
    E, null_bases = _kernel_staircase(B, lam, mult, tol)
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
    return chains


def _log_series_nilpotent(lam, k):
    """Sum_{i=1}^{k-1} (-1)^{i+1} N^i / (i lam^i) for the k x k nilpotent N."""
    S = np.zeros((k, k))
    for i in range(1, k):
        S += ((-1) ** (i + 1) / (i * lam**i)) * np.eye(k, k, i)
    return S


def _negative_spectrum_log(B, tol):
    """Real logarithm of a matrix whose spectrum is negative with even pairing.

    Equal-size Jordan chains of each eigenvalue are paired; on the span of a
    pair the logarithm acts as [[log|lam| I + S, -pi I], [pi I, log|lam| I + S]]
    with S the nilpotent log series, the realification of the angle-pi branch
    of the complex logarithm.
    """
    _, clusters = _cluster_means(np.linalg.eigvals(B), float(np.linalg.norm(B, 2)), tol)
    columns, blocks = [], []
    for mean, mult in sorted(clusters, key=lambda c: (c[0].real, c[0].imag)):
        lam = mean.real
        if mean.imag != 0.0 or lam >= 0:
            raise IllConditionedError("negative-spectrum block contains non-negative eigenvalues")
        chains = _jordan_chains(B, lam, mult, tol)
        by_len = {}
        for chain in chains:
            by_len.setdefault(len(chain), []).append(chain)
        for k in sorted(by_len):
            group = by_len[k]
            if len(group) % 2:
                raise IllConditionedError("negative eigenvalue with unpaired Jordan block")
            base = np.log(abs(lam)) * np.eye(k) + _log_series_nilpotent(lam, k)
            for first, second in zip(group[0::2], group[1::2]):
                columns.extend(first)
                columns.extend(second)
                blk = np.block([[base, -np.pi * np.eye(k)], [np.pi * np.eye(k), base]])
                blocks.append(blk)
    V = np.column_stack(columns)
    L_local = _scipy_linalg().block_diag(*blocks)
    return V @ L_local @ np.linalg.inv(V)


def _real_log_witness(M, profile, tol):
    """Some real solution of exp(X) = M, principal wherever possible."""
    if not profile.negative_real():
        return real_log_principal(M, tol)
    n = M.shape[0]
    sla = _scipy_linalg()
    T, Z, k = sla.schur(M, output="real", sort=lambda re, im: is_negative_real(complex(re, im), tol))
    if k == 0:
        raise IllConditionedError("spectral split lost the negative eigenvalues")
    if k == n:
        L = _negative_spectrum_log(T, tol)
        return Z @ L @ Z.T
    T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
    X = sla.solve_sylvester(T11, -T22, -T12)
    L11 = _negative_spectrum_log(T11, tol)
    L22 = real_log_principal(T22, tol)
    L_blk = sla.block_diag(L11, L22)
    R = np.eye(n)
    R[:k, k:] = X
    Rinv = np.eye(n)
    Rinv[:k, k:] = -X
    return Z @ (R @ L_blk @ Rinv) @ Z.T


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
    t = 1.  Classification is re-run at tol/10 and 10 tol; a disagreement
    raises IllConditionedError instead of guessing.
    """
    K0, K1 = as_point_and_tangents(K0, "K0", K1=K1)
    require_invertible(K1, "K1")
    M = np.linalg.solve(K0, K1)

    eigs = np.linalg.eigvals(M)
    norm2 = float(np.linalg.norm(M, 2))
    profile = profile_from_spectrum(M, eigs, norm2, tol)
    verdict = _verdict(profile)
    for factor in (0.1, 10.0):
        if _verdict(profile_from_spectrum(M, eigs, norm2, tol * factor)) is not verdict:
            raise IllConditionedError(
                f"verdict is ambiguous at tolerance {tol:g} (differs at {tol * factor:g})"
            )
    witness = None
    if verdict is not ArcKind.NO_ARC:
        C = _real_log_witness(M, profile, tol)
        witness = Geodesic(K0, C)
        gap = _relative_gap(witness.point(1.0), K1)
        if gap > 1e-6:
            raise IllConditionedError(f"witness endpoint check failed (relative error {gap:g})")
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
    K1, K2 = as_point_and_tangents(K1, "K1", K2=K2)
    require_invertible(K2, "K2")
    if np.linalg.slogdet(K1)[0] != np.linalg.slogdet(K2)[0]:
        raise DifferentComponentsError("endpoints lie in different determinant components")
    left = polar_decompose(K1, side="left")
    right = polar_decompose(K2, side="right")
    Z = right.positive @ left.orthogonal
    C1 = real_log_principal(np.linalg.solve(K1, Z), tol)
    C2 = so_log(left.orthogonal.T @ right.orthogonal, tol)
    return BrokenArc(first=Geodesic(K1, C1), second=Geodesic(Z, C2), joint=Z)
