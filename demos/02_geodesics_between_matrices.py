"""Geodesics of the trace metric and the arc-existence zoo.

Every geodesic is t -> K exp(tC), so joining K0 to K1 by a geodesic arc
means solving exp(C) = K0^{-1} K1 over the reals.  Whether that has no
solution, exactly one, countably many, or a continuum is decided by the
Jordan structure of K0^{-1} K1 -- and when nothing works directly, two legs
through a polar-decomposition joint always do.
"""

import numpy as np

import tracegeo as tg

np.set_printoptions(precision=6, suppress=True)

I2 = np.eye(2)

print("== Geodesics and the exponential ==")
geo = tg.Geodesic(I2, np.diag([1.0, -1.0]))
print("P(1) for C=diag(1,-1):\n", geo.point(1.0))
print("residual of the geodesic equation at t=0.5:", tg.curve_residual(geo.point, 0.5))
line = lambda t: I2 + t * np.array([[0.3, 0.8], [-0.2, 0.5]])  # noqa: E731
print("residual of a straight line (not a geodesic):", tg.curve_residual(line, 0.5))

print()
print("== Classification of arcs from the identity ==")
targets = {
    "diag(1,2)        ": np.diag([1.0, 2.0]),
    "quarter turn     ": np.array([[0.0, -1.0], [1.0, 0.0]]),
    "-I               ": -I2,
    "diag(-1,2)       ": np.diag([-1.0, 2.0]),
    "I (itself)       ": I2,
    "unipotent [[1,1]]": np.array([[1.0, 1.0], [0.0, 1.0]]),
}
for name, K1 in targets.items():
    out = tg.classify_arc(I2, K1)
    tail = ""
    if out.witness is not None:
        err = np.linalg.norm(out.witness.point(1.0) - K1)
        tail = f" (witness endpoint error {err:.1e})"
    print(f"  I -> {name}: {out.verdict.value}{tail}")

print()
print("== The unique arc interpolates like a matrix geometric mean ==")
for name, K1 in (("diag(1,4)", np.diag([1.0, 4.0])), ("diag(4,9)", np.diag([4.0, 9.0]))):
    out = tg.classify_arc(I2, K1)
    assert out.verdict is tg.ArcKind.UNIQUE  # the witness is then the one arc
    print(f"midpoint of I .. {name}:\n", out.witness.point(0.5))

print()
print("== Determinants ride along exponentially ==")
K = np.diag([2.0, 1.0])
C = np.array([[0.1, 0.7], [0.4, -0.1]])  # traceless
geo = tg.Geodesic(K, C)
for t in (0.0, 0.5, 1.0, 2.0):
    print(f"  det P({t}) = {np.linalg.det(geo.point(t)):.12f}  (trace-free C keeps the leaf)")

print()
print("== When no single arc exists, one joint is enough ==")
K1, K2 = I2, -I2
arc = tg.broken_arc(K1, K2)
print("joint Z:\n", arc.joint)
print("second-leg direction (a half-turn generator):\n", arc.second.direction)
print("leg endpoints:",
      np.linalg.norm(arc.first.point(1.0) - arc.joint),
      np.linalg.norm(arc.second.point(1.0) - K2))

rng = np.random.default_rng(1)
K1 = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
K2 = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
if np.linalg.det(K1) * np.linalg.det(K2) < 0:
    K2[0] = -K2[0]
arc = tg.broken_arc(K1, K2)
print("random same-component pair, endpoint errors:",
      np.linalg.norm(arc.first.point(1.0) - arc.joint),
      np.linalg.norm(arc.second.point(1.0) - K2))
