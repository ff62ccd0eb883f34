"""Curvature of the trace metric: closed forms and their cross-checks.

The Riemann tensor has a compact commutator expression, Ricci collapses to
traces, and the scalar curvature is a negative constant depending only on
the matrix order.  Independent oracles (a basis-trace Ricci and a
finite-difference Christoffel computation) keep the formulas honest.
"""

import numpy as np

import tracegeo as tg

np.set_printoptions(precision=6, suppress=True)

I2 = np.eye(2)
r2 = np.sqrt(2.0)
D1 = np.diag([1.0, 0.0])
S12 = np.array([[0.0, 1.0], [1.0, 0.0]]) / r2
A12 = np.array([[0.0, 1.0], [-1.0, 0.0]]) / r2

print("== Sectional curvature of coordinate planes at the identity ==")
print("plane(D1, S12):  ", tg.sectional(I2, D1, S12))
print("plane(S12, A12): ", tg.sectional(I2, S12, A12))
print("plane(E11, E22): ", tg.sectional(I2, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))

print()
print("== Ricci on the orthonormal frame ==")
print("Ric(D1, D1)   =", tg.ricci(I2, D1, D1))
print("Ric(S12, S12) =", tg.ricci(I2, S12, S12))
print("Ric(A12, A12) =", tg.ricci(I2, A12, A12))
print("against the basis-trace oracle:",
      tg.ricci_trace_oracle(I2, D1, D1),
      tg.ricci_trace_oracle(I2, S12, S12),
      tg.ricci_trace_oracle(I2, A12, A12))

print()
print("== Scalar curvature is constant ==")
rng = np.random.default_rng(2)
for n, want in ((2, -3.0), (3, -12.0), (4, -30.0)):
    K = rng.uniform(-1, 1, (n, n)) + 2 * np.eye(n)
    print(f"  n={n}: computed {tg.scalar_curvature(K):+.9f}   formula -(n+1)n(n-1)/2 = {want}")

print()
print("== Frame causal characters ==")
frame = tg.orthonormal_frame(np.eye(3))
print("space-like:", frame.causal.count("space-like"), " time-like:", frame.causal.count("time-like"))

print()
print("== Christoffel symbols, two independent ways ==")
P = np.eye(2) + 0.15 * rng.uniform(-1, 1, (2, 2))
gamma = tg.christoffel_closed(P)
fd = tg.christoffel_fd(P, 1e-4)
gap = np.abs(gamma - fd).max()
print("closed-form vs central differences, max gap:", gap)
if gap > 1e-5:
    raise SystemExit("the two Christoffel computations disagree")

print()
print("== Left-invariant fields see a bi-invariant connection ==")
K = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
X0 = rng.uniform(-1, 1, (3, 3))
Y0 = rng.uniform(-1, 1, (3, 3))
Z0 = rng.uniform(-1, 1, (3, 3))
nab = tg.nabla(K, K @ X0, K @ Y0, K @ (X0 @ Y0))
print("nabla_X Y - (1/2)[X, Y] at K:", np.linalg.norm(nab - 0.5 * K @ (X0 @ Y0 - Y0 @ X0)))
r13 = tg.riemann_13(K, K @ X0, K @ Y0, K @ Z0)
brk = X0 @ Y0 - Y0 @ X0
print("R(X,Y)Z - (1/4)[[X,Y],Z] at K:", np.linalg.norm(r13 - 0.25 * K @ (brk @ Z0 - Z0 @ brk)))
