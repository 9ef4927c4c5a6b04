"""Classical layer walkthrough: Gaussian weight matrices, the truncated
kernel expansion, degree/Laplacian matrices, and the reference eigensolver.

Run:  python3 demos/01_graph_and_kernel.py
"""

import numpy as np

from qlapeig import (KernelParams, VertexSet, build_graph,
                     build_taylor_weight_matrix, build_weight_matrix,
                     classical_eigensolve, truncation_error_report)

rng = np.random.default_rng(7)

# Eight points in the plane.  The circuits read a vertex index into log2 n
# qubits, so a vertex set holds a power-of-two number of vertices; a
# dimension that is not a power of two is padded with zero columns.
points = rng.standard_normal((8, 2)) * 0.6
vs = VertexSet.from_vectors(points)
print(f"n = {vs.n}, m = {vs.m}")

kp = KernelParams(lam=0.5, p=4)
print(f"kernel width lambda = {kp.lam}, truncation order p = {kp.p}")
print("series coefficients a_k:", np.round(kp.coeffs_a, 5))

w = build_weight_matrix(vs, kp)
print("\nexact Gaussian weights (zero diagonal, symmetric):")
print(np.round(w[:4, :4], 4))

# The order-p approximation keeps only the low-order expansion terms.  The
# un-zeroed diagonal value is what the purification pipelines see.
wp, diag = build_taylor_weight_matrix(vs, kp)
print(f"\nmax |W - W_p| at p={kp.p}: {np.max(np.abs(w - wp)):.3e}")
for p in (0, 2, 8, 16):
    wp_p, _ = build_taylor_weight_matrix(vs, KernelParams(0.5, p))
    print(f"  p={p:2d}: max entrywise error {np.max(np.abs(w - wp_p)):.3e}")

rep = truncation_error_report(vs, kp)
print(f"Lagrange remainder bound honored: {rep['within_bound']} "
      f"(measured {rep['max_measured']:.2e} vs bound {rep['max_bound']:.2e})")

gm = build_graph(vs, kp)
print(f"\nTr(L) = Tr(D) = {gm.trace_D:.6f}")
print("L @ 1 residual:", np.max(np.abs(gm.L @ np.ones(vs.n))))

ref = classical_eigensolve(gm.L, d=3)
print("three smallest nonzero Laplacian eigenvalues:", np.round(ref.eigenvalues, 6))
vals_s = np.sort(np.linalg.eigvalsh(gm.L_s))
vals_r = np.sort(np.linalg.eigvals(gm.L_r).real)
print("L_s vs L_r eigenvalue agreement:", np.max(np.abs(vals_s - vals_r)))
