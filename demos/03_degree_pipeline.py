"""The eleven-step degree pipeline.

Distance estimation writes squared distances into a fixed-point register, the
kernel gate turns them into weights, one amplification round discards the
i = j diagonal, rotations move the degree sums into amplitudes, and a second
amplification plus an index copy leaves a purification of D / Tr(D).

Run:  python3 demos/03_degree_pipeline.py
"""

import numpy as np

from qlapeig import (EstimatorConfig, KernelParams, VertexSet,
                     build_degree_state, build_graph, partial_trace,
                     purified_density_encoding, verify_block_encoding)

rng = np.random.default_rng(23)
x = rng.standard_normal((4, 2))
x /= np.linalg.norm(x, axis=1, keepdims=True)
x *= rng.uniform(0.6, 1.1, size=(4, 1))
vs = VertexSet.from_vectors(x)
kp = KernelParams(0.5, 4)

deg = build_degree_state(vs, kp, EstimatorConfig(mode="exact"))
gm = build_graph(vs, kp)
enc = purified_density_encoding(deg.purification, deg.system_dim)
rho2 = enc.block()

print("pipeline degree estimates:", np.round(deg.degree_estimates, 8))
print("classical degrees        :", np.round(np.diag(gm.D), 8))
print("rho2 diagonal            :", np.round(np.diag(rho2).real, 8))
print("off-diagonal mass        :", np.max(np.abs(rho2 - np.diag(np.diag(rho2)))))

print(f"\namplification: initial amplitude p0 = {deg.stats.initial_amplitude:.6f}, "
      f"{deg.stats.iterations} rotation(s), residual {deg.stats.residual:.3e}")
print(f"minimum weight r = {deg.stats.r:.6f} controls the amplification cost")

trace_est = deg.trace_estimate
print(f"\nTr(D) from n(n-1) p0: {trace_est:.10f}")
print(f"classical Tr(D)     : {gm.trace_D:.10f}")
print(f"relative error      : {abs(trace_est - gm.trace_D) / gm.trace_D:.2e}")

# against the simulator's own partial trace over the index register
measured, ok = verify_block_encoding(enc, partial_trace(deg.state, ["i"]).matrix)
print(f"\npurified-density encoding of rho2: error {measured:.2e}, pass={ok}")

# noisy estimators: the degree error follows the distance-noise budget
eps_d = 1e-4
noisy = build_degree_state(vs, kp, EstimatorConfig(mode="noisy", eps_d=eps_d,
                                                   delta1=0.0, seed=3))
drift = np.max(np.abs(noisy.degree_estimates - deg.degree_estimates))
print(f"\nwith eps_d = {eps_d:g} distance noise: degree drift {drift:.2e} "
      f"(budget {(vs.n - 1) * kp.lam * eps_d:.2e})")
