"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, in the tests, and nowhere else.  Truncation
orders and vertex-norm ranges for the combination criteria are chosen so the
order-p model and the exact kernel agree far below the stated tolerances,
keeping the checks about the quantum constructions rather than about Taylor
remainders (those are covered by the graph-level truncation tests).
"""

import math
import time

import numpy as np
import scipy.linalg as sla

from qlapeig.blockenc import (dilate, encode_barL_unit_norm, encode_calL,
                              purified_density_encoding)
from qlapeig.checks import (check_degree_budget, check_exp_gate_bound,
                            check_phi_budget, check_psi_budget,
                            check_state_error_propagation,
                            check_tensor_power_propagation)
from qlapeig.graph import (KernelParams, VertexSet, build_graph,
                           build_taylor_weight_matrix)
from qlapeig.sim import operator_norm_distance
from qlapeig.simulation import SimulationConfig, simulate_hamiltonian
from qlapeig.spectral import PipelineConfig, full_pipeline
from qlapeig.stateprep import (EstimatorConfig, build_degree_state,
                               build_phi_state)

from encoding_reference import zero_ancilla_corner


def unit_vs(rng, n, m):
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return VertexSet.from_vectors(x)


def general_vs(rng, n, m, lo, hi):
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(lo, hi, size=(n, 1))
    return VertexSet.from_vectors(x)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_block_encoding_identity():
    """The purified weight encoding's circuit, run on the zero-ancilla
    inputs, carries (W_p + a~ I)/(n a~): ten seeded unit-norm instances,
    tolerance 1e-9, under ten seconds."""
    t0 = time.time()
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(1000 + trial)
        p = 2 + trial % 2
        vs = unit_vs(rng, 4, 2)
        kp = KernelParams(0.5, p)
        phi = build_phi_state(vs, kp)
        enc = purified_density_encoding(phi.purification, phi.system_dim)
        rho0 = zero_ancilla_corner(enc)  # the circuit on |0>|e_j>
        a_t = kp.a_tilde_sum
        wp, _ = build_taylor_weight_matrix(vs, kp, absorbed=True)
        err = operator_norm_distance(4 * a_t * rho0,
                                     a_t * np.eye(4) + wp)
        worst = max(worst, err)
    elapsed = time.time() - t0
    report("criterion 1 (weight-state block identity)",
           worst <= 1e-9 and elapsed < 10.0,
           f"worst |n a~ rho0 - a~ I - W_p| = {worst:.3e} <= 1e-9, "
           f"{elapsed:.1f} s < 10 s")


def test_criterion_2_degree_identity():
    """Exact-mode degree pipeline on n in {2, 4, 8}: diagonal within 1e-8 of
    the classical degrees, trace estimate within 1e-6 relative."""
    worst_diag, worst_trace = 0.0, 0.0
    for n in (2, 4, 8):
        rng = np.random.default_rng(2000 + n)
        vs = general_vs(rng, n, 2, 0.5, 1.0)
        kp = KernelParams(0.5, 4)
        deg = build_degree_state(vs, kp, EstimatorConfig(mode="exact"))
        gm = build_graph(vs, kp)
        d = np.diag(gm.D)
        rho2 = purified_density_encoding(deg.purification, deg.system_dim).block()
        diag_err = float(np.max(np.abs(np.diag(rho2).real - d / d.sum())))
        tr_err = abs(deg.trace_estimate - gm.trace_D) / gm.trace_D
        worst_diag = max(worst_diag, diag_err)
        worst_trace = max(worst_trace, tr_err)
    report("criterion 2 (degree identity)",
           worst_diag <= 1e-8 and worst_trace <= 1e-6,
           f"worst diag err {worst_diag:.3e} <= 1e-8, "
           f"worst Tr(D) rel err {worst_trace:.3e} <= 1e-6")


def test_criterion_3_laplacian_combination():
    """Combined block against the classical truncated Laplacian, 1e-5, plus
    the all-ones annihilator residual."""
    rng = np.random.default_rng(3000)
    vs = general_vs(rng, 4, 2, 0.3, 0.5)
    kp = KernelParams(0.5, 6)
    res = encode_calL(vs, kp)
    gm = build_graph(vs, kp, truncated=True)
    blk = res.encoding.alpha * res.encoding.block()
    err = operator_norm_distance(blk, gm.L / gm.trace_D)
    resid = float(np.max(np.abs(blk @ np.ones(4))))
    report("criterion 3 (Laplacian combination)",
           err <= 1e-5 and resid <= 1e-5,
           f"|block - L_p/Tr(L_p)| = {err:.3e} <= 1e-5, "
           f"annihilator residual {resid:.3e} <= 1e-5")


def test_criterion_4_end_to_end_spectrum():
    """n = 4, 10 phase bits, 8192 shots: every nonzero eigenvalue within one
    bin of the classical solver, eigenvector fidelity at least 0.99 for
    gap-separated modes.  Under sixty seconds."""
    t0 = time.time()
    rng = np.random.default_rng(4000)
    vs = general_vs(rng, 4, 2, 0.35, 0.55)
    kp = KernelParams(0.5, 6)
    cfg = PipelineConfig(target="L", d=3, qpe_bits=10, qpe_shots=8192, seed=4)
    result, rep = full_pipeline(vs, kp, cfg)
    t = rep["simulation"]["t"]
    resol = 2.0 ** -10 * 2.0 * math.pi / t
    diffs = [abs(a - b) for a, b in
             zip(sorted(result.eigenvalues), result.reference_eigenvalues)]
    gaps = np.diff([0.0] + result.reference_eigenvalues)
    fid_ok = all(f >= 0.99 for f, g in zip(result.fidelities, gaps)
                 if g > resol)
    elapsed = time.time() - t0
    report("criterion 4 (end-to-end spectrum)",
           max(diffs) <= resol and fid_ok and elapsed < 60.0,
           f"max eigenvalue err {max(diffs):.3e} <= bin {resol:.3e}, "
           f"min fidelity {min(result.fidelities):.6f} >= 0.99, "
           f"{elapsed:.1f} s < 60 s")


def test_criterion_5_error_budget_suites():
    """The 1000-trial propagation and budget suites report zero violations."""
    suites = [
        check_state_error_propagation(trials=1000, seed=0),
        check_tensor_power_propagation(trials=1000, seed=1),
        check_phi_budget(trials=1000, seed=2),
        check_psi_budget(trials=1000, seed=3, regime="above"),
        check_psi_budget(trials=1000, seed=13, regime="below"),
        check_degree_budget(trials=1000, seed=4),
    ]
    total = sum(s["violations"] for s in suites)
    detail = ", ".join(f"{s['check']}={s['violations']}" for s in suites)
    report("criterion 5 (error budgets)", total == 0,
           f"violations: {detail} (total {total}, required 0)")


def test_criterion_6_simulation_contract():
    """Metered-path error within budget across the grid; queries monotone in
    alpha t and sublinear in 1/eps."""
    ok_err = True
    worst = 0.0
    queries = {}
    for n in (2, 4):
        rng = np.random.default_rng(6000 + n)
        h = rng.standard_normal((n, n))
        h = (h + h.T) / 2
        h *= 0.8 / np.linalg.norm(h, 2)
        for alpha in (1.0, 3.0):
            enc = dilate(h, alpha)
            for t in (1.0, 2.0, 4.0):
                for eps in (1e-2, 1e-4):
                    out = simulate_hamiltonian(
                        enc, SimulationConfig(t=t, eps=eps, path="lcu_taylor"))
                    exact = sla.expm(-1j * h * t)
                    err = float(np.linalg.norm(out.block() - exact, 2))
                    worst = max(worst, err / eps)
                    ok_err &= err <= eps
                    queries[(n, alpha * t, eps)] = out.meta["query_count"]
    mono = True
    for n in (2, 4):
        for eps in (1e-2, 1e-4):
            xs = [queries[(n, at, eps)] for at in (1.0, 2.0, 3.0, 4.0, 6.0, 12.0)]
            mono &= all(xs[i + 1] >= xs[i] for i in range(len(xs) - 1))
    sub = all(queries[(n, at, 1e-4)] <= 10 * queries[(n, at, 1e-2)]
              for n in (2, 4) for at in (1.0, 2.0, 4.0))
    report("criterion 6 (simulation contract)",
           ok_err and mono and sub,
           f"worst err/budget ratio {worst:.3f} <= 1, queries monotone in "
           f"alpha*t: {mono}, sublinear in 1/eps: {sub}")


def test_criterion_7_kernel_gate_exhaustive():
    """Exhaustive 12-bit kernel-gate error bound, zero violations."""
    results = [check_exp_gate_bound(bits=12, lam=lam, order=8)
               for lam in (0.25, 0.5, 1.0)]
    total = sum(r["violations"] for r in results)
    worst = max(r["worst_ratio"] for r in results)
    report("criterion 7 (kernel gate bound)", total == 0,
           f"4096 labels x 3 rates, violations {total}, worst ratio {worst:.3f}")


def test_criterion_8_generalizations():
    """Symmetric normalization via the sandwich, random-walk eigenvectors via
    the inverse square root, and the weight-matrix target."""
    rng = np.random.default_rng(8030)
    vs = general_vs(rng, 4, 2, 0.35, 0.9)  # well-separated L_s spectrum
    kp = KernelParams(0.5, 6)

    cfg = PipelineConfig(target="Ls", d=3, qpe_bits=10, qpe_shots=8192, seed=8)
    result, rep = full_pipeline(vs, kp, cfg)
    resol = 2.0 ** -10 * 2.0 * math.pi / rep["simulation"]["t"]
    ls_err = max(abs(a - b) for a, b in
                 zip(sorted(result.eigenvalues), result.reference_eigenvalues))

    cfg = PipelineConfig(target="Lr", d=3, qpe_bits=10, qpe_shots=8192, seed=8)
    result_r, rep_r = full_pipeline(vs, kp, cfg)
    lr_resid = max(rep_r["Lr_residuals"])

    xu = unit_vs(np.random.default_rng(8001), 4, 2)
    kpw = KernelParams(0.5, 4)
    cfg = PipelineConfig(target="W", d=4, qpe_bits=10, qpe_shots=8192, seed=8)
    result_w, rep_w = full_pipeline(xu, kpw, cfg)
    gm = build_graph(xu, kpw, truncated=True)
    ref = np.linalg.eigvalsh(gm.W_p / 4)
    resol_w = 2.0 ** -10 * 2.0 * math.pi / rep_w["simulation"]["t"]
    w_err = max(min(abs(v - r) for r in ref) for v in result_w.eigenvalues)

    report("criterion 8 (L_s / L_r / W generalizations)",
           ls_err <= resol and lr_resid <= 1e-6 and w_err <= resol_w,
           f"L_s err {ls_err:.3e} <= {resol:.3e}, L_r residual "
           f"{lr_resid:.3e} <= 1e-6, W err {w_err:.3e} <= {resol_w:.3e}")


def test_criterion_9_cross_path_consistency():
    """The two Laplacian combinations agree on unit-norm inputs."""
    rng = np.random.default_rng(9000)
    vs = unit_vs(rng, 4, 2)
    kp = KernelParams(0.25, 6)
    a = encode_calL(vs, kp, norm_case="unit")
    b = encode_barL_unit_norm(vs, kp)
    dist = operator_norm_distance(a.encoding.alpha * a.encoding.block(),
                                  b.encoding.alpha * b.encoding.block())
    report("criterion 9 (cross-path consistency)", dist <= 1e-5,
           f"|calL - barL| = {dist:.3e} <= 1e-5")
