"""Invariant and error-budget check battery.

Each check returns a JSON-ready dict with a ``pass`` flag and a violation
count; the harness emits one line per check and pytest asserts on the same
functions.  ``run_checks`` runs a suite's checks in separate processes, so
every check in ``CHECKS`` keeps this contract.  It is seeded with its own
seed, not a shared generator.  It shares no state with another check: it
reads nothing another check writes (``hadamard_all``'s cache holds the same
arrays whoever fills it), so it returns the same dict in any order and any
process.  It returns a picklable dict of plain ints, floats, bools and
strings.

The perturbation model matches the bound hypotheses exactly: amplitude
vectors are moved on their spheres by a prescribed chordal distance, so the
inequality chains apply verbatim.  The quadratic-in-order budget forms hold
for truncation orders >= 2 (at order 1 the stated constant is smaller than
the triangle-inequality chain), so the suites run at orders 2..5.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from .arith import exp_neg_lambda_bound, exp_neg_lambda_label
from .blockenc import (BlockEncoding, _purified, encode_barL_unit_norm,
                       encode_calL, fixed_point_gram, lcu_combine,
                       make_signed_pair)
from .graph import (KernelParams, VertexSet, build_graph,
                    build_taylor_weight_matrix, build_weight_matrix)
from .sim import FixedPointSpec, operator_norm_distance
from .stateprep import (ErrorBudget, EstimatorConfig, PrepConfig, QramOracle,
                        build_degree_state, build_phi_state, build_psi_state,
                        sphere_perturb)

__all__ = ["run_checks", "CHECKS"]


def _unit_vertices(rng, n, m):
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return VertexSet.from_vectors(x)


def _general_vertices(rng, n, m, lo=0.6, hi=1.4):
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(lo, hi, size=(n, 1))
    return VertexSet.from_vectors(x)


def _summary(name, trials, violations, worst, note=""):
    return {"check": name, "trials": int(trials), "violations": int(violations),
            "worst_ratio": float(worst), "pass": bool(violations == 0),
            "note": note}


# ---------------------------------------------------------------------------
# error-propagation inequalities

def check_state_error_propagation(trials=1000, seed=0):
    """||a x - b y|| <= (a - b) + b eps for unit x, y with ||x-y|| <= eps,
    a >= b > 0."""
    rng = np.random.default_rng(seed)
    bad, worst = 0, 0.0
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        x = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        eps = 10.0 ** rng.uniform(-6, -0.5)
        y = sphere_perturb(x, eps, rng)
        b = rng.uniform(0.05, 2.0)
        a = b + rng.uniform(0.0, 2.0)
        measured = np.linalg.norm(a * x - b * y)
        bound = (a - b) + b * eps
        worst = max(worst, measured / bound)
        bad += measured > bound + 1e-12
    return _summary("state_error_propagation", trials, bad, worst)


def check_tensor_power_propagation(trials=1000, seed=1, max_power=5):
    """||x^(x)p - y^(x)p|| <= p ||x - y|| for unit vectors."""
    rng = np.random.default_rng(seed)
    bad, worst = 0, 0.0
    for _ in range(trials):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        eps = 10.0 ** rng.uniform(-6, -0.5)
        y = sphere_perturb(x, eps, rng)
        p = int(rng.integers(2, max_power + 1))
        tx, ty = x.copy(), y.copy()
        for _ in range(p - 1):
            tx = np.multiply.outer(tx, x).ravel()
            ty = np.multiply.outer(ty, y).ravel()
        measured = np.linalg.norm(tx - ty)
        bound = p * eps
        worst = max(worst, measured / bound)
        bad += measured > bound + 1e-12
    return _summary("tensor_power_propagation", trials, bad, worst)


# ---------------------------------------------------------------------------
# weight-state budgets

def check_phi_budget(trials=100, seed=2, n=4, m=2):
    """Perturbed coefficient state and perturbed vector encodings: the
    prepared weight state stays within both the chain bound
    sqrt(n)(eps_a + (1+..+p) eps_x) and, at orders >= 2, sqrt(n) p^2 eps_x;
    per-vertex branches stay within eps_a + (1+..+p) eps_x."""
    rng = np.random.default_rng(seed)
    bad, worst = 0, 0.0
    for trial in range(trials):
        p = int(rng.integers(2, 4))
        kp = KernelParams(float(rng.uniform(0.25, 1.0)), p)
        vs = _unit_vertices(rng, n, m)
        eps_x = 10.0 ** rng.uniform(-5, -2)
        exact = build_phi_state(vs, kp)
        pert = build_phi_state(
            vs, kp, PrepConfig(coeff_eps=eps_x, seed=int(rng.integers(2 ** 31))),
            oracle=QramOracle(vs, eps_x=eps_x, seed=int(rng.integers(2 ** 31))))
        v0 = exact.purification
        v1 = pert.purification
        measured = np.linalg.norm(v1 - v0)
        chain = math.sqrt(n) * (eps_x + p * (p + 1) / 2 * eps_x)
        headline = ErrorBudget(eps_x=eps_x).eps0(n, p)
        branch_bound = eps_x + p * (p + 1) / 2 * eps_x
        anc = v0.size // n
        branch_worst = 0.0
        for i in range(n):
            bd = np.linalg.norm(v1.reshape(n, anc)[i] - v0.reshape(n, anc)[i])
            branch_worst = max(branch_worst, bd * math.sqrt(n))
        ok = (measured <= chain + 1e-12 and measured <= headline + 1e-12
              and branch_worst <= branch_bound + 1e-12)
        worst = max(worst, measured / headline)
        bad += not ok
    return _summary("phi_error_budget", trials, bad, worst)


def check_psi_budget(trials=60, seed=3, n=4, m=2, regime="above"):
    """General-norm weight state under the same perturbation model; the
    norm-power factor enters the bound only when some norm exceeds one."""
    rng = np.random.default_rng(seed)
    bad, worst = 0, 0.0
    lo, hi = (1.0, 1.25) if regime == "above" else (0.55, 0.95)
    for trial in range(trials):
        p = int(rng.integers(2, 4))
        kp = KernelParams(float(rng.uniform(0.25, 0.75)), p)
        vs = _general_vertices(rng, n, m, lo, hi)
        eps_x = 10.0 ** rng.uniform(-5, -2.5)
        exact = build_psi_state(vs, kp)
        s1 = int(rng.integers(2 ** 31))
        s2 = int(rng.integers(2 ** 31))
        pert = build_psi_state(
            vs, kp, PrepConfig(coeff_eps=eps_x, seed=s1),
            oracle=QramOracle(vs, eps_x=eps_x, seed=s2))
        measured = np.linalg.norm(pert.purification - exact.purification)
        headline = ErrorBudget(eps_x=eps_x).eps1(n, p, kp.a_sum,
                                                 float(np.max(vs.norms)))
        worst = max(worst, measured / headline)
        bad += measured > headline + 1e-12
    note = "norms > 1" if regime == "above" else "norms < 1"
    return _summary(f"psi_error_budget_{regime}", trials, bad, worst, note)


def check_degree_budget(trials=60, seed=4, n=4, m=2):
    """Distance noise of width eps_d (conditioned on estimator success, the
    bound's hypothesis): inner-product error <= lam eps_d and the
    degree-state distance <= lam eps_d / (2 sqrt(r))."""
    rng = np.random.default_rng(seed)
    bad, worst = 0, 0.0
    for trial in range(trials):
        kp = KernelParams(float(rng.uniform(0.3, 0.8)), 2)
        vs = _general_vertices(rng, n, m, 0.5, 1.2)
        eps_d = 10.0 ** rng.uniform(-4, -2)
        est = EstimatorConfig(mode="noisy", eps_d=eps_d, delta1=0.0,
                              seed=int(rng.integers(2 ** 31)))
        exact = build_degree_state(vs, kp, EstimatorConfig(mode="exact"))
        noisy = build_degree_state(vs, kp, est)
        w = build_weight_matrix(vs, kp)
        r = float(np.min(w[w > 0]))
        # inner-product error chain (mean-value bound)
        ip_err = np.max(np.abs(noisy.degree_estimates - exact.degree_estimates)) / (n - 1)
        if ip_err > kp.lam * eps_d + 1e-12:
            bad += 1
        measured = np.linalg.norm(noisy.purification - exact.purification)
        bound = ErrorBudget(eps_d=eps_d).eps2(kp.lam, r)
        worst = max(worst, measured / bound)
        bad += measured > bound + 1e-12
    return _summary("degree_error_budget", trials, bad, worst)


# ---------------------------------------------------------------------------
# structural identities

def check_rho0_identity(seed=5, n=4, m=2, p=3, lam=0.5):
    """n a~ rho0 - a~ I equals the absorbed-coefficient truncated weights."""
    rng = np.random.default_rng(seed)
    vs = _unit_vertices(rng, n, m)
    kp = KernelParams(lam, p)
    phi = build_phi_state(vs, kp)
    a_t = kp.a_tilde_sum
    wp, _ = build_taylor_weight_matrix(vs, kp, absorbed=True)
    lhs = n * a_t * _purified(phi).block() - a_t * np.eye(n)
    err = float(np.max(np.abs(lhs - wp)))
    return _summary("rho0_identity", 1, int(err > 1e-9), err / 1e-9)


def check_rho1_identity(seed=6, n=4, m=2, p=2, lam=0.5):
    """Upsilon rho1 reproduces the fixed-point truncated weights, and the
    pre-amplification amplitude equals Upsilon/(n a C^2)."""
    rng = np.random.default_rng(seed)
    vs = _general_vertices(rng, n, m, 0.7, 1.3)
    kp = KernelParams(lam, p)
    psi = build_psi_state(vs, kp)
    gram = fixed_point_gram(vs, kp, psi.fx_values)
    ups = np.trace(gram)
    err = float(np.max(np.abs(_purified(psi).block() * ups - gram)))
    amp_err = abs(psi.stats.initial_amplitude
                  - ups / (n * kp.a_sum * psi.rotation_scale ** 2))
    bad = int(err > 1e-9) + int(amp_err > 1e-9)
    return _summary("rho1_upsilon_identity", 2, bad, max(err, amp_err) / 1e-9)


def check_degree_identity(seed=7, n=4, m=2, lam=0.5):
    """Exact-mode pipeline: rho2 diagonal equals the pipeline degrees over
    their sum, and Tr(D) = n(n-1)p0."""
    rng = np.random.default_rng(seed)
    vs = _general_vertices(rng, n, m, 0.6, 1.2)
    kp = KernelParams(lam, 4)
    deg = build_degree_state(vs, kp, EstimatorConfig(mode="exact"))
    diag = np.diag(_purified(deg).block()).real
    err = float(np.max(np.abs(diag - deg.degree_estimates / deg.degree_estimates.sum())))
    gm = build_graph(vs, kp)
    tr_err = abs(deg.trace_estimate - np.trace(gm.D)) / np.trace(gm.D)
    bad = int(err > 1e-10) + int(tr_err > 1e-6)
    return _summary("degree_identity", 2, bad, max(err / 1e-10, tr_err / 1e-6))


def check_purified_encoding_exactness(seed=8, n=4, m=2, p=2, lam=0.5):
    """Purified encodings are exact: the SWAP-sandwich circuit around a
    preparation of |Phi>, run by ``apply`` on the zero-ancilla inputs
    |0>|e_j>, returns the reduced state ``block()`` reads, within 1e-10."""
    vs = _unit_vertices(np.random.default_rng(seed), n, m)
    enc = _purified(build_phi_state(vs, KernelParams(lam, p)))
    s = enc.subject_dim
    zero_ancilla = np.eye((1 << enc.ancillas) * s, s)  # column j is |0>|e_j>
    measured = operator_norm_distance(enc.apply(zero_ancilla)[:s], enc.block())
    return _summary("purified_encoding_exactness", 1,
                    int(measured > 1e-10), measured / 1e-10)


def check_lcu_parameter_law(trials=50, seed=9, s=4):
    """Combined-block error stays within alpha eps_y + alpha beta eps_A under
    injected pair and component errors; each component encodes
    (A_j + bump)/alpha at its claimed eps_A."""
    rng = np.random.default_rng(seed)
    bad, worst = 0, 0.0
    for trial in range(trials):
        terms = int(rng.integers(2, 4))
        y = rng.uniform(-1, 1, size=terms)
        y[np.abs(y) < 0.05] = 0.2
        mats = [np.linalg.qr(rng.standard_normal((s, s)))[0] * 0.4 for _ in range(terms)]
        eps_a = 10.0 ** rng.uniform(-6, -3)
        alpha = 1.0
        encs = []
        for a in mats:
            bump = rng.standard_normal((s, s))
            bump *= eps_a / np.linalg.norm(bump, 2)
            encs.append(BlockEncoding(alpha, 1, eps_a, s, backend="composite",
                                      _block=(a + bump) / alpha))
        eps_y = 10.0 ** rng.uniform(-6, -3)
        beta = float(np.sum(np.abs(y)) * rng.uniform(1.0, 1.5))
        pair = make_signed_pair(y, beta=beta, inject_eps_y=eps_y,
                                seed=int(rng.integers(2 ** 31)))
        combined = lcu_combine(pair, encs)
        target = sum(w * a for w, a in zip(y, mats))
        measured = operator_norm_distance(target, combined.alpha * combined.block())
        bound = alpha * pair.epsilon_y + alpha * pair.beta * eps_a
        worst = max(worst, measured / bound if bound else 0.0)
        bad += measured > bound + 1e-12
    return _summary("lcu_parameter_law", trials, bad, worst)


def check_laplacian_annihilator(seed=10, n=4, m=2, p=6, lam=0.5):
    """The combined Laplacian block annihilates the all-ones vector.

    Small vertex norms keep the truncation residual far below tolerance.
    """
    rng = np.random.default_rng(seed)
    vs = _general_vertices(rng, n, m, 0.3, 0.5)
    kp = KernelParams(lam, p)
    res = encode_calL(vs, kp)
    blk = res.encoding.alpha * res.encoding.block()
    resid = float(np.max(np.abs(blk @ np.ones(n))))
    return _summary("laplacian_annihilator", 1, int(resid > 1e-5), resid / 1e-5)


def check_cross_path(seed=11, n=4, m=2, p=6, lam=0.25):
    """Unit-norm inputs: the general combination and its unit-norm
    rearrangement encode the same block."""
    rng = np.random.default_rng(seed)
    vs = _unit_vertices(rng, n, m)
    kp = KernelParams(lam, p)
    a = encode_calL(vs, kp, norm_case="unit")
    b = encode_barL_unit_norm(vs, kp)
    dist = operator_norm_distance(a.encoding.alpha * a.encoding.block(),
                                  b.encoding.alpha * b.encoding.block())
    return _summary("cross_path_consistency", 1, int(dist > 1e-5), dist / 1e-5)


def check_exp_gate_bound(bits=12, lam=1.0, order=8):
    """Exhaustive fixed-point kernel-gate error check at the given width."""
    spec = FixedPointSpec(bits, 1)
    bad, worst = 0, 0.0
    for label in range(1 << bits):
        x = spec.decode(label)
        out = spec.decode(exp_neg_lambda_label(label, spec, spec, lam, order))
        err = abs(out - math.exp(-lam * x))
        bound = exp_neg_lambda_bound(x, lam, order, bits)
        worst = max(worst, err / bound if bound > 0 else 0.0)
        bad += err > bound
    return _summary(f"exp_gate_bound_b{bits}", 1 << bits, bad, worst,
                    f"lam={lam} order={order}")


def check_truncation_monotone(seed=12, n=4, m=2, lam=0.5):
    """|W - W_p| max-norm decreases along p in {0,1,2,4,8,16}."""
    rng = np.random.default_rng(seed)
    vs = _unit_vertices(rng, n, m)
    w = build_weight_matrix(vs, KernelParams(lam, 0))
    errs = []
    for p in (0, 1, 2, 4, 8, 16):
        wp, _ = build_taylor_weight_matrix(vs, KernelParams(lam, p))
        errs.append(float(np.max(np.abs(w - wp))))
    bad = sum(errs[i + 1] > errs[i] + 1e-15 for i in range(len(errs) - 1))
    return _summary("truncation_monotone", len(errs) - 1, bad,
                    max(errs[-1] / 1e-10, 0.0))


CHECKS = {
    "small": [
        lambda: check_state_error_propagation(trials=300, seed=0),
        lambda: check_tensor_power_propagation(trials=300, seed=1),
        lambda: check_phi_budget(trials=25, seed=2),
        lambda: check_psi_budget(trials=15, seed=3, regime="above"),
        lambda: check_psi_budget(trials=15, seed=13, regime="below"),
        lambda: check_degree_budget(trials=15, seed=4),
        check_rho0_identity,
        check_rho1_identity,
        check_degree_identity,
        check_purified_encoding_exactness,
        lambda: check_lcu_parameter_law(trials=20, seed=9),
        check_laplacian_annihilator,
        check_cross_path,
        lambda: check_exp_gate_bound(bits=12, lam=1.0, order=8),
        check_truncation_monotone,
    ],
    "medium": [
        lambda: check_state_error_propagation(trials=1000, seed=0),
        lambda: check_tensor_power_propagation(trials=1000, seed=1),
        lambda: check_phi_budget(trials=100, seed=2),
        lambda: check_psi_budget(trials=60, seed=3, regime="above"),
        lambda: check_psi_budget(trials=60, seed=13, regime="below"),
        lambda: check_degree_budget(trials=60, seed=4),
        lambda: check_rho0_identity(n=8),
        lambda: check_rho1_identity(n=4, p=3),
        lambda: check_degree_identity(n=8),
        check_purified_encoding_exactness,
        lambda: check_lcu_parameter_law(trials=50, seed=9),
        check_laplacian_annihilator,
        check_cross_path,
        lambda: check_exp_gate_bound(bits=12, lam=1.0, order=8),
        lambda: check_exp_gate_bound(bits=12, lam=0.5, order=8),
        check_truncation_monotone,
    ],
}


def _run_check(size: str, index: int):
    return CHECKS[size][index]()


def run_checks(size: str = "small"):
    """Run the suite's checks in a pool of forked processes, one per CPU this
    process may use (at most one per check), and return their results in
    suite order.  A check's exception re-raises here with its own type; a
    worker that dies raises ``BrokenProcessPool``."""
    if size not in CHECKS:
        raise ValueError(f"unknown suite size {size!r}")
    # imported here, so that a run without the battery does not pay for it.
    # Fork, not spawn: a spawned worker would import numpy and qlapeig again
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    count = len(CHECKS[size])
    workers = min(count, len(os.sched_getaffinity(0)))
    # a forked worker writes out the buffers it inherits when it exits
    # (multiprocessing flushes before it forks, but does not document it)
    sys.stdout.flush()
    sys.stderr.flush()
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) as pool:
        # by index: the suites hold lambdas, which do not pickle
        return list(pool.map(_run_check, [size] * count, range(count)))
