"""Phase estimation on the maximally mixed input, eigenpair extraction, and
the end-to-end pipeline, which runs Hamiltonian simulation
(``qlapeig.simulation``) between the block-encoding and phase estimation.

Phase estimation (``run_qpe``) never holds the register of 2^bits slots,
each an n x n matrix: slot y is U^y |Phi>, |Phi> the purified
maximally-mixed input, whose matrix is the identity over sqrt(n 2^bits).
For that input the register's Born distribution depends on U only through
the traces Tr(U^d), the quantities one clean qubit estimates (DQC1: Knill
and Laflamme 1998).  For unitary U and P = 2^bits,
p(z) = (1 / (n P^2)) sum_{|d| < P} (P - |d|) e^(-2 pi i z d / P) Tr(U^d),
and Tr(U^-d) is the conjugate of Tr(U^d), so p is one length-P FFT of the
folded sequence (P - d) Tr(U^d) + d conj(Tr(U^(P - d))), d < P.  With v
U's eigenvalues, Tr(U^(a + c s)) = sum_mu v_mu^a (v_mu^s)^c, s =
2^floor(bits/2): one GEMM of running products, n (s + P/s) amplitudes and
n P multiply-adds, against P n^3 for the register.  The phase register is
read out in the Fourier basis, a product state, so the transformed slot z
is sum_y (w^z U)^y = prod_k (I + (w^z U)^(2^k)) times the slot scale,
w = e^(-2 pi i / 2^bits) (Cleve, Ekert, Macchiavello and Mosca 1998), that
is Q diag(g_z(v)) Q^dag (``_bin_filter``).  A cluster's mixture of its
bins' normalized post-states is then Q diag(weights) Q^dag, and extraction
returns columns of Q (``_cluster_vectors``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blockenc import (BlockEncoding, LaplacianEncodingResult, encode_calL,
                       encode_W_over_n, encoding_report, sandwich_negative_power,
                       taylor_consistent_reference, w_consistent_reference)
from .graph import (GraphError, GraphMatrices, KernelParams, VertexSet,
                    build_graph, classical_eigensolve, graph_matrices_to_json,
                    resolve_norm_case)
from .sim import SimError
from .simulation import (_EPS_FLOOR, Evolution, SimulationConfig, SimulationError,
                         _sim_setting_error, simulate_hamiltonian)
from .stateprep import EstimatorConfig, PrepConfig, _desk_scale_guard

__all__ = [
    "ResolutionError",
    "QpeConfig",
    "QpeSamples",
    "SpectralCluster",
    "SpectralResult",
    "PipelineConfig",
    "EncodedTarget",
    "run_qpe",
    "extract_d_smallest",
    "recover_Lr_eigenvectors",
    "encode_target",
    "full_pipeline",
]


class ResolutionError(SimError):
    """Requested more eigenpairs than the phase resolution can separate."""


@dataclass
class QpeConfig:
    phase_bits: int
    shots: int
    seed: int | None = None
    time_scale: float = 1.0


@dataclass
class QpeSamples:
    counts: dict                 # outcome -> shots
    probs: np.ndarray            # outcome -> Born probability
    phase_bits: int
    time_scale: float
    shots: int
    basis: np.ndarray            # the evolution's eigenbasis Q
    phases: np.ndarray           # the evolution's eigenvalues u on Q's columns


@dataclass
class SpectralCluster:
    eigenvalue: float
    phase: float
    weight: float
    vectors: np.ndarray          # (n, multiplicity), orthonormal columns
    bins: list


@dataclass
class SpectralResult:
    clusters: list
    d: int
    fidelities: list = field(default_factory=list)
    reference_eigenvalues: list = field(default_factory=list)
    weight_build: object = None  # the weight-state build the encodings used

    @property
    def eigenvalues(self):
        return [c.eigenvalue for c in self.clusters]


# ---------------------------------------------------------------------------
# phase estimation on the maximally mixed input

def run_qpe(evolution: Evolution, qcfg: QpeConfig,
            lambda_max_bound: float | None = None) -> QpeSamples:
    """Textbook QPE with the purified maximally-mixed input.

    The controlled U^y use the adjoint U of the evolution, eigenvalues
    conj(u), so that eigenphases come out as +gamma t / 2 pi.  The phase
    register's Born weights are read from the trace moments Tr(U^d) (module
    docstring), an identity of the circuit's output for unitary U.
    Precondition: the simulation contract ||U - e^(-iHt)|| <= eps, eps =
    ``evolution.epsilon`` (read as at least the round-off floor 1e-12 the
    oracle path claims), gives max_mu ||u_mu|^2 - 1| <= 2 eps + eps^2; an
    evolution beyond that raises ``SimulationError``.  Within it, the
    trace-moment marginal and the register's own both stay within about
    4 2^bits eps of the exact evolution's.  The desk-scale guard counts Q,
    the n (s + 2^bits / s) running products and the 2^bits moments.  The
    shots are the draws of ``Generator.choice`` (``_shot_counts``).
    """
    t = qcfg.time_scale
    if lambda_max_bound is not None and t * lambda_max_bound >= 2.0 * math.pi:
        raise SimulationError("phase wraparound: t * lambda_max >= 2 pi")
    eigs = evolution.phases.conj()
    n = len(eigs)
    eps = max(evolution.epsilon, _EPS_FLOOR)
    bound = 2.0 * eps + eps * eps
    defect = float(np.max(np.abs(np.abs(eigs) ** 2 - 1.0)))
    if not defect <= bound:  # a NaN eigenvalue is refused too
        raise SimulationError(
            f"phase estimation needs a unitary evolution: max ||u|^2 - 1| = "
            f"{defect:.3e} exceeds 2 eps + eps^2 for the claimed eps = {eps:.3e}")
    bits = qcfg.phase_bits
    pdim = 1 << bits
    baby = 1 << (bits // 2)
    _desk_scale_guard(n * n + n * (baby + pdim // baby) + pdim,
                      f"{bits}-bit phase estimation's eigenbasis and moments",
                      "use fewer qpe_bits or fewer vertices")
    steps = np.vander(eigs, baby, increasing=True)  # v^a, a < s
    giant = np.vander(steps[:, -1] * eigs, pdim // baby, increasing=True)
    traces = (giant.T @ steps).reshape(-1)  # Tr(U^(a + c s)) at a + c s
    k = np.arange(pdim)
    folded = (pdim - k) * traces  # d and d - pdim share bin d of the FFT
    folded[1:] += k[1:] * traces[:0:-1].conj()
    probs = np.fft.fft(folded).real / (n * pdim * pdim)
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    counts = _shot_counts(probs, qcfg.shots, np.random.default_rng(qcfg.seed))
    return QpeSamples(counts, probs, bits, t, qcfg.shots, evolution.basis,
                      evolution.phases)


def _shot_counts(probs: np.ndarray, shots: int, rng: np.random.Generator) -> dict:
    """Outcome -> shots, ordered by outcome, zero counts left out: the
    counts of ``rng.choice(len(probs), size=shots, p=probs)``.

    ``choice`` draws ``rng.random(shots)`` and maps a uniform u to the first
    z with u < cdf[z], the CDF divided by its last entry.  The same uniforms,
    sorted once, give bin z as #(u < cdf[z]) - #(u < cdf[z - 1]), one
    ``searchsorted`` of the CDF into them."""
    cdf = probs.cumsum()
    if not math.isfinite(cdf[-1]):
        raise ValueError("probabilities contain NaN")
    cdf /= cdf[-1]
    uniforms = np.sort(rng.random(shots))
    hits = np.diff(np.searchsorted(uniforms, cdf, side="left"), prepend=0)
    outcomes = np.flatnonzero(hits)
    return dict(zip(outcomes.tolist(), hits[outcomes].tolist()))


def _bin_filter(eigs: np.ndarray, z: int, bits: int) -> np.ndarray:
    """g_z(v) = prod_k (1 + (w^z v)^(2^k)) = sum_{y < 2^bits} (w^z v)^y,
    w = e^(-2 pi i / 2^bits), for each eigenvalue v of the register's U:
    outcome z's unnormalized post-measurement state, the register's slot z
    after the Fourier transform, is Q diag(g_z) Q^dag / (2^bits sqrt n)."""
    x = np.exp(-2j * math.pi * z / (1 << bits)) * eigs
    g = 1.0 + x
    for _ in range(bits - 1):
        x = x * x
        g *= 1.0 + x
    return g


def _cluster_vectors(samples: QpeSamples, bins: list, mult: int) -> np.ndarray:
    """A cluster's eigenvectors: the top ``mult`` eigenvectors of the
    count-weighted mixture sum_z (c_z / c) m_z m_z^dag of its bins'
    normalized post-states m_z, c the cluster's count.  In the evolution's
    eigenbasis Q the mixture is Q diag(w) Q^dag, w_mu = sum_z (c_z / c)
    |g_z(v_mu)|^2 / sum_nu |g_z(v_nu)|^2 (``_bin_filter``), so they are the
    ``mult`` columns of Q of largest w, returned in ascending w.  A tie in w
    goes to the later column of Q (a stable sort).  When ``mult`` cuts
    through a tie, each returned column is still an eigenvector of U of the
    tied weight; exactly degenerate eigenvalues always tie, and the column
    returned lies in their common eigenspace."""
    eigs = samples.phases.conj()
    counts = [samples.counts[z] for z in bins]
    weight = sum(counts)
    w = 0.0
    for c, z in zip(counts, bins):
        g2 = np.abs(_bin_filter(eigs, z, samples.phase_bits)) ** 2
        w = w + c / weight * (g2 / g2.sum())
    return samples.basis[:, np.argsort(w, kind="stable")[-mult:]]


def extract_d_smallest(samples: QpeSamples, d: int,
                       signed: bool = False) -> SpectralResult:
    """Cluster measured phases and return the d smallest.

    With ``signed`` (targets whose spectrum straddles zero, run with
    |lambda| t < pi) phases above one half decode as negative eigenvalues and
    every cluster counts.  Otherwise the zero mode is dropped, and the full
    circle is positive except a thin wrap margin next to 1 that absorbs the
    numerically-negative tail of the zero mode.  A cluster whose Born weight
    spans several eigenvectors is reported as a subspace.  Eigenvectors are
    computed for the d reported clusters only, each from one mixture of its
    bins' post-states (``_cluster_vectors``).
    """
    pdim = 1 << samples.phase_bits
    t = samples.time_scale
    n = len(samples.phases)
    zero_threshold = 1.5 / pdim
    min_count = max(3, int(0.05 * samples.shots / n))
    wrap = 0.5 if signed else 1.0 - max(3.0 / pdim, 2.0 * zero_threshold)
    surviving = [(z, c) for z, c in samples.counts.items() if c >= min_count]
    if not surviving:
        raise ResolutionError("no phase bin collected enough shots")
    items = sorted(
        ((z / pdim if z / pdim <= wrap else z / pdim - 1.0), z, c)
        for z, c in surviving)
    clusters = []
    current = [items[0]]
    for entry in items[1:]:
        if entry[0] - current[-1][0] <= 1.8 / pdim:
            current.append(entry)
        else:
            clusters.append(current)
            current = [entry]
    clusters.append(current)

    found = []  # (eigenvalue, phase, weight fraction, bins) per cluster
    for group in clusters:
        weight = sum(c for _, _, c in group)
        phase = sum(th * c for th, _, c in group) / weight
        found.append((2.0 * math.pi * phase / t, phase, weight / samples.shots,
                      [z for _, z, _ in group]))
    if not signed:
        found = [f for f in found if abs(f[1]) > zero_threshold]
    found.sort(key=lambda f: f[0])
    if len(found) < d:
        raise ResolutionError(
            f"only {len(found)} nonzero clusters resolvable, {d} requested")
    out = [SpectralCluster(gamma, phase, frac, _cluster_vectors(
               samples, bins, max(1, int(round(frac * n)))), bins)
           for gamma, phase, frac, bins in found[:d]]
    return SpectralResult(out, d)


def recover_Lr_eigenvectors(result: SpectralResult, rho2_block: np.ndarray,
                            calL_block: np.ndarray):
    """Map eigenvectors of the symmetric normalization to the random-walk one
    through the inverse square root of the degree state, verifying that each
    eigenvector residual against rho2^-1 calL is at most 1e-6."""
    rho2 = (rho2_block + rho2_block.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(rho2)
    if np.min(vals) <= 1e-14:
        raise GraphError("degree state is singular")
    inv_sqrt = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    lr_matrix = np.linalg.solve(rho2, calL_block)
    recovered = []
    residuals = []
    for cl in result.clusters:
        cols = []
        for k in range(cl.vectors.shape[1]):
            w = inv_sqrt @ cl.vectors[:, k]
            w = w / np.linalg.norm(w)
            # the vector is far sharper than the phase estimate, so the
            # eigen-residual is measured at the least-squares eigenvalue
            mu = complex(np.vdot(w, lr_matrix @ w)).real
            res = float(np.linalg.norm(lr_matrix @ w - mu * w))
            residuals.append(res)
            if res > 1e-6:
                raise SimulationError(
                    f"recovered vector fails the eigen-residual: {res:.3e}")
            cols.append(w)
        recovered.append(np.column_stack(cols))
    return recovered, residuals


# ---------------------------------------------------------------------------
# the end-to-end pipeline

@dataclass
class PipelineConfig:
    target: str = "L"            # L | Ls | Lr | W
    d: int = 1
    norm_case: str = "auto"      # auto | unit | general
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    prep: PrepConfig = field(default_factory=PrepConfig)
    sim_path: str = "oracle_exponential"
    sim_eps: float = 1e-6
    qpe_bits: int = 8
    qpe_shots: int = 4096
    seed: int | None = 7

    def __post_init__(self):
        if self.target not in ("L", "Ls", "Lr", "W"):
            raise GraphError(f"unknown target {self.target!r}")
        problem = _sim_setting_error(self.sim_path, self.sim_eps)
        if problem:
            raise GraphError(problem)
        for name in ("d", "qpe_bits", "qpe_shots"):
            if getattr(self, name) < 1:
                raise GraphError(f"{name} must be at least 1")
        if self.seed is not None and self.seed < 0:
            raise GraphError("seed must be nonnegative")


class _Stage:
    """Context tagging exceptions with the pipeline stage they came from."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and not str(exc).startswith("[stage:"):
            exc.args = (f"[stage:{self.name}] {exc}",)
        return False


@dataclass
class EncodedTarget:
    """The graph model and the verified block-encoding of the configured
    target: what ``full_pipeline`` simulates and ``run --verify-only``
    reports."""

    gm: GraphMatrices
    combination: LaplacianEncodingResult  # encode_calL or encode_W_over_n
    encoding: BlockEncoding               # the target's encoding
    subject: np.ndarray                   # the matrix it encodes
    header: dict                          # the report's leading fields
    verifications: list                   # encoding_report records


def encode_target(vs: VertexSet, kp: KernelParams,
                  cfg: PipelineConfig) -> EncodedTarget:
    """graph model -> state preparation -> block-encoding of ``cfg.target``,
    each encoding verified against exact linear algebra.

    Stage failures propagate with a ``[stage:...]`` tag on the message.
    """
    norm_case = resolve_norm_case(vs, cfg.norm_case)
    with _Stage("graph-model"):
        gm = build_graph(vs, kp, truncated=True)
    report: dict = {
        "target": cfg.target, "n": vs.n, "m": vs.m,
        "lambda": kp.lam, "p": kp.p, "norm_case": norm_case,
        "estimator_mode": cfg.estimator.mode,
    }
    reports = []

    with _Stage("block-encoding"):
        if cfg.target == "W":
            res = encode_W_over_n(vs, kp, norm_case, cfg.prep)
            subject = gm.W_p / vs.n
            target_enc = res.encoding
            consistent_w = w_consistent_reference(
                vs, kp, res.components["weight_build"])
            reports.append(encoding_report("W_vs_truncated_exact", target_enc,
                                           consistent_w, tol=1e-9))
        else:
            res = encode_calL(vs, kp, cfg.prep, cfg.estimator, norm_case)
            consistent = taylor_consistent_reference(
                vs, kp, res.components["weight_build"],
                res.components["degree_build"], res.trace_D)
            reports.append(encoding_report("calL_vs_model", res.encoding,
                                           gm.L / gm.trace_D, tol=1e-4))
            reports.append(encoding_report("calL_vs_truncated_exact", res.encoding,
                                           consistent, tol=1e-9))
            target_enc = res.encoding
            subject = gm.L / gm.trace_D
            if cfg.target in ("Ls", "Lr"):
                rho2_enc = res.components["rho2"]
                target_enc, np_params = sandwich_negative_power(
                    rho2_enc, res.encoding)
                subject = gm.L_s
                report["negative_power"] = {"kappa": np_params.kappa,
                                            "zeta1": np_params.zeta1}
        reports.append(encoding_report(f"target_{cfg.target}", target_enc, subject,
                                       tol=max(1e-4, target_enc.epsilon)))
    report["trace_D_estimate"] = res.trace_D
    report["trace_D_classical"] = float(np.trace(gm.D))
    return EncodedTarget(gm, res, target_enc, subject, report, reports)


def full_pipeline(vs: VertexSet, kp: KernelParams, cfg: PipelineConfig):
    """graph model -> state preparation -> block-encoding -> simulation ->
    QPE -> extraction, with a verification report at every stage.

    Stage failures propagate with a ``[stage:...]`` tag on the message.
    """
    enc = encode_target(vs, kp, cfg)
    gm, res, subject = enc.gm, enc.combination, enc.subject
    report = enc.header

    # evolution time from quantum-side Gershgorin bounds
    deg = res.components["degree_build"].degree_estimates \
        if "degree_build" in res.components else gm.D.diagonal()
    if cfg.target == "W":
        bound = 1.1 * float(np.max(deg)) / vs.n
        t = 0.9 * math.pi / bound
    elif cfg.target in ("Ls", "Lr"):
        bound = 2.0
        t = 0.9 * 2.0 * math.pi / bound
    else:
        bound = 2.0 * float(np.max(deg)) / float(np.sum(deg))
        t = 0.9 * 2.0 * math.pi / bound
    with _Stage("simulation"):
        sim_cfg = SimulationConfig(t=t, eps=cfg.sim_eps, path=cfg.sim_path)
        evolution = simulate_hamiltonian(enc.encoding, sim_cfg)
    report["simulation"] = {"path": sim_cfg.path, "eps": sim_cfg.eps,
                            "t": sim_cfg.t,
                            "query_count": evolution.meta.get("query_count")}

    with _Stage("phase-estimation"):
        qcfg = QpeConfig(cfg.qpe_bits, cfg.qpe_shots, cfg.seed, sim_cfg.t)
        samples = run_qpe(evolution, qcfg, lambda_max_bound=bound)
    with _Stage("extraction"):
        result = extract_d_smallest(samples, cfg.d, signed=(cfg.target == "W"))
    result.weight_build = res.components["weight_build"]

    # classical reference for the same (truncated) matrix
    if cfg.target == "W":
        ref_vals, ref_vecs = np.linalg.eigh(subject)
    else:
        ref = classical_eigensolve(subject, min(cfg.d, subject.shape[0] - 1))
        ref_vals, ref_vecs = ref.eigenvalues, ref.eigenvectors
    result.reference_eigenvalues = [float(v) for v in ref_vals]
    fidelities = []
    for cl in result.clusters:
        k = int(np.argmin(np.abs(ref_vals - cl.eigenvalue)))
        v = ref_vecs[:, k]
        fid = float(np.linalg.norm(cl.vectors.conj().T @ v) ** 2)
        fidelities.append(fid)
    result.fidelities = fidelities

    if cfg.target == "Lr":
        with _Stage("recovery"):
            rho2_block = res.components["rho2"].block().real
            # the eigen-residual contract is against the random-walk operator
            # the pipeline itself encodes (rho2^-1 calL); agreement with the
            # classical matrix is covered by the eigenvalue and fidelity
            # comparisons
            cal_block = res.encoding.alpha * res.encoding.block()
            recovered, residuals = recover_Lr_eigenvectors(
                result, rho2_block, calL_block=cal_block)
            report["Lr_residuals"] = residuals
            for cl, cols in zip(result.clusters, recovered):
                cl.vectors = cols

    report["eigenvalues"] = [float(v) for v in result.eigenvalues]
    report["reference_eigenvalues"] = result.reference_eigenvalues
    report["fidelities"] = fidelities
    report["encoding_verifications"] = enc.verifications
    report["graph_matrices"] = graph_matrices_to_json(gm)
    report["qpe"] = {
        "bits": cfg.qpe_bits, "shots": cfg.qpe_shots,
        "histogram": {str(k): v for k, v in sorted(samples.counts.items())},
    }
    return result, report
