"""Block-encoding algebra: verification against the defining inequality,
purified-density encodings, linear combination of encoded operators, and the
sandwiched negative-power construction for the symmetric normalized Laplacian.

Encodings carry one of three backends:

* ``dense``     -- the full unitary matrix is materialized; the block is
  literally its top-left corner.  Dilations use it.
* ``purified``  -- defined by a purification vector; the encoded block is the
  reduced density operator, and ``BlockEncoding.apply`` runs the SWAP
  sandwich (Gilyen, Su, Low and Wiebe, arXiv:1806.01838) in O(dim) without
  materializing it.  Every density encoding the pipelines build (rho0 or
  rho1, rho2, and I/n) takes this form; its ancillas are the purification's.
* ``composite`` -- produced by combination rules whose encoded block follows
  exactly from the component blocks.  An LCU's block is its pair's column
  contraction; ``tests/encoding_reference.dense_select`` materializes the
  circuit that contraction is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import GraphError, KernelParams, VertexSet, build_taylor_weight_matrix
from .sim import SimError, operator_norm_distance
from .stateprep import (EstimatorConfig, PhiBuild, PrepConfig, _householder,
                        build_degree_state, build_weight_state)

__all__ = [
    "BlockEncoding",
    "StatePreparationPair",
    "CombinationSpec",
    "NegativePowerParams",
    "verify_block_encoding",
    "purified_density_encoding",
    "identity_mixture_encoding",
    "make_signed_pair",
    "lcu_combine",
    "dilate",
    "encode_calL",
    "encode_barL_unit_norm",
    "encode_W_over_n",
    "sandwich_negative_power",
    "LaplacianEncodingResult",
    "taylor_consistent_reference",
    "w_consistent_reference",
    "fixed_point_gram",
]


@dataclass
class BlockEncoding:
    """An (alpha, ancillas, epsilon) block-encoding with an attached subject
    dimension.  ``block()`` is the encoded top-left corner (subject space)."""

    alpha: float
    ancillas: int
    epsilon: float
    subject_dim: int
    backend: str = "dense"
    unitary: np.ndarray | None = None
    purification: np.ndarray | None = None
    _block: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.backend == "dense":
            u = self.unitary
            if u is None:
                raise SimError("dense encoding needs its unitary")
            dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
            if dev > 1e-10:
                raise SimError(f"encoding unitary deviates from unitarity by {dev:.2e}")
        elif self.backend == "purified":
            v = self.purification
            norm = np.nan if v is None else np.linalg.norm(v)
            if not abs(norm - 1.0) <= 1e-9:  # checked as given; a NaN norm fails
                raise SimError("purified encoding needs a normalized purification")
            self.purification = v / norm  # clears the round-off
        elif self.backend == "composite":
            if self._block is None:
                raise SimError("composite encoding needs its block")
        else:
            raise SimError(f"unknown backend {self.backend!r}")

    def block(self) -> np.ndarray:
        s = self.subject_dim
        if self.backend == "dense":
            return np.array(self.unitary[:s, :s])
        if self.backend == "purified":
            m = self.purification.reshape(s, -1)
            return m @ m.conj().T
        return np.array(self._block)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The encoding's unitary on the k columns of ``x``, rows in (ancilla,
        subject) order as ``block()`` reads them.  Purified: (G^dag (x) I)
        SWAP (G (x) I), SWAP exchanging the purification's system axis with
        the subject.  G = phase H (``stateprep._householder``), so this is H
        SWAP H, Hermitian and self-inverse, in O(rows k) work."""
        s, rows = self.subject_dim, (1 << self.ancillas) * self.subject_dim
        if np.ndim(x) != 2 or len(x) != rows:
            raise SimError(f"encoding input must be ({rows}, k), not {np.shape(x)}")
        if self.backend == "composite":
            raise SimError("a composite encoding has no circuit to apply")
        if self.backend == "dense":
            return self.unitary @ x
        pur, k = len(self.purification), np.shape(x)[1]
        _, w = _householder(self.purification)

        def reflect(y):  # H = I - 2 w w^dag on the purification axis
            return y if w is None else y - np.outer(2.0 * w, w.conj() @ y)

        y = reflect(np.array(x, dtype=complex).reshape(pur, s * k))
        y = y.reshape(s, pur // s, s, k).transpose(2, 1, 0, 3).reshape(pur, s * k)
        return reflect(y).reshape(rows, k)


@dataclass
class StatePreparationPair:
    """The first columns c, d of the preparations (P_L, P_R), realizing
    beta * c_j^* d_j = y_j.  The combination reads only the columns; any
    unitary completions of them realize the same circuit block."""

    c: np.ndarray
    d: np.ndarray
    beta: float
    b: int
    epsilon_y: float
    y: np.ndarray

    def columns(self):
        return self.c, self.d

    def measured_epsilon_y(self) -> float:
        c, d = self.columns()
        prod = self.beta * np.conj(c[: len(self.y)]) * d[: len(self.y)]
        return float(np.sum(np.abs(prod - self.y)))


@dataclass
class CombinationSpec:
    """Coefficients of the Laplacian combination.

    The trace ratio c = Tr(I)/Tr(D) sits in (0, 1) only when every degree
    exceeds one; sub-unit weights (any two-vertex Gaussian graph, for
    instance) push it above 1, in which case the combination scale grows to
    1 + 2c instead of the fixed 3.  ``in_unit_range`` records which regime a
    run was in.
    """

    c: float
    d_coef: float = 0.0
    e_coef: float = 0.0
    in_unit_range: bool = field(init=False)

    def __post_init__(self):
        if not (self.c > 0.0):
            raise GraphError("trace ratio must be positive")
        self.in_unit_range = self.c < 1.0


NEG_POWER = 0.5  # the exponent c of A^-c: D^-1/2 for the symmetric Laplacian
VARSIGMA1 = 1e-3  # the negative-power oracle's polynomial-approximation budget


@dataclass
class NegativePowerParams:
    kappa: float
    zeta1: float = field(init=False)

    def __post_init__(self):
        if self.kappa < 2:
            raise GraphError("condition bound must be at least 2")
        k, c, s = self.kappa, NEG_POWER, VARSIGMA1
        # big-O constant set to 1
        self.zeta1 = s / (k ** (1 + c) * max(1.0, c)
                          * math.log2(k ** c / s + 2.0)
                          * math.log2(k * (c + 1) * math.log2(1.0 / s + 2.0) + 2.0) ** 2)


def verify_block_encoding(be: BlockEncoding, subject: np.ndarray):
    """Measured spectral-norm error of the encoding against its subject."""
    subject = np.asarray(subject)
    if subject.shape != (be.subject_dim, be.subject_dim):
        raise SimError("subject dimension mismatch")
    measured = operator_norm_distance(subject, be.alpha * be.block())
    return measured, bool(measured <= be.epsilon + 1e-12)


def encoding_report(name: str, be: BlockEncoding, subject: np.ndarray,
                    tol: float | None = None) -> dict:
    """JSON-ready verification record; ``tol`` overrides the claimed error as
    the pass threshold (used when the comparison target differs from the
    operator the encoding is exact for)."""
    measured = operator_norm_distance(np.asarray(subject), be.alpha * be.block())
    threshold = be.epsilon if tol is None else tol
    return {
        "name": name,
        "alpha": float(be.alpha),
        "ancillas": int(be.ancillas),
        "claimed_epsilon": float(be.epsilon),
        "measured_epsilon": float(measured),
        "tolerance": float(threshold),
        "subject_norm": float(np.linalg.norm(subject, 2)),
        "pass": bool(measured <= threshold + 1e-12),
    }


# ---------------------------------------------------------------------------
# Purified density encodings

def purified_density_encoding(purification, sys_dim: int) -> BlockEncoding:
    """Exact block-encoding of the reduced state of a purification vector
    G|0> over its leading ``sys_dim`` factor; ``apply`` runs its circuit.
    The vector must be 1-D, of unit norm within 1e-9, and its length a power
    of two divisible by ``sys_dim``: 2^ancillas, the purification's qubits."""
    v = np.asarray(purification)
    if v.ndim != 1:
        raise SimError("a purified encoding takes the purification vector G|0>, "
                       f"not an array of shape {v.shape}")
    pur = len(v)
    if not 0 < sys_dim <= pur or pur & (pur - 1) or pur % sys_dim:
        raise SimError(f"purification length {pur} is not a power of two "
                       f"divisible by the system dimension {sys_dim}")
    return BlockEncoding(1.0, pur.bit_length() - 1, 0.0, sys_dim,
                         backend="purified", purification=v)


def identity_mixture_encoding(n: int) -> BlockEncoding:
    """(1, 2 log n, 0)-encoding of I/n from the maximally entangled pair; n
    must be a power of two, as ``purified_density_encoding`` checks."""
    vec = np.eye(n, dtype=complex).reshape(-1) / math.sqrt(n)
    return purified_density_encoding(vec, n)


# ---------------------------------------------------------------------------
# state-preparation pairs and linear combination

def make_signed_pair(y, beta: float | None = None, inject_eps_y: float = 0.0,
                     seed=None) -> StatePreparationPair:
    """Exact signed pair: magnitudes split between the two columns, signs on
    the right column.  When beta exceeds ||y||_1 the two columns absorb the
    deficit with reciprocal slot weightings so both stay unit norm."""
    y = np.asarray(y, dtype=float)
    norm1 = float(np.sum(np.abs(y)))
    if norm1 <= 0:
        raise GraphError("combination weights must not all vanish")
    beta = norm1 if beta is None else float(beta)
    if beta + 1e-12 < norm1:
        raise GraphError("beta must dominate the 1-norm of the weights")
    b = max(1, (len(y) - 1).bit_length())
    dim = 1 << b
    q = np.abs(y) / beta
    c = np.zeros(dim)
    d = np.zeros(dim)
    support = np.nonzero(q)[0]
    deficit = 1.0 - float(q.sum())
    if deficit < 1e-14:
        c[support] = np.sqrt(q[support])
        d[support] = np.sqrt(q[support])
    else:
        if len(support) < 2:
            # single term: park the deficits on two unused, disjoint slots
            free = [j for j in range(dim) if j not in support]
            if len(free) < 2:
                b += 1
                dim = 1 << b
                c = np.zeros(dim)
                d = np.zeros(dim)
                free = [j for j in range(dim) if j not in support]
            c[support] = np.sqrt(q[support])
            d[support] = np.sqrt(q[support])
            c[free[0]] = math.sqrt(deficit)
            d[free[1]] = math.sqrt(deficit)
        else:
            # reciprocal weighting on the two largest slots keeps both columns
            # unit while every product beta c_j d_j stays exactly |y_j|
            j1, j2 = support[np.argsort(q[support])[-2:]]
            q1, q2 = q[j1], q[j2]
            rest = float(q.sum() - q1 - q2)
            R = 1.0 - rest
            aa = R * q1
            bb = q2 * q2 - q1 * q1 - R * R
            disc = bb * bb - 4.0 * aa * q1 * R
            # the smaller root, as the reciprocal of the larger (the roots'
            # product is q1 R / aa = 1), so no cancellation when q1 is small
            s_val = 2.0 * q1 * R / (-bb + math.sqrt(max(disc, 0.0)))
            t_val = (R - q1 * s_val) / q2
            c[support] = np.sqrt(q[support])
            d[support] = np.sqrt(q[support])
            c[j1] *= math.sqrt(s_val)
            d[j1] /= math.sqrt(s_val)
            c[j2] *= math.sqrt(t_val)
            d[j2] /= math.sqrt(t_val)
    d[: len(y)] *= np.where(y < 0, -1.0, 1.0)
    if inject_eps_y > 0:
        rng = np.random.default_rng(seed)
        bump = rng.standard_normal(dim)
        bump /= np.linalg.norm(bump)
        d = d + bump * (inject_eps_y / (2.0 * beta * max(1.0, np.max(np.abs(c)))))
        d /= np.linalg.norm(d)
    for col in (c, d):
        _householder(col)  # refuses a column off the unit sphere, NaN included
    pair = StatePreparationPair(c, d, beta, b, 0.0, y)
    pair.epsilon_y = pair.measured_epsilon_y()
    return pair


def lcu_combine(pair: StatePreparationPair, encodings) -> BlockEncoding:
    """(P_L^dag (x) I) SELECT (P_R (x) I): an (alpha beta, b + l, alpha eps_y +
    alpha beta eps_A)-encoding of sum_j y_j A_j, l the widest component's
    ancillas.

    The encoding is composite: SELECT runs U_j on slot j < terms and the
    identity on the idle slots, so the circuit's block is the contraction
    sum_j c_j^* d_j block_j + sum_idle c_j^* d_j I of the pair's columns.
    """
    encodings = list(encodings)
    if len(encodings) != len(pair.y):
        raise GraphError("one encoding per combination weight")
    s = encodings[0].subject_dim
    if any(e.subject_dim != s for e in encodings):
        raise GraphError("encodings must share the subject dimension")
    alphas = {round(e.alpha, 12) for e in encodings}
    if len(alphas) != 1:
        raise GraphError("combination requires a common component scale")
    alpha = encodings[0].alpha
    l = max(e.ancillas for e in encodings)
    eps_a = max(e.epsilon for e in encodings)
    claimed = alpha * pair.epsilon_y + alpha * pair.beta * eps_a
    c, d = pair.columns()
    blk = np.zeros((s, s), dtype=complex)
    for j, enc in enumerate(encodings):
        blk += pair.beta * np.conj(c[j]) * d[j] * enc.block()
    for j in range(len(encodings), len(c)):
        blk += pair.beta * np.conj(c[j]) * d[j] * np.eye(s)
    return BlockEncoding(alpha * pair.beta, pair.b + l, claimed, s,
                         backend="composite", _block=blk / pair.beta,
                         meta={"terms": len(encodings)})


def dilate(a: np.ndarray, alpha: float) -> BlockEncoding:
    """Exact one-ancilla dilation of a matrix with ||A/alpha|| <= 1."""
    a = np.asarray(a, dtype=complex)
    s = a.shape[0]
    at = a / alpha
    w, sig, vh = np.linalg.svd(at)
    if sig.max() > 1.0 + 1e-10:
        raise SimError("matrix norm exceeds the dilation scale")
    sig = np.clip(sig, 0.0, 1.0)
    comp = np.sqrt(1.0 - sig ** 2)
    s1 = w @ np.diag(comp) @ w.conj().T
    s2 = vh.conj().T @ np.diag(comp) @ vh
    u = np.zeros((2 * s, 2 * s), dtype=complex)
    u[:s, :s] = at
    u[:s, s:] = s1
    u[s:, :s] = s2
    u[s:, s:] = -at.conj().T
    return BlockEncoding(alpha, 1, 0.0, s, backend="dense", unitary=u)


# ---------------------------------------------------------------------------
# the Laplacian combination and its relatives

@dataclass
class LaplacianEncodingResult:
    encoding: BlockEncoding
    combo: CombinationSpec
    pair: StatePreparationPair
    components: dict
    trace_D: float | None


def _purified(build) -> BlockEncoding:
    """Purified encoding of a pipeline build's reduced state."""
    return purified_density_encoding(build.purification, build.system_dim)


def _component_encodings(vs: VertexSet, kp: KernelParams, prep, est,
                         norm_case: str):
    """rho-source encodings shared by the Laplacian combinations."""
    degree = build_degree_state(vs, kp, est, prep)
    rho2_enc = _purified(degree)
    rho3_enc = identity_mixture_encoding(vs.n)
    weight_build = build_weight_state(vs, kp, prep, norm_case)
    return degree, rho2_enc, rho3_enc, _purified(weight_build), weight_build


def encode_calL(vs: VertexSet, kp: KernelParams, prep: PrepConfig | None = None,
                est: EstimatorConfig | None = None,
                norm_case: str = "general") -> LaplacianEncodingResult:
    """Combination -c rho1 + rho2 + c rho3 encoding L/Tr(L), c = n/Tr(D),
    Tr(D) the degree pipeline's estimate."""
    prep = prep or PrepConfig()
    est = est or EstimatorConfig()
    degree, rho2_enc, rho3_enc, weight_enc, weight_build = _component_encodings(
        vs, kp, prep, est, norm_case)
    trace_d = degree.trace_estimate
    c = vs.n / trace_d
    combo = CombinationSpec(c=c)
    y = np.array([-c, 1.0, c])
    beta = 3.0 if combo.in_unit_range else 1.0 + 2.0 * c
    pair = make_signed_pair(y, beta=beta)
    enc = lcu_combine(pair, [weight_enc, rho2_enc, rho3_enc])
    comps = {"rho_weight": weight_enc, "rho2": rho2_enc, "rho3": rho3_enc,
             "weight_build": weight_build, "degree_build": degree}
    return LaplacianEncodingResult(enc, combo, pair, comps, trace_d)


def encode_barL_unit_norm(vs: VertexSet, kp: KernelParams) -> LaplacianEncodingResult:
    """Unit-norm combination rho2 - d rho0 + e rho3 with d = n a~/Tr(D),
    e = a~ n/Tr(D); encodes L_p/Tr(D) exactly in the truncated model.  The
    states are built with the default ``PrepConfig`` and ``EstimatorConfig``,
    and Tr(D) is the degree pipeline's estimate."""
    if not vs.unit_norms():
        raise GraphError("the unit-norm combination needs unit-norm vertices")
    degree, rho2_enc, rho3_enc, rho0_enc, phi = _component_encodings(
        vs, kp, PrepConfig(), EstimatorConfig(), "unit")
    trace_d = degree.trace_estimate
    a_t = kp.a_tilde_sum
    d_coef = vs.n * a_t / trace_d
    e_coef = a_t * vs.n / trace_d
    combo = CombinationSpec(c=vs.n / trace_d, d_coef=d_coef, e_coef=e_coef)
    y = np.array([1.0, -d_coef, e_coef])
    pair = make_signed_pair(y, beta=1.0 + d_coef + e_coef)
    enc = lcu_combine(pair, [rho2_enc, rho0_enc, rho3_enc])
    comps = {"rho_weight": rho0_enc, "rho2": rho2_enc, "rho3": rho3_enc,
             "weight_build": phi, "degree_build": degree}
    return LaplacianEncodingResult(enc, combo, pair, comps, trace_d)


def encode_W_over_n(vs: VertexSet, kp: KernelParams, norm_case: str = "auto",
                    prep: PrepConfig | None = None) -> LaplacianEncodingResult:
    """Encoding of W_p/n: a~ (rho0 - rho3) for unit norms, rho1 - rho3 else."""
    prep = prep or PrepConfig()
    rho3_enc = identity_mixture_encoding(vs.n)
    build = build_weight_state(vs, kp, prep, norm_case)
    weight_enc = _purified(build)
    if isinstance(build, PhiBuild):
        a_t = kp.a_tilde_sum
        pair = make_signed_pair(np.array([a_t, -a_t]), beta=2.0 * a_t)
    else:
        pair = make_signed_pair(np.array([1.0, -1.0]), beta=2.0)
    enc = lcu_combine(pair, [weight_enc, rho3_enc])
    combo = CombinationSpec(c=0.5)
    comps = {"rho_weight": weight_enc, "rho3": rho3_enc, "weight_build": build}
    return LaplacianEncodingResult(enc, combo, pair, comps, None)


def sandwich_negative_power(be_a: BlockEncoding, be_b: BlockEncoding,
                            kappa: float | None = None) -> tuple[BlockEncoding, NegativePowerParams]:
    """Encoding of A^-c B A^-c, c = ``NEG_POWER``, through an idealized
    negative-power oracle.

    A is taken from ``be_a``'s block (spectral window I/kappa <= A <= I is
    verified classically); the A^-c factors come from its eigendecomposition,
    each dilated at scale 2 kappa^c, so the combined scale is the
    4 kappa^{2c} alpha_B of the parameter law.  The claimed error follows the
    same law with the polynomial-approximation budget ``VARSIGMA1``.
    """
    a_mat = be_a.alpha * be_a.block()
    a_mat = (a_mat + a_mat.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(a_mat)
    if np.min(vals) <= 0:
        raise GraphError("negative-power base matrix must be positive definite")
    if kappa is None:
        kappa = max(2.0, float(np.ceil(1.0 / np.min(vals))))
    if np.min(vals) < 1.0 / kappa - 1e-9 or np.max(vals) > 1.0 + 1e-9:
        raise GraphError("spectral window I/kappa <= A <= I violated")
    params = NegativePowerParams(kappa=kappa)
    if be_a.epsilon > params.zeta1 + 1e-15:
        raise GraphError("base encoding error exceeds the negative-power budget")
    neg = vecs @ np.diag(vals ** (-NEG_POWER)) @ vecs.conj().T
    scale_m = 2.0 * kappa ** NEG_POWER
    m_block = neg / scale_m
    alpha_f = 4.0 * kappa ** (2.0 * NEG_POWER) * be_b.alpha
    claimed = (4.0 * kappa ** NEG_POWER * be_b.alpha * VARSIGMA1
               + 4.0 * kappa ** (2.0 * NEG_POWER) * be_b.epsilon)
    blk = m_block @ be_b.block() @ m_block
    enc = BlockEncoding(alpha_f, be_b.ancillas + 2, claimed, be_b.subject_dim,
                        backend="composite", _block=blk,
                        meta={"kappa": kappa})
    return enc, params


def weight_state_reference(vs: VertexSet, kp: KernelParams, weight_build) -> np.ndarray:
    """The reduced weight-carrying state a pipeline actually prepared,
    written classically (fixed-point rotation values included)."""
    n = vs.n
    if isinstance(weight_build, PhiBuild):
        a_t = kp.a_tilde_sum
        return (build_taylor_weight_matrix(vs, kp, absorbed=True)[0]
                + a_t * np.eye(n)) / (n * a_t)
    gram = fixed_point_gram(vs, kp, weight_build.fx_values)
    return gram / np.trace(gram)


def fixed_point_gram(vs: VertexSet, kp: KernelParams, fx: np.ndarray) -> np.ndarray:
    """Upsilon rho1 written classically: sum_k a_k v_ik v_jk <x^_i|x^_j>^k
    with the fixed-point values v_ik the general-norm pipeline rotated in.
    The terms add up in order of k; each power is the C library's ``pow``
    of the inner product, as a scalar ``float ** int`` computes it."""
    enc = vs.vertices / vs.norms[:, None]
    ip = (enc @ enc.T).ravel().tolist()
    gram = np.zeros(len(ip))
    for k in range(kp.p + 1):
        power = np.fromiter(map(math.pow, ip, itertools.repeat(k)), float, len(ip))
        gram += np.outer(kp.coeffs_a[k] * fx[:, k], fx[:, k]).ravel() * power
    return gram.reshape(vs.n, vs.n)


def taylor_consistent_reference(vs: VertexSet, kp: KernelParams,
                                weight_build, degree_build,
                                trace_d: float) -> np.ndarray:
    """The matrix the general-norm combination encodes, written classically:
    -(n/TrD)(W_p + I_eff)/Upsilon + D/TrD + I/TrD with the fixed-point
    weights actually rotated in."""
    n = vs.n
    rho_w = weight_state_reference(vs, kp, weight_build)
    d_est = degree_build.degree_estimates
    rho2 = np.diag(d_est / d_est.sum())
    c = n / trace_d
    return -c * rho_w + rho2 + c * np.eye(n) / n


def w_consistent_reference(vs: VertexSet, kp: KernelParams, weight_build) -> np.ndarray:
    """The matrix the weight-target combination encodes: for unit norms the
    exact truncated W_p/n, in general the prepared weight state minus the
    identity mixture (carrying the truncated-diagonal gap)."""
    n = vs.n
    rho_w = weight_state_reference(vs, kp, weight_build)
    if isinstance(weight_build, PhiBuild):
        return kp.a_tilde_sum * (rho_w - np.eye(n) / n)
    return rho_w - np.eye(n) / n
