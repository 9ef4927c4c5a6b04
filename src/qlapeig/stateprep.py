"""Preparation of the purification states that carry the weight and degree
matrices.

Three pipelines:

* ``build_phi_state``    -- unit-norm vertices; coefficient ladder plus
  repeated amplitude-encoding queries; reduced state (W_p + a~ I)/(n a~).
* ``build_psi_state``    -- general norms; norm queries, fixed-point powers,
  the exp(-lam x) gate, a scaled rotation, exact-count amplitude
  amplification, then the amplitude-encoding ladder.
* ``build_degree_state`` -- the eleven-step degree pipeline: distance
  estimation, kernel gate, two rotation/amplification rounds, ending in a
  diagonal reduced state proportional to the degree matrix.

Each build returns its final state and its unit-norm purification, and
forms no reduced state: ``blockenc.purified_density_encoding(b.purification,
b.system_dim).block()`` computes rho0, rho1 or rho2 where a consumer reads it.

The builds act on their states only through ``SimState`` gates and reads:
amplitude amplification reads the flagged weight from the projection that
post-selects it, and the flagged weights a build reports (the Psi build's
Upsilon/(n a C^2), the degree build's p0) are those amplification records.
Only ``sim`` reads the branch table.

QRAM-style oracles are simulated exactly from the classical data, with an
optional injected per-vector perturbation for the error-budget suites.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .arith import (ArithmeticError_, exp_neg_lambda_label, multiply_labels,
                    rotation_matrix)
from .graph import (DegenerateGraphError, GraphError, KernelParams,
                    VertexSet, resolve_norm_case)
from .sim import FixedPointSpec, Register, RegisterLayout, SimError, SimState

__all__ = [
    "QramOracle",
    "AmplificationStats",
    "ErrorBudget",
    "EstimatorConfig",
    "PrepConfig",
    "PhiBuild",
    "PsiBuild",
    "DegreeBuild",
    "coefficient_unitary",
    "completion_unitary",
    "hadamard_all",
    "sphere_perturb",
    "apply_R_U",
    "build_phi_state",
    "build_psi_state",
    "build_weight_state",
    "build_degree_state",
    "distance_estimation",
    "inner_product_estimation",
    "amplitude_amplification",
]


# ---------------------------------------------------------------------------
# small vector helpers

def completion_unitary(first_column: np.ndarray) -> np.ndarray:
    """Any unitary whose first column is the given unit vector: G of
    ``_householder``."""
    v = np.asarray(first_column, dtype=complex)
    dim = len(v)
    phase, w = _householder(v)
    if w is None:
        u = phase * np.eye(dim, dtype=complex)
    else:
        # in place: 0 - 2 w w^dag, then 1 on the diagonal
        u = np.multiply.outer(w, w.conj())
        u *= 2.0
        np.subtract(0.0, u, out=u)
        u.reshape(-1)[::dim + 1] += 1.0
        np.multiply(phase, u, out=u)  # phase on the left: u *= phase rounds otherwise
    if abs(u[:, 0] - v).max() > 1e-10:
        raise SimError("state-preparation completion failed")
    return u


def _householder(first_column: np.ndarray):
    """(phase, w) with phase (I - 2 w w^dag)|0> = v, w None when v = phase|0>:
    the one definition of the preparation G that ``completion_unitary`` forms
    and ``BlockEncoding.apply`` reflects by.  The leading entry is rotated
    onto the real axis first, so complex columns are handled too."""
    v = np.asarray(first_column, dtype=complex)
    if not abs(_norm(v) - 1.0) <= 1e-10:  # a NaN norm fails too
        raise SimError("state-preparation column must be unit norm")
    phase = 1.0 + 0.0j
    if abs(v[0]) > 1e-14:
        phase = v[0] / abs(v[0])
    # w = vr - e0 for vr = conj(phase) v, with the leading entry vr[0] - 1 =
    # -||vr[1:]||^2 / (1 + vr[0]) written so it does not cancel when vr is
    # close to e0
    w = np.conj(phase) * v
    w[0] = -np.vdot(w[1:], w[1:]).real / (1.0 + w[0].real)
    wn = _norm(w)
    return (phase, None) if wn < 1e-14 else (phase, w / wn)


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a vector, summed as ``np.linalg.norm`` sums it."""
    if np.iscomplexobj(v):
        return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    return math.sqrt(v.dot(v))


@functools.cache
def hadamard_all(qubits: int) -> np.ndarray:
    """H tensor power; maps |0...0> to the uniform superposition.  Built once
    per width and returned read-only, the same array on every call."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    out = np.array([[1.0]], dtype=complex)
    for _ in range(qubits):
        out = np.kron(out, h)
    out.flags.writeable = False
    return out


def sphere_perturb(vec: np.ndarray, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Unit vector at exact chordal distance eps from ``vec`` (0 <= eps <= 2)."""
    if eps <= 0:
        return np.array(vec, dtype=float)
    v = np.asarray(vec, dtype=float)
    v = v / _norm(v)
    g = rng.standard_normal(len(v))
    g = g - np.dot(g, v) * v
    gn = _norm(g)
    if gn < 1e-14:
        g = np.roll(v, 1) - np.dot(np.roll(v, 1), v) * v
        gn = _norm(g)
    u = g / gn
    angle = 2.0 * math.asin(min(1.0, eps / 2.0))
    return math.cos(angle) * v + math.sin(angle) * u


def _stable_rng(seed, *key: int) -> np.random.Generator:
    ints = [abs(int(seed)) if seed is not None else 0] + [abs(int(k)) for k in key]
    return np.random.default_rng(np.random.SeedSequence(ints))


def _once_per_value(fn, column: list) -> list:
    """``fn`` of every entry of a key column, called once per distinct
    entry."""
    values = {v: fn(v) for v in dict.fromkeys(column)}
    return [values[v] for v in column]


# ---------------------------------------------------------------------------
# data carriers

@dataclass
class QramOracle:
    """Simulated QRAM access to the vertex data.

    ``unitary_matrix`` realizes |i>|0> -> |i>|x_i> as a dense block unitary on
    the (index, data) registers.  ``norm_label`` is the norm query on a
    fixed-point register.  ``eps_x > 0`` replaces each amplitude-encoded
    vector by one at exact chordal distance eps_x, for the bound suites.
    """

    data: VertexSet
    eps_x: float = 0.0
    seed: int | None = None
    encoded: np.ndarray = field(init=False)

    def __post_init__(self):
        rng = _stable_rng(self.seed, 0xE) if self.eps_x > 0 else None
        vecs = []
        for i in range(self.data.n):
            x = self.data.vertices[i]
            nrm = self.data.norms[i]
            if nrm <= 0:
                amp = np.zeros(self.data.m)
                amp[0] = 1.0  # a zero vector encodes |0>
            else:
                amp = x / nrm
            if self.eps_x > 0:
                amp = sphere_perturb(amp, self.eps_x, rng)
            vecs.append(amp)
        self.encoded = np.array(vecs)

    def unitary_matrix(self) -> np.ndarray:
        n, m = self.data.n, self.data.m
        u = np.zeros((n * m, n * m), dtype=complex)
        for i in range(n):
            u[i * m:(i + 1) * m, i * m:(i + 1) * m] = completion_unitary(
                self.encoded[i].astype(complex))
        return u

    def norm_label(self, i: int, spec: FixedPointSpec) -> int:
        return spec.encode(float(self.data.norms[i]))


@dataclass
class AmplificationStats:
    initial_amplitude: float = 0.0  # the flagged weight sin^2(theta)
    iterations: int = 0
    residual: float = 0.0
    r: float | None = None          # degree build: the least pairwise weight


@dataclass
class ErrorBudget:
    """Component precisions and the derived state-error budget values."""

    eps_x: float = 0.0
    eps_d: float = 0.0

    def eps0(self, n: int, p: int) -> float:
        return math.sqrt(n) * p * p * self.eps_x

    def eps1(self, n: int, p: int, a_sum: float, max_norm: float) -> float:
        """The norm-power factor enters only when some norm exceeds one."""
        return math.sqrt(a_sum * n) * p * p * max(1.0, max_norm) ** p * self.eps_x

    def eps2(self, lam: float, r: float) -> float:
        return lam * self.eps_d / (2.0 * math.sqrt(r))


@dataclass
class EstimatorConfig:
    """Distance estimator behaviour.

    exact mode writes the true value (up to the fixed-point grid); noisy mode
    adds seeded uniform noise of width eps_d.  delta1 is the probability that
    one noisy estimate fails: its error then lands in (eps_d, 3 eps_d].
    """

    mode: str = "exact"
    eps_d: float = 1e-6
    delta1: float = 0.05
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "noisy"):
            raise GraphError(f"unknown estimator mode {self.mode!r}")
        if not (0 < self.eps_d < math.inf):
            raise GraphError("estimator precision eps_d must be positive and finite")
        if not (0 <= self.delta1 <= 0.5):
            raise GraphError("estimator failure probability delta1 must lie in [0, 1/2]")

    def perturb(self, true_value: float, key) -> float:
        """Noisy estimate of width eps_d that fails with probability delta1
        (class docstring).  That is strictly better than the 1 - 2*delta1
        success the estimation primitive guarantees (as a median-amplified
        estimator would be), so the advertised success fraction holds with
        margin under finite sampling."""
        if self.mode == "exact":
            return true_value
        eps = self.eps_d
        rng = _stable_rng(self.seed, *key)
        if rng.random() < self.delta1:
            err = rng.uniform(eps, 3.0 * eps) * (1.0 if rng.random() < 0.5 else -1.0)
        else:
            err = rng.uniform(-eps, eps)
        return max(0.0, true_value + err)


@dataclass
class PrepConfig:
    """Widths and gate orders for the arithmetic stages."""

    bits: int = 44
    exp_order: int = 24
    coeff_eps: float = 0.0   # injected coefficient-state error
    seed: int | None = None

    def __post_init__(self):
        if self.bits < 2:
            raise GraphError("fixed-point width must be at least 2 bits")
        if self.exp_order < 0:
            raise GraphError("exp gate order must be nonnegative")


# ---------------------------------------------------------------------------
# coefficient ladder

def coefficient_unitary(coeffs, dim: int, eps: float = 0.0,
                        rng: np.random.Generator | None = None) -> np.ndarray:
    """Unitary preparing sum_k sqrt(c_k / sum c)|k> on a dim-slot register."""
    c = np.asarray(coeffs, dtype=float)
    if np.any(c < 0):
        raise GraphError("coefficients must be nonnegative")
    tot = c.sum()
    if tot <= 0:
        raise GraphError("coefficients must not all vanish")
    amps = np.zeros(dim)
    amps[: len(c)] = np.sqrt(c / tot)
    if eps > 0:
        amps = sphere_perturb(amps, eps, rng or np.random.default_rng())
    return completion_unitary(amps.astype(complex))


def _coeff_rng(prep: PrepConfig, key: int) -> np.random.Generator | None:
    """The coefficient ladder's noise generator, made only when it draws."""
    return _stable_rng(prep.seed, key) if prep.coeff_eps > 0 else None


def _coeff_width(p: int) -> int:
    return max(1, (p).bit_length()) if p > 0 else 1


DESK_SCALE_AMPLITUDES = 1 << 25  # ~0.5 GB of complex amplitudes


def _desk_scale_guard(amplitudes: int, what: str, remedy: str):
    """Refuse an instance whose state would hold more than
    ``DESK_SCALE_AMPLITUDES`` amplitudes, naming the knob that shrinks it."""
    if amplitudes > DESK_SCALE_AMPLITUDES:
        raise GraphError(
            f"{what}: instance needs {amplitudes} dense amplitudes, beyond the "
            f"desk-scale budget of {DESK_SCALE_AMPLITUDES}; {remedy}")


# ---------------------------------------------------------------------------
# the controlled amplitude-encoding ladder

def apply_R_U(state: SimState, index_reg: str, coeff_reg: str, data_regs,
              oracle_U: QramOracle) -> SimState:
    """Coefficient-controlled ladder: branch |k> loads the amplitude-encoded
    vector into the last k data blocks; the first p-k blocks stay |0>."""
    data_regs = list(data_regs)
    p = len(data_regs)
    amps = state.label_free_row()
    for reg in data_regs:
        nonzero = [slice(None)] * amps.ndim  # the register's |1> .. cells
        nonzero[state.layout.dense_axis[reg]] = slice(1, None)
        if np.any(np.abs(amps[tuple(nonzero)]) > 1e-12):
            raise SimError("data register not zeroed before the ladder")
    u = oracle_U.unitary_matrix()
    for k in range(1, p + 1):
        for reg in data_regs[p - k:]:
            state.apply_dense(u, [index_reg, reg], controls={coeff_reg: k})
    return state


# ---------------------------------------------------------------------------
# amplitude amplification

def amplitude_amplification(state: SimState, good_predicate):
    """Exact-count Grover amplification toward a flagged subspace, then
    post-selection of the flagged part.

    Runs k = floor(pi/(4 theta)) rotations, which leave (2k+1) theta within
    theta of pi/2, so no further rotation raises the flagged weight; when
    k - 1 rotations leave the same weight within 1e-12 (a tie at theta =
    pi/(4k), decided by the last bits of the weight), it takes k - 1.  It
    records the residual bad weight that post-selection discards.  The
    flagged weight sin^2(theta) is read exactly from the state it
    amplifies, and recorded as ``initial_amplitude``.
    ``good_predicate(idx, labels)`` takes the index grid of
    ``SimState.predicate_mask`` and must act elementwise on it.

    The rotations are not simulated one by one: k of them leave the start
    state psi in sin((2k+1) theta)/sin(theta) P_g psi + cos((2k+1)
    theta)/cos(theta) P_b psi, with sin^2(theta) the weight of P_g psi
    (Brassard, Hoyer, Mosca and Tapp, quant-ph/0005055).  The iteration
    count keeps sin((2k+1) theta) >= 1/sqrt(2), so post-selection keeps
    P_g psi / |P_g psi| and discards cos^2((2k+1) theta): the state is
    projected in place, and theta is read off the projected weight.
    """
    weight = state.project(good_predicate)
    if weight <= 1e-15:
        raise SimError("cannot amplify a zero amplitude")
    stats = AmplificationStats(initial_amplitude=weight)
    if weight >= 1.0 - 1e-12:
        return state, stats
    theta = math.asin(math.sqrt(weight))
    k = int(math.floor(math.pi / (4.0 * theta)))
    if k and abs(math.sin((2 * k - 1) * theta) ** 2
                 - math.sin((2 * k + 1) * theta) ** 2) <= 1e-12:
        k -= 1
    stats.iterations = k
    stats.residual = math.cos((2 * k + 1) * theta) ** 2
    return state, stats


# ---------------------------------------------------------------------------
# |Phi>: unit-norm weight-state pipeline

@dataclass
class PhiBuild:
    state: SimState
    purification: np.ndarray     # G0|0>, over idx (x) coeff (x) data^p
    system_dim: int


def build_phi_state(vs: VertexSet, kp: KernelParams, prep: PrepConfig | None = None,
                    oracle: QramOracle | None = None) -> PhiBuild:
    """Unit-norm pipeline giving |Phi> with rho0 = (W_p + a~ I)/(n a~)."""
    prep = prep or PrepConfig()
    if not vs.unit_norms(1e-10) and (oracle is None or oracle.eps_x == 0):
        raise GraphError("vertices must have unit norm; use build_psi_state instead")
    oracle = oracle or QramOracle(vs)
    p = kp.p
    log_n = vs.n.bit_length() - 1
    log_m = vs.m.bit_length() - 1
    cwidth = _coeff_width(p)
    cdim = 1 << cwidth
    _desk_scale_guard(vs.n * cdim * vs.m ** p, "weight-state ladder",
                      "lower the truncation order, the vertex dimension or the vertex count")
    regs = [Register("idx", log_n, "index"), Register("coeff", cwidth, "coefficient")]
    data = [f"data{j}" for j in range(p)]
    regs += [Register(nm, log_m, "index") for nm in data]
    state = SimState(RegisterLayout(regs))

    state.apply_dense(hadamard_all(log_n), ["idx"])
    state.apply_dense(coefficient_unitary(kp.coeffs_a_tilde, cdim, prep.coeff_eps,
                                          _coeff_rng(prep, 0xA)), ["coeff"])
    apply_R_U(state, "idx", "coeff", data, oracle)
    return PhiBuild(state, _dense_over(state, ["idx", "coeff"] + data), vs.n)


# ---------------------------------------------------------------------------
# |Psi>: general-norm weight-state pipeline

@dataclass
class PsiBuild:
    state: SimState
    stats: AmplificationStats
    purification: np.ndarray     # vector over system (x) ancilla
    system_dim: int
    fx_values: np.ndarray        # fixed-point v_ik actually rotated in
    rotation_scale: float


def build_psi_state(vs: VertexSet, kp: KernelParams, prep: PrepConfig | None = None,
                    oracle: QramOracle | None = None) -> PsiBuild:
    """General-norm pipeline; reduced state carries (W_p + I_eff)/Upsilon."""
    prep = prep or PrepConfig()
    if np.any(vs.norms <= 0):
        raise GraphError("vertex norms must be positive")
    oracle = oracle or QramOracle(vs)
    p = kp.p
    n, m = vs.n, vs.m
    log_n = n.bit_length() - 1
    log_m = m.bit_length() - 1
    cwidth = _coeff_width(p)
    cdim = 1 << cwidth
    # the label maps split idx and coeff, so the n (p + 1) branches hold
    # 2 m^p amplitudes each until the labels clear and the state joins back
    _desk_scale_guard(n * cdim * 2 * m ** p, "general-norm weight pipeline",
                      "lower the truncation order, the vertex dimension or the vertex count")
    max_norm = float(np.max(vs.norms))
    # registers hold ||x||^k, ||x||^2 and exp(..)*||x||^k; size the integer part
    need = max(max_norm ** max(p, 1), max_norm ** 2, 1.0)
    int_bits = max(1, int(math.floor(math.log2(need))) + 2)
    spec = FixedPointSpec(prep.bits, int_bits)

    regs = [Register("idx", log_n, "index"), Register("coeff", cwidth, "coefficient"),
            Register("pw", spec.bits, "arithmetic", spec),
            Register("sq", spec.bits, "arithmetic", spec),
            Register("ex", spec.bits, "arithmetic", spec),
            Register("rot", 1, "flag")]
    data = [f"data{j}" for j in range(p)]
    regs += [Register(nm, log_m, "index") for nm in data]
    layout = RegisterLayout(regs)
    state = SimState(layout)

    # (1) uniform index, coefficient ladder
    state.apply_dense(hadamard_all(log_n), ["idx"])
    state.apply_dense(coefficient_unitary(kp.coeffs_a, cdim, prep.coeff_eps,
                                          _coeff_rng(prep, 0xB)), ["coeff"])

    norm_label = [oracle.norm_label(i, spec) for i in range(n)]
    pw_slot, sq_slot, ex_slot = (layout.arith_slot[r] for r in ("pw", "sq", "ex"))
    one = spec.encode(1.0)

    def times(a, b):
        return multiply_labels(a, b, spec, spec, spec)

    # (2)-(3) norm queries, then ||x||^k by sequential rounded products: one
    # ladder 1, ||x||, ||x||^2, ... per vertex
    def powers(dense, labels):
        ii, kk = dense
        if any(labels[pw_slot]) or any(labels[sq_slot]):
            raise ArithmeticError_("arithmetic registers not zeroed")
        top = min(max(kk), p)
        ladder, square = {}, {}
        for i in dict.fromkeys(ii):
            ladder[i] = [one]
            for _ in range(top):
                ladder[i].append(times(ladder[i][-1], norm_label[i]))
            square[i] = times(norm_label[i], norm_label[i])
        out = list(labels)
        out[pw_slot] = [ladder[i][min(k, p)] for i, k in zip(ii, kk)]
        out[sq_slot] = [square[i] for i in ii]
        return out

    state.apply_label_map(powers, dense_controls=("idx", "coeff"))

    # (4) kernel gate on the squared norm; input uncomputed via the oracle
    def kernel(dense, labels):
        out = list(labels)
        out[ex_slot] = _once_per_value(
            lambda x: exp_neg_lambda_label(x, spec, spec, kp.lam, prep.exp_order),
            labels[sq_slot])
        out[sq_slot] = [0] * len(labels[sq_slot])
        return out

    state.apply_label_map(kernel, dense_controls=("idx",))

    # (5) v = exp(-lam||x||^2) * ||x||^k, then drop the power register
    fx_values = np.zeros((n, p + 1))

    def combine(dense, labels):
        out = list(labels)
        out[ex_slot] = _once_per_value(lambda pair: times(*pair),
                                       list(zip(labels[ex_slot], labels[pw_slot])))
        for i, k, v in zip(*dense, out[ex_slot]):
            if k <= p:
                fx_values[i, k] = spec.decode(v)
        out[pw_slot] = [0] * len(labels[pw_slot])
        return out

    state.apply_label_map(combine, dense_controls=("idx", "coeff"))

    # (6) scaled rotation; the scale is the classical maximum over i and k
    scale = float(max(math.exp(-kp.lam * vs.norms[i] ** 2) * vs.norms[i] ** k
                      for i in range(n) for k in range(p + 1)))

    # the p+2 rounded products may push a value a few steps past the real
    # maximum; the guard below only needs to catch a miscomputed scale
    slack = (p + 4) * (1 << spec.int_bits) * spec.resolution / scale

    def rot(labels):
        ratio = np.array([spec.decode(lab) for lab in labels[ex_slot]]) / scale
        if np.any(ratio > 1.0 + slack):
            raise ArithmeticError_("rotation scale C was miscomputed")
        return rotation_matrix(np.minimum(ratio, 1.0))

    state.apply_branch_dense(rot, ["rot"])
    _clear_labels(state, ["ex"], ("idx", "coeff"))

    # (7) amplify the rot=|0> branch, of weight Upsilon/(n a C^2)
    rot_axis = layout.dense_axis["rot"]
    state, stats = amplitude_amplification(state, lambda idx, lab: idx[rot_axis] == 0)

    # (8) amplitude-encoding ladder into the data blocks
    apply_R_U(state, "idx", "coeff", data, oracle)

    vec = _dense_over(state, ["idx", "coeff", "rot"] + data)
    return PsiBuild(state, stats, vec, n, fx_values, scale)


def build_weight_state(vs: VertexSet, kp: KernelParams, prep: PrepConfig | None,
                       norm_case: str) -> PhiBuild | PsiBuild:
    """The weight-carrying pipeline the norm case selects: |Phi> for unit
    norms, |Psi> otherwise."""
    if resolve_norm_case(vs, norm_case) == "unit":
        return build_phi_state(vs, kp, prep)
    return build_psi_state(vs, kp, prep)


def _dense_over(state: SimState, regs) -> np.ndarray:
    """Join the state, then flatten it over the listed dense registers,
    checking that it is label-free, every remaining register sits in
    |0...0> and the purification has unit norm, so the reduced state it
    encodes has trace 1."""
    vec = state.label_free_row()
    lay = state.layout
    axes = [lay.dense_axis[r] for r in regs]
    moved = np.moveaxis(vec, axes, range(len(axes)))
    flat = moved.reshape(int(np.prod([vec.shape[a] for a in axes])), -1)
    if flat.shape[1] > 1 and np.max(np.abs(flat[:, 1:])) > 1e-10:
        raise SimError("registers outside the purification are not |0>")
    pur = flat[:, 0].copy()
    if not abs(np.vdot(pur, pur).real - 1.0) <= 1e-10:  # a NaN norm fails too
        raise SimError("purification is not normalized")
    return pur


# ---------------------------------------------------------------------------
# distance / inner-product estimators

def distance_estimation(state: SimState, i_reg: str, j_reg: str, out_reg: str,
                        oracle: QramOracle, est: EstimatorConfig) -> SimState:
    """|i>|j>|0> -> |i>|j>| ||x_i-x_j||^2 > on the fixed-point grid."""
    lay = state.layout
    spec = lay.spec(out_reg)
    slot = lay.arith_slot[out_reg]
    x = oracle.data.vertices
    diffs = x[:, None, :] - x[None, :, :]
    true = np.sum(diffs ** 2, axis=2).tolist()

    def fn(dense, labels):
        if any(labels[slot]):
            raise ArithmeticError_("distance register must be zeroed")
        out = list(labels)
        out[slot] = _once_per_value(spec.encode, [est.perturb(true[i][j], (1, i, j))
                                                  for i, j in zip(*dense)])
        return out

    state.apply_label_map(fn, dense_controls=(i_reg, j_reg))
    return state


def inner_product_estimation(state: SimState, i_reg: str, out_reg: str,
                             values) -> SimState:
    """Write the per-index inner product <phi_i|psi_i>, ``values[i]``, into
    the output register."""
    lay = state.layout
    spec = lay.spec(out_reg)
    slot = lay.arith_slot[out_reg]

    def fn(dense, labels):
        if any(labels[slot]):
            raise ArithmeticError_("inner-product register must be zeroed")
        out = list(labels)
        out[slot] = _once_per_value(lambda i: spec.encode(min(values[i], 1.0)),
                                    dense[0])
        return out

    state.apply_label_map(fn, dense_controls=(i_reg,))
    return state


# ---------------------------------------------------------------------------
# degree pipeline

@dataclass
class DegreeBuild:
    state: SimState
    stats: AmplificationStats
    purification: np.ndarray
    system_dim: int
    degree_estimates: np.ndarray
    trace_estimate: float


def build_degree_state(vs: VertexSet, kp: KernelParams,
                       est: EstimatorConfig | None = None,
                       prep: PrepConfig | None = None) -> DegreeBuild:
    """Eleven-step degree pipeline ending in rho2 = D / Tr(D)."""
    est = est or EstimatorConfig()
    prep = prep or PrepConfig()
    n = vs.n
    log_n = n.bit_length() - 1
    diffs = vs.vertices[:, None, :] - vs.vertices[None, :, :]
    dist_need = float(np.max(np.sum(diffs * diffs, axis=2)))
    int_bits = max(1, int(math.floor(math.log2(max(dist_need, 1.0)))) + 2)
    spec_d = FixedPointSpec(prep.bits, int_bits)
    spec_u = FixedPointSpec(prep.bits, 1)
    # the label maps split i and j, so the n^2 branches hold 4n amplitudes
    # each until the labels clear and the state joins back.  The build's
    # working set peaks near 3.1 such states (tracemalloc at n = 64: 49.1 MB
    # for a 16 MB state): the Hadamards on the joined state and _disentangle
    # each hold two more for a moment
    _desk_scale_guard(4 * n ** 3, "degree pipeline (working set about 3.1 states)",
                      "lower the vertex count")
    regs = [
        Register("flag", 1, "flag"),
        Register("i", log_n, "index"),
        Register("j", log_n, "index"),
        Register("dist", spec_d.bits, "arithmetic", spec_d),
        Register("wv", spec_u.bits, "arithmetic", spec_u),
        Register("rot", 1, "flag"),
        Register("ip", spec_u.bits, "arithmetic", spec_u),
        Register("copy", log_n, "index"),
    ]
    layout = RegisterLayout(regs)
    state = SimState(layout)
    oracle = QramOracle(vs)

    # (1) uniform superposition over ordered pairs
    h = hadamard_all(log_n)
    state.apply_dense(h, ["i"])
    state.apply_dense(h, ["j"])

    # (2) squared distances
    distance_estimation(state, "i", "j", "dist", oracle, est)

    # (3) kernel gate into wv; the distance register is uncomputed
    d_slot = layout.arith_slot["dist"]
    w_slot = layout.arith_slot["wv"]
    ip_slot = layout.arith_slot["ip"]
    w_fx = np.zeros((n, n))
    off = ~np.eye(n, dtype=bool)

    def kernel(dense, labels):
        if any(labels[w_slot]):
            raise ArithmeticError_("kernel register must be zeroed")
        out = list(labels)
        out[w_slot] = _once_per_value(
            lambda d: exp_neg_lambda_label(d, spec_d, spec_u, kp.lam, prep.exp_order),
            labels[d_slot])
        w_fx[tuple(dense)] = _once_per_value(spec_u.decode, out[w_slot])
        out[d_slot] = [0] * len(labels[d_slot])
        return out

    state.apply_label_map(kernel, dense_controls=("i", "j"))
    if w_fx[off].min() <= 0.0:
        raise DegenerateGraphError(
            "a pairwise weight underflowed to zero; the disconnected limit "
            "breaks the amplification cost bound")

    # (4) amplify away the diagonal i = j (kernel value 1 instead of 0 there)
    i_ax, j_ax = layout.dense_axis["i"], layout.dense_axis["j"]
    state, _ = amplitude_amplification(state, lambda idx, lab: idx[i_ax] != idx[j_ax])

    # (5) flag superposition
    state.apply_dense(hadamard_all(1), ["flag"])

    # (6) rotate by w_ij on the flag=0 half, then uncompute the kernel value
    def rw(labels):
        w = np.array([spec_u.decode(lab) for lab in labels[w_slot]])
        u = _eye_stack(len(w), 4)
        # basis (flag, rot); acts on the flag=0 sector
        u[:, :2, :2] = rotation_matrix(np.minimum(w, 1.0))
        return u

    state.apply_branch_dense(rw, ["flag", "rot"])
    _clear_labels(state, ["wv"], ("i", "j"))

    # (7) inner products <phi_i|psi_i> = d_ii/(n-1).  The value measured here
    # is the inner product of the actually-prepared (noise-carrying) states;
    # its deviation from the clean degree is the distance-induced error that
    # the lam*eps_d budget accounts for, so no second noise source is added.
    ip_true = [sum(row[:i] + row[i + 1:]) / (n - 1)
               for i, row in enumerate(w_fx.tolist())]
    inner_product_estimation(state, "i", "ip", ip_true)

    # (8) sqrt rotation into the copy register's top qubit, then disentangle
    copy_ax = layout.dense_axis["copy"]
    half = n >> 1

    def rp(labels):
        v = np.array([spec_u.decode(lab) for lab in labels[ip_slot]])
        r = rotation_matrix(np.sqrt(np.minimum(v, 1.0)))
        u = _eye_stack(len(v), n)
        u[:, 0, 0], u[:, 0, half], u[:, half, 0], u[:, half, half] = (
            r[:, 0, 0], r[:, 0, 1], r[:, 1, 0], r[:, 1, 1])
        return u

    state.apply_branch_dense(rp, ["copy"])
    _clear_labels(state, ["ip"], ("i",))
    _disentangle(state, "i", ["flag", "j", "rot"])

    # (9) amplify the top-qubit-0 branch, of weight p0 = Tr(D)/(n(n-1))
    state, stats = amplitude_amplification(state, lambda idx, lab: idx[copy_ax] < half)

    # (10) copy the index into the freed register: |i>|c> -> |i>|c xor i>,
    # one n x n permutation of copy per value of i
    eye = np.eye(n, dtype=complex)
    for i in range(n):
        state.apply_dense(eye[[c ^ i for c in range(n)]], ["copy"], controls={"i": i})

    degrees = np.where(off, w_fx, 0.0).sum(axis=1)
    stats.r = float(w_fx[off].min())

    # (11) the purification over (i, copy) carries rho2 on the index register
    return DegreeBuild(state, stats, _dense_over(state, ["i", "copy"]), n,
                       degrees, float(n * (n - 1) * stats.initial_amplitude))


def _eye_stack(count: int, dim: int) -> np.ndarray:
    """``count`` complex identities of size ``dim``, one array to fill in."""
    return np.broadcast_to(np.eye(dim, dtype=complex), (count, dim, dim)).copy()


def _clear_labels(state: SimState, regs, controls):
    """Uncompute the listed arithmetic registers to label 0, as a label map
    conditioned on the ``controls`` dense registers."""
    slots = [state.layout.arith_slot[r] for r in regs]

    def clear(dense, labels):
        out = list(labels)
        for s in slots:
            out[s] = [0] * len(labels[s])
        return out

    state.apply_label_map(clear, dense_controls=controls)


def _disentangle(state: SimState, control_reg: str, target_regs):
    """Return the target registers to |0...0> per value of the control
    register.  Requires the per-value target state to be pure, so a unitary
    uncompute exists; the freed factor keeps its physical (nonnegative)
    amplitude convention."""
    lay = state.layout
    vec = state.label_free_row()
    c_ax = lay.dense_axis[control_reg]
    t_axes = [lay.dense_axis[r] for r in target_regs]
    other = [i for i in range(vec.ndim) if i != c_ax and i not in t_axes]
    perm = [c_ax] + t_axes + other
    moved = np.moveaxis(vec, perm, range(vec.ndim))
    cdim = moved.shape[0]
    tdim = int(np.prod(moved.shape[1:1 + len(t_axes)]))
    rest = moved.reshape(cdim, tdim, -1)
    new = np.zeros_like(rest)
    # one batched SVD over the control values whose slice is not zero
    live = np.flatnonzero(np.max(np.abs(rest), axis=(1, 2)) != 0)
    _, s, wt = np.linalg.svd(rest[live], full_matrices=False)
    rows = s[:, :1] * wt[:, 0, :]
    top = rows[np.arange(live.size), np.argmax(np.abs(rows), axis=1)]
    # hypot rounds as abs() of one complex does; np.abs of an array can
    # differ in the last place
    rows = rows * np.conj(top / np.hypot(top.real, top.imag))[:, None]
    second = s[:, 1] if s.shape[1] > 1 else np.zeros(live.size)
    entangled = second > 1e-9 * np.maximum(s[:, 0], 1e-30)
    signed = ((np.max(np.abs(rows.imag), axis=1) > 1e-9)
              | (np.min(rows.real, axis=1) < -1e-9))
    # the first control value at fault names the fault, as a loop would
    bad = np.flatnonzero(entangled | signed)
    if bad.size:
        raise SimError("target registers entangled beyond the control"
                       if entangled[bad[0]] else
                       "freed factor is not in the nonnegative convention")
    new[live, 0, :] = rows
    vec[...] = np.moveaxis(new.reshape(moved.shape), range(vec.ndim), perm)
