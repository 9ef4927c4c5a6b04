"""State-preparation pipeline tests against the classical graph oracles."""

import math
import tracemalloc

import numpy as np
import pytest

import qlapeig.stateprep as stateprep
from qlapeig.blockenc import purified_density_encoding
from qlapeig.graph import GraphError, KernelParams, VertexSet, \
    build_taylor_weight_matrix, build_weight_matrix
from qlapeig.sim import FixedPointSpec, Register, RegisterLayout, SimError, SimState
from qlapeig.stateprep import (EstimatorConfig, PrepConfig, QramOracle,
                               amplitude_amplification, apply_R_U,
                               build_degree_state, build_phi_state,
                               build_psi_state, coefficient_unitary,
                               completion_unitary, distance_estimation,
                               hadamard_all, inner_product_estimation)


def unit_vs(rng, n, m):
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return VertexSet.from_vectors(x)


def general_vs(rng, n, m, lo, hi):
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(lo, hi, size=(n, 1))
    return VertexSet.from_vectors(x)


def reduced(build):
    """The reduced state a build's purified encoding carries."""
    return purified_density_encoding(build.purification, build.system_dim).block()


def upsilon(psi, vs, kp):
    """Upsilon = n a C^2 times the flag weight the Psi build amplified."""
    return vs.n * kp.a_sum * psi.rotation_scale ** 2 * psi.stats.initial_amplitude


# ---------------------------------------------------------------------------
# coefficient ladder

@pytest.mark.parametrize("tail", [0.5, 1e-6, 1e-9, 1e-12],
                         ids=["far", "near", "nearer", "nearest"])
def test_completion_unitary_close_to_e0(tail):
    """A column within a hair of |0> keeps its completion exact: the leading
    Householder entry does not cancel."""
    v = np.array([1.0, tail, -1j * tail, 0.0], dtype=complex) * np.exp(0.3j)
    v /= np.linalg.norm(v)
    u = completion_unitary(v)
    assert np.max(np.abs(u[:, 0] - v)) < 1e-15
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-14


@pytest.mark.parametrize("column", [np.full(4, np.nan), np.zeros(4), np.full(4, 0.6)],
                         ids=["nan", "zero", "scaled"])
def test_completion_unitary_refuses_a_column_off_the_unit_sphere(column):
    """A NaN norm fails the check too, rather than giving a NaN unitary."""
    with pytest.raises(SimError, match="unit norm"):
        completion_unitary(column)


def test_single_coefficient_gives_basis_state():
    assert np.allclose(coefficient_unitary([1.0], 2)[:, 0], [1.0, 0.0])


def test_uniform_coefficients():
    assert np.allclose(coefficient_unitary([1.0, 1.0, 1.0, 1.0], 4)[:, 0], [0.5] * 4)


def test_kernel_coefficient_amplitudes():
    kp = KernelParams(0.5, 3)
    vec = coefficient_unitary(kp.coeffs_a_tilde, 4)[:, 0]
    expect = np.sqrt(kp.coeffs_a_tilde / kp.a_tilde_sum)
    assert np.max(np.abs(vec - expect)) < 1e-12


def test_all_zero_coefficients_rejected():
    with pytest.raises(GraphError):
        coefficient_unitary([0.0, 0.0], 2)


def test_hadamard_all_is_built_once_and_read_only():
    """Every call with one width returns the same array, equal to the kron
    chain; writing into it raises, so no caller can change a shared gate."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    for q in range(5):
        want = np.array([[1.0]], dtype=complex)
        for _ in range(q):
            want = np.kron(want, h)
        got = hadamard_all(q)
        assert hadamard_all(q) is got
        assert got.dtype == complex and np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0, 0] = 0.0
        with pytest.raises(ValueError):
            got *= 2.0


class DrewRandomNumbers(Exception):
    pass


@pytest.mark.parametrize("n", [4, 8])
def test_exact_builds_draw_no_random_numbers(monkeypatch, n):
    """Exact state preparation makes no random generator; injected oracle
    or coefficient noise still reaches one."""
    def refuse(*args):
        raise DrewRandomNumbers(args)

    monkeypatch.setattr(stateprep, "_stable_rng", refuse)
    rng = np.random.default_rng(n)
    kp = KernelParams(0.5, 3)
    unit, general = unit_vs(rng, n, 2), general_vs(rng, n, 2, 0.35, 0.55)
    build_phi_state(unit, kp)
    build_psi_state(general, kp)
    build_degree_state(general, kp)
    with pytest.raises(DrewRandomNumbers):
        QramOracle(unit, eps_x=1e-3)
    with pytest.raises(DrewRandomNumbers):
        build_phi_state(unit, kp, PrepConfig(coeff_eps=1e-3))
    with pytest.raises(DrewRandomNumbers):
        build_psi_state(general, kp, PrepConfig(coeff_eps=1e-3))


# ---------------------------------------------------------------------------
# the controlled ladder

def test_ladder_k0_untouched_and_k1_unit_vector():
    vs = VertexSet.from_vectors([[1.0, 0.0], [0.0, 1.0]])
    layout = RegisterLayout([
        Register("idx", 1, "index"), Register("coeff", 1, "coefficient"),
        Register("data0", 1, "index"),
    ])
    st = SimState(layout)  # coeff |0>: ladder is the identity
    before = st.dense_vector()
    apply_R_U(st, "idx", "coeff", ["data0"], QramOracle(vs))
    assert np.allclose(st.dense_vector(), before)
    # coeff |1>, index |0>, x_0 = (1, 0): the data block stays basis 0
    st = SimState(layout)
    x = np.eye(2, dtype=complex)[[1, 0]]
    st.apply_dense(x, ["coeff"])
    apply_R_U(st, "idx", "coeff", ["data0"], QramOracle(vs))
    vec = st.dense_vector().reshape(2, 2, 2)
    assert abs(vec[0, 1, 0]) == pytest.approx(1.0, abs=1e-12)


def test_ladder_requires_zeroed_data():
    vs = VertexSet.from_vectors([[1.0, 0.0], [0.0, 1.0]])
    layout = RegisterLayout([
        Register("idx", 1, "index"), Register("coeff", 1, "coefficient"),
        Register("data0", 1, "index"),
    ])
    st = SimState(layout)
    st.apply_dense(np.eye(2, dtype=complex)[[1, 0]], ["data0"])
    with pytest.raises(SimError):
        apply_R_U(st, "idx", "coeff", ["data0"], QramOracle(vs))


def test_phi_branch_inner_products_match_weights():
    """<Phi(x_i)|Phi(x_j)> = w_ij / a~ with absorbed-coefficient weights."""
    rng = np.random.default_rng(2)
    vs = unit_vs(rng, 4, 2)
    kp = KernelParams(0.5, 2)
    phi = build_phi_state(vs, kp)
    wp, diag = build_taylor_weight_matrix(vs, kp, absorbed=True)
    full = wp + np.diag(diag)
    vec = phi.purification.reshape(4, -1)
    for i in range(4):
        for j in range(4):
            ip = float(np.vdot(vec[i], vec[j]).real) * 4  # branch weight 1/n
            assert ip == pytest.approx(full[i, j] / kp.a_tilde_sum, abs=1e-12)


# ---------------------------------------------------------------------------
# |Phi> and rho0

def test_rho0_identity_and_diagonal():
    rng = np.random.default_rng(3)
    vs = unit_vs(rng, 4, 2)
    kp = KernelParams(0.5, 3)
    phi = build_phi_state(vs, kp)
    a_t = kp.a_tilde_sum
    assert np.allclose(np.diag(reduced(phi)).real, 1.0 / 4, atol=1e-12)
    wp, _ = build_taylor_weight_matrix(vs, kp, absorbed=True)
    lhs = 4 * a_t * reduced(phi) - a_t * np.eye(4)
    assert np.linalg.norm(lhs - wp, 2) <= 1e-9


def test_rho0_antipodal_pair():
    vs = VertexSet.from_vectors([[1.0, 0.0], [-1.0, 0.0]])
    kp = KernelParams(0.5, 4)
    phi = build_phi_state(vs, kp)
    # off-diagonal reduces to the truncated w12 / (n a~)
    w12 = sum(kp.coeffs_a_tilde[k] * (-1.0) ** k for k in range(kp.p + 1))
    assert reduced(phi)[0, 1].real == pytest.approx(w12 / (2 * kp.a_tilde_sum),
                                                       abs=1e-12)


def test_phi_requires_unit_norms():
    vs = VertexSet.from_vectors([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(GraphError):
        build_phi_state(vs, KernelParams(0.5, 2))


# ---------------------------------------------------------------------------
# |Psi> and rho1

def test_psi_unit_norms_equals_rho0():
    rng = np.random.default_rng(4)
    vs = unit_vs(rng, 4, 2)
    kp = KernelParams(0.5, 2)
    phi = build_phi_state(vs, kp)
    psi = build_psi_state(vs, kp)
    assert np.max(np.abs(reduced(psi) - reduced(phi))) < 1e-10


def test_psi_rejects_single_vertex_and_zero_norm():
    with pytest.raises(GraphError):
        build_psi_state(VertexSet.from_vectors([[1.0, 0.0], [0.0, 0.0]]),
                        KernelParams(0.5, 2))


def test_psi_fixed_point_identity_b16():
    """Norms in [0.5, 1.5] at 16 bits: Upsilon rho1 matches the truncated
    weights within the accumulated fixed-point budget."""
    rng = np.random.default_rng(5)
    vs = general_vs(rng, 4, 2, 0.5, 1.5)
    kp = KernelParams(0.5, 2)
    psi = build_psi_state(vs, kp, PrepConfig(bits=16, exp_order=12))
    wp, diag = build_taylor_weight_matrix(vs, kp)
    full = wp + np.diag(diag)
    ups = upsilon(psi, vs, kp)
    # budget: each amplitude v_ik carries a handful of roundings at 2^-13
    # grid resolution (int part needs 3 bits) plus the exp-gate allowance,
    # entering quadratically through a_k v_ik v_jk products.
    u = 2.0 ** -(16 - 3)
    per_amp = (kp.p + 3) * u + 12 * u
    bound = 3 * kp.a_sum * per_amp * float(np.max(vs.norms)) ** kp.p * 4
    assert np.max(np.abs(reduced(psi) * ups - full)) <= bound


def test_psi_eq31_amplitude():
    rng = np.random.default_rng(6)
    vs = general_vs(rng, 4, 2, 0.7, 1.3)
    kp = KernelParams(0.5, 2)
    psi = build_psi_state(vs, kp)
    fx = psi.fx_values
    ups_fx = sum(kp.coeffs_a[k] * fx[i, k] ** 2 for i in range(4)
                 for k in range(kp.p + 1))
    predicted = ups_fx / (4 * kp.a_sum * psi.rotation_scale ** 2)
    assert abs(psi.stats.initial_amplitude - predicted) < 1e-9
    assert abs(upsilon(psi, vs, kp) - ups_fx) < 1e-9


def test_psi_offdiagonal_matches_truncated_weights():
    rng = np.random.default_rng(7)
    vs = general_vs(rng, 4, 2, 0.6, 1.3)
    kp = KernelParams(0.5, 3)
    psi = build_psi_state(vs, kp)
    wp, _ = build_taylor_weight_matrix(vs, kp)
    got = reduced(psi) * upsilon(psi, vs, kp)
    off = got - np.diag(np.diag(got))
    assert np.max(np.abs(off - wp)) < 1e-9  # 44-bit default grid


# ---------------------------------------------------------------------------
# estimators

def make_pair_state(n):
    layout = RegisterLayout([
        Register("i", n.bit_length() - 1, "index"),
        Register("j", n.bit_length() - 1, "index"),
        Register("out", 44, "arithmetic", FixedPointSpec(44, 3)),
    ])
    st = SimState(layout)
    st.apply_dense(hadamard_all(layout.by_name["i"].qubits), ["i"])
    st.apply_dense(hadamard_all(layout.by_name["j"].qubits), ["j"])
    return st


def test_distance_estimation_exact_values():
    vs = VertexSet.from_vectors([[1.0, 0.0], [0.0, 1.0]])
    st = make_pair_state(2)
    est = EstimatorConfig(mode="exact")
    distance_estimation(st, "i", "j", "out", QramOracle(vs), est)
    st.join()
    spec = st.layout.spec("out")
    vals = {}
    for labels, vec in st.branches.items():
        nz = np.argwhere(np.abs(vec) > 1e-12)
        for i, j in nz[:, :2]:
            vals[(int(i), int(j))] = spec.decode(labels[0])
    assert vals[(0, 0)] == 0.0 and vals[(1, 1)] == 0.0
    assert vals[(0, 1)] == pytest.approx(2.0, abs=1e-12)  # orthogonal units


def test_distance_estimation_noisy_fraction():
    """Noisy mode hits the true value within eps_d in at least a 1 - 2 delta1
    fraction of 200 seeded runs."""
    rng = np.random.default_rng(8)
    vs = general_vs(rng, 4, 2, 0.6, 1.2)
    true = float(np.sum((vs.vertices[0] - vs.vertices[1]) ** 2))
    eps_d, delta1 = 1e-3, 0.05
    hits = 0
    runs = 200
    for trial in range(runs):
        est = EstimatorConfig(mode="noisy", eps_d=eps_d, delta1=delta1, seed=trial)
        val = est.perturb(true, (1, 0, 1))
        hits += abs(val - true) <= eps_d
    assert hits / runs >= 1.0 - 2 * delta1


def test_inner_product_estimation_trivial_and_degrees():
    layout = RegisterLayout([
        Register("i", 2, "index"),
        Register("out", 44, "arithmetic", FixedPointSpec(44, 1)),
    ])
    st = SimState(layout)
    st.apply_dense(hadamard_all(2), ["i"])
    inner_product_estimation(st, "i", "out", {0: 1.0, 1: 0.0, 2: 0.5, 3: 0.25})
    spec = st.layout.spec("out")
    # identical states -> 1, orthogonal -> 0 (read back off the labels)
    got = sorted(spec.decode(lab[0]) for lab in st.branches)
    assert got == [0.0, 0.25, 0.5, 1.0]


def test_degree_pipeline_inner_products_match_degrees():
    rng = np.random.default_rng(9)
    vs = general_vs(rng, 4, 2, 0.6, 1.2)
    kp = KernelParams(0.5, 4)
    deg = build_degree_state(vs, kp, EstimatorConfig(mode="exact"))
    w = build_weight_matrix(vs, kp)
    d = w.sum(axis=1)
    # exact-mode pipeline degrees track the classical ones through the
    # high-order kernel gate
    assert np.max(np.abs(deg.degree_estimates - d)) < 1e-8


# ---------------------------------------------------------------------------
# degree state

def test_degree_amplitude_dominates_min_weight():
    # the step-(9) success amplitude p0 = Tr(D)/(n(n-1)) never drops below the
    # smallest pairwise weight
    rng = np.random.default_rng(30)
    for trial in range(5):
        vs = general_vs(rng, 4, 2, 0.5, 1.2)
        deg = build_degree_state(vs, KernelParams(0.5, 4))
        assert deg.stats.initial_amplitude >= deg.stats.r - 1e-12


def test_degree_n2_is_maximally_mixed():
    vs = VertexSet.from_vectors([[1.0, 0.3], [0.4, 1.0]])
    deg = build_degree_state(vs, KernelParams(0.5, 2))
    assert np.allclose(reduced(deg), np.eye(2) / 2, atol=1e-12)


def test_degree_regular_graph_uniform():
    # vertices at the corners of a square: all degrees equal
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    deg = build_degree_state(VertexSet.from_vectors(pts), KernelParams(0.5, 2))
    assert np.allclose(reduced(deg), np.eye(4) / 4, atol=1e-10)


def test_degree_asymmetric_bound_and_trace():
    rng = np.random.default_rng(10)
    vs = general_vs(rng, 4, 2, 0.6, 1.2)
    kp = KernelParams(0.5, 4)
    eps_d = 1e-4
    est = EstimatorConfig(mode="noisy", eps_d=eps_d, delta1=0.0, seed=11)
    deg = build_degree_state(vs, kp, est)
    w = build_weight_matrix(vs, kp)
    d = w.sum(axis=1)
    r = float(np.min(w[w > 0]))
    eps2 = kp.lam * eps_d / (2.0 * math.sqrt(r))
    # rho2 diagonal within the eps2-propagated bound of the classical degrees
    diff = np.abs(np.diag(reduced(deg)).real - d / d.sum())
    assert np.max(diff) <= 2.0 * eps2
    assert abs(deg.trace_estimate - d.sum()) <= 4 * 3 * kp.lam * eps_d + 1e-8


# ---------------------------------------------------------------------------
# amplitude amplification

def test_amplification_trivial_and_closed_form():
    layout = RegisterLayout([Register("q", 2, "index")])
    st = SimState(layout)
    st.apply_dense(hadamard_all(2), ["q"])
    # amplitude 1: nothing to do
    out, stats = amplitude_amplification(st.copy(), lambda idx, lab: True)
    assert stats.initial_amplitude == pytest.approx(1.0, abs=1e-15)
    assert stats.iterations == 0
    # amplitude sin^2(pi/6) = 0.25: one Grover rotation lands exactly on 1
    st = SimState(layout)
    st.apply_dense(hadamard_all(2), ["q"])
    out, stats = amplitude_amplification(st, lambda idx, lab: idx[0] == 3)
    assert stats.initial_amplitude == pytest.approx(0.25, abs=1e-15)
    assert stats.iterations == 1
    assert stats.residual < 1e-12
    vec = out.dense_vector()
    assert abs(vec[3]) == pytest.approx(1.0, abs=1e-10)


def test_amplification_discard_diagonal_n4():
    """The ordered-pair state with amplitude (n^2-n)/n^2 = 0.75 keeps zero
    rotations (one more would overshoot to zero) and post-selects the
    diagonal away with recorded residual."""
    layout = RegisterLayout([Register("i", 2, "index"), Register("j", 2, "index")])
    st = SimState(layout)
    st.apply_dense(hadamard_all(2), ["i"])
    st.apply_dense(hadamard_all(2), ["j"])
    out, stats = amplitude_amplification(st, lambda idx, lab: idx[0] != idx[1])
    assert stats.initial_amplitude == pytest.approx(0.75, abs=1e-15)
    assert stats.iterations == 0
    assert stats.residual == pytest.approx(0.25, abs=1e-12)
    vec = out.dense_vector().reshape(4, 4)
    assert np.max(np.abs(np.diag(vec))) < 1e-14
    off = np.abs(vec[~np.eye(4, dtype=bool)])
    assert np.allclose(off, 1.0 / math.sqrt(12), atol=1e-12)


class Weighed:
    """A state whose flagged weight is given exactly, as ``project`` reports
    it; amplification reads nothing else."""

    def __init__(self, weight):
        self.weight = weight

    def project(self, predicate):
        return self.weight


@pytest.mark.parametrize("weight", [math.nextafter(0.5, 0.0), 0.5,
                                    math.nextafter(0.5, 1.0)])
def test_amplification_tie_at_half_takes_no_rotation(weight):
    """At a good weight of 1/2, theta = pi/4: zero rotations and one leave
    the same flagged weight 1/2, and the last bit of the weight used to pick
    between them.  The tie goes to the smaller count, one ulp either side."""
    _, stats = amplitude_amplification(Weighed(weight), None)
    assert stats.iterations == 0
    assert stats.residual == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("k", [2, 3, 7])
def test_amplification_tie_at_pi_over_4k_takes_k_minus_1(k):
    """theta = pi/(4k): k - 1 and k rotations tie, k - 1 is taken; a weight a
    little off the tie takes floor(pi/(4 theta)) rotations either way."""
    tie = math.sin(math.pi / (4 * k)) ** 2
    for weight in (math.nextafter(tie, 0.0), tie, math.nextafter(tie, 1.0)):
        assert amplitude_amplification(Weighed(weight), None)[1].iterations == k - 1
    assert amplitude_amplification(Weighed(tie * 0.999), None)[1].iterations == k
    assert amplitude_amplification(Weighed(tie * 1.001), None)[1].iterations == k - 1


def test_amplification_zero_amplitude_fails():
    layout = RegisterLayout([Register("q", 1, "flag")])
    st = SimState(layout)
    with pytest.raises(SimError):
        amplitude_amplification(st, lambda idx, lab: idx[0] == 1)


def test_amplification_of_a_weight_below_1e_15_fails():
    """Flagged amplitude 1e-9: a weight of 1e-18 counts as zero."""
    layout = RegisterLayout([Register("q", 1, "flag")])
    st = SimState(layout)
    c = math.sqrt(1.0 - 1e-18)
    st.apply_dense(np.array([[c, -1e-9], [1e-9, c]], dtype=complex), ["q"])
    with pytest.raises(SimError, match="zero amplitude"):
        amplitude_amplification(st, lambda idx, lab: idx[0] == 1)


# ---------------------------------------------------------------------------
# error-budget properties live in the shared battery

def test_error_budget_suites():
    from qlapeig.checks import (check_degree_budget, check_phi_budget,
                                check_psi_budget)
    assert check_phi_budget(trials=25, seed=2)["violations"] == 0
    assert check_psi_budget(trials=10, seed=3, regime="above")["violations"] == 0
    assert check_psi_budget(trials=10, seed=13, regime="below")["violations"] == 0
    assert check_degree_budget(trials=10, seed=4)["violations"] == 0


@pytest.mark.parametrize("eps_x", [0.0, 1e-3], ids=["clean", "perturbed"])
def test_phi_purification_closed_form(eps_x):
    """|Phi> = n^-1/2 sum_i |i> sum_k sqrt(a~_k / sum a~) |k> |0>^(p-k) |x^_i>^k
    over idx, coeff, data0..data(p-1), with x^_i the vector the oracle loads."""
    rng = np.random.default_rng(20)
    vs = unit_vs(rng, 4, 2)
    kp = KernelParams(0.5, 3)
    oracle = QramOracle(vs, eps_x=eps_x, seed=9)
    phi = build_phi_state(vs, kp, oracle=oracle)
    n, m, p = vs.n, vs.m, kp.p
    cdim = 1 << phi.state.layout.by_name["coeff"].qubits
    a_t = kp.coeffs_a_tilde
    zero = np.eye(m)[0]
    expected = np.zeros((n, cdim, m ** p))
    for i in range(n):
        for k in range(p + 1):
            data = np.ones(1)
            for block in [zero] * (p - k) + [oracle.encoded[i]] * k:
                data = np.kron(data, block)
            expected[i, k] = math.sqrt(a_t[k] / a_t.sum()) * data
    expected = expected.reshape(-1) / math.sqrt(n)
    assert np.max(np.abs(phi.purification - expected)) < 1e-12


def test_inner_product_converges_with_estimator_precision():
    """Estimated degrees converge to the classical ones as eps_d shrinks."""
    rng = np.random.default_rng(21)
    vs = general_vs(rng, 4, 2, 0.6, 1.2)
    kp = KernelParams(0.5, 6)
    w = build_weight_matrix(vs, kp)
    d = w.sum(axis=1)
    errs = []
    for eps_d in (1e-2, 1e-4, 1e-6):
        est = EstimatorConfig(mode="noisy", eps_d=eps_d, delta1=0.0, seed=5)
        deg = build_degree_state(vs, kp, est)
        errs.append(np.max(np.abs(deg.degree_estimates - d)))
        assert errs[-1] <= 3 * kp.lam * eps_d + 1e-8
    assert errs[2] < errs[0]


def test_error_budget_formulas():
    from qlapeig.stateprep import ErrorBudget
    eb = ErrorBudget(eps_x=1e-4, eps_d=1e-3)
    assert eb.eps0(4, 3) == pytest.approx(math.sqrt(4) * 9 * 1e-4)
    assert eb.eps1(4, 2, 2.5, 1.2) == pytest.approx(
        math.sqrt(2.5 * 4) * 4 * 1.2 ** 2 * 1e-4)
    # norms below one leave no norm-power factor
    assert eb.eps1(4, 2, 2.5, 0.8) == pytest.approx(math.sqrt(2.5 * 4) * 4 * 1e-4)
    assert eb.eps2(0.5, 0.25) == pytest.approx(0.5 * 1e-3 / (2 * 0.5))


def test_desk_scale_guard():
    rng = np.random.default_rng(31)
    vs = unit_vs(rng, 4, 2)
    with pytest.raises(GraphError, match="desk-scale"):
        build_phi_state(vs, KernelParams(0.5, 24))
    with pytest.raises(GraphError, match="desk-scale"):
        build_psi_state(vs, KernelParams(0.5, 24))


def test_degree_pipeline_guard_names_the_vertex_count():
    """The degree state holds 4 n^3 amplitudes: n = 256 needs 2^26, past the
    desk-scale budget, and is refused before anything is allocated, naming
    the vertex count, the pipeline's only size knob, and the build's
    working set in states of that size."""
    rng = np.random.default_rng(32)
    vs = unit_vs(rng, 256, 2)
    with pytest.raises(GraphError) as info:
        build_degree_state(vs, KernelParams(0.5, 2))
    assert str(info.value) == (
        "degree pipeline (working set about 3.0 states): instance needs "
        "67108864 dense amplitudes, beyond the "
        "desk-scale budget of 33554432; lower the vertex count")


def test_degree_build_peak_memory_at_n32():
    """The degree build's traced peak at n = 32 (the benchmark's general-norm
    draw) stays under 3.1 states of 4 n^3 amplitudes, the "about 3.0" its
    guard names: ``_disentangle`` runs its SVDs in batches of at most
    DISENTANGLE_BATCH_AMPLITUDES and rewrites the slices in place, where
    one batch of every slice, its SVD factors and a second output array
    took the peak to 5.4 states."""
    rng = np.random.default_rng([301, 0])
    vs = general_vs(rng, 32, 2, 0.35, 0.55)
    tracemalloc.start()
    try:
        build_degree_state(vs, KernelParams(0.5, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * 4 * 32 ** 3 * 16


def test_disentangle_rejects_true_entanglement():
    """The per-index uncompute shortcut asserts the target registers hold a
    pure state for each control value; genuine entanglement must raise."""
    from qlapeig.stateprep import _disentangle
    layout = RegisterLayout([
        Register("ctl", 1, "index"),
        Register("tgt", 1, "index"),
        Register("rest", 1, "index"),
    ])
    st = SimState(layout)
    st.apply_dense(hadamard_all(1), ["ctl"])
    st.apply_dense(hadamard_all(1), ["tgt"])
    # entangle tgt with rest: CNOT(tgt -> rest); now per ctl-value the (tgt)
    # register is not pure relative to rest
    cnot = np.eye(4)[[0, 1, 3, 2]].astype(complex)
    st.apply_dense(cnot, ["tgt", "rest"])
    with pytest.raises(SimError):
        _disentangle(st, "ctl", ["tgt"])


def test_disentangle_moves_product_factor():
    from qlapeig.stateprep import _disentangle
    layout = RegisterLayout([
        Register("ctl", 1, "index"),
        Register("tgt", 1, "index"),
        Register("rest", 1, "index"),
    ])
    st = SimState(layout)
    st.apply_dense(hadamard_all(1), ["ctl"])
    st.apply_dense(np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex), ["tgt"])
    st.apply_dense(np.array([[0.8, -0.6], [0.6, 0.8]], dtype=complex), ["rest"])
    _disentangle(st, "ctl", ["tgt"])
    vec = st.dense_vector().reshape(2, 2, 2)
    assert np.max(np.abs(vec[:, 1, :])) < 1e-12      # target back to |0>
    assert abs(st.norm() - 1.0) < 1e-12
    # the rest-register factor survives untouched
    assert vec[0, 0, 0] == pytest.approx(0.8 / np.sqrt(2), abs=1e-12)
    assert vec[0, 0, 1] == pytest.approx(0.6 / np.sqrt(2), abs=1e-12)


def disentangle_per_value(rest):
    """``_disentangle`` with one SVD per control value, on a (control,
    target, rest) array: the array with each target factor moved to |0>, or
    the message of the first control value at fault."""
    new = np.zeros_like(rest)
    for c, mat in enumerate(rest):
        if np.max(np.abs(mat)) == 0:
            continue
        _, s, wt = np.linalg.svd(mat, full_matrices=False)
        if len(s) > 1 and s[1] > 1e-9 * max(s[0], 1e-30):
            return "target registers entangled beyond the control"
        row = s[0] * wt[0, :]
        k = int(np.argmax(np.abs(row)))
        row = row * np.conj(row[k] / abs(row[k]))
        if np.max(np.abs(row.imag)) > 1e-9 or np.min(row.real) < -1e-9:
            return "freed factor is not in the nonnegative convention"
        new[c, 0, :] = row
    return new


@pytest.mark.parametrize("slices", [
    "ppzp", "zzzz", "pzpz", "pspe", "zesp", "pppe",
])
def test_disentangle_matches_per_value_reference(monkeypatch, slices):
    """On 20 draws, the batched uncompute equals the per-value one bit for
    bit, skips zero slices, and names the first control value's fault,
    whether the four slices of 8 amplitudes run in one SVD batch, in
    batches of two or one at a time.  Slices: p a product with a
    nonnegative freed factor up to phase, z zero, e entangled, s a product
    whose freed factor has a negative entry."""
    layout = RegisterLayout([
        Register("ctl", 2, "index"),
        Register("tgt", 1, "index"),
        Register("rest", 2, "index"),
    ])
    for draw in range(20):
        rng = np.random.default_rng([17, draw, *map(ord, slices)])
        arr = np.zeros((4, 2, 4), dtype=complex)
        for c, kind in enumerate(slices):
            t = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            r = rng.uniform(0.1, 1.0, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            if kind == "s":
                r[1] *= -1
            if kind == "e":
                arr[c] = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            elif kind != "z":
                arr[c] = np.outer(t, r)
        expected = disentangle_per_value(arr)
        for batch in (stateprep.DISENTANGLE_BATCH_AMPLITUDES, 16, 8):
            monkeypatch.setattr(stateprep, "DISENTANGLE_BATCH_AMPLITUDES", batch)
            st = SimState(layout)
            st.label_free_row()[...] = arr
            if isinstance(expected, str):
                with pytest.raises(SimError) as info:
                    stateprep._disentangle(st, "ctl", ["tgt"])
                assert str(info.value) == expected
            else:
                stateprep._disentangle(st, "ctl", ["tgt"])
                assert np.array_equal(st.label_free_row(), expected)


def test_degree_disconnected_limit_rejected():
    from qlapeig.graph import DegenerateGraphError
    # separation chosen so the kernel series converges but the weight
    # underflows a coarse 12-bit grid to exactly zero
    vs = VertexSet.from_vectors([[0.0, 0.0], [4.5, 0.0]])
    with pytest.raises(DegenerateGraphError):
        build_degree_state(vs, KernelParams(0.5, 2),
                           prep=PrepConfig(bits=12, exp_order=40))
