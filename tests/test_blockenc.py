"""Block-encoding algebra tests: the defining inequality, purified
encodings, signed pairs, LCU combination (the column contraction against the
materialized circuit), the Laplacian combinations, and the negative-power
sandwich."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlapeig.blockenc import (BlockEncoding, StatePreparationPair,
                              dilate, encode_barL_unit_norm, encode_calL,
                              encode_W_over_n, identity_mixture_encoding, lcu_combine,
                              make_signed_pair, purified_density_encoding,
                              sandwich_negative_power, verify_block_encoding)
from qlapeig.graph import (GraphError, KernelParams, VertexSet, build_graph,
                           build_taylor_weight_matrix)
from qlapeig.sim import SimError, operator_norm_distance, partial_trace
from qlapeig.stateprep import (build_degree_state, build_phi_state,
                               build_psi_state, completion_unitary, hadamard_all)

from encoding_reference import dense_sandwich, dense_select, zero_ancilla_corner


def unit_vs(rng, n, m):
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return VertexSet.from_vectors(x)


def general_vs(rng, n, m, lo, hi):
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(lo, hi, size=(n, 1))
    return VertexSet.from_vectors(x)


# ---------------------------------------------------------------------------
# Definition-1 verification

def test_verify_identity_and_self_encoding():
    be = BlockEncoding(1.0, 0, 0.0, 2, backend="dense", unitary=np.eye(2, dtype=complex))
    measured, ok = verify_block_encoding(be, np.eye(2))
    assert measured == 0.0 and ok
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    be = BlockEncoding(1.0, 0, 0.0, 4, backend="dense", unitary=u)
    measured, ok = verify_block_encoding(be, u)
    assert measured < 1e-12 and ok


def test_verify_dimension_mismatch():
    be = BlockEncoding(1.0, 0, 0.0, 2, backend="dense", unitary=np.eye(2, dtype=complex))
    with pytest.raises(Exception):
        verify_block_encoding(be, np.eye(3))


def test_rho3_encoding_parameters():
    """(1, 2 log n, 0)-encoding of I/n."""
    enc = identity_mixture_encoding(4)
    assert enc.alpha == 1.0 and enc.ancillas == 4 and enc.epsilon == 0.0
    measured, ok = verify_block_encoding(enc, np.eye(4) / 4)
    assert measured <= 1e-10 and ok


# ---------------------------------------------------------------------------
# purified-density encodings

def test_purified_pure_state_and_bell():
    """The materialized sandwich around any preparation unitary encodes the
    reduced state of its first column, as the purified encoding does."""
    g = np.eye(4, dtype=complex)  # prepares |00>
    enc = BlockEncoding(1.0, 2, 0.0, 2, backend="dense", unitary=dense_sandwich(g, 2))
    measured, ok = verify_block_encoding(enc, np.outer([1, 0], [1, 0]))
    assert measured < 1e-12 and ok
    h = hadamard_all(1)
    cnot = np.eye(4)[[0, 1, 3, 2]].astype(complex)
    bell = cnot @ np.kron(h, np.eye(2))
    enc = BlockEncoding(1.0, 2, 0.0, 2, backend="dense", unitary=dense_sandwich(bell, 2))
    measured, ok = verify_block_encoding(enc, np.eye(2) / 2)
    assert measured < 1e-12 and ok
    pure = purified_density_encoding(bell[:, 0], 2)
    assert np.max(np.abs(zero_ancilla_corner(pure) - enc.block())) < 1e-12


def test_purified_phi_encoding_exact():
    """The circuit run on the zero-ancilla inputs gives the simulator's
    reduced state and the truncated-weight identity."""
    rng = np.random.default_rng(1)
    vs = unit_vs(rng, 4, 2)
    kp = KernelParams(0.5, 2)
    phi = build_phi_state(vs, kp)
    enc = purified_density_encoding(phi.purification, phi.system_dim)
    corner = zero_ancilla_corner(enc)
    measured = operator_norm_distance(corner, partial_trace(phi.state, ["idx"]).matrix)
    assert measured <= 1e-10 and measured <= enc.epsilon + 1e-12  # verify's pass rule
    a_t = kp.a_tilde_sum
    wp, _ = build_taylor_weight_matrix(vs, kp, absorbed=True)
    target = (wp + a_t * np.eye(4)) / (4 * a_t)
    assert operator_norm_distance(corner, target) <= 1e-9


def test_purified_vector_backend_matches_dense():
    rng = np.random.default_rng(2)
    vs = unit_vs(rng, 4, 2)
    kp = KernelParams(0.5, 2)
    phi = build_phi_state(vs, kp)
    dense = dense_sandwich(completion_unitary(phi.purification), phi.system_dim)
    pure = purified_density_encoding(phi.purification, phi.system_dim)
    s = phi.system_dim
    assert np.max(np.abs(dense[:s, :s] - pure.block())) < 1e-12


@st.composite
def purifications(draw):
    """A random unit purification vector (real or complex) with system
    dimension s in {2, 4, 8} and ancilla dimension 1..16, and k >= 1 input
    columns over (purification, subject)."""
    s = draw(st.sampled_from([2, 4, 8]))
    anc = draw(st.sampled_from([1, 2, 4, 8, 16]))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    v = rng.standard_normal(s * anc)
    if draw(st.booleans()):
        v = v + 1j * rng.standard_normal(s * anc)
    x = rng.standard_normal((s * anc * s, k)) + 1j * rng.standard_normal((s * anc * s, k))
    return v / np.linalg.norm(v), s, x


@settings(derandomize=True, deadline=None, max_examples=60)
@given(purifications())
def test_purified_apply_matches_the_materialized_sandwich(case):
    """``apply`` is the sandwich around the Householder preparation of the
    vector, and that circuit is Hermitian and its own inverse."""
    v, s, x = case
    enc = purified_density_encoding(v, s)
    reference = dense_sandwich(completion_unitary(v), s)
    assert np.max(np.abs(enc.apply(x) - reference @ x)) <= 1e-12
    rows = len(v) * s
    V = enc.apply(np.eye(rows))
    assert np.max(np.abs(V - V.conj().T)) <= 1e-12
    assert np.max(np.abs(enc.apply(V) - np.eye(rows))) <= 1e-12


def test_purified_apply_of_a_basis_preparation_is_the_swap():
    """A purification |0>: H = I, so the circuit is the SWAP alone."""
    v = np.zeros(8)
    v[0] = 1.0
    enc = purified_density_encoding(v, 2)
    x = np.random.default_rng(3).standard_normal((16, 2))
    assert np.array_equal(enc.apply(x), dense_sandwich(np.eye(8), 2) @ x)


def _pipeline_encodings(n):
    """(name, encoding) for rho0, rho1, rho2 and I/n at n vertices, m = 2,
    p = 6, as the pipelines build them."""
    rng = np.random.default_rng(500 + n)
    kp = KernelParams(0.5, 6)
    unit = unit_vs(rng, n, 2)
    general = general_vs(rng, n, 2, 0.4, 0.9)
    builds = [("rho0", build_phi_state(unit, kp)),
              ("rho1", build_psi_state(general, kp)),
              ("rho2", build_degree_state(general, kp))]
    encs = [(name, purified_density_encoding(b.purification, b.system_dim))
            for name, b in builds]
    return encs + [("I/n", identity_mixture_encoding(n))]


@pytest.mark.parametrize("n", [4, 8, 16])
def test_purified_apply_on_zero_ancilla_inputs_is_the_block(n):
    """For every pipeline density encoding, the circuit on |0>|e_j> returns
    column j of ``block()``; at n = 16 one input column at a time."""
    for name, enc in _pipeline_encodings(n):
        block = enc.block()
        if n < 16:
            got = zero_ancilla_corner(enc)
        else:
            got = np.hstack([zero_ancilla_corner(enc, [j]) for j in range(n)])
        assert np.max(np.abs(got - block)) <= 1e-12, name


def test_purified_encoding_of_a_desk_scale_phi_state():
    """At n = 64, m = 4, p = 6 the unit-norm purification holds 2^21
    amplitudes, within the desk-scale guard; its block is the simulator's
    reduced state over the index register, and the encoding's ancilla
    register is all 21 of its qubits."""
    vs = unit_vs(np.random.default_rng(64), 64, 4)
    phi = build_phi_state(vs, KernelParams(0.5, 6))
    enc = purified_density_encoding(phi.purification, phi.system_dim)
    assert phi.purification.size == 1 << 21 and enc.ancillas == 21
    rho0 = partial_trace(phi.state, ["idx"]).matrix
    assert np.max(np.abs(enc.block() - rho0)) < 1e-12


@pytest.mark.parametrize("vector", [np.zeros(8), np.full(8, np.nan),
                                    np.full(8, 1.1 / math.sqrt(8))],
                         ids=["zero", "nan", "scaled"])
def test_purified_encoding_refuses_an_unnormalized_vector(vector):
    """The norm is checked on the vector as given, before it is divided out:
    a zero vector would otherwise give a NaN block, and a vector of norm
    1.1 would be rescaled silently."""
    with pytest.raises(SimError, match="normalized purification"):
        purified_density_encoding(vector, 2)


@pytest.mark.parametrize("vector, sys_dim, message", [
    (np.full(6, 1 / math.sqrt(6)), 4, "length 6 is not a power of two"),
    (np.full(12, 1 / math.sqrt(12)), 4, "length 12 is not a power of two"),
    (np.full(8, 1 / math.sqrt(8)), 16, "length 8 is not a power of two divisible"),
    (np.eye(4, dtype=complex), 2, "purification vector G|0>"),
], ids=["length-6", "length-12", "shorter-than-system", "unitary"])
def test_purified_encoding_refuses_a_vector_of_the_wrong_shape(vector, sys_dim, message):
    """A length that is not a power of two, or not a multiple of the system
    dimension, claims an ancilla count the register does not have; a 2-D
    array (a preparation unitary, say) is refused with the vector form
    named."""
    with pytest.raises(SimError, match=message):
        purified_density_encoding(vector, sys_dim)


def test_apply_checks_its_input_and_refuses_a_composite_encoding():
    enc = identity_mixture_encoding(2)
    with pytest.raises(SimError, match=r"\(8, k\)"):
        enc.apply(np.zeros(8))
    with pytest.raises(SimError, match=r"\(8, k\)"):
        enc.apply(np.zeros((4, 1)))
    composite = BlockEncoding(1.0, 1, 0.0, 2, backend="composite",
                              _block=np.eye(2) / 2)
    with pytest.raises(SimError, match="no circuit"):
        composite.apply(np.zeros((4, 1)))


def test_apply_of_a_dense_encoding_is_its_unitary():
    be = dilate(np.diag([0.3, -0.5]), 1.0)
    x = np.random.default_rng(4).standard_normal((4, 3))
    assert np.array_equal(be.apply(x), be.unitary @ x)


# ---------------------------------------------------------------------------
# signed pairs

def test_pair_single_weight():
    pair = make_signed_pair([1.0], beta=1.0)
    assert pair.b == 1 and pair.measured_epsilon_y() < 1e-12
    c, d = pair.columns()
    assert c[0] == pytest.approx(1.0) and d[0] == pytest.approx(1.0)


def test_pair_signed_recovery_and_padding():
    y = np.array([-0.5, 1.0, 0.5])
    pair = make_signed_pair(y, beta=3.0)
    c, d = pair.columns()
    assert np.max(np.abs(3.0 * np.conj(c[:3]) * d[:3] - y)) < 1e-12
    assert abs(np.conj(c[3]) * d[3]) < 1e-15  # unused slot carries no weight
    assert abs(np.linalg.norm(c) - 1) < 1e-12 and abs(np.linalg.norm(d) - 1) < 1e-12
    # unitarity of the completions
    for col in (pair.c, pair.d):
        p = completion_unitary(col)
        assert np.max(np.abs(p.conj().T @ p - np.eye(4))) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=150)
@given(y=st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=9)
       .filter(lambda y: any(y)),
       excess=st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
def test_pair_columns_realize_the_weights(y, excess):
    """Any weights and any beta >= ||y||_1: unit columns, unitary completions
    and beta conj(c_j) d_j = y_j."""
    y = np.array(y)
    beta = float(np.sum(np.abs(y))) * (1.0 + excess)
    pair = make_signed_pair(y, beta=beta)
    c, d = pair.columns()
    assert abs(np.linalg.norm(c) - 1) < 1e-12 and abs(np.linalg.norm(d) - 1) < 1e-12
    assert np.max(np.abs(beta * np.conj(c[: len(y)]) * d[: len(y)] - y)) < 1e-12
    assert np.max(np.abs(beta * np.conj(c[len(y):]) * d[len(y):]), initial=0.0) < 1e-12
    dim = 1 << pair.b
    for p in map(completion_unitary, (pair.c, pair.d)):
        assert np.max(np.abs(p.conj().T @ p - np.eye(dim))) < 1e-12


def test_pair_beta_below_norm_rejected():
    with pytest.raises(GraphError):
        make_signed_pair([1.0, -1.0], beta=1.5)


# ---------------------------------------------------------------------------
# LCU combination

def test_lcu_single_term_returns_input():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    a *= 0.3 / np.linalg.norm(a, 2)
    enc = dilate(a, 1.0)
    pair = make_signed_pair([1.0], beta=1.0)
    out = lcu_combine(pair, [enc])
    assert out.ancillas == enc.ancillas + 1
    assert operator_norm_distance(out.alpha * out.block(), a) < 1e-12


def test_lcu_convex_identical_terms():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4))
    a *= 0.3 / np.linalg.norm(a, 2)
    enc1, enc2 = dilate(a, 1.0), dilate(a, 1.0)
    pair = make_signed_pair([0.5, 0.5], beta=1.0)
    out = lcu_combine(pair, [enc1, enc2])
    assert operator_norm_distance(out.alpha * out.block(), a) < 1e-12


def test_lcu_dense_machinery_vs_composite_block():
    """The composite-shortcut block equals the materialized circuit's block."""
    rng = np.random.default_rng(5)
    y = np.array([-0.4, 1.0, 0.3])
    mats = [rng.standard_normal((2, 2)) * 0.3 for _ in range(3)]
    encs = [dilate(a, 1.0) for a in mats]
    pair = make_signed_pair(y, beta=2.5)
    corner = dense_select(pair, encs)[:2, :2]
    forced = [BlockEncoding(1.0, e.ancillas, e.epsilon, e.subject_dim,
                            backend="composite", _block=e.block()) for e in encs]
    comp = lcu_combine(pair, forced)
    assert comp.backend == "composite"
    assert np.max(np.abs(corner - comp.block())) < 1e-12
    target = sum(w * a for w, a in zip(y, mats))
    assert operator_norm_distance(comp.alpha * corner, target) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2 ** 32 - 1), terms=st.integers(1, 3),
       s=st.sampled_from([2, 4, 8]), alpha=st.sampled_from([1.0, 2.0]))
def test_lcu_contraction_is_the_circuit_corner(seed, terms, s, alpha):
    """Random complex unit columns c, d (idle slots weighted too) and dense
    components of one or two ancillas each: lcu_combine's block is the
    top-left corner of the materialized circuit, which is unitary, at any
    component scale."""
    rng = np.random.default_rng(seed)
    b = max(1, (terms - 1).bit_length())
    c, d = (v / np.linalg.norm(v) for v in
            rng.standard_normal((2, 1 << b)) + 1j * rng.standard_normal((2, 1 << b)))
    pair = StatePreparationPair(c, d, 1.0, b, 0.0, np.conj(c[:terms]) * d[:terms])
    encs = []
    for _ in range(terms):
        dim = s << int(rng.integers(1, 3))  # one or two ancillas
        u = np.linalg.qr(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)))[0]
        encs.append(BlockEncoding(alpha, dim.bit_length() - s.bit_length(), 0.0, s,
                                  unitary=u))
    circuit = dense_select(pair, encs)
    assert np.max(np.abs(circuit.conj().T @ circuit - np.eye(len(circuit)))) < 1e-10
    out = lcu_combine(pair, encs)
    assert len(circuit) == (1 << out.ancillas) * s and out.alpha == alpha
    assert np.max(np.abs(circuit[:s, :s] - out.block())) < 1e-12


@pytest.mark.parametrize("alpha", [2.0, 3.5])
def test_lcu_of_composite_components_at_a_wide_scale(alpha):
    """Components encoding A_j / alpha, alpha != 1, each off by eps_A: the
    combination's alpha beta block is within its claimed error of
    sum_j y_j A_j (the scale enters once, through alpha beta)."""
    rng = np.random.default_rng(23)
    eps_a, s = 1e-5, 4
    y = np.array([0.8, -0.5, 0.4])
    mats = [rng.standard_normal((s, s)) for _ in y]
    mats = [a * (0.9 * alpha / np.linalg.norm(a, 2)) for a in mats]  # blocks of norm 0.9
    encs = []
    for a in mats:
        bump = rng.standard_normal((s, s))
        bump *= eps_a / np.linalg.norm(bump, 2)
        encs.append(BlockEncoding(alpha, 1, eps_a, s, backend="composite",
                                  _block=(a + bump) / alpha))
    pair = make_signed_pair(y, beta=2.0)
    out = lcu_combine(pair, encs)
    target = sum(w * a for w, a in zip(y, mats))
    assert operator_norm_distance(out.alpha * out.block(), target) <= out.epsilon


def test_lcu_parameter_law_under_injected_errors():
    from qlapeig.checks import check_lcu_parameter_law
    assert check_lcu_parameter_law(trials=50, seed=9)["violations"] == 0


def test_lcu_claimed_error_composes_pair_and_component_errors():
    """Perturbed dense components (each eps_A from its matrix) combined by a
    pair with an injected eps_y: the claimed error is alpha eps_y + alpha
    beta eps_A, and it covers the measured distance."""
    rng = np.random.default_rng(21)
    alpha, eps_a, s = 2.0, 1e-4, 4
    y = np.array([0.6, -0.9, 0.3])
    mats = [np.linalg.qr(rng.standard_normal((s, s)))[0] * 0.8 for _ in y]
    encs = []
    for a in mats:
        bump = rng.standard_normal((s, s))
        bump *= eps_a / np.linalg.norm(bump, 2)
        encs.append(BlockEncoding(alpha, 1, eps_a, s, backend="dense",
                                  unitary=dilate(a + bump, alpha).unitary))
    pair = make_signed_pair(y, beta=2.2, inject_eps_y=1e-4, seed=5)
    assert pair.epsilon_y > 1e-6
    out = lcu_combine(pair, encs)
    assert out.epsilon == pytest.approx(
        alpha * pair.epsilon_y + alpha * pair.beta * eps_a, rel=1e-12)
    target = sum(w * a for w, a in zip(y, mats))
    assert operator_norm_distance(out.alpha * out.block(), target) <= out.epsilon


def test_lcu_requires_matching_dimensions():
    enc2 = dilate(np.eye(2) * 0.5, 1.0)
    enc4 = dilate(np.eye(4) * 0.5, 1.0)
    pair = make_signed_pair([0.5, 0.5], beta=1.0)
    with pytest.raises(GraphError):
        lcu_combine(pair, [enc2, enc4])


# ---------------------------------------------------------------------------
# the Laplacian combination

def test_calL_two_vertices_closed_form():
    vs = VertexSet.from_vectors([[0.5, 0.1], [0.1, 0.45]])
    kp = KernelParams(0.5, 6)
    res = encode_calL(vs, kp)
    blk = res.encoding.alpha * res.encoding.block()
    assert np.max(np.abs(blk - np.array([[0.5, -0.5], [-0.5, 0.5]]))) < 1e-6
    # sub-unit degrees push c above 1; the combination scale widens with it
    assert not res.combo.in_unit_range
    assert res.encoding.alpha == pytest.approx(1.0 + 2.0 * res.combo.c)


def test_calL_beta_three_in_unit_range():
    rng = np.random.default_rng(14)
    vs = general_vs(rng, 8, 2, 0.4, 0.6)
    kp = KernelParams(0.5, 4)
    res = encode_calL(vs, kp)
    assert res.combo.in_unit_range  # 7 weights per row sum above 1 here
    assert res.encoding.alpha == pytest.approx(3.0)
    assert res.encoding.epsilon == pytest.approx(
        res.pair.epsilon_y + 3.0 * 0.0, abs=1e-9)


def test_calL_regular_graph_uniform_diagonal():
    pts = np.array([[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]])
    res = encode_calL(VertexSet.from_vectors(pts), KernelParams(0.5, 8))
    blk = res.encoding.alpha * res.encoding.block()
    assert np.allclose(np.diag(blk).real, 0.25, atol=1e-8)


def test_calL_matches_truncated_laplacian():
    rng = np.random.default_rng(6)
    vs = general_vs(rng, 4, 2, 0.3, 0.5)
    kp = KernelParams(0.5, 6)
    res = encode_calL(vs, kp)
    gm = build_graph(vs, kp, truncated=True)
    blk = res.encoding.alpha * res.encoding.block()
    assert operator_norm_distance(blk, gm.L / gm.trace_D) <= 1e-5
    assert np.max(np.abs(blk @ np.ones(4))) <= 1e-5
    widest = max(res.components[k].ancillas for k in ("rho_weight", "rho2", "rho3"))
    assert res.encoding.ancillas == res.pair.b + widest


# ---------------------------------------------------------------------------
# the unit-norm combination

def test_barL_component_identity():
    """d rho0 - e rho3 carries exactly W_p / Tr(D)."""
    rng = np.random.default_rng(8)
    vs = unit_vs(rng, 4, 2)
    kp = KernelParams(0.25, 6)
    res = encode_barL_unit_norm(vs, kp)
    rho0 = res.components["rho_weight"].block()
    rho3 = np.eye(4) / 4
    d_c, e_c = res.combo.d_coef, res.combo.e_coef
    wp, _ = build_taylor_weight_matrix(vs, kp, absorbed=True)
    lhs = d_c * rho0 - e_c * rho3
    assert operator_norm_distance(lhs, wp / res.trace_D) < 1e-9


def test_barL_agrees_with_calL_and_unit_trace():
    rng = np.random.default_rng(9)
    vs = unit_vs(rng, 4, 2)
    kp = KernelParams(0.25, 6)
    a = encode_calL(vs, kp, norm_case="unit")
    b = encode_barL_unit_norm(vs, kp)
    dist = operator_norm_distance(a.encoding.alpha * a.encoding.block(),
                                  b.encoding.alpha * b.encoding.block())
    assert dist <= 1e-5
    blk = b.encoding.alpha * b.encoding.block()
    assert np.trace(blk).real == pytest.approx(1.0, abs=1e-5)


# ---------------------------------------------------------------------------
# W/n

def test_W_over_n_unit_norm_exact():
    rng = np.random.default_rng(10)
    vs = unit_vs(rng, 4, 2)
    kp = KernelParams(0.5, 4)
    res = encode_W_over_n(vs, kp, "unit")
    gm = build_graph(vs, kp, truncated=True)
    blk = res.encoding.alpha * res.encoding.block()
    assert operator_norm_distance(blk, gm.W_p / 4) < 1e-10
    off = blk[~np.eye(4, dtype=bool)]
    assert np.all(off.real > 0)  # Gaussian weights never vanish
    assert np.max(np.abs(blk - blk.T.conj())) < 1e-10


def test_W_over_n_general_norm_diagonal_gap():
    vs = VertexSet.from_vectors([[0.8, 0.0], [0.0, 1.2]])
    kp = KernelParams(0.5, 2)
    res = encode_W_over_n(vs, kp, "general")
    blk = res.encoding.alpha * res.encoding.block()
    wp, diag = build_taylor_weight_matrix(vs, kp)
    psi = res.components["weight_build"]
    ups = vs.n * kp.a_sum * psi.rotation_scale ** 2 * psi.stats.initial_amplitude
    # scalar evaluation: off-diagonal w12/Upsilon, diagonal t_i/Upsilon - 1/n
    assert blk[0, 1].real == pytest.approx(wp[0, 1] / ups, abs=1e-9)
    for i in range(2):
        gap = diag[i] / ups - 0.5
        assert blk[i, i].real == pytest.approx(gap, abs=1e-9)


# ---------------------------------------------------------------------------
# trace estimation

def test_trace_estimate_two_vertices():
    vs = VertexSet.from_vectors([[0.6, 0.0], [0.0, 0.8]])
    kp = KernelParams(0.5, 4)
    deg = build_degree_state(vs, kp)
    w12 = math.exp(-0.5 * (0.36 + 0.64))
    assert deg.trace_estimate == pytest.approx(2 * w12, abs=1e-8)


def test_trace_estimate_regular_and_random():
    pts = np.array([[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]])
    vs = VertexSet.from_vectors(pts)
    kp = KernelParams(0.5, 4)
    deg = build_degree_state(vs, kp)
    # regular graph: p0 equals the mean weight
    w = build_graph(vs, kp).W
    assert deg.stats.initial_amplitude == pytest.approx(w.sum() / 12, abs=1e-10)
    rng = np.random.default_rng(11)
    vs = general_vs(rng, 4, 2, 0.5, 1.0)
    deg = build_degree_state(vs, kp)
    gm = build_graph(vs, kp)
    rel = abs(deg.trace_estimate - gm.trace_D) / gm.trace_D
    assert rel <= 1e-6


def test_trace_estimate_requires_p0():
    """Tr(D) is n(n-1) p0 from the degree build's measured p0, and the
    combinations read that one value when no estimate is passed in."""
    vs = VertexSet.from_vectors([[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]])
    res = encode_calL(vs, KernelParams(0.5, 4))
    deg = res.components["degree_build"]
    assert deg.stats.initial_amplitude > 0
    assert deg.trace_estimate == float(4 * 3 * deg.stats.initial_amplitude)
    assert res.trace_D == deg.trace_estimate


# ---------------------------------------------------------------------------
# negative-power sandwich

def test_sandwich_two_vertices_closed_form():
    vs = VertexSet.from_vectors([[0.5, 0.1], [0.1, 0.45]])
    kp = KernelParams(0.5, 6)
    res = encode_calL(vs, kp)
    enc, params = sandwich_negative_power(res.components["rho2"], res.encoding)
    blk = enc.alpha * enc.block()
    assert np.max(np.abs(blk - np.array([[1.0, -1.0], [-1.0, 1.0]]))) < 1e-6


def test_sandwich_regular_graph_scaling():
    pts = np.array([[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]])
    vs = VertexSet.from_vectors(pts)
    kp = KernelParams(0.5, 8)
    res = encode_calL(vs, kp)
    enc, params = sandwich_negative_power(res.components["rho2"], res.encoding)
    cal = res.encoding.alpha * res.encoding.block()
    blk = enc.alpha * enc.block()
    assert operator_norm_distance(blk, 4 * cal) < 1e-8  # rho2 = I/4


def test_sandwich_alpha_law_and_verification():
    rng = np.random.default_rng(12)
    vs = general_vs(rng, 4, 2, 0.3, 0.5)
    kp = KernelParams(0.5, 6)
    res = encode_calL(vs, kp)
    enc, params = sandwich_negative_power(res.components["rho2"], res.encoding)
    assert enc.alpha == pytest.approx(
        4.0 * params.kappa * res.encoding.alpha)  # kappa^{2c} with c = 1/2
    gm = build_graph(vs, kp, truncated=True)
    measured = operator_norm_distance(enc.alpha * enc.block(), gm.L_s)
    assert measured <= enc.epsilon
    assert measured <= 1e-6
    assert params.zeta1 > 0 and params.kappa >= 2


def test_sandwich_claimed_error_composes_the_base_error():
    """A base B with eps_B > 0: the claimed error is 4 kappa^c alpha_B
    varsigma1 + 4 kappa^{2c} eps_B, c = 1/2, varsigma1 = 1e-3 (``VARSIGMA1``)."""
    rng = np.random.default_rng(22)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    be_a = BlockEncoding(1.0, 1, 0.0, 4, backend="composite",
                         _block=q @ np.diag([0.3, 0.5, 0.8, 1.0]) @ q.T)
    b = rng.standard_normal((4, 4))
    be_b = BlockEncoding(3.0, 1, 2e-5, 4, backend="composite",
                         _block=(b + b.T) / (2.0 * np.linalg.norm(b + b.T, 2)))
    enc, params = sandwich_negative_power(be_a, be_b, kappa=4.0)
    assert enc.epsilon == pytest.approx(
        4.0 * 4.0 ** 0.5 * 3.0 * 1e-3 + 4.0 * 4.0 * 2e-5, rel=1e-12)


def test_sandwich_spectral_window_violation():
    res_enc = BlockEncoding(1.0, 1, 0.0, 2, backend="composite",
                            _block=np.diag([1.0, 1e-9]))
    other = BlockEncoding(1.0, 1, 0.0, 2, backend="composite",
                          _block=np.eye(2) * 0.4)
    with pytest.raises(GraphError):
        sandwich_negative_power(res_enc, other, kappa=2.0)


# ---------------------------------------------------------------------------
# dilation

def test_dilate_roundtrip():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a *= 0.3 / np.linalg.norm(a, 2)
    enc = dilate(a, 2.0)
    assert enc.ancillas == 1
    measured, ok = verify_block_encoding(enc, a)
    assert measured < 1e-10 and ok


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_dilate_of_a_real_symmetric_block_is_real(n):
    """The metered lcu_taylor path skips its imaginary GEMMs when the
    encoding unitary's imaginary part is exactly zero.  Every pipeline
    target is real symmetric, so its dilation must stay exactly real, or
    that path silently falls back to the complex arithmetic."""
    rng = np.random.default_rng(400 + n)
    h = rng.standard_normal((n, n))
    h = (h + h.T) / 2
    enc = dilate(h, 1.2 * np.linalg.norm(h, 2))
    assert not enc.unitary.imag.any()
    measured, ok = verify_block_encoding(enc, h)
    assert measured < 1e-10 and ok
