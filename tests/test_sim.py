"""Simulator-substrate tests: dense ops, branch bookkeeping, partial trace
against an explicit outer-product oracle, and measurement sampling."""

import math

import numpy as np
import pytest
from label_columns import per_key, per_labels

from qlapeig.sim import (FixedPointSpec, Register, RegisterLayout, SimState,
                         operator_norm_distance, partial_trace,
                         sample_measurement)

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def two_qubit_layout():
    return RegisterLayout([Register("a", 1, "flag"), Register("b", 1, "flag")])


def test_hadamard_on_zero():
    st = SimState(RegisterLayout([Register("q", 1, "flag")]))
    st.apply_dense(H, ["q"])
    vec = st.dense_vector()
    assert np.allclose(vec, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_identity_leaves_state():
    st = SimState(two_qubit_layout())
    st.apply_dense(H, ["a"])
    before = st.dense_vector()
    st.apply_dense(np.eye(4, dtype=complex), ["a", "b"])
    assert np.allclose(st.dense_vector(), before)


def test_random_unitary_preserves_norm():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                        + 1j * rng.standard_normal((4, 4)))
    st = SimState(two_qubit_layout())
    st.apply_dense(H, ["a"])
    st.apply_dense(q, ["a", "b"])
    assert abs(st.norm() - 1.0) < 1e-12


def test_compose_order():
    rng = np.random.default_rng(1)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    s1 = SimState(RegisterLayout([Register("q", 1, "flag")]))
    s1.apply_dense(H, ["q"])
    s1.apply_dense(u, ["q"])
    s1.apply_dense(v, ["q"])
    s2 = SimState(RegisterLayout([Register("q", 1, "flag")]))
    s2.apply_dense(H, ["q"])
    s2.apply_dense(v @ u, ["q"])
    assert np.allclose(s1.dense_vector(), s2.dense_vector(), atol=1e-10)


def test_partial_trace_product_and_bell():
    st = SimState(two_qubit_layout())
    rho = partial_trace(st, ["a"])
    assert np.allclose(rho.matrix, [[1, 0], [0, 0]])
    # Bell state -> maximally mixed
    st.apply_dense(H, ["a"])
    cnot = np.eye(4)[[0, 1, 3, 2]]
    st.apply_dense(cnot.astype(complex), ["a", "b"])
    rho = partial_trace(st, ["a"])
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_branches_vs_dense_oracle():
    """Three-branch state with arithmetic labels: reduced operator matches the
    dense outer-product construction."""
    spec = FixedPointSpec(4, 1)
    layout = RegisterLayout([
        Register("idx", 2, "index"),
        Register("lab", 4, "arithmetic", spec),
    ])
    st = SimState(layout)
    st.apply_dense(np.kron(H, H), ["idx"])

    def fn(dense, labels):
        (i,) = dense
        return [i % 3 + 1]

    st.apply_label_map(per_key(fn), dense_controls=("idx",))
    joined = st.copy()
    joined.join()
    assert len(joined.branches) == 3
    rho = partial_trace(st, ["idx"])
    dense = st.dense_vector()
    full = np.outer(dense, dense.conj())
    full = full.reshape(4, 16, 4, 16)
    oracle = np.trace(full, axis1=1, axis2=3)
    assert np.max(np.abs(rho.matrix - oracle)) < 1e-10
    # tracing onto everything reproduces the pure density matrix
    rho_all = partial_trace(st, ["lab", "idx"])
    # basis order in rho_all is (kept arithmetic, kept dense)
    assert abs(np.trace(rho_all.matrix) - 1.0) < 1e-10
    assert np.max(np.abs(rho_all.matrix @ rho_all.matrix - rho_all.matrix)) < 1e-10


def test_branch_dense_equivalence_under_circuit():
    """Branch representation flattened densely matches a pure dense evolution
    for a mixed label/dense circuit (total width under 14 qubits)."""
    spec = FixedPointSpec(3, 1)
    layout = RegisterLayout([
        Register("idx", 2, "index"),
        Register("flag", 1, "flag"),
        Register("lab", 3, "arithmetic", spec),
    ])
    st = SimState(layout)
    st.apply_dense(np.kron(H, H), ["idx"])

    def write(dense, labels):
        (i,) = dense
        return [(3 * i) % 8]

    st.apply_label_map(per_key(write), dense_controls=("idx",))
    rot = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
    st.apply_dense(rot, ["flag"])
    vec = st.dense_vector()  # ordering idx, flag, lab

    # dense oracle
    dense = np.zeros(4 * 2 * 8, dtype=complex)
    dense[0] = 1.0
    dense = dense.reshape(4, 2, 8)
    h2 = np.kron(H, H)
    dense = np.einsum("ij,jfl->ifl", h2, dense)
    shifted = np.zeros_like(dense)
    for i in range(4):
        shifted[i, :, (3 * i) % 8] = dense[i, :, 0]
    dense = np.einsum("gf,ifl->igl", rot, shifted)
    assert np.max(np.abs(vec - dense.reshape(-1))) < 1e-10


def test_each_gate_calls_its_function_once_on_key_columns():
    """A label map gets the control values and labels of every key as one
    list per register, in key order; a label-controlled gate gets the
    distinct labels in order of first appearance.  Each calls its function
    once, and the result matches the per-key form."""
    spec = FixedPointSpec(3, 1)
    layout = RegisterLayout([Register("idx", 2, "index"), Register("anc", 1, "flag"),
                             Register("lab", 3, "arithmetic", spec)])
    states = [SimState(layout), SimState(layout)]
    calls = []

    def write(dense, labels):
        calls.append((dense, labels))
        return [[(3 * i) % 4 for i in dense[0]]]

    def rotation(labels):
        calls.append(labels)
        return np.array([[[math.cos(v), -math.sin(v)], [math.sin(v), math.cos(v)]]
                         for v in labels[0]])

    states[0].apply_dense(np.kron(H, H), ["idx"])
    states[1].apply_dense(np.kron(H, H), ["idx"])
    states[0].apply_label_map(write, dense_controls=("idx",))
    assert calls == [([[0, 1, 2, 3]], [[0, 0, 0, 0]])]
    states[0].apply_label_map(lambda dense, labels: [[lab % 2 for lab in labels[0]]])
    assert states[0].keys == [(0, 0), (1, 1), (0, 2), (1, 3)]
    calls.clear()
    states[0].apply_branch_dense(rotation, ["anc"])
    assert calls == [[[0, 1]]]
    states[1].apply_label_map(per_key(lambda d, lab: [(3 * d[0]) % 4 % 2]),
                              dense_controls=("idx",))
    states[1].apply_branch_dense(per_labels(lambda lab: rotation([[lab[0]]])[0]),
                                 ["anc"])
    assert states[0].dense_vector().tobytes() == states[1].dense_vector().tobytes()


def test_operator_norm_distance():
    assert operator_norm_distance(np.eye(3), np.eye(3)) == 0.0
    assert operator_norm_distance(np.eye(2), np.zeros((2, 2))) == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    # power-iteration oracle on (A-B)^T (A-B)
    m = (a - b).T @ (a - b)
    v = np.ones(8) / math.sqrt(8)
    for _ in range(50000):
        v2 = m @ v
        v2 /= np.linalg.norm(v2)
        if np.linalg.norm(v2 - v) < 1e-15:
            v = v2
            break
        v = v2
    oracle = math.sqrt(float(v @ m @ v))
    assert operator_norm_distance(a, b) == pytest.approx(oracle, abs=1e-8)


def test_sampling_deterministic_and_binomial():
    st = SimState(RegisterLayout([Register("q", 1, "flag")]))
    hist = sample_measurement(st, "q", 100, seed=1)
    assert hist == {0: 100}
    st.apply_dense(H, ["q"])
    shots = 10_000
    h1 = sample_measurement(st, "q", shots, seed=42)
    h2 = sample_measurement(st, "q", shots, seed=42)
    assert h1 == h2
    sigma = math.sqrt(shots * 0.25)
    assert abs(h1[0] - shots / 2) <= 5 * sigma


def test_reflection_and_projection():
    layout = RegisterLayout([Register("q", 2, "index")])
    st = SimState(layout)
    st.apply_dense(np.kron(H, H), ["q"])
    ref = st.copy()
    st.reflect_about(ref)
    assert np.allclose(st.dense_vector(), ref.dense_vector(), atol=1e-12)
    weight = st.project(lambda idx, lab: idx[0] != 0)
    assert weight == pytest.approx(0.75)
    assert abs(st.norm() - 1.0) < 1e-12
