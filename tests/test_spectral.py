"""Hamiltonian simulation, QPE, extraction, and the end-to-end pipeline."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla

from qlapeig import simulation, spectral
from qlapeig.blockenc import BlockEncoding, dilate, purified_density_encoding
from qlapeig.graph import (GraphError, KernelParams, VertexSet, build_graph,
                           classical_eigensolve)
from qlapeig.simulation import (LCU_MAX_AMPLITUDES, Evolution, SimulationConfig,
                                SimulationError, simulate_hamiltonian)
from qlapeig.spectral import (PipelineConfig, QpeConfig, ResolutionError,
                              extract_d_smallest, full_pipeline,
                              recover_Lr_eigenvectors, run_qpe)
from qlapeig.stateprep import completion_unitary


def random_hermitian(rng, n, norm=0.8):
    h = rng.standard_normal((n, n))
    h = (h + h.T) / 2
    return h * (norm / np.linalg.norm(h, 2))


def random_complex_hermitian(rng, n, norm=0.8):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2
    return h * (norm / np.linalg.norm(h, 2))


def evolution_of(h, t):
    """e^(-i h t) of a Hermitian h in its eigenbasis, as the oracle path
    hands it to phase estimation."""
    vals, q = np.linalg.eigh(h)
    return Evolution(q, np.exp(-1j * vals * t), 0.0, {})


def diagonal_evolution(phases):
    """The evolution diag(phases) in the standard basis."""
    return Evolution(np.eye(len(phases)), np.asarray(phases, dtype=complex), 0.0, {})


def general_vs(rng, n, m, lo, hi):
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(lo, hi, size=(n, 1))
    return VertexSet.from_vectors(x)


# ---------------------------------------------------------------------------
# simulation paths

def test_simulation_config_refuses_a_time_not_positive():
    """An evolution time must be > 0; NaN is not."""
    for t in (0.0, -1.0, math.nan):
        with pytest.raises(SimulationError, match="must be positive"):
            SimulationConfig(t=t)


@pytest.mark.parametrize("path", ["oracle_exponential", "lcu_taylor"])
def test_simulation_config_refuses_an_infinite_time(path):
    """An infinite time would give NaN phases on the oracle path and an
    OverflowError in the lcu path's segment count."""
    with pytest.raises(SimulationError, match="positive and finite"):
        SimulationConfig(t=math.inf, path=path)


@pytest.mark.parametrize("order", [0, -3, 2.5, 13])
def test_simulation_config_refuses_a_truncation_order_out_of_range(order):
    """A series order is an int in 1 .. MAX_TAYLOR_ORDER, or None."""
    with pytest.raises(SimulationError, match="truncation order"):
        SimulationConfig(t=1e-9, eps=0.5, path="lcu_taylor", truncation_order=order)


def test_simulation_pauli_z_closed_form():
    z = np.diag([1.0, -1.0])
    enc = dilate(z / 2, 1.0)
    out = simulate_hamiltonian(enc, SimulationConfig(t=math.pi, eps=1e-9))
    assert np.max(np.abs(out.block() - np.diag([-1j, 1j]))) < 1e-12


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("t", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_lcu_taylor_error_contract(n, t, eps):
    rng = np.random.default_rng(n * 100 + int(t))
    h = random_hermitian(rng, n)
    enc = dilate(h, 1.0)
    out = simulate_hamiltonian(enc, SimulationConfig(t=t, eps=eps, path="lcu_taylor"))
    exact = sla.expm(-1j * h * t)
    assert np.linalg.norm(out.block() - exact, 2) <= eps
    assert out.meta["query_count"] == out.meta["segments"] * 3 * out.meta["order"]


def three_pass_taylor(be, t, order, r):
    """Reference for the metered path: each of the r segments runs the circuit
    -A R A^dag R A literally, three passes of the encoding circuit A per
    segment and input column.  Returns the block, the circuit's query count
    (rungs run, divided by the s columns) and every column's full state after
    each segment, in circuit order: coefficient row, ancilla 1 .. order,
    flag, subject."""
    s = be.subject_dim
    a_dim = be.unitary.shape[0] // s
    x = be.alpha * t / r
    cdim = 1 << max(1, (order + 1).bit_length())
    ys = np.array([x ** k / math.factorial(k) for k in range(order + 1)])
    pad = 2.0 - ys.sum()
    c_col = np.zeros(cdim, dtype=complex)
    d_col = np.zeros(cdim, dtype=complex)
    c_col[: order + 1] = np.sqrt(ys / 2.0)
    d_col[: order + 1] = np.sqrt(ys / 2.0) * (-1j) ** np.arange(order + 1)
    c_col[order + 1] = d_col[order + 1] = math.sqrt(max(pad, 0.0) / 2.0)
    p_l, p_r = completion_unitary(c_col), completion_unitary(d_col)
    shape = (cdim,) + (a_dim,) * order + (2, s)
    u_mat, ud_mat = be.unitary, be.unitary.conj().T
    queries = 0

    def apply_on(psi, mat, axes):
        moved = np.moveaxis(psi, axes, range(len(axes)))
        flat = mat @ moved.reshape(mat.shape[0], -1)
        return np.moveaxis(flat.reshape(moved.shape), range(len(axes)), axes)

    def select(psi, adjoint):
        nonlocal queries
        mat = ud_mat if adjoint else u_mat
        for j in (range(order, 0, -1) if adjoint else range(1, order + 1)):
            queries += 1
            for k in range(j, order + 1):
                psi[k] = apply_on(psi[k], mat, [j - 1, len(shape) - 2])
        psi[order + 1] = np.flip(psi[order + 1], axis=-2)
        return psi

    def a_op(psi, adjoint=False):
        first, last = (p_l, p_r.conj().T) if adjoint else (p_r, p_l.conj().T)
        return apply_on(select(apply_on(psi, first, [0]), adjoint), last, [0])

    def reflect_zero(psi):
        flat = psi.reshape(-1, s) * -1.0
        flat[0] *= -1.0
        return flat.reshape(shape)

    block = np.zeros((s, s), dtype=complex)
    states = []
    for col in range(s):
        psi = np.zeros(shape, dtype=complex)
        psi[(0,) * (len(shape) - 1) + (col,)] = 1.0
        for _ in range(r):
            psi = -a_op(reflect_zero(a_op(reflect_zero(a_op(psi)), adjoint=True)))
            states.append(psi)
        block[:, col] = psi.reshape(-1, s)[0]
    return block, queries // s, states


def in_circuit_basis(rows, frame, order):
    """A channel's live rows, each ancilla's amplitudes given along the
    columns of ``frame``, as (live, 2^(order + 1), 1) amplitudes along the
    ancillas' own basis: the frame applied to every ancilla axis."""
    state = rows.reshape((len(rows), 2) + (2,) * order)
    for axis in range(2, order + 2):
        state = np.moveaxis(np.tensordot(frame, state, axes=(1, axis)), 0, axis)
    return state.reshape(len(rows), -1, 1)


def assert_matches_three_pass(enc, t, eps, order=None):
    """The metered path on the block of ``enc``, a one-ancilla dilation,
    against ``three_pass_taylor`` on its unitary: the evolution, the query
    count, and each column's full state after every segment.  The metered
    path holds the live coefficient rows 0 .. order + 1, each laid out as
    flag, ancilla order .. 1; the reference's other rows are zero.  It runs
    the s channels stacked and reports the stack after each segment:
    channel b's state is that of the input bases[b][:, 0] = Q[:, b], each
    ancilla along the columns of frames[b] (``in_circuit_basis``).  Mapped
    back to the ancillas' and the subject's bases, the channels' states
    combine into input column c's as sum_b conj(Q[c, b]) state_b, the
    channels' inputs being an orthonormal basis."""
    cfg = SimulationConfig(t=t, eps=eps, path="lcu_taylor", truncation_order=order)
    h = enc.alpha * enc.block()
    spectrum = np.linalg.eigh((h + h.conj().T) / 2.0)
    calls = []
    out = simulation._lcu_taylor(
        enc.alpha, spectrum, cfg,
        on_segment=lambda bases, frames, psi: calls.append((bases, frames, psi.copy())))
    order, r, s = out.meta["order"], out.meta["segments"], enc.subject_dim
    ref, queries, ref_states = three_pass_taylor(enc, t, order, r)
    assert np.max(np.abs(out.block() - ref)) <= 1e-12
    assert out.meta["query_count"] == queries
    assert len(calls) == r and len(ref_states) == s * r
    live = order + 2
    rows = (0, order + 1) + tuple(range(order, 0, -1)) + (order + 2,)
    for j, (bases, frames, psi) in enumerate(calls):  # after segment j
        mapped = [(bases[b][:, 0],
                   in_circuit_basis(psi[:, b], frames[b], order) @ bases[b].T)
                  for b in range(s)]
        for c in range(s):
            got = sum(np.conj(inp[c]) * state for inp, state in mapped)
            want = ref_states[c * r + j]
            assert not want[live:].any()
            want = want[:live].transpose(rows).reshape(got.shape)
            assert np.max(np.abs(got - want)) <= 1e-12
    return out


def exact_dilation(h, alpha):
    """The dilation [[G, S], [S, -G]] of G = h / alpha with S = Q diag(sqrt(1
    - a^2)) Q^dag from h's ``eigh``, a = lambda / alpha: the circuit the
    metered path meters.  At a repeated eigenvalue at the scale,
    ``dilate``'s SVD gives another valid S, about 1e-8 away."""
    vals, q = np.linalg.eigh((h + h.conj().T) / 2.0)
    root = (q * np.sqrt(1.0 - np.clip(vals / alpha, -1.0, 1.0) ** 2)) @ q.conj().T
    g = h / alpha
    return BlockEncoding(alpha, 1, 0.0, len(h), unitary=np.block([[g, root], [root, -g]]))


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("t", [1.0, 4.0])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_lcu_taylor_matches_three_pass_circuit(n, t, eps):
    """The one-pass segment (A R A^dag as the reflection about A's
    zero-ancilla image) realizes the literal three-pass circuit."""
    rng = np.random.default_rng(n * 1000 + int(t) * 10 + int(-math.log10(eps)))
    assert_matches_three_pass(dilate(random_complex_hermitian(rng, n), 1.0), t, eps)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("t,eps,order", [(1.0, 1e-2, 4), (2.0, 1e-2, 5),
                                         (4.0, 1e-4, 7), (1.0, 1e-4, 9)])
def test_lcu_taylor_matches_three_pass_circuit_real_block(n, t, eps, order):
    """A real symmetric block, as every pipeline target is, at odd and even
    orders."""
    rng = np.random.default_rng(n * 1000 + order * 10 + int(t))
    enc = dilate(random_hermitian(rng, n), 1.0)
    assert not enc.unitary.imag.any()
    assert assert_matches_three_pass(enc, t, eps, order).meta["order"] == order


@pytest.mark.parametrize("n,t,order", [(4, 1.0, 10), (2, 2.0, 11)])
def test_lcu_taylor_matches_three_pass_circuit_at_high_order(n, t, order):
    """The metered workload runs at order 9-10: the one-pass segment still
    realizes the three-pass circuit there."""
    rng = np.random.default_rng(n * 1000 + int(t) * 10 + 9)
    enc = dilate(random_complex_hermitian(rng, n), 1.0)
    assert assert_matches_three_pass(enc, t, 1e-9).meta["order"] == order


@pytest.mark.parametrize("t,eps,order", [(0.1, 1e-2, 2), (1.0, 1e-4, 6)])
def test_lcu_taylor_matches_three_pass_circuit_with_no_idle_slot(t, eps, order):
    """At orders 2 and 6 the live rows 0 .. order + 1 fill the coefficient
    register (cdim = 4 and 8), so no slot is left idle."""
    enc = dilate(random_complex_hermitian(np.random.default_rng(order * 10), 4), 1.0)
    assert 1 << max(1, (order + 1).bit_length()) == order + 2
    assert assert_matches_three_pass(enc, t, eps, order).meta["order"] == order


@pytest.mark.parametrize("complex_block", [False, True])
def test_lcu_taylor_matches_three_pass_circuit_with_more_columns_than_rows(
        complex_block):
    """s = 8 subject columns over order + 2 = 6 live rows: the rank-s update,
    folded into P_L^dag cell by cell, is checked on full states where the
    compact rows of E would have outgrown the state."""
    rng = np.random.default_rng(8004 + complex_block)
    h = (random_complex_hermitian if complex_block else random_hermitian)(rng, 8)
    enc = dilate(h, 1.0)
    out = assert_matches_three_pass(enc, 1.0, 1e-2, 4)
    assert out.meta["order"] + 2 < enc.subject_dim


@pytest.mark.parametrize("complex_block", [False, True])
def test_lcu_taylor_matches_three_pass_circuit_at_the_scale(complex_block):
    """Eigenvalues at +-alpha, one of them repeated, where sqrt(I - G^2) is
    ill-conditioned, against the exact dilation from h's ``eigh``."""
    rng = np.random.default_rng(4004 + complex_block)
    m = rng.standard_normal((4, 4))
    if complex_block:
        m = m + 1j * rng.standard_normal((4, 4))
    q = np.linalg.qr(m)[0]
    h = (q * np.array([2.0, 2.0, -2.0, 0.7])) @ q.conj().T
    assert_matches_three_pass(exact_dilation(h, 2.0), 1.0, 1e-6)


def test_lcu_taylor_regular_graph_at_the_scale_splits():
    """The complete graph K_4's Laplacian 4 I - J, dilated at alpha = ||L||
    = 4, has its eigenvalue 4 three times at the scale, where sqrt(I - A^2)
    is ill-conditioned.  The channels come from the eigenvalues in closed
    form, so the run still splits, one ``on_segment`` call per segment, and
    meets eps, each eigenvalue within the measured error of
    e^(-i lambda t)."""
    lap = 4.0 * np.eye(4) - np.ones((4, 4))
    enc = dilate(lap, np.linalg.norm(lap, 2))
    assert enc.alpha == pytest.approx(4.0)
    eps = 1e-6
    cfg = SimulationConfig(t=1.0, eps=eps, path="lcu_taylor")
    h = enc.alpha * enc.block()
    vals, q = np.linalg.eigh((h + h.conj().T) / 2.0)
    calls = []
    out = simulation._lcu_taylor(enc.alpha, (vals, q), cfg,
                                 on_segment=lambda *args: calls.append(args))
    assert len(calls) == out.meta["segments"]
    assert np.linalg.norm(out.block() - sla.expm(-1j * lap), 2) <= eps
    measured = out.meta["measured_error"]
    assert measured <= eps
    assert np.max(np.abs(out.phases - np.exp(-1j * vals))) <= measured
    assert np.array_equal(out.basis, q)


@pytest.mark.parametrize("excess,refused", [(1e-9, True), (1e-12, False)])
def test_lcu_taylor_refuses_a_block_beyond_the_scale(excess, refused):
    """A block whose norm exceeds the scale by more than 1e-10, ``dilate``'s
    own threshold, has no dilation to meter and is refused; a smaller
    excess is round-off, clipped, and runs."""
    enc = BlockEncoding(1.0, 1, 0.0, 2, backend="composite",
                        _block=np.diag([0.5, -(1.0 + excess)]))
    cfg = SimulationConfig(t=1.0, eps=1e-4, path="lcu_taylor")
    if refused:
        with pytest.raises(SimulationError, match="exceeds the dilation scale"):
            simulate_hamiltonian(enc, cfg)
    else:
        assert simulate_hamiltonian(enc, cfg).meta["measured_error"] <= cfg.eps


@pytest.mark.parametrize("backend", ["purified", "composite"])
def test_lcu_taylor_meters_any_encoding_as_its_dilation(backend):
    """Whatever circuit encodes the block, the metered path meters its
    dilation: a purified or composite encoding gives, bit for bit, the
    evolution of ``dilate(alpha block, alpha)``.  Complex blocks at alpha = 1
    and 2 keep ``dilate``'s block bit-identical to the encoding's."""
    rng = np.random.default_rng(71)
    if backend == "purified":
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        enc = purified_density_encoding(v / np.linalg.norm(v), 4)
    else:
        enc = BlockEncoding(2.0, 1, 0.0, 4, backend="composite",
                            _block=random_complex_hermitian(rng, 4))
    assert enc.backend == backend
    cfg = SimulationConfig(t=3.0, eps=1e-6, path="lcu_taylor")
    out = simulate_hamiltonian(enc, cfg)
    ref = simulate_hamiltonian(dilate(enc.alpha * enc.block(), enc.alpha), cfg)
    assert out.basis.tobytes() == ref.basis.tobytes()
    assert out.phases.tobytes() == ref.phases.tobytes()
    assert out.meta == ref.meta


def test_lcu_taylor_peak_memory_on_the_benchmark_instance(monkeypatch):
    """The segment runs in place on one state buffer with two row slabs of
    scratch: on the metered-taylor benchmark's n=4 L job (seed 301; order
    10, s = 4) the traced peak of the simulation stays under 1.5 live-row
    states of the whole circuit, one ancilla qubit per query: the s
    channels' stacked state."""
    rng = np.random.default_rng([301, 0])
    x = rng.standard_normal((4, 2))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(0.35, 0.55, size=(4, 1))
    runs = []
    inner = simulation._lcu_taylor

    def traced(alpha, spectrum, cfg):
        tracemalloc.start()
        try:
            out = inner(alpha, spectrum, cfg)
            runs.append((out, len(spectrum[0]), tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(simulation, "_lcu_taylor", traced)
    full_pipeline(VertexSet.from_vectors(x), KernelParams(0.5, 6),
                  PipelineConfig(target="L", norm_case="general",
                                 sim_path="lcu_taylor", sim_eps=1e-6))
    (out, s, peak), = runs
    order = out.meta["order"]
    assert (order, s) == (10, 4)
    state_bytes = (order + 2) * 2 * 2 ** order * s * 16
    assert peak <= 1.5 * state_bytes


@pytest.mark.parametrize("complex_block", [False, True])
def test_lcu_taylor_segment_loop_allocates_no_slab(complex_block):
    """After the first segment nothing of a row slab or more is allocated:
    the traced peak between two ``on_segment`` calls stays below one slab
    over what was held at the first.  The s channels run stacked, so there
    is one call per segment."""
    rng = np.random.default_rng(61 + complex_block)
    h = (random_complex_hermitian if complex_block else random_hermitian)(rng, 4)
    enc = dilate(h, 1.0)
    cfg = SimulationConfig(t=6.0, eps=1e-9, path="lcu_taylor")
    held, extra = [], []

    def watch(bases, frames, psi):
        current, peak = tracemalloc.get_traced_memory()
        if held:
            extra.append(peak - held[-1])
        tracemalloc.reset_peak()
        held.append(current)

    tracemalloc.start()
    try:
        out = simulation._lcu_taylor(enc.alpha, np.linalg.eigh(h), cfg, on_segment=watch)
    finally:
        tracemalloc.stop()
    order, s = out.meta["order"], enc.subject_dim
    slab_bytes = 2 * 2 ** order * s * 16
    assert len(extra) == out.meta["segments"] - 1 > 0
    assert max(extra) < slab_bytes


def test_lcu_taylor_unreachable_order_names_sim_eps():
    """A budget no order up to MAX_TAYLOR_ORDER meets is an instance limit,
    like the desk-scale guard, not a failed verification."""
    enc = dilate(np.diag([0.5, -0.5]), 1.0)
    with pytest.raises(GraphError, match=r"sim_eps = 1e-300 .* MAX_TAYLOR_ORDER = 12"):
        simulate_hamiltonian(enc, SimulationConfig(t=1.0, eps=1e-300,
                                                   path="lcu_taylor"))


def test_lcu_taylor_amplitude_cap_names_the_cap():
    """An order whose live rows exceed LCU_MAX_AMPLITUDES is refused before
    any state is allocated, naming the cap: s = 32 at order 12 needs
    cdim 2^order 2 s = 16 * 4096 * 2 * 32 = 2^22 amplitudes."""
    enc = dilate(random_hermitian(np.random.default_rng(31), 32), 1.0)
    refusal = (f"order 12 needs {1 << 22} amplitudes, "
               f"beyond LCU_MAX_AMPLITUDES = {LCU_MAX_AMPLITUDES}")
    with pytest.raises(GraphError, match=refusal):
        simulate_hamiltonian(enc, SimulationConfig(t=2.0, eps=1e-10,
                                                   path="lcu_taylor"))


@pytest.mark.parametrize("t,eps", [(1.0, 1e-2), (4.0, 1e-4), (2.0, 1e-6)])
def test_lcu_taylor_explicit_order_shares_the_auto_budget(t, eps):
    """One tail budget for both paths: the auto-chosen order passes when
    given explicitly, and one order less does not."""
    enc = dilate(random_complex_hermitian(np.random.default_rng(5), 2), 1.0)
    auto = simulate_hamiltonian(enc, SimulationConfig(t=t, eps=eps, path="lcu_taylor"))
    order = auto.meta["order"]
    assert order >= 2
    same = simulate_hamiltonian(enc, SimulationConfig(
        t=t, eps=eps, path="lcu_taylor", truncation_order=order))
    assert np.array_equal(same.block(), auto.block())
    with pytest.raises(SimulationError, match="error budget"):
        simulate_hamiltonian(enc, SimulationConfig(
            t=t, eps=eps, path="lcu_taylor", truncation_order=order - 1))


def test_lcu_taylor_matches_oracle_path():
    rng = np.random.default_rng(7)
    vs = general_vs(rng, 4, 2, 0.3, 0.5)
    kp = KernelParams(0.5, 4)
    gm = build_graph(vs, kp, truncated=True)
    cal = gm.L / gm.trace_D
    enc = dilate(cal, 1.0)
    eps, t = 1e-4, 2.0
    a = simulate_hamiltonian(enc, SimulationConfig(t=t, eps=eps))
    b = simulate_hamiltonian(enc, SimulationConfig(t=t, eps=eps, path="lcu_taylor"))
    assert np.linalg.norm(a.block() - b.block(), 2) <= eps


def test_lcu_taylor_query_trend():
    """Queries monotone in alpha * t, sublinear in 1/eps."""
    rng = np.random.default_rng(8)
    h = random_hermitian(rng, 4)
    queries_t = []
    for t in (1.0, 2.0, 4.0):
        for alpha in (1.0, 3.0):
            enc = dilate(h, alpha)
            out = simulate_hamiltonian(
                enc, SimulationConfig(t=t, eps=1e-3, path="lcu_taylor"))
            queries_t.append((alpha * t, out.meta["query_count"]))
    queries_t.sort()
    xs = [q for _, q in queries_t]
    assert all(xs[i + 1] >= xs[i] for i in range(len(xs) - 1))
    # sublinear in 1/eps: 100x tighter budget costs far less than 100x queries
    enc = dilate(h, 1.0)
    q2 = simulate_hamiltonian(enc, SimulationConfig(
        t=2.0, eps=1e-2, path="lcu_taylor")).meta["query_count"]
    q4 = simulate_hamiltonian(enc, SimulationConfig(
        t=2.0, eps=1e-4, path="lcu_taylor")).meta["query_count"]
    assert q4 <= 3 * q2


def test_lcu_taylor_insufficient_order_rejected():
    enc = dilate(np.diag([0.5, -0.5]), 1.0)
    with pytest.raises(SimulationError):
        simulate_hamiltonian(enc, SimulationConfig(
            t=4.0, eps=1e-6, path="lcu_taylor", truncation_order=1))


def test_simulation_needs_hermitian_block():
    enc = BlockEncoding(1.0, 0, 0.0, 2, backend="composite",
                        _block=np.array([[0.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(SimulationError):
        simulate_hamiltonian(enc, SimulationConfig(t=1.0))


@pytest.mark.parametrize("path", ["oracle_exponential", "lcu_taylor"])
def test_simulation_decomposes_h_once(monkeypatch, path):
    """One ``eigh`` per simulation, of h = alpha block: the evolution's basis
    is its Q, and the oracle path's eigenvalues are e^(-i lambda t)."""
    h = random_hermitian(np.random.default_rng(16), 4)
    enc = dilate(h, 1.0)
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.copy())
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    out = simulate_hamiltonian(enc, SimulationConfig(t=2.0, eps=1e-6, path=path))
    monkeypatch.undo()
    assert len(calls) == 1
    vals, q = np.linalg.eigh(calls[0])
    assert np.max(np.abs(calls[0] - h)) <= 1e-12
    assert np.array_equal(out.basis, q)
    if path == "oracle_exponential":
        assert np.array_equal(out.phases, np.exp(-2j * vals))


# ---------------------------------------------------------------------------
# QPE

def test_qpe_exact_phases_recovered_with_certainty():
    t = 2.0
    gammas = np.array([0.0, 0.25, 0.5, 0.75]) * 2 * math.pi / t
    evo = diagonal_evolution(np.exp(-1j * gammas * t))
    s = run_qpe(evo, QpeConfig(phase_bits=2, shots=4096, seed=0, time_scale=t))
    assert set(s.counts) == {0, 1, 2, 3}
    assert np.allclose(s.probs, 0.25, atol=1e-12)  # probability 1 per mode


@pytest.mark.parametrize("claimed", [0.0, 1e-6, 1e-3])
def test_run_qpe_unitarity_bound_is_two_eps_plus_eps_squared(claimed):
    """Eigenvalues off the unit circle by up to 2 eps + eps^2 in |u|^2 are
    read, beyond it refused; a claimed error below 1e-12 reads as 1e-12."""
    eps = max(claimed, 1e-12)
    bound = 2.0 * eps + eps * eps
    phases = np.exp(-1j * np.array([0.0, 0.7, 1.9]))
    qcfg = QpeConfig(phase_bits=4, shots=64, seed=0)
    for factor, admitted in ((0.9, True), (-0.9, True), (1.1, False), (-1.1, False)):
        scaled = phases.copy()
        scaled[1] *= math.sqrt(1.0 + factor * bound)
        evo = Evolution(np.eye(3), scaled, claimed, {})
        if admitted:
            assert sum(run_qpe(evo, qcfg).counts.values()) == 64
        else:
            with pytest.raises(SimulationError, match="unitary"):
                run_qpe(evo, qcfg)


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan)])
def test_run_qpe_refuses_a_nan_eigenvalue(bad):
    """A NaN eigenvalue fails the unitarity check with SimulationError, as
    one off the unit circle does, rather than reaching the shot sampler as
    NaN probabilities."""
    phases = np.exp(-1j * np.array([0.0, 0.7, 1.9]))
    phases[1] = bad
    evo = Evolution(np.eye(3), phases, 1e-6, {})
    with pytest.raises(SimulationError, match="unitary"):
        run_qpe(evo, QpeConfig(phase_bits=4, shots=64, seed=0))


def test_qpe_wraparound_guard():
    with pytest.raises(SimulationError):
        run_qpe(diagonal_evolution(np.ones(2)), QpeConfig(2, 10, 0, time_scale=10.0),
                lambda_max_bound=1.0)


def test_qpe_two_vertex_graph_phase():
    """n = 2: the nonzero mode of L/Tr(L) sits at eigenvalue 1."""
    vs = VertexSet.from_vectors([[0.5, 0.1], [0.1, 0.45]])
    kp = KernelParams(0.5, 6)
    gm = build_graph(vs, kp, truncated=True)
    cal = gm.L / gm.trace_D
    t = 2.0
    s = run_qpe(evolution_of(cal, t),
                QpeConfig(phase_bits=9, shots=4096, seed=1, time_scale=t))
    res = extract_d_smallest(s, 1)
    assert res.eigenvalues[0] == pytest.approx(1.0, abs=2 ** -9 * 2 * math.pi / t)


def test_qpe_histogram_peaks_near_reference():
    rng = np.random.default_rng(9)
    vs = general_vs(rng, 4, 2, 0.35, 0.55)
    kp = KernelParams(0.5, 6)
    gm = build_graph(vs, kp, truncated=True)
    cal = gm.L / gm.trace_D
    ref = classical_eigensolve(cal, 3)
    t = 0.9 * 2 * math.pi / (2 * np.max(np.diag(gm.D)) / gm.trace_D)
    s = run_qpe(evolution_of(cal, t),
                QpeConfig(phase_bits=8, shots=4096, seed=2, time_scale=t))
    top = sorted(s.counts, key=s.counts.get, reverse=True)[:4]
    peak_phases = sorted(z / 256 for z in top if z > 2)
    expect = sorted(v * t / (2 * math.pi) for v in ref.eigenvalues)
    for ph, ex in zip(peak_phases, expect):
        assert abs(ph - ex) <= 2 ** -8


def test_zero_mode_weight_binomial():
    rng = np.random.default_rng(10)
    vs = general_vs(rng, 4, 2, 0.35, 0.55)
    kp = KernelParams(0.5, 6)
    gm = build_graph(vs, kp, truncated=True)
    cal = gm.L / gm.trace_D
    t = 2.0
    shots = 8192
    s = run_qpe(evolution_of(cal, t),
                QpeConfig(phase_bits=9, shots=shots, seed=3, time_scale=t))
    zero_hits = sum(c for z, c in s.counts.items()
                    if z / 512 <= 2 / 512 or z / 512 >= 1 - 2 / 512)
    q = 1.0 / 4
    sigma = math.sqrt(shots * q * (1 - q))
    assert abs(zero_hits - shots * q) <= 5 * sigma


def test_extraction_all_nonzero_modes():
    rng = np.random.default_rng(11)
    vs = general_vs(rng, 4, 2, 0.35, 0.55)
    kp = KernelParams(0.5, 6)
    gm = build_graph(vs, kp, truncated=True)
    cal = gm.L / gm.trace_D
    ref = classical_eigensolve(cal, 3)
    t = 2.5
    s = run_qpe(evolution_of(cal, t),
                QpeConfig(phase_bits=10, shots=8192, seed=4, time_scale=t))
    res = extract_d_smallest(s, 3)
    resol = 2 ** -10 * 2 * math.pi / t
    for got, want in zip(res.eigenvalues, ref.eigenvalues):
        assert abs(got - want) <= resol


def test_extraction_degenerate_pair_resolution_error():
    """Two eigenvalues inside one bin merge; asking for them separately
    raises."""
    t = 2.0
    gammas = np.array([0.0, 0.4, 0.4002, 1.1]) * 2 * math.pi / t / 4.0
    evo = diagonal_evolution(np.exp(-1j * gammas * t))
    s = run_qpe(evo, QpeConfig(phase_bits=6, shots=8192, seed=5, time_scale=t))
    with pytest.raises(ResolutionError):
        extract_d_smallest(s, 3)
    res = extract_d_smallest(s, 2)
    merged = [c for c in res.clusters if c.vectors.shape[1] > 1]
    assert merged and merged[0].vectors.shape == (4, 2)


def test_cluster_vectors_tie_lies_in_the_degenerate_eigenspace():
    """Two exactly degenerate eigenvalues tie in every bin's weights.  Cut to
    one vector, the cluster returns the later of the tied columns of Q,
    which lies in their eigenspace."""
    t = 2.0
    gammas = np.array([0.0, 0.3, 0.3, 0.7]) * 2 * math.pi / t
    basis, _ = np.linalg.qr(np.random.default_rng(15).standard_normal((4, 4)))
    evo = Evolution(basis, np.exp(-1j * gammas * t), 0.0, {})
    s = run_qpe(evo, QpeConfig(phase_bits=6, shots=8192, seed=5, time_scale=t))
    cluster, = extract_d_smallest(s, 1).clusters
    assert cluster.vectors.shape == (4, 2)
    vector = spectral._cluster_vectors(s, cluster.bins, 1)
    assert np.array_equal(vector, basis[:, 2:3])
    inside = basis[:, 1:3].T @ vector
    assert abs(np.linalg.norm(inside) - 1.0) <= 1e-12


def test_run_qpe_holds_no_matrix_beyond_the_basis():
    """Phase estimation reads the evolution's eigenvalues: at n = 256 and 10
    bits its traced peak (the running products of the eigenvalues, the
    moments and the shots) stays below one n x n matrix, the evolution's
    basis Q being held already."""
    n, bits = 256, 10
    rng = np.random.default_rng(12)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    evo = Evolution(basis, np.exp(-1j * rng.uniform(0.0, 2.0 * math.pi, n)), 0.0, {})
    tracemalloc.start()
    try:
        s = run_qpe(evo, QpeConfig(phase_bits=bits, shots=8192, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s.counts) > 100
    assert peak < n * n * 16


def choice_counts(probs, shots, rng):
    """The shot counts of ``Generator.choice``, ordered by outcome."""
    vals, counts = np.unique(rng.choice(len(probs), size=shots, p=probs),
                             return_counts=True)
    return {int(z): int(c) for z, c in zip(vals, counts)}


class FixedUniforms(np.random.Generator):
    """A generator whose ``random`` returns the given uniforms, so
    ``choice`` and the counting step can be fed the same crafted draws."""

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.uniforms = np.array(uniforms, dtype=float)

    def random(self, size=None, dtype=np.float64, out=None):
        assert size in (len(self.uniforms), (len(self.uniforms),))
        return self.uniforms.copy()


@pytest.mark.parametrize("shots", [1, 2, 97, 8192])
@pytest.mark.parametrize("weights", [
    [0, 0, 3, 1, 0, 2, 0, 0],        # zero bins at the start, inside, the end
    [0, 0, 0, 5, 0, 0, 0, 0],        # all mass in one inner bin
    [7, 0, 0, 0],                    # all mass in the first bin
    [0, 0, 0, 1],                    # all mass in the last bin
    [1] * 16,
    [1e-300, 1, 1e-17, 0, 2, 1e-300],  # bins below the CDF's resolution
], ids=["zeros-around", "one-inner", "one-first", "one-last", "uniform", "tiny"])
def test_shot_counts_equal_generator_choice(weights, shots):
    probs = np.array(weights, dtype=float)
    probs /= probs.sum()
    for seed in range(5):
        got = spectral._shot_counts(probs, shots, np.random.default_rng(seed))
        want = choice_counts(probs, shots, np.random.default_rng(seed))
        assert list(got.items()) == list(want.items())
        assert all(type(z) is int and type(c) is int for z, c in got.items())


def test_shot_counts_equal_generator_choice_on_ties():
    """A uniform exactly equal to a CDF entry falls in the next bin, as
    ``choice`` puts it, including 0.0 against a run of empty leading bins."""
    probs = np.array([0.0, 0.25, 0.25, 0.0, 0.5])  # CDF 0, .25, .5, .5, 1
    uniforms = [0.0, 0.25, 0.5, 0.5, 0.0, 0.75, 0.2, 0.999, 0.25, 0.5 - 2**-53]
    got = spectral._shot_counts(probs, len(uniforms), FixedUniforms(uniforms))
    want = choice_counts(probs, len(uniforms), FixedUniforms(uniforms))
    assert list(got.items()) == list(want.items())
    assert got == {1: 3, 2: 3, 4: 4}


def test_extraction_ignores_post_state_scale():
    """Post-states are unnormalized: scaling each bin's per-eigenvalue
    post-state by its own positive factor changes no eigenvalue or vector,
    in a single and in a merged (two-vector) cluster."""
    t = 2.0
    gammas = np.array([0.0, 0.4, 0.4002, 1.1]) * 2 * math.pi / t / 4.0
    basis, _ = np.linalg.qr(np.random.default_rng(13).standard_normal((4, 4)))
    evo = Evolution(basis, np.exp(-1j * gammas * t), 0.0, {})
    s = run_qpe(evo, QpeConfig(phase_bits=6, shots=8192, seed=5, time_scale=t))
    factors = dict(zip(s.counts, np.random.default_rng(14).uniform(
        1e-3, 1e3, len(s.counts))))
    inner = spectral._bin_filter

    def with_posts(scale):
        def scaled(eigs, z, bits):
            g = inner(eigs, z, bits)
            return scale(z) * g / np.linalg.norm(g)

        with mock.patch.object(spectral, "_bin_filter", scaled):
            return extract_d_smallest(s, 2)

    want = with_posts(lambda z: 1.0)
    got = with_posts(factors.get)
    assert [c.vectors.shape[1] for c in want.clusters] == [2, 1]
    assert got.eigenvalues == want.eigenvalues
    for g, w in zip(got.clusters, want.clusters):
        assert np.allclose(g.vectors, w.vectors, rtol=0.0, atol=1e-12)


def test_extraction_insufficient_counts():
    t = 1.0
    s = run_qpe(diagonal_evolution(np.ones(2)),
                QpeConfig(phase_bits=4, shots=64, seed=6, time_scale=t))
    with pytest.raises(ResolutionError):
        extract_d_smallest(s, 1)  # only the zero bin is populated


# ---------------------------------------------------------------------------
# L_r recovery

def test_recover_Lr_regular_graph_unchanged():
    pts = np.array([[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]])
    vs = VertexSet.from_vectors(pts)
    kp = KernelParams(0.5, 6)
    cfg = PipelineConfig(target="Ls", d=2, qpe_bits=9, qpe_shots=4096, seed=7)
    result, report = full_pipeline(vs, kp, cfg)
    gm = build_graph(vs, kp, truncated=True)
    rho2 = np.eye(4) / 4
    recovered, residuals = recover_Lr_eigenvectors(result, rho2, gm.L / gm.trace_D)
    for cl, rec in zip(result.clusters, recovered):
        overlap = abs(np.vdot(rec[:, 0], cl.vectors[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-9)


def test_recover_Lr_two_vertex_closed_form():
    vs = VertexSet.from_vectors([[0.6, 0.0], [0.0, 0.8]])
    kp = KernelParams(0.5, 8)
    gm = build_graph(vs, kp, truncated=True)
    cfg = PipelineConfig(target="Lr", d=1, qpe_bits=9, qpe_shots=4096, seed=8)
    result, report = full_pipeline(vs, kp, cfg)
    # D^(-1/2)(1,-1) normalized, sign free
    d = np.diag(gm.D)
    expect = np.array([1.0, -1.0]) / np.sqrt(d)
    expect /= np.linalg.norm(expect)
    got = result.clusters[0].vectors[:, 0].real
    assert min(np.linalg.norm(got - expect), np.linalg.norm(got + expect)) < 1e-5
    assert max(report["Lr_residuals"]) <= 1e-6


def test_recover_Lr_singular_rho2_rejected():
    from qlapeig.graph import GraphError
    from qlapeig.spectral import SpectralCluster, SpectralResult
    res = SpectralResult([SpectralCluster(1.0, 0.1, 0.5,
                                          np.eye(2)[:, :1].astype(complex), [3])], 1)
    with pytest.raises(GraphError):
        recover_Lr_eigenvectors(res, np.diag([1.0, 0.0]), np.eye(2))


# ---------------------------------------------------------------------------
# full pipeline

@pytest.mark.parametrize("target", ["L", "Ls", "Lr"])
def test_laplacian_targets_at_n32(target):
    """n = 32 general-norm vertices, the benchmark's settings: the degree
    pipeline's 4 n^3 split branches fit the desk-scale budget, and the
    extracted eigenvalue is within one phase bin with fidelity >= 0.99."""
    vs = general_vs(np.random.default_rng([301, 0]), 32, 2, 0.35, 0.55)
    cfg = PipelineConfig(target=target, d=1, qpe_bits=10, qpe_shots=8192, seed=7)
    result, report = full_pipeline(vs, KernelParams(0.5, 6), cfg)
    bin_width = 2.0 * math.pi * 2.0 ** -10 / report["simulation"]["t"]
    assert all(v["pass"] for v in report["encoding_verifications"])
    assert abs(result.eigenvalues[0] - result.reference_eigenvalues[0]) <= bin_width
    assert result.fidelities[0] >= 0.99


def test_full_pipeline_two_vertex_smoke():
    vs = VertexSet.from_vectors([[0.5, 0.1], [0.1, 0.45]])
    kp = KernelParams(0.5, 6)
    cfg = PipelineConfig(target="L", d=1, qpe_bits=8, qpe_shots=2048, seed=9)
    result, report = full_pipeline(vs, kp, cfg)
    assert all(r["pass"] for r in report["encoding_verifications"])
    assert len(result.eigenvalues) == 1
    # the unique nonzero eigenvalue of a 2-vertex normalized Laplacian is 1
    resol = 2 ** -8 * 2 * math.pi / report["simulation"]["t"]
    assert abs(result.eigenvalues[0] - 1.0) <= resol


def test_full_pipeline_unit_norm_W_target():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 2))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    vs = VertexSet.from_vectors(x)
    kp = KernelParams(0.5, 4)
    cfg = PipelineConfig(target="W", d=4, qpe_bits=10, qpe_shots=8192, seed=13)
    result, report = full_pipeline(vs, kp, cfg)
    gm = build_graph(vs, kp, truncated=True)
    ref = np.linalg.eigvalsh(gm.W_p / 4)
    resol = 2 ** -10 * 2 * math.pi / report["simulation"]["t"]
    for v in result.eigenvalues:
        assert min(abs(v - r) for r in ref) <= resol


def test_full_pipeline_report_shape():
    vs = VertexSet.from_vectors([[0.5, 0.1], [0.1, 0.45]])
    kp = KernelParams(0.5, 4)
    cfg = PipelineConfig(target="L", d=1, qpe_bits=6, qpe_shots=512, seed=10)
    result, report = full_pipeline(vs, kp, cfg)
    for key in ("target", "n", "m", "lambda", "p", "eigenvalues",
                "reference_eigenvalues", "fidelities",
                "encoding_verifications", "simulation", "qpe"):
        assert key in report
    assert report["simulation"]["path"] == "oracle_exponential"
    assert set(report["qpe"]) == {"bits", "shots", "histogram"}


def test_full_pipeline_metered_path():
    """The CLI-reachable lcu_taylor path meters the dilation of the verified
    encoding's block, and stays within its error budget."""
    vs = VertexSet.from_vectors([[0.5, 0.1], [0.1, 0.45]])
    kp = KernelParams(0.5, 6)
    cfg = PipelineConfig(target="L", d=1, qpe_bits=8, qpe_shots=2048, seed=9,
                         sim_path="lcu_taylor", sim_eps=1e-5)
    result, report = full_pipeline(vs, kp, cfg)
    assert report["simulation"]["path"] == "lcu_taylor"
    assert report["simulation"]["query_count"] > 0
    resol = 2 ** -8 * 2 * math.pi / report["simulation"]["t"]
    assert abs(result.eigenvalues[0] - 1.0) <= resol + 1e-5
    assert "graph_matrices" in report


def test_pipeline_stage_tags_on_failure():
    vs = VertexSet.from_vectors([[0.5, 0.1], [0.1, 0.45]])
    kp = KernelParams(0.5, 4)
    # requesting more eigenpairs than a 2-vertex graph has fails in extraction
    cfg = PipelineConfig(target="L", d=3, qpe_bits=6, qpe_shots=512, seed=1)
    with pytest.raises(ResolutionError, match=r"\[stage:extraction\]"):
        full_pipeline(vs, kp, cfg)


def test_full_pipeline_general_norm_W_target():
    """General norms route the weight target through the amplified pipeline;
    at converged truncation the diagonal gap sits below the phase bin."""
    rng = np.random.default_rng(14)
    vs = general_vs(rng, 4, 2, 0.5, 0.9)
    kp = KernelParams(0.5, 6)
    cfg = PipelineConfig(target="W", d=4, qpe_bits=10, qpe_shots=8192, seed=15)
    result, report = full_pipeline(vs, kp, cfg)
    names = [r["name"] for r in report["encoding_verifications"]]
    assert "W_vs_truncated_exact" in names
    assert all(r["pass"] for r in report["encoding_verifications"])
    gm = build_graph(vs, kp, truncated=True)
    ref = np.linalg.eigvalsh(gm.W_p / 4)
    resol = 2 ** -10 * 2 * math.pi / report["simulation"]["t"]
    assert max(min(abs(v - r) for r in ref) for v in result.eigenvalues) <= resol
