"""Differential property tests of the simulation and spectral stages
against slow references.

- SELECT of the metered ``lcu_taylor`` path's whole-subject runs:
  ``_taylor_select`` (real GEMMs with fused rung pairs between two
  preallocated row slabs, in place over the live rows with the ancillas
  reversed) against the per-(row, rung) complex ``moveaxis`` round trip on
  the full register in circuit order, within round-off, for real and
  complex U.
- The channel split of the metered path: ``_lcu_taylor`` on the dilation of
  a random real or complex Hermitian block, s in {2, 4, 8}, its spectrum
  generic, degenerate, or with an eigenvalue at the scale, one channel per
  eigenvector, against the same circuit over the whole subject (the split
  refused): the evolution within 1e-12 and the same query count.  The
  split's channels, stacked, against the same kernel run on one channel at
  a time (``taylor_reference``), for generic and degenerate spectra, the
  split run never reaching ``_taylor_select``.
- The reflection basis of a split run's rungs: ``_reflection_basis``'s
  closed-form V against the definition, V unitary and V diag(1, -1) V^dag
  equal to the rung within ``ROUND_OFF``, for a in {+-1, +-(1 - 1e-15)} or
  uniform and b real or complex; a stack with one rung bent off a
  reflection, or rungs wider than 2 x 2, is refused.
- Phase estimation on an evolution Q diag(u) Q^dag, the oracle path's for a
  random complex Hermitian h, its spectrum generic or degenerate:
  ``run_qpe`` (Born probabilities from the trace moments
  Tr(U^d) = sum_mu conj(u_mu)^d) against ``sequential_qpe``, the circuit
  that builds U^y one power at a time on the whole register, up to n = 8,
  and against ``qpe_reference.row_block_probs``, the register run one block
  of system rows at a time, up to n = 64, within 1e-12; an evolution that
  is not unitary within its claimed error is refused.  A bin's post-state
  Q diag(g_z) Q^dag / (2^bits sqrt n) from the per-eigenvalue filter g_z,
  and ``qpe_reference.post_state``'s product over the dense squarings,
  against ``sequential_qpe``'s register, for unitary and contracting
  evolutions alike.
- Extraction: ``extract_d_smallest`` (columns of Q by the mixture's weights
  in the eigenbasis) against ``extract_reference``, which forms every kept
  bin's m m^dag from ``qpe_reference.post_state`` and decomposes every
  cluster's mixture: the same clusters, and each cluster's projector within
  1e-10.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from qlapeig import simulation, spectral
from qlapeig.blockenc import BlockEncoding, dilate
from qlapeig.simulation import (LCU_MAX_AMPLITUDES, MAX_TAYLOR_ORDER, Evolution,
                                SimulationConfig, SimulationError, _select_factors,
                                _taylor_select, simulate_hamiltonian)
from qlapeig.spectral import QpeConfig, ResolutionError, extract_d_smallest, run_qpe
from qpe_reference import post_state, row_block_probs
from taylor_reference import channel_by_channel

# no shrink phase: a failing draw is four small integers that already name a
# reproducible instance, and shrinking would rerun order-12 states for minutes
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate))


def state_shape(a_dim, s, order):
    """The full register in circuit order: coefficient row, ancilla 1 ..
    order, flag, subject."""
    cdim = 1 << max(1, (order + 1).bit_length())
    return (cdim,) + (a_dim,) * order + (2, s)


def live_layout(psi, order):
    """``_taylor_select``'s layout of a circuit-order state: rows 0 .. order
    + 1, each with axes flag, ancilla order .. 1, subject."""
    return psi[: order + 2].transpose(
        (0, order + 1) + tuple(range(order, 0, -1)) + (order + 2,))


def select_reference(psi, u_mat, order):
    """Rung j applies U_j to (ancilla j, subject) of every row k >= j, each
    row moved to the front and back on its own."""
    def apply_on(x, axes):
        moved = np.moveaxis(x, axes, range(len(axes)))
        flat = u_mat @ moved.reshape(u_mat.shape[0], -1)
        return np.moveaxis(flat.reshape(moved.shape), range(len(axes)), axes)

    for j in range(1, order + 1):
        for k in range(j, order + 1):
            psi[k] = apply_on(psi[k], [j - 1, psi.ndim - 2])
    psi[order + 1] = np.flip(psi[order + 1], axis=-2)
    return psi


@st.composite
def instances(draw):
    """(a_dim, s, order, real U?, seed), with order up to the lcu size
    guard."""
    a_dim = draw(st.sampled_from([2, 4]))
    s = draw(st.sampled_from([1, 2, 4]))
    top = max(o for o in range(1, MAX_TAYLOR_ORDER + 1)
              if np.prod(state_shape(a_dim, s, o)) <= LCU_MAX_AMPLITUDES)
    return (a_dim, s, draw(st.integers(1, top)), draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


@PROPERTY
@given(instances())
def test_taylor_select_matches_per_row_moveaxis(instance):
    a_dim, s, order, real, seed = instance
    rng = np.random.default_rng(seed)
    dim = a_dim * s
    m = rng.standard_normal((dim, dim))
    if not real:
        m = m + 1j * rng.standard_normal((dim, dim))
    u_mat = np.linalg.qr(m)[0].astype(complex)
    factors = _select_factors(u_mat, s)
    assert (factors[0][1] is None) == real and (factors[1][1] is None) == real
    shape = state_shape(a_dim, s, order)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = live_layout(select_reference(psi.copy(), u_mat, order), order)
    got = np.ascontiguousarray(live_layout(psi, order))
    slabs = np.empty((2 if real else 3, got[0].size), dtype=complex)
    assert _taylor_select(got, factors, order, slabs) is got
    assert got.shape == want.shape
    # the fused pairs and real GEMMs round differently from one complex
    # GEMM per rung
    assert np.max(np.abs(got - want)) <= 1e-12


@st.composite
def split_instances(draw):
    """(s, complex, spectrum, t, eps, seed): a spectrum is "generic" (s
    values in (-0.95, 0.95)), "degenerate" (s values drawn from two) or
    "scale" (generic with one value at +-1, or two when s > 2)."""
    return (draw(st.sampled_from([2, 4, 8])), draw(st.booleans()),
            draw(st.sampled_from(["generic", "degenerate", "scale"])),
            draw(st.floats(0.5, 3.0)), draw(st.sampled_from([1e-2, 1e-4, 1e-6])),
            draw(st.integers(0, 2**32 - 1)))


def split_dilation(rng, s, complex_block, spectrum):
    """The dilation of a random real or complex Hermitian block whose
    spectrum is of the given kind (``split_instances``), and its ``eigh``."""
    m = rng.standard_normal((s, s))
    if complex_block:
        m = m + 1j * rng.standard_normal((s, s))
    q = np.linalg.qr(m)[0]
    vals = rng.uniform(-0.95, 0.95, s)
    if spectrum == "degenerate":
        vals = rng.choice(vals[:2], s)
    elif spectrum == "scale":
        vals[: 1 + (s > 2)] = 1.0 if rng.random() < 0.5 else -1.0
    enc = dilate((q * vals) @ q.conj().T, 1.0)
    h = enc.block()
    return enc, np.linalg.eigh((h + h.conj().T) / 2.0)


@PROPERTY
@given(split_instances())
def test_lcu_taylor_channels_match_the_whole_subject(instance):
    s, complex_block, spectrum, t, eps, seed = instance
    enc, eig = split_dilation(np.random.default_rng(seed), s, complex_block, spectrum)
    cfg = SimulationConfig(t=t, eps=eps, path="lcu_taylor")
    out = simulation._lcu_taylor(enc, eig, cfg)
    with mock.patch.object(simulation, "_CHANNEL_FLOOR", -1.0):
        whole = simulation._lcu_taylor(enc, eig, cfg)
    assert whole.meta["channels"] == 1
    assert out.meta["channels"] == s or spectrum == "scale"
    assert np.max(np.abs(out.phases - whole.phases)) <= 1e-12
    assert np.max(np.abs(out.block() - whole.block())) <= 1e-12
    assert out.meta["query_count"] == whole.meta["query_count"]


@PROPERTY
@given(split_instances().filter(lambda inst: inst[2] != "scale"))
def test_lcu_taylor_stack_matches_one_channel_at_a_time(instance):
    """The s channels of a split run, stacked, against the same kernel run
    on each channel alone (``taylor_reference``): the evolution within
    1e-12 and the same query count.  A split run's SELECT is the sign table:
    it never reaches ``_taylor_select``."""
    s, complex_block, spectrum, t, eps, seed = instance
    enc, eig = split_dilation(np.random.default_rng(seed), s, complex_block, spectrum)
    cfg = SimulationConfig(t=t, eps=eps, path="lcu_taylor")
    with mock.patch.object(simulation, "_taylor_select", side_effect=AssertionError):
        out = simulation._lcu_taylor(enc, eig, cfg)
    with mock.patch.object(simulation, "_taylor_channels", channel_by_channel):
        ref = simulation._lcu_taylor(enc, eig, cfg)
    assert out.meta["channels"] == ref.meta["channels"] == s
    assert np.max(np.abs(out.phases - ref.phases)) <= 1e-12
    assert out.meta["query_count"] == ref.meta["query_count"]


# a few ulps: V and its product take a handful of roundings each
ROUND_OFF = 2e-15


@st.composite
def reflection_rungs(draw):
    """A rung [[a, b], [conj b, -a]], |b| = sqrt(1 - a^2): a from +-1 and
    +-(1 - 1e-15), where a formula that divides by 1 - |a| fails, or
    uniform in [-1, 1]; b real, of either sign, or complex."""
    a = draw(st.one_of(st.sampled_from([1.0, -1.0, 1.0 - 1e-15, -(1.0 - 1e-15)]),
                       st.floats(-1.0, 1.0)))
    if draw(st.booleans()):
        phase = complex(np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi))))
    else:
        phase = draw(st.sampled_from([1.0, -1.0]))
    b = math.sqrt((1.0 - a) * (1.0 + a)) * phase
    return np.array([[a, b], [np.conj(b), -a]], dtype=complex)


@PROPERTY
@given(st.lists(reflection_rungs(), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
@example([np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)], 0)
def test_reflection_basis_of_the_rungs(rungs, seed):
    rungs = np.stack(rungs)
    frames = simulation._reflection_basis(rungs)
    assert frames.shape == rungs.shape
    for v, u in zip(frames, rungs):
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) <= ROUND_OFF
        assert np.max(np.abs((v * [1.0, -1.0]) @ v.conj().T - u)) <= ROUND_OFF
    # one entry of one rung moved 100 times the floor: not a reflection,
    # and the whole stack runs unsplit
    rng = np.random.default_rng(seed)
    bent = rungs.copy()
    bent[rng.integers(len(bent)), rng.integers(2), rng.integers(2)] += (
        100.0 * simulation._CHANNEL_FLOOR * np.exp(2j * math.pi * rng.random()))
    assert simulation._reflection_basis(bent) is None
    wide = np.kron(rungs, np.eye(2))  # a reflection, but of a 4-dimensional ancilla
    assert simulation._reflection_basis(wide) is None


def sequential_qpe(evolution, qcfg):
    """Phase estimation on the purified maximally-mixed input, with the
    controlled powers U^y built one at a time on the whole register and the
    transform out of place: (probs, counts, register), the register's slot z
    being outcome z's unnormalized post-measurement state."""
    u = evolution.block().conj().T
    n = u.shape[0]
    pdim = 1 << qcfg.phase_bits
    psi = np.zeros((pdim, n, n), dtype=complex)
    base = np.eye(n) / math.sqrt(n)
    power = np.eye(n, dtype=complex)
    for y in range(pdim):
        psi[y] = power @ base / math.sqrt(pdim)
        power = u @ power
    psi = np.fft.fft(psi, axis=0)
    psi /= math.sqrt(pdim)
    probs = np.einsum("zij,zij->z", psi, psi.conj()).real
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    rng = np.random.default_rng(qcfg.seed)
    draws = rng.choice(pdim, size=qcfg.shots, p=probs)
    vals, counts = np.unique(draws, return_counts=True)
    return probs, {int(z): int(c) for z, c in zip(vals, counts)}, psi


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian_evolution(rng, n, degenerate):
    """The oracle path's evolution e^(-iht) at t = 1 of a random complex
    Hermitian h, its eigenvalues drawn from (-3, 3), or from two of them."""
    vals = rng.uniform(-3.0, 3.0, n)
    if degenerate:
        vals = rng.choice(vals[:2], n)
    q = haar_unitary(rng, n)
    h = (q * vals) @ q.conj().T
    enc = BlockEncoding(1.0, 0, 0.0, n, backend="composite", _block=h)
    return simulate_hamiltonian(enc, SimulationConfig(t=1.0))


@st.composite
def qpe_instances(draw):
    """(n, phase_bits, degenerate, unitary, seed): phase_bits = 1 is the
    register of two slots."""
    return (draw(st.sampled_from([1, 2, 3, 4, 8])), draw(st.integers(1, 10)),
            draw(st.booleans()), draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


def qpe_instance(instance):
    """A unitary evolution, or the same basis with its eigenvalues scaled by
    sigma in [1/2, 1], a contraction far from unitary for its claimed error
    of 0."""
    n, bits, degenerate, unitary, seed = instance
    rng = np.random.default_rng(seed)
    evo = hermitian_evolution(rng, n, degenerate)
    if not unitary:
        evo = Evolution(evo.basis, evo.phases * rng.uniform(0.5, 1.0, n), 0.0, {})
    return evo, QpeConfig(phase_bits=bits, shots=512, seed=seed, time_scale=1.0)


@PROPERTY
@given(qpe_instances())
def test_run_qpe_matches_sequential_powers(instance):
    """Probabilities and counts.  A contraction is refused: the
    trace-moment identity needs |u_mu| = 1 within the claimed error."""
    evo, qcfg = qpe_instance(instance)
    if not instance[3]:
        with pytest.raises(SimulationError, match="unitary"):
            run_qpe(evo, qcfg)
        return
    got = run_qpe(evo, qcfg)
    probs, counts, _ = sequential_qpe(evo, qcfg)
    assert np.max(np.abs(got.probs - probs)) <= 1e-12
    assert got.counts == counts


@PROPERTY
@given(qpe_instances())
def test_post_state_product_matches_transformed_slot_on_every_bin(instance):
    """Q diag(g_z(v)) Q^dag / (2^bits sqrt n), v the eigenvalues of the
    adjoint, and prod_k (I + (w^z U)^(2^k)) over the dense squarings are
    the register's Fourier-transformed slot z on every bin, sampled or not,
    up to n = 8 and 10 bits, for a unitary evolution or a contraction."""
    evo, qcfg = qpe_instance(instance)
    bits = qcfg.phase_bits
    _, _, register = sequential_qpe(evo, qcfg)
    scale = (1 << bits) * math.sqrt(evo.basis.shape[0])
    filtered = np.stack([
        (evo.basis * spectral._bin_filter(evo.phases.conj(), z, bits))
        @ evo.basis.conj().T / scale for z in range(len(register))])
    assert np.max(np.abs(filtered - register)) <= 1e-12
    product = np.stack([post_state(evo, z, bits) for z in range(len(register))])
    assert np.max(np.abs(product - register)) <= 1e-12


@PROPERTY
@given(st.integers(1, 64), st.integers(1, 10), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(64, 10, False, 0)
@example(64, 9, True, 1)
def test_run_qpe_matches_the_row_block_register(n, bits, degenerate, seed):
    """The trace-moment marginal against the register's own Born weights,
    run one block of system rows at a time."""
    evo = hermitian_evolution(np.random.default_rng(seed), n, degenerate)
    got = run_qpe(evo, QpeConfig(phase_bits=bits, shots=64, seed=seed))
    assert np.max(np.abs(got.probs - row_block_probs(evo, bits))) <= 1e-12


def extract_reference(samples, evolution, d, signed):
    """Every cluster's phase and vectors, each kept bin's m m^dag formed on
    its own from the product-formula post-state and the top eigenvectors of
    their count-weighted sum taken; then the d smallest, as (eigenvalue,
    phase, weight, vectors, bins)."""
    pdim = 1 << samples.phase_bits
    n = len(samples.phases)
    zero_threshold = 1.5 / pdim
    min_count = max(3, int(0.05 * samples.shots / n))
    wrap = 0.5 if signed else 1.0 - max(3.0 / pdim, 2.0 * zero_threshold)
    items = sorted(((z / pdim if z / pdim <= wrap else z / pdim - 1.0), z, c)
                   for z, c in samples.counts.items() if c >= min_count)
    groups = [[items[0]]]
    for entry in items[1:]:
        if entry[0] - groups[-1][-1][0] <= 1.8 / pdim:
            groups[-1].append(entry)
        else:
            groups.append([entry])
    out = []
    for group in groups:
        weight = sum(c for _, _, c in group)
        phase = sum(th * c for th, _, c in group) / weight
        frac = weight / samples.shots
        mult = max(1, int(round(frac * n)))
        rhos = []
        for _, z, c in group:
            m = post_state(evolution, z, samples.phase_bits)
            m /= np.linalg.norm(m)
            rhos.append((c / weight, m @ m.conj().T))
        vectors = np.linalg.eigh(sum(w * r for w, r in rhos))[1][:, -mult:]
        out.append((2.0 * math.pi * phase / samples.time_scale, phase, frac, vectors,
                    [z for _, z, _ in group]))
    if not signed:
        out = [c for c in out if abs(c[1]) > zero_threshold]
    out.sort(key=lambda c: c[0])
    return out[:d] if len(out) >= d else None


@st.composite
def extraction_instances(draw):
    """(n, phase_bits, eigenvalue pattern, d, signed, seed): the patterns put
    two eigenvalues in one bin (a subspace cluster) or a bin apart (a
    cluster of several bins with one vector)."""
    return (draw(st.sampled_from([2, 4, 8])), draw(st.integers(5, 9)),
            draw(st.sampled_from(["spread", "degenerate", "adjacent"])),
            draw(st.integers(1, 3)), draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


@PROPERTY
@given(extraction_instances())
def test_extraction_matches_per_bin_reference(instance):
    """Each cluster's vectors span the top eigenvectors of its bins'
    count-weighted mixture, whatever its multiplicity: the projectors agree
    within 1e-10."""
    n, bits, pattern, d, signed, seed = instance
    rng = np.random.default_rng(seed)
    t = 2.0
    gammas = np.sort(rng.uniform(-0.4 if signed else 0.0, 1.0, n)) * math.pi / t
    if pattern == "degenerate" and n > 2:
        gammas[2] = gammas[1]
    if pattern == "adjacent" and n > 2:
        gammas[2] = gammas[1] + 1.3 * 2 * math.pi / t / (1 << bits)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    evo = Evolution(q, np.exp(-1j * gammas * t), 0.0, {})
    samples = run_qpe(evo, QpeConfig(phase_bits=bits, shots=4096, seed=seed,
                                     time_scale=t))
    want = extract_reference(samples, evo, d, signed)
    if want is None:
        with pytest.raises(ResolutionError):
            extract_d_smallest(samples, d, signed)
        return
    got = extract_d_smallest(samples, d, signed)
    assert len(got.clusters) == len(want)
    for c, (gamma, phase, frac, vectors, bins) in zip(got.clusters, want):
        assert (c.eigenvalue, c.phase, c.weight, c.bins) == (gamma, phase, frac, bins)
        assert c.vectors.shape == vectors.shape
        got_p = c.vectors @ c.vectors.conj().T
        assert np.max(np.abs(got_p - vectors @ vectors.conj().T)) <= 1e-10
