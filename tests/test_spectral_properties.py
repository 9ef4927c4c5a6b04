"""Differential property tests of the simulation and spectral stages
against slow references.

- The channels of the metered ``lcu_taylor`` path, for a random real or
  complex Hermitian block, s in {2, 4, 8}, its spectrum generic,
  degenerate, or with an eigenvalue at the scale: the channel-independent
  kernel against the segments run on every channel's state
  (``taylor_reference``), the evolution within 1e-12 and the same query
  count, and against exp(-i h t) within eps.
- The same kernel against the same reference at orders 1 .. 12, s in
  1 .. 8 and 1 .. 8 segments, rungs at +-1, +-(1 - 1e-15) or uniform, each
  segment's series tail at most 1e-9: the channel values within 1e-13 of
  the reference's and of the unit circle.
- The half-angle frame of each channel's rung: V unitary and
  V diag(1, -1) V^T equal to the rung [[a, b], [b, -a]], b = sqrt(1 - a^2),
  within ``ROUND_OFF``, for a in {+-1, +-(1 - 1e-15)} or uniform.
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
from scipy.linalg import expm

from qlapeig import simulation, spectral
from qlapeig.blockenc import BlockEncoding
from qlapeig.simulation import (Evolution, SimulationConfig, SimulationError,
                                simulate_hamiltonian)
from qlapeig.spectral import QpeConfig, ResolutionError, extract_d_smallest, run_qpe
from qpe_reference import post_state, row_block_probs
from taylor_reference import stacked_segments

# no shrink phase: a failing draw is four small integers that already name a
# reproducible instance, and shrinking would rerun order-12 states for minutes
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate))


@st.composite
def split_instances(draw):
    """(s, complex, spectrum, t, eps, seed): a spectrum is "generic" (s
    values in (-0.95, 0.95)), "degenerate" (s values drawn from two) or
    "scale" (generic with one value at +-1, or two when s > 2)."""
    return (draw(st.sampled_from([2, 4, 8])), draw(st.booleans()),
            draw(st.sampled_from(["generic", "degenerate", "scale"])),
            draw(st.floats(0.5, 3.0)), draw(st.sampled_from([1e-2, 1e-4, 1e-6])),
            draw(st.integers(0, 2**32 - 1)))


def split_block(rng, s, complex_block, spectrum):
    """A random real or complex Hermitian block whose spectrum is of the
    given kind (``split_instances``), and its ``eigh``."""
    m = rng.standard_normal((s, s))
    if complex_block:
        m = m + 1j * rng.standard_normal((s, s))
    q = np.linalg.qr(m)[0]
    vals = rng.uniform(-0.95, 0.95, s)
    if spectrum == "degenerate":
        vals = rng.choice(vals[:2], s)
    elif spectrum == "scale":
        vals[: 1 + (s > 2)] = 1.0 if rng.random() < 0.5 else -1.0
    h = (q * vals) @ q.conj().T
    return h, np.linalg.eigh((h + h.conj().T) / 2.0)


@PROPERTY
@given(split_instances())
def test_lcu_taylor_matches_the_stacked_segments(instance):
    """The channel-independent kernel of a run against the segments run on
    every channel's live-row state (``taylor_reference``): the evolution
    within 1e-12 and the same query count; and the evolution within eps of
    exp(-i h t)."""
    s, complex_block, spectrum, t, eps, seed = instance
    h, eig = split_block(np.random.default_rng(seed), s, complex_block, spectrum)
    cfg = SimulationConfig(t=t, eps=eps, path="lcu_taylor")
    out = simulation._lcu_taylor(1.0, eig, cfg)
    with mock.patch.object(simulation, "_taylor_channels", stacked_segments):
        ref = simulation._lcu_taylor(1.0, eig, cfg)
    assert np.max(np.abs(out.phases - ref.phases)) <= 1e-12
    assert out.meta["query_count"] == ref.meta["query_count"]
    assert np.linalg.norm(out.block() - expm(-1j * t * h), 2) <= eps


# a segment's series tail at which the amplified segment is unitary far
# below round-off: its distance from the circle is about 1.5 tail^2
TIGHT_TAIL = 1e-9
RUNGS = st.one_of(st.sampled_from([1.0, -1.0, 1.0 - 1e-15, -(1.0 - 1e-15)]),
                  st.floats(-1.0, 1.0))


def tight_step(order):
    """The largest x = alpha tau <= ln 2 whose order-``order`` series tail
    is at most TIGHT_TAIL, by bisection."""
    lo, hi = 0.0, math.log(2.0)
    if simulation._series_tail(hi, order) <= TIGHT_TAIL:
        return hi
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if simulation._series_tail(mid, order) <= TIGHT_TAIL:
            lo = mid
        else:
            hi = mid
    return lo


@PROPERTY
@given(st.integers(1, 12), st.lists(RUNGS, min_size=1, max_size=8),
       st.integers(1, 8), st.floats(0.01, 1.0))
@example(12, [1.0, -1.0, 1.0 - 1e-15, -(1.0 - 1e-15), 0.3, -0.7, 0.0, 0.9], 8, 1.0)
def test_taylor_channels_hold_round_off_against_the_stacked_segments(order, a, r,
                                                                     fraction):
    """The kernel on s = 1 .. 8 rungs, at an order of 1 .. 12 over 1 .. 8
    segments of x = ``fraction`` * ``tight_step(order)``, against the
    segments run on every channel's state: the channel values within 1e-13
    of the reference's, and max ||u| - 1| <= 1e-13.  On 300 such draws the
    reference's own values sat up to 7.7e-14 off the circle and the
    kernel's up to 7.3e-15."""
    a = np.array(a)
    maps = simulation._segment_maps(fraction * tight_step(order), order)
    frames = simulation._half_angle_frames(a)
    got = simulation._taylor_channels(a, frames, r, maps, None)
    want = stacked_segments(a, frames, r, maps, None)
    assert np.max(np.abs(got - want)) <= 1e-13
    assert np.max(np.abs(np.abs(got) - 1.0)) <= 1e-13


# a few ulps: V and its product take a handful of roundings each
ROUND_OFF = 2e-15


@PROPERTY
@given(st.lists(st.one_of(st.sampled_from([1.0, -1.0, 1.0 - 1e-15, -(1.0 - 1e-15)]),
                          st.floats(-1.0, 1.0)), min_size=1, max_size=4))
@example([-1.0])
def test_reflection_basis_of_the_rungs(a):
    """The frames a run hands ``on_segment``, for channels a from +-1 and
    +-(1 - 1e-15), where a formula that divides by 1 - |a| fails, or uniform
    in [-1, 1]: each the definition's V for its rung."""
    a = np.array(a)
    seen = []
    simulation._lcu_taylor(1.0, (a, np.eye(len(a))),
                           SimulationConfig(t=0.1, eps=1e-2, path="lcu_taylor"),
                           on_segment=lambda bases, frames, psi: seen.append(frames))
    frames = seen[0]
    assert frames.shape == (len(a), 2, 2)
    for v, a_mu in zip(frames, a):
        b = math.sqrt((1.0 - a_mu) * (1.0 + a_mu))
        assert np.max(np.abs(v.T @ v - np.eye(2))) <= ROUND_OFF
        rung = np.array([[a_mu, b], [b, -a_mu]])
        assert np.max(np.abs((v * [1.0, -1.0]) @ v.T - rung)) <= ROUND_OFF


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
