"""Differential test of the split-register representation on the three
state-preparation pipelines.  With ``apply_label_map`` patched to join every
split register as soon as it is made, each branch carries the full dense
array: the reference path.  Both forms must give the same purifications,
reduced states and amplification statistics."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from qlapeig.graph import KernelParams, VertexSet
from qlapeig.sim import SimState, partial_trace
from qlapeig.stateprep import (EstimatorConfig, build_degree_state,
                               build_phi_state, build_psi_state)

TOL = 1e-12


def vertices(n, norm_case, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    if norm_case == "general":
        x *= rng.uniform(0.35, 0.55, size=(n, 1))
    return VertexSet.from_vectors(x)


@pytest.fixture
def build(monkeypatch):
    """``build(fn, join)`` calls ``fn()``, joining every split right after
    it is made when ``join`` is set; returns the result and the most
    amplitudes the branches held after any label map."""
    split_path = SimState.apply_label_map

    def run(fn, join):
        most = [0]

        def label_map(self, relabel, dense_controls=()):
            split_path(self, relabel, dense_controls)
            if join:
                self.join()
            most[0] = max(most[0], sum(v.size for v in self.branches.values()))

        with monkeypatch.context() as patch:
            patch.setattr(SimState, "apply_label_map", label_map)
            return fn(), most[0]
    return run


def assert_compact(got, compact, full, distinct_labels):
    """While labels are live the split branches hold no more amplitudes than
    the final joined state; one full array per label holds more once the
    labels differ."""
    (final,) = got.state.branches.values()
    assert compact <= final.size <= full
    assert (final.size < full) == distinct_labels


def assert_builds_agree(got, want, system):
    assert got.state.split == want.state.split == ()
    assert np.allclose(got.purification, want.purification, rtol=0, atol=TOL)
    assert np.allclose(partial_trace(got.state, [system]).matrix,
                       partial_trace(want.state, [system]).matrix, rtol=0, atol=TOL)
    if hasattr(want, "stats"):
        for field, value in dataclasses.asdict(want.stats).items():
            mine = getattr(got.stats, field)
            if value is None:
                assert mine is None
            else:
                assert mine == pytest.approx(value, abs=TOL), field


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("norm_case", ["unit", "general"])
def test_weight_pipelines_match_the_full_array_path(n, norm_case, build):
    vs = vertices(n, norm_case, seed=10 * n + len(norm_case))
    kp = KernelParams(0.5, 3)
    want, full = build(lambda: build_psi_state(vs, kp), join=True)
    got, compact = build(lambda: build_psi_state(vs, kp), join=False)
    # unit norms give every vertex the same norm label
    assert_compact(got, compact, full, distinct_labels=norm_case == "general")
    assert_builds_agree(got, want, "idx")
    assert np.array_equal(got.fx_values, want.fx_values)
    if norm_case == "unit":  # no label maps: both paths are one path
        want, _ = build(lambda: build_phi_state(vs, kp), join=True)
        got, _ = build(lambda: build_phi_state(vs, kp), join=False)
        assert_builds_agree(got, want, "idx")


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("norm_case", ["unit", "general"])
@pytest.mark.parametrize("mode", ["exact", "noisy"])
def test_degree_pipeline_matches_the_full_array_path(n, norm_case, mode, build):
    vs = vertices(n, norm_case, seed=10 * n + len(norm_case) + 1)
    kp = KernelParams(0.5, 2)
    est = EstimatorConfig(mode=mode, eps_d=1e-3, seed=17)
    want, full = build(lambda: build_degree_state(vs, kp, est), join=True)
    got, compact = build(lambda: build_degree_state(vs, kp, est), join=False)
    assert_compact(got, compact, full, distinct_labels=True)
    assert_builds_agree(got, want, "i")
    assert np.allclose(got.degree_estimates, want.degree_estimates, rtol=0, atol=TOL)
    assert got.trace_estimate == pytest.approx(want.trace_estimate, abs=TOL)


def test_amplification_allocates_less_than_a_quarter_state(monkeypatch):
    """The n=32 degree pipeline hands amplitude amplification its split
    state of n^2 rows (step 4) and its joined state (step 9).  Each call may
    allocate at most a quarter of the state's bytes on top of the state, so
    a copy of the start state does not fit."""
    import qlapeig.stateprep as stateprep

    amplify = stateprep.amplitude_amplification
    seen = []

    def measured(state, predicate):
        rows = len(state.branches)
        size = sum(v.nbytes for v in state.branches.values())
        tracemalloc.start()
        try:
            out = amplify(state, predicate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seen.append((rows, size, peak))
        return out

    monkeypatch.setattr(stateprep, "amplitude_amplification", measured)
    build_degree_state(vertices(32, "general", seed=33), KernelParams(0.5, 2))
    assert [rows for rows, _, _ in seen] == [32 * 32, 1]
    for _, size, peak in seen:
        assert size + peak <= 1.25 * size
