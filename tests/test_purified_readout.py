"""The reduced states of the three state-preparation builds are read out
through their purified encodings.

Differential test: the purified encoding's block, computed from the build's
unit-norm purification, must equal the simulator's partial trace of the
build's final state over the system register, which is the reference.  And
a build must refuse a purification that is not normalized.
"""

import numpy as np
import pytest

import qlapeig.stateprep as stateprep
from qlapeig.blockenc import purified_density_encoding
from qlapeig.graph import KernelParams, VertexSet
from qlapeig.sim import SimError, partial_trace
from qlapeig.stateprep import (EstimatorConfig, QramOracle, build_degree_state,
                               build_phi_state, build_psi_state)

TOL = 1e-15


def vertices(n, norm_case, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    if norm_case == "general":
        x *= rng.uniform(0.35, 1.3, size=(n, 1))
    return VertexSet.from_vectors(x)


def assert_readouts_agree(build, system):
    block = purified_density_encoding(build.purification, build.system_dim).block()
    reference = partial_trace(build.state, [system]).validate().matrix
    assert np.max(np.abs(block - reference)) <= TOL


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("norm_case", ["unit", "general"])
@pytest.mark.parametrize("eps_x", [0.0, 1e-3], ids=["exact-oracle", "perturbed-oracle"])
def test_weight_builds_read_out_the_partial_trace(n, norm_case, eps_x):
    vs = vertices(n, norm_case, seed=n + len(norm_case))
    kp = KernelParams(0.5, 3)
    oracle = QramOracle(vs, eps_x=eps_x, seed=n)
    assert_readouts_agree(build_psi_state(vs, kp, oracle=oracle), "idx")
    if norm_case == "unit":
        assert_readouts_agree(build_phi_state(vs, kp, oracle=oracle), "idx")


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("norm_case", ["unit", "general"])
@pytest.mark.parametrize("mode", ["exact", "noisy"])
def test_degree_build_reads_out_the_partial_trace(n, norm_case, mode):
    vs = vertices(n, norm_case, seed=n + len(norm_case) + 1)
    est = EstimatorConfig(mode=mode, eps_d=1e-3, delta1=0.3, seed=n)
    assert_readouts_agree(build_degree_state(vs, KernelParams(0.5, 4), est), "i")


@pytest.mark.parametrize("build", [build_phi_state, build_psi_state,
                                   build_degree_state],
                         ids=["phi", "psi", "degree"])
def test_a_build_refuses_an_unnormalized_purification(build, monkeypatch):
    """Scaling the final state by 1 + 1e-8 moves the reduced state's trace
    by 2e-8, past the 1e-10 the read-out allows."""
    read_out = stateprep._dense_over

    def scaled(state, regs):
        state.amps *= 1.0 + 1e-8
        return read_out(state, regs)

    monkeypatch.setattr(stateprep, "_dense_over", scaled)
    with pytest.raises(SimError, match="not normalized"):
        build(vertices(4, "unit", seed=3), KernelParams(0.5, 2))
