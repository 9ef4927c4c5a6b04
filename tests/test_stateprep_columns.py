"""The state-preparation pipelines against per-key references.

Each label map and label-controlled rotation of the general-norm and degree
pipelines is written here one key at a time, as the simulator once called
them, and run through ``label_columns``.  The pipelines, which map whole key
columns and compute each fixed-point value once per distinct input, must
give the same bytes: purifications, fixed-point values, degree estimates,
the trace estimate and the reduced states, and the same amplification
records, since both call ``amplitude_amplification`` the same way.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from label_columns import per_key, per_labels

import qlapeig.stateprep as stateprep
from qlapeig.arith import (ArithmeticError_, exp_neg_lambda_label,
                           multiply_labels, rotation_matrix)
from qlapeig.blockenc import fixed_point_gram
from qlapeig.graph import GraphError, KernelParams, VertexSet
from qlapeig.sim import (FixedPointSpec, Register, RegisterLayout, SimError,
                         SimState, partial_trace)
from qlapeig.stateprep import (EstimatorConfig, PrepConfig, QramOracle,
                               amplitude_amplification, apply_R_U,
                               build_degree_state, build_psi_state,
                               coefficient_unitary, hadamard_all)

ROOT = Path(__file__).resolve().parent.parent
BUDGET = 1 << 16  # amplitudes of a general-norm build drawn by the property


def clear_per_key(state, regs, controls):
    slots = [state.layout.arith_slot[r] for r in regs]

    def clear(dense, labels):
        out = list(labels)
        for s in slots:
            out[s] = 0
        return out

    state.apply_label_map(per_key(clear), dense_controls=controls)


def reference_psi(vs, kp, prep):
    """``build_psi_state`` with its label maps written per key."""
    oracle = QramOracle(vs)
    p, n, m = kp.p, vs.n, vs.m
    log_n, log_m = n.bit_length() - 1, m.bit_length() - 1
    cwidth = stateprep._coeff_width(p)
    cdim = 1 << cwidth
    max_norm = float(np.max(vs.norms))
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
    state.apply_dense(hadamard_all(log_n), ["idx"])
    state.apply_dense(coefficient_unitary(kp.coeffs_a, cdim, prep.coeff_eps,
                                          stateprep._stable_rng(prep.seed, 0xB)),
                      ["coeff"])
    norm_label = {i: oracle.norm_label(i, spec) for i in range(n)}
    pw_slot, sq_slot, ex_slot = (layout.arith_slot[r] for r in ("pw", "sq", "ex"))
    one = spec.encode(1.0)

    def powers(dense, labels):
        i, k = dense
        out = list(labels)
        if out[pw_slot] or out[sq_slot]:
            raise ArithmeticError_("arithmetic registers not zeroed")
        lab = one
        for _ in range(min(k, p)):
            lab = multiply_labels(lab, norm_label[i], spec, spec, spec)
        out[pw_slot] = lab
        out[sq_slot] = multiply_labels(norm_label[i], norm_label[i], spec, spec, spec)
        return out

    state.apply_label_map(per_key(powers), dense_controls=("idx", "coeff"))

    def kernel(dense, labels):
        out = list(labels)
        out[ex_slot] = exp_neg_lambda_label(out[sq_slot], spec, spec,
                                            kp.lam, prep.exp_order)
        out[sq_slot] = 0
        return out

    state.apply_label_map(per_key(kernel), dense_controls=("idx",))
    fx_values = np.zeros((n, p + 1))

    def combine(dense, labels):
        i, k = dense
        out = list(labels)
        v = multiply_labels(out[ex_slot], out[pw_slot], spec, spec, spec)
        if k <= p:
            fx_values[i, k] = spec.decode(v)
        out[ex_slot] = v
        out[pw_slot] = 0
        return out

    state.apply_label_map(per_key(combine), dense_controls=("idx", "coeff"))
    scale = float(max(math.exp(-kp.lam * vs.norms[i] ** 2) * vs.norms[i] ** k
                      for i in range(n) for k in range(p + 1)))
    slack = (p + 4) * (1 << spec.int_bits) * spec.resolution / scale

    def rot(labels):
        ratio = spec.decode(labels[ex_slot]) / scale
        if ratio > 1.0 + slack:
            raise ArithmeticError_("rotation scale C was miscomputed")
        return rotation_matrix(min(ratio, 1.0))

    state.apply_branch_dense(per_labels(rot), ["rot"])
    clear_per_key(state, ["ex"], ("idx", "coeff"))
    rot_axis = layout.dense_axis["rot"]
    state, stats = amplitude_amplification(state, lambda idx, lab: idx[rot_axis] == 0)
    apply_R_U(state, "idx", "coeff", data, oracle)
    rho1 = partial_trace(state, ["idx"]).validate()
    purification = stateprep._dense_over(state, ["idx", "coeff", "rot"] + data)
    return {"purification": purification, "rho": rho1.matrix, "fx_values": fx_values,
            "stats": stats}


def reference_degree(vs, kp, est, prep):
    """``build_degree_state`` with its label maps written per key."""
    n = vs.n
    log_n = n.bit_length() - 1
    diffs = vs.vertices[:, None, :] - vs.vertices[None, :, :]
    dist_need = float(np.max(np.sum(diffs * diffs, axis=2)))
    int_bits = max(1, int(math.floor(math.log2(max(dist_need, 1.0)))) + 2)
    spec_d = FixedPointSpec(prep.bits, int_bits)
    spec_u = FixedPointSpec(prep.bits, 1)
    layout = RegisterLayout([
        Register("flag", 1, "flag"), Register("i", log_n, "index"),
        Register("j", log_n, "index"),
        Register("dist", spec_d.bits, "arithmetic", spec_d),
        Register("wv", spec_u.bits, "arithmetic", spec_u),
        Register("rot", 1, "flag"),
        Register("ip", spec_u.bits, "arithmetic", spec_u),
        Register("copy", log_n, "index"),
    ])
    state = SimState(layout)
    x = vs.vertices
    h = hadamard_all(log_n)
    state.apply_dense(h, ["i"])
    state.apply_dense(h, ["j"])
    d_slot, w_slot, ip_slot = (layout.arith_slot[r] for r in ("dist", "wv", "ip"))

    def distance(dense, labels):
        i, j = dense
        out = list(labels)
        true = float(np.sum((x[i] - x[j]) ** 2))
        out[d_slot] = spec_d.encode(est.perturb(true, (1, i, j)))
        return out

    state.apply_label_map(per_key(distance), dense_controls=("i", "j"))
    w_fx = {}

    def kernel(dense, labels):
        i, j = dense
        out = list(labels)
        lab = exp_neg_lambda_label(out[d_slot], spec_d, spec_u, kp.lam, prep.exp_order)
        w_fx[(i, j)] = spec_u.decode(lab)
        out[w_slot] = lab
        out[d_slot] = 0
        return out

    state.apply_label_map(per_key(kernel), dense_controls=("i", "j"))
    i_ax, j_ax = layout.dense_axis["i"], layout.dense_axis["j"]
    state, _ = amplitude_amplification(state, lambda idx, lab: idx[i_ax] != idx[j_ax])
    state.apply_dense(hadamard_all(1), ["flag"])

    def rw(labels):
        r = rotation_matrix(min(spec_u.decode(labels[w_slot]), 1.0))
        u = np.eye(4, dtype=complex)
        u[:2, :2] = r
        return u

    state.apply_branch_dense(per_labels(rw), ["flag", "rot"])
    clear_per_key(state, ["wv"], ("i", "j"))
    ip_true = {i: sum(w_fx.get((i, j), 0.0) for j in range(n) if j != i) / (n - 1)
               for i in range(n)}

    def inner(dense, labels):
        (i,) = dense
        out = list(labels)
        out[ip_slot] = spec_u.encode(min(ip_true[i], 1.0))
        return out

    state.apply_label_map(per_key(inner), dense_controls=("i",))
    copy_ax = layout.dense_axis["copy"]
    half = n >> 1

    def rp(labels):
        v = min(spec_u.decode(labels[ip_slot]), 1.0)
        r = rotation_matrix(math.sqrt(v))
        u = np.eye(n, dtype=complex)
        u[0, 0], u[0, half], u[half, 0], u[half, half] = (
            r[0, 0], r[0, 1], r[1, 0], r[1, 1])
        return u

    state.apply_branch_dense(per_labels(rp), ["copy"])
    clear_per_key(state, ["ip"], ("i",))
    stateprep._disentangle(state, "i", ["flag", "j", "rot"])
    state, stats9 = amplitude_amplification(state, lambda idx, lab: idx[copy_ax] < half)
    p0 = stats9.initial_amplitude
    eye = np.eye(n, dtype=complex)
    for i in range(n):
        state.apply_dense(eye[[c ^ i for c in range(n)]], ["copy"], controls={"i": i})
    rho2 = partial_trace(state, ["i"]).validate()
    w_mat = np.zeros((n, n))
    for (i, j), w in w_fx.items():
        if i != j:
            w_mat[i, j] = w
    r_min = float(min(w for (i, j), w in w_fx.items() if i != j))
    return {"purification": stateprep._dense_over(state, ["i", "copy"]),
            "rho": rho2.matrix, "degree_estimates": w_mat.sum(axis=1),
            "trace_estimate": float(n * (n - 1) * p0),
            "stats": (p0, stats9.iterations, stats9.residual, r_min)}


def reference_gram(vs, kp, fx):
    """``fixed_point_gram`` as one generator sum per entry."""
    n = vs.n
    gram = np.zeros((n, n))
    enc = np.array([vs.vertices[i] / vs.norms[i] for i in range(n)])
    ip = enc @ enc.T
    for i in range(n):
        for j in range(n):
            gram[i, j] = sum(kp.coeffs_a[k] * fx[i, k] * fx[j, k] * ip[i, j] ** k
                             for k in range(kp.p + 1))
    return gram


def outcome(build, *args):
    """What ``build(*args)`` returns, or the simulator error it raises."""
    try:
        return build(*args)
    except (GraphError, SimError) as exc:
        return exc


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def amplitudes(n, m, p):
    cdim = 1 << stateprep._coeff_width(p)
    return n * cdim * 2 * m ** p


@st.composite
def instances(draw):
    n = draw(st.sampled_from([2, 4, 8, 16]))
    p = draw(st.integers(1, 6))
    m = draw(st.sampled_from([m for m in (2, 4, 8, 16)
                              if m == 2 or amplitudes(n, m, p) <= BUDGET]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, m))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    lo, hi = draw(st.sampled_from([(1.0, 1.0), (0.35, 0.55), (0.2, 1.6)]))
    x *= rng.uniform(lo, hi, size=(n, 1))
    kp = KernelParams(draw(st.sampled_from([0.25, 0.5, 1.0])), p)
    prep = PrepConfig(bits=draw(st.sampled_from([24, 44])),
                      exp_order=draw(st.sampled_from([12, 24])))
    mode = draw(st.sampled_from(["exact", "noisy"]))
    est = EstimatorConfig(mode=mode, eps_d=draw(st.sampled_from([1e-6, 1e-3])),
                          delta1=draw(st.sampled_from([0.05, 0.3])),
                          seed=draw(st.integers(0, 1000)))
    return VertexSet.from_vectors(x), kp, prep, est


@settings(derandomize=True, deadline=None, max_examples=80)
@given(instances())
def test_pipelines_match_the_per_key_references(instance):
    """n in {2, 4, 8, 16}, p in 1..6, m in {2, 4, 8, 16} (above 2 only where
    the general-norm state fits ``BUDGET``), unit and general norms, exact
    and noisy estimators with delta1 > 0: every output byte for byte."""
    vs, kp, prep, est = instance
    want = outcome(reference_psi, vs, kp, prep)
    got = outcome(build_psi_state, vs, kp, prep)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert_same_bytes(got.purification, want["purification"])
        assert_same_bytes(partial_trace(got.state, ["idx"]).validate().matrix,
                          want["rho"])
        assert_same_bytes(got.fx_values, want["fx_values"])
        assert got.stats == want["stats"]
        assert_same_bytes(fixed_point_gram(vs, kp, got.fx_values),
                          reference_gram(vs, kp, got.fx_values))
    want = outcome(reference_degree, vs, kp, est, prep)
    got = outcome(build_degree_state, vs, kp, est, prep)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert_same_bytes(got.purification, want["purification"])
    assert_same_bytes(partial_trace(got.state, ["i"]).validate().matrix, want["rho"])
    assert_same_bytes(got.degree_estimates, want["degree_estimates"])
    assert got.trace_estimate == want["trace_estimate"]
    assert (got.stats.initial_amplitude, got.stats.iterations, got.stats.residual,
            got.stats.r) == want["stats"]


@pytest.mark.parametrize("n, m", [(2, 2), (8, 3), (32, 2), (32, 5)])
def test_fixed_point_gram_matches_the_generator_loop(n, m):
    """Random vertices and fixed-point values at p = 6: the array form adds
    the same terms in the same order, so every entry has the same bits."""
    rng = np.random.default_rng([n, m])
    vs = VertexSet.from_vectors(rng.standard_normal((n, m)))
    kp = KernelParams(0.5, 6)
    fx = rng.uniform(0.0, 2.0, size=(n, kp.p + 1))
    assert_same_bytes(fixed_point_gram(vs, kp, fx), reference_gram(vs, kp, fx))


@pytest.mark.parametrize("pipeline", ["psi", "degree"])
def test_each_gate_calls_its_function_once(pipeline, monkeypatch):
    """Every label map and label-controlled rotation of a pipeline calls its
    function once, and within one call the kernel gate sees each input
    label once."""
    calls, exp_inputs = [], []
    label_map, branch_dense = SimState.apply_label_map, SimState.apply_branch_dense
    exp = stateprep.exp_neg_lambda_label

    def counted(kind, fn):
        calls.append([kind, 0])

        def wrapper(*args):
            calls[-1][1] += 1
            exp_inputs.append([])
            return fn(*args)
        return wrapper

    def traced_exp(x, *args):
        exp_inputs[-1].append(x)
        return exp(x, *args)

    monkeypatch.setattr(SimState, "apply_label_map", lambda self, fn, dense_controls=():
                        label_map(self, counted("map", fn), dense_controls))
    monkeypatch.setattr(SimState, "apply_branch_dense", lambda self, fn, targets:
                        branch_dense(self, counted("rotation", fn), targets))
    monkeypatch.setattr(stateprep, "exp_neg_lambda_label", traced_exp)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 2)) * rng.uniform(0.35, 0.55, size=(8, 1))
    vs, kp = VertexSet.from_vectors(x), KernelParams(0.5, 4)
    if pipeline == "psi":
        build_psi_state(vs, kp)
        kinds = ["map"] * 3 + ["rotation", "map"]
    else:
        build_degree_state(vs, kp)
        kinds = ["map", "map", "rotation", "map", "map", "rotation", "map"]
    assert [kind for kind, _ in calls] == kinds
    assert all(count == 1 for _, count in calls)
    kernel_inputs = [seen for seen in exp_inputs if seen]
    assert len(kernel_inputs) == 1
    assert len(set(kernel_inputs[0])) == len(kernel_inputs[0]) > 1


def test_cold_run_leaves_numpy_ma_unimported(tmp_path):
    """An n = 16 general-norm ``L`` run in a fresh interpreter never imports
    ``numpy.ma`` (a bare ``np.unique`` would, at a cost of about 15 ms)."""
    rng = np.random.default_rng([301, 0])
    x = rng.standard_normal((16, 2))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(0.35, 0.55, size=(16, 1))
    vertices = tmp_path / "vertices.csv"
    vertices.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in x))
    config = tmp_path / "run.cfg"
    config.write_text(f"input = {vertices}\ntarget = L\nlambda = 0.5\np = 6\nd = 1\n"
                      f"norm_case = general\nqpe_bits = 10\nqpe_shots = 8192\n"
                      f"output = {tmp_path / 'report.json'}\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ("import sys\nfrom qlapeig.cli import main\n"
              f"code = main(['run', '--config', {str(config)!r}])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]
