"""Fixed-point gate tests: exhaustive enumeration against integer oracles,
reversibility, and the kernel-gate error bound.  The gates are exercised as
the pipelines apply them: label functions inside the functions
``apply_label_map`` calls, and ``rotation_matrix`` through
``apply_branch_dense``, each written per key through ``label_columns``."""

import math

import numpy as np
import pytest
from label_columns import per_key, per_labels

from qlapeig.arith import (ArithmeticError_, exp_neg_lambda_bound,
                           exp_neg_lambda_label, multiply_labels,
                           rotation_matrix)
from qlapeig.sim import (FixedPointSpec, Register, RegisterLayout, SimState,
                         round_int_div)


def arith_layout(bits, names=("a", "b", "out")):
    spec = FixedPointSpec(bits, 1)
    return RegisterLayout([Register(n, bits, "arithmetic", spec) for n in names])


def seed_labels(layout, labels):
    st = SimState(layout)
    st.apply_label_map(per_key(lambda d, lab: labels))
    return st


def test_round_int_div_half_even():
    assert round_int_div(5, 2) == 2    # 2.5 -> 2
    assert round_int_div(7, 2) == 4    # 3.5 -> 4
    assert round_int_div(6, 4) == 2    # 1.5 -> 2
    assert round_int_div(10, 4) == 2   # 2.5 -> 2
    assert round_int_div(14, 4) == 4   # 3.5 -> 4


def test_multiply_zero_and_identity():
    spec = FixedPointSpec(6, 1)
    assert multiply_labels(0, 13, spec, spec, spec) == 0
    one = spec.encode(1.0)
    assert multiply_labels(one, 13, spec, spec, spec) == 13


def test_multiply_exhaustive_oracle():
    bits = 6
    spec = FixedPointSpec(bits, 1)
    frac = spec.frac_bits
    for a in range(64):
        for b in range(64):
            expect = round_int_div(a * b, 1 << frac)  # round(a*b*2^f)/2^f
            if expect > spec.max_label:
                with pytest.raises(ArithmeticError_):
                    multiply_labels(a, b, spec, spec, spec)
                continue
            assert multiply_labels(a, b, spec, spec, spec) == expect, (a, b)


def test_multiply_overflow():
    spec = FixedPointSpec(4, 1)
    big = spec.max_label
    with pytest.raises(ArithmeticError_):
        multiply_labels(big, big, spec, spec, spec)


def test_gate_reversibility_exhaustive():
    """Gate followed by its label-inverse restores inputs bit-exactly."""
    bits = 6
    spec = FixedPointSpec(bits, 1)
    layout = arith_layout(bits)

    def mul(dense, labels):  # |a>|b>|0> -> |a>|b>|round(a*b)>
        a, b, _ = labels
        return [a, b, multiply_labels(a, b, spec, spec, spec)]

    def unmul(dense, labels):
        out = list(labels)
        assert out[2] == multiply_labels(out[0], out[1], spec, spec, spec)
        out[2] = 0
        return out

    for a in range(0, 64, 3):
        for b in range(0, 64, 5):
            if round_int_div(a * b, 1 << spec.frac_bits) > spec.max_label:
                continue
            st = seed_labels(layout, [a, b, 0])
            st.apply_label_map(per_key(mul))
            (_, _, prod), = st.branches
            assert prod == multiply_labels(a, b, spec, spec, spec)
            st.apply_label_map(per_key(unmul))
            assert next(iter(st.branches)) == (a, b, 0)


def test_exp_gate_trivial_values():
    bits = 16
    spec = FixedPointSpec(bits, 1)
    assert spec.decode(exp_neg_lambda_label(0, spec, spec, 1.0, 8)) == 1.0
    for x in (0, 100, 5000):
        assert spec.decode(exp_neg_lambda_label(x, spec, spec, 0.5, 0)) == 1.0


def test_exp_gate_scalar_example():
    # lam=1, x=1, order 8, 20 bits: |out - 1/e| <= 1/9! + 8 * 2^-19
    bits = 20
    spec = FixedPointSpec(bits, 1)
    x = spec.encode(1.0)
    out = spec.decode(exp_neg_lambda_label(x, spec, spec, 1.0, 8))
    bound = 1.0 / math.factorial(9) + 8 * 2.0 ** (-19)
    assert abs(out - math.exp(-1.0)) <= bound
    assert abs(out - math.exp(-1.0)) <= exp_neg_lambda_bound(1.0, 1.0, 8, bits)


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
def test_exp_gate_bound_exhaustive_b12(lam):
    bits, order = 12, 8
    spec = FixedPointSpec(bits, 1)
    for label in range(1 << bits):
        x = spec.decode(label)
        out = spec.decode(exp_neg_lambda_label(label, spec, spec, lam, order))
        assert abs(out - math.exp(-lam * x)) <= exp_neg_lambda_bound(x, lam, order, bits)


@pytest.mark.parametrize("bits", [16, 20])
@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
def test_exp_gate_bound_sampled_wider(bits, lam):
    spec = FixedPointSpec(bits, 1)
    rng = np.random.default_rng(bits)
    for label in rng.integers(0, 1 << bits, size=4000):
        label = int(label)
        x = spec.decode(label)
        out = spec.decode(exp_neg_lambda_label(label, spec, spec, lam, 8))
        assert abs(out - math.exp(-lam * x)) <= exp_neg_lambda_bound(x, lam, 8, bits)


def test_exp_gate_on_state():
    bits = 12
    spec = FixedPointSpec(bits, 1)
    layout = RegisterLayout([
        Register("x", bits, "arithmetic", spec),
        Register("out", bits, "arithmetic", spec),
    ])
    st = SimState(layout)
    st.apply_label_map(per_key(lambda d, lab: [spec.encode(1.0), 0]))

    def kernel(dense, labels):
        x, _ = labels
        return [x, exp_neg_lambda_label(x, spec, spec, 0.5, 10)]

    st.apply_label_map(per_key(kernel))
    (x, out), = st.branches
    assert x == spec.encode(1.0)
    assert abs(spec.decode(out) - math.exp(-0.5)) <= exp_neg_lambda_bound(
        1.0, 0.5, 10, bits)


def rotate_by_label(st, spec, scale, mode="amplitude"):
    """Rotate the ancilla from |0> by an angle read off the label v, as the
    pipelines do: amplitude v/scale, or sqrt(v) in sqrt mode."""
    def fn(labels):
        v = spec.decode(labels[0])
        return rotation_matrix(math.sqrt(v) if mode == "sqrt" else v / scale)

    st.apply_branch_dense(per_labels(fn), ["anc"])


def rotation_layout(bits):
    spec = FixedPointSpec(bits, 1)
    return spec, RegisterLayout([
        Register("v", bits, "arithmetic", spec),
        Register("anc", 1, "flag"),
    ])


def test_controlled_rotation_modes():
    spec, layout = rotation_layout(20)
    # v = C (on the grid) -> ancilla stays |0>
    c_grid = spec.decode(spec.encode(0.8))
    st = SimState(layout)
    st.apply_label_map(per_key(lambda d, lab: [spec.encode(0.8)]))
    rotate_by_label(st, spec, scale=c_grid)
    vec = next(iter(st.branches.values()))
    assert abs(vec[0]) == pytest.approx(1.0, abs=1e-12)
    # v = 0 -> ancilla flips to |1>
    st = SimState(layout)
    rotate_by_label(st, spec, scale=0.5)
    vec = next(iter(st.branches.values()))
    assert abs(vec[1]) == pytest.approx(1.0, abs=1e-12)
    # Pythagorean pair (0.6 is within one grid step on 20 bits)
    st = SimState(layout)
    st.apply_label_map(per_key(lambda d, lab: [spec.encode(0.6)]))
    rotate_by_label(st, spec, scale=1.0)
    vec = next(iter(st.branches.values()))
    assert vec[0].real == pytest.approx(0.6, abs=1e-5)
    assert vec[1].real == pytest.approx(0.8, abs=1e-5)
    assert abs(st.norm() - 1.0) < 1e-12
    # sqrt mode: 0.25 is exactly representable
    st = SimState(layout)
    st.apply_label_map(per_key(lambda d, lab: [spec.encode(0.25)]))
    rotate_by_label(st, spec, scale=1.0, mode="sqrt")
    vec = next(iter(st.branches.values()))
    assert vec[0].real == pytest.approx(0.5, abs=1e-12)


def test_rotation_matrix_stacks_the_scalar_rotations():
    """An array of amplitudes gives one rotation per entry, each equal, bit
    for bit, to the rotation of that amplitude alone."""
    amps = np.array([[0.0, 0.25, 1e-13 + 1.0], [-1e-13, 0.6, 1.0]])
    stack = rotation_matrix(amps)
    assert stack.shape == (2, 3, 2, 2)
    for idx in np.ndindex(amps.shape):
        one = rotation_matrix(float(amps[idx]))
        assert one.shape == (2, 2)
        assert stack[idx].tobytes() == one.tobytes()
    c = math.sqrt(0.5)
    assert rotation_matrix(c).tobytes() == np.array(
        [[c, -math.sqrt(1 - c * c)], [math.sqrt(1 - c * c), c]]).tobytes()
    with pytest.raises(ArithmeticError_):
        rotation_matrix([0.5, 1.1])


def test_controlled_rotation_range_error():
    spec, layout = rotation_layout(12)
    st = SimState(layout)
    st.apply_label_map(per_key(lambda d, lab: [spec.encode(1.5)]))
    with pytest.raises(ArithmeticError_):
        rotate_by_label(st, spec, scale=1.0)
