"""Property tests for the fixed-point label arithmetic, against exact
rational references: ``multiply_labels`` rounds the exact product to the
nearest output label or refuses it as an overflow, and
``exp_neg_lambda_label`` stays within ``exp_neg_lambda_bound`` of
exp(-lambda x)."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qlapeig.arith import (ArithmeticError_, exp_neg_lambda_bound,
                           exp_neg_lambda_label, multiply_labels)
from qlapeig.sim import FixedPointSpec

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def specs(draw, min_bits=2, max_bits=24, max_int_bits=4):
    bits = draw(st.integers(min_bits, max_bits))
    return FixedPointSpec(bits, draw(st.integers(1, min(max_int_bits, bits - 1))))


def label_of(spec):
    return st.integers(0, spec.max_label)


@PROPERTY
@given(st.data())
def test_multiply_labels_rounds_to_half_an_lsb_or_raises(data):
    spec_a, spec_b, spec_out = (data.draw(specs()) for _ in range(3))
    a = data.draw(label_of(spec_a))
    b = data.draw(label_of(spec_b))
    exact = Fraction(a, 1 << spec_a.frac_bits) * Fraction(b, 1 << spec_b.frac_bits)
    lsb = Fraction(1, 1 << spec_out.frac_bits)
    try:
        out = multiply_labels(a, b, spec_a, spec_b, spec_out)
    except ArithmeticError_:
        # refused only when the product rounds past the largest label
        assert exact >= (spec_out.max_label + Fraction(1, 2)) * lsb
        return
    assert 0 <= out <= spec_out.max_label
    assert abs(out * lsb - exact) <= lsb / 2


@PROPERTY
@given(st.data())
def test_exp_neg_lambda_label_within_its_bound(data):
    spec_in = data.draw(specs(min_bits=4, max_bits=32, max_int_bits=2))
    spec_out = FixedPointSpec(data.draw(st.integers(8, 40)), 1)
    label = data.draw(label_of(spec_in))
    order = data.draw(st.integers(0, 16))
    # lambda x < 2 keeps every partial sum inside the output range [0, 2)
    lam = data.draw(st.floats(0.01, 1.0)) / (1 << (spec_in.int_bits - 1))
    x = spec_in.decode(label)
    out = spec_out.decode(exp_neg_lambda_label(label, spec_in, spec_out, lam, order))
    assert abs(out - math.exp(-lam * x)) <= exp_neg_lambda_bound(x, lam, order,
                                                                 spec_out.bits)
