"""Fixed-point label functions for the reversible arithmetic gates.

The pipelines apply each gate as one ``apply_label_map`` call whose function
maps whole key columns, calling ``multiply_labels`` and
``exp_neg_lambda_label`` once per distinct input, and each label-controlled
rotation as one ``apply_branch_dense`` call, whose function hands the
distinct labels' amplitudes to ``rotation_matrix`` as one array (QFT-adder
internals are not gate decomposed).  Every label map is a bijection on the
touched labels, so amplitudes are never mixed.  Labels are Python ints, so
they stay exact at any register width.
"""

from __future__ import annotations

import math

import numpy as np

from .sim import FixedPointSpec, SimError, round_int_div

__all__ = [
    "ArithmeticError_",
    "exp_neg_lambda_label",
    "exp_neg_lambda_bound",
    "multiply_labels",
    "rotation_matrix",
]


class ArithmeticError_(SimError):
    """Overflow or range violation in a fixed-point gate."""


def multiply_labels(a: int, b: int, spec_a: FixedPointSpec, spec_b: FixedPointSpec,
                    spec_out: FixedPointSpec) -> int:
    """Fixed-point product with a single round-to-nearest-even step."""
    # exact integer product has frac_a + frac_b fractional bits
    shift = spec_a.frac_bits + spec_b.frac_bits - spec_out.frac_bits
    num = a * b
    if shift >= 0:
        out = round_int_div(num, 1 << shift) if shift else num
    else:
        out = num << (-shift)
    if out > spec_out.max_label:
        raise ArithmeticError_("product overflows the output register")
    return out


def exp_neg_lambda_label(x_label: int, spec_in: FixedPointSpec,
                         spec_out: FixedPointSpec, lam: float, order: int) -> int:
    """Order-k alternating-series evaluation of exp(-lam*x) on the grid.

    Horner-free form with two positive accumulators (even/odd terms), one
    rounding event per term plus one for lam*x itself, so the total rounding
    error stays below order * 2**-(bits-1).
    """
    if lam <= 0:
        raise ArithmeticError_("decay rate must be positive")
    if order < 0:
        raise ArithmeticError_("series order must be nonnegative")
    x = spec_in.decode(x_label)
    grid = spec_out.frac_bits
    one = 1 << grid
    y = round(lam * x * one)  # label of lam*x on the output grid
    pos, neg = one, 0         # even / odd partial sums, exact grid integers
    term = one
    for j in range(1, order + 1):
        term = round_int_div(term * y, j << grid)
        if term == 0:
            break
        if j % 2:
            neg += term
        else:
            pos += term
    out = pos - neg
    if out < 0:
        out = 0
    if out > spec_out.max_label:
        raise ArithmeticError_("exp series overflows the output register")
    return out


def exp_neg_lambda_bound(x: float, lam: float, order: int, bits: int) -> float:
    """Guaranteed error budget: Taylor remainder plus rounding allowance."""
    y = lam * x
    trunc = y ** (order + 1) / math.factorial(order + 1)
    return trunc + order * 2.0 ** (-(bits - 1))


def rotation_matrix(p0_amp) -> np.ndarray:
    """Real rotations sending |0> to p0 |0> + sqrt(1 - p0^2) |1>, one per
    entry p0 of ``p0_amp``: shape ``np.shape(p0_amp) + (2, 2)``."""
    p0 = np.asarray(p0_amp, dtype=float)
    if np.any(p0 < -1e-12) or np.any(p0 > 1 + 1e-12):
        raise ArithmeticError_("rotation amplitude out of [0, 1]")
    c = np.minimum(np.maximum(p0, 0.0), 1.0)
    s = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    out = np.empty(p0.shape + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = c, -s, s, c
    return out
