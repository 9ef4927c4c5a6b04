"""Differential property test for the SELECT kernel of the metered
``lcu_taylor`` path: ``_taylor_select`` (one GEMM per rung on a rotating row
slab, over the live rows with the ancillas reversed) against the per-(row,
rung) ``moveaxis`` round trip on the full register in circuit order, bit for
bit."""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qlapeig.spectral import LCU_MAX_AMPLITUDES, MAX_TAYLOR_ORDER, _taylor_select

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
    """(a_dim, s, order, seed), with order up to the lcu size guard."""
    a_dim = draw(st.sampled_from([2, 4]))
    s = draw(st.sampled_from([1, 2, 4]))
    top = max(o for o in range(1, MAX_TAYLOR_ORDER + 1)
              if np.prod(state_shape(a_dim, s, o)) <= LCU_MAX_AMPLITUDES)
    return a_dim, s, draw(st.integers(1, top)), draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(instances())
def test_taylor_select_matches_per_row_moveaxis(instance):
    a_dim, s, order, seed = instance
    rng = np.random.default_rng(seed)
    dim = a_dim * s
    u_mat, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
    shape = state_shape(a_dim, s, order)
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = live_layout(select_reference(psi.copy(), u_mat, order), order)
    got = _taylor_select(np.ascontiguousarray(live_layout(psi, order)),
                         u_mat, order)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
