"""The metered Taylor path as a state on every channel: the reference the
channel-independent kernel is tested against.

``simulation._taylor_channels`` applies -A r times to one channel-free
state and runs the s channels' recurrences on scalars.  ``stacked_segments``,
the kernel it replaced, runs each of the r segments on the s channels' full
live-row states, stacked along a channel axis: X = SELECT P_R psi, y0 and coef read on each channel's zero
cell v^(x)order, and -P_L^dag (X + Y(coef)) + 2 y0 e written back in place.
It takes and returns what ``_taylor_channels`` does, so patched in for it,
it turns ``_lcu_taylor`` into the state-carrying run; a recurrence that
shifted the wrong coefficient, or a read that weighted a cell by the wrong
class, shows against it.
"""

import numpy as np

from qlapeig.simulation import (_phase_rows, _project, _reflect_rows, _row_phases,
                                _sign_table, _swap_flag)


def stacked_segments(a, frames, r, maps, on_segment):
    """``_taylor_channels``'s s channel values, the segments run on a state
    psi of shape (order + 2, 2, s, 2^order), axes row, flag, channel,
    ancilla order .. 1; ``on_segment(psi)`` reads it after each segment, its
    channel axis ahead of the flag."""
    w, c, d = maps
    live = len(w)
    order = live - 2
    batch = len(a)
    psi = np.zeros((live, 2, batch, 1 << order), dtype=complex)
    slabs = np.empty((2, psi[0].size), dtype=complex)
    table = _sign_table(order)
    spread = (w[:-1] * c[:-1]) @ table  # sum_{k <= order} w_k d_k T_k
    unphase = _row_phases(order).conj()  # D^dag
    zero = np.ones((batch, 1), dtype=complex)  # v^(x)order on each channel
    for _ in range(order):
        zero = (zero[:, :, None] * frames[:, None, 0, :]).reshape(batch, -1)
    zero_dag = zero.conj()[:, :, None]
    w_dag = np.polyval((c[:-1] * d[:-1])[::-1], a).conj()
    rows = psi.reshape(live, -1)
    cell = slabs[1][:zero.size].reshape(zero.shape)

    def read(half):
        """<v^(x)order| on each channel of a row's flag half."""
        return np.matmul(half[:, None, :], zero_dag)[:, 0, 0]

    def segment():
        zero_in = read(psi[0, 0])
        _phase_rows(rows, unphase)
        _reflect_rows(rows, w, _project(rows, w, slabs[0]), slabs[1])
        for k in range(1, order + 1):
            for half in psi[k]:
                half *= table[k]
        _swap_flag(psi[order + 1], slabs[1])
        proj = _project(rows, w, slabs[0]).reshape(psi[0].shape)  # w^T X
        y0 = read(psi[0, 0]) - 2.0 * w[0] * read(proj[0])  # P_L^dag X on the zero cell
        coef = 2.0 * (2.0 * w_dag * y0 - zero_in)
        # w^T Y: the padding row's term on the flag-set half, the others' on
        # the flag-clear half
        np.multiply(zero, (w[-1] * d[-1] * coef)[:, None], out=cell)
        proj[1] += cell
        np.multiply(zero, coef[:, None], out=cell)
        np.multiply(cell, spread, out=cell)
        proj[0] += cell
        _reflect_rows(rows, w, proj.reshape(-1), slabs[1], negate=True)
        # take Y off: row k's is d_k coef T_k v^(x)order, d_k T_k = c_k table[k]
        for k in range(live):
            np.multiply(zero, (c[k] * coef)[:, None], out=cell)
            if k > order:
                psi[k, 1] -= cell
            else:
                np.multiply(cell, table[k], out=cell)
                psi[k, 0] -= cell
        np.multiply(zero, 2.0 * y0[:, None], out=cell)
        psi[0, 0] += cell

    psi[0, 0] = zero
    for _ in range(r):
        segment()
        if on_segment is not None:
            on_segment(psi.transpose(0, 2, 1, 3))
    return read(psi[0, 0])
