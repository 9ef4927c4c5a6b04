"""The metered Taylor path one channel at a time: the reference the stacked
segment kernel is tested against.

``simulation._taylor_channels`` runs the r segments of the circuit on a stack
of B channels at once, each entry with its own rung a_b and half-angle frame.
``channel_by_channel`` runs the same kernel on each entry alone, as a stack
of one, in one state buffer and slabs of a channel's size, reused from
channel to channel, and stacks the channel values.  Patched in for
``simulation._taylor_channels``, it turns ``_lcu_taylor`` into the
one-channel-at-a-time loop, so a stack whose entries were mixed up, or ran
one entry's rung for another's, shows against it.
"""

import numpy as np

from qlapeig import simulation

KERNEL = simulation._taylor_channels


def channel_by_channel(a, frames, r, maps, psi, slabs, on_segment):
    """``_taylor_channels``'s B channel values, channel by channel;
    ``on_segment`` is not called."""
    one = np.empty(psi.shape[:2] + (1,) + psi.shape[3:], dtype=complex)
    spare = np.empty((len(slabs), one[0].size), dtype=complex)
    return np.concatenate([KERNEL(a[b:b + 1], frames[b:b + 1], r, maps, one, spare,
                                  None) for b in range(len(a))])
