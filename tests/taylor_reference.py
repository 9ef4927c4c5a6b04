"""The metered Taylor path one channel at a time: the reference the stacked
segment kernel is tested against.

``spectral._taylor_channels`` runs the r segments of the circuit on a stack
of B channels at once, each entry with its own rung.  ``channel_by_channel``
runs the same kernel on each entry alone, as a stack of one, in one state
buffer and slabs of a channel's size, reused from channel to channel, and
stacks the blocks.  Patched in for ``spectral._taylor_channels``, it turns
``_lcu_taylor`` into the one-channel-at-a-time loop, so a stack whose
entries were mixed up, or ran one entry's rung for another's, shows against
it.
"""

import numpy as np

from qlapeig import spectral

KERNEL = spectral._taylor_channels


def channel_by_channel(u_mats, sub, x, r, maps, psi, slabs, on_segment):
    """``_taylor_channels``'s (B, sub, sub) blocks, entry by entry;
    ``on_segment`` is not called."""
    one = np.empty((psi.shape[0], 1, psi.shape[2]), dtype=complex)
    spare = np.empty((len(slabs), psi.shape[2]), dtype=complex)
    return np.concatenate([KERNEL(u_mats[b:b + 1], sub, x, r, maps, one, spare, None)
                           for b in range(len(u_mats))])
