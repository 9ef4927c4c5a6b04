"""Phase estimation from the circuit itself, the slow references
``run_qpe`` and extraction are tested against, for any evolution whose
``block()`` is its dense matrix.

``row_block_probs`` gives the phase register's Born probabilities.  Slot y
of the register is the n x n matrix U^y / sqrt(n 2^bits), U the adjoint of
the evolution: U^y applied to the purified maximally-mixed input.  The
register is run one block of system rows at a time in one reused buffer.  A
block's slots are filled by doubling: slot 0 holds its rows of the input,
and for f = 1, 2, 4, .. slots f .. 2f - 1 are slots 0 .. f - 1
right-multiplied by U^f, as 2-D GEMMs over runs of slots stacked row-wise.
The block is Fourier-transformed along the slots, and its Born weights are
added into the probabilities.  This holds for any U, unitary or not.

``post_state`` gives outcome z's unnormalized post-measurement state, the
register's slot z after the Fourier transform, as the product
prod_k (I + w^(z 2^k) U^(2^k)) over the dense squarings of U.
"""

import math

import numpy as np

BLOCK_AMPLITUDES = 1 << 15  # the most amplitudes a block of the register holds
GEMM_MACS = 1 << 15  # the most multiply-adds one doubling GEMM runs, unless n^3 is more


def row_block_probs(evolution, phase_bits):
    """The phase register's Born probabilities, normalized to sum 1."""
    u = evolution.block().conj().T
    n = u.shape[0]
    pdim = 1 << phase_bits
    rows = max(1, min(n, BLOCK_AMPLITUDES // (pdim * n)))  # system rows a block
    powers = [u]  # U^f, f = 2^k: fills slots f .. 2f - 1 from slots 0 .. f - 1
    for _ in range(phase_bits - 1):
        powers.append(powers[-1] @ powers[-1])
    run = max(GEMM_MACS, n ** 3) // (rows * n * n)  # slots per GEMM, >= 1
    start = np.eye(n) / math.sqrt(n) / math.sqrt(pdim)  # sum_j |j>|j> / sqrt(n pdim)
    buf = np.empty(pdim * rows * n, dtype=complex)
    probs = np.zeros(pdim)
    for top in range(0, n, rows):
        b = min(rows, n - top)
        psi = buf[:pdim * b * n].reshape(pdim, b, n)
        psi[0] = start[top:top + b]
        for k, step in enumerate(powers):
            f = 1 << k
            for y in range(0, f, run):
                z = min(f, y + run)
                np.matmul(psi[y:z].reshape(-1, n), step,
                          out=psi[f + y:f + z].reshape(-1, n))
        np.fft.fft(psi, axis=0, out=psi)
        psi /= math.sqrt(pdim)
        flat = psi.reshape(pdim, -1)
        probs += np.vecdot(flat, flat).real
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def post_state(evolution, z, phase_bits):
    """Outcome z's unnormalized post-measurement state, the (n_sys,
    n_purifier) matrix sum_y w^(yz) U^y / (2^bits sqrt n), w =
    e^(-2 pi i / 2^bits), as the product prod_k (I + w^(z 2^k) U^(2^k))."""
    power = evolution.block().conj().T
    n = power.shape[0]
    pdim = 1 << phase_bits
    post = np.eye(n, dtype=complex)
    for k in range(phase_bits):
        if k:
            power = power @ power
        phase = np.exp(-2j * math.pi * ((z << k) % pdim) / pdim)
        post = post + phase * (post @ power)
    post /= pdim * math.sqrt(n)
    return post
