"""Encoding circuits materialized: the slow references the library's
matrix-free encodings are tested against.

For a preparation unitary G on the purification space (system axis first)
and a subject register of the system's dimension s, the SWAP sandwich is
(G^dag (x) I_s) SWAP (G (x) I_s), SWAP exchanging the purification's system
axis with the subject.  Rows and columns run in (purification, subject)
order, so the zero-ancilla sector is the top-left s x s corner, where the
reduced state of G|0> sits (Gilyen, Su, Low and Wiebe, arXiv:1806.01838).
``BlockEncoding.apply`` is tested against it.

The LCU circuit of a state-preparation pair and dense components is
(P_L^dag (x) I) SELECT (P_R (x) I) (Childs and Wiebe, QIC 12, 901 (2012));
``lcu_combine``'s column contraction is tested against its corner.
"""

import numpy as np

from qlapeig.stateprep import completion_unitary


def dense_sandwich(G, sys_dim):
    """The sandwich as a dense (pur s) x (pur s) unitary, for any unitary G."""
    G = np.asarray(G, dtype=complex)
    pur = G.shape[0]
    if G.shape != (pur, pur) or pur % sys_dim:
        raise ValueError("preparation unitary does not match the declared split")
    if np.max(np.abs(G.conj().T @ G - np.eye(pur))) > 1e-10:
        raise ValueError("preparation operator is not unitary")
    rows = pur * sys_dim
    big = np.kron(G, np.eye(sys_dim))
    # left-multiply by SWAP: exchange the row axes (sys, anc, subject)
    swapped = big.reshape(sys_dim, -1, sys_dim, rows).transpose(2, 1, 0, 3)
    return np.kron(G.conj().T, np.eye(sys_dim)) @ swapped.reshape(rows, rows)


def dense_select(pair, encodings):
    """The LCU circuit as a dense unitary, P_L and P_R the
    ``completion_unitary`` of the pair's columns.  SELECT runs component j's
    unitary on slot j, widened by identity on the ancillas it lacks, and the
    identity on the idle slots.  Rows run in (pair, ancilla, subject) order,
    so the top-left s x s corner is the combination's block."""
    width = (1 << max(e.ancillas for e in encodings)) * encodings[0].subject_dim
    c, d = pair.columns()
    sel = np.zeros((len(c) * width,) * 2, dtype=complex)
    for j in range(len(c)):
        u = encodings[j].unitary if j < len(encodings) else np.eye(width)
        sel[j * width:(j + 1) * width, j * width:(j + 1) * width] = np.kron(
            np.eye(width // len(u)), u)
    p_l, p_r = completion_unitary(c), completion_unitary(d)
    return np.kron(p_l.conj().T, np.eye(width)) @ sel @ np.kron(p_r, np.eye(width))


def zero_ancilla_corner(enc, columns=None):
    """Rows :s of ``enc.apply`` on the inputs |0>|e_j>, j in ``columns``
    (all s by default), one call for all of them."""
    s = enc.subject_dim
    columns = range(s) if columns is None else columns
    inputs = np.zeros(((1 << enc.ancillas) * s, len(columns)))
    inputs[list(columns), range(len(columns))] = 1.0
    return enc.apply(inputs)[:s]
