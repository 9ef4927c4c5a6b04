"""Block-Hamiltonian simulation: exp(-i H t) for H = alpha block(be), returned
in the eigenbasis of H.

Two paths: ``oracle_exponential`` exponentiates the verified encoded block
exactly (the contract of optimal block-Hamiltonian simulation, taken as an
oracle), while ``lcu_taylor`` builds the truncated-Taylor linear combination
over controlled queries to an encoding unitary, segmented so one exact
oblivious-amplification round per segment restores unit scale.  The second
path is the one whose query counts are metered.

The metered query is the one-ancilla dilation U = [[G, S], [S, -G]] of the
encoded block G = h / alpha, S = sqrt(I - G^2), whatever circuit encodes h:
every block of U is a function of G, so in the eigenbasis Q of h, U is the
direct sum over the eigenvectors of the ancilla-only rungs
u_mu = [[a, b], [b, -a]], a = lambda_mu / alpha and b = sqrt(1 - a^2) (the
invariant subspaces of qubitization: Low and Chuang, Quantum 3, 163 (2019)),
and P_R, P_L and R never touch the subject.  So the circuit runs as s
channels of one subject dimension, stacked in one buffer, through one pass
of the r segments (``_taylor_channels``).  Each rung is the reflection
u = V diag(1, -1) V^T in its real half-angle frame V = [[p, -q], [q, p]],
p = sqrt((1 + a) / 2) and q = sqrt((1 - a) / 2).  With each channel's
ancillas in its V basis, U_j is diag(1, -1) on ancilla j, so row k's SELECT
U_1 ... U_k is the sign T_k(z) = prod_{j <= k} (-1)^(z_j) of each cell z,
one table for all channels with P_R's D folded in (``_sign_table``), and
E's zero-ancilla cell is the product vector v^(x)order, v = V^T |0>.

A segment is the circuit S = -A R A^dag R A, R = 2 Pi - I.  It is simulated
with one pass of A by two identities that hold because A is unitary:
A R A^dag = 2 E E^dag - I with E = A Pi, and E^dag (R A psi) = 2 W^dag w - Pi psi
with W = Pi A Pi and w = Pi A psi.  The meter counts the circuit, not the
simulation: 3 * order queries per segment, one per rung; the series order
and the size guard are the s-dimensional circuit's, counted once.

The state holds only the live rows 0 .. order + 1 of the coefficient
register; the others stay exactly zero.  The state is one buffer, updated
in place, its scratch two row slabs allocated with it: nothing of a slab's
size is allocated in the segment loop.
P_L = I - 2 n n^T, the ``stateprep._householder`` reflection whose first
column is c, is real and its own adjoint, and P_R = D P_L D^dag exactly,
D = diag((-i)^k) the phases of d: each map is one GEMV and one update per
row on the float64 views, P_R's D^dag a phase pass before it.  Between the
maps SELECT leaves X = SELECT P_R psi, and the update is folded into X
before P_L^dag: E c = P_L^dag Y(c), where Y(c) holds d_k V_k (|0^k> (x) c)
in row k, V_k = U_k ... U_1, so the new state R A psi - E (2 E^dag R A psi)
is -P_L^dag (X + Y(coef)) with 2 y0 added back on the all-zero cell,
y0 = (P_L^dag X) there and coef = 2 (2 W^dag y0 - Pi psi).  On a channel
W = sum_{k <= order} c_k d_k a^k.

Simulation returns an ``Evolution``: U = Q diag(u) Q^dag in the eigenbasis
Q of h = alpha block, from the one ``eigh`` of h.  The oracle path has
u = e^(-i lambda t), the metered path the channel values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEncoding
from .graph import GraphError
from .sim import SimError
from .stateprep import _householder

__all__ = [
    "SimulationError",
    "SimulationConfig",
    "Evolution",
    "simulate_hamiltonian",
]


class SimulationError(SimError):
    """Hamiltonian-simulation contract violation."""


MAX_TAYLOR_ORDER = 12  # lcu path: the highest truncation order chosen from eps
LCU_MAX_AMPLITUDES = 1 << 21  # lcu path: the largest state, its channels stacked
# the least error a simulated evolution claims: its round-off
_EPS_FLOOR = 1e-12


def _sim_setting_error(path: str, eps: float) -> str | None:
    """Why a simulation path and error budget are out of range, or None."""
    if path not in ("oracle_exponential", "lcu_taylor"):
        return f"unknown simulation path {path!r}"
    if not (0 < eps < 1):
        return "target error must sit in (0, 1)"
    return None


@dataclass
class SimulationConfig:
    t: float
    eps: float = 1e-6
    path: str = "oracle_exponential"
    truncation_order: int | None = None   # lcu path; chosen from eps when absent

    def __post_init__(self):
        if not 0 < self.t < math.inf:  # NaN included
            raise SimulationError("evolution time must be positive and finite")
        problem = _sim_setting_error(self.path, self.eps)
        if problem:
            raise SimulationError(problem)
        order = self.truncation_order
        if order is not None and not (isinstance(order, (int, np.integer))
                                      and 1 <= order <= MAX_TAYLOR_ORDER):
            raise SimulationError(
                f"truncation order must be an int in 1 .. {MAX_TAYLOR_ORDER}")


@dataclass
class Evolution:
    """A simulated evolution U = basis diag(phases) basis^dag in the
    eigenbasis of h, on either path, claiming ||U - e^(-iht)|| <= epsilon;
    ``meta`` holds the path, its query count and the metered path's
    counters."""
    basis: np.ndarray            # (n, n) unitary, the eigenvectors of h
    phases: np.ndarray           # (n,), e^(-i lambda t) or a channel's value
    epsilon: float
    meta: dict

    def block(self) -> np.ndarray:
        """U as a dense n x n matrix."""
        return (self.basis * self.phases) @ self.basis.conj().T


def simulate_hamiltonian(be: BlockEncoding, cfg: SimulationConfig) -> Evolution:
    """exp(-i H t) for H = alpha * block(be), in H's eigenbasis (module
    docstring); H is decomposed once, here."""
    h = be.alpha * be.block()
    if np.max(np.abs(h - h.conj().T)) > 1e-8:
        raise SimulationError("encoded block is not Hermitian")
    spectrum = np.linalg.eigh((h + h.conj().T) / 2.0)
    if cfg.path == "oracle_exponential":
        vals, q = spectrum
        eps = 2.0 * cfg.t * be.epsilon
        return Evolution(q, np.exp(-1j * vals * cfg.t), max(eps, _EPS_FLOOR),
                         {"path": cfg.path, "query_count": None, "t": cfg.t})
    return _lcu_taylor(be.alpha, spectrum, cfg)


def _series_tail(x: float, k: int) -> float:
    """Bound on the tail sum_{j > k} x^j / j! of the order-k Taylor series
    (geometric majorant, valid for x < k + 2)."""
    tail = x ** (k + 1) / math.factorial(k + 1)
    return tail / max(1e-12, 1.0 - x / (k + 2))


def _choose_order(segment_x: float, budget: float, eps: float) -> int:
    for k in range(1, MAX_TAYLOR_ORDER + 1):
        if _series_tail(segment_x, k) <= budget:
            return k
    raise GraphError(
        f"lcu_taylor: sim_eps = {eps:g} needs a series order above "
        f"MAX_TAYLOR_ORDER = {MAX_TAYLOR_ORDER}; raise sim_eps")


def _row_phases(order: int) -> np.ndarray:
    """D = diag((-i)^k), k = 0 .. order, exactly: P_R = D P_L D^dag on the
    live rows, the padding row's phase being 1."""
    return np.array([1.0, -1j, -1.0, 1j])[np.arange(order + 1) % 4]


def _phase_rows(rows: np.ndarray, phases: np.ndarray) -> None:
    """rows[k] *= phases[k] in place for k = 1 .. len(phases) - 1 (phases[0]
    is 1, and later rows keep theirs), one contiguous row at a time: numpy
    buffers a broadcast product through a scratch of up to a row."""
    for row, phase in zip(rows[1:], phases[1:]):
        row *= phase


def _project(rows: np.ndarray, w: np.ndarray, slab: np.ndarray) -> np.ndarray:
    """w^T rows for complex rows of shape (live, cols) and a real w: one
    GEMV on the float64 views, into the row slab ``slab``."""
    proj = slab[:rows.shape[1]]
    np.matmul(w, rows.view(np.float64), out=proj.view(np.float64))
    return proj


def _reflect_rows(rows: np.ndarray, w: np.ndarray, proj: np.ndarray, slab: np.ndarray,
                  negate: bool = False, after=None) -> None:
    """rows <- (I - 2 w w^T) rows in place, or its negation, given proj =
    ``_project(rows, w, ...)``: one update per row on the float64 views,
    through the row slab ``slab``.  ``after(k)``, when given, runs right
    after row k's update, while the row is in cache."""
    flat, proj = rows.view(np.float64), proj.view(np.float64)
    term = slab.view(np.float64)[:proj.size]
    for k, (row, wk) in enumerate(zip(flat, w)):
        np.multiply(proj, 2.0 * wk, out=term)
        if negate:
            np.subtract(term, row, out=row)
        else:
            np.subtract(row, term, out=row)
        if after is not None:
            after(k)


def _swap_flag(pad: np.ndarray, slab: np.ndarray) -> None:
    """Swap the padding row's flag halves, its axis 0, in place through a
    slab: numpy would buffer pad[0] = pad[1]."""
    held = slab[:pad.size].reshape(pad.shape)
    np.copyto(held, pad)
    pad[...] = held[::-1]


def _sign_table(order: int) -> np.ndarray:
    """Row k's (-i)^k T_k(z), T_k(z) = prod_{j <= k} (-1)^(z_j), z_j the
    digit of ancilla j in a row's cell z (ancilla 1 the last), shape
    (order + 1, 2^order); each row is the one before times -i, negated where
    its ancilla's digit is 1, exactly."""
    table = np.empty((order + 1, 1 << order), dtype=complex)
    table[0] = 1.0
    for k in range(1, order + 1):
        np.multiply(table[k - 1], -1j, out=table[k])
        table[k].reshape(-1, 2, 1 << (k - 1))[:, 1] *= -1.0
    return table


def _lcu_taylor(alpha: float, spectrum: tuple, cfg: SimulationConfig,
                on_segment=None) -> Evolution:
    """Segmented truncated-Taylor series over controlled queries to the
    one-ancilla dilation of h / alpha, A = (P_L^dag (x) I) SELECT (P_R (x) I),
    for the Hermitian h whose ``eigh`` is ``spectrum`` = (lambda, Q), run on
    its closed-form channels (module docstring).  A block whose norm exceeds
    the scale by more than 1e-10, ``dilate``'s threshold, has no dilation;
    a smaller excess is round-off and is clipped.  The evolution's
    eigenvalues are the channel values; the error
    max_mu |u_mu - e^(-i lambda_mu t)| against exp(-i h t) is measured on
    them.  ``on_segment(bases, frames, psi)``, when given, reads the state
    after each segment: psi of shape (order + 2, s, 2, 2^order), channel mu
    of row k holding the flag and ancillas order .. 1, its subject the
    column bases[mu] of shape (s, 1), Q's column mu, and each ancilla along
    the columns of frames[mu], mu's V; it must not write to psi."""
    vals, basis = spectrum
    s = len(vals)
    a = vals / alpha
    if np.max(np.abs(a)) > 1.0 + 1e-10:
        raise SimulationError("encoded block's norm exceeds the dilation scale")
    a = np.clip(a, -1.0, 1.0)
    x_total = alpha * cfg.t
    r = max(1, int(math.ceil(x_total / math.log(2.0))))
    tau = cfg.t / r
    x = alpha * tau
    budget = cfg.eps / (6.0 * r)
    order = cfg.truncation_order
    if order is None:
        order = _choose_order(x, budget, cfg.eps)
    elif _series_tail(x, order) > budget:
        raise SimulationError("requested series order violates the error budget")
    cdim = 1 << max(1, (order + 1).bit_length())
    total_dim = cdim * 2 ** order * 2 * s  # one ancilla qubit per query
    if total_dim > LCU_MAX_AMPLITUDES:
        raise GraphError(
            f"lcu_taylor: series order {order} needs {total_dim} amplitudes, "
            f"beyond LCU_MAX_AMPLITUDES = {LCU_MAX_AMPLITUDES}; raise sim_eps "
            "or use fewer vertices")

    ys = np.array([x ** k / math.factorial(k) for k in range(order + 1)])
    pad = 2.0 - ys.sum()
    if pad < -1e-12:
        raise SimulationError("segment weight exceeded the amplification scale")
    c_col = np.zeros(cdim, dtype=complex)
    d_col = np.zeros(cdim, dtype=complex)
    c_col[: order + 1] = np.sqrt(ys / 2.0)
    d_col[: order + 1] = np.sqrt(ys / 2.0) * (-1j) ** np.arange(order + 1)
    c_col[order + 1] = math.sqrt(max(pad, 0.0) / 2.0)
    d_col[order + 1] = math.sqrt(max(pad, 0.0) / 2.0)
    # rows past order + 1 stay zero: the Householder vector of P_L vanishes
    # there, SELECT leaves them alone and Y has no cell there.  P_L = I -
    # 2 w w^T is real and its own adjoint, c_col being real with a positive
    # leading entry (the phase of ``_householder`` is 1), and P_R = D P_L
    # D^dag exactly, d_col = D c_col
    live = order + 2
    _, w = _householder(c_col)
    w = np.zeros(live) if w is None else np.ascontiguousarray(w.real[:live])
    maps = (w, c_col.real[:live].copy(), d_col[:live].copy())
    queries = 3 * order * r  # A, A^dag, A per segment, one query per rung

    p, q = np.sqrt((1.0 + a) / 2.0), np.sqrt((1.0 - a) / 2.0)  # V = [[p, -q], [q, p]]
    frames = np.stack([np.stack([p, -q], -1), np.stack([q, p], -1)], 1)
    psi = np.empty((live, 2, s, 2 ** order), dtype=complex)
    slabs = np.empty((2, psi[0].size), dtype=complex)
    hook = (functools.partial(on_segment, basis.T[:, :, None], frames)
            if on_segment else None)
    phases = _taylor_channels(a, frames, r, maps, psi, slabs, hook)

    measured = float(np.max(np.abs(phases - np.exp(-1j * vals * cfg.t))))
    if measured > cfg.eps:
        raise SimulationError(
            f"lcu_taylor error {measured:.3e} exceeds the budget {cfg.eps:.3e}")
    return Evolution(basis, phases, cfg.eps,
                     {"path": "lcu_taylor", "query_count": queries,
                      "segments": r, "order": order, "t": cfg.t,
                      "measured_error": measured})


def _taylor_channels(a: np.ndarray, frames: np.ndarray, r: int, maps: tuple,
                     psi: np.ndarray, slabs: np.ndarray, on_segment) -> np.ndarray:
    """r segments of the circuit (module docstring) on a stack of B channels
    of one subject dimension, channel i's rung [[a_i, b_i], [b_i, -a_i]] in
    its frame V = ``frames[i]``, in place on psi of shape (order + 2, 2, B,
    2^order), axes row, flag, channel, ancilla order .. 1.  ``maps`` is (w,
    c, d) on the live rows: P_L's Householder vector and the columns P_L and
    P_R prepare; ``slabs`` holds two row slabs.  -P_L^dag (X + Y) runs as
    one reflection of X: w^T Y is added to its projection w^T X, which also
    gives y0, and each row's Y is taken off right after the row's update.
    ``on_segment(psi)`` reads the state after each segment, its channel
    axis ahead of the flag.  Returns the B channel values."""
    live, _, batch, _ = psi.shape
    order = live - 2
    w, c, d = maps
    table = _sign_table(order)
    spread = (w[:-1] * c[:-1]) @ table  # sum_{k <= order} w_k d_k T_k
    unphase = _row_phases(order).conj()  # D^dag
    zero = np.ones((batch, 1), dtype=complex)  # v^(x)order on each channel
    for _ in range(order):
        zero = (zero[:, :, None] * frames[:, None, 0, :]).reshape(batch, -1)
    zero_dag = zero.conj()[:, :, None]
    # W = sum_{k <= order} c_k d_k a^k: the padding row has no zero cell
    w_dag = np.polyval((c[:-1] * d[:-1])[::-1], a).conj()
    rows = psi.reshape(live, -1)
    cell = slabs[1][:zero.size].reshape(zero.shape)
    stacked = psi.transpose(0, 2, 1, 3)

    def read(half):
        """<v^(x)order| on each channel of a row's flag half."""
        return np.matmul(half[:, None, :], zero_dag)[:, 0, 0]

    def segment():
        zero_in = read(psi[0, 0])
        _phase_rows(rows, unphase)  # P_R = D P_L D^dag; D goes with SELECT
        _reflect_rows(rows, w, _project(rows, w, slabs[0]), slabs[1])
        for k in range(1, order + 1):
            for half in psi[k]:
                half *= table[k]
        _swap_flag(psi[order + 1], slabs[1])
        proj = _project(rows, w, slabs[0]).reshape(psi[0].shape)  # w^T X
        y0 = read(psi[0, 0]) - 2.0 * w[0] * read(proj[0])  # P_L^dag X on the zero cell
        coef = 2.0 * (2.0 * w_dag * y0 - zero_in)  # 2 E^dag R A psi
        # w^T Y: the padding row's term on the flag-set half, the others' on
        # the flag-clear half
        np.multiply(zero, (w[-1] * d[-1] * coef)[:, None], out=cell)
        proj[1] += cell
        np.multiply(zero, coef[:, None], out=cell)
        np.multiply(cell, spread, out=cell)
        proj[0] += cell

        def take_off(k):  # row k's Y, d_k coef T_k v^(x)order, d_k T_k = c_k table[k]
            np.multiply(zero, (c[k] * coef)[:, None], out=cell)
            if k > order:
                psi[k, 1] -= cell
            else:
                np.multiply(cell, table[k], out=cell)
                psi[k, 0] -= cell

        _reflect_rows(rows, w, proj.reshape(-1), slabs[1], negate=True, after=take_off)
        np.multiply(zero, 2.0 * y0[:, None], out=cell)
        psi[0, 0] += cell

    psi.fill(0.0)
    psi[0, 0] = zero
    for _ in range(r):
        segment()
        if on_segment is not None:
            on_segment(stacked)
    return read(psi[0, 0])
