"""Block-Hamiltonian simulation: exp(-i H t) for H = alpha block(be), returned
in the eigenbasis of H.

Two paths: ``oracle_exponential`` exponentiates the verified encoded block
exactly (the contract of optimal block-Hamiltonian simulation, taken as an
oracle), while ``lcu_taylor`` builds the truncated-Taylor linear combination
over controlled queries to an encoding unitary, segmented so one exact
oblivious-amplification round per segment restores unit scale (Berry,
Childs, Cleve, Kothari and Somma, PRL 114, 090502 (2015)).  The second path
is the one whose query counts are metered.

The metered query is the one-ancilla dilation U = [[G, S], [S, -G]] of the
encoded block G = h / alpha, S = sqrt(I - G^2), whatever circuit encodes h:
every block of U is a function of G, so in the eigenbasis Q of h, U is the
direct sum over the eigenvectors of the ancilla-only rungs
u_mu = [[a, b], [b, -a]], a = lambda_mu / alpha and b = sqrt(1 - a^2) (the
invariant subspaces of qubitization: Low and Chuang, Quantum 3, 163 (2019)),
and P_R, P_L and R never touch the subject.  So the circuit runs as s
channels of one subject dimension.  Each rung is the reflection
u = V diag(1, -1) V^T in its real half-angle frame V = [[p, -q], [q, p]],
p = sqrt((1 + a) / 2) and q = sqrt((1 - a) / 2).  With each channel's
ancillas in its V basis, U_j is diag(1, -1) on ancilla j, so row k's SELECT
U_1 ... U_k is the sign T_k(z) = prod_{j <= k} (-1)^(z_j) of each cell z,
one table for all channels with P_R's D folded in (``_sign_table``), and
E's zero-ancilla cell is the product vector v^(x)order, v = V^T |0>.

A segment is the circuit S = -A R A^dag R A, R = 2 Pi - I.  Because A is
unitary, A R A^dag = 2 E E^dag - I with E = A Pi, and one segment maps psi
to psi' = -A psi - coef A e + 2 y0 e, where e = e_0 (x) v^(x)order is the
channel's zero cell, y0 = <e, A psi>, coef = 2 (2 conj(W) y0 - <e, psi>)
and W = <e, A e> = sum_{k <= order} c_k d_k a^k.  The meter counts the
circuit, not the simulation: 3 * order queries per segment, one per rung.

The circuit is channel-independent but for e.  A = P_L^dag SELECT P_R acts
on each ancilla cell z by one map A_z of the live rows 0 .. order + 1 of the
coefficient register and the flag (the others stay exactly zero), the same
for every channel: SELECT is the sign table, P_R and P_L act on rows only,
and the padding row's query swaps the flag.  So with K_j = (-A)^j (e_0 (x)
1), 1 the all-ones cell vector, a channel's state after t segments is
psi_t = v^(x)order o sum_j gamma_{t,j} K_j, o the product cell by cell, and
a segment only moves the scalars: gamma shifts up one place (-A psi), coef
is added at j = 1 and 2 y0 set at j = 0.  Every read is
<e, v^(x)order o K_j> = sum_z v(z)^2 K_j(z), a sum over the row-0, flag-0
entries of K_j; v(z)^2 = p^(2 (order - w)) q^(2 w) depends on z only by its
Hamming weight w, so the read is sum_w p^(2 (order - w)) q^(2 w) G_j(w),
G_j(w) the sum of those entries over the cells of weight w.  The kernel
(``_taylor_channels``) runs r applications of -A on one live-row state and
keeps G_j, then runs the s channels' recurrences together on the scalars:
O(r order 2^order + s r^2) work, one state's memory whatever s is.  Each
class is summed first and weighted after: weighting the 2^order cells one
by one before summing left the channel values about 1e-14 off the unit
circle on random rungs at eps = 1e-8, against about 1e-15 this way.

-A runs in place on the state with two row slabs of scratch, so nothing of
a slab's size is allocated per step.  P_L = I - 2 n n^T, the
``stateprep._householder`` reflection whose first column is c, is real and
its own adjoint, and P_R = D P_L D^dag exactly, D = diag((-i)^k) the phases
of d: each map is one GEMV and one update per row on the float64 views,
P_R's D^dag a phase pass before it, its D folded into the sign table.

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
# lcu path: the largest live-row state, whatever s is; up to MAX_TAYLOR_ORDER
# it is 114688 amplitudes, so the cap binds only past order 15
LCU_MAX_AMPLITUDES = 1 << 21
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
                  negate: bool = False) -> None:
    """rows <- (I - 2 w w^T) rows in place, or its negation, given proj =
    ``_project(rows, w, ...)``: one update per row on the float64 views,
    through the row slab ``slab``."""
    flat, proj = rows.view(np.float64), proj.view(np.float64)
    term = slab.view(np.float64)[:proj.size]
    for row, wk in zip(flat, w):
        np.multiply(proj, 2.0 * wk, out=term)
        if negate:
            np.subtract(term, row, out=row)
        else:
            np.subtract(row, term, out=row)


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
    a smaller excess is round-off and is clipped.  The kernel holds one
    live-row state, (order + 2) 2 2^order amplitudes whatever s is, which
    ``LCU_MAX_AMPLITUDES`` bounds.  The evolution's eigenvalues are the
    channel values; the error max_mu |u_mu - e^(-i lambda_mu t)| against
    exp(-i h t) is measured on them.  ``on_segment(bases, frames, psi)``,
    when given, reads the state after each segment: psi of shape
    (order + 2, s, 2, 2^order), channel mu of row k holding the flag and
    ancillas order .. 1, its subject the column bases[mu] of shape (s, 1),
    Q's column mu, and each ancilla along the columns of frames[mu], mu's V.
    The states are rebuilt for the hook from every K_j, which a run keeps
    only when it has one: test-sized runs."""
    vals, basis = spectrum
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
    live = order + 2
    held = live * 2 * 2 ** order  # the live rows, one ancilla qubit per query
    if held > LCU_MAX_AMPLITUDES:
        raise GraphError(
            f"lcu_taylor: series order {order} needs {held} amplitudes, "
            f"beyond LCU_MAX_AMPLITUDES = {LCU_MAX_AMPLITUDES}; raise sim_eps")

    maps = _segment_maps(x, order)
    queries = 3 * order * r  # A, A^dag, A per segment, one query per rung

    frames = _half_angle_frames(a)
    hook = (functools.partial(on_segment, basis.T[:, :, None], frames)
            if on_segment else None)
    phases = _taylor_channels(a, frames, r, maps, hook)

    measured = float(np.max(np.abs(phases - np.exp(-1j * vals * cfg.t))))
    if measured > cfg.eps:
        raise SimulationError(
            f"lcu_taylor error {measured:.3e} exceeds the budget {cfg.eps:.3e}")
    return Evolution(basis, phases, cfg.eps,
                     {"path": "lcu_taylor", "query_count": queries,
                      "segments": r, "order": order, "t": cfg.t,
                      "measured_error": measured})


def _half_angle_frames(a: np.ndarray) -> np.ndarray:
    """Each rung's real half-angle frame V = [[p, -q], [q, p]], p =
    sqrt((1 + a) / 2) and q = sqrt((1 - a) / 2), shape (s, 2, 2)."""
    p, q = np.sqrt((1.0 + a) / 2.0), np.sqrt((1.0 - a) / 2.0)
    return np.stack([np.stack([p, -q], -1), np.stack([q, p], -1)], 1)


def _segment_maps(x: float, order: int) -> tuple:
    """(w, c, d) on the live rows 0 .. order + 1 of one segment's LCU at
    x = alpha tau: P_L's Householder vector and the columns P_L and P_R
    prepare, c_k = d_k i^k = sqrt(x^k / (2 k!)) for k <= order and the
    padding row's weight bringing the total to 2.  Rows past order + 1 stay
    zero: the Householder vector vanishes there and SELECT leaves them
    alone.  P_L = I - 2 w w^T is real and its own adjoint, c being real with
    a positive leading entry (the phase of ``_householder`` is 1), and
    P_R = D P_L D^dag exactly, d = D c."""
    ys = np.array([x ** k / math.factorial(k) for k in range(order + 1)])
    pad = 2.0 - ys.sum()
    if pad < -1e-12:
        raise SimulationError("segment weight exceeded the amplification scale")
    live = order + 2
    cdim = 1 << max(1, (order + 1).bit_length())
    c_col = np.zeros(cdim, dtype=complex)
    d_col = np.zeros(cdim, dtype=complex)
    c_col[: order + 1] = np.sqrt(ys / 2.0)
    d_col[: order + 1] = np.sqrt(ys / 2.0) * (-1j) ** np.arange(order + 1)
    c_col[order + 1] = math.sqrt(max(pad, 0.0) / 2.0)
    d_col[order + 1] = math.sqrt(max(pad, 0.0) / 2.0)
    _, w = _householder(c_col)
    w = np.zeros(live) if w is None else np.ascontiguousarray(w.real[:live])
    return w, c_col.real[:live].copy(), d_col[:live].copy()


def _minus_a(state: np.ndarray, w: np.ndarray, unphase: np.ndarray,
             table: np.ndarray, slabs: np.ndarray) -> None:
    """state <- -A state in place, state of shape (order + 2, 2, 2^order),
    axes row, flag, ancilla order .. 1, A the same on every channel (module
    docstring); ``w`` is P_L's Householder vector on the live rows,
    ``unphase`` D^dag, ``table`` the sign table and ``slabs`` two row slabs."""
    rows = state.reshape(len(state), -1)
    _phase_rows(rows, unphase)  # P_R = D P_L D^dag; D goes with SELECT
    _reflect_rows(rows, w, _project(rows, w, slabs[0]), slabs[1])
    for row, signs in zip(state[1:-1], table[1:]):
        for half in row:
            half *= signs
    _swap_flag(state[-1], slabs[1])
    _reflect_rows(rows, w, _project(rows, w, slabs[0]), slabs[1], negate=True)


def _taylor_channels(a: np.ndarray, frames: np.ndarray, r: int, maps: tuple,
                     on_segment) -> np.ndarray:
    """r segments of the circuit (module docstring) on the s channels of
    rungs a, in their frames V = ``frames``: K_0 .. K_r by r applications of
    -A (``_minus_a``) on one state, each read as its class sums G_j(w), then
    the s scalar recurrences together.  ``maps`` is (w, c, d) on the live
    rows (``_segment_maps``).  ``on_segment(psi)``, when given, reads the
    states after each segment, rebuilt from the K_j as psi of shape
    (order + 2, s, 2, 2^order).  Returns the s channel values."""
    w, c, d = maps
    live = len(w)
    order = live - 2
    table = _sign_table(order)
    unphase = _row_phases(order).conj()  # D^dag
    weights = np.bitwise_count(np.arange(1 << order))  # each cell's Hamming weight
    state = np.zeros((live, 2, 1 << order), dtype=complex)
    state[0, 0] = 1.0  # K_0 = e_0 (x) 1
    slabs = np.empty((2, state[0].size), dtype=complex)
    sums = np.empty((r + 1, order + 1), dtype=complex)  # G_j(w)
    kept = []
    for j in range(r + 1):
        if j:
            _minus_a(state, w, unphase, table, slabs)
        sums.real[j] = np.bincount(weights, state[0, 0].real, order + 1)
        sums.imag[j] = np.bincount(weights, state[0, 0].imag, order + 1)
        if on_segment is not None:
            kept.append(state.copy())

    # reads[mu, j] = <e_mu, v^(x)order o K_j>, each class summed before weighting
    w_class = np.arange(order + 1)
    p2, q2 = (1.0 + a)[:, None] / 2.0, (1.0 - a)[:, None] / 2.0
    reads = (p2 ** (order - w_class) * q2 ** w_class) @ sums.T
    # W = sum_{k <= order} c_k d_k a^k: the padding row has no zero cell
    w_dag = np.polyval((c[:-1] * d[:-1])[::-1], a).conj()
    # gamma_j of psi_t is coefs[:, start + j], the window coefs[:, start:]
    # with start = r - t: shifting gamma up one place (-A psi) moves its
    # start down one
    coefs = np.zeros((len(a), r + 1), dtype=complex)
    start = r
    coefs[:, start] = 1.0  # psi_0 = e
    if on_segment is not None:
        kept = np.stack(kept)
        zero = np.ones((len(a), 1))  # v^(x)order on each channel
        for _ in range(order):
            zero = (zero[:, :, None] * frames[:, None, 0, :]).reshape(len(a), -1)
    for t in range(1, r + 1):
        held = coefs[:, start:]
        zero_in = np.einsum("ij,ij->i", held, reads[:, :t])  # <e, psi>
        y0 = -np.einsum("ij,ij->i", held, reads[:, 1:t + 1])  # <e, A psi>
        start -= 1  # -A psi
        coefs[:, start + 1] += 2.0 * (2.0 * w_dag * y0 - zero_in)  # - coef A e
        coefs[:, start] = 2.0 * y0  # + 2 y0 e
        if on_segment is not None:
            psi = np.tensordot(coefs[:, start:], kept[:t + 1], axes=(1, 0))
            psi *= zero[:, None, None, :]
            on_segment(psi.transpose(1, 0, 2, 3))
    return np.einsum("ij,ij->i", coefs, reads)
