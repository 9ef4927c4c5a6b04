"""Block-Hamiltonian simulation: exp(-i H t) for H = alpha block(be), returned
in the eigenbasis of H.

Two paths: ``oracle_exponential`` exponentiates the verified encoded block
exactly (the contract of optimal block-Hamiltonian simulation, taken as an
oracle), while ``lcu_taylor`` builds the truncated-Taylor linear combination
over controlled queries to the encoding unitary, segmented so one exact
oblivious-amplification round per segment restores unit scale.  The second
path is the one whose query counts are metered.

A segment is the circuit S = -A R A^dag R A, R = 2 Pi - I.  It is simulated
with one pass of A by two identities that hold because A is unitary:
A R A^dag = 2 E E^dag - I with E = A Pi, and E^dag (R A psi) = 2 W^dag w - Pi psi
with W = Pi A Pi and w = Pi A psi.  The meter counts the circuit, not the
simulation: 3 * order queries per segment.

The state holds only the live rows 0 .. order + 1 of the coefficient
register; the others stay exactly zero.  A row is laid out as flag, ancilla
order .. 1, subject, so the cell where ancillas k+1 .. order and the flag are
zero is the row's first a_dim^k s amplitudes.  The state is one buffer,
updated in place, its scratch two or three row slabs allocated with it:
nothing of a slab's size is allocated in the segment loop.
P_L = I - 2 n n^T, the ``stateprep._householder`` reflection whose first
column is c, is real and its own adjoint, and P_R = D P_L D^dag exactly,
D = diag((-i)^k) the phases of d: each map is one GEMV and one update per
row on the float64 views, P_R's D^dag a phase pass before it.  Between the
maps SELECT leaves X = SELECT P_R psi, and the rank-s update is folded into
X before P_L^dag: E c = P_L^dag Y(c), where Y(c) holds d_k V_k (|0^k> (x) c)
in row k's cell, V_k = U_k ... U_1, so the new state
R A psi - E (2 E^dag R A psi) is -P_L^dag (X + Y(coef)) with 2 y0 added back
on the all-zero cell, y0 = (P_L^dag X) there and
coef = 2 (2 W^dag y0 - Pi psi).  W^dag needs only B^k, k <= order, B being
U's top-left block.

The circuit runs on invariant subject channels.  A dilation
U = [[A, B], [B, -A]], B = sqrt(I - A^2), A Hermitian, has every block a
function of A, so in A's eigenbasis Q, (I (x) Q^dag) U (I (x) Q) is the
direct sum over the eigenvectors of ancilla-only rungs
u_mu = [[a, b], [conj b, -a]], each a reflection u = V diag(1, -1) V^dag
(the invariant subspaces of qubitization: Low and Chuang, Quantum 3, 163
(2019)), and P_R, P_L and R never touch the subject.  ``_lcu_taylor``
rotates U into the eigenbasis of the h it receives.  When no cross-channel
entry exceeds ``_CHANNEL_FLOOR``, the rotation's round-off, and every rung
is a reflection within it (``_reflection_basis``, V in closed form), it
runs the s one-dimensional channels stacked, one pass of the r segments
(``_taylor_channels``), each channel's ancillas in its V basis, where U_j
is diag(1, -1) on ancilla j: row k's SELECT U_1 ... U_k is the sign
T_k(z) = prod_{j <= k} (-1)^(z_j) of each cell z, one table for all
channels with P_R's D folded in (``_sign_table``), and E's zero-ancilla
cell is the product vector v^(x)order, v = V^dag |0>.  Otherwise it runs
the unsplit circuit on the whole subject in the original basis, one input
column after another (``_taylor_whole``).  All or nothing suffices: every
dilation the pipeline meters splits (its largest dropped entry is below
1e-15), while an encoding whose blocks are not functions of A (a
combination's SELECT) leaves cross-channel entries of order one.  The s
channels take one sign per amplitude where the whole subject takes a_dim s
multiply-adds, in r segments instead of s r, on a stack the size of one
column's state.  The meter, the series order and the size guard are the
s-dimensional circuit's, counted once, and the meter counts the circuit's
rungs, not the products that simulate them.

Simulation returns an ``Evolution``: U = Q diag(u) Q^dag in the eigenbasis
Q of h = alpha block, from the one ``eigh`` of h.  The oracle path has
u = e^(-i lambda t), a split ``_lcu_taylor`` the channel values beta_mu, and
a whole-subject run the pinching diag(Q^dag B Q) of its block B, which keeps
the contract: |u_mu - e^(-i lambda_mu t)| <= ||B - e^(-iht)||.
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
# lcu path: the largest cross-channel entry of U in h's eigenbasis that the
# channel split drops, as round-off.  The rotation leaves 1e-16 to 1e-13 on
# dilations up to s = 8, an eigenvalue at the scale included; a repeated
# one there leaves sqrt(round-off), about 5e-9
_CHANNEL_FLOOR = 1e-12


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
    eigenbasis of h, claiming ||U - e^(-iht)|| <= epsilon; ``meta`` holds
    the path, its query count and the metered path's counters."""
    basis: np.ndarray            # (n, n) unitary, the eigenvectors of h
    phases: np.ndarray           # (n,), U's eigenvalue on each column
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
    return _lcu_taylor(be, spectrum, cfg)


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


def _real_split(mat: np.ndarray) -> tuple:
    """A matrix as (real part, imaginary part), the second None when it is
    exactly zero, for ``_gemm_into``."""
    im = mat.imag
    return (np.ascontiguousarray(mat.real),
            np.ascontiguousarray(im) if im.any() else None)


def _gemm_into(factor: tuple, x: np.ndarray, out: np.ndarray, spare) -> None:
    """out = factor @ x for C-contiguous complex x and out of shape (lead,
    cols) and a ``_real_split`` factor: real GEMMs on their float64 views,
    whose columns are interleaved real and imaginary parts.  The imaginary
    part's GEMM runs only when it is nonzero, into ``spare``, a flat complex
    buffer of at least x's size."""
    re, im = factor
    xf = x.view(np.float64)
    np.matmul(re, xf, out=out.view(np.float64))
    if im is not None:  # out += 1j (im @ x), without a 1j-scaled temporary
        part = spare[:x.size].reshape(x.shape)
        np.matmul(im, xf, out=part.view(np.float64))
        out.real -= part.imag
        out.imag += part.real


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


def _zero_block(c: np.ndarray, d: np.ndarray, top: np.ndarray) -> np.ndarray:
    """W = <0| A |0> = sum_{k <= order} c_k d_k B^k for a stack of zero-ancilla
    blocks B of U, c and d on the live rows: the padding row has nothing on
    the zero cell."""
    w_sum = np.zeros(top.shape, dtype=complex)
    b_k = np.broadcast_to(np.eye(top.shape[-1], dtype=complex), top.shape)
    for c_k, d_k in zip(c[:-1], d[:-1]):
        w_sum += c_k * d_k * b_k
        b_k = top @ b_k
    return w_sum


def _swap_flag(pad: np.ndarray, slab: np.ndarray) -> None:
    """Swap the padding row's flag halves, its axis 0, in place through a
    slab: numpy would buffer pad[0] = pad[1]."""
    held = slab[:pad.size].reshape(pad.shape)
    np.copyto(held, pad)
    pad[...] = held[::-1]


def _reflection_basis(rungs: np.ndarray):
    """V with u = V diag(1, -1) V^dag for each rung u = [[a, b], [conj b,
    -a]] of a stack of shape (B, 2, 2), or None when some rung is not such a
    reflection within ``_CHANNEL_FLOOR``, or not 2 x 2.  V = [[p, -conj q],
    [q, conj p]], (p, q) the unit +1 eigenvector: (1 + a, conj b)
    normalized for a >= 0, (b, 1 - a) for a < 0; either norm is at least 1,
    so a = +-1 divides by no zero."""
    if rungs.shape[1:] != (2, 2):
        return None
    a, b = rungs[:, 0, 0].real, rungs[:, 0, 1]
    upper = a >= 0.0
    p = np.where(upper, 1.0 + a, b)
    q = np.where(upper, b.conj(), 1.0 - a)
    norm = np.sqrt(np.abs(p) ** 2 + np.abs(q) ** 2)
    p, q = p / norm, q / norm
    frames = np.stack([np.stack([p, -q.conj()], -1), np.stack([q, p.conj()], -1)], 1)
    defect = np.abs((frames * [1.0, -1.0]) @ frames.conj().transpose(0, 2, 1) - rungs)
    return frames if defect.max() <= _CHANNEL_FLOOR else None


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


@functools.lru_cache(maxsize=None)
def _select_plan(order: int) -> tuple:
    """``_taylor_select``'s axis permutations of a row, axes flag, order
    ancillas, subject: for each row k = 1 .. order, its steps as (transpose,
    rungs in the step), then the transpose that restores the row's layout."""
    subject = order + 1  # the subject's axis
    rows = []
    for k in range(1, order + 1):
        axes, steps, done = list(range(subject + 1)), [], 0
        while done < k:
            step = min(2, k - done)
            group = list(range(order - done - step + 1, order - done + 1))
            group.append(subject)
            rest = [a for a in axes if a not in group]
            steps.append((tuple(axes.index(a) for a in group + rest), step))
            axes = group + rest
            done += step
        rows.append((tuple(steps), tuple(np.argsort(axes).tolist())))
    return tuple(rows)


def _select_factors(u_mat: np.ndarray, sub: int) -> tuple:
    """SELECT's two factors for the rung U of shape (a_dim sub, a_dim sub),
    split by ``_real_split``: U on (ancilla, subject), and the fused pair
    F = U_{j+1} U_j on (ancilla j+1, ancilla j, subject), the same matrix
    for every j."""
    a_dim = u_mat.shape[0] // sub
    low = np.kron(np.eye(a_dim), u_mat)  # U_j, ancilla j+1 idle
    high = (low.reshape((a_dim, a_dim, sub) * 2)
            .transpose(1, 0, 2, 4, 3, 5).reshape(low.shape))  # U_{j+1}
    return _real_split(u_mat), _real_split(high @ low)


def _taylor_select(psi: np.ndarray, factors: tuple, order: int,
                   slabs: np.ndarray) -> np.ndarray:
    """SELECT of the truncated-Taylor LCU, in place on psi of shape (live,
    2) + (a_dim,) * order + (sub,), a row's axes running flag, ancilla order
    .. 1, subject: row k <= order takes U_1 ... U_k, U_j = U on (ancilla j,
    subject); the padding row sets the spare flag.  ``factors`` is
    ``_select_factors`` of U; ``slabs`` holds two flat complex buffers of
    one row each, three when U is complex.

    Row k runs floor(k/2) steps with the fused pair F = U_{j+1} U_j, then
    U_k alone when k is odd, each one real GEMM on the float64 views
    (``_gemm_into``).  A step copies the row, transposed, into slab 0 and
    writes its GEMM into slab 1.  The row is rotated rather than moved back
    after each step: the step's (ancilla .., subject) axes come to the
    front and the others keep their order behind them, so the ancillas
    done move behind the subject and the next ones are always the last
    axes.  The row is written back once, after its last step."""
    one, pair = factors
    spare = slabs[2] if len(slabs) > 2 else None
    for k, (steps, back) in enumerate(_select_plan(order), start=1):
        x = psi[k]
        for perm, step in steps:
            moved = x.transpose(perm)
            src = slabs[0].reshape(moved.shape)
            np.copyto(src, moved)
            x = slabs[1].reshape(moved.shape)
            lead = math.prod(moved.shape[:step + 1])
            _gemm_into(pair if step == 2 else one, src.reshape(lead, -1),
                       x.reshape(lead, -1), spare)
        psi[k] = x.transpose(back)
    _swap_flag(psi[order + 1], slabs[0])
    return psi


def _lcu_taylor(be: BlockEncoding, spectrum: tuple, cfg: SimulationConfig,
                on_segment=None) -> Evolution:
    """Segmented truncated-Taylor series over controlled encoding queries,
    A = (P_L^dag (x) I) SELECT (P_R (x) I), for the Hermitian h = alpha
    block(be) whose ``eigh`` is ``spectrum`` = (lambda, Q), split into
    channels or run whole as the module docstring says.  The evolution's
    eigenvalues are the channel values, or a whole-subject block's pinching
    to Q, whose dropped off-diagonal part, in the spectral norm, is
    ``meta["off_diagonal"]`` (0 for a split run); the error
    max_mu |u_mu - e^(-i lambda_mu t)| against exp(-i h t) is measured on
    them.  ``on_segment(bases, frames, psi)``, when given, reads the state
    after each segment: psi of shape (order + 2, B, ...), B channels, each
    row psi[k, b] holding 2 a_dim^order sub amplitudes laid out flag,
    ancilla order .. 1, subject; the subject runs along the columns of
    bases[b], bases of shape (B, s, sub), and each ancilla along the
    columns of frames[b], frames of shape (B, a_dim, a_dim).  It is called r
    times for input column 0, then for column 1, up to sub - 1, channel b's
    input being bases[b][:, col]; it must not write to psi."""
    if be.backend != "dense":
        raise SimulationError("the metered path needs an explicit encoding unitary")
    s = be.subject_dim
    a_dim = be.unitary.shape[0] // s
    alpha = be.alpha
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
    total_dim = cdim * a_dim ** order * 2 * s
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

    u_mat = be.unitary
    vals, q = spectrum
    # U in h's eigenbasis as (ancilla, ancilla, subject, subject) blocks
    rotated = q.conj().T @ u_mat.reshape(a_dim, s, a_dim, s).transpose(0, 2, 1, 3) @ q
    split = False
    if np.abs(rotated * (1.0 - np.eye(s))).max() <= _CHANNEL_FLOOR:
        # channel mu: the column q[:, mu], its rung the (mu, mu) block
        rungs = np.ascontiguousarray(np.diagonal(rotated, 0, 2, 3).transpose(2, 0, 1))
        frames = _reflection_basis(rungs)
        split = frames is not None
    if split:
        bases = q.T[:, :, None]
        psi = np.empty((live, 2, s, 2 ** order), dtype=complex)
        slabs = np.empty((2, psi[0].size), dtype=complex)
    else:
        bases, frames = np.eye(s)[None], np.eye(a_dim)[None]
        psi = np.empty((live, 1, 2 * a_dim ** order * s), dtype=complex)
        slabs = np.empty((3 if u_mat.imag.any() else 2, psi[0].size), dtype=complex)
    hook = functools.partial(on_segment, bases, frames) if on_segment else None
    if split:
        phases = _taylor_channels(rungs, frames, r, maps, psi, slabs, hook)
        off_diagonal = 0.0
    else:
        pinched = q.conj().T @ _taylor_whole(u_mat, s, x, r, maps, psi, slabs, hook) @ q
        phases = pinched.diagonal().copy()
        off_diagonal = float(np.linalg.norm(pinched - np.diag(phases), 2))

    measured = float(np.max(np.abs(phases - np.exp(-1j * vals * cfg.t))))
    if measured > cfg.eps:
        raise SimulationError(
            f"lcu_taylor error {measured:.3e} exceeds the budget {cfg.eps:.3e}")
    return Evolution(q, phases, cfg.eps,
                     {"path": "lcu_taylor", "query_count": queries,
                      "segments": r, "order": order, "t": cfg.t,
                      "channels": len(bases), "measured_error": measured,
                      "off_diagonal": off_diagonal})


def _taylor_channels(rungs: np.ndarray, frames: np.ndarray, r: int, maps: tuple,
                     psi: np.ndarray, slabs: np.ndarray, on_segment) -> np.ndarray:
    """r segments of the circuit (module docstring) on a stack of B channels
    of one subject dimension, each in the reflection basis V = ``frames[b]``
    of its rung ``rungs[b]``, in place on psi of shape (order + 2, 2, B,
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
        zero = (zero[:, :, None] * frames[:, None, 0, :].conj()).reshape(batch, -1)
    zero_dag = zero.conj()[:, :, None]
    w_dag = _zero_block(c, d, rungs[:, :1, :1])[:, 0, 0].conj()
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


def _taylor_whole(u_mat: np.ndarray, sub: int, x: float, r: int, maps: tuple,
                  psi: np.ndarray, slabs: np.ndarray, on_segment) -> np.ndarray:
    """r segments of the circuit (module docstring) over the whole subject
    of dimension sub, one input column after another, in place on psi of
    shape (order + 2, 1, 2 a_dim^order sub): the rung ``u_mat`` on
    (ancilla, subject), SELECT by ``_taylor_select``, D a phase pass after
    P_L.  ``maps`` and ``on_segment`` are as in ``_taylor_channels``;
    ``slabs`` holds two row slabs, three when U is complex.  Returns the
    (sub, sub) block."""
    live = psi.shape[0]
    order = live - 2
    w, c, d = maps
    a_dim = u_mat.shape[0] // sub
    factors = _select_factors(u_mat, sub)
    phase = _row_phases(order)  # D
    unphase = phase.conj()

    # E (|0>|c>) before P_L^dag: SELECT on |0..0>|c> leaves row k <= order as
    # d_k V_k (|0^k> (x) c), V_k = U_k ... U_1, on the cell where the later
    # ancillas and the flag are zero, the row's prefix of a_dim^k sub
    # amplitudes laid out (ancilla k .. 1, subject).  Built rung by rung:
    # term k + 1 is rungs[k] applied to term k, the columns U (|0> (x) I_sub)
    # scaled by d_{k+1} / d_k, as (a_dim, sub, sub) blocks of right factors.
    # The padding row sets the flag instead: d_{order+1} c past the flag.
    # W^dag needs only the zero-ancilla cells: <0^k| V_k |0^k> = B^k, B the
    # top-left block of U.
    flagged = psi.shape[2] // 2  # where a row's flag-set half starts
    first = u_mat[:, :sub].reshape(a_dim, sub, sub).transpose(0, 2, 1)
    rungs = [math.sqrt(x / (k + 1)) * -1j * first for k in range(order)]
    w_dag = _zero_block(c, d, u_mat[:sub, :sub]).conj().T
    rows = psi.reshape(live, -1)
    flat = rows.view(np.float64)  # Y is added here: numpy buffers a strided complex add
    selected = psi.reshape((live, 2) + (a_dim,) * order + (sub,))

    def segment():
        zero_in = rows[0, :sub].copy()
        _phase_rows(rows, unphase)
        _reflect_rows(rows, w, _project(rows, w, slabs[0]), slabs[1])
        _phase_rows(rows, phase)
        _taylor_select(selected, factors, order, slabs)
        y0 = c @ rows[:, :sub]  # P_L^dag X on the all-zero cell, its first row c
        coef = 2.0 * (2.0 * w_dag @ y0 - zero_in)  # 2 E^dag R A psi
        term = slabs[0][:sub]
        np.multiply(d[0], coef, out=term)
        rows[0, :sub] += term
        for k, rung in enumerate(rungs):  # X + Y, one cell at a time
            cell = slabs[(k + 1) % 2][:a_dim * term.size].reshape(a_dim, -1, sub)
            np.matmul(term.reshape(1, -1, sub), rung, out=cell)
            term = cell.reshape(-1)
            flat[k + 1, :2 * term.size] += term.view(np.float64)
        rows[order + 1, flagged:flagged + sub] += d[order + 1] * coef
        _reflect_rows(rows, w, _project(rows, w, slabs[0]), slabs[1], negate=True)
        rows[0, :sub] += 2.0 * y0

    block = np.zeros((sub, sub), dtype=complex)
    for col in range(sub):
        psi.fill(0.0)
        rows[0, col] = 1.0
        for _ in range(r):
            segment()
            if on_segment is not None:
                on_segment(psi)
        block[:, col] = rows[0, :sub]
    return block
