"""Exact simulation substrate.

States are stored as a set of branches: every arithmetic register is tracked
as a classical basis label (an integer bit pattern, one per branch), while the
remaining registers share a dense complex amplitude array per branch.  All
arithmetic gates are basis permutations, so this representation is exact and
sidesteps the exponential width of the arithmetic registers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimError",
    "FixedPointSpec",
    "Register",
    "RegisterLayout",
    "SimState",
    "DensityOperator",
    "apply_unitary",
    "partial_trace",
    "operator_norm_distance",
    "sample_measurement",
]

ATOL_UNITARY = 1e-10


class SimError(RuntimeError):
    """Contract violation inside the simulator."""


@dataclass(frozen=True)
class FixedPointSpec:
    """Unsigned fixed point on ``bits`` qubits covering [0, 2**int_bits).

    The default single integer bit gives the range [0, 2) with bits-1
    fractional bits and representation error at most 2**-(bits-1) per value.
    Wider ranges keep the same bit budget and coarsen the grid; callers that
    need headroom for powers of norms widen int_bits explicitly.
    """

    bits: int
    int_bits: int = 1

    def __post_init__(self):
        if self.bits < 2 or not (1 <= self.int_bits < self.bits):
            raise SimError("invalid fixed-point spec")

    @property
    def frac_bits(self) -> int:
        return self.bits - self.int_bits

    @property
    def resolution(self) -> float:
        return 2.0 ** (-self.frac_bits)

    @property
    def max_label(self) -> int:
        return (1 << self.bits) - 1

    def encode(self, value: float) -> int:
        """Round-to-nearest-even onto the grid; raises on overflow."""
        if not (value >= 0) or not math.isfinite(value):
            raise SimError(f"value {value!r} not representable (unsigned)")
        scaled = value * (1 << self.frac_bits)
        label = round(scaled)  # banker's rounding
        if label > self.max_label:
            raise OverflowError(f"value {value} exceeds fixed-point range")
        return label

    def decode(self, label: int) -> float:
        return label * self.resolution


def round_int_div(num: int, den: int) -> int:
    """Round-half-even of num/den for nonnegative integers, exactly."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q & 1):
        q += 1
    return q


@dataclass(frozen=True)
class Register:
    name: str
    qubits: int
    kind: str = "index"  # index | coefficient | flag | arithmetic
    fp: FixedPointSpec | None = None

    def __post_init__(self):
        if self.qubits < 1:
            raise SimError("register needs at least one qubit")
        if self.kind not in ("index", "coefficient", "flag", "arithmetic"):
            raise SimError(f"unknown register kind {self.kind!r}")
        if self.kind == "arithmetic":
            if self.fp is None:
                raise SimError("arithmetic register needs a FixedPointSpec")
            if self.fp.bits != self.qubits:
                raise SimError("fixed-point width must match register width")


class RegisterLayout:
    """Ordered register list; tensor order is declaration order."""

    def __init__(self, registers):
        regs = list(registers)
        names = [r.name for r in regs]
        if len(set(names)) != len(names):
            raise SimError("register names must be unique")
        self.registers = regs
        self.by_name = {r.name: r for r in regs}
        self.dense = [r for r in regs if r.kind != "arithmetic"]
        self.arith = [r for r in regs if r.kind == "arithmetic"]
        self.dense_axis = {r.name: i for i, r in enumerate(self.dense)}
        self.arith_slot = {r.name: i for i, r in enumerate(self.arith)}
        self.dense_dims = tuple(1 << r.qubits for r in self.dense)
        self.total_qubits = sum(r.qubits for r in regs)

    def __contains__(self, name):
        return name in self.by_name

    def spec(self, name: str) -> FixedPointSpec:
        reg = self.by_name[name]
        if reg.fp is None:
            raise SimError(f"register {name} carries no fixed-point spec")
        return reg.fp


class SimState:
    """Hybrid state: map {arithmetic labels -> dense amplitude array}."""

    def __init__(self, layout: RegisterLayout, branches=None):
        self.layout = layout
        if branches is None:
            vec = np.zeros(layout.dense_dims, dtype=complex)
            vec[(0,) * len(layout.dense_dims)] = 1.0
            branches = {(0,) * len(layout.arith): vec}
        self.branches = branches

    # -- basics ------------------------------------------------------------

    def copy(self) -> "SimState":
        return SimState(self.layout, {k: v.copy() for k, v in self.branches.items()})

    def norm(self) -> float:
        return math.sqrt(sum(float(np.vdot(v, v).real) for v in self.branches.values()))

    def inner(self, other: "SimState") -> complex:
        tot = 0.0 + 0.0j
        for labels, vec in other.branches.items():
            mine = self.branches.get(labels)
            if mine is not None:
                tot += np.vdot(mine, vec)
        return tot

    def prune(self, tol: float = 1e-14):
        dead = [k for k, v in self.branches.items()
                if np.max(np.abs(v)) <= tol]
        for k in dead:
            if len(self.branches) > 1:
                del self.branches[k]

    # -- dense operations ----------------------------------------------------

    def _target_axes(self, targets):
        return [self.layout.dense_axis[t] for t in targets]

    def apply_dense(self, u: np.ndarray, targets, controls=None):
        """Apply unitary ``u`` to the listed dense registers (axis order as
        given).  ``controls`` maps dense register names to required basis
        values; non-matching slices are untouched."""
        axes = self._target_axes(targets)
        dims = [self.layout.dense_dims[a] for a in axes]
        dim = int(np.prod(dims))
        if u.shape != (dim, dim):
            raise SimError("unitary shape does not match target registers")
        ctrl_axes, ctrl_vals = [], []
        if controls:
            for name, val in controls.items():
                ctrl_axes.append(self.layout.dense_axis[name])
                ctrl_vals.append(val)
        nax = len(self.layout.dense_dims)
        for labels, vec in self.branches.items():
            work = np.moveaxis(vec, ctrl_axes + axes, range(len(ctrl_axes) + len(axes)))
            sub = work[tuple(ctrl_vals)] if ctrl_vals else work
            flat = sub.reshape(dim, -1)
            sub[...] = (u @ flat).reshape(sub.shape)
            self.branches[labels] = np.moveaxis(
                work, range(len(ctrl_axes) + len(axes)), ctrl_axes + axes)

    def apply_branch_dense(self, fn, targets):
        """Like apply_dense but the unitary may depend on the branch labels:
        ``fn(labels) -> matrix`` (or None to skip the branch)."""
        axes = self._target_axes(targets)
        dims = [self.layout.dense_dims[a] for a in axes]
        dim = int(np.prod(dims))
        for labels, vec in self.branches.items():
            u = fn(labels)
            if u is None:
                continue
            if u.shape != (dim, dim):
                raise SimError("unitary shape does not match target registers")
            work = np.moveaxis(vec, axes, range(len(axes)))
            flat = work.reshape(dim, -1)
            work[...] = (u @ flat).reshape(work.shape)
            self.branches[labels] = np.moveaxis(work, range(len(axes)), axes)

    def predicate_mask(self, predicate, labels) -> np.ndarray:
        """Boolean array of a dense-basis predicate, for reuse across
        repeated diagonal applications.  Predicates take the index grid:
        ``predicate(np.indices(dense_dims, sparse=True), labels)`` is called
        once and must act elementwise (``idx[axis] == v``, ``&``, not
        ``and``); the result is broadcast, read-only, to ``dense_dims``."""
        dims = self.layout.dense_dims
        hit = predicate(np.indices(dims, sparse=True), labels)
        return np.broadcast_to(np.asarray(hit, dtype=bool), dims)

    # -- label (arithmetic) operations ---------------------------------------

    def split_by(self, dense_regs):
        """Refine branches so every branch is a basis state on the listed
        dense registers.  Returns ``{(labels, dense values): slab}`` over the
        live cells, in branch then C order; a slab is a view of the branch
        over the remaining dense registers."""
        axes = [self.layout.dense_axis[r] for r in dense_regs]
        rest = tuple(range(len(axes), len(self.layout.dense_dims)))
        out = {}
        for labels, vec in self.branches.items():
            moved = np.moveaxis(vec, axes, range(len(axes)))
            for idx in np.argwhere(np.abs(moved).max(axis=rest) != 0).tolist():
                out[(labels, tuple(idx))] = moved[tuple(idx)]
        return out

    def apply_label_map(self, fn, dense_controls=()):
        """Apply a basis-permutation on the arithmetic labels.

        ``fn(dense_values, labels) -> new_labels``.  When the map depends on
        dense register contents the state is refined so each branch carries a
        definite value of those registers (``split_by``; each slab lands in
        its cell of the new label's array).  Branches reaching identical labels
        are merged (amplitude addition), which is what makes uncomputation and
        subsequent interference exact.
        """
        new = {}
        if dense_controls:
            axes = [self.layout.dense_axis[r] for r in dense_controls]
            front = range(len(axes))
            for (labels, dvals), slab in self.split_by(dense_controls).items():
                nl = tuple(fn(dvals, labels))
                if nl not in new:
                    new[nl] = np.zeros(self.layout.dense_dims, dtype=complex)
                np.moveaxis(new[nl], axes, front)[dvals] += slab
        else:
            for labels, vec in self.branches.items():
                nl = tuple(fn((), labels))
                if nl in new:
                    new[nl] = new[nl] + vec
                else:
                    new[nl] = vec
        self.branches = new
        self.prune()

    # -- projection / post-selection -----------------------------------------

    def project(self, predicate, renormalize=True):
        """Keep amplitude where ``predicate(idx, labels)`` holds, with ``idx``
        the index grid of ``predicate_mask``.  Returns the retained squared
        weight."""
        weight = 0.0
        for labels, vec in self.branches.items():
            keep = self.predicate_mask(predicate, labels) & (vec != 0)
            masked = np.where(keep, vec, 0.0)
            weight += float(np.vdot(masked, masked).real)
            self.branches[labels] = masked
        if renormalize:
            if weight <= 0:
                raise SimError("projection annihilated the state")
            root = math.sqrt(weight)
            for labels in self.branches:
                self.branches[labels] = self.branches[labels] / root
        self.prune()
        return weight

    def reflect_about(self, ref: "SimState"):
        """psi -> 2 <ref|psi> ref - psi."""
        ov = ref.inner(self)  # <ref|psi>
        keys = set(self.branches) | set(ref.branches)
        zeros = np.zeros(self.layout.dense_dims, dtype=complex)
        new = {}
        for k in keys:
            mine = self.branches.get(k, zeros)
            theirs = ref.branches.get(k, zeros)
            new[k] = 2.0 * ov * theirs - mine
        self.branches = new
        self.prune()

    # -- measurement / density-matrix extraction ------------------------------

    def marginal(self, reg: str) -> np.ndarray:
        """Born-rule distribution of one register."""
        if reg not in self.layout:
            raise SimError(f"unknown register {reg!r}")
        r = self.layout.by_name[reg]
        if r.kind == "arithmetic":
            dim = 1 << r.qubits
            probs = np.zeros(dim)
            slot = self.layout.arith_slot[reg]
            for labels, vec in self.branches.items():
                probs[labels[slot]] += float(np.vdot(vec, vec).real)
            return probs
        axis = self.layout.dense_axis[reg]
        probs = np.zeros(self.layout.dense_dims[axis])
        for vec in self.branches.values():
            sq = np.abs(vec) ** 2
            probs += np.sum(sq, axis=tuple(i for i in range(vec.ndim) if i != axis))
        return probs

    def dense_vector(self) -> np.ndarray:
        """Flatten to the full statevector including arithmetic registers.

        Register order is layout declaration order.  Guarded to 2**20
        amplitudes; intended for small equivalence tests.
        """
        dims = [1 << r.qubits for r in self.layout.registers]
        total = int(np.prod(dims))
        if total > (1 << 20):
            raise SimError("state too large to flatten densely")
        out = np.zeros(dims, dtype=complex)
        for labels, vec in self.branches.items():
            idx = tuple(
                labels[self.layout.arith_slot[r.name]]
                if r.kind == "arithmetic" else slice(None)
                for r in self.layout.registers)
            out[idx] += vec
        return out.reshape(total)


@dataclass
class DensityOperator:
    matrix: np.ndarray
    subsystem: tuple

    def validate(self):
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise SimError("density operator is not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise SimError("density operator trace differs from 1")
        if np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)) < -1e-10:
            raise SimError("density operator is not PSD")
        return self


# ---------------------------------------------------------------------------
# module-level operations (spec surface)

def apply_unitary(state: SimState, u: np.ndarray, targets) -> SimState:
    """Apply ``u`` to the listed dense registers, checking unitarity."""
    u = np.asarray(u, dtype=complex)
    if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > ATOL_UNITARY:
        raise SimError("operator is not unitary within 1e-10")
    state.apply_dense(u, list(targets))
    return state


def partial_trace(state: SimState, keep) -> DensityOperator:
    """Reduced density operator over the kept registers (any kinds).

    Branches with different labels on a traced-out arithmetic register are
    orthogonal and contribute independently; kept arithmetic registers
    contribute their label as a basis index.
    """
    keep = list(keep)
    lay = state.layout
    for k in keep:
        if k not in lay:
            raise SimError(f"unknown register {k}")
    keep_dense = [k for k in keep if lay.by_name[k].kind != "arithmetic"]
    keep_arith = [k for k in keep if lay.by_name[k].kind == "arithmetic"]
    keep_axes = [lay.dense_axis[k] for k in keep_dense]
    other_axes = [i for i in range(len(lay.dense)) if i not in keep_axes]
    kd = int(np.prod([lay.dense_dims[a] for a in keep_axes])) if keep_axes else 1
    ka_dims = [1 << lay.by_name[k].qubits for k in keep_arith]
    ka = int(np.prod(ka_dims)) if ka_dims else 1
    if kd * ka > (1 << 14):
        raise SimError("kept subsystem too large")
    slots = [lay.arith_slot[k] for k in keep_arith]
    other_slots = [i for i in range(len(lay.arith)) if i not in slots]

    rho = np.zeros((ka * kd, ka * kd), dtype=complex)
    # group branches by the traced-out labels; within a group, cross terms
    # between kept-label sectors survive.
    groups = {}
    for labels, vec in state.branches.items():
        key = tuple(labels[i] for i in other_slots)
        groups.setdefault(key, []).append((labels, vec))
    for _, members in groups.items():
        mats = []
        for labels, vec in members:
            arow = 0
            for s, d in zip(slots, ka_dims):
                arow = arow * d + labels[s]
            moved = np.moveaxis(vec, keep_axes, range(len(keep_axes)))
            mats.append((arow, moved.reshape(kd, -1)))
        for arow, m in mats:
            for brow, mb in mats:
                rho[arow * kd:(arow + 1) * kd, brow * kd:(brow + 1) * kd] += m @ mb.conj().T
    order = keep_arith + keep_dense  # basis order: kept arith first, then dense
    return DensityOperator(rho, tuple(order))


def operator_norm_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral norm of a - b (largest singular value)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise SimError("operands must share a shape")
    return float(np.linalg.norm(a - b, 2))


def sample_measurement(state: SimState, register: str, shots: int, seed=None) -> dict:
    """Seeded Born-rule sampling of one register; returns {outcome: count}."""
    if shots < 1:
        raise SimError("shots must be positive")
    probs = state.marginal(register)
    total = probs.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-8):
        probs = probs / total
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(probs), size=shots, p=probs)
    vals, counts = np.unique(draws, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}
