"""Exact simulation substrate.

States are stored as a set of branches: every arithmetic register is tracked
as a classical basis label (an integer bit pattern, one per branch), while the
remaining registers share a dense complex amplitude array per branch.  All
arithmetic gates are basis permutations, so this representation is exact and
sidesteps the exponential width of the arithmetic registers.

A dense register that a label map conditions on becomes *split*: its basis
value moves into the branch key, after the arithmetic labels, and its axis
stays in every array with size 1.  Each branch then stores only the factor
over the free registers, so a label map controlled by two n-valued index
registers leaves n^2 branches of the free size instead of n^2 full arrays.
Dense axis numbers mean the same on split and joined states; an operation
that targets a split register joins it back first, a control on one picks
branches by their key, and ``join`` restores the plain form.
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
    "partial_trace",
    "operator_norm_distance",
    "sample_measurement",
]


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
    """Hybrid state: map {branch key -> dense amplitude array}.

    A branch key is the tuple of arithmetic labels followed by the basis
    values of the split dense registers; ``split`` lists their dense axes in
    key order.  Every array has the shape ``branch_shape()``: the dense
    dimensions with 1 on each split axis.
    """

    def __init__(self, layout: RegisterLayout, branches=None, split=()):
        self.layout = layout
        if branches is None:
            vec = np.zeros(layout.dense_dims, dtype=complex)
            vec[(0,) * len(layout.dense_dims)] = 1.0
            branches = {(0,) * len(layout.arith): vec}
        self.branches = branches
        self.split = tuple(split)

    # -- basics ------------------------------------------------------------

    def copy(self) -> "SimState":
        return SimState(self.layout, {k: v.copy() for k, v in self.branches.items()},
                        self.split)

    def branch_shape(self) -> tuple:
        return tuple(1 if a in self.split else d
                     for a, d in enumerate(self.layout.dense_dims))

    def _key_pos(self, axis: int) -> int:
        """Position of a split axis's value in the branch key."""
        return len(self.layout.arith) + self.split.index(axis)

    def sum_by_labels(self, terms):
        """Sum ``(key, term)`` pairs label by label, then over the labels in
        order of first appearance: the order in which the joined state's
        branches add up, so a reduction does not depend on which registers
        are split."""
        nl = len(self.layout.arith)
        per = {}
        for key, term in terms:
            per[key[:nl]] = per.get(key[:nl], 0.0) + term
        return sum(per.values(), 0.0)

    def norm(self) -> float:
        return math.sqrt(self.sum_by_labels(
            (k, float(np.vdot(v, v).real)) for k, v in self.branches.items()))

    def inner(self, other: "SimState") -> complex:
        other = other._with_split(self.split)
        return self.sum_by_labels(
            (key, np.vdot(self.branches[key], vec))
            for key, vec in other.branches.items() if key in self.branches)

    def prune(self, keys=None, tol: float = 1e-14):
        """Drop the branches whose amplitudes all lie within ``tol``, but
        never the last one.  With ``keys``, only those branches are
        examined."""
        dead = [k for k, v in self.branches.items()
                if (keys is None or k in keys) and np.max(np.abs(v)) <= tol]
        for k in dead:
            if len(self.branches) > 1:
                del self.branches[k]

    # -- split registers -------------------------------------------------------

    def split_by(self, dense_regs):
        """Split the listed dense registers: every branch becomes one branch
        per live basis value of them, keyed by those values after the
        existing key, holding a copy of its size-1 slab.  Registers already
        split stay as they are.  Returns the branch dict, in branch then C
        order of the new values."""
        lay = self.layout
        axes = [lay.dense_axis[r] for r in dense_regs
                if lay.dense_axis[r] not in self.split]
        if not axes:
            return self.branches
        nd = len(lay.dense_dims)
        perm = axes + [a for a in range(nd) if a not in axes]
        free = tuple(range(len(axes), nd))
        cell = [slice(None)] * nd
        out = {}
        for key, vec in self.branches.items():
            live = np.abs(vec.transpose(perm)).max(axis=free) != 0
            for idx in np.argwhere(live).tolist():
                for a, v in zip(axes, idx):
                    cell[a] = slice(v, v + 1)
                out[key + tuple(idx)] = vec[tuple(cell)].copy()
        self.branches = out
        self.split += tuple(axes)
        return out

    def join(self, dense_regs=None):
        """Join the listed split registers (all of them by default) back into
        the arrays: branches whose keys differ only in those values merge,
        each slab added into its cell of a zero array."""
        lay = self.layout
        axes = [a for a in self.split
                if dense_regs is None or lay.dense[a].name in dense_regs]
        if not axes:
            return
        nl = len(lay.arith)
        pos = [self._key_pos(a) for a in axes]
        kept = [self._key_pos(a) for a in self.split if a not in axes]
        shape = list(self.branch_shape())
        for a in axes:
            shape[a] = lay.dense_dims[a]
        cell = [slice(None)] * len(shape)
        out = {}
        for key, vec in self.branches.items():
            nk = key[:nl] + tuple(key[p] for p in kept)
            if nk not in out:
                out[nk] = np.zeros(shape, dtype=complex)
            for a, p in zip(axes, pos):
                cell[a] = slice(key[p], key[p] + 1)
            out[nk][tuple(cell)] += vec
        self.branches = out
        self.split = tuple(a for a in self.split if a not in axes)

    def _with_split(self, split) -> "SimState":
        """This state with exactly the given split axes, in that key order,
        for reading: ``self`` when they already agree, else a new state that
        may share arrays with this one."""
        split = tuple(split)
        if split == self.split:
            return self
        names = [r.name for r in self.layout.dense]
        out = SimState(self.layout, self.branches, self.split)
        out.join([names[a] for a in self.split if a not in split])
        out.split_by([names[a] for a in split])
        nl = len(self.layout.arith)
        order = [out._key_pos(a) for a in split]
        out.branches = {k[:nl] + tuple(k[p] for p in order): v
                        for k, v in out.branches.items()}
        out.split = split
        return out

    # -- dense operations ----------------------------------------------------

    def _target_axes(self, targets):
        return [self.layout.dense_axis[t] for t in targets]

    def _lead_perm(self, lead):
        """Transpose order bringing the ``lead`` axes to the front."""
        return lead + [a for a in range(len(self.layout.dense_dims)) if a not in lead]

    def apply_dense(self, u: np.ndarray, targets, controls=None):
        """Apply unitary ``u`` to the listed dense registers (axis order as
        given).  ``controls`` maps dense register names to required basis
        values; non-matching slices are untouched.  A split target is joined
        first; a split control selects branches by their key."""
        axes = self._target_axes(targets)
        dims = [self.layout.dense_dims[a] for a in axes]
        dim = int(np.prod(dims))
        if u.shape != (dim, dim):
            raise SimError("unitary shape does not match target registers")
        self.join(targets)
        picks, ctrl_axes, ctrl_vals = [], [], []
        for name, val in (controls or {}).items():
            axis = self.layout.dense_axis[name]
            if axis in self.split:
                picks.append((self._key_pos(axis), val))
            else:
                ctrl_axes.append(axis)
                ctrl_vals.append(val)
        perm = self._lead_perm(ctrl_axes + axes)
        for key, vec in self.branches.items():
            if any(key[p] != v for p, v in picks):
                continue
            work = vec.transpose(perm)
            sub = work[tuple(ctrl_vals)] if ctrl_vals else work
            flat = sub.reshape(dim, -1)
            sub[...] = (u @ flat).reshape(sub.shape)

    def apply_branch_dense(self, fn, targets):
        """Like apply_dense but the unitary may depend on the branch labels:
        ``fn(labels) -> matrix`` (or None to skip the branch), called once per
        distinct labels."""
        axes = self._target_axes(targets)
        dims = [self.layout.dense_dims[a] for a in axes]
        dim = int(np.prod(dims))
        self.join(targets)
        nl = len(self.layout.arith)
        perm = self._lead_perm(axes)
        mats = {}
        for key, vec in self.branches.items():
            labels = key[:nl]
            if labels not in mats:
                mats[labels] = fn(labels)
            u = mats[labels]
            if u is None:
                continue
            if u.shape != (dim, dim):
                raise SimError("unitary shape does not match target registers")
            work = vec.transpose(perm)
            work[...] = (u @ work.reshape(dim, -1)).reshape(work.shape)

    def predicate_mask(self, predicate, key) -> np.ndarray:
        """Boolean array of a dense-basis predicate on the branch ``key``, for
        reuse across repeated diagonal applications.  Predicates take the
        index grid: ``predicate(idx, labels)`` is called once with
        ``idx = np.indices(branch_shape(), sparse=True)``, a split axis's
        entry being its key value, and must act elementwise (``idx[axis] ==
        v``, ``&``, not ``and``); the result is broadcast, read-only, to the
        branch shape."""
        shape = self.branch_shape()
        idx = list(np.indices(shape, sparse=True))
        for a in self.split:
            idx[a] = idx[a] + key[self._key_pos(a)]
        hit = predicate(tuple(idx), key[:len(self.layout.arith)])
        return np.broadcast_to(np.asarray(hit, dtype=bool), shape)

    # -- label (arithmetic) operations ---------------------------------------

    def apply_label_map(self, fn, dense_controls=()):
        """Apply a basis-permutation on the arithmetic labels.

        ``fn(dense_values, labels) -> new_labels``.  When the map depends on
        dense register contents those registers are split (``split_by``), so
        each branch carries a definite value of them.  Branches reaching
        identical keys are merged (amplitude addition), which is what makes
        uncomputation and subsequent interference exact.  When every branch
        ends on the same labels the split registers are joined back, since
        splitting saves memory only while the labels differ.

        The prune examines only the merged branches and, when this call split
        a register, the fresh slabs: a branch that passes through otherwise is
        the array it came in as.
        """
        nl = len(self.layout.arith)
        split = self.split
        self.split_by(dense_controls)
        pos = [self._key_pos(self.layout.dense_axis[r]) for r in dense_controls]
        new, merged = {}, set()
        for key, vec in self.branches.items():
            nk = tuple(fn(tuple(key[p] for p in pos), key[:nl])) + key[nl:]
            if nk in new:
                new[nk] = new[nk] + vec
                merged.add(nk)
            else:
                new[nk] = vec
        self.branches = new
        self.prune(None if self.split != split else merged)
        if self.split and len({k[:nl] for k in self.branches}) == 1:
            self.join()

    # -- projection / post-selection -----------------------------------------

    def project(self, predicate, renormalize=True):
        """Keep amplitude where ``predicate(idx, labels)`` holds, with ``idx``
        the index grid of ``predicate_mask``.  Returns the retained squared
        weight."""
        terms = []
        for key, vec in self.branches.items():
            keep = self.predicate_mask(predicate, key) & (vec != 0)
            masked = np.where(keep, vec, 0.0)
            terms.append((key, float(np.vdot(masked, masked).real)))
            self.branches[key] = masked
        weight = self.sum_by_labels(terms)
        if renormalize:
            if weight <= 0:
                raise SimError("projection annihilated the state")
            root = math.sqrt(weight)
            for key in self.branches:
                self.branches[key] = self.branches[key] / root
        self.prune()
        return weight

    def reflect_about(self, ref: "SimState"):
        """psi -> 2 <ref|psi> ref - psi."""
        ref = ref._with_split(self.split)
        ov = ref.inner(self)  # <ref|psi>
        keys = set(self.branches) | set(ref.branches)
        zeros = np.zeros(self.branch_shape(), dtype=complex)
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
            pos = self.layout.arith_slot[reg]
        elif self.layout.dense_axis[reg] in self.split:
            pos = self._key_pos(self.layout.dense_axis[reg])
        else:
            axis = self.layout.dense_axis[reg]
            probs = np.zeros(self.layout.dense_dims[axis])
            for vec in self.branches.values():
                sq = np.abs(vec) ** 2
                probs += np.sum(sq, axis=tuple(i for i in range(vec.ndim) if i != axis))
            return probs
        probs = np.zeros(1 << r.qubits)
        for key, vec in self.branches.items():
            probs[key[pos]] += float(np.vdot(vec, vec).real)
        return probs

    def dense_vector(self) -> np.ndarray:
        """Flatten to the full statevector including arithmetic registers.

        Register order is layout declaration order; split registers are
        joined on a copy first.  Guarded to 2**20 amplitudes; intended for
        small equivalence tests.
        """
        dims = [1 << r.qubits for r in self.layout.registers]
        total = int(np.prod(dims))
        if total > (1 << 20):
            raise SimError("state too large to flatten densely")
        out = np.zeros(dims, dtype=complex)
        for labels, vec in self._with_split(()).branches.items():
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

def partial_trace(state: SimState, keep) -> DensityOperator:
    """Reduced density operator over the kept registers (any kinds).

    Branches with different labels on a traced-out arithmetic register are
    orthogonal and contribute independently; kept arithmetic registers
    contribute their label as a basis index.  Split registers are read from
    the key the same way, after a kept one is joined back.
    """
    keep = list(keep)
    lay = state.layout
    for k in keep:
        if k not in lay:
            raise SimError(f"unknown register {k}")
    keep_dense = [k for k in keep if lay.by_name[k].kind != "arithmetic"]
    keep_arith = [k for k in keep if lay.by_name[k].kind == "arithmetic"]
    keep_axes = [lay.dense_axis[k] for k in keep_dense]
    kd = int(np.prod([lay.dense_dims[a] for a in keep_axes])) if keep_axes else 1
    ka_dims = [1 << lay.by_name[k].qubits for k in keep_arith]
    ka = int(np.prod(ka_dims)) if ka_dims else 1
    if kd * ka > (1 << 14):
        raise SimError("kept subsystem too large")
    state = state._with_split(a for a in state.split if a not in keep_axes)
    slots = [lay.arith_slot[k] for k in keep_arith]
    # traced-out labels and split values
    other_slots = [i for i in range(len(lay.arith) + len(state.split))
                   if i not in slots]
    perm = state._lead_perm(keep_axes)

    rho = np.zeros((ka * kd, ka * kd), dtype=complex)
    # group branches by the traced-out key entries; within a group, cross
    # terms between kept-label sectors survive.
    groups = {}
    for key, vec in state.branches.items():
        group = tuple(key[i] for i in other_slots)
        groups.setdefault(group, []).append((key, vec))
    for _, members in groups.items():
        mats = []
        for key, vec in members:
            arow = 0
            for s, d in zip(slots, ka_dims):
                arow = arow * d + key[s]
            mats.append((arow, vec.transpose(perm).reshape(kd, -1)))
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
