"""Exact simulation substrate.

States are stored as a table of branches: every arithmetic register is
tracked as a classical basis label (an integer bit pattern, one per branch),
while the remaining registers carry dense complex amplitudes.  All arithmetic
gates are basis permutations, so this representation is exact and sidesteps
the exponential width of the arithmetic registers.

A dense register that a label map conditions on becomes *split*: its basis
value moves into the branch key, after the arithmetic labels, and its axis
stays in every row with size 1.  Each branch then stores only the factor
over the free registers, so a label map controlled by two n-valued index
registers leaves n^2 branches of the free size instead of n^2 full arrays.
Dense axis numbers mean the same on split and joined states; an operation
that targets a split register joins it back first, a control on one picks
rows by their key, and ``join`` restores the plain form.

The table is stacked: ``SimState.keys`` lists the branch keys in order of
first appearance (the order in which label-by-label sums add up), and
``SimState.amps`` holds every branch as one row of a single array of shape
``(len(keys),) + branch_shape()``.  A gate is one batched call over the rows
it touches, taken in slabs of ``CHUNK_CELLS`` amplitudes so its temporaries
stay small; a predicate is evaluated once, on an index grid whose split
entries and labels are key columns.  ``SimState.branches`` reads the table
as a mapping from keys to read-only row views.

Classical control runs once per gate, too.  A label map's function gets the
key columns as plain lists (Python ints, so labels stay exact at any width)
and returns the new label columns; a label-controlled gate's function gets
the distinct label tuples as columns and returns one stacked unitary per
tuple.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

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

    frac_bits: int = field(init=False, repr=False, compare=False)
    resolution: float = field(init=False, repr=False, compare=False)
    max_label: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bits < 2 or not (1 <= self.int_bits < self.bits):
            raise SimError("invalid fixed-point spec")
        # derived once: the arithmetic gates read them per label
        object.__setattr__(self, "frac_bits", self.bits - self.int_bits)
        object.__setattr__(self, "resolution", 2.0 ** (-self.frac_bits))
        object.__setattr__(self, "max_label", (1 << self.bits) - 1)

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


CHUNK_CELLS = 1 << 18  # amplitudes per slab of a batched gate's temporaries
PRUNE_TOL = 1e-14      # a row whose amplitudes all lie within this is dropped


class BranchMap(Mapping):
    """Read-only ``{branch key -> amplitude row}`` view of a ``SimState``
    table, in key order.  Each value is a read-only view of one row."""

    __slots__ = ("_state",)

    def __init__(self, state: "SimState"):
        self._state = state

    def __getitem__(self, key):
        return self._state._row_view(self._state._row_of()[key])

    def __contains__(self, key):
        return key in self._state._row_of()

    def __iter__(self):
        return iter(self._state.keys)

    def __len__(self):
        return len(self._state.keys)

    def values(self):
        return [self._state._row_view(r) for r in range(len(self))]

    def items(self):
        return list(zip(self._state.keys, self.values()))


class SimState:
    """Hybrid state: a branch table of keys and one amplitude array.

    A branch key is the tuple of arithmetic labels followed by the basis
    values of the split dense registers; ``split`` lists their dense axes in
    key order.  ``keys`` lists the keys and row r of ``amps``, an array of
    shape ``(len(keys),) + branch_shape()``, holds the amplitudes of key r:
    the dense dimensions with 1 on each split axis.  ``branches`` reads the
    table as a mapping.
    """

    def __init__(self, layout: RegisterLayout, branches=None, split=()):
        """``branches`` maps keys to arrays of the branch shape; they are
        copied into the table.  Without it the state is |0...0>."""
        self.layout = layout
        self.split = tuple(split)
        if branches is None:
            amps = np.zeros((1,) + layout.dense_dims, dtype=complex)
            amps.reshape(-1)[0] = 1.0
            keys = [(0,) * len(layout.arith)]
        else:
            keys = list(branches)
            amps = np.empty((len(keys),) + self.branch_shape(), dtype=complex)
            for row, vec in zip(amps, branches.values()):
                row[...] = vec
        self._set_table(keys, amps)

    @classmethod
    def _table(cls, layout, keys, amps, split) -> "SimState":
        """A state over the given table, sharing it."""
        out = cls.__new__(cls)
        out.layout = layout
        out.split = tuple(split)
        out._set_table(keys, amps)
        return out

    def _set_table(self, keys, amps):
        self.keys = keys
        self.amps = amps
        self._rows = None
        self._cols = {}

    @property
    def branches(self) -> BranchMap:
        return BranchMap(self)

    def _row_of(self) -> dict:
        """Key -> row number."""
        if self._rows is None:
            self._rows = {key: r for r, key in enumerate(self.keys)}
        return self._rows

    def _row_view(self, row: int) -> np.ndarray:
        view = self.amps[row]
        view.flags.writeable = False
        return view

    def _column(self, pos: int) -> np.ndarray:
        """Entry ``pos`` of every key, as an array over the rows."""
        if pos not in self._cols:
            col = [key[pos] for key in self.keys]
            self._cols[pos] = np.array(col) if col else np.zeros(0, dtype=int)
        return self._cols[pos]

    # -- basics ------------------------------------------------------------

    def copy(self) -> "SimState":
        return SimState._table(self.layout, list(self.keys), self.amps.copy(),
                               self.split)

    def branch_shape(self) -> tuple:
        return tuple(1 if a in self.split else d
                     for a, d in enumerate(self.layout.dense_dims))

    def _key_pos(self, axis: int) -> int:
        """Position of a split axis's value in the branch key."""
        return len(self.layout.arith) + self.split.index(axis)

    def _perm(self, lead):
        """Table transpose order bringing the ``lead`` dense axes right after
        the row axis."""
        rest = [a for a in range(len(self.layout.dense_dims)) if a not in lead]
        return [0] + [1 + a for a in list(lead) + rest]

    def _for_rows(self, rows, fn):
        """Call ``fn(block, sel)`` on slabs of the table's rows, ``rows`` (an
        index array) or all of them, each slab of at most ``CHUNK_CELLS``
        amplitudes (or one row).  ``block`` is ``amps[sel]``; what ``fn``
        writes into it lands in the table."""
        total = len(self.keys) if rows is None else len(rows)
        step = max(1, CHUNK_CELLS // math.prod(self.amps.shape[1:]))
        if rows is None and 0 < total <= step:
            fn(self.amps, slice(None))
            return
        for start in range(0, total, step):
            if rows is None:
                sel = slice(start, start + step)
                fn(self.amps[sel], sel)
            else:
                sel = rows[start:start + step]
                block = self.amps[sel]
                fn(block, sel)
                self.amps[sel] = block

    def _row_weights(self) -> np.ndarray:
        """Squared norm of every row, each the ``np.vdot`` of the row with
        itself."""
        flat = self.amps.reshape(len(self.keys), -1)
        return np.vecdot(flat, flat).real

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

    def _total(self, terms: np.ndarray):
        """``sum_by_labels`` of one term per row."""
        return self.sum_by_labels(zip(self.keys, terms.tolist()))

    def norm(self) -> float:
        return math.sqrt(self._total(self._row_weights()))

    def inner(self, other: "SimState") -> complex:
        other = other._with_split(self.split)
        rows = self._row_of()
        pairs = [(rows[key], r) for r, key in enumerate(other.keys) if key in rows]
        if not pairs:
            return 0.0
        mine, theirs = (list(side) for side in zip(*pairs))
        terms = np.vecdot(self.amps[mine].reshape(len(mine), -1),
                          other.amps[theirs].reshape(len(theirs), -1))
        return self.sum_by_labels(zip((other.keys[r] for r in theirs),
                                      terms.tolist()))

    def prune(self, rows=None, weights=None):
        """Drop the rows whose amplitudes all lie within ``PRUNE_TOL``, but
        never the last one.  Only the listed ``rows`` are examined, or by
        default the rows whose squared norm (``weights`` when given) is at
        most twice size * PRUNE_TOL^2: no other row can lie within it."""
        if not self.keys:
            return
        flat = self.amps.reshape(len(self.keys), -1)
        if rows is None:
            if weights is None:
                weights = self._row_weights()
            rows = np.flatnonzero(
                weights <= 2.0 * flat.shape[1] * PRUNE_TOL * PRUNE_TOL)
        if not len(rows):
            return
        dead = rows[np.abs(flat[rows]).max(axis=1) <= PRUNE_TOL]
        if len(dead) == len(self.keys):
            dead = dead[:-1]
        if len(dead):
            keep = np.ones(len(self.keys), dtype=bool)
            keep[dead] = False
            self._keep_rows(np.flatnonzero(keep))

    def _keep_rows(self, keep, keys=None):
        """Keep the listed rows (ascending), with ``keys`` as their new keys
        (their own by default), moving them down the table in place, a slab
        at a time."""
        keep = np.asarray(keep, dtype=int)
        if keys is None:
            keys = [self.keys[r] for r in keep.tolist()]
        amps = self.amps
        step = max(1, CHUNK_CELLS // math.prod(amps.shape[1:]))
        breaks = np.flatnonzero(np.diff(keep) != 1) + 1
        dst = 0
        for run in np.split(keep, breaks):
            for start in range(0, len(run), step):
                src, count = int(run[start]), min(step, len(run) - start)
                if src != dst:
                    amps[dst:dst + count] = amps[src:src + count]
                dst += count
        self._set_table(keys, amps[:len(keep)])

    # -- split registers -------------------------------------------------------

    def split_by(self, dense_regs):
        """Split the listed dense registers: every branch becomes one branch
        per live basis value of them, keyed by those values after the
        existing key, holding a copy of its size-1 slab.  Registers already
        split stay as they are.  Returns ``branches``, in branch then C
        order of the new values."""
        lay = self.layout
        axes = [lay.dense_axis[r] for r in dense_regs
                if lay.dense_axis[r] not in self.split]
        if not axes:
            return self.branches
        moved = self.amps.transpose(self._perm(axes))
        free = tuple(range(1 + len(axes), moved.ndim))
        hits = np.nonzero((moved != 0).any(axis=free))
        slabs = moved[hits]
        rows = hits[0].tolist()
        values = zip(*(h.tolist() for h in hits[1:]))
        keys = [self.keys[r] + v for r, v in zip(rows, values)]
        self.split += tuple(axes)
        self._set_table(keys, slabs.reshape((len(keys),) + self.branch_shape()))
        return self.branches

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
        if kept:
            rest = [key[:nl] + tuple(key[p] for p in kept) for key in self.keys]
        else:
            rest = [key[:nl] for key in self.keys]
        groups = {}
        gid = [groups.setdefault(key, len(groups)) for key in rest]
        out = np.zeros((len(groups),) + tuple(shape), dtype=complex)
        perm = self._perm(axes)
        cell = (np.array(gid, dtype=int),) + tuple(self._column(p) for p in pos)
        out.transpose(perm)[cell] = self.amps.transpose(perm)[
            (slice(None),) + (0,) * len(axes)]
        out += 0.0  # as if added into the zeros: -0.0 becomes 0.0
        self.split = tuple(a for a in self.split if a not in axes)
        self._set_table(list(groups), out)

    def _with_split(self, split) -> "SimState":
        """This state with exactly the given split axes, in that key order,
        for reading: ``self`` when they already agree, else a new state that
        may share its table with this one."""
        split = tuple(split)
        if split == self.split:
            return self
        names = [r.name for r in self.layout.dense]
        out = SimState._table(self.layout, self.keys, self.amps, self.split)
        out.join([names[a] for a in self.split if a not in split])
        out.split_by([names[a] for a in split])
        nl = len(self.layout.arith)
        order = [out._key_pos(a) for a in split]
        out._set_table([k[:nl] + tuple(k[p] for p in order) for k in out.keys],
                       out.amps)
        out.split = split
        return out

    # -- dense operations ----------------------------------------------------

    def _target_axes(self, targets):
        return [self.layout.dense_axis[t] for t in targets]

    def apply_dense(self, u: np.ndarray, targets, controls=None):
        """Apply unitary ``u`` to the listed dense registers (axis order as
        given).  ``controls`` maps dense register names to required basis
        values; non-matching slices are untouched.  A split target is joined
        first; a split control selects rows by their key."""
        axes = self._target_axes(targets)
        dim = math.prod(self.layout.dense_dims[a] for a in axes)
        if u.shape != (dim, dim):
            raise SimError("unitary shape does not match target registers")
        self.join(targets)
        rows, ctrl_axes, ctrl_vals = None, [], []
        for name, val in (controls or {}).items():
            axis = self.layout.dense_axis[name]
            if axis in self.split:
                hit = self._column(self._key_pos(axis)) == val
                rows = hit if rows is None else rows & hit
            else:
                ctrl_axes.append(axis)
                ctrl_vals.append(val)
        if rows is not None:
            rows = np.flatnonzero(rows)
        perm = self._perm(ctrl_axes + axes)
        front = (slice(None),) + tuple(ctrl_vals)

        def gate(block, sel):
            sub = block.transpose(perm)[front]
            flat = sub.reshape(len(sub), dim, -1)
            sub[...] = np.matmul(u, flat).reshape(sub.shape)

        self._for_rows(rows, gate)

    def apply_branch_dense(self, fn, targets):
        """Like apply_dense but the unitary may depend on the branch labels.
        ``fn(label_cols)`` is called once, with one list per arithmetic
        register over the distinct label tuples in order of first
        appearance, and returns their unitaries as one ``(distinct, dim,
        dim)`` stack; each row gets the unitary of its labels.  An empty
        table is left as it is."""
        axes = self._target_axes(targets)
        dim = math.prod(self.layout.dense_dims[a] for a in axes)
        self.join(targets)
        if not self.keys:
            return
        nl = len(self.layout.arith)
        slot = {}
        which = np.array([slot.setdefault(key[:nl], len(slot)) for key in self.keys])
        stack = np.asarray(fn([list(col) for col in zip(*slot)]))
        if stack.shape != (len(slot), dim, dim):
            raise SimError("unitary shape does not match target registers")
        perm = self._perm(axes)

        def gate(block, sel):
            work = block.transpose(perm)
            flat = work.reshape(len(work), dim, -1)
            work[...] = np.matmul(stack[which[sel]], flat).reshape(work.shape)

        self._for_rows(None, gate)

    def predicate_mask(self, predicate) -> np.ndarray:
        """Boolean array of a dense-basis predicate, read-only and broadcast
        to the table's shape.  Predicates take an index grid:
        ``predicate(idx, labels)`` is called once, ``idx[axis]`` being
        ``np.indices(branch_shape(), sparse=True)`` with a leading row axis,
        a split axis's entry being its key column; ``labels`` holds the label
        columns.  Predicates must act elementwise (``idx[axis] == v``, ``&``,
        not ``and``)."""
        shape = (len(self.keys),) + self.branch_shape()
        column = (len(self.keys),) + (1,) * (len(shape) - 1)
        idx = [g[None] for g in np.indices(shape[1:], sparse=True)]
        for a in self.split:
            idx[a] = self._column(self._key_pos(a)).reshape(column)
        labels = tuple(self._column(s).reshape(column)
                       for s in range(len(self.layout.arith)))
        hit = predicate(tuple(idx), labels)
        return np.broadcast_to(np.asarray(hit, dtype=bool), shape)

    # -- label (arithmetic) operations ---------------------------------------

    def apply_label_map(self, fn, dense_controls=()):
        """Apply a basis-permutation on the arithmetic labels.

        ``fn(dense_cols, label_cols) -> new_label_cols`` is called once per
        gate, on key columns: ``dense_cols`` holds one list per control
        register and ``label_cols`` one per arithmetic register, entry r of
        each belonging to key r; it returns one list of new labels per
        arithmetic register, in the same order.  When the map depends on
        dense register contents those registers are split (``split_by``), so
        each branch carries a definite value of them.  Rows reaching
        identical keys are merged (amplitude addition, in key order), which
        is what makes uncomputation and subsequent interference exact; other
        rows keep their amplitudes where they are.  When every branch ends on
        the same labels the split registers are joined back, since splitting
        saves memory only while the labels differ.

        The prune examines only the merged rows and, when this call split a
        register, the fresh slabs.  An empty table is only split.
        """
        nl = len(self.layout.arith)
        split = self.split
        self.split_by(dense_controls)
        keys = self.keys
        if not keys:
            return
        cols = list(zip(*keys))
        pos = [self._key_pos(self.layout.dense_axis[r]) for r in dense_controls]
        new = fn([list(cols[p]) for p in pos], [list(cols[s]) for s in range(nl)])
        if len(new) != nl or any(len(col) != len(keys) for col in new):
            raise SimError("label map must return one label per key and register")
        moved = list(zip(*new)) if nl else [()] * len(keys)
        if self.split:
            moved = [labels + key[nl:] for labels, key in zip(moved, keys)]
        merges = []
        if len(set(moved)) == len(moved):
            self._set_table(moved, self.amps)
        else:
            first = {}
            for r, nk in enumerate(moved):
                into = first.setdefault(nk, r)
                if into != r:
                    merges.append((into, r))
            kept = list(first.values())
            for into, r in merges:
                self.amps[into] += self.amps[r]
            self._keep_rows(kept, list(first))
        if self.split != split:
            self.prune()
        elif merges:
            at = {old: row for row, old in enumerate(kept)}
            self.prune(np.array(sorted({at[into] for into, _ in merges})))
        if self.split and len({k[:nl] for k in self.keys}) == 1:
            self.join()

    # -- projection / post-selection -----------------------------------------

    def project(self, predicate):
        """Keep amplitude where ``predicate(idx, labels)`` holds, in place,
        with ``idx`` the index grid of ``predicate_mask``, and renormalize.
        Returns the retained squared weight."""
        keep = self.predicate_mask(predicate)

        def mask(block, sel):
            np.copyto(block, 0, where=~keep[sel])
            np.copyto(block, 0, where=block == 0)  # -0.0 becomes 0.0 too

        self._for_rows(None, mask)
        terms = self._row_weights()
        weight = self._total(terms)
        if weight <= 0:
            raise SimError("projection annihilated the state")
        self.amps /= math.sqrt(weight)
        self.prune(weights=terms / weight)
        return weight

    def label_free_row(self) -> np.ndarray:
        """Join the state and return its one row, writable: the amplitudes
        over the dense registers of a state whose arithmetic labels are all
        uncomputed."""
        self.join()
        if len(self.keys) != 1 or any(self.keys[0]):
            raise SimError("arithmetic registers not uncomputed")
        return self.amps[0]

    def reflect_about(self, ref: "SimState"):
        """psi -> 2 <ref|psi> ref - psi."""
        ref = ref._with_split(self.split)
        ov = ref.inner(self)  # <ref|psi>
        mine = self._row_of()
        keys = self.keys + [k for k in ref.keys if k not in mine]
        shape = (len(keys),) + self.branch_shape()
        own = np.zeros(shape, dtype=complex)
        own[:len(self.keys)] = self.amps
        theirs = np.zeros(shape, dtype=complex)
        where = {k: r for r, k in enumerate(keys)}
        theirs[[where[k] for k in ref.keys]] = ref.amps
        self._set_table(keys, 2.0 * ov * theirs - own)
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
            axis = 1 + self.layout.dense_axis[reg]
            sq = np.abs(self.amps) ** 2
            return np.sum(sq, axis=tuple(i for i in range(sq.ndim) if i != axis))
        probs = np.zeros(1 << r.qubits)
        np.add.at(probs, self._column(pos), self._row_weights())
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
        joined = self._with_split(())
        for labels, vec in zip(joined.keys, joined.amps):
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
    # rows that agree on the traced-out key entries form a group; within a
    # group, cross terms between kept-label sectors survive.  Column block g
    # of z holds group g's rows, each at its kept-label row block, so
    # rho = z z^dagger.
    groups, gid, arow = {}, [], []
    for key in state.keys:
        gid.append(groups.setdefault(tuple(key[i] for i in other_slots), len(groups)))
        row = 0
        for s, d in zip(slots, ka_dims):
            row = row * d + key[s]
        arow.append(row)
    perm = state._perm(keep_axes)
    rows = len(state.keys)
    if ka == 1 and len(groups) == rows:  # one row per group: z is the table
        z = state.amps.transpose(perm[1:1 + len(keep_axes)] + [0]
                                 + perm[1 + len(keep_axes):]).reshape(kd, -1)
    else:
        m = state.amps.transpose(perm).reshape(rows, kd, -1)
        z = np.zeros((ka, kd, len(groups), m.shape[2]), dtype=complex)
        z[arow, :, gid, :] = m
        z = z.reshape(ka * kd, -1)
    rho = np.zeros((ka * kd, ka * kd), dtype=complex)
    rho += z @ z.conj().T
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
