"""Differential property tests: every fast ``SimState`` path against a slow
reference.  ``apply_label_map``, ``predicate_mask`` and ``project`` are
checked bit for bit against per-cell ``np.ndindex`` loops; ``apply_dense``,
``reflect_about`` and ``partial_trace`` against the same operation on the
flat statevector from ``dense_vector()``.  States split on random dense
registers are checked against the same operations on the joined state: bit
for bit where the arithmetic is the same, within 1e-12 where a matrix
product or a sum runs over differently shaped arrays.

Layouts are small: two or three dense registers of one or two qubits and one
or two arithmetic registers of two or three bits, in random order, holding
states of up to four branches with some cells and whole slabs set to zero.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from label_columns import per_key, per_labels

from qlapeig.sim import (FixedPointSpec, Register, RegisterLayout, SimError,
                         SimState, partial_trace)
from qlapeig.stateprep import amplitude_amplification

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def layouts(draw):
    regs = [Register(f"d{k}", draw(st.integers(1, 2)), "index")
            for k in range(draw(st.integers(2, 3)))]
    for k in range(draw(st.integers(1, 2))):
        bits = draw(st.integers(2, 3))
        regs.append(Register(f"a{k}", bits, "arithmetic", FixedPointSpec(bits, 1)))
    return RegisterLayout(draw(st.permutations(regs)))


def random_branch(layout, rng):
    dims = layout.dense_dims
    vec = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    vec[rng.random(dims) < 0.3] = 0.0
    axis = int(rng.integers(len(dims)))
    np.moveaxis(vec, axis, 0)[int(rng.integers(dims[axis]))] = 0.0  # dead slab
    return vec


@st.composite
def states(draw, layout=None):
    layout = layout or draw(layouts())
    label_space = st.tuples(*[st.integers(0, r.fp.max_label) for r in layout.arith])
    labels = draw(st.lists(label_space, min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SimState(layout, {lab: random_branch(layout, rng) for lab in labels})


def assert_same_bits(got: SimState, want: dict):
    """Same labels in the same order, each array identical byte for byte."""
    assert list(got.branches) == list(want)
    for labels, vec in want.items():
        mine = got.branches[labels]
        assert mine.dtype == vec.dtype and mine.shape == vec.shape
        assert mine.tobytes() == vec.tobytes()


def pruned(layout, branches: dict) -> dict:
    ref = SimState(layout, dict(branches))
    ref.prune()
    return ref.branches


def reference_mask(predicate, dims, labels):
    mask = np.zeros(dims, dtype=bool)
    for idx in np.ndindex(*dims):
        mask[idx] = bool(predicate(idx, labels))
    return mask


# ---------------------------------------------------------------------------
# label maps

def reference_label_map(state, fn, controls):
    """Per-cell refinement: one zero-padded full array per live cell, then
    merged per new label by whole-array addition."""
    axes = [state.layout.dense_axis[r] for r in controls]
    front = range(len(axes))
    refined = {}
    for labels, vec in state.branches.items():
        moved = np.moveaxis(vec, axes, front)
        for idx in np.ndindex(*moved.shape[:len(axes)]):
            slab = moved[idx]
            if np.max(np.abs(slab)) == 0:
                continue
            full = np.zeros_like(moved)
            full[idx] = slab
            refined[(labels, idx)] = np.zeros_like(vec) + np.moveaxis(full, front, axes)
    new = {}
    for (labels, dvals), vec in refined.items():
        nl = tuple(fn(dvals, labels))
        new[nl] = new[nl] + vec if nl in new else vec
    return pruned(state.layout, new)


@st.composite
def label_maps(draw, layout):
    """Affine maps of (control values, labels) onto each arithmetic slot.  A
    zero label weight drops the old label, so cells of different branches
    merge into one new label."""
    dense = [r.name for r in layout.dense]
    controls = draw(st.lists(st.sampled_from(dense), min_size=1,
                             max_size=len(dense), unique=True))
    coeffs = [(draw(st.lists(st.integers(0, 3), min_size=len(controls),
                             max_size=len(controls))),
               draw(st.integers(0, 1)), draw(st.integers(0, 3)))
              for _ in layout.arith]
    sizes = [r.fp.max_label + 1 for r in layout.arith]

    def fn(dvals, labels):
        return [(sum(c * v for c, v in zip(cw, dvals)) + lw * lab + off) % size
                for (cw, lw, off), lab, size in zip(coeffs, labels, sizes)]

    return fn, tuple(controls)


@PROPERTY
@given(st.data())
def test_apply_label_map_matches_per_cell_reference(data):
    state = data.draw(states())
    fn, controls = data.draw(label_maps(state.layout))
    want = reference_label_map(state, fn, controls)
    state.apply_label_map(per_key(fn), dense_controls=controls)
    state.join()
    assert_same_bits(state, want)


def test_apply_label_map_merges_branches_bit_exactly():
    layout = RegisterLayout([Register("i", 1, "index"), Register("j", 2, "index"),
                             Register("a", 2, "arithmetic", FixedPointSpec(2, 1))])
    rng = np.random.default_rng(5)
    state = SimState(layout, {(lab,): random_branch(layout, rng) for lab in range(4)})
    merge = lambda dvals, labels: [dvals[0]]  # noqa: E731 - all branches collide
    want = reference_label_map(state, merge, ("i",))
    state.apply_label_map(per_key(merge), dense_controls=("i",))
    state.join()
    assert len(state.branches) == 2
    assert_same_bits(state, want)


def test_apply_label_map_drops_a_branch_merged_to_cancellation():
    layout = RegisterLayout([Register("i", 1, "index"),
                             Register("a", 2, "arithmetic", FixedPointSpec(2, 1))])
    rng = np.random.default_rng(7)
    vec, other = random_branch(layout, rng), random_branch(layout, rng)
    # nonzero everywhere but within the prune tolerance: only a scan of the
    # unmerged rows would drop it
    faint = 1e-15 * np.exp(2j * np.pi * rng.random(vec.shape))
    state = SimState(layout, {(0,): vec, (1,): -vec, (2,): faint, (3,): other})
    state.apply_label_map(per_key(lambda dvals, labels: [labels[0] & 2 and labels[0]]))
    assert list(state.branches) == [(2,), (3,)]
    assert state.branches[(2,)].tobytes() == faint.tobytes()
    assert state.branches[(3,)].tobytes() == other.tobytes()


def test_apply_label_map_drops_a_faint_split_slab():
    """A slab of a split control that is nonzero everywhere but within the
    prune tolerance is dropped by the label map that split it off."""
    layout = RegisterLayout([Register("i", 1, "index"), Register("j", 1, "index"),
                             Register("a", 2, "arithmetic", FixedPointSpec(2, 1))])
    vec = np.full((2, 2), 0.5 + 0.5j)
    vec[1] = [1e-14, -1e-15j]
    state = SimState(layout, {(0,): vec.copy()})
    state.apply_label_map(per_key(lambda dvals, labels: [dvals[0]]),
                          dense_controls=("i",))
    assert list(state.branches) == [(0,)] and state.split == ()
    assert np.array_equal(state.branches[(0,)][0], vec[0])
    assert not state.branches[(0,)][1].any()


# ---------------------------------------------------------------------------
# predicates

@st.composite
def predicates(draw, layout):
    """Array-safe predicates; each also works on a tuple of ints, which is
    how the reference calls it."""
    nd = len(layout.dense)
    a, b = draw(st.integers(0, nd - 1)), draw(st.integers(0, nd - 1))
    v = draw(st.integers(0, 3))
    return draw(st.sampled_from([
        lambda idx, lab: True,
        lambda idx, lab: idx[a] == v,
        lambda idx, lab: idx[a] != idx[b],
        lambda idx, lab: idx[a] < v,
        lambda idx, lab: (idx[a] + idx[b] + lab[0]) % 2 == 1,
        lambda idx, lab: (idx[a] == v) | (idx[b] < lab[-1]),
    ]))


@PROPERTY
@given(st.data())
def test_predicate_mask_matches_ndindex(data):
    state = data.draw(states())
    predicate = data.draw(predicates(state.layout))
    dims = state.layout.dense_dims
    mask = state.predicate_mask(predicate)
    assert mask.dtype == bool and mask.shape == (len(state.keys),) + dims
    for r, labels in enumerate(state.keys):
        assert np.array_equal(mask[r], reference_mask(predicate, dims, labels))


@PROPERTY
@given(st.data())
def test_project_matches_ndindex(data):
    state = data.draw(states())
    predicate = data.draw(predicates(state.layout))
    want, weight = {}, 0.0
    for labels, vec in state.branches.items():
        keep = np.zeros(vec.shape, dtype=bool)
        for idx in np.ndindex(vec.shape):
            if vec[idx] != 0 and predicate(idx, labels):
                keep[idx] = True
        want[labels] = np.where(keep, vec, 0.0)
        weight += float(np.vdot(want[labels], want[labels]).real)
    if weight <= 0:
        with pytest.raises(SimError):
            state.project(predicate)
        return
    want = {k: v / np.sqrt(weight) for k, v in want.items()}
    assert state.project(predicate) == weight
    assert_same_bits(state, pruned(state.layout, want))


def test_predicate_that_is_not_array_safe_raises():
    state = SimState(RegisterLayout([Register("i", 2, "index"),
                                     Register("j", 2, "index")]))
    with pytest.raises(ValueError):
        state.predicate_mask(lambda idx, lab: idx[0] == 1 and idx[1] == 0)


# ---------------------------------------------------------------------------
# against the flat statevector

def full_tensor(state):
    return state.dense_vector().reshape([1 << r.qubits for r in state.layout.registers])


def position(layout, name):
    return [r.name for r in layout.registers].index(name)


@PROPERTY
@given(st.data())
def test_apply_dense_with_controls_matches_statevector(data):
    state = data.draw(states())
    lay = state.layout
    names = [r.name for r in lay.dense]
    targets = data.draw(st.lists(st.sampled_from(names), min_size=1,
                                 max_size=2, unique=True))
    free = [r for r in names if r not in targets]
    ctrl_names = data.draw(st.lists(st.sampled_from(free), max_size=len(free),
                                    unique=True)) if free else []
    controls = {r: data.draw(st.integers(0, lay.dense_dims[lay.dense_axis[r]] - 1))
                for r in ctrl_names}
    dims = [lay.dense_dims[lay.dense_axis[t]] for t in targets]
    dim = int(np.prod(dims))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))

    psi = full_tensor(state)
    t_pos = [position(lay, t) for t in targets]
    moved = np.tensordot(u.reshape(dims + dims), psi,
                         axes=(range(len(dims), 2 * len(dims)), t_pos))
    applied = np.moveaxis(moved, range(len(dims)), t_pos)
    grids = np.indices(psi.shape, sparse=True)
    hit = np.ones(psi.shape, dtype=bool)
    for r, v in controls.items():
        hit = hit & (grids[position(lay, r)] == v)
    want = np.where(hit, applied, psi).reshape(-1)

    state.apply_dense(u, targets, controls=controls or None)
    assert np.allclose(state.dense_vector(), want, rtol=0, atol=1e-12)


@PROPERTY
@given(st.data())
def test_reflect_about_matches_statevector(data):
    state = data.draw(states())
    ref = data.draw(states(state.layout))
    psi, r = state.dense_vector(), ref.dense_vector()
    want = 2.0 * np.vdot(r, psi) * r - psi
    state.reflect_about(ref)
    assert np.allclose(state.dense_vector(), want, rtol=0, atol=1e-12)


@PROPERTY
@given(st.data())
def test_partial_trace_matches_statevector(data):
    state = data.draw(states())
    lay = state.layout
    keep = data.draw(st.lists(st.sampled_from([r.name for r in lay.registers]),
                              min_size=1, unique=True))
    rho = partial_trace(state, keep)
    # basis order of the result: kept arithmetic registers, then kept dense
    order = ([k for k in keep if lay.by_name[k].kind == "arithmetic"]
             + [k for k in keep if lay.by_name[k].kind != "arithmetic"])
    assert rho.subsystem == tuple(order)
    psi = full_tensor(state)
    pos = [position(lay, k) for k in order]
    kept = int(np.prod([psi.shape[p] for p in pos]))
    m = np.moveaxis(psi, pos, range(len(pos))).reshape(kept, -1)
    assert np.allclose(rho.matrix, m @ m.conj().T, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# split states against the same operations on the joined state

SEEDS = st.integers(0, 2**32 - 1)


def joined(state: SimState) -> SimState:
    """The joined view of a state, leaving the state itself split."""
    view = SimState(state.layout, state.branches, state.split)
    view.join()
    return view


def same_bits_any_order(got: SimState, want: SimState):
    got, want = joined(got), joined(want)
    assert set(got.branches) == set(want.branches)
    for key, vec in want.branches.items():
        assert got.branches[key].tobytes() == vec.tobytes()


def close(got: SimState, want: SimState):
    assert np.allclose(got.dense_vector(), want.dense_vector(), rtol=0, atol=1e-12)


@st.composite
def split_pairs(draw, layout=None):
    """(split, plain): one state twice, the first split on a random nonempty
    set of dense registers."""
    plain = draw(states(layout))
    names = [r.name for r in plain.layout.dense]
    regs = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    split = plain.copy()
    split.split_by(regs)
    assert split.split == tuple(plain.layout.dense_axis[r] for r in regs)
    return split, plain


@PROPERTY
@given(st.data())
def test_split_then_join_is_the_identity(data):
    split, plain = data.draw(split_pairs())
    for vec in split.branches.values():
        assert vec.shape == split.branch_shape()
        assert np.max(np.abs(vec)) > 0
    back = joined(split)
    assert back.split == ()
    want = plain.dense_vector().tobytes()
    assert split.dense_vector().tobytes() == want
    assert back.dense_vector().tobytes() == want


@PROPERTY
@given(st.data())
def test_label_map_on_split_state_matches_per_cell_reference(data):
    split, plain = data.draw(split_pairs())
    fn, controls = data.draw(label_maps(plain.layout))
    want = SimState(plain.layout, reference_label_map(plain, fn, controls))
    split.apply_label_map(per_key(fn), dense_controls=controls)
    same_bits_any_order(split, want)


def random_unitary(seed, dim):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    return u


@PROPERTY
@given(st.data())
def test_apply_dense_with_split_target_matches_joined(data):
    split, plain = data.draw(split_pairs())
    lay = plain.layout
    names = [lay.dense[a].name for a in split.split]
    target = data.draw(st.sampled_from(names))
    others = [r.name for r in lay.dense if r.name != target]
    targets = [target] + data.draw(st.lists(st.sampled_from(others), max_size=1))
    dim = int(np.prod([lay.dense_dims[lay.dense_axis[t]] for t in targets]))
    u = random_unitary(data.draw(SEEDS), dim)
    split.apply_dense(u, targets)
    plain.apply_dense(u, targets)
    assert all(lay.dense_axis[t] not in split.split for t in targets)
    close(split, plain)


@PROPERTY
@given(st.data())
def test_apply_dense_with_split_control_matches_joined(data):
    split, plain = data.draw(split_pairs())
    lay = plain.layout
    ctrl = data.draw(st.sampled_from([lay.dense[a].name for a in split.split]))
    val = data.draw(st.integers(0, lay.dense_dims[lay.dense_axis[ctrl]] - 1))
    target = data.draw(st.sampled_from([r.name for r in lay.dense if r.name != ctrl]))
    u = random_unitary(data.draw(SEEDS), lay.dense_dims[lay.dense_axis[target]])
    split.apply_dense(u, [target], controls={ctrl: val})
    plain.apply_dense(u, [target], controls={ctrl: val})
    assert lay.dense_axis[ctrl] in split.split
    close(split, plain)


@PROPERTY
@given(st.data())
def test_predicate_mask_on_split_state_matches_joined(data):
    split, plain = data.draw(split_pairs())
    predicate = data.draw(predicates(plain.layout))
    lay = plain.layout
    nl = len(lay.arith)
    table = split.predicate_mask(predicate)
    assert table.dtype == bool
    assert table.shape == (len(split.keys),) + split.branch_shape()
    for mask, key in zip(table, split.keys):
        full = reference_mask(predicate, lay.dense_dims, key[:nl])
        cell = [slice(None)] * len(lay.dense_dims)
        for i, a in enumerate(split.split):
            cell[a] = slice(key[nl + i], key[nl + i] + 1)
        assert np.array_equal(mask, full[tuple(cell)])


@PROPERTY
@given(st.data())
def test_project_on_split_state_matches_joined(data):
    split, plain = data.draw(split_pairs())
    predicate = data.draw(predicates(plain.layout))
    try:
        want = plain.project(predicate)
    except SimError:
        with pytest.raises(SimError):
            split.project(predicate)
        return
    got = split.project(predicate)
    assert abs(got - want) <= 1e-12
    close(split, plain)


@PROPERTY
@given(st.data())
def test_label_free_row_is_the_joined_row_and_writes_through(data):
    """A split state whose only label is all zeros hands over its joined row,
    bit for bit, and writing the row writes the state; any other label set
    raises."""
    layout = data.draw(layouts())
    zeros = (0,) * len(layout.arith)
    if data.draw(st.booleans()):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        plain = SimState(layout, {zeros: random_branch(layout, rng)})
    else:
        plain = data.draw(states(layout))
    split = plain.copy()
    split.split_by(data.draw(st.lists(st.sampled_from([r.name for r in layout.dense]),
                                      min_size=1, unique=True)))
    if list(plain.branches) != [zeros]:
        with pytest.raises(SimError):
            split.label_free_row()
        return
    row, want = split.label_free_row(), plain.branches[zeros]
    assert row.shape == want.shape and row.tobytes() == want.tobytes()
    row *= 2j
    assert split.branches[zeros].tobytes() == (2j * want).tobytes()


@PROPERTY
@given(st.data())
def test_reflect_about_a_copy_of_a_split_state_matches_joined(data):
    """As amplitude amplification does: copy, act on the state, reflect."""
    split, plain = data.draw(split_pairs())
    ref_split, ref_plain = split.copy(), plain.copy()
    target = data.draw(st.sampled_from([r.name for r in plain.layout.dense]))
    u = random_unitary(data.draw(SEEDS),
                       plain.layout.dense_dims[plain.layout.dense_axis[target]])
    split.apply_dense(u, [target])
    plain.apply_dense(u, [target])
    split.reflect_about(ref_split)
    plain.reflect_about(ref_plain)
    close(split, plain)


@PROPERTY
@given(st.data())
def test_reflect_about_a_state_split_on_other_registers_matches_joined(data):
    split, plain = data.draw(split_pairs())
    ref_split, ref_plain = data.draw(split_pairs(plain.layout))
    ref_before = ref_split.dense_vector()
    split.reflect_about(ref_split)
    plain.reflect_about(ref_plain)
    close(split, plain)
    assert np.array_equal(ref_split.dense_vector(), ref_before)  # ref untouched


@PROPERTY
@given(st.data())
def test_readouts_of_split_state_match_joined(data):
    split, plain = data.draw(split_pairs())
    lay = plain.layout
    assert np.array_equal(split.dense_vector(), plain.dense_vector())
    assert abs(split.norm() - plain.norm()) <= 1e-12
    for r in lay.registers:
        assert np.allclose(split.marginal(r.name), plain.marginal(r.name),
                           rtol=0, atol=1e-12)
    split_names = [lay.dense[a].name for a in split.split]
    kept_split = data.draw(st.sampled_from(split_names))
    others = [r.name for r in lay.registers if r.name != kept_split]
    for keep in ([kept_split] + data.draw(st.lists(st.sampled_from(others),
                                                   max_size=1, unique=True)),
                 data.draw(st.lists(st.sampled_from(others), min_size=1,
                                    max_size=2, unique=True))):
        before = split.split
        got, want = partial_trace(split, keep), partial_trace(plain, keep)
        assert got.subsystem == want.subsystem
        assert np.allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)
        assert split.split == before


@st.composite
def operations(draw, layout):
    """One step of a random circuit, as (name, apply(state))."""
    kind = draw(st.sampled_from(["label_map", "dense", "controlled", "project",
                                 "reflect"]))
    names = [r.name for r in layout.dense]
    if kind == "label_map":
        fn, controls = draw(label_maps(layout))
        return kind, lambda s: s.apply_label_map(per_key(fn), dense_controls=controls)
    if kind in ("dense", "controlled"):
        target = draw(st.sampled_from(names))
        u = random_unitary(draw(SEEDS), layout.dense_dims[layout.dense_axis[target]])
        controls = None
        if kind == "controlled":
            ctrl = draw(st.sampled_from([r for r in names if r != target]))
            controls = {ctrl: draw(st.integers(0, layout.dense_dims[layout.dense_axis[ctrl]] - 1))}
        return kind, lambda s: s.apply_dense(u, [target], controls=controls)
    if kind == "project":
        predicate = draw(predicates(layout))
        return kind, lambda s: s.project(predicate)
    ref = draw(states(layout))
    return kind, lambda s: s.reflect_about(ref)


@PROPERTY
@given(st.data())
def test_circuits_on_split_states_match_joined(data):
    """Random sequences of label maps, (controlled) dense gates, projections
    and reflections keep the split and the joined state equal."""
    split, plain = data.draw(split_pairs())
    for _ in range(data.draw(st.integers(1, 4))):
        kind, op = data.draw(operations(plain.layout))
        try:
            op(plain)
        except SimError:  # a projection that keeps nothing
            with pytest.raises(SimError):
                op(split)
            return
        op(split)
        plain.join()
        close(split, plain)


# ---------------------------------------------------------------------------
# the stacked branch table against a plain statevector

def label_axes_first(psi, layout):
    """The full tensor with the arithmetic axes moved to the front, dense
    axes after them in dense order; returns it and the moved positions."""
    arith = [position(layout, r.name) for r in layout.arith]
    return np.moveaxis(psi, arith, range(len(arith))), arith


def statevector_label_map(psi, layout, fn, controls):
    """Move every amplitude to the cell of its new labels, adding where
    cells meet."""
    arith = [position(layout, r.name) for r in layout.arith]
    ctrl = [position(layout, c) for c in controls]
    out = np.zeros_like(psi)
    for idx in zip(*(a.tolist() for a in np.nonzero(psi))):
        new = list(idx)
        for p, lab in zip(arith, fn(tuple(idx[c] for c in ctrl),
                                    tuple(idx[p] for p in arith))):
            new[p] = lab
        out[tuple(new)] += psi[idx]
    return out


def statevector_gate(sub, u, axes, dims):
    """``u`` on the listed axes of ``sub``."""
    moved = np.tensordot(u.reshape(dims + dims), sub,
                         axes=(range(len(dims), 2 * len(dims)), axes))
    return np.moveaxis(moved, range(len(dims)), axes)


def statevector_branch_gate(psi, layout, fn, targets):
    """``fn(labels)`` on the target registers of every label sector."""
    moved, arith = label_axes_first(psi, layout)
    na = len(arith)
    axes = [layout.dense_axis[t] for t in targets]
    dims = [layout.dense_dims[a] for a in axes]
    for labels in np.ndindex(*moved.shape[:na]):
        moved[labels] = statevector_gate(moved[labels], fn(labels), axes, dims)
    return np.moveaxis(moved, range(na), arith)


def statevector_mask(predicate, layout):
    """The predicate on every cell of the full tensor."""
    mask = np.zeros([1 << r.qubits for r in layout.registers], dtype=bool)
    moved, arith = label_axes_first(mask, layout)
    for labels in np.ndindex(*moved.shape[:len(arith)]):
        moved[labels] = reference_mask(predicate, layout.dense_dims, labels)
    return mask


@st.composite
def xor_maps(draw, layout):
    """Bijections: each label XORed with an affine function of the control
    values, which computes a label and, applied again, uncomputes it."""
    dense = [r.name for r in layout.dense]
    controls = draw(st.lists(st.sampled_from(dense), min_size=1,
                             max_size=len(dense), unique=True))
    coeffs = [(draw(st.lists(st.integers(0, 3), min_size=len(controls),
                             max_size=len(controls))), draw(st.integers(0, 3)))
              for _ in layout.arith]
    sizes = [r.fp.max_label + 1 for r in layout.arith]

    def fn(dvals, labels):
        return [lab ^ ((sum(c * v for c, v in zip(cw, dvals)) + off) % size)
                for (cw, off), lab, size in zip(coeffs, labels, sizes)]

    return fn, tuple(controls)


@st.composite
def table_steps(draw, layout):
    """One step of a random circuit: (apply(state), apply(statevector))."""
    names = [r.name for r in layout.dense]
    kind = draw(st.sampled_from(["dense", "label_map", "branch_dense", "split",
                                 "join", "project"]))
    if kind == "dense":
        target = draw(st.sampled_from(names))
        others = [r for r in names if r != target]
        ctrl = draw(st.lists(st.sampled_from(others), max_size=2, unique=True))
        controls = {c: draw(st.integers(0, layout.dense_dims[layout.dense_axis[c]] - 1))
                    for c in ctrl}
        axis = layout.dense_axis[target]
        u = random_unitary(draw(SEEDS), layout.dense_dims[axis])

        def on_vector(psi):
            grids = np.indices(psi.shape, sparse=True)
            hit = np.ones(psi.shape, dtype=bool)
            for c, v in controls.items():
                hit = hit & (grids[position(layout, c)] == v)
            applied = statevector_gate(psi, u, [position(layout, target)],
                                       [layout.dense_dims[axis]])
            return np.where(hit, applied, psi)

        return (lambda s: s.apply_dense(u, [target], controls=controls or None),
                on_vector)
    if kind == "label_map":
        fn, controls = draw(st.one_of(xor_maps(layout), label_maps(layout)))
        return (lambda s: s.apply_label_map(per_key(fn), dense_controls=controls),
                lambda psi: statevector_label_map(psi, layout, fn, controls))
    if kind == "branch_dense":
        targets = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2,
                                unique=True))
        dim = int(np.prod([layout.dense_dims[layout.dense_axis[t]] for t in targets]))
        seed = draw(SEEDS)

        def fn(labels):
            if sum(labels) % 3 == 0:
                return np.eye(dim)
            return random_unitary(seed + 97 * sum(labels) + labels[0], dim)

        return (lambda s: s.apply_branch_dense(per_labels(fn), targets),
                lambda psi: statevector_branch_gate(psi, layout, fn, targets))
    if kind in ("split", "join"):
        regs = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        if kind == "split":
            return lambda s: s.split_by(regs), lambda psi: psi
        return lambda s: s.join(regs), lambda psi: psi
    predicate = draw(predicates(layout))
    mask = statevector_mask(predicate, layout)

    def project_vector(psi):
        kept = np.where(mask, psi, 0.0)
        weight = float(np.vdot(kept, kept).real)
        return kept / np.sqrt(weight) if weight > 0 else None

    return lambda s: s.project(predicate), project_vector


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.data())
def test_stacked_table_matches_a_statevector(data):
    """Random circuits of (controlled) dense gates on plain and split
    controls, label maps that merge branches and bijections that compute and
    uncompute labels, label-dependent gates, splits, joins and projections:
    after every step the table is well formed and its statevector matches
    the same steps on a plain dense statevector."""
    state = data.draw(states())
    lay = state.layout
    regs = data.draw(st.lists(st.sampled_from([r.name for r in lay.dense]),
                              unique=True))
    state.split_by(regs)
    psi = full_tensor(state)
    for _ in range(data.draw(st.integers(1, 6))):
        on_state, on_vector = data.draw(table_steps(lay))
        psi = on_vector(psi)
        if psi is None:  # the projection annihilates the state
            with pytest.raises(SimError):
                on_state(state)
            return
        on_state(state)
        assert state.amps.shape == (len(state.keys),) + state.branch_shape()
        assert len(set(state.keys)) == len(state.keys)
        assert np.allclose(state.dense_vector(), psi.reshape(-1), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# amplitude amplification against the Grover loop

def grover_loop(psi, good, known_amplitude):
    """Exact-count Grover rotations on a flat statevector, then
    post-selection of the flagged part: (state, iterations, residual)."""
    theta = math.asin(math.sqrt(known_amplitude))
    iters = int(math.floor(math.pi / (4.0 * theta)))
    if iters and abs(math.sin((2 * iters - 1) * theta) ** 2
                     - math.sin((2 * iters + 1) * theta) ** 2) <= 1e-12:
        iters -= 1  # a tie: the smaller count
    start = psi.copy()
    for _ in range(iters):
        psi = np.where(good, -psi, psi)
        psi = 2.0 * np.vdot(start, psi) * start - psi
    kept = np.where(good, psi, 0.0)
    good_weight = float(np.vdot(kept, kept).real)
    return kept / math.sqrt(good_weight), iters, max(0.0, 1.0 - good_weight)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_amplitude_amplification_matches_the_grover_loop(data):
    """The closed form on random split states and elementwise predicates,
    rescaled to a good weight between 1e-3 and 0.99: the state within 1e-12
    of the loop's, the same iteration count, the residual within 1e-12."""
    plain = data.draw(states())
    lay = plain.layout
    predicate = data.draw(predicates(lay))
    weight = data.draw(st.one_of(st.just(1e-3), st.floats(-3.0, math.log10(0.99))
                                 .map(lambda e: 10.0 ** e)))
    masks = {lab: reference_mask(predicate, lay.dense_dims, lab)
             for lab in plain.branches}
    good = sum(float(np.vdot(v[masks[lab]], v[masks[lab]]).real)
               for lab, v in plain.branches.items())
    bad = plain.norm() ** 2 - good
    if min(good, bad) < 1e-6:  # nothing to rotate between
        return
    scaled = {lab: np.where(masks[lab], v * math.sqrt(weight / good),
                            v * math.sqrt((1.0 - weight) / bad))
              for lab, v in plain.branches.items()}
    state = SimState(lay, scaled)
    state.split_by(data.draw(st.lists(st.sampled_from([r.name for r in lay.dense]),
                                      unique=True)))
    psi, flagged = state.dense_vector(), statevector_mask(predicate, lay).reshape(-1)
    known = float(np.vdot(psi[flagged], psi[flagged]).real)
    want, iters, residual = grover_loop(psi, flagged, known)
    _, stats = amplitude_amplification(state, predicate)
    assert stats.iterations == iters
    assert abs(stats.residual - residual) <= 1e-12
    assert np.allclose(state.dense_vector(), want, rtol=0, atol=1e-12)


@PROPERTY
@given(st.data())
def test_amplification_records_the_good_weight_of_the_state(data):
    """On random normalized states, joined or split on random registers, the
    recorded ``initial_amplitude`` is the good weight read from
    ``dense_vector()`` within 1e-12; a good weight of at most 1e-15 raises."""
    plain = data.draw(states())
    lay = plain.layout
    predicate = data.draw(predicates(lay))
    norm = plain.norm()
    state = SimState(lay, {lab: v / norm for lab, v in plain.branches.items()})
    state.split_by(data.draw(st.lists(st.sampled_from([r.name for r in lay.dense]),
                                      unique=True)))
    psi, flagged = state.dense_vector(), statevector_mask(predicate, lay).reshape(-1)
    good = float(np.vdot(psi[flagged], psi[flagged]).real)
    if good <= 1e-15:
        with pytest.raises(SimError):
            amplitude_amplification(state, predicate)
        return
    _, stats = amplitude_amplification(state, predicate)
    assert abs(stats.initial_amplitude - good) <= 1e-12
