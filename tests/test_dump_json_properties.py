"""``harness.dump_json`` against the plain recursive formatter it replaced,
which formats every item on its own: the two must give the same string for
any nesting of dicts, lists and tuples over floats (NaN and infinities
included), ints, bools, None, strings and NumPy scalars."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qlapeig.harness import dump_json


def reference_format(value, out):
    if isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(value):
            if i:
                out.append(",")
            out.append(f'"{key}":')
            reference_format(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            reference_format(item, out)
        out.append("]")
    elif isinstance(value, (bool, np.bool_)) or value is None:
        out.append("true" if value else ("null" if value is None else "false"))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        v = float(value)
        out.append(f"{v:.17g}" if np.isfinite(v) else f'"{v!r}"')
    else:
        escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'"{escaped}"')


def reference_dump(obj) -> str:
    out = []
    reference_format(obj, out)
    return "".join(out)


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
NUMPY_SCALARS = st.one_of(
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_))
LEAVES = st.one_of(FLOATS, st.integers(), st.booleans(), st.none(), st.text(),
                   NUMPY_SCALARS)
# homogeneous float and int lists take the one-join path; a stray NaN, bool
# or NumPy scalar among them must send the list back to the per-item path
FLAT = st.one_of(st.lists(FLOATS), st.lists(st.integers()),
                 st.lists(st.one_of(st.floats(-1e300, 1e300), st.booleans())),
                 st.lists(st.one_of(st.integers(), NUMPY_SCALARS)))
VALUES = st.recursive(
    st.one_of(LEAVES, FLAT),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=25)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(VALUES)
def test_dump_json_matches_the_per_item_formatter(value):
    assert dump_json(value) == reference_dump(value)


def test_non_finite_floats_stay_quoted_in_flat_lists():
    values = [1.5, float("nan"), float("inf"), -float("inf"), -0.0]
    assert dump_json(values) == '[1.5,"nan","inf","-inf",-0]'
    assert dump_json([True, 1, False]) == "[true,1,false]"


def test_numpy_bools_print_as_json_bools():
    """``np.bool_`` is not a ``bool``: it must still print unquoted."""
    assert dump_json({"a": np.bool_(True), "b": [np.bool_(False), 1.5]}) == (
        '{"a":true,"b":[false,1.5]}')
