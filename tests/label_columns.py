"""Per-key label functions as the column functions the simulator calls.

``SimState.apply_label_map`` and ``SimState.apply_branch_dense`` call their
function once per gate, on key columns.  The tests write label maps and
label-controlled gates one key at a time, the form a reference reads most
plainly, and hand them over through these two adapters.
"""

import numpy as np


def _rows(columns, count):
    """Key columns as one tuple per key (``count`` empty tuples when there
    are no columns)."""
    return list(zip(*columns)) if columns else [()] * count


def per_key(fn):
    """The column form of ``fn(dense_values, labels) -> new_labels``, which
    is called once per key, in key order, with tuples."""
    def columns(dense_cols, label_cols):
        count = len((dense_cols + label_cols)[0])
        rows = [fn(dense, labels) for dense, labels
                in zip(_rows(dense_cols, count), _rows(label_cols, count))]
        return [list(col) for col in zip(*rows)] if label_cols else []
    return columns


def per_labels(fn):
    """The column form of ``fn(labels) -> unitary``, which is called once per
    distinct label tuple; the unitaries come back as one stack."""
    def columns(label_cols):
        return np.array([fn(labels) for labels in _rows(label_cols, 1)])
    return columns
