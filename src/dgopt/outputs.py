"""The one format of every CSV and JSON file dgopt writes.

A CSV cell is str(int(x)) for an integer (Python or numpy), empty for
None, and repr(float(x)), the shortest text that reads back as the same
float, otherwise.  A CSV is handed over as columns.  JSON is key-sorted,
indented by two spaces and ends in a newline.  Outputs are compared byte
for byte: keep this fixed.
"""

import json

import numpy as np


# the cell types whose repr is their cell text
_REPR_CELLS = (float, int)


def _cells(column) -> list:
    """The cells of one column, in one pass."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        column = column.tolist()   # Python floats and ints, the same cells
    # Python float, int and None cells, the bulk, are tested first
    return [repr(x) if type(x) in _REPR_CELLS else "" if x is None
            else str(int(x)) if isinstance(x, (int, np.integer))
            else repr(float(x)) for x in column]


def write_csv(path, header, columns):
    """Row i holds entry i of each of the (one or more) columns; the
    header comes first unless it is None.  Written in one call."""
    lines = [] if header is None else [",".join(header)]
    lines.extend(map(",".join, zip(*map(_cells, columns))))
    with open(path, "w") as fh:
        fh.write("".join([line + "\n" for line in lines]))


def write_json(path, obj):
    """obj as JSON text, written to the file in one call."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
