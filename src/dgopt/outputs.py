"""The one format of every CSV and JSON file dgopt writes.

A CSV cell is str(int(x)) for an integer (Python or numpy), empty for
None, and repr(float(x)), the shortest text that reads back as the same
float, otherwise.  JSON is key-sorted, indented by two spaces and ends
in a newline.  Outputs are compared byte for byte: keep this fixed.
"""

import json

import numpy as np


# the cell types whose repr is their cell text
_REPR_CELLS = (float, int)


def _cell(x) -> str:
    """The cell of a number of another type, e.g. a numpy scalar."""
    return str(int(x)) if isinstance(x, (int, np.integer)) else repr(float(x))


def write_csv(path, header, rows):
    """One line per row of cells, after the header unless it is None,
    written to the file in one call."""
    lines = [] if header is None else [",".join(header)]
    # Python float, int and None cells, the bulk, skip the _cell call
    lines.extend(",".join([repr(x) if type(x) in _REPR_CELLS
                           else "" if x is None else _cell(x)
                           for x in row]) for row in rows)
    with open(path, "w") as fh:
        fh.write("".join([line + "\n" for line in lines]))


def write_json(path, obj):
    """obj as JSON text, written to the file in one call."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
