"""The one format of every CSV and JSON file dgopt writes.

A CSV cell is str(int(x)) for an integer (Python or numpy), empty for
None, and repr(float(x)), the shortest text that reads back as the same
float, otherwise.  JSON is key-sorted, indented by two spaces and ends
in a newline.  Outputs are compared byte for byte: keep this fixed.
"""

import json

import numpy as np


def _cell(x) -> str:
    if x is None:
        return ""
    return str(int(x)) if isinstance(x, (int, np.integer)) else repr(float(x))


def write_csv(path, header, rows):
    """One line per row of cells, after the header unless it is None."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:    # float cells, the bulk, skip the _cell call
            fh.write(",".join([repr(float(x)) if isinstance(x, float)
                               else _cell(x) for x in row]) + "\n")


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
