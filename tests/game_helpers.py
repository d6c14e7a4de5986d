"""Game helpers that only the tests use: box membership and the
catalog's game names."""

import numpy as np

from dgopt.games import _CATALOG


def box_contains(box, x, tol: float = 0.0) -> bool:
    """Whether x lies in the box, each bound widened by tol."""
    return bool(np.all(x >= box.lo - tol) and np.all(x <= box.hi + tol))


def catalog_names() -> list:
    return sorted(_CATALOG)
