"""Property test: outputs.write_csv, which formats a column at a time,
writes the bytes of the cell-by-cell reference formatter in
tests/game_helpers.py."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dgopt import outputs  # noqa: E402
from game_helpers import reference_csv_text  # noqa: E402

SPECIAL_FLOATS = [0.0, -0.0, float("inf"), float("-inf"), float("nan"),
                  5e-324, -5e-324, 1e-300, 1e308, -1e308, 0.1]
py_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
py_ints = st.integers(-2 ** 70, 2 ** 70)
numpy_scalars = st.one_of(
    py_floats.map(np.float64), st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8), st.booleans().map(np.bool_))
cells = st.one_of(py_floats, py_ints, st.none(), st.booleans(),
                  numpy_scalars)


def columns(rows):
    """One column of the given length: a list of any cells or an array."""
    return st.one_of(
        st.lists(py_floats, min_size=rows, max_size=rows),
        st.lists(cells, min_size=rows, max_size=rows),
        st.lists(st.floats(width=32), min_size=rows, max_size=rows).map(
            lambda xs: np.array(xs, dtype=np.float32)),
        st.lists(py_floats, min_size=rows, max_size=rows).map(
            lambda xs: np.array(xs, dtype=np.float64)),
        st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=rows,
                 max_size=rows).map(lambda xs: np.array(xs, dtype=np.int64)),
        st.lists(st.booleans(), min_size=rows, max_size=rows).map(
            lambda xs: np.array(xs, dtype=bool)))


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.lists(columns(rows), min_size=1, max_size=5))
    header = draw(st.one_of(st.none(), st.just(
        [f"c{i}" for i in range(len(cols))])))
    return header, cols


@settings(max_examples=400)
@given(table=tables())
def test_column_writer_is_the_cell_by_cell_format(table):
    header, cols = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        outputs.write_csv(path, header, cols)
        got = path.read_text()
    assert got == reference_csv_text(header, cols)


@pytest.mark.parametrize("header", [None, ["a", "b"]])
def test_zero_rows_write_only_the_header(tmp_path, header):
    path = tmp_path / "out.csv"
    outputs.write_csv(path, header, [[], np.zeros(0)])
    assert path.read_text() == ("" if header is None else "a,b\n")
