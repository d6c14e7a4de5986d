"""Property tests for the MoG game's elementwise kernels."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from dgopt.mog import stable_sigmoid  # noqa: E402

PROPERTY = settings(max_examples=300)
EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 100.5, -100.5, 1e4, -1e4,
         88.7, -88.7, 745.2, -745.2, 1e-45, -1e-45]


def masked_sigmoid(t):
    """The boolean-mask form: each sign's half gathered, mapped and
    scattered back."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def assert_same(t):
    got, want = stable_sigmoid(t), masked_sigmoid(t)
    assert got.dtype == want.dtype == t.dtype
    assert np.array_equal(got, want, equal_nan=True)


@PROPERTY
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
       size=st.integers(0, 300))
def test_stable_sigmoid_equals_masked_form(data, dtype, size):
    width = 32 if dtype is np.float32 else 64
    t = data.draw(arrays(dtype, size, elements=st.floats(width=width)))
    assert_same(t)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stable_sigmoid_edges_equal_masked_form(dtype):
    with np.errstate(over="ignore"):
        t = np.array(EDGES, dtype=dtype)
    assert_same(t)
    assert_same(np.repeat(t, 37))  # past any SIMD width, with tails
