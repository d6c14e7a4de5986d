"""Property tests for the MoG game's kernels: the elementwise sigmoid
and the MLP passes."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from dgopt.mog import (D_LAYOUT, G_LAYOUT, mlp_backward,  # noqa: E402
                       mlp_forward, stable_sigmoid)

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


def naive_mlp(sizes, params, x, dout):
    """Output, flat parameter gradient and input gradient of a tanh MLP
    with a linear head, in float64, one layer at a time."""
    layers, offset = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = params[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((w, params[offset:offset + fan_out]))
        offset += fan_out
    hs = [x]
    for w, b in layers[:-1]:
        hs.append(np.tanh(hs[-1] @ w + b))
    out = (hs[-1] @ layers[-1][0] + layers[-1][1])[:, 0]
    grads = []
    g = dout[:, None]
    for idx in range(len(layers) - 1, -1, -1):
        w = layers[idx][0]
        bias_grad = np.zeros(w.shape[1])
        for row in g:
            bias_grad += row
        grads[:0] = [(hs[idx].T @ g).ravel(), bias_grad]
        g = g @ w.T
        if idx:
            g = g * (1.0 - hs[idx] ** 2)
    return out, np.concatenate(grads), g


def assert_close(got, want, rtol):
    # relative to the array's scale: cancellation in a sum leaves an
    # entry near zero with no relative accuracy to check
    np.testing.assert_allclose(got, want, rtol=rtol,
                               atol=rtol * np.abs(want).max())


@settings(max_examples=150)
@example(net="d", dtype=np.float32, rows=1, seed=0)
@example(net="g", dtype=np.float64, rows=1, seed=0)
@given(net=st.sampled_from(["g", "d"]),
       dtype=st.sampled_from([np.float32, np.float64]),
       rows=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_mlp_kernel_matches_naive_reference(net, dtype, rows, seed):
    layout = {"g": G_LAYOUT, "d": D_LAYOUT}[net]
    rng = np.random.default_rng(seed)
    # non-zero biases, so each bias term and its gradient count
    params = (0.3 * rng.standard_normal(layout.dim)).astype(dtype)
    x = rng.standard_normal((rows, layout.sizes[0])).astype(dtype)
    dout = rng.standard_normal(rows).astype(dtype)
    want_out, want_grad, want_dx = naive_mlp(
        layout.sizes, params.astype(np.float64), x.astype(np.float64),
        dout.astype(np.float64))
    out, acts = mlp_forward(layout, params, x)
    grad, dx = mlp_backward(layout, params, acts, dout, dtype)
    rtol = 1e-4 if dtype is np.float32 else 1e-10
    for got, want in ((out, want_out), (grad, want_grad), (dx, want_dx)):
        assert got.dtype == dtype and got.shape == want.shape
        assert_close(got, want, rtol)
