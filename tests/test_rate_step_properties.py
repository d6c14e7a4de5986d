"""Property tests for the small-vector forms in the rate harness's step:
Box.clamp and RealizableProblem.sample_grad, byte for byte against the
plain numpy spellings."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dgopt.games import Box  # noqa: E402
from dgopt.rates import make_realizable_quadratic  # noqa: E402

SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])


def mixed(rng, size, scale):
    """Uniform floats over +-scale with some entries swapped for 0.0,
    -0.0, NaN or +-inf."""
    values = rng.uniform(-scale, scale, size=size)
    swap = rng.random(size) < 0.3
    values[swap] = rng.choice(SPECIAL, size=int(swap.sum()))
    return values


@settings(max_examples=400)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 17),
       dtype=st.sampled_from([np.float64, np.float32]))
def test_clamp_is_clip_byte_for_byte(seed, dim, dtype):
    rng = np.random.default_rng(seed)
    ends = np.nan_to_num(mixed(rng, (2, dim), 1e6), nan=-0.0, posinf=0.0,
                         neginf=-0.0)
    box = Box(ends.min(axis=0), ends.max(axis=0))
    # each coordinate is any float, or sits on one of its bounds
    x = np.choose(rng.integers(0, 3, size=dim),
                  [mixed(rng, dim, 2e6), box.lo, box.hi]).astype(dtype)
    got, want = box.clamp(x), x.clip(box.lo, box.hi)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200)
@given(dim=st.integers(1, 64), family=st.integers(1, 4),
       seed=st.integers(0, 2**16), scale=st.floats(1e-3, 1e3),
       data=st.data())
def test_sample_grad_is_the_matrix_product(dim, family, seed, scale, data):
    problem = make_realizable_quadratic(dim, family, seed)
    z = data.draw(st.integers(0, family - 1))
    x = np.random.default_rng(seed).uniform(-scale, scale, size=dim)
    got = problem.sample_grad(x, z)
    want = problem.matrices[z] @ (x - problem.x_star)
    assert got.tobytes() == want.tobytes()
