"""Property tests: a catalog oracle on a batch equals its per-point calls."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dgopt.games import make_game  # noqa: E402
from test_games import ALL_GAMES  # noqa: E402

GAMES = {spec: make_game(spec) for spec in ALL_GAMES}
coord = st.floats(-12.0, 12.0, allow_nan=False)
dtypes = st.sampled_from([np.float64, np.float32])
PROPERTY = settings(max_examples=200)


def assert_batch_matches_points(game, u, v):
    """value/grad_u/grad_v on the (..., 1) batch against each point."""
    shape = u.shape[:-1]
    value, gu, gv = game.value(u, v), game.grad_u(u, v), game.grad_v(u, v)
    assert value.shape == shape and value.dtype == np.float64
    assert gu.shape == gv.shape == u.shape
    for idx in np.ndindex(*shape):
        # u[idx] is a (1,) vector, the per-point path
        assert np.array_equal(value[idx], game.value(u[idx], v[idx]))
        assert np.array_equal(gu[idx], game.grad_u(u[idx], v[idx]))
        assert np.array_equal(gv[idx], game.grad_v(u[idx], v[idx]))


@PROPERTY
@given(spec=st.sampled_from(ALL_GAMES), dtype=dtypes,
       points=st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
def test_batch_of_points_equals_per_point_calls(spec, dtype, points):
    u = np.array([[x] for x, _ in points], dtype=dtype)
    v = np.array([[y] for _, y in points], dtype=dtype)
    assert_batch_matches_points(GAMES[spec], u, v)


@PROPERTY
@given(spec=st.sampled_from(ALL_GAMES), dtype=dtypes,
       u_axis=st.lists(coord, min_size=1, max_size=8),
       v_axis=st.lists(coord, min_size=1, max_size=8))
def test_mesh_equals_per_point_calls(spec, dtype, u_axis, v_axis):
    mesh_u, mesh_v = np.meshgrid(np.array(u_axis, dtype=dtype),
                                 np.array(v_axis, dtype=dtype), indexing="ij")
    assert_batch_matches_points(GAMES[spec], mesh_u[..., None],
                                mesh_v[..., None])


def test_batch_shapes_must_agree():
    game = GAMES["f1"]
    with pytest.raises(ValueError, match="one shape"):
        game.value(np.zeros((3, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError, match="one shape"):
        game.grad_u(np.zeros(1), np.zeros((2, 1)))
