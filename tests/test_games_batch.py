"""Property tests: a catalog oracle on a batch equals its per-point calls,
and its three forms (two floats, a (1,) point, a batch entry) agree."""

import math
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dgopt.games import JointPoint, make_game  # noqa: E402
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


# the whole float range: any float, plus the edges drawn on purpose
EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.7e308, -1.7e308,
         sys.float_info.max, -sys.float_info.max]
any_float = st.one_of(st.sampled_from(EDGES), st.floats())


def _bytes(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=500)
@given(spec=st.sampled_from(ALL_GAMES), x=any_float, y=any_float)
def test_three_forms_agree_and_never_raise(spec, x, y):
    # a formula that overflows or leaves math's domain gives NaN, in
    # every form; entry 1 of the batch is the point
    game = GAMES[spec]
    u, v = np.array([x]), np.array([y])
    batch_u, batch_v = np.array([[0.5], [x], [-1.5]]), np.array([[2.0], [y], [0.25]])
    with np.errstate(all="ignore"):
        for oracle in (game.value, game.grad_u, game.grad_v):
            assert (_bytes(oracle(x, y)) == _bytes(oracle(u, v))
                    == _bytes(oracle(batch_u, batch_v)[1]))
        at_floats = game.hessian_blocks(JointPoint(x, y))
        at_point = game.hessian_blocks(JointPoint(u, v))
    assert [_bytes(h) for h in at_floats] == [_bytes(h) for h in at_point]
