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


# f1, f2 and bilinear evaluate a batch as whole arrays, the others point
# by point; either way each entry is the point's float call, byte for
# byte, over the whole float range: signed zeros, infinities, NaNs with
# any payload, subnormals and values whose products overflow
ARITHMETIC = ("f1", "f2", "bilinear:c=1", "bilinear:c=3", "bilinear:c=10")
POINTWISE = ("motivation", "f3", "ncnc:c=3", "ncnc:c=3,sep=1")
BATCH_GAMES = {spec: make_game(spec) for spec in ARITHMETIC + POINTWISE}
SUBNORMAL_AND_HUGE = [5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                      1e160, -1e160, 1e200, -1e200, 1e300]
any_bits = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
full_range = st.one_of(st.sampled_from(EDGES + SUBNORMAL_AND_HUGE),
                       st.floats(), any_bits)


@settings(max_examples=300, derandomize=True)
@given(spec=st.sampled_from(ARITHMETIC + POINTWISE),
       points=st.lists(st.tuples(full_range, full_range), min_size=1,
                       max_size=40),
       as_mesh=st.booleans())
def test_batch_is_the_float_calls_byte_for_byte(spec, points, as_mesh):
    game = BATCH_GAMES[spec]
    xs, ys = (np.array([p[i] for p in points]) for i in (0, 1))
    if as_mesh and len(points) % 2 == 0:
        xs, ys = xs.reshape(2, -1), ys.reshape(2, -1)
    for oracle in (game.value, game.grad_u, game.grad_v):
        batch = np.asarray(oracle(xs[..., None], ys[..., None]))
        per_point = [oracle(x, y) for x, y in zip(xs.ravel().tolist(),
                                                  ys.ravel().tolist())]
        assert batch.dtype == np.float64
        assert batch.size == xs.size
        assert batch.tobytes() == np.array(per_point).tobytes()
