"""Property tests: a one-point trajectory stepped on Python floats is the
trajectory stepped on (1,) arrays, byte for byte."""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dgopt import games  # noqa: E402
from dgopt.dg import DGConfig  # noqa: E402
from dgopt.games import JointPoint, make_game  # noqa: E402
from dgopt.optimizers import (ALGORITHMS, OptimizerConfig,  # noqa: E402
                              make_step_map, run_trajectory)

GAMES = {spec: make_game(spec) for spec in
         ("f1", "f2", "f3", "bilinear:c=3", "ncnc:c=3", "ncnc:c=3,sep=1")}
assert all(game.float_form and game.domain is None for game in GAMES.values())
# each rule, and the DG rule in both gradient modes
RULES = [(alg, "envelope") for alg in ALGORITHMS] + [("dg", "unrolled")]
ORIGIN = JointPoint.of(0.0, 0.0)


def _bytes(x):
    return None if x is None else np.float64(x).tobytes()


def _run(game, cfg, start, steps, diverge_norm, log_dg):
    """Everything a trajectory holds, floats as bytes, or the type and
    message of what the run raised."""
    try:
        with np.errstate(all="ignore"):
            traj = run_trajectory(game, cfg, start, steps, targets=[ORIGIN],
                                  diverge_norm=diverge_norm, log_dg=log_dg)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    table = (traj.steps, traj.dim_u, traj.iterates.dtype,
             traj.iterates.shape, traj.iterates.tobytes(),
             *([_bytes(x) for x in col] for col in (
                 traj.value, traj.grad_u_norm, traj.grad_v_norm, traj.dg)))
    return (table, traj.classification, _bytes(traj.final_distance),
            traj.error)


def _floats_and_arrays(spec, rule, eta, start, steps=12, diverge_norm=1e3,
                       log_dg=False, k=3, gamma=None):
    alg, mode = rule
    cfg = OptimizerConfig(alg, eta=eta, unroll_k=k,
                          dg=DGConfig(k=k, gamma=gamma or eta, grad_mode=mode))
    game = GAMES[spec] if spec in GAMES else make_game(spec)
    args = (cfg, JointPoint.of(*start), steps, diverge_norm, log_dg)
    return _run(game, *args), _run(replace(game, float_form=False), *args)


coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                  st.floats(-12.0, 12.0, allow_nan=False))


@settings(max_examples=400)
@given(spec=st.sampled_from(sorted(GAMES)), rule=st.sampled_from(RULES),
       eta=st.sampled_from([0.01, 0.05, 0.2, 0.7]), x=coord, y=coord,
       steps=st.integers(1, 12), diverge_norm=st.sampled_from([5.0, 1e3]),
       log_dg=st.booleans(), k=st.integers(1, 4))
def test_float_trajectory_is_the_array_trajectory(spec, rule, eta, x, y,
                                                  steps, diverge_norm,
                                                  log_dg, k):
    got, want = _floats_and_arrays(spec, rule, eta, (x, y), steps,
                                   diverge_norm, log_dg, k)
    assert got == want


UNROLLED_RULES = [("unrolled", "envelope"), ("dg", "unrolled")]


@settings(max_examples=200)
@given(spec=st.sampled_from(sorted(GAMES)),
       rule=st.sampled_from(UNROLLED_RULES),
       eta=st.sampled_from([0.01, 0.05, 0.2, 0.7]), x=coord, y=coord,
       steps=st.integers(1, 12), log_dg=st.booleans(), k=st.integers(1, 10))
def test_unrolled_float_trajectory_is_the_array_trajectory(spec, rule, eta, x,
                                                           y, steps, log_dg,
                                                           k):
    # k and unroll_k up to 10, the CLI default
    got, want = _floats_and_arrays(spec, rule, eta, (x, y), steps,
                                   log_dg=log_dg, k=k)
    assert got == want


# starts where a Hessian block product is -0.0: a float product without
# numpy's + 0.0 would move a signed zero in the iterates
@pytest.mark.parametrize("spec,alg,start", [
    ("f1", "sga", (0.0, -0.0)), ("bilinear:c=3", "sga", (-0.0, -0.0)),
    ("f1", "co", (-0.0, 0.0)), ("f3", "co", (-0.0, -0.0)),
    ("ncnc:c=3,sep=1", "co", (-0.0, -0.0)), ("f2", "fr", (-0.0, -0.0))])
def test_signed_zero_hessian_products(spec, alg, start):
    got, want = _floats_and_arrays(spec, (alg, "envelope"), 0.05, start)
    assert got == want


@pytest.mark.parametrize("diverge_norm", [1e3, 1e308])
@pytest.mark.parametrize("rule", RULES, ids=[f"{a}-{m}" for a, m in RULES])
def test_diverging_run(rule, diverge_norm):
    # past 1e308 the run goes on until a gradient or a point overflows
    got, want = _floats_and_arrays("f1", rule, 1.5, (0.5, 0.5), steps=2000,
                                   diverge_norm=diverge_norm, log_dg=True)
    assert got == want
    assert got[1] == "diverged" or got[3] is not None


@pytest.mark.parametrize("rule", RULES, ids=[f"{a}-{m}" for a, m in RULES])
def test_non_finite_gradient_stops_the_run(rule):
    # grad_v = c * u overflows at the start, which the norm check skips
    got, want = _floats_and_arrays("bilinear:c=1e300", rule, 0.05,
                                   (1e200, 1.0))
    assert got == want
    assert "non-finite" in got[3]


@pytest.mark.parametrize("rule", [("dg", "envelope"), ("dg", "unrolled")])
def test_non_finite_inner_chain_stops_the_run(rule):
    got, want = _floats_and_arrays("f1", rule, 0.05, (0.3, 0.2), k=500,
                                   gamma=1e100, log_dg=True)
    assert got == want
    assert got[3] is not None and "non-finite" in got[3]


@pytest.mark.parametrize("spec", ["bilinear:c=3", "ncnc:c=3"])
def test_fr_singular_follower_hessian(spec):
    got, want = _floats_and_arrays(spec, ("fr", "envelope"), 0.05,
                                   (0.5, -0.25))
    assert got == want
    assert got[3] == "H_vv is singular at u=[0.5], v=[-0.25]"


def test_one_float64_start_steps_floats():
    seen = set()

    def recorded(fn):
        def record(u, v):
            seen.add((type(u), type(v)))
            return fn(u, v)
        return record

    game = GAMES["f2"]
    game = replace(game, value=recorded(game.value),
                   grad_u=recorded(game.grad_u),
                   grad_v=recorded(game.grad_v))
    cfg = OptimizerConfig("dg", eta=0.05, dg=DGConfig(k=2, gamma=0.05))
    run_trajectory(game, cfg, JointPoint.of(0.3, -0.2), steps=3)
    assert seen == {(float, float)}


def test_only_one_float64_point_of_an_unboxed_float_form_game_is_floats():
    f1, p = GAMES["f1"], JointPoint.of(0.3, -0.2)
    assert games.float_point_ok(f1, *p)
    assert not games.float_point_ok(make_game("motivation"), *p)
    assert not games.float_point_ok(replace(f1, float_form=False), *p)
    assert not games.float_point_ok(f1, p.u.astype(np.float32),
                                    p.v.astype(np.float32))
    assert not games.float_point_ok(f1, np.full((3, 1), 0.3),
                                    np.full((3, 1), -0.2))
    assert not games.float_point_ok(f1, 0.3, -0.2)


@pytest.mark.parametrize("alg", ["gda", "eg", "dg"])
def test_float_records_are_the_stepped_floats(alg):
    game = GAMES["f1"]
    cfg = OptimizerConfig(alg, eta=0.05, dg=DGConfig(k=3, gamma=0.05))
    traj = run_trajectory(game, cfg, JointPoint.of(0.3, -0.2), steps=40)
    step, p = make_step_map(game, cfg), JointPoint(0.3, -0.2)
    assert traj.iterates.shape == (41, 2) and traj.dim_u == 1
    assert traj.iterates.dtype == np.float64
    for row in traj.iterates:
        assert row.tobytes() == np.array([p.u, p.v]).tobytes()
        p, _, _ = step(p)


def _quadratic_2x1():
    """M(u, v) = u0^2 + u0 u1 - v0^2 + u1 v0, one 2-D and one 1-D player."""
    return games.GameOracle(
        name="quad2x1", dim_u=2, dim_v=1,
        value=lambda u, v: float(u[0] * u[0] + u[0] * u[1] - v[0] * v[0]
                                 + u[1] * v[0]),
        grad_u=lambda u, v: np.array([2 * u[0] + u[1], u[0] + v[0]]),
        grad_v=lambda u, v: np.array([-2 * v[0] + u[1]]))


@pytest.mark.parametrize("game,start,dtype", [
    (make_game("motivation"), ([0.4], [-0.3]), np.float64),   # boxed
    (GAMES["f2"], ([0.4], [-0.3]), np.float32),
    (_quadratic_2x1(), ([0.4, 0.1], [-0.3]), np.float64),
], ids=["boxed", "float32", "2x1"])
def test_array_trajectories_keep_their_record_dtypes(game, start, dtype):
    # every start is read as float64 (JointPoint.of), so are the iterates
    cfg = OptimizerConfig("dg", eta=0.05, dg=DGConfig(k=2, gamma=0.05))
    init = JointPoint(*(np.array(x, dtype=dtype) for x in start))
    traj = run_trajectory(game, cfg, init, steps=25)
    assert traj.iterates.dtype == np.float64
    assert traj.iterates.shape == (26, game.dim_u + game.dim_v)
    assert traj.dim_u == game.dim_u
    assert traj.iterates[0, :game.dim_u].tobytes() == np.array(
        start[0], dtype=dtype).astype(float).tobytes()
