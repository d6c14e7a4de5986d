"""Property tests for the warm-started duality-gap estimate."""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dgopt.dg import (GRAD_MODES, DGConfig, _chain,  # noqa: E402
                      _differentiated_chain, dg_descent_step, dg_estimate,
                      dg_metric, worst_case_responses)
from dgopt.games import (JointPoint, NonFiniteValueError,  # noqa: E402
                         make_game)
from dgopt.mog import MogGanGame  # noqa: E402
from dgopt.optimizers import gda_step, unrolled_step  # noqa: E402
from game_helpers import catalog_names  # noqa: E402

# largest Hessian eigenvalue of the constant-curvature games
SMOOTHNESS = {"f1": 4 + 20 ** 0.5, "f2": 4 + 20 ** 0.5,
              "bilinear:c=3": 3.0, "bilinear:c=10": 10.0}
GAMES = {spec: make_game(spec) for spec in SMOOTHNESS}
coord = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=300)
@given(spec=st.sampled_from(sorted(SMOOTHNESS)), k=st.integers(1, 25),
       fraction=st.floats(1e-3, 1.0), x=coord, y=coord)
def test_warm_start_estimate_is_nonnegative(spec, k, fraction, x, y):
    # any gamma <= 1/L makes every inner step monotone for the frozen
    # player, so neither half can move the gap below zero
    cfg = DGConfig(k=k, gamma=fraction / SMOOTHNESS[spec])
    assert dg_estimate(GAMES[spec], JointPoint.of(x, y), cfg).value >= -1e-9


CATALOG = {spec: make_game(spec) for spec in
           ("bilinear:c=3", "f1", "f2", "f3", "motivation", "ncnc:c=3",
            "ncnc:c=3,sep=1")}
assert {spec.partition(":")[0] for spec in CATALOG} == set(catalog_names())
wide = st.floats(-12.0, 12.0, allow_nan=False)


@settings(max_examples=300)
@given(spec=st.sampled_from(sorted(CATALOG)), k=st.sampled_from([0, 1, 3]),
       gamma=st.floats(1e-3, 0.3),
       dtype=st.sampled_from([np.float32, np.float64]),
       batch=st.sampled_from([None, (3,), (2, 2)]), data=st.data())
def test_logged_metric_is_the_step_estimate_value(spec, k, gamma, dtype,
                                                  batch, data):
    # a logged DG value and the next step's estimate share one pair of
    # chains; both must equal what a fresh evaluation gives, bit for bit
    # (the box game's coordinates reach past its [-10, 10] box)
    shape = (1,) if batch is None else (*batch, 1)
    size = int(np.prod(shape))
    u, v = (np.array(data.draw(st.lists(wide, min_size=size, max_size=size)),
                     dtype=dtype).reshape(shape) for _ in range(2))
    game, p, cfg = CATALOG[spec], JointPoint(u, v), DGConfig(k=k, gamma=gamma)
    fresh = dg_estimate(replace(game), p, cfg)
    metric = dg_metric(game, p, cfg)
    est = dg_estimate(game, p, cfg)
    assert np.asarray(metric).tobytes() == np.asarray(est.value).tobytes()
    assert np.asarray(est.value).tobytes() == np.asarray(fresh.value).tobytes()
    for field in ("u_worst", "v_worst", "grad_u", "grad_v"):
        assert getattr(est, field).tobytes() == getattr(fresh, field).tobytes()


@settings(max_examples=300)
@given(spec=st.sampled_from(sorted(CATALOG)),
       grad_mode=st.sampled_from(GRAD_MODES), floats=st.booleans(),
       x=wide, y=wide, eta=st.floats(0.0, 1.0, exclude_min=True),
       gamma=st.floats(1e-3, 0.3))
def test_k0_dg_step_is_the_gda_step(spec, grad_mode, floats, x, y, eta,
                                    gamma):
    # criterion 9: with no inner steps the DG gradient is the pair at p in
    # both modes, so the DG step is the GDA step bit for bit, and the gap
    # is 0.0
    game = CATALOG[spec]
    p = JointPoint(x, y) if floats else JointPoint.of(x, y)
    cfg = DGConfig(k=0, gamma=gamma, grad_mode=grad_mode)
    got, value = dg_descent_step(game, p, cfg, eta)
    want = gda_step(game, p, game.grads(*p), eta)
    for got_x, want_x in zip(got, want):
        assert type(got_x) is type(want_x)
        assert np.asarray(got_x).tobytes() == np.asarray(want_x).tobytes()
    assert value == 0.0


# The unrolled DG gradient and the unrolled-GAN step share one
# differentiated chain; these are the three separate forward-accumulation
# loops it replaced, kept as the bit-for-bit reference.
def _reference_unrolled_dg(game, p, k, gamma):
    u, v = p
    du, dv = game.dim_u, game.dim_v
    y = v.copy()
    A = np.zeros((dv, du))
    B = np.eye(dv)
    for _ in range(k):
        _, _, H_vu, H_vv = game.hessian_blocks(JointPoint(u, y))
        A = A + gamma * (H_vu + H_vv @ A)
        B = B + gamma * (H_vv @ B)
        y = y + gamma * game.grad_v(u, y)
    x = u.copy()
    C = np.eye(du)
    D = np.zeros((du, dv))
    for _ in range(k):
        H_uu, H_uv, _, _ = game.hessian_blocks(JointPoint(x, v))
        C = C - gamma * (H_uu @ C)
        D = D - gamma * (H_uv + H_uu @ D)
        x = x - gamma * game.grad_u(x, v)
    gu_first, gv_first = game.grad_u(u, y), game.grad_v(u, y)
    gu_second, gv_second = game.grad_u(x, v), game.grad_v(x, v)
    grad_u = gu_first + A.T @ gv_first - C.T @ gu_second
    grad_v = B.T @ gv_first - gv_second - D.T @ gu_second
    return x, y, grad_u, grad_v, game.value(u, y) - game.value(x, v)


def _reference_unrolled_step(game, p, eta, k):
    u, v = p
    gv = game.grad_v(u, v)
    y = v.astype(float, copy=True)
    S = np.zeros((game.dim_v, game.dim_u))
    for _ in range(k):
        _, _, H_vu, H_vv = game.hessian_blocks(JointPoint(u, y))
        S = S + eta * (H_vu + H_vv @ S)
        y = y + eta * game.grad_v(u, y)
    total = game.grad_u(u, y) + S.T @ game.grad_v(u, y)
    return JointPoint(u - eta * total, v + eta * gv)


UNBOXED = sorted(spec for spec, game in CATALOG.items() if game.domain is None)
assert len(UNBOXED) == len(CATALOG) - 1


@settings(max_examples=300)
@given(spec=st.sampled_from(UNBOXED), k=st.integers(1, 5),
       gamma=st.floats(1e-3, 0.3), x=coord, y=coord)
def test_unrolled_modes_match_the_separate_loops(spec, k, gamma, x, y):
    game, p = CATALOG[spec], JointPoint.of(x, y)
    est = dg_estimate(game, p, DGConfig(k=k, gamma=gamma,
                                        grad_mode="unrolled"))
    uw, vw, grad_u, grad_v, value = _reference_unrolled_dg(game, p, k, gamma)
    assert est.value == value
    for got, want in ((est.u_worst, uw), (est.v_worst, vw),
                      (est.grad_u, grad_u), (est.grad_v, grad_v)):
        assert np.array_equal(got, want)
    got = unrolled_step(game, p, game.grads(*p), gamma, k)
    want = _reference_unrolled_step(game, p, gamma, k)
    assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)


# At a float point the differentiated chain, the unrolled-GAN step and the
# unrolled DG estimate step Python floats, with no (1,) array round trip;
# each result must be the (1,) call's one entry, bit for bit, signed
# zeros included.
UNROLLED_FLOATS = ("bilinear:c=3", "f1", "f2", "f3", "ncnc:c=3")
signed_coord = st.one_of(st.sampled_from([0.0, -0.0]), wide)


@settings(max_examples=300)
@given(spec=st.sampled_from(UNROLLED_FLOATS), k=st.integers(1, 10),
       gamma=st.floats(1e-3, 0.7), ascent=st.booleans(), x=signed_coord,
       y=signed_coord)
def test_float_unrolled_path_is_the_array_path(spec, k, gamma, ascent, x, y):
    game, cfg = CATALOG[spec], DGConfig(k=k, gamma=gamma,
                                        grad_mode="unrolled")
    results = []
    for p in (JointPoint(x, y), JointPoint.of(x, y)):
        est = dg_estimate(game, p, cfg)
        results.append([
            *_differentiated_chain(game, p, gamma if ascent else -gamma, k),
            *unrolled_step(game, p, game.grads(*p), gamma, k), est.value,
            est.u_worst, est.v_worst, est.grad_u, est.grad_v])
    floats, arrays = results
    assert all(type(r) is float for r in floats)
    assert ([np.float64(r).tobytes() for r in floats]
            == [np.asarray(r, dtype=np.float64).tobytes() for r in arrays])


# The float form: a catalog game's chains at a point of two Python floats
# (no box) step Python floats; every result must be the (1,) array
# chain's, bit for bit, including where and how a diverging chain fails.
FLOAT_FORM = {spec: game for spec, game in CATALOG.items()
              if game.domain is None}
FLOAT_FORM["motivation"] = replace(CATALOG["motivation"], domain=None)
assert all(game.float_form for game in FLOAT_FORM.values())
inner_gamma = st.one_of(st.floats(1e-3, 1.0), st.sampled_from([10.0, 1e100]))


def _outcome(fn):
    """fn()'s result, or the type and message of what it raised."""
    try:
        return fn()
    except (NonFiniteValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _float_and_array_chains(game, k, ascent, gamma, x, y):
    """The outcomes of one inner chain from (x, y), stepped on floats and
    on (1,) arrays: the ascent chain on y, or the descent chain on x."""
    p = JointPoint.of(x, y)
    own, other = (y, x) if ascent else (x, y)
    grad = game.grad_v if ascent else game.grad_u

    def floats():
        end = _chain(grad, own, other, ascent, gamma, None, k, p)
        return np.array([end]).tobytes()

    def arrays():
        with np.errstate(over="ignore", invalid="ignore"):
            end = _chain(grad, np.array([own]), np.array([other]), ascent,
                         np.float64(gamma), None, k, p)
        return end.tobytes()

    return _outcome(floats), _outcome(arrays)


@settings(max_examples=300)
@given(spec=st.sampled_from(sorted(FLOAT_FORM)), k=st.integers(0, 12),
       ascent=st.booleans(), gamma=inner_gamma, x=wide, y=wide)
def test_float_chain_is_the_array_chain(spec, k, ascent, gamma, x, y):
    got, want = _float_and_array_chains(FLOAT_FORM[spec], k, ascent, gamma,
                                        x, y)
    assert got == want


@pytest.mark.parametrize("ascent", [False, True], ids=["descent", "ascent"])
def test_diverging_float_chain_fails_at_the_array_chains_step(ascent):
    got, want = _float_and_array_chains(FLOAT_FORM["f1"], 500, ascent,
                                        1e100, 0.3, 0.2)
    assert got == want
    kind = "ascent" if ascent else "descent"
    assert got[0] is NonFiniteValueError
    assert got[1].startswith(f"inner {kind} iterate became non-finite at "
                             f"inner step ")


@settings(max_examples=200)
@given(spec=st.sampled_from(sorted(FLOAT_FORM)), k=st.integers(0, 12),
       gamma=inner_gamma, x=wide, y=wide)
def test_float_form_estimate_is_the_array_estimate(spec, k, gamma, x, y):
    # the estimate at a point of two Python floats is the (1,) estimate
    cfg = DGConfig(k=k, gamma=gamma)

    def estimate(p):
        with np.errstate(over="ignore", invalid="ignore"):
            est = dg_estimate(FLOAT_FORM[spec], p, cfg)
        return tuple(np.asarray(getattr(est, field)).tobytes() for field in
                     ("value", "u_worst", "v_worst", "grad_u", "grad_v"))

    assert (_outcome(lambda: estimate(JointPoint(x, y)))
            == _outcome(lambda: estimate(JointPoint.of(x, y))))


def _recorded(fn, seen):
    """fn, adding the types of each call's point to seen."""
    def record(u, v):
        seen.add((type(u), type(v)))
        return fn(u, v)
    return record


@pytest.mark.parametrize("spec", sorted(FLOAT_FORM))
def test_one_float64_point_steps_floats(spec):
    # the chains step the form they are handed: floats stay floats, and
    # a (1,) float64 point stays on arrays
    game = FLOAT_FORM[spec]
    for p, form in ((JointPoint(0.3, -0.2), float),
                    (JointPoint.of(0.3, -0.2), np.ndarray)):
        seen = set()
        recorded = replace(game, grad_u=_recorded(game.grad_u, seen),
                           grad_v=_recorded(game.grad_v, seen))
        worst_case_responses(recorded, p, DGConfig(k=3, gamma=0.05))
        assert seen == {(form, form)}


@pytest.mark.parametrize("case", ["box", "batch", "float32", "mog"])
def test_other_points_and_games_step_arrays(case):
    seen = set()
    p = JointPoint.of(0.3, -0.2)
    if case == "mog":
        game = MogGanGame(seed=0, n=16, dtype=np.float64)
        game.grad_u = _recorded(game.grad_u, seen)
        game.grad_v = _recorded(game.grad_v, seen)
        p = JointPoint(*game.init_params())
    else:
        game = CATALOG["motivation" if case == "box" else "f1"]
        game = replace(game, grad_u=_recorded(game.grad_u, seen),
                       grad_v=_recorded(game.grad_v, seen))
        if case == "batch":
            p = JointPoint(np.full((3, 1), 0.3), np.full((3, 1), -0.2))
        elif case == "float32":
            p = JointPoint(p.u.astype(np.float32), p.v.astype(np.float32))
    worst_case_responses(game, p, DGConfig(k=3, gamma=0.05))
    assert seen == {(np.ndarray, np.ndarray)}
