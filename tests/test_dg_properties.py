"""Property tests for the warm-started duality-gap estimate."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dgopt.dg import DGConfig, dg_estimate  # noqa: E402
from dgopt.games import JointPoint, make_game  # noqa: E402

# largest Hessian eigenvalue of the constant-curvature games
SMOOTHNESS = {"f1": 4 + 20 ** 0.5, "f2": 4 + 20 ** 0.5,
              "bilinear:c=3": 3.0, "bilinear:c=10": 10.0}
GAMES = {spec: make_game(spec) for spec in SMOOTHNESS}
coord = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(spec=st.sampled_from(sorted(SMOOTHNESS)), k=st.integers(1, 25),
       fraction=st.floats(1e-3, 1.0), x=coord, y=coord)
def test_warm_start_estimate_is_nonnegative(spec, k, fraction, x, y):
    # any gamma <= 1/L makes every inner step monotone for the frozen
    # player, so neither half can move the gap below zero
    cfg = DGConfig(k=k, gamma=fraction / SMOOTHNESS[spec])
    assert dg_estimate(GAMES[spec], JointPoint.of(x, y), cfg).value >= -1e-9
