"""The CLI contract over drawn argv: exit 0, 1 or 2, never a traceback.

Each numeric flag takes its valid value or one of 0, -1, nan, inf and
1e308.  Sizes (steps, resolution, iterations, repeats, T, dimension,
inner steps) are drawn only from small valid values and invalid ones,
since a huge valid size asks for gigabytes.  Exit 2 writes no file;
exit 0 writes files that parse.
"""

import contextlib
import io
import json
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from dgopt.cli import main  # noqa: E402
from dgopt.dg import GRAD_MODES  # noqa: E402
from dgopt.dynamics import MEASURES  # noqa: E402
from dgopt.mog import MOG_ALGORITHMS  # noqa: E402
from dgopt.optimizers import ALGORITHMS  # noqa: E402

BAD = ("0", "-1", "nan", "inf", "1e308")
GAMES = ("f1", "f2", "f3", "motivation", "bilinear:c={}", "ncnc:c={}",
         "ncnc:c=3,sep={}")

# flag -> its valid values, where "{}" stands for a number; the first
# group of each subcommand is always passed
OPTIMIZER = {"--eta": ("0.05",), "--eta-y": ("0.1",), "--sga-lambda": ("1",),
             "--co-gamma": ("0.1",), "--unroll-k": ("2",), "--k": ("2",),
             "--gamma": ("0.05",), "--mode": GRAD_MODES}
FLAGS = {
    "traj": ({"--game": GAMES, "--alg": ALGORITHMS,
              "--init": ("0.5,0.5", "{},0.5"), "--steps": ("3",)},
             {**OPTIMIZER, "--tol": ("1e-3",), "--diverge-norm": ("1e3",),
              "--target": ("0,0", "{},0")}),
    "stability": ({"--game": GAMES, "--alg": ALGORITHMS,
                   "--point": ("0,0", "{},0")},
                  {**OPTIMIZER, "--fd-step": ("1e-6",)}),
    "landscape": ({"--game": GAMES, "--box": ("-1,1", "-1,{}", "{},1"),
                   "--res": ("3", "5")},
                  {"--measure": MEASURES, "--eta": ("0.05",), "--k": ("2",),
                   "--gamma": ("0.05",), "--mode": GRAD_MODES}),
    "rate": ({"--dim": ("2",), "--family": ("2",), "--Tmax": ("200",),
              "--repeats": ("1",)}, {}),
    # --k is always set: each log row's DG metric at the default k=10
    # costs 22 gradient passes over 5000 rows
    "mog": ({"--alg": MOG_ALGORITHMS, "--iters": ("0", "1"), "--k": ("1",)},
            {"--lr": ("2e-4",), "--co-gamma": ("1",),
             "--log-interval": ("1",)}),
}


@st.composite
def argvs(draw, sub):
    """The required flags and a drawn subset of the others; at most two
    take a value from BAD, the rest a valid one ("{}" filled with 1)."""
    required, optional = FLAGS[sub]
    chosen = {**required, **{flag: values for flag, values in optional.items()
                             if draw(st.booleans())}}
    bad = draw(st.sets(st.sampled_from(sorted(chosen)), max_size=2))
    argv = [sub]
    for flag, values in chosen.items():
        value = draw(st.sampled_from(values))
        if flag in bad:
            number = draw(st.sampled_from(BAD))
            value = value.format(number) if "{}" in value else number
        argv.append(f"{flag}={value.format(1)}")
    if draw(st.booleans()):
        argv.append("--no-plot")
    return argv


def _check_parses(path, header):
    if path.suffix == ".json":
        json.loads(path.read_text())
    elif path.suffix == ".svg":
        ET.parse(path)
    else:
        lines = path.read_text().splitlines()
        for line in lines[1 if header else 0:]:
            for cell in line.split(","):
                if cell:
                    float(cell)


def _check_contract(sub, argv):
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([*argv, "--out", f"{tmp}/run"])
        written = sorted(Path(tmp).iterdir())
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert not written
        if code == 0:
            assert written
            for path in written:
                _check_parses(path, header=sub != "landscape"
                              or path.suffix != ".csv")


@pytest.mark.parametrize("sub", ["landscape", "rate", "stability", "traj"])
@settings(max_examples=40)
@given(data=st.data())
def test_drawn_argv_keeps_the_exit_code_contract(sub, data):
    _check_contract(sub, data.draw(argvs(sub)))


# a valid mog run builds a 5000-row game, so it gets fewer draws
@settings(max_examples=15)
@given(argv=argvs("mog"))
def test_drawn_mog_argv_keeps_the_exit_code_contract(argv):
    _check_contract("mog", argv)
