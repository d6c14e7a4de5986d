"""CLI subcommands: files, exit codes, determinism, SVG well-formedness."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from dgopt.cli import _load_config_argv, build_parser, main


def run(args):
    return main(list(args))


class TestTraj:
    def test_dg_on_f1_converges(self, tmp_path):
        out = tmp_path / "run"
        code = run(["traj", "--game", "f1", "--alg", "dg", "--eta", "0.05",
                    "--k", "10", "--init", "0.5,0.5", "--steps", "2000",
                    "--seed", "1", "--out", str(out)])
        assert code == 0
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["classification"] == "converged"
        assert (tmp_path / "run.csv").exists()
        assert (tmp_path / "run.svg").exists()

    def test_gda_on_f1_diverges(self, tmp_path):
        out = tmp_path / "run"
        code = run(["traj", "--game", "f1", "--alg", "gda", "--eta", "0.05",
                    "--init", "0.5,0.5", "--steps", "2000", "--seed", "1",
                    "--out", str(out), "--no-plot"])
        assert code == 0
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["classification"] == "diverged"

    def test_missing_game_is_usage_error(self, capsys):
        code = run(["traj", "--alg", "gda", "--init", "0,0"])
        assert code == 2

    def test_unknown_game_is_usage_error(self, capsys):
        code = run(["traj", "--game", "nope", "--alg", "gda",
                    "--init", "0,0", "--no-plot"])
        assert code == 2
        assert "unknown game" in capsys.readouterr().err

    def test_unknown_algorithm_is_usage_error(self):
        code = run(["traj", "--game", "f1", "--alg", "newton", "--init", "0,0"])
        assert code == 2

    def test_unknown_game_parameter_is_usage_error(self, tmp_path, capsys):
        code = run(["traj", "--game", "ncnc:c=3,foo=2", "--alg", "gda",
                    "--init", "0.1,0.1", "--steps", "3", "--no-plot",
                    "--out", str(tmp_path / "run")])
        assert code == 2
        assert "unknown parameters ['foo']" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("flags", [
        ("--alg", "co", "--co-gamma", "-5"),
        ("--alg", "fr", "--eta-y", "-1"),
        ("--alg", "gda", "--eta", "nan"),
        ("--alg", "dg", "--gamma", "nan"),
        ("--alg", "co", "--co-gamma", "nan"),
        ("--alg", "gda", "--diverge-norm", "-1"),
        ("--alg", "gda", "--diverge-norm", "0"),
        ("--alg", "gda", "--tol", "-1"),
        ("--alg", "gda", "--tol", "nan"),
        ("--alg", "gda", "--target", "0,inf"),
    ])
    def test_out_of_range_setting_is_usage_error(self, tmp_path, capsys,
                                                 flags):
        code = run(["traj", "--game", "f1", *flags, "--init", "0.5,0.5",
                    "--steps", "3", "--no-plot",
                    "--out", str(tmp_path / "run")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("init", ["nan,0", "0,inf"])
    def test_non_finite_init_is_usage_error(self, tmp_path, capsys, init):
        code = run(["traj", "--game", "f1", "--alg", "gda", "--init", init,
                    "--steps", "3", "--no-plot",
                    "--out", str(tmp_path / "run")])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    def test_step_error_is_reported(self, tmp_path, capsys):
        code = run(["traj", "--game", "bilinear:c=1", "--alg", "fr",
                    "--init", "0.5,0.5", "--no-plot",
                    "--out", str(tmp_path / "run")])
        assert code == 0
        captured = capsys.readouterr()
        assert "non_convergent after 0 steps" in captured.out
        assert captured.err == ("stopped at step 1: H_vv is singular at "
                                "u=[0.5], v=[0.5]\n")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_logged_dg_leaves_the_cell_empty(self, tmp_path,
                                                        capsys):
        runs = {}
        for log_dg in ((), ("--log-dg",)):
            out = tmp_path / f"run{len(log_dg)}"
            code = run(["traj", "--game", "f1", "--alg", "gda", *log_dg,
                        "--init", "1e200,1e200", "--steps", "5", "--no-plot",
                        "--out", str(out)])
            assert code == 0
            assert "diverged after 1 steps" in capsys.readouterr().out
            rows = [line.split(",") for line in
                    Path(f"{out}.csv").read_text().splitlines()]
            summary = json.loads(Path(f"{out}.json").read_text())
            runs[log_dg] = rows, summary
        (plain, plain_summary), (logged, logged_summary) = runs.values()
        assert logged_summary == plain_summary
        assert [r[:-1] for r in logged] == [r[:-1] for r in plain]
        assert [r[-1] for r in logged[1:]] == ["", ""]

    def test_unrolled_dg_on_boxed_game_is_usage_error(self, tmp_path, capsys):
        code = run(["traj", "--game", "motivation", "--alg", "dg", "--mode",
                    "unrolled", "--init", "1,1", "--steps", "5", "--no-plot",
                    "--out", str(tmp_path / "run")])
        assert code == 2
        assert "box domain" in capsys.readouterr().err


class TestStability:
    def test_bilinear_gda_eigenvalues(self, tmp_path, capsys):
        out = tmp_path / "stab"
        code = run(["stability", "--game", "bilinear:c=3", "--alg", "gda",
                    "--eta", "0.1", "--point", "0,0", "--out", str(out)])
        assert code == 0
        report = json.loads((tmp_path / "stab.json").read_text())
        eigs = sorted(report["eigenvalues"], key=lambda e: e["im"])
        assert eigs[0]["re"] == pytest.approx(1.0, abs=1e-6)
        assert eigs[0]["im"] == pytest.approx(-0.3, abs=1e-6)
        assert eigs[1]["im"] == pytest.approx(+0.3, abs=1e-6)
        assert report["classification"] == "unstable"

    def test_non_fixed_point_is_operation_error(self, capsys):
        code = run(["stability", "--game", "f1", "--alg", "gda",
                    "--eta", "0.05", "--point", "1,1", "--out", "/tmp/x"])
        assert code == 1

    @pytest.mark.parametrize("step", ["0", "-1e-6"])
    def test_non_positive_fd_step_is_usage_error(self, tmp_path, capsys,
                                                 step):
        code = run(["stability", "--game", "f1", "--alg", "gda",
                    "--point", "0,0", f"--fd-step={step}",
                    "--out", str(tmp_path / "stab")])
        assert code == 2
        assert "step must be positive" in capsys.readouterr().err
        assert not (tmp_path / "stab.json").exists()

    def test_non_finite_point_is_usage_error(self, tmp_path, capsys):
        code = run(["stability", "--game", "f1", "--alg", "gda",
                    "--point", "nan,0", "--out", str(tmp_path / "stab")])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "stab.json").exists()


class TestLandscape:
    def test_exact_dg_argmin_at_center(self, tmp_path, capsys):
        out = tmp_path / "land"
        code = run(["landscape", "--game", "bilinear:c=3", "--box=-1,1",
                    "--res", "41", "--measure", "dg_exact", "--out", str(out)])
        assert code == 0
        assert "argmin at (u, v) = (0, 0)" in capsys.readouterr().out
        rows = (tmp_path / "land.csv").read_text().splitlines()
        assert len(rows) == 41
        meta = json.loads((tmp_path / "land.meta.json").read_text())
        assert meta["measure"] == "dg_exact"
        tree = ET.parse(tmp_path / "land.svg")
        assert tree.getroot().tag.endswith("svg")

    @pytest.mark.parametrize("eta", ["-1", "0"])
    def test_non_positive_dg_approx_step_is_usage_error(self, tmp_path,
                                                        capsys, eta):
        code = run(["landscape", "--game", "bilinear:c=3", "--box=-1,1",
                    "--res", "5", "--measure", "dg_approx", f"--eta={eta}",
                    "--out", str(tmp_path / "land")])
        assert code == 2
        assert "gamma must be positive" in capsys.readouterr().err
        assert not (tmp_path / "land.csv").exists()

    @pytest.mark.parametrize("flags", [
        ("--box=nan,1", "--res", "5"),
        ("--box=-1,nan", "--res", "5"),
        ("--box=-1,1", "--res", "0"),
        ("--box=-1,1", "--res", "-2"),
    ])
    @pytest.mark.parametrize("measure", ["minimax_value", "dg_approx"])
    def test_bad_grid_is_usage_error(self, tmp_path, capsys, flags, measure):
        code = run(["landscape", "--game", "f1", *flags, "--measure", measure,
                    "--out", str(tmp_path / "land")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "land.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_dg_approx_is_operation_error(self, tmp_path, capsys):
        # f1's descent chain grows by ~6 * gamma per step, so gamma 1e200
        # leaves the floats within two steps at every node but the origin,
        # and the batched chain raises NonFiniteValueError
        code = run(["landscape", "--game", "f1", "--box=-1,1", "--res", "5",
                    "--measure", "dg_approx", "--eta", "1e200",
                    "--out", str(tmp_path / "land")])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "land.csv").exists()


class TestRate:
    def test_small_rate_run(self, tmp_path):
        out = tmp_path / "rate"
        code = run(["rate", "--dim", "4", "--family", "5", "--Tmax", "1000",
                    "--repeats", "2", "--seed", "7", "--out", str(out)])
        assert code == 0
        data = json.loads((tmp_path / "rate.json").read_text())
        assert set(data) == {"slope", "L", "D", "passes_bound"}
        assert (tmp_path / "rate_sgd.json").exists()
        assert (tmp_path / "rate.svg").exists()

    def test_zero_repeats_is_usage_error(self, tmp_path, capsys):
        code = run(["rate", "--dim", "3", "--family", "4", "--Tmax", "200",
                    "--repeats", "0", "--out", str(tmp_path / "rate")])
        assert code == 2
        assert "repeats" in capsys.readouterr().err
        assert not (tmp_path / "rate.json").exists()

    def test_single_logged_step_count_is_usage_error(self, tmp_path, capsys):
        # --Tmax 50 logs T = 50 only, and a slope needs two points
        code = run(["rate", "--dim", "3", "--family", "4", "--Tmax", "50",
                    "--repeats", "1", "--out", str(tmp_path / "rate")])
        assert code == 2
        assert "two logged step counts" in capsys.readouterr().err
        assert not (tmp_path / "rate.json").exists()


class TestMog:
    def test_tiny_mog_run(self, tmp_path):
        out = tmp_path / "mog"
        code = run(["mog", "--alg", "gda", "--iters", "10", "--seed", "1",
                    "--log-interval", "5", "--out", str(out), "--no-plot"])
        assert code == 0
        lines = (tmp_path / "mog.csv").read_text().splitlines()
        assert lines[0].startswith("iter,value")
        assert (tmp_path / "mog_samples.csv").exists()

    def test_histogram_csv_replots_with_float_edges(self, tmp_path):
        out = tmp_path / "mog"
        assert run(["mog", "--alg", "gda", "--iters", "2", "--seed", "1",
                    "--log-interval", "1", "--out", str(out),
                    "--no-plot"]) == 0
        lines = (tmp_path / "mog_hist.csv").read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 121
        lefts = [float(r[0]) for r in rows]
        assert lefts[0] == -6.0 and float(rows[-1][1]) == 6.0
        assert all(float(r[0]) < float(r[1]) for r in rows)
        assert sum(int(r[2]) for r in rows) <= 1000
        code = run(["plot", "--csv", str(tmp_path / "mog_hist.csv"),
                    "--out", str(tmp_path / "hist")])
        assert code == 0
        ET.parse(tmp_path / "hist.svg")

    @pytest.mark.parametrize("flags", [
        ("--alg", "gda", "--log-interval", "0"),
        ("--alg", "co", "--lr", "-1"),
        ("--alg", "gda", "--iters", "-3"),
        ("--alg", "co", "--co-gamma", "-1"),
        ("--alg", "gda", "--lr", "nan"),
        ("--alg", "co", "--co-gamma", "nan"),
    ])
    def test_out_of_range_setting_is_usage_error(self, tmp_path, capsys,
                                                 flags):
        code = run(["mog", "--iters", "2", *flags, "--out",
                    str(tmp_path / "mog"), "--no-plot"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "mog.csv").exists()


# a base run per subcommand in which every float flag takes effect, and
# the words of the setting each flag sets, as stderr names it
FLOAT_FLAGS = {
    ("traj", "--game", "f1", "--alg", "dg", "--init", "0.5,0.5",
     "--steps", "3", "--no-plot"): {
        "--eta": "step size eta", "--eta-y": "eta_y",
        "--sga-lambda": "sga_lambda", "--co-gamma": "co_gamma",
        "--gamma": "inner step size gamma", "--tol": "tolerance tol",
        "--diverge-norm": "diverge_norm"},
    ("stability", "--game", "f1", "--alg", "dg", "--point", "0,0"): {
        "--eta": "step size eta", "--eta-y": "eta_y",
        "--sga-lambda": "sga_lambda", "--co-gamma": "co_gamma",
        "--gamma": "inner step size gamma",
        "--fd-step": "finite-difference step"},
    # landscape's --eta is only the default of --gamma, and is named so
    ("landscape", "--game", "f1", "--box=-1,1", "--res", "3", "--measure",
     "dg_approx", "--no-plot"): {
        "--eta": "inner step size gamma", "--gamma": "inner step size gamma"},
    ("mog", "--alg", "gda", "--iters", "1", "--no-plot"): {
        "--lr": "learning rate lr", "--co-gamma": "co_gamma"},
}


class TestSettingsContract:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("base,flag,name", [
        pytest.param(base, flag, name, id=f"{base[0]}{flag}")
        for base, flags in FLOAT_FLAGS.items()
        for flag, name in flags.items()])
    def test_non_finite_float_flag_is_usage_error(self, tmp_path, capsys,
                                                  base, flag, name, value):
        code = run([*base, f"{flag}={value}", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,name", [
        (("traj", "--game", "f1", "--alg", "sga", "--sga-lambda", "-3"),
         "sga_lambda"),
        (("traj", "--game", "ncnc:c=inf", "--alg", "gda"), "ncnc coupling c"),
        (("traj", "--game", "bilinear:c=nan", "--alg", "gda"),
         "bilinear coupling c"),
        (("traj", "--game", "ncnc:c=3,sep=0.5", "--alg", "gda"),
         "ncnc parameter sep"),
        (("traj", "--game", "f1", "--alg", "gda", "--gamma", "inf"),
         "inner step size gamma"),
        (("landscape", "--game", "f1", "--box=0,inf", "--measure",
          "minimax_value"), "box upper bound"),
        (("landscape", "--game", "f1", "--box=-inf,1"), "box lower bound"),
        (("mog", "--alg", "co", "--co-gamma", "inf"), "co_gamma"),
        # checked before the map runs, so a point it does not fix is no
        # operation error here
        (("stability", "--game", "f1", "--alg", "gda", "--point", "1,1",
          "--fd-step", "inf"), "finite-difference step"),
        (("traj", "--game", "bilinear:c=abc", "--alg", "gda"),
         "game parameter 'c' in 'bilinear:c=abc' is not a number"),
        (("traj", "--game", "bilinear:c=1,c=2", "--alg", "gda"),
         "game parameter 'c' repeats"),
    ])
    def test_out_of_range_setting_is_named(self, tmp_path, capsys, flags,
                                           name):
        sub = flags[0]
        size = {"traj": ["--init", "0.5,0.5", "--steps", "3"],
                "landscape": ["--res", "3"], "mog": ["--iters", "1"]}
        code = run([*flags, *size.get(sub, []), "--no-plot",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,form,given", [
        (("landscape", "--game", "f1", "--box=1"), "lo,hi", "1"),
        (("landscape", "--game", "f1", "--box=1,2,3"), "lo,hi", "1,2,3"),
        (("traj", "--game", "f1", "--alg", "gda", "--init", "a,b"), "u,v",
         "a,b"),
        (("stability", "--game", "f1", "--alg", "gda", "--point", "1"),
         "u,v", "1"),
    ])
    def test_malformed_pair_names_the_expected_form(self, tmp_path, capsys,
                                                    flags, form, given):
        code = run([*flags, "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: expected '{form}', got '{given}'\n"
        assert not list(tmp_path.iterdir())


class TestDeterminism:
    def test_byte_identical_across_threads_flag(self, tmp_path):
        outputs = []
        for threads, sub in (("1", "a"), ("4", "b")):
            out = tmp_path / sub / "run"
            code = run(["traj", "--game", "f2", "--alg", "dg", "--eta",
                        "0.05", "--k", "5", "--init", "0.4,-0.3", "--steps",
                        "200", "--seed", "9", "--threads", threads,
                        "--out", str(out)])
            assert code == 0
            outputs.append({
                "csv": (tmp_path / sub / "run.csv").read_bytes(),
                "json": (tmp_path / sub / "run.json").read_bytes(),
                "svg": (tmp_path / sub / "run.svg").read_bytes(),
            })
        assert outputs[0] == outputs[1]

    def test_mog_dg_byte_identical_across_threads_flag(self, tmp_path):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / threads / "mog"
            code = run(["mog", "--alg", "dg", "--k", "3", "--iters", "3",
                        "--log-interval", "2", "--seed", "4", "--threads",
                        threads, "--out", str(out)])
            assert code == 0
            outputs.append({suffix: Path(f"{out}{suffix}").read_bytes()
                            for suffix in (".csv", "_samples.csv",
                                           "_hist.csv", ".svg")})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("alg", ["gda", "eg", "co", "dg"])
    def test_mog_byte_identical_under_one_cpu_mask(self, tmp_path,
                                                   monkeypatch, alg):
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)),
                                raising=False)
            out = tmp_path / str(cpus) / "mog"
            code = run(["mog", "--alg", alg, "--k", "3", "--iters", "3",
                        "--log-interval", "2", "--seed", "4",
                        "--out", str(out)])
            assert code == 0
            outputs.append({suffix: Path(f"{out}{suffix}").read_bytes()
                            for suffix in (".csv", "_samples.csv",
                                           "_hist.csv", ".svg")})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("repeats", ["1", "2", "3"])
    def test_rate_byte_identical_under_one_cpu_mask(self, tmp_path,
                                                    monkeypatch, repeats):
        # two CPUs split the runs over a forked child; one runs them all
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)),
                                raising=False)
            out = tmp_path / str(cpus) / "rate"
            code = run(["rate", "--dim", "3", "--family", "4", "--Tmax",
                        "1000", "--repeats", repeats, "--seed", "5",
                        "--out", str(out)])
            assert code == 0
            outputs.append({suffix: Path(f"{out}{suffix}").read_bytes()
                            for suffix in (".csv", ".json", "_sgd.csv",
                                           "_sgd.json", ".svg")})
        assert len(forks) == 1
        assert outputs[0] == outputs[1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_catalog_dg_starts_no_thread_and_loads_no_blas_hooks(self, tmp_path):
        script = (
            "import threading, sys\n"
            "from dgopt import cli, parallel\n"
            "assert parallel._openblas_thread_calls.cache_info().currsize == 0\n"
            "started, start = [], threading.Thread.start\n"
            "threading.Thread.start = lambda t: (started.append(t), start(t))\n"
            "for args in (['traj', '--game', 'f1', '--alg', 'dg', '--init',\n"
            "              '0.5,0.5', '--steps', '20', '--log-dg'],\n"
            "             ['landscape', '--game', 'bilinear:c=3', '--box=-1,1',\n"
            "              '--res', '5', '--measure', 'dg_approx']):\n"
            "    assert cli.main(args + ['--no-plot', '--out', sys.argv[1]]) == 0\n"
            "assert not started\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "assert parallel._openblas_thread_calls.cache_info().currsize == 0\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}"
                                          f"{os.environ.get('PYTHONPATH', '')}")
        proc = subprocess.run([sys.executable, "-c", script,
                               str(tmp_path / "run")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_repeat_invocations_byte_identical(self, tmp_path):
        blobs = []
        for sub in ("x", "y"):
            out = tmp_path / sub / "rate"
            run(["rate", "--dim", "3", "--family", "4", "--Tmax", "500",
                 "--repeats", "2", "--seed", "5", "--out", str(out)])
            blobs.append((tmp_path / sub / "rate.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("game=f2\neta=0.05\nsteps=100\ninit=0.3,0.3\n")
        out = tmp_path / "out"
        code = run(["--config", str(cfg), "traj", "--alg", "gda",
                    "--out", str(out), "--no-plot"])
        assert code == 0
        summary = json.loads((tmp_path / "out.json").read_text())
        assert summary["game"] == "f2"
        assert summary["steps"] == 100
        # explicit flag wins over the config value
        code = run(["--config", str(cfg), "traj", "--alg", "gda",
                    "--steps", "10", "--out", str(out), "--no-plot"])
        assert code == 0
        summary = json.loads((tmp_path / "out.json").read_text())
        assert summary["steps"] == 10

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        assert run(["--config", str(cfg), "traj"]) == 2

    TRAJ = ["traj", "--game", "f1", "--alg", "gda", "--init", "0.5,0.5",
            "--no-plot"]

    @pytest.mark.parametrize("form", [("--config", "{}"), ("--config={}",)],
                             ids=["space", "equals"])
    def test_both_config_spellings_are_read(self, tmp_path, form):
        # blank and comment lines are skipped
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# seven steps\n\nsteps=7\n   \n")
        code = run([arg.format(cfg) for arg in form]
                   + [*self.TRAJ, "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out.json").read_text())
        assert summary["steps"] == 7

    def test_abbreviated_config_flag_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=7\n")
        code = run(["--conf", str(cfg), *self.TRAJ,
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv", [["--conf", "{}"], ["--conf={}"]],
                             ids=["space", "equals"])
    def test_unknown_flag_before_the_subcommand_is_named(self, tmp_path,
                                                         capsys, argv):
        # its value must not be taken for the subcommand
        cfg = tmp_path / "c.txt"
        cfg.write_text("steps=7\n")
        code = run([arg.format(cfg) for arg in argv]
                   + [*self.TRAJ, "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: unrecognized argument before the subcommand: "
            f"{argv[0].format(cfg)}\n")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_subcommand_flags_still_abbreviate(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=7\n")
        argv = ["--config", str(cfg), "traj", "--game", "f1", "--alg", "co",
                "--init", "0,0", "--co", "0.2"]
        args = build_parser().parse_args(_load_config_argv(argv))
        assert (args.co_gamma, args.steps) == (0.2, 7)

    @pytest.mark.parametrize("argv, message", [
        (["--config"], "argument --config: expected one argument"),
        (["traj", "--config"], "argument --config: expected one argument"),
        (["--config", "{}"], "error: config file given but no subcommand"),
    ], ids=["no-path", "no-path-after-subcommand", "no-subcommand"])
    def test_config_without_a_path_or_subcommand_is_usage_error(
            self, tmp_path, capsys, argv, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=7\n")
        assert run([arg.format(cfg) for arg in argv]) == 2
        assert message in capsys.readouterr().err


class TestPlotCommand:
    def test_rerender_from_csv(self, tmp_path):
        out = tmp_path / "run"
        run(["traj", "--game", "f2", "--alg", "gda", "--eta", "0.05",
             "--init", "0.5,0.5", "--steps", "50", "--out", str(out),
             "--no-plot"])
        code = run(["plot", "--csv", str(tmp_path / "run.csv"),
                    "--out", str(tmp_path / "re")])
        assert code == 0
        ET.parse(tmp_path / "re.svg")

    @pytest.mark.parametrize("kind, text", [
        ("landscape", "0.5,0.25,1\n0,-1,2\n"),
        ("lines", "t,a\n0,\n1,\n"),   # no finite y: the default range
    ], ids=["landscape", "lines-all-nan"])
    def test_renders_into_a_new_directory(self, tmp_path, capsys, kind,
                                          text):
        csv = tmp_path / "in.csv"
        csv.write_text(text)
        out = tmp_path / "new" / "dir" / "p"
        code = run(["plot", "--csv", str(csv), "--kind", kind,
                    "--out", str(out)])
        assert code == 0
        assert ET.parse(f"{out}.svg").getroot().tag.endswith("svg")
        assert capsys.readouterr().out == f"rendered {out}.svg\n"

    def test_missing_csv_is_usage_error(self):
        assert run(["plot", "--csv", "/nonexistent.csv", "--out", "/tmp/z"]) == 2

    @pytest.mark.parametrize("kind, text", [
        ("lines", ""), ("lines", "t,u,v\n"), ("landscape", ""),
    ])
    def test_csv_without_data_rows_is_usage_error(self, tmp_path, capsys,
                                                  kind, text):
        csv = tmp_path / "empty.csv"
        csv.write_text(text)
        code = run(["plot", "--csv", str(csv), "--kind", kind,
                    "--out", str(tmp_path / "re")])
        assert code == 2
        assert str(csv) in capsys.readouterr().err
        assert not (tmp_path / "re.svg").exists()

    @pytest.mark.parametrize("kind, text, line", [
        ("lines", "t,a,b\n0,1,2\n1,2\n", 3),
        ("lines", "t,a,b\n\n0,1,2,3\n", 3),
        ("landscape", "1,2,3\n4,5\n7,8,9\n", 2),
    ])
    def test_ragged_csv_is_usage_error(self, tmp_path, capsys, kind, text,
                                       line):
        csv = tmp_path / "ragged.csv"
        csv.write_text(text)
        code = run(["plot", "--csv", str(csv), "--kind", kind,
                    "--out", str(tmp_path / "re")])
        assert code == 2
        assert f"ragged CSV {csv}: line {line} has" in capsys.readouterr().err
        assert not (tmp_path / "re.svg").exists()

    @pytest.mark.parametrize("kind, text, line, cell", [
        ("lines", "t,a\n1,x\n", 2, "x"),
        ("lines", "t,a\n0,1\n\n,2\n", 4, ""),
        ("landscape", "1,2\n3,4e\n", 2, "4e"),
    ])
    def test_non_numeric_cell_is_usage_error(self, tmp_path, capsys, kind,
                                             text, line, cell):
        csv = tmp_path / "bad.csv"
        csv.write_text(text)
        code = run(["plot", "--csv", str(csv), "--kind", kind,
                    "--out", str(tmp_path / "re")])
        assert code == 2
        assert (f"non-numeric CSV {csv}: line {line} has cell {cell!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "re.svg").exists()
