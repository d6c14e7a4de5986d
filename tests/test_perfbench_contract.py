"""The benchmark tracer's patch points exist and its patches come off.

perfbench/tracing.py patches dgopt's public functions and the output
writer methods at the names their callers look them up, each through
``owner.__dict__[attr]``, so a method moved to a base class or a
renamed function breaks ``perfbench/run.py --trace 1``.  This test reads
perfbench/ and never edits it: it installs the tracer, runs one small
CLI call per subcommand, and checks that the output writers were traced
and that uninstall() puts every original object back.
"""

from pathlib import Path

from dgopt import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_every_subcommand_and_restores_it(tmp_path,
                                                         monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    runs = [
        ["traj", "--game", "f1", "--alg", "dg", "--init", "0.5,0.5",
         "--steps", "3"],
        ["stability", "--game", "f1", "--alg", "gda", "--point", "0,0"],
        ["landscape", "--game", "f1", "--box=-1,1", "--res", "5",
         "--measure", "dg_approx"],
        ["rate", "--Tmax", "1000", "--repeats", "1"],
        ["mog", "--alg", "gda", "--iters", "1"],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        for i, argv in enumerate(runs):
            assert cli.main(argv + ["--out", str(tmp_path / f"run{i}")]) == 0
    finally:
        tracer.uninstall()

    recorded = {tracer.names[i] for i in tracer.name}
    assert "cli.outputs" in recorded
    assert patches
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, (owner, attr)
