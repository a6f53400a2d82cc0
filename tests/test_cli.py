import json
import os
import subprocess
import sys

import pytest

from fbsdelab import cli

RUN_SMALL = [
    "run", "--builtin", "example31", "--all",
    "--M", "2000", "--N", "50", "--J", "100", "--seed", "42",
]


# The subprocess runs with cwd=tmp_path, where a relative PYTHONPATH such as
# the test command's "src" no longer resolves.  Put the absolute directory
# holding the imported fbsdelab package first, so the subprocess runs the
# same code as the in-process tests.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def _run(args, cwd):
    path = [_PACKAGE_ROOT, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-m", "fbsdelab", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def _read_all(outdir):
    blobs = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


def test_full_run_passes_and_writes_summary(tmp_path):
    res = _run(RUN_SMALL + ["--out", "run1"], tmp_path)
    assert res.returncode == 0, res.stderr
    summary = json.loads((tmp_path / "run1" / "summary.json").read_text())
    assert summary["pass"] is True
    names = [s["name"] for s in summary["stages"]]
    assert names == ["forward", "backward", "adjoint", "hjb", "jets"]
    jets = summary["stages"][-1]
    assert jets["pass"] is True
    hjb = summary["stages"][3]
    assert hjb["metrics"]["max_interior_error"] <= 0.05


def test_reruns_byte_identical(tmp_path):
    a = _run(RUN_SMALL + ["--out", "a"], tmp_path)
    b = _run(RUN_SMALL + ["--out", "b"], tmp_path)
    assert a.returncode == 0 and b.returncode == 0
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")


def test_stage_selection_without_dependencies_rejected(tmp_path):
    res = _run(["run", "--builtin", "example31", "--stage", "jets"], tmp_path)
    assert res.returncode == 2
    assert "requires stage" in res.stderr


def test_single_stage_run(tmp_path):
    res = _run(
        ["run", "--builtin", "example31", "--stage", "hjb", "--J", "10",
         "--out", "h"],
        tmp_path,
    )
    assert res.returncode == 0
    summary = json.loads((tmp_path / "h" / "summary.json").read_text())
    assert [s["name"] for s in summary["stages"]] == ["hjb"]


def test_problem_file_run(tmp_path):
    config = """
[dims]
n = 1
d = 1
k = 1
lipschitz_hint = 2.0

[horizon]
T = 1.0

[control]
lo = 0.0
hi = 1.0

[initial]
t = 0.0
x = 0.0

[coefficients]
b1 = "x1 * u1"
sigma1_1 = "x1"
f = "x1 - y"
phi = "x1"
"""
    (tmp_path / "prob.cfg").write_text(config)
    res = _run(
        ["run", "--problem", "prob.cfg", "--stage", "forward",
         "--stage", "backward", "--M", "500", "--N", "20", "--out", "p"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    summary = json.loads((tmp_path / "p" / "summary.json").read_text())
    assert summary["pass"] is True


def test_malformed_config_exits_two_with_position(tmp_path):
    (tmp_path / "bad.cfg").write_text("[dims]\nn = 1\nbogus = 2\n")
    res = _run(["run", "--problem", "bad.cfg", "--stage", "forward"], tmp_path)
    assert res.returncode == 2
    assert "line 3" in res.stderr


def test_nonpositive_horizon_exits_two_with_position(tmp_path):
    (tmp_path / "t0.cfg").write_text(
        "[dims]\nn = 1\nd = 1\nk = 1\n[horizon]\nT = 0\n"
        "[control]\nlo = 0.0\nhi = 1.0\n[coefficients]\n"
        'b1 = "x1 * u1"\nsigma1_1 = "x1"\nf = "x1 - y"\nphi = "x1"\n'
    )
    res = _run(["run", "--problem", "t0.cfg", "--stage", "forward"], tmp_path)
    assert res.returncode == 2
    assert "line 6" in res.stderr


def test_missing_problem_source_rejected(tmp_path):
    res = _run(["run", "--stage", "forward"], tmp_path)
    assert res.returncode == 2


def test_out_of_bounds_parameter_rejected(tmp_path):
    res = _run(["run", "--builtin", "example31", "--all", "--J", "4"], tmp_path)
    assert res.returncode == 2
    assert "bounds" in res.stderr


def test_negative_picard_rejected(tmp_path):
    res = _run(["run", "--builtin", "example31", "--all", "--picard", "-1"], tmp_path)
    assert res.returncode == 2
    assert "n_picard" in res.stderr


def test_table_j_and_floor(tmp_path):
    res = _run(
        ["table", "--builtin", "example31", "--param", "J",
         "--values", "50,100,200", "--out", "t"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "t" / "table_J.csv").read_text().strip().splitlines()
    assert lines[0] == "J,metric"
    metrics = [float(line.split(",")[1]) for line in lines[1:]]
    # scheme is exact on the builtin: the error column sits at the float
    # accumulation floor, so check floored monotonicity
    floor = 1e-10
    floored = [max(m, floor) for m in metrics]
    assert all(a >= b for a, b in zip(floored, floored[1:]))


def test_table_single_value(tmp_path):
    res = _run(
        ["table", "--builtin", "example31", "--param", "N", "--values", "50",
         "--M", "400", "--out", "t1"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "t1" / "table_N.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_table_unknown_parameter(tmp_path):
    res = _run(
        ["table", "--builtin", "example31", "--param", "Q", "--values", "1"],
        tmp_path,
    )
    assert res.returncode == 2


@pytest.mark.parametrize(
    "values, match",
    [("0.5", "must be an integer"), ("50,60.5", "must be an integer"),
     ("4", "bounds"), ("1e9", "bounds"), ("abc", "must be numbers")],
)
def test_table_bad_values_exit_two(tmp_path, values, match):
    res = _run(
        ["table", "--builtin", "example31", "--param", "J", "--values", values],
        tmp_path,
    )
    assert res.returncode == 2, res.stderr
    assert match in res.stderr


def test_table_requires_builtin(tmp_path):
    res = _run(
        ["table", "--builtin", "smooth1d", "--param", "J", "--values", "10"],
        tmp_path,
    )
    assert res.returncode == 2
    assert "ground truth" in res.stderr


def test_oracle_subcommand(tmp_path):
    res = _run(["oracle", "--T", "1.0"], tmp_path)
    assert res.returncode == 0
    assert "super-jet [-2.0000, -1.0000]" in res.stdout
    assert "q = 1.000000" in res.stdout


def test_config_validation_in_process():
    config = cli.ExperimentConfig(builtin="example31", stages=("jets",))
    with pytest.raises(cli.ConfigurationError):
        config.validate()
    both = cli.ExperimentConfig(builtin="example31", problem_path="x")
    with pytest.raises(cli.ConfigurationError):
        both.validate()
