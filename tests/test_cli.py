import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fbsdelab import backward, cli, forward, oracles, problem

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


def _problem_text(b, sigma, f, phi):
    """Config text on T = 1, U = [0, 1], d = k = 1, n = len(b), from x = 0."""
    lines = ["[dims]", f"n = {len(b)}", "d = 1", "k = 1", "[horizon]", "T = 1.0",
             "[control]", "lo = 0.0", "hi = 1.0", "[coefficients]"]
    lines += [f'b{i} = "{e}"' for i, e in enumerate(b, 1)]
    lines += [f'sigma{i}_1 = "{e}"' for i, e in enumerate(sigma, 1)]
    lines += [f'f = "{f}"', f'phi = "{phi}"']
    return "\n".join(lines) + "\n"


def _summary(outdir):
    return json.loads((outdir / "summary.json").read_text())


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
    assert "y0_abs_error" in summary["stages"][1]["metrics"]
    assert summary["stages"][2]["metrics"]["q_nonpositive_paths"] == 0


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


@pytest.mark.parametrize(
    "selection, names",
    [(["--stage", "hjb"], ["hjb"]),
     (["--all"], ["forward", "backward", "adjoint", "hjb"])],
)
def test_two_dimensional_problem_fails_hjb_stage(tmp_path, selection, names):
    # the HJB solver is one-dimensional: the stage fails with a recorded
    # error, the run exits 1 and the earlier stages' results are kept
    (tmp_path / "n2.cfg").write_text(
        _problem_text(["x1 * u1", "x2"], ["x1", "x2"], "x1 - y", "x1 + x2")
    )
    res = _run(
        ["run", "--problem", "n2.cfg", *selection, "--M", "200", "--N", "10",
         "--J", "20", "--out", "o"],
        tmp_path,
    )
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    summary = _summary(tmp_path / "o")
    assert [s["name"] for s in summary["stages"]] == names
    hjb = summary["stages"][-1]
    assert hjb["pass"] is False
    assert "one-dimensional" in hjb["metrics"]["error"]


def test_two_noise_columns_hjb_stage(tmp_path):
    # a driver that reads the second noise column's z
    text = _problem_text(["x1 * u1"], ["1"], "x1 - y + 0.1 * z2", "x1")
    text = text.replace("d = 1", "d = 2") + 'sigma1_2 = "0.5"\n'
    (tmp_path / "d2.cfg").write_text(text)
    res = _run(
        ["run", "--problem", "d2.cfg", "--stage", "hjb", "--J", "40", "--out", "o"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    summary = _summary(tmp_path / "o")
    assert summary["pass"] is True
    assert summary["stages"][0]["name"] == "hjb"


def test_nonpositive_q_paths_recorded(tmp_path):
    # f_z = 10 with unit noise: the stochastic exponential q crosses zero
    (tmp_path / "wild.cfg").write_text(_problem_text(["0"], ["1"], "y + 10 * z1", "x1"))
    res = _run(
        ["run", "--problem", "wild.cfg", "--stage", "forward", "--stage",
         "backward", "--stage", "adjoint", "--M", "200", "--N", "10",
         "--pdeg", "1", "--seed", "1", "--out", "w"],
        tmp_path,
    )
    assert res.returncode == 1, res.stderr
    adjoint = _summary(tmp_path / "w")["stages"][2]
    assert adjoint["name"] == "adjoint"
    assert adjoint["metrics"]["q_nonpositive_paths"] > 0
    assert adjoint["pass"] is False


def test_stage_raising_midway_stops_the_run(tmp_path, monkeypatch):
    def diverge(*args, **kwargs):
        raise problem.ProblemError("adjoint diverged")

    monkeypatch.setattr(cli.adjoint_mod, "solve_adjoint", diverge)
    out = tmp_path / "o"
    code = cli.main(
        ["run", "--builtin", "example31", "--all", "--M", "200", "--N", "10",
         "--J", "20", "--out", str(out)]
    )
    assert code == 1
    summary = _summary(out)
    assert summary["pass"] is False
    assert [s["name"] for s in summary["stages"]] == ["forward", "backward", "adjoint"]
    assert summary["stages"][2] == {
        "name": "adjoint", "metrics": {"error": "adjoint diverged"}, "pass": False,
    }
    assert (out / "backward.csv").exists()
    assert not (out / "adjoint.csv").exists() and not (out / "hjb.csv").exists()


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


@pytest.mark.parametrize("flag", ["--tol-jet", "--tol-conn", "--tol-mc"])
def test_tolerance_flags_rejected(tmp_path, flag):
    # pass thresholds are constants; no flag may loosen a verdict
    res = _run([*RUN_SMALL, flag, "1e300"], tmp_path)
    assert res.returncode == 2
    assert f"unrecognized arguments: {flag}" in res.stderr


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


@pytest.mark.parametrize(
    "param, extra, runs",
    [("M", ["--pdeg", "2"], [(300, 2), (600, 2)]),
     ("p_deg", ["--M", "400"], [(400, 1), (400, 2)])],
)
def test_table_backward_error_from_x_one(tmp_path, param, extra, runs):
    # each row is |Y0 - x g(0, T)| of the backward solve from x = 1 under
    # control 0, with the cost report the backward stage builds from it
    values = [m if param == "M" else deg for m, deg in runs]
    res = _run(
        ["table", "--builtin", "example31", "--param", param, "--values",
         ",".join(map(str, values)), "--N", "20", "--seed", "3", *extra,
         "--out", "t"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "t" / f"table_{param}.csv").read_text().strip().splitlines()
    metrics = [float(line.split(",")[1]) for line in lines[1:]]
    spec = problem.builtin_problem("example31")
    grid = forward.TimeGrid(0.0, 1.0, 20)
    target = oracles.example31_constant_policy_y0(0, 1, 1, 0)
    expected = []
    for m, deg in runs:
        batch = forward.simulate_forward(spec, 0.0, 0.0, [1.0], grid, m, 3)
        rep = backward.CostReport.of(backward.solve_backward(spec, batch, deg), 3)
        expected.append(abs(-rep.j - target))
    assert metrics == expected


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


def _csv_column(path, name):
    lines = path.read_text().strip().splitlines()
    col = lines[0].split(",").index(name)
    return [line.split(",")[col] for line in lines[1:]]


@pytest.mark.parametrize("x0", [0.0, 1.0])
def test_row_wise_metrics_and_writers_match_full_array_formulas(tmp_path, x0):
    # the adjoint stage's oracle metrics come from per-step row extremes and
    # the n = d = 1 writers take |x| for the norm; both equal the full-array
    # formulas bit for bit
    config = cli.ExperimentConfig(builtin="example31", m_paths=500, n_steps=20, seed=5)
    state = cli._start_state(config)
    state["x0"] = np.array([x0])
    writers = []
    for stage in (cli._forward_stage, cli._backward_stage, cli._adjoint_stage):
        metrics, _, stage_writers = stage(config, state)
        writers += stage_writers
    for name, write in writers:
        write(str(tmp_path / name))
    batch, sol, triple = state["batch"], state["backward"], state["adjoint"]
    q_exact = np.exp(state["t0"] - triple.grid.times)[None, :]
    assert metrics["q_max_error"] == float(np.max(np.abs(triple.q - q_exact)))
    assert metrics["p_max_error"] == float(np.max(np.abs(triple.p[:, :, 0] + q_exact)))
    assert metrics["k_max_abs"] == float(np.max(np.abs(triple.k)))

    def column(values):
        return [repr(float(v)) for v in values]

    norms = np.linalg.norm(batch.states, axis=-1)
    assert _csv_column(tmp_path / "forward.csv", "mean_state_norm") == column(
        norms.mean(axis=0)
    )
    assert _csv_column(tmp_path / "forward.csv", "std_state_norm") == column(
        [norms[:, i].std() for i in range(norms.shape[1])]
    )
    z_norm = np.linalg.norm(sol.z, axis=-1).mean(axis=0)
    assert _csv_column(tmp_path / "backward.csv", "mean_abs_z")[:-1] == column(z_norm)
    k_norm = np.linalg.norm(triple.k, axis=(-2, -1)).mean(axis=0)
    assert _csv_column(tmp_path / "adjoint.csv", "mean_abs_k")[:-1] == column(k_norm)


def test_table_n_stops_after_solve_q(monkeypatch):
    # the N table reads q_max_error from solve_q; p, k and the maximum
    # condition are not computed, and the metric is the adjoint stage's
    config = cli.ExperimentConfig(builtin="example31", m_paths=400, n_steps=30, seed=2)
    state = cli._start_state(config)
    for stage in (cli._forward_stage, cli._backward_stage, cli._adjoint_stage):
        metrics, _, _ = stage(config, state)

    def refuse(*args, **kwargs):
        raise AssertionError("the N table ran more than solve_q")

    monkeypatch.setattr(cli.adjoint_mod, "solve_pk", refuse)
    monkeypatch.setattr(cli.adjoint_mod, "check_maximum_condition", refuse)
    rows = cli.convergence_table(config, "N", [30.0])
    assert rows == [(30.0, metrics["q_max_error"])]
