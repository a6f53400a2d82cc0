import argparse
import csv
import dataclasses
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


@pytest.mark.parametrize("builtin", ["example31", "smooth1d"])
def test_every_csv_field_parses(tmp_path, builtin):
    # numbers written by repr must read back: a numpy scalar would print as
    # np.float64(...) under numpy 2
    code = cli.main(
        ["run", "--builtin", builtin, "--M", "2000", "--N", "20", "--J", "100",
         "--out", str(tmp_path)]
    )
    assert code in (0, 1)
    words = {"superjet_kind", "subjet_kind", "member", "pass"}
    for name in ("forward.csv", "backward.csv", "adjoint.csv", "connection.csv"):
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, name
        for row in rows:
            for key, field in row.items():
                if key in words:
                    continue
                if field == "None":
                    # the ends of an empty jet
                    assert row[key.rsplit("_", 1)[0] + "_kind"] == "empty", key
                    continue
                float(field)


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


def test_derived_gradient_domain_error_names_the_derivative(tmp_path):
    # b_u = x / (2 sqrt(u)) is undefined at u = 0, where b itself is defined
    (tmp_path / "root.cfg").write_text(_problem_text(["x1 * sqrt(u1)"], ["x1"], "x1 - y", "x1"))
    res = _run(
        ["run", "--problem", "root.cfg", "--stage", "forward", "--stage",
         "backward", "--stage", "adjoint", "--M", "500", "--N", "20",
         "--seed", "3", "--out", "r"],
        tmp_path,
    )
    assert res.returncode == 1, res.stderr
    adjoint = _summary(tmp_path / "r")["stages"][2]
    assert adjoint["metrics"]["error"] == "division by zero in 'd(x1 * sqrt(u1))/du1'"


def test_non_finite_backward_solution_fails_the_stage(tmp_path):
    # exp(50 * y) overflows: the run stops at the backward stage, and its
    # summary stays strict JSON, with no NaN
    text = _problem_text(["x1 * u1"], ["x1"], "exp(50 * y)", "x1 + 10")
    (tmp_path / "exp.cfg").write_text(text + "[initial]\nt = 0.0\nx = 1.0\n")
    res = _run(
        ["run", "--problem", "exp.cfg", "--stage", "forward", "--stage",
         "backward", "--M", "200", "--N", "10", "--out", "e"],
        tmp_path,
    )
    assert res.returncode == 1, res.stderr
    text = (tmp_path / "e" / "summary.json").read_text()
    backward_stage = json.loads(text, parse_constant=pytest.fail)["stages"][1]
    assert backward_stage["metrics"] == {"error": "non-finite Y or Z at step 9"}
    assert not (tmp_path / "e" / "cost.json").exists()


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


def test_failed_artifact_write_is_recorded(tmp_path):
    # backward.csv cannot be written over a directory: the backward stage
    # fails with the write's error, and the adjoint stage does not run
    out = tmp_path / "o"
    (out / "backward.csv").mkdir(parents=True)
    code = cli.main(
        ["run", "--builtin", "example31", "--stage", "forward", "--stage", "backward",
         "--stage", "adjoint", "--M", "200", "--N", "10", "--out", str(out)]
    )
    assert code == 1
    summary = _summary(out)
    assert summary["pass"] is False
    assert [(s["name"], s["pass"]) for s in summary["stages"]] == [
        ("forward", True), ("backward", False),
    ]
    assert "backward.csv" in summary["stages"][1]["metrics"]["error"]
    assert not (out / "adjoint.csv").exists()


def test_byte_order_mark_config_runs_like_the_plain_one(tmp_path):
    text = _problem_text(["x1 * u1"], ["x1"], "x1 - y", "x1")
    blobs = []
    # the same bytes, and then with the UTF-8 byte-order mark before them
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / name).mkdir()
        (tmp_path / name / "p.cfg").write_bytes(data)
        code = cli.main(
            ["run", "--problem", str(tmp_path / name / "p.cfg"), "--stage", "forward",
             "--stage", "backward", "--M", "200", "--N", "10", "--out",
             str(tmp_path / name / "out")]
        )
        assert code == 0
        blobs.append(_read_all(tmp_path / name / "out"))
    assert blobs[0] == blobs[1]


# expressions past the parser's depth limit, and the column its refusal
# names on the config's f line (line 13), whose value starts at column 6:
# the 65th opening parenthesis, the 64th plus sign and the 65th minus sign
_TOO_DEEP = {
    "parentheses": ("(" * 400 + "x1" + ")" * 400 + " - y", 6 + 64),
    "sum": (" + ".join(["x1"] * 3000) + " - y", 6 + 5 * 63 + 3),
    "unary_minus": ("-" * 1500 + "x1 - y", 6 + 64),
}


@pytest.mark.parametrize("name", sorted(_TOO_DEEP))
def test_too_deep_expression_exits_two_with_position(tmp_path, name):
    f, col = _TOO_DEEP[name]
    (tmp_path / "deep.cfg").write_text(_problem_text(["x1 * u1"], ["x1"], f, "x1"))
    res = _run(["run", "--problem", "deep.cfg", "--stage", "forward"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    assert (
        f"configuration error: expression nested deeper than {problem._MAX_DEPTH} "
        f"levels (line 13, col {col})"
    ) in res.stderr


def test_driver_at_the_depth_limit_runs_the_monte_carlo_stages(tmp_path):
    # x1 - y / (3 + y / (3 + ... / (3 + y))): two levels per fraction, so
    # 31 fractions make the limit; f_y's tree is about three times as deep
    inner = "y"
    for _ in range(31):
        inner = f"y / (3 + {inner})"
    f = f"x1 - {inner}"
    assert problem._MAX_DEPTH == 64
    with pytest.raises(problem.ExpressionSyntaxError, match="nested deeper"):
        problem.parse_expression(f"x1 - y / (3 + {inner})", ["x1", "y"])
    text = _problem_text(["x1 * u1"], ["x1"], f, "x1")
    (tmp_path / "limit.cfg").write_text(text + "[initial]\nt = 0.0\nx = 1.0\n")
    out = tmp_path / "o"
    code = cli.main(
        ["run", "--problem", str(tmp_path / "limit.cfg"), "--stage", "forward",
         "--stage", "backward", "--stage", "adjoint", "--M", "500", "--N", "20",
         "--seed", "3", "--out", str(out)]
    )
    # every stage runs; the baseline control u = 0 is not optimal here, so
    # the maximum-condition verdict fails
    assert code == 1
    stages = _summary(out)["stages"]
    assert [(s["name"], s["pass"]) for s in stages] == [
        ("forward", True), ("backward", True), ("adjoint", False),
    ]
    assert stages[2]["metrics"]["mc_pass"] is False


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


@pytest.mark.parametrize("flag", ["--tol-jet", "--tol-conn", "--tol-mc", "--ugrid"])
def test_tolerance_flags_rejected(tmp_path, flag):
    # pass thresholds are constants; no flag may loosen a verdict, and the
    # HJB control grid is fixed
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


@pytest.mark.parametrize(
    "args, match",
    [
        (["run", "--problem", "{tmp}/missing.cfg"], "cannot read problem file"),
        (["run", "--problem", "{tmp}"], "cannot read problem file"),
        (["run", "--problem", "{tmp}/latin1.cfg"], "cannot read problem file"),
        (["run", "--builtin", "example31", "--out", "{tmp}/latin1.cfg"],
         "cannot make output directory"),
        (["table", "--builtin", "example31", "--param", "J", "--values", "400",
          "--out", "{tmp}/latin1.cfg"], "cannot make output directory"),
    ],
    ids=["missing", "directory", "not_utf8", "run_out_is_a_file", "table_out_is_a_file"],
)
def test_path_errors_exit_two_before_any_stage(tmp_path, monkeypatch, capsys, args, match):
    (tmp_path / "latin1.cfg").write_bytes("[dims]\nn = 1  # \u00e9\n".encode("latin-1"))

    def refuse(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(cli.forward_mod, "simulate_forward", refuse)
    monkeypatch.setattr(cli.hjb_mod, "cfl_time_grid", refuse)
    argv = [a.format(tmp=tmp_path) for a in args]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"configuration error: {match}" in err


def test_config_validation_in_process():
    config = cli.ExperimentConfig(builtin="example31", stages=("jets",))
    with pytest.raises(problem.ConfigError):
        config.validate()
    both = cli.ExperimentConfig(builtin="example31", problem_path="x")
    with pytest.raises(problem.ConfigError):
        both.validate()


def test_options_not_given_keep_the_config_defaults():
    args = cli._build_parser().parse_args(["run", "--builtin", "example31"])
    assert cli._config_from_args(args) == cli.ExperimentConfig(builtin="example31")


def test_every_run_and_table_option_reaches_the_config():
    # _config_from_args keeps the dests that are ExperimentConfig fields and
    # drops any other silently; the subcommand, --all, --param and --values
    # are the only others
    fields = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
    read_from_args = {"command", "all", "param", "values"}
    sub = next(
        a for a in cli._build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    for name in ("run", "table"):
        dests = {
            a.dest for a in sub.choices[name]._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert dests <= fields | read_from_args, (name, dests - fields - read_from_args)


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


@pytest.mark.parametrize("f, bad", [("x1 - y", False), ("x1 - 30 * y", True)])
def test_q_metrics_of_a_broadcast_column_match_full_array_formulas(tmp_path, f, bad):
    # q is one column broadcast over the paths; its metrics read that column
    # alone and equal the (N+1, M) formulas, the count of paths included
    # (f_y dt = -3 sends 1 + f_y dt below 0)
    (tmp_path / "p.cfg").write_text(_problem_text(["x1 * u1"], ["x1"], f, "x1"))
    config = cli.ExperimentConfig(problem_path=str(tmp_path / "p.cfg"), m_paths=300, n_steps=10)
    state = cli._start_state(config)
    for stage in (cli._forward_stage, cli._backward_stage, cli._adjoint_stage):
        metrics, _, _ = stage(config, state)
    q = state["adjoint"].q
    assert q.strides[0] == 0
    assert metrics["q_min"] == float(q.min())
    assert metrics["q_nonpositive_paths"] == int(np.count_nonzero(q.min(axis=1) <= 0.0))
    assert metrics["q_nonpositive_paths"] == (300 if bad else 0)
    assert cli._q_max_error(q, state["batch"].grid, 0.0) == float(
        np.max(np.abs(q - np.exp(-state["batch"].grid.times)))
    )


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
