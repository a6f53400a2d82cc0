"""Command-line driver wiring the pipeline stages together.

Subcommands:

  run     parse a problem, execute selected stages in dependency order
          (forward -> backward -> adjoint; hjb independent; jets needs
          adjoint + hjb), write per-stage CSV/JSON artifacts plus a
          summary.json, and exit 0 iff every selected check passed.
  table   rerun the stages behind one metric across values of one
          numerical parameter (M, N, J or p_deg) and write a
          (value, metric) CSV.
  oracle  print tabulated closed-form reference values for the builtin
          benchmark problem.

Each stage is a function `(config, state) -> (metrics, passed, writers)`
listed in `STAGE_FUNCTIONS` next to `STAGE_DEPS`.  `state` holds the
problem (spec, t0, x0, baseline control, whether the example31 oracle
applies) and what earlier stages stored in it; `writers` are
(file name, write(path)) pairs.
`run` calls a stage's writers straight after it and records its metrics
and pass flag in summary.json; a stage that raises is recorded with
`pass: false` and its error, and no later stage runs.  `table` runs the
same stage functions, skips their writers and reads its metric from
their metrics; for N it stops the adjoint stage after `solve_q`.

The pipeline starts at the problem's `[initial]` point, or at (0, 0) for
a builtin or a config problem without one, and simulates under a constant
baseline control: the control box's lower corner.  The adjoint stage's
maximum-condition verdict and the jets verdict hold only along optimal
pairs, so both assume that control is optimal.  That is true for
example31 from x0 = 0; it is not for smooth1d, whose `run --all`
therefore fails `jets`.

Exit codes: 0 all selected checks pass, 1 numerical failure in a stage,
2 configuration error.  Reruns with an identical command line produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import adjoint as adjoint_mod
from . import backward as backward_mod
from . import forward as forward_mod
from . import hjb as hjb_mod
from . import jets as jets_mod
from . import oracles
from . import problem as problem_mod


class ConfigurationError(Exception):
    pass


def _json_dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_line(text, path):
    with open(path, "w") as fh:
        fh.write(text + "\n")


# --------------------------------------------------------------------------
# pipeline stages: (config, state) -> (metrics, passed, writers)
# --------------------------------------------------------------------------
# Every solver and writer is looked up on its module when the stage runs,
# so replacing a module attribute (as an outside tracer does) sees the call.


def _forward_stage(config, state):
    spec, t0 = state["spec"], state["t0"]
    grid = forward_mod.TimeGrid(t0, spec.horizon, config.n_steps)
    batch = state["batch"] = forward_mod.simulate_forward(
        spec, state["control"], t0, state["x0"], grid, config.m_paths, config.seed
    )
    xt = np.linalg.norm(batch.states[:, -1], axis=-1)
    metrics = {
        "M": config.m_paths,
        "N": config.n_steps,
        "mean_xT": float(xt.mean()),
        "std_xT": float(xt.std()),
    }
    return metrics, True, [
        ("forward.csv", lambda path: forward_mod.pathbatch_summary_csv(batch, path)),
    ]


def _backward_stage(config, state):
    spec = state["spec"]
    sol = state["backward"] = backward_mod.solve_backward(
        spec, state["batch"], config.p_deg, n_picard=config.n_picard
    )
    cost_rep = backward_mod.CostReport.of(sol, config.seed)
    metrics = {
        "y0": float(sol.y[0, 0]),
        "J": cost_rep.j,
        "stderr": cost_rep.stderr,
        "max_condition": float(sol.conditions.max()),
    }
    if state["oracle"]:
        # Y0 of the simulated control, optimal or not
        target = oracles.example31_constant_policy_y0(
            state["t0"], float(state["x0"][0]), spec.horizon, float(state["control"][0])
        )
        metrics["y0_abs_error"] = abs(metrics["y0"] - target)
    return metrics, True, [
        ("backward.csv", lambda path: backward_mod.backward_csv(sol, path)),
        ("cost.json", lambda path: _write_line(cost_rep.to_json(), path)),
    ]


def _max_abs_error(rows, exact):
    """max over i, m of |rows[i, m] - exact[i]|, from each row's max and min.

    Rounding is monotone, so this equals the full-array formula bit for
    bit without its (N+1, M) temporaries.
    """
    extremes = np.stack((rows.max(axis=1), rows.min(axis=1)))
    return float(np.max(np.abs(extremes - exact)))


def _q_max_error(q, grid, t0):
    """max |q - e^{t0 - s}| of solve_q's (M, N+1) q: the example31 oracle."""
    return _max_abs_error(q.swapaxes(0, 1), np.exp(t0 - grid.times))


def _adjoint_stage(config, state):
    spec, batch, sol = state["spec"], state["batch"], state["backward"]
    triple = state["adjoint"] = adjoint_mod.solve_adjoint(spec, batch, sol)
    mc = adjoint_mod.check_maximum_condition(
        spec, batch, sol, triple, control_grid_size=config.control_grid_size
    )
    q_path_min = triple.q.swapaxes(0, 1).min(axis=0)  # (M,), over time-major rows
    n_bad = int(np.count_nonzero(q_path_min <= 0.0))
    metrics = {
        "q_min": float(q_path_min.min()),
        "q_nonpositive_paths": n_bad,
        "mc_worst_residual": mc.worst,
        "mc_pass": mc.passed,
    }
    if state["oracle"]:
        grid, t0 = triple.grid, state["t0"]
        p0 = triple.p.swapaxes(0, 1)[:, :, 0]  # (N+1, M)
        k = triple.k.swapaxes(0, 1)
        metrics["q_max_error"] = _q_max_error(triple.q, grid, t0)
        metrics["p_max_error"] = _max_abs_error(p0, -np.exp(t0 - grid.times))
        metrics["k_max_abs"] = _max_abs_error(k.reshape(k.shape[0], -1), 0.0)
    return metrics, n_bad == 0 and mc.passed, [
        ("adjoint.csv", lambda path: adjoint_mod.adjoint_csv(triple, mc, path)),
    ]


def _hjb_stage(config, state):
    spec, t0 = state["spec"], state["t0"]
    hgrid = hjb_mod.cfl_time_grid(
        spec, config.half_width, config.j_cells, config.control_grid_size, t_start=t0
    )
    vgrid = state["vgrid"] = hjb_mod.solve_hjb_fd(
        spec, config.half_width, config.j_cells, hgrid, config.control_grid_size
    )
    lip, growth = hjb_mod.regularity_probe(vgrid)
    metrics = {"N_cfl": hgrid.steps, "dt": hgrid.dt, "lipschitz": lip, "growth": growth}
    passed = True
    if state["oracle"]:
        exact = oracles.example31_value(t0, vgrid.xs, spec.horizon)
        err = float(np.max(np.abs(vgrid.values[0] - exact)[1:-1]))
        metrics["max_interior_error"] = err
        passed = err <= 0.05
    return metrics, passed, [
        ("hjb.csv", lambda path: hjb_mod.value_grid_csv(vgrid, path)),
        ("hjb_meta.json", lambda path: hjb_mod.value_grid_meta_json(vgrid, path)),
    ]


def _jets_stage(config, state):
    spec, t0 = state["spec"], state["t0"]
    check_times = [
        t0 + frac * (spec.horizon - t0) for frac in (0.0, 0.25, 0.5, 0.75, 0.95)
    ]
    rep = jets_mod.verify_connection(
        spec, state["batch"], state["backward"], state["adjoint"], state["vgrid"],
        check_times,
    )
    metrics = {
        "n_times": len(rep.records),
        "pq_inv_median_first": rep.records[0].pq_inv_median,
        "pass": rep.passed,
    }
    return metrics, rep.passed, [
        ("connection.json", lambda path: _write_line(rep.to_json(), path)),
        ("connection.csv", lambda path: jets_mod.connection_csv(rep, path)),
    ]


STAGES = ("forward", "backward", "adjoint", "hjb", "jets")
STAGE_DEPS = {
    "forward": (),
    "backward": ("forward",),
    "adjoint": ("backward",),
    "hjb": (),
    "jets": ("adjoint", "hjb"),
}
STAGE_FUNCTIONS = {
    "forward": _forward_stage,
    "backward": _backward_stage,
    "adjoint": _adjoint_stage,
    "hjb": _hjb_stage,
    "jets": _jets_stage,
}

# numerical parameters: name -> (ExperimentConfig field, inclusive bounds)
PARAMS = {
    "M": ("m_paths", (1, 10_000_000)),
    "N": ("n_steps", (1, 10_000_000)),
    "J": ("j_cells", (8, 100_000)),
    "L": ("half_width", (1e-6, 1e6)),
    "p_deg": ("p_deg", (0, 12)),
    "control_grid_size": ("control_grid_size", (2, 10_001)),
    "seed": ("seed", (0, 2**63 - 1)),
    "n_picard": ("n_picard", (0, 100)),
}


@dataclass
class ExperimentConfig:
    builtin: str = None
    problem_path: str = None
    stages: tuple = STAGES
    m_paths: int = 20000
    n_steps: int = 100
    half_width: float = 2.0
    j_cells: int = 200
    p_deg: int = 3
    control_grid_size: int = 11
    seed: int = 0
    out_dir: str = "out"
    n_picard: int = 0

    def validate(self):
        if (self.builtin is None) == (self.problem_path is None):
            raise ConfigurationError(
                "exactly one of --builtin and --problem is required"
            )
        for stage in self.stages:
            if stage not in STAGES:
                raise ConfigurationError(f"unknown stage {stage!r}")
            for dep in STAGE_DEPS[stage]:
                if dep not in self.stages:
                    raise ConfigurationError(
                        f"stage {stage!r} requires stage {dep!r}; select it "
                        "explicitly (dependencies are never auto-run)"
                    )
        for name, (attr, (lo, hi)) in PARAMS.items():
            value = getattr(self, attr)
            if not lo <= value <= hi:
                raise ConfigurationError(
                    f"{name} = {value} outside documented bounds [{lo}, {hi}]"
                )


def _start_state(config):
    """The state a pipeline starts from: problem, start point, baseline control."""
    if config.builtin is not None:
        spec, initial = problem_mod.builtin_problem(config.builtin), None
    else:
        with open(config.problem_path, encoding="utf-8") as fh:
            text = fh.read()
        spec, initial = problem_mod.parse_problem(text)
    t0, x0 = (0.0, np.zeros(spec.n)) if initial is None else initial
    return {
        "spec": spec,
        "t0": t0,
        "x0": x0,
        "control": spec.control_lo,  # the control box's lower corner
        "oracle": spec.name == "example31",
    }


def run_experiment(config):
    """Execute the selected stages; returns (exit_code, summary dict)."""
    config.validate()
    state = _start_state(config)
    os.makedirs(config.out_dir, exist_ok=True)
    summary = {
        "problem": config.builtin or os.path.basename(config.problem_path),
        "seed": config.seed,
        "stages": [],
        "pass": True,
    }
    for name in [s for s in STAGES if s in config.stages]:
        error = None
        try:
            metrics, passed, writers = STAGE_FUNCTIONS[name](config, state)
            for filename, write in writers:
                write(os.path.join(config.out_dir, filename))
        except (problem_mod.ProblemError, ValueError) as exc:
            error = str(exc)
            metrics, passed = {"error": error}, False
        summary["stages"].append({"name": name, "metrics": metrics, "pass": passed})
        summary["pass"] = summary["pass"] and passed
        if error is not None:
            break
    _json_dump(summary, os.path.join(config.out_dir, "summary.json"))
    return (0 if summary["pass"] else 1), summary


# --------------------------------------------------------------------------
# convergence tables
# --------------------------------------------------------------------------

def _q_stage(config, state):
    """The adjoint stage cut after solve_q: q_max_error needs no p, k or
    maximum condition."""
    q = adjoint_mod.solve_q(state["spec"], state["batch"], state["backward"])
    return {"q_max_error": _q_max_error(q, state["batch"].grid, state["t0"])}, True, []


# parameter -> (stage functions that run, metric read from the last one's metrics)
TABLE_METRICS = {
    "J": ((_hjb_stage,), "max_interior_error"),
    "N": ((_forward_stage, _backward_stage, _q_stage), "q_max_error"),
    "M": ((_forward_stage, _backward_stage), "y0_abs_error"),
    "p_deg": ((_forward_stage, _backward_stage), "y0_abs_error"),
}


def convergence_table(config, parameter, values):
    """Rerun the stages behind one metric across parameter values; returns rows.

    Only supported for the builtin benchmark (error metrics need the
    closed-form reference).  Metric per parameter: J -> hjb
    max_interior_error; N -> adjoint q_max_error, from solve_q alone;
    M, p_deg -> backward y0_abs_error from x0 = 1, where the states spread
    and the regression has something to fit.
    """
    config.validate()
    if parameter not in TABLE_METRICS:
        raise ConfigurationError(
            f"parameter must be one of {tuple(TABLE_METRICS)}, got {parameter!r}"
        )
    if config.builtin != "example31":
        raise ConfigurationError(
            "convergence tables need ground truth; use --builtin example31"
        )
    if not values:
        raise ConfigurationError("need at least one parameter value")
    configs = []
    for value in values:
        if not float(value).is_integer():
            raise ConfigurationError(f"{parameter} = {value!r} must be an integer")
        configs.append(
            dataclasses.replace(config, **{PARAMS[parameter][0]: int(value)})
        )
        configs[-1].validate()

    stages, key = TABLE_METRICS[parameter]
    start = _start_state(config)
    if parameter in ("M", "p_deg"):
        start["x0"] = np.array([1.0])
    rows = []
    for value, run_config in zip(values, configs):
        state = dict(start)
        for stage in stages:
            metrics, _, _ = stage(run_config, state)
        rows.append((value, metrics[key]))
    return rows


def _write_table(rows, parameter, path):
    with open(path, "w") as fh:
        fh.write(f"{parameter},metric\n")
        for value, metric in rows:
            fh.write(f"{value!r},{metric!r}\n")


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fbsdelab",
        description="Stochastic recursive control laboratory: simulate, "
        "solve, and verify the adjoint/value-function connection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--builtin", help="builtin problem id (see `oracle`)")
        p.add_argument(
            "--problem", dest="problem_path", help="path to a problem config file"
        )
        p.add_argument("--M", type=int, default=20000, dest="m_paths")
        p.add_argument("--N", type=int, default=100, dest="n_steps")
        p.add_argument("--L", type=float, default=2.0, dest="half_width")
        p.add_argument("--J", type=int, default=200, dest="j_cells")
        p.add_argument("--pdeg", type=int, default=3, dest="p_deg")
        p.add_argument("--ugrid", type=int, default=11, dest="control_grid_size")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--picard", type=int, default=0, dest="n_picard")
        p.add_argument("--out", default="out", dest="out_dir")

    run_p = sub.add_parser("run", help="execute pipeline stages")
    common(run_p)
    group = run_p.add_mutually_exclusive_group()
    group.add_argument(
        "--stage", action="append", dest="stages", choices=STAGES,
        help="stage to run (repeatable); dependencies are not auto-added",
    )
    group.add_argument("--all", action="store_true", help="run every stage")

    table_p = sub.add_parser("table", help="convergence table over a parameter")
    common(table_p)
    table_p.add_argument("--param", required=True)
    table_p.add_argument(
        "--values", required=True, help="comma-separated parameter values"
    )

    oracle_p = sub.add_parser(
        "oracle", help="print closed-form benchmark reference values"
    )
    oracle_p.add_argument("--T", type=float, default=1.0)
    oracle_p.add_argument("--t", type=float, default=0.0)
    return parser


def _config_from_args(args):
    """ExperimentConfig from the options given; their dests are its field names."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    options = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return ExperimentConfig(**options)


def _print_oracle(t, horizon):
    print(f"benchmark example31 reference values (t = {t}, T = {horizon})")
    print("value function V(t, x):")
    for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
        print(f"  x = {x:+.1f}: {oracles.example31_value(t, x, horizon):+.6f}")
    print("adjoint triple (p, q, k)(s) and jets of V at the optimal state:")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        s = t + frac * (horizon - t)
        p, q, k = oracles.example31_adjoint(t, s)
        _, (lo, hi) = oracles.example31_jets(s, horizon)
        print(
            f"  s = {s:.3f}: p = {p:+.6f}, q = {q:.6f}, k = {k:.1f}, "
            f"super-jet [{lo:+.4f}, {hi:+.4f}], sub-jet empty"
        )


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "oracle":
            _print_oracle(args.t, args.T)
            return 0
        config = _config_from_args(args)
        if args.command == "run":
            code, summary = run_experiment(config)
            status = "pass" if summary["pass"] else "FAIL"
            for stage in summary["stages"]:
                flag = "pass" if stage["pass"] else "FAIL"
                print(f"stage {stage['name']}: {flag}")
            print(f"summary: {status} ({os.path.join(config.out_dir, 'summary.json')})")
            return code
        # table
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise ConfigurationError(f"--values must be numbers, got {args.values!r}")
        rows = convergence_table(config, args.param, values)
        os.makedirs(config.out_dir, exist_ok=True)
        path = os.path.join(config.out_dir, f"table_{args.param}.csv")
        _write_table(rows, args.param, path)
        for value, metric in rows:
            print(f"{args.param} = {value:g}: metric = {metric!r}")
        print(f"table written to {path}")
        return 0
    except (ConfigurationError, problem_mod.ConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (problem_mod.ProblemError, OSError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
