"""Command-line driver wiring the pipeline stages together.

Subcommands:

  run     parse a problem, execute selected stages in dependency order
          (forward -> backward -> adjoint; hjb independent; jets needs
          adjoint + hjb), write per-stage CSV/JSON artifacts plus a
          summary.json, and exit 0 iff every selected check passed.
  table   rerun the pipeline across values of one numerical parameter
          (M, N, J or p_deg) and write a (value, metric) CSV.
  oracle  print tabulated closed-form reference values for the builtin
          benchmark problem.

Exit codes: 0 all selected checks pass, 1 numerical failure in a stage,
2 configuration error.  Reruns with an identical command line produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import adjoint as adjoint_mod
from . import backward as backward_mod
from . import forward as forward_mod
from . import hjb as hjb_mod
from . import jets as jets_mod
from . import oracles
from . import problem as problem_mod

STAGES = ("forward", "backward", "adjoint", "hjb", "jets")
STAGE_DEPS = {
    "forward": (),
    "backward": ("forward",),
    "adjoint": ("backward",),
    "hjb": (),
    "jets": ("adjoint", "hjb"),
}

# inclusive bounds on the numerical parameters
PARAM_BOUNDS = {
    "M": (1, 10_000_000),
    "N": (1, 10_000_000),
    "J": (8, 100_000),
    "L": (1e-6, 1e6),
    "p_deg": (0, 12),
    "control_grid_size": (2, 10_001),
    "seed": (0, 2**63 - 1),
    "n_picard": (0, 100),
}


class ConfigurationError(Exception):
    pass


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
    tol_jet: float = jets_mod.DEFAULT_TOL_JET
    tol_conn: float = jets_mod.DEFAULT_TOL_CONN
    tol_mc: float = 1e-2
    out_dir: str = "out"
    formats: tuple = ("csv", "json")
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
        for name, value in (
            ("M", self.m_paths),
            ("N", self.n_steps),
            ("J", self.j_cells),
            ("L", self.half_width),
            ("p_deg", self.p_deg),
            ("control_grid_size", self.control_grid_size),
            ("seed", self.seed),
            ("n_picard", self.n_picard),
        ):
            lo, hi = PARAM_BOUNDS[name]
            if not lo <= value <= hi:
                raise ConfigurationError(
                    f"{name} = {value} outside documented bounds [{lo}, {hi}]"
                )
        for tol in (self.tol_jet, self.tol_conn, self.tol_mc):
            if not tol > 0:
                raise ConfigurationError("tolerances must be positive")
        for fmt in self.formats:
            if fmt not in ("csv", "json"):
                raise ConfigurationError(f"unknown output format {fmt!r}")


def _load_problem(config):
    if config.builtin is not None:
        spec = problem_mod.builtin_problem(config.builtin)
        t0, x0, u0 = problem_mod.builtin_start(config.builtin)
        return spec, t0, x0, forward_mod.ConstantPolicy(u0)
    with open(config.problem_path, encoding="utf-8") as fh:
        text = fh.read()
    spec, initial = problem_mod.parse_problem(text)
    if initial is None:
        t0, x0 = 0.0, np.zeros(spec.n)
    else:
        t0, x0 = initial
    # baseline policy: the control box's lower corner
    return spec, t0, x0, forward_mod.ConstantPolicy(spec.control_lo)


def _json_dump(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _oracle_name(spec):
    return spec.name if spec.name == "example31" else None


def run_experiment(config):
    """Execute the selected stages; returns (exit_code, summary dict)."""
    config.validate()
    spec, t0, x0, policy = _load_problem(config)
    os.makedirs(config.out_dir, exist_ok=True)
    want_csv = "csv" in config.formats
    want_json = "json" in config.formats
    out = lambda name: os.path.join(config.out_dir, name)

    summary = {
        "problem": config.builtin or os.path.basename(config.problem_path),
        "seed": config.seed,
        "stages": [],
        "pass": True,
    }
    state = {}

    def record(name, metrics, passed):
        summary["stages"].append({"name": name, "metrics": metrics, "pass": passed})
        summary["pass"] = summary["pass"] and passed

    def fail(name, exc):
        summary["stages"].append(
            {"name": name, "metrics": {"error": str(exc)}, "pass": False}
        )
        summary["pass"] = False
        _json_dump(summary, out("summary.json"))
        return 1, summary

    oracle = _oracle_name(spec)

    for stage in [s for s in STAGES if s in config.stages]:
        try:
            if stage == "forward":
                grid = forward_mod.TimeGrid(t0, spec.horizon, config.n_steps)
                batch = forward_mod.simulate_forward(
                    spec, policy, t0, x0, grid, config.m_paths, config.seed
                )
                state["batch"] = batch
                xt = np.linalg.norm(batch.states[:, -1], axis=-1)
                record(
                    "forward",
                    {
                        "M": config.m_paths,
                        "N": config.n_steps,
                        "mean_xT": float(xt.mean()),
                        "std_xT": float(xt.std()),
                    },
                    True,
                )
                if want_csv:
                    forward_mod.pathbatch_summary_csv(batch, out("forward.csv"))
            elif stage == "backward":
                sol = backward_mod.solve_backward(
                    spec, policy, state["batch"], config.p_deg,
                    n_picard=config.n_picard,
                )
                state["backward"] = sol
                cost_rep = backward_mod.CostReport(
                    j=float(-sol.y[0, 0]),
                    stderr=backward_mod._bootstrap_stderr(
                        sol.pathwise_value, config.seed
                    ),
                    n_paths=config.m_paths,
                    steps=config.n_steps,
                    seed=config.seed,
                )
                metrics = {
                    "y0": float(sol.y[0, 0]),
                    "J": cost_rep.j,
                    "stderr": cost_rep.stderr,
                    "max_condition": float(sol.conditions.max()),
                }
                if oracle:
                    target = -oracles.example31_value(t0, float(x0[0]), spec.horizon)
                    metrics["y0_abs_error_vs_value"] = abs(metrics["y0"] - target)
                record("backward", metrics, True)
                if want_csv:
                    backward_mod.backward_csv(sol, out("backward.csv"))
                if want_json:
                    with open(out("cost.json"), "w") as fh:
                        fh.write(cost_rep.to_json() + "\n")
            elif stage == "adjoint":
                triple = adjoint_mod.solve_adjoint(
                    spec, state["batch"], state["backward"]
                )
                state["adjoint"] = triple
                mc = adjoint_mod.check_maximum_condition(
                    spec,
                    state["batch"],
                    state["backward"],
                    triple,
                    control_grid_size=config.control_grid_size,
                    tol_mc=config.tol_mc,
                )
                state["maxcond"] = mc
                q_min = float(triple.q.min())
                metrics = {
                    "q_min": q_min,
                    "mc_worst_residual": mc.worst,
                    "mc_pass": mc.passed,
                }
                if oracle:
                    s_nodes = triple.grid.times
                    metrics["q_max_error"] = float(
                        np.max(np.abs(triple.q - np.exp(t0 - s_nodes)[None, :]))
                    )
                    metrics["p_max_error"] = float(
                        np.max(np.abs(triple.p[:, :, 0] + np.exp(t0 - s_nodes)[None, :]))
                    )
                    metrics["k_max_abs"] = float(np.max(np.abs(triple.k)))
                record("adjoint", metrics, bool(q_min > 0.0) and mc.passed)
                if want_csv:
                    adjoint_mod.adjoint_csv(triple, mc, out("adjoint.csv"))
            elif stage == "hjb":
                hgrid = hjb_mod.cfl_time_grid(
                    spec,
                    config.half_width,
                    config.j_cells,
                    config.control_grid_size,
                    t_start=t0,
                )
                vgrid = hjb_mod.solve_hjb_fd(
                    spec,
                    config.half_width,
                    config.j_cells,
                    hgrid,
                    config.control_grid_size,
                )
                state["vgrid"] = vgrid
                lip, growth = hjb_mod.regularity_probe(vgrid)
                metrics = {
                    "N_cfl": hgrid.steps,
                    "dt": hgrid.dt,
                    "lipschitz": lip,
                    "growth": growth,
                }
                passed = True
                if oracle:
                    exact = oracles.example31_value(t0, vgrid.xs, spec.horizon)
                    err = float(
                        np.max(np.abs(vgrid.values[0] - exact)[1:-1])
                    )
                    metrics["max_interior_error"] = err
                    passed = err <= 0.05
                record("hjb", metrics, passed)
                if want_csv:
                    hjb_mod.value_grid_csv(vgrid, out("hjb.csv"))
                if want_json:
                    hjb_mod.value_grid_meta_json(vgrid, out("hjb_meta.json"))
            elif stage == "jets":
                check_times = [
                    t0 + frac * (spec.horizon - t0)
                    for frac in (0.0, 0.25, 0.5, 0.75, 0.95)
                ]
                rep = jets_mod.verify_connection(
                    spec,
                    state["batch"],
                    state["backward"],
                    state["adjoint"],
                    state["vgrid"],
                    check_times,
                    tol_conn=config.tol_conn,
                    tol_jet=config.tol_jet,
                )
                record(
                    "jets",
                    {
                        "n_times": len(rep.records),
                        "pq_inv_median_first": rep.records[0].pq_inv_median,
                        "pass": rep.passed,
                    },
                    rep.passed,
                )
                if want_json:
                    with open(out("connection.json"), "w") as fh:
                        fh.write(rep.to_json() + "\n")
                if want_csv:
                    jets_mod.connection_csv(rep, out("connection.csv"))
        except (problem_mod.ProblemError, ValueError) as exc:
            return fail(stage, exc)

    _json_dump(summary, out("summary.json"))
    return (0 if summary["pass"] else 1), summary


# --------------------------------------------------------------------------
# convergence tables
# --------------------------------------------------------------------------

TABLE_PARAMS = ("M", "N", "J", "p_deg")


def convergence_table(config, parameter, values):
    """Rerun one stage metric across parameter values; returns rows.

    Only supported for the builtin benchmark (error metrics need the
    closed-form reference).  Metric per parameter: J -> max interior
    value-grid error; N -> max q error; M, p_deg -> |Y0 - oracle|.
    """
    config.validate()
    if parameter not in TABLE_PARAMS:
        raise ConfigurationError(
            f"parameter must be one of {TABLE_PARAMS}, got {parameter!r}"
        )
    if config.builtin != "example31":
        raise ConfigurationError(
            "convergence tables need ground truth; use --builtin example31"
        )
    if not values:
        raise ConfigurationError("need at least one parameter value")
    lo, hi = PARAM_BOUNDS[parameter]
    for value in values:
        if not float(value).is_integer():
            raise ConfigurationError(f"{parameter} = {value!r} must be an integer")
        if not lo <= value <= hi:
            raise ConfigurationError(
                f"{parameter} = {value!r} outside documented bounds [{lo}, {hi}]"
            )
    spec = problem_mod.builtin_problem("example31")
    t0, x0, u0 = problem_mod.builtin_start("example31")

    rows = []
    for value in values:
        if parameter == "J":
            j_cells = int(value)
            hgrid = hjb_mod.cfl_time_grid(
                spec, config.half_width, j_cells, config.control_grid_size, t0
            )
            vgrid = hjb_mod.solve_hjb_fd(
                spec, config.half_width, j_cells, hgrid, config.control_grid_size
            )
            exact = oracles.example31_value(t0, vgrid.xs, spec.horizon)
            metric = float(np.max(np.abs(vgrid.values[0] - exact)[1:-1]))
        elif parameter == "N":
            grid = forward_mod.TimeGrid(t0, spec.horizon, int(value))
            batch = forward_mod.simulate_forward(
                spec, forward_mod.ConstantPolicy(u0), t0, x0, grid,
                config.m_paths, config.seed,
            )
            sol = backward_mod.solve_backward(
                spec, forward_mod.ConstantPolicy(u0), batch, config.p_deg
            )
            q = adjoint_mod.solve_q(spec, batch, sol)
            metric = float(
                np.max(np.abs(q - np.exp(t0 - grid.times)[None, :]))
            )
        else:  # M or p_deg: backward solve from x = 1 under control 0
            m_paths = int(value) if parameter == "M" else config.m_paths
            p_deg = int(value) if parameter == "p_deg" else config.p_deg
            grid = forward_mod.TimeGrid(t0, spec.horizon, config.n_steps)
            rep = backward_mod.cost(
                spec, forward_mod.ConstantPolicy(u0), t0, [1.0], grid,
                m_paths, p_deg, config.seed,
            )
            target = oracles.example31_constant_policy_y0(
                t0, 1.0, spec.horizon, float(u0[0])
            )
            metric = abs(-rep.j - target)
        rows.append((value, metric))
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
        p.add_argument("--problem", help="path to a problem config file")
        p.add_argument("--M", type=int, default=20000, dest="m_paths")
        p.add_argument("--N", type=int, default=100, dest="n_steps")
        p.add_argument("--L", type=float, default=2.0, dest="half_width")
        p.add_argument("--J", type=int, default=200, dest="j_cells")
        p.add_argument("--pdeg", type=int, default=3, dest="p_deg")
        p.add_argument("--ugrid", type=int, default=11, dest="control_grid_size")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol-jet", type=float, default=jets_mod.DEFAULT_TOL_JET)
        p.add_argument("--tol-conn", type=float, default=jets_mod.DEFAULT_TOL_CONN)
        p.add_argument("--tol-mc", type=float, default=1e-2)
        p.add_argument("--picard", type=int, default=0, dest="n_picard")
        p.add_argument("--out", default="out", dest="out_dir")
        p.add_argument("--format", default="csv,json", dest="formats")

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
    stages = STAGES
    if getattr(args, "stages", None):
        stages = tuple(args.stages)
    elif getattr(args, "all", False):
        stages = STAGES
    return ExperimentConfig(
        builtin=args.builtin,
        problem_path=args.problem,
        stages=stages,
        m_paths=args.m_paths,
        n_steps=args.n_steps,
        half_width=args.half_width,
        j_cells=args.j_cells,
        p_deg=args.p_deg,
        control_grid_size=args.control_grid_size,
        seed=args.seed,
        tol_jet=args.tol_jet,
        tol_conn=args.tol_conn,
        tol_mc=args.tol_mc,
        out_dir=args.out_dir,
        formats=tuple(f.strip() for f in args.formats.split(",") if f.strip()),
        n_picard=args.n_picard,
    )


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
