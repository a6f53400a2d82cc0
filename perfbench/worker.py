"""One benchmark operation in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --dir DIR
    python3 perfbench/worker.py --workload NAME --setup-only --dir DIR

An operation runs the workload's `fbsdelab run` command in-process through
`fbsdelab.cli.main`, with artifacts in DIR/out, then checks the outputs.
It writes DIR/result.json: the exit code, each check's verdict, the wall
time of `cli.main`, the monotonic clock reading at which the problem spec
existed (the parent subtracts its spawn time to get the set-up time), the
process's peak resident memory and, with --trace 1, the per-layer
metrics; the spans go to DIR/trace.json.  With --setup-only it imports
the package, builds the workload's problem spec and stops.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import workloads
from tracing import EVALUATOR_PREFIX, WRITER_NAMES, Tracer, instrument

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import fbsdelab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import fbsdelab
    from fbsdelab import adjoint, backward, cli, forward, hjb, jets, problem

    where = os.path.dirname(os.path.abspath(fbsdelab.__file__))
    if where != os.path.join(SRC, "fbsdelab"):
        raise ImportError(f"fbsdelab imported from {where}, not from {SRC}")
    return {
        "problem": problem,
        "forward": forward,
        "backward": backward,
        "adjoint": adjoint,
        "hjb": hjb,
        "jets": jets,
        "cli": cli,
    }


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def extract_outputs(results, out_dir, exit_code):
    """Flat dict of what the checks read: returned objects and JSON artifacts."""
    out = {"exit_code": exit_code}
    spec = results.get("problem.builtin_problem") or results.get("problem.parse_problem")
    if isinstance(spec, tuple):
        spec = spec[0]
    if spec is not None:
        out["T"] = spec.horizon
    batch = results.get("forward.simulate_forward")
    if batch is not None:
        out["times"] = batch.grid.times
        out["t0"] = batch.grid.start
        out["dt"] = batch.grid.dt
        out["x0"] = float(batch.x0[0])
        out["states"] = batch.states[:, :, 0]
    sol = results.get("backward.solve_backward")
    if sol is not None:
        out["y0"] = float(sol.y[0, 0])
    if "adjoint.solve_q" in results:
        out["q"] = results["adjoint.solve_q"]
    if "adjoint.solve_pk" in results:
        p, k = results["adjoint.solve_pk"]
        out["p"] = p[:, :, 0]
        out["k"] = k.reshape(k.shape[0], k.shape[1], -1)[:, :, 0]
    if "adjoint.check_maximum_condition" in results:
        out["residuals"] = results["adjoint.check_maximum_condition"].residuals
    vgrid = results.get("hjb.solve_hjb_fd")
    if vgrid is not None:
        out["v0"] = vgrid.values[0]
        out["xs"] = vgrid.xs
        out["t_hjb"] = vgrid.grid.start
    if "hjb.regularity_probe" in results:
        out["lipschitz"], out["growth"] = results["hjb.regularity_probe"]
    for name, read in (
        ("cost.json", lambda d: {"stderr": d["stderr"]}),
        ("hjb_meta.json", lambda d: {"cfl_ratio": d["cfl_ratio"]}),
        ("connection.json", lambda d: {"connection": d["records"]}),
    ):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            out.update(read(_read_json(path)))
    return out


def layer_metrics(tracer, out_dir):
    """Per-layer metrics from the spans and the returned objects."""
    spans = tracer.summary()
    results = tracer.results

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    evals = [v for k, v in spans.items() if k.startswith(EVALUATOR_PREFIX)]
    m = {
        "problem.build_s": total("problem.builtin_problem") + total("problem.parse_problem"),
        "problem.coeff_calls": sum(v[0] for v in evals),
        "problem.coeff_s": sum(v[1] for v in evals),
        "forward.increments_s": total("forward.generate_increments"),
        "forward.normals_per_s": 0.0,
        "forward.euler_s": own("forward.simulate_forward"),
        "forward.batch_mb": 0.0,
        "backward.solve_s": total("backward.solve_backward"),
        "adjoint.q_s": total("adjoint.solve_q"),
        "adjoint.pk_s": total("adjoint.solve_pk"),
        "adjoint.maxcond_s": total("adjoint.check_maximum_condition"),
        "hjb.solve_s": total("hjb.solve_hjb_fd"),
        "hjb.regularity_s": total("hjb.regularity_probe"),
        "hjb.time_steps": 0,
        "hjb.cfl_scans": calls("hjb.cfl_max_dt"),
        "hjb.node_updates_per_s": 0.0,
        "hjb.values_mb": 0.0,
        "jets.verify_s": total("jets.verify_connection"),
        "jets.jet_estimates": calls("jets.estimate_jets_1d"),
        "cli.run_s": total("cli.main"),
        "cli.artifacts_s": sum(own(name) for name in WRITER_NAMES),
        "cli.artifact_bytes": sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
        ),
        "cli.self_s": own("cli.main"),
    }
    batch = results.get("forward.simulate_forward")
    if batch is not None:
        m["forward.batch_mb"] = (batch.states.nbytes + batch.increments.nbytes) / 1e6
        if m["forward.increments_s"] > 0:
            m["forward.normals_per_s"] = batch.increments.size / m["forward.increments_s"]
    vgrid = results.get("hjb.solve_hjb_fd")
    if vgrid is not None:
        m["hjb.time_steps"] = vgrid.grid.steps
        m["hjb.values_mb"] = vgrid.values.nbytes / 1e6
        if m["hjb.solve_s"] > 0:
            m["hjb.node_updates_per_s"] = vgrid.grid.steps * vgrid.xs.size / m["hjb.solve_s"]
    return m


def run_operation(name, seed, work_dir, trace, small=False):
    """Run one workload command in this process and check its outputs."""
    modules = import_package()
    out_dir = os.path.join(work_dir, "out")
    config_path = os.path.join(work_dir, workloads.CONFIG_FILE)
    if name == "config_text":
        with open(config_path, "w") as fh:
            fh.write(workloads.CONFIG_TEXT)
    argv = workloads.argv(name, seed, out_dir, config_path, small)
    tracer = Tracer(trace)
    error = None
    with instrument(modules, tracer):
        main = tracer.wrap("cli.main", modules["cli"].main) if trace else modules["cli"].main
        start = time.perf_counter()
        try:
            exit_code = main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            exit_code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - an exception is a failed operation
            exit_code = None
            error = traceback.format_exc()
        run_s = time.perf_counter() - start
    outputs = extract_outputs(tracer.results, out_dir, exit_code)
    checks = workloads.CHECKS[name](outputs)
    record = {
        "workload": name,
        "seed": seed,
        "exit_code": exit_code,
        "error": error,
        "checks": checks,
        "run_s": run_s,
        "spec_built_at": tracer.spec_built_at,
    }
    if trace:
        record["layers"] = layer_metrics(tracer, out_dir)
        record["layers"].update(workloads.accuracy(checks))
        tracer.dump(os.path.join(work_dir, "trace.json"))
    return record, outputs


def build_spec_only(name):
    """Import the package and build the workload's spec, nothing more."""
    modules = import_package()
    tracer = Tracer(False)
    with instrument(modules, tracer):
        if name == "config_text":
            modules["problem"].parse_problem(workloads.CONFIG_TEXT)
        else:
            modules["problem"].builtin_problem("example31")
    return {"workload": name, "spec_built_at": tracer.spec_built_at}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    os.makedirs(args.dir, exist_ok=True)
    if args.setup_only:
        record = build_spec_only(args.workload)
    else:
        record, _ = run_operation(args.workload, args.seed, args.dir, bool(args.trace))
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(record, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
