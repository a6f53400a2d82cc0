"""Benchmark of `fbsdelab run`: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation -- one workload command
with its checks -- runs alone in a fresh interpreter (perfbench/worker.py),
one after another, until S seconds have passed; every operation of a run
uses the same seed, so the run repeats one input.  Before the operations,
SETUP_PROBES extra interpreters only import the package and build the
problem spec, so the set-up time is a median of several samples.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones (medians over the run's operations); with --trace 1 the
operations run traced and the metrics are the per-layer ones.  Lines
before it describe each operation.  Artifacts and spans go to
perfbench-out/<workload>/ under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "perfbench-out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
# a run ends within this many seconds whatever --seconds says
RUN_DEADLINE = 170.0
LAYER_METRICS = {
    "problem.build_s": "s",
    "problem.coeff_calls": "count",
    "problem.coeff_s": "s",
    "forward.increments_s": "s",
    "forward.normals_per_s": "1/s",
    "forward.euler_s": "s",
    "forward.batch_mb": "MB",
    "backward.solve_s": "s",
    "adjoint.q_s": "s",
    "adjoint.pk_s": "s",
    "adjoint.maxcond_s": "s",
    "hjb.solve_s": "s",
    "hjb.regularity_s": "s",
    "hjb.time_steps": "count",
    "hjb.cfl_scans": "count",
    "hjb.node_updates_per_s": "1/s",
    "hjb.values_mb": "MB",
    "jets.verify_s": "s",
    "jets.jet_estimates": "count",
    "cli.run_s": "s",
    "cli.artifacts_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.self_s": "s",
    "backward.y0_abs_err": "1",
    "adjoint.p_max_err": "1",
    "hjb.max_interior_err": "1",
    "jets.pq_inv_dev": "1",
}


def host_reference_seconds():
    """Median time of a fixed numpy kernel: tracks host speed, not fbsdelab.

    It mixes what the workloads do: many small-array updates driven from
    Python (the HJB sweep), elementwise passes over 50,000-element arrays
    (the Monte Carlo layers) and a small Gram matrix product.
    """
    import numpy as np

    rng = np.random.Generator(np.random.Philox(0))
    row = rng.standard_normal(401)
    paths = rng.standard_normal(50_000)
    design = rng.standard_normal((50_000, 4))
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        v = row.copy()
        for _ in range(8000):
            pad = np.concatenate(([v[0]], v, [v[-1]]))
            v = v - 1e-4 * np.maximum(pad[2:] - 2.0 * v + pad[:-2], pad[2:] - v)
        x = paths.copy()
        for _ in range(100):
            x = x + 0.01 * x * np.exp(-np.abs(x))
        gram = design.T @ design
        samples.append(time.perf_counter() - start)
        if not (np.isfinite(v).all() and np.isfinite(x).all() and np.isfinite(gram).all()):
            raise RuntimeError("reference kernel produced non-finite values")
    return statistics.median(samples)


def spawn(args, work_dir, deadline):
    """Run the worker in a fresh interpreter; returns (record, spawn time)."""
    os.makedirs(work_dir, exist_ok=True)
    log_path = os.path.join(work_dir, "worker.log")
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, WORKER, "--dir", work_dir] + args,
            stdout=log,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
        )
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    result_path = os.path.join(work_dir, "result.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        return {"worker_failed": proc.returncode, "log": tail}, spawned
    with open(result_path) as fh:
        return json.load(fh), spawned


def operation_ok(rec):
    return (
        "worker_failed" not in rec
        and rec["exit_code"] == 0
        and rec["error"] is None
        and all(passed for _, passed, _, _ in rec["checks"])
    )


def main():
    parser = argparse.ArgumentParser(description="fbsdelab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fbsdelab", "cli.py")):
        print(f"no fbsdelab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    seed = args.seed % 2**63  # fbsdelab accepts seeds in [0, 2^63 - 1]
    start = time.monotonic()
    deadline = start + RUN_DEADLINE
    run_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)

    ref_s = host_reference_seconds()
    setups = []
    for i in range(SETUP_PROBES):
        rec, spawned = spawn(
            ["--workload", args.workload, "--setup-only"],
            os.path.join(run_dir, f"setup-{i}"),
            deadline,
        )
        if "worker_failed" in rec:
            print(f"setup probe failed:\n{rec['log']}", file=sys.stderr)
            return 1
        setups.append(rec["spec_built_at"] - spawned)

    ops = []
    measure_start = time.monotonic()
    while True:
        rec, spawned = spawn(
            ["--workload", args.workload, "--seed", str(seed), "--trace", str(args.trace)],
            os.path.join(run_dir, f"op-{len(ops)}"),
            deadline,
        )
        ok = operation_ok(rec)
        if rec.get("spec_built_at") is not None:
            setups.append(rec["spec_built_at"] - spawned)
        ops.append((rec, ok))
        if "worker_failed" in rec:
            print(f"op {len(ops) - 1}: worker failed\n{rec['log']}")
        else:
            bad = [f"{n}: {d}" for n, p, d, _ in rec["checks"] if not p]
            print(
                f"op {len(ops) - 1}: exit {rec['exit_code']} run_s {rec['run_s']:.3f} "
                f"peak_rss_mb {rec['peak_rss_mb']:.1f} "
                + ("ok" if ok else "FAILED " + "; ".join(bad) + (rec["error"] or ""))
            )
        if time.monotonic() - measure_start >= args.seconds:
            break
        if time.monotonic() >= deadline:
            break

    done = [rec for rec, _ in ops if "worker_failed" not in rec]
    failed = sum(1 for _, ok in ops if not ok)
    # an operation that ran to its end but produced a wrong output makes the
    # run incorrect; a crash or non-zero exit only counts as failed
    correct = all(
        all(p for _, p, _, _ in rec["checks"])
        for rec in done
        if rec["exit_code"] == 0 and rec["error"] is None
    )
    print(f"host.ref_s {ref_s:.4f} s; setup samples " + ", ".join(f"{s:.3f}" for s in setups))

    if not done:
        print("no operation ran to its end", file=sys.stderr)
        return 1

    def median(key):
        return statistics.median(rec[key] for rec in done)

    if args.trace:
        metrics = {}
        for name, unit in LAYER_METRICS.items():
            values = [rec["layers"][name] for rec in done]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["host.ref_s"] = {"value": ref_s, "unit": "s"}
    else:
        metrics = {
            "run_s": {"value": median("run_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
        }
    print(
        json.dumps(
            {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
