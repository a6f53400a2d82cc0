"""Self-test of the benchmark's checks, at small sizes (a few seconds).

    python3 perfbench/selftest.py

Runs each workload once in this process, traced, at reduced Monte Carlo
and grid sizes (pipeline M=2000, hjb_fine J=100, config_text M=5000) and
requires every check to accept its outputs.  Then it spoils one output
at a time -- p with its sign flipped, the value grid shifted by 0.1, Y0
moved by ten standard errors, and one spoil for each remaining check --
and requires the targeted check to reject it.  Every check of every
workload is targeted by some spoil.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np

import workloads
from worker import ROOT, run_operation


def _set(key, fn):
    def spoil(out):
        bad = dict(out)
        bad[key] = fn(out)
        return bad

    return spoil


def _records(fn):
    def change(out):
        recs = [dict(r, superjet=dict(r["superjet"]), subjet=dict(r["subjet"])) for r in out["connection"]]
        for r in recs:
            fn(r)
        return recs

    return _set("connection", change)


def _flip_ratio(r):
    r["pq_inv_median"] = -r["pq_inv_median"]


def _widen_superjet(r):
    r["superjet"]["lo"] -= 0.05


def _subjet_interval(r):
    r["subjet"].update(kind="interval", lo=-1.5, hi=-1.0)


EXIT_1 = _set("exit_code", lambda o: 1)
FLIP_P = _set("p", lambda o: -o["p"])
SHIFT_GRID = _set("v0", lambda o: o["v0"] + 0.1)
MOVE_Y0 = _set("y0", lambda o: o["y0"] + 10.0 * o["stderr"])
SCALE_Q = _set("q", lambda o: 1.05 * o["q"])
BUMP_K = _set("k", lambda o: o["k"] + 0.05)
RESIDUAL = _set("residuals", lambda o: np.where(np.arange(o["residuals"].size) == 3, -1e-3, o["residuals"]))

# (targeted check, spoil) per workload
SPOILS = {
    "pipeline": [
        ("exit_code", EXIT_1),
        ("q", SCALE_Q),
        ("p", FLIP_P),
        ("k", BUMP_K),
        ("pq_inv", _records(_flip_ratio)),
        ("superjet", _records(_widen_superjet)),
        ("subjet_empty", _records(_subjet_interval)),
        ("residuals_zero", RESIDUAL),
        ("value_grid", SHIFT_GRID),
    ],
    "hjb_fine": [
        ("exit_code", EXIT_1),
        ("value_grid", SHIFT_GRID),
        ("lipschitz", _set("lipschitz", lambda o: 2.5)),
        ("growth", _set("growth", lambda o: 3.0)),
        ("cfl_ratio", _set("cfl_ratio", lambda o: 1.5)),
    ],
    "config_text": [
        ("exit_code", EXIT_1),
        ("y0", MOVE_Y0),
        ("q", SCALE_Q),
        ("p_median", FLIP_P),
        ("k_median", BUMP_K),
        ("residuals_zero", RESIDUAL),
    ],
}


def main():
    problems = []
    scratch = os.path.join(ROOT, "perfbench-out", "selftest")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        for name in workloads.WORKLOADS:
            work_dir = os.path.join(scratch, name)
            os.makedirs(work_dir)
            record, outputs = run_operation(name, 7, work_dir, trace=True, small=True)
            check = workloads.CHECKS[name]
            for check_name, passed, detail, _ in record["checks"]:
                print(f"{name:12s} correct        {check_name:15s} {'accept' if passed else 'REJECT'}: {detail}")
                if not passed:
                    problems.append(f"{name}: {check_name} rejected correct outputs")
            names = {c for c, _, _, _ in record["checks"]}
            targeted = {c for c, _ in SPOILS[name]}
            if names != targeted:
                problems.append(f"{name}: checks {sorted(names ^ targeted)} lack a spoil or a check")
            for target, spoil in SPOILS[name]:
                verdicts = {c: (p, d) for c, p, d, _ in check(spoil(outputs))}
                passed, detail = verdicts[target]
                print(f"{name:12s} spoiled {target:15s} -> {'ACCEPT' if passed else 'reject'}: {detail}")
                if passed:
                    problems.append(f"{name}: {target} accepted a spoiled output")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print("PROBLEM:", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
