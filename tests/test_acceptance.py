"""Acceptance suite: every criterion at its stated tolerance.

Prints one pass/fail line per criterion (run with -s to see them on
success).  Heavy artifacts (the optimal-pair pipeline at M=50000 and the
J=400 value grid) are session fixtures shared with the unit tests; their
construction wall times are recorded for the runtime criteria.
"""

import dataclasses

import numpy as np
import probes
import pytest

from fbsdelab import adjoint as A
from fbsdelab import backward as B
from fbsdelab import forward as F
from fbsdelab import hjb as H
from fbsdelab import jets as J
from fbsdelab import oracles
from fbsdelab import problem as P

from conftest import ACCEPT_SEED, TIMINGS


def _report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert passed, detail


def test_criterion_1_hjb_reproduction(spec31, vgrid400, vgrid100):
    errs = {}
    for label, vg in (("J=400", vgrid400), ("J=100", vgrid100)):
        exact = oracles.example31_value(0.0, vg.xs, 1.0)
        errs[label] = float(np.max(np.abs(vg.values[0] - exact)[1:-1]))
    runtime = TIMINGS["vgrid400"]
    fine_ok = errs["J=400"] <= 0.05
    time_ok = runtime <= 60.0
    # monotone-scheme convergence under quadrupling; the scheme is exact
    # on this problem, so both errors may sit at the float-accumulation
    # floor, which satisfies the convergence claim trivially
    floor = 1e-10
    conv_ok = (errs["J=100"] >= 2.0 * errs["J=400"]) or (
        errs["J=100"] <= floor and errs["J=400"] <= floor
    )
    _report(
        1,
        fine_ok and time_ok and conv_ok,
        f"max interior error {errs['J=400']:.2e} (<= 0.05), "
        f"runtime {runtime:.1f}s (<= 60), coarse error {errs['J=100']:.2e}",
    )


def test_criterion_2_adjoint_reproduction(pipeline_optimal):
    pipe = pipeline_optimal
    s = pipe["grid"].times
    q_err = float(np.max(np.abs(pipe["triple"].q - np.exp(-s)[None, :])))
    p_err = float(np.max(np.abs(pipe["triple"].p[:, :, 0] + np.exp(-s)[None, :])))
    k_max = float(np.max(np.abs(pipe["triple"].k)))
    runtime = TIMINGS["pipeline_optimal"]
    ok = q_err <= 1e-3 and p_err <= 2e-2 and k_max <= 2e-2 and runtime <= 120.0
    _report(
        2,
        ok,
        f"q err {q_err:.2e} (<= 1e-3), p err {p_err:.2e} (<= 2e-2), "
        f"|k| {k_max:.2e} (<= 2e-2), runtime {runtime:.1f}s (<= 120)",
    )


def test_criterion_3_connection_theorem(pipeline_optimal, vgrid400, spec31):
    pipe = pipeline_optimal
    check_times = [0.0, 0.25, 0.5, 0.75, 0.95]
    rep = J.verify_connection(
        spec31, pipe["batch"], pipe["triple"], vgrid400, check_times
    )
    ratio_ok = all(abs(r.pq_inv_median + 1.0) <= 2e-2 for r in rep.records)
    hausdorff = []
    for r in rep.records:
        lo, hi = probes.example31_jets(r.s, 1.0)[1]
        hausdorff.append(max(abs(r.superjet.lo - lo), abs(r.superjet.hi - hi)))
    jets_ok = max(hausdorff) <= 2e-2
    sub_ok = all(r.subjet.kind == "empty" for r in rep.records)

    flipped = dataclasses.replace(pipe["triple"], p=-pipe["triple"].p)
    rep_bad = J.verify_connection(
        spec31, pipe["batch"], flipped, vgrid400, check_times
    )
    control_ok = all(not r.passed for r in rep_bad.records) and not rep_bad.passed

    _report(
        3,
        rep.passed and ratio_ok and jets_ok and sub_ok and control_ok,
        f"pq^-1 within 2e-2 of -1 at {len(rep.records)} times, superjet "
        f"Hausdorff {max(hausdorff):.2e} (<= 2e-2), subjets empty, "
        f"sign-flipped adjoint fails all nodes",
    )


def test_criterion_4_bsde_oracle_equivalence(spec31):
    grid = F.TimeGrid(0.0, 1.0, 50)
    y0 = {}
    for c in (0.0, 1.0):
        batch = F.simulate_forward(
            spec31, c, 0.0, [1.0], grid, 50000, seed=ACCEPT_SEED
        )
        sol = B.solve_backward(spec31, batch, 3, n_picard=2)
        y0[c] = float(sol.y[0, 0])
    err0 = abs(y0[0.0] - 1.0)
    err1 = abs(y0[1.0] - 2.0)
    _report(
        4,
        err0 <= 0.02 and err1 <= 0.03,
        f"Y(0) control 0: {y0[0.0]:.4f} (err {err0:.4f} <= 0.02), "
        f"control 1: {y0[1.0]:.4f} (err {err1:.4f} <= 0.03), "
        f"M=50000 N=50 p_deg=3 seed={ACCEPT_SEED}",
    )


def test_criterion_5_maximum_condition(pipeline_optimal, pipeline_suboptimal, spec31):
    pipe = pipeline_optimal
    rep_opt = A.check_maximum_condition(spec31, pipe["batch"], pipe["sol"], pipe["triple"])
    optimal_ok = bool(np.all(rep_opt.residuals == 0.0)) and rep_opt.passed

    sub = pipeline_suboptimal
    rep_sub = A.check_maximum_condition(spec31, sub["batch"], sub["sol"], sub["triple"])
    suboptimal_ok = rep_sub.worst < -1e-2 and not rep_sub.passed
    _report(
        5,
        optimal_ok and suboptimal_ok,
        f"optimal-pair residuals identically 0; suboptimal worst residual "
        f"{rep_sub.worst:.3f} < -tol_mc flags the violation",
    )


def test_criterion_6_regularity(vgrid400):
    lip, growth = H.regularity_probe(vgrid400)
    _report(
        6,
        1.9 <= lip <= 2.1 and growth <= 2.2,
        f"Lipschitz constant {lip:.4f} in [1.9, 2.1], growth ratio "
        f"{growth:.4f} <= 2.2",
    )


def test_criterion_7_property_suites(spec31, zero_control):
    checks = []

    # jet duality under negation
    v = lambda x: oracles.example31_value(0.5, x, 1.0)
    est = J.estimate_jets_1d(v, 0.0)
    neg = J.estimate_jets_1d(lambda x: -v(x), 0.0)
    checks.append(
        est.subjet.kind == "empty"
        and neg.superjet.kind == "empty"
        and abs(neg.subjet.lo + est.superjet.hi) <= 1e-9
        and abs(neg.subjet.hi + est.superjet.lo) <= 1e-9
    )

    # |x| kink classification
    kink = J.estimate_jets_1d(abs, 0.0)
    checks.append(
        kink.superjet.kind == "empty"
        and kink.subjet.kind == "interval"
        and abs(kink.subjet.lo + 1.0) <= 1e-9
        and abs(kink.subjet.hi - 1.0) <= 1e-9
    )

    # scheme monotonicity probes
    grid = H.cfl_time_grid(spec31, 2.0, 100)
    vg = H.solve_hjb_fd(spec31, 2.0, 100, grid)
    row = vg.values[grid.steps // 2].copy()
    base = probes.sweep_step(spec31, vg.xs, row, 0.9, grid.dt)
    mono = True
    for j in (30, 50, 51, 70):
        for nb in (-1, 0, 1):
            pert = row.copy()
            pert[j + nb] += 1e-3
            upd = probes.sweep_step(spec31, vg.xs, pert, 0.9, grid.dt)
            mono = mono and upd[j] >= base[j] - 1e-13
    checks.append(mono)

    # determinism: bit-identical reruns
    tg = F.TimeGrid(0.0, 1.0, 50)
    b1 = F.simulate_forward(spec31, zero_control, 0.0, [1.0], tg, 5000, seed=7)
    b2 = F.simulate_forward(spec31, zero_control, 0.0, [1.0], tg, 5000, seed=7)
    s1 = B.solve_backward(spec31, b1, 3)
    s2 = B.solve_backward(spec31, b2, 3)
    checks.append(
        np.array_equal(b1.states, b2.states)
        and np.array_equal(s1.y, s2.y)
        and np.array_equal(s1.z, s2.z)
    )

    # perturbation-moment probes stable within factor 3 across three sizes
    sizes = [0.1, 0.05, 0.025]
    fwd_rep = probes.perturbation_moment_probe(
        spec31, zero_control, 0.0, [1.0], sizes, 1, tg, 4000, seed=9
    )
    rep_y, rep_z = probes.backward_perturbation_probe(
        spec31, zero_control, 0.0, [1.0], sizes, 1, tg, 4000, 3, seed=9
    )
    checks.append(fwd_rep.passed and rep_y.passed and rep_z.passed)

    # Euler strong-order refinement factor in [1.2, 1.8]
    fine = F.TimeGrid(0.0, 1.0, 200)
    bf = F.simulate_forward(spec31, zero_control, 0.0, [1.0], fine, 20000, seed=5)
    exact = np.exp(bf.increments[:, :, 0].sum(axis=1) - 0.5)
    e200 = np.sqrt(np.mean((bf.states[:, -1, 0] - exact) ** 2))
    dw100 = bf.increments[:, :, 0].reshape(20000, 100, 2).sum(axis=2)
    x = np.ones(20000)
    for i in range(100):
        x = x + x * dw100[:, i]
    e100 = np.sqrt(np.mean((x - exact) ** 2))
    checks.append(1.2 <= e100 / e200 <= 1.8)

    labels = [
        "jet duality",
        "kink classification",
        "monotonicity",
        "determinism",
        "perturbation probes",
        f"strong order (factor {e100 / e200:.2f})",
    ]
    detail = ", ".join(
        f"{label} {'ok' if ok else 'FAILED'}" for label, ok in zip(labels, checks)
    )
    _report(7, all(checks), detail)
