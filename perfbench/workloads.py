"""Workload definitions, closed forms and output checks of the benchmark.

Every workload is one `fbsdelab run` command line.  The checks compare
what that command produced with closed forms of the builtin example31
problem (dX = X u ds + X dW on U = [0, 1], driver x - y, terminal x),
computed here rather than taken from `fbsdelab.oracles`, so a fault in
the package's own oracle cannot hide a fault in a solver.

The checks read a flat dict of outputs (see `worker.extract_outputs`):
the CLI exit code, arrays taken from the objects the stage functions
returned, and the JSON artifacts.  They never read the CSV files.
"""

from __future__ import annotations

import math

import numpy as np

# example31 written as config text with the control reversed, u' = 1 - u,
# and started at x = 1.  The CLI's baseline policy for a config problem is
# the box's lower corner u = 0, i.e. u' = 1, which is optimal for x > 0;
# the state is then a geometric Brownian motion that never reaches 0.
CONFIG_TEXT = """\
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
x = 1.0

[coefficients]
b1 = "x1 * (1 - u1)"
sigma1_1 = "x1"
f = "x1 - y"
phi = "x1"
"""
CONFIG_FILE = "example31_reversed.cfg"
CONFIG_PICARD = 2

# Tolerances of the acceptance suite (tests/test_acceptance.py).
TOL_Q = 1e-3  # criterion 2, max |q - e^{-s}|
TOL_P = 2e-2  # criterion 2, max |p + e^{-s}|; also the regression allowance
TOL_K = 2e-2  # criterion 2, max |k|
TOL_CONN = 2e-2  # criterion 3, p q^-1 and super-jet endpoints
TOL_VALUE = 0.05  # criterion 1, interior value-grid error
LIPSCHITZ_RANGE = (1.9, 2.1)  # criterion 6
GROWTH_MAX = 2.2  # criterion 6
# Y0 may sit this many bootstrap standard errors from its discrete mean.
Y0_STDERRS = 4.0
# Rounding of the finite-difference driver gradient in the q recursion.
Q_ROUNDING = 1e-6
# The regressions (fbsdelab.backward._StepRegression) add a ridge term of
# RIDGE_SCALE times the trace of the Gram matrix of the standardized
# monomials, of the CLI's default degree BASIS_DEGREE.
RIDGE_SCALE = 1e-8
BASIS_DEGREE = 3


# --------------------------------------------------------------------------
# closed forms of example31
# --------------------------------------------------------------------------


def value(t, x, horizon):
    """V(t, x) = -x for x <= 0 and -x (T - t) - x for x > 0."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= 0.0, -x, -x * (horizon - t) - x)


def value_slope_right(s, horizon):
    """V_x(s, x) for x > 0, where V is smooth: -(T - s) - 1."""
    return -(horizon - s) - 1.0


def q_exact(s, t0):
    """q(s) = e^{-(s - t)}: the driver's y-derivative is -1."""
    return np.exp(-(np.asarray(s) - t0))


def p_kinked(s, t0):
    """p(s) = -e^{-(s - t)} along the optimal pair started at x = 0."""
    return -q_exact(s, t0)


def p_smooth(s, t0, horizon):
    """p(s) = q(s) V_x(s) = e^{-(s - t)} (s - T - 1) for states x > 0."""
    return q_exact(s, t0) * value_slope_right(np.asarray(s), horizon)


def growth_g(c, tau):
    """g(c, tau) with Y(t) = x g(c, T - t) under the constant control c."""
    a = c - 1.0
    if abs(a) < 1e-12:
        return tau + 1.0
    return math.expm1(a * tau) / a + math.exp(a * tau)


def superjet(s, horizon):
    """Super-jet of V at the optimal state 0: [-(T - s) - 1, -1]."""
    return -(horizon - s) - 1.0, -1.0


# --------------------------------------------------------------------------
# the explicit schemes' own discrete solutions (deterministic for
# example31, so their distance to the closed forms is the Euler error)
# --------------------------------------------------------------------------


def discrete_q(dt, steps):
    """Euler for dq = -q ds from q = 1: (1 - dt)^i."""
    return (1.0 - dt) ** np.arange(steps + 1)


def discrete_p(dt, steps):
    """The adjoint recursion p_i = p_{i+1} + (b_x p_{i+1} - f_x q_i) dt.

    b_x = f_x = 1 and k = 0 on the config workload; p_N = -q_N.
    """
    q = discrete_q(dt, steps)
    p = np.empty(steps + 1)
    p[steps] = -q[steps]
    for i in range(steps - 1, -1, -1):
        p[i] = p[i + 1] + (p[i + 1] - q[i]) * dt
    return p


def discrete_y(x0, dt, steps, picard):
    """Mean path of the explicit backward scheme under drift x, driver x - y.

    E[X_i] = x0 (1 + dt)^i under Euler; the scheme is linear, so its mean
    follows the same recursion with the conditional expectations exact.
    """
    mean_x = x0 * (1.0 + dt) ** np.arange(steps + 1)
    y = np.empty(steps + 1)
    y[steps] = mean_x[steps]
    for i in range(steps - 1, -1, -1):
        cont = y[i + 1]
        yi = cont + (mean_x[i] - cont) * dt
        for _ in range(picard):
            yi = cont + (mean_x[i] - yi) * dt
        y[i] = yi
    return y


# --------------------------------------------------------------------------
# checks: each returns (name, passed, detail, measured figure)
# --------------------------------------------------------------------------


def _check(name, passed, detail, figure=None):
    return name, bool(passed), detail, figure


def _exit_code(out):
    code = out["exit_code"]
    return _check("exit_code", code == 0, f"exit code {code}")


def _need(out, *keys):
    missing = [k for k in keys if k not in out]
    if missing:
        raise KeyError(", ".join(missing))


def _value_grid(out):
    _need(out, "v0", "xs", "t_hjb", "T")
    err = float(np.max(np.abs(out["v0"] - value(out["t_hjb"], out["xs"], out["T"]))[1:-1]))
    return _check("value_grid", err <= TOL_VALUE, f"interior error {err:.3e} <= {TOL_VALUE}", err)


def _residuals_zero(out):
    _need(out, "residuals")
    worst = float(np.max(np.abs(out["residuals"])))
    return _check(
        "residuals_zero", worst == 0.0, f"max |maximum-condition residual| {worst!r} == 0"
    )


def _pipeline_checks(out):
    _need(out, "times", "t0", "T", "q", "p", "k", "connection")
    s, t0, horizon = out["times"], out["t0"], out["T"]
    q_err = float(np.max(np.abs(out["q"] - q_exact(s, t0)[None, :])))
    p_err = float(np.max(np.abs(out["p"] - p_kinked(s, t0)[None, :])))
    k_max = float(np.max(np.abs(out["k"])))
    records = out["connection"]
    pq_dev = max((abs(r["pq_inv_median"] + 1.0) for r in records), default=math.inf)
    jet_dev = 0.0
    for r in records:
        lo, hi = superjet(r["s"], horizon)
        sj = r["superjet"]
        if sj["kind"] != "interval":
            jet_dev = math.inf
        else:
            jet_dev = max(jet_dev, abs(sj["lo"] - lo), abs(sj["hi"] - hi))
    sub_kinds = sorted({r["subjet"]["kind"] for r in records})
    return [
        _check("q", q_err <= TOL_Q, f"max |q - e^-s| {q_err:.3e} <= {TOL_Q}"),
        _check("p", p_err <= TOL_P, f"max |p + e^-s| {p_err:.3e} <= {TOL_P}", p_err),
        _check("k", k_max <= TOL_K, f"max |k| {k_max:.3e} <= {TOL_K}"),
        _check(
            "pq_inv",
            len(records) > 0 and pq_dev <= TOL_CONN,
            f"{len(records)} check times, max |pq^-1 + 1| {pq_dev:.3e} <= {TOL_CONN}",
            pq_dev,
        ),
        _check(
            "superjet",
            len(records) > 0 and jet_dev <= TOL_CONN,
            f"super-jet endpoints within {jet_dev:.3e} of [-(T-s)-1, -1] (<= {TOL_CONN})",
        ),
        _check("subjet_empty", sub_kinds == ["empty"], f"sub-jet kinds {sub_kinds}"),
    ]


def check_pipeline(out):
    return _guarded(out, [_exit_code, _pipeline_checks, _residuals_zero, _value_grid])


def _regularity(out):
    _need(out, "lipschitz", "growth", "cfl_ratio")
    lip, growth, ratio = out["lipschitz"], out["growth"], out["cfl_ratio"]
    lo, hi = LIPSCHITZ_RANGE
    return [
        _check("lipschitz", lo <= lip <= hi, f"Lipschitz constant {lip:.4f} in [{lo}, {hi}]"),
        _check("growth", growth <= GROWTH_MAX, f"growth {growth:.4f} <= {GROWTH_MAX}"),
        _check("cfl_ratio", ratio <= 1.0, f"cfl_ratio {ratio!r} <= 1"),
    ]


def check_hjb_fine(out):
    return _guarded(out, [_exit_code, _value_grid, _regularity])


def ridge_shrinkage(states):
    """Per-step ridge weight lambda_i / M of the regressions on X_i.

    A ridge of lambda shrinks the fitted conditional mean of a constant
    target by about lambda / M.  On geometric Brownian states lambda is
    dominated by the most extreme path's t^6, so it varies from seed to
    seed; states (M, N+1) are one-dimensional.
    """
    x = states[:, :-1]
    sd = x.std(axis=0)
    t = (x - x.mean(axis=0)) / np.where(sd > 1e-300, sd, 1.0)
    trace = sum(np.sum(t ** (2 * j), axis=0) for j in range(BASIS_DEGREE + 1))
    return RIDGE_SCALE * trace / x.shape[0]


def config_tolerances(dt, steps, stderr, shrink, x0=1.0, t0=0.0, horizon=1.0):
    """Closed forms and tolerances of the config workload at this grid.

    Each window is centred on the explicit scheme's own discrete solution,
    whose distance to the closed form is the Euler error.  It is widened
    by the ridge shrinkage `shrink` (lambda_i / M per step) carried
    through the recursion to first order -- the ridge pulls Y towards 0,
    so only below it -- and by the Monte Carlo allowance: four bootstrap
    standard errors for Y0, and the acceptance suite's 2e-2 on p and k.
    """
    s = t0 + dt * np.arange(steps + 1)
    y_mean = discrete_y(x0, dt, steps, CONFIG_PICARD)
    p_disc = discrete_p(dt, steps)
    # the y recursion contracts a shrinkage by (1 - dt) a step, so 1 bounds
    # its weight; the p recursion amplifies it by (1 + dt) a step
    ridge_y = float(np.sum(shrink * np.abs(y_mean[1:])))
    ridge_p = float(np.sum(shrink * np.abs(p_disc[1:]) * (1.0 + dt) ** np.arange(1, steps + 1)))
    q_euler = float(np.max(np.abs(discrete_q(dt, steps) - q_exact(s, t0))))
    p_euler = float(np.max(np.abs(p_disc - p_smooth(s, t0, horizon))))
    return {
        "y0": x0 * growth_g(1.0, horizon - t0),
        "y0_lo": y_mean[0] - ridge_y - Y0_STDERRS * stderr,
        "y0_hi": y_mean[0] + Y0_STDERRS * stderr,
        "q_tol": q_euler + Q_ROUNDING,
        "p_tol": p_euler + ridge_p + TOL_P,
        "k_tol": ridge_p + TOL_K,
    }


def _config_checks(out):
    _need(out, "times", "t0", "T", "dt", "x0", "states", "y0", "stderr", "q", "p", "k")
    s, t0, horizon = out["times"], out["t0"], out["T"]
    steps = s.size - 1
    shrink = ridge_shrinkage(out["states"])
    tol = config_tolerances(out["dt"], steps, out["stderr"], shrink, out["x0"], t0, horizon)
    q_err = float(np.max(np.abs(out["q"] - q_exact(s, t0)[None, :])))
    p_med = np.median(out["p"], axis=0)
    p_err = float(np.max(np.abs(p_med - p_smooth(s, t0, horizon))))
    k_med = float(np.max(np.abs(np.median(out["k"], axis=0))))
    return [
        _check(
            "y0",
            tol["y0_lo"] <= out["y0"] <= tol["y0_hi"],
            f"Y0 {out['y0']:.4f} in [{tol['y0_lo']:.4f}, {tol['y0_hi']:.4f}] around "
            f"x g(1, T) = {tol['y0']:g} (Euler bias, ridge, {Y0_STDERRS:g} x stderr "
            f"{out['stderr']:.4f})",
            abs(out["y0"] - tol["y0"]),
        ),
        _check("q", q_err <= tol["q_tol"], f"max |q - e^-s| {q_err:.3e} <= {tol['q_tol']:.3e}"),
        _check(
            "p_median",
            p_err <= tol["p_tol"],
            f"max |median p - e^-s (s - T - 1)| {p_err:.4f} <= {tol['p_tol']:.4f}",
            p_err,
        ),
        _check("k_median", k_med <= tol["k_tol"], f"max |median k| {k_med:.3e} <= {tol['k_tol']:.4f}"),
    ]


def check_config_text(out):
    return _guarded(out, [_exit_code, _config_checks, _residuals_zero])


def _guarded(out, groups):
    """Run check groups; a group whose outputs are missing fails as one."""
    results = []
    for group in groups:
        try:
            got = group(out)
        except KeyError as exc:
            results.append(_check(group.__name__.strip("_"), False, f"missing output {exc}"))
            continue
        results.extend(got if isinstance(got, list) else [got])
    return results


# accuracy figures reported beside the per-layer timings, from the checks
# that measure them; 0 on a workload without such a check
ACCURACY = {
    "backward.y0_abs_err": ("y0",),
    "adjoint.p_max_err": ("p", "p_median"),
    "hjb.max_interior_err": ("value_grid",),
    "jets.pq_inv_dev": ("pq_inv",),
}


def accuracy(checks):
    figures = {name: figure for name, _, _, figure in checks if figure is not None}
    return {
        metric: next((figures[c] for c in names if c in figures), 0.0)
        for metric, names in ACCURACY.items()
    }


def argv(name, seed, out_dir, config_path, small=False):
    """The `fbsdelab run` command line of a workload, without the program."""
    if name == "pipeline":
        m = "2000" if small else "50000"
        return [
            "run", "--builtin", "example31", "--all",
            "--M", m, "--N", "200", "--J", "100",
            "--seed", str(seed), "--out", out_dir,
        ]
    if name == "hjb_fine":
        j = "100" if small else "400"
        return [
            "run", "--builtin", "example31", "--stage", "hjb",
            "--J", j, "--seed", str(seed), "--out", out_dir,
        ]
    if name == "config_text":
        m = "5000" if small else "50000"
        return [
            "run", "--problem", config_path,
            "--stage", "forward", "--stage", "backward", "--stage", "adjoint",
            "--M", m, "--N", "50", "--picard", str(CONFIG_PICARD),
            "--seed", str(seed), "--out", out_dir,
        ]
    raise KeyError(name)


CHECKS = {
    "pipeline": check_pipeline,
    "hjb_fine": check_hjb_fine,
    "config_text": check_config_text,
}
WORKLOADS = tuple(CHECKS)
