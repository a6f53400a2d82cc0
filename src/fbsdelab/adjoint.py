"""Adjoint process triple (p, q, k) along a simulated optimal trajectory.

The scalar multiplier q solves a forward linear SDE driven by the driver
gradients (q(t) = 1); when f_y reads no path variable and f_z is
identically 0 that SDE is an ODE in time, and q is solved on one path
and broadcast over the others.  (p, k) solve the linear backward equation

    -dp = [b_x^T p - f_x^T q + sigma_x k] ds - k dW,
     p(T) = -phi_x(X(T))^T q(T),

where all coefficient gradients are evaluated along the batch's
(X, Y, Z, u).  The sigma_x k term contracts over noise columns:
sum_j (sigma^j_x)^T k^j, the dimensionally consistent reading.

The maximum condition tests the Hamiltonian's control gradient
H_u = b_u^T p - q f_u + sum_j (sigma^j_u)^T k^j, taken in closed form
from the control gradients the problem derives from its expressions.
Its residual, the minimum over the control box of the path mean of
<H_u, u - u_bar>, is linear in u and so is taken at a corner: on each
axis the end whose offset has the smaller product with mean H_u, the
lower end on a tie.

(p, k) project with the regressions the backward pass fitted at each
step (`BackwardSolution.regressions`), building each step's design at
its state row (none on a constant row); the martingale integrand k is
regressed from the centered increment (p_{i+1} - E_hat[p_{i+1}]) dW,
which removes the O(1/sqrt(M dt)) noise of the raw product estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ProblemError


@dataclass
class AdjointTriple:
    """Discrete adjoint processes along a batch.

    p has shape (M, N+1, n), q (M, N+1), k (M, N, n, d).  q[:, 0] = 1 and
    p[:, N] = -phi_x(X_N)^T q_N by construction.  The solvers store
    path-major views of time-major (N+1, M, n), (N+1, M) and (N, M, n, d)
    buffers; readers index `field.swapaxes(0, 1)[i]`, which works on plain
    path-major arrays too.  q is read-only, and may be a broadcast of one
    path's row, stride 0 along the paths (`solve_q`, `_distinct_paths`).
    """

    grid: object
    p: np.ndarray
    q: np.ndarray
    k: np.ndarray


def _gradient_args(batch, backward, i, rows=slice(None)):
    """(s, x, y, z) along the batch's `rows` at step i < N."""
    return (
        batch.grid.times[i],
        batch.states.swapaxes(0, 1)[i, rows],
        backward.y.swapaxes(0, 1)[i, rows],
        backward.z.swapaxes(0, 1)[i, rows],
    )


def _q_is_one_curve(spec):
    """True when q is the same on every path: f_y reads no x, y or z and f_z
    is identically 0, so dq = f_y q ds is an ODE in s alone."""
    return "driver_z" in spec.zero_gradients and not {"x", "y", "z"} & {
        v[0] for v in spec.f_y_variables
    }


def solve_q(spec, batch, backward):
    """Forward Euler for dq = f_y q ds + f_z q dW from q(t) = 1.

    Uses the batch's stored Brownian increments, and skips the f_z dW
    term where f_z is identically 0 (`spec.zero_gradients`): it would
    only add +-0.0 to each row.  Nonpositive values (the stochastic
    exponential should stay positive for bounded f_y, f_z) are returned
    as they are, never clipped; the CLI's adjoint stage counts the paths
    that reach them.

    The steps run in order on the calling thread, so the error raised is
    the first failing step's: within a step an evaluator's error comes
    before "non-finite q at step i".

    When f_y reads no path variable (x, y, z) and f_z is identically 0,
    q is one deterministic curve: the same step runs on path 0 alone, and
    the result is the read-only (M, N+1) broadcast of that one row
    (stride 0 along the paths; `_distinct_paths`), with the bits of the
    loop over every path.
    """
    m = batch.n_paths
    n_steps = batch.grid.steps
    dt = batch.grid.dt
    u = batch.control
    rows = 1 if _q_is_one_curve(spec) else m
    dw = batch.increments.swapaxes(0, 1)
    q = np.empty((n_steps + 1, rows))
    q[0] = 1.0
    noise = np.empty(rows)
    with_fz = "driver_z" not in spec.zero_gradients
    for i in range(n_steps):
        s, x, y, z = _gradient_args(batch, backward, i, slice(rows))
        # q_{i+1} = q_i ((1 + f_y dt) + f_z . dW), built in its own row
        out = q[i + 1]
        np.multiply(spec.driver_y(s, x, y, z, u), dt, out=out)
        out += 1.0
        if with_fz:
            fz = spec.driver_z(s, x, y, z, u)
            out += np.einsum("md,md->m", fz, dw[i], out=noise)
        out *= q[i]
        if not np.all(np.isfinite(out)):
            raise ProblemError(f"non-finite q at step {i + 1}")
    return np.broadcast_to(q, (n_steps + 1, m)).swapaxes(0, 1)


def _distinct_paths(q):
    """solve_q's (M, N+1) q with the number of paths each of its rows
    stands for: its first path alone, for all M, when q is one row
    broadcast over the paths (stride 0), else q itself, one each."""
    return (q[:1], q.shape[0]) if q.strides[0] == 0 else (q, 1)


def solve_pk(spec, batch, backward, q):
    """Regression solve for (p, k) with the backward pass's projections.

    q is solve_q's (M, N+1) result; p (M, N+1, n) and k (M, N, n, d)
    are returned as path-major views of time-major buffers.  Each step
    builds its regression's (P, M) design at its own state row, and none
    on a constant row.
    """
    m = batch.n_paths
    n_steps = batch.grid.steps
    dt = batch.grid.dt
    n, d = spec.n, spec.d
    states = batch.states.swapaxes(0, 1)
    dw = batch.increments.swapaxes(0, 1)
    q = q.swapaxes(0, 1)  # (N+1, M) from here on

    p = np.empty((n_steps + 1, m, n))
    k = np.empty((n_steps, m, n, d))
    phix = spec.terminal_x(states[n_steps])
    p[n_steps] = -phix * q[n_steps][:, None]
    scratch = np.empty((m, n))
    u = batch.control

    for i in range(n_steps - 1, -1, -1):
        reg = backward.regressions[i]
        design = reg.basis(states[i])
        cont = reg.fit(p[i + 1], design)  # (M, n)
        # k's targets are built in k[i], from the centered value in p[i]
        centered = np.subtract(p[i + 1], cont, out=p[i])
        np.multiply(centered[:, :, None], dw[i][:, None, :], out=k[i])
        fit = reg.fit(k[i].reshape(m, n * d), design)
        np.divide(fit.reshape(m, n, d), dt, out=k[i])

        s, x, y, z = _gradient_args(batch, backward, i)
        bx = spec.drift_x(s, x, u)  # (M, n, n)
        fx = spec.driver_x(s, x, y, z, u)  # (M, n)
        sx = spec.diffusion_x(s, x, u)  # (M, n, d, n)
        # p_i = cont + ((b_x^T cont - f_x q) + sigma_x k) dt, in p[i]
        np.einsum("mab,ma->mb", bx, cont, out=p[i])
        p[i] -= np.multiply(fx, q[i][:, None], out=scratch)
        p[i] += np.einsum("majb,maj->mb", sx, k[i], out=scratch)
        p[i] *= dt
        p[i] += cont
        if not np.all(np.isfinite(p[i])):
            raise ProblemError(f"non-finite p at step {i}")
    return p.swapaxes(0, 1), k.swapaxes(0, 1)


def solve_adjoint(spec, batch, backward):
    """Convenience wrapper: q then (p, k), packed into an AdjointTriple."""
    q = solve_q(spec, batch, backward)
    p, k = solve_pk(spec, batch, backward, q)
    return AdjointTriple(grid=batch.grid, p=p, q=q, k=k)


def hamiltonian_gradient_u(spec, t, x, y, z, u, p, q, k):
    """dH/du = b_u^T p - q f_u + sum_j (sigma_u^j)^T k^j along a batch.

    The q f_u and sigma_u k terms are skipped when their control gradient
    is identically zero (`spec.zero_gradients`): each is then an exact
    0 times finite values, so only the sign of a zero entry can differ.
    """
    hu = np.einsum("mal,ma->ml", spec.drift_u(t, x, u), p)
    scratch = None
    if "driver_u" not in spec.zero_gradients:
        scratch = q[:, None] * spec.driver_u(t, x, y, z, u)
        hu -= scratch
    if "diffusion_u" not in spec.zero_gradients:
        hu += np.einsum("majl,maj->ml", spec.diffusion_u(t, x, u), k, out=scratch)
    return hu


@dataclass
class MaxConditionReport:
    """Worst variational-inequality residual per step over the control box.

    residuals[i] = min over u in the box of the path average of
    <H_u(t_i), u - u_bar>, taken at the corner whose end on each axis has
    the smaller product with mean H_u (the lower end on a tie);
    nonnegative residuals (up to tolerance plus Monte Carlo allowance) are
    consistent with optimality of the control u_bar the batch was
    simulated under.
    """

    residuals: np.ndarray
    stderrs: np.ndarray
    worst: float
    passed: bool


# the residual a step may fall below 0 by, before its Monte Carlo allowance
_TOL_MC = 1e-2


def check_maximum_condition(spec, batch, backward, triple):
    """Evaluate min over the control box of the path mean of <H_u, u - u_bar>.

    The path mean is linear in u, so its minimum over the box is attained
    at a corner: on each axis the end whose offset from u_bar has the
    smaller product with mean H_u, the lower end on a tie.  The per-step
    pass allowance is _TOL_MC plus four standard errors of that corner's
    path average, so Monte Carlo noise does not trigger false failures.

    The steps run in order on the calling thread, so the earliest failing
    step's error is raised.
    """
    lo = spec.control_lo - batch.control
    hi = spec.control_hi - batch.control
    n_steps = batch.grid.steps

    residuals = np.empty(n_steps)
    stderrs = np.empty(n_steps)
    u_bar = batch.control
    p, q, k = (a.swapaxes(0, 1) for a in (triple.p, triple.q, triple.k))

    for i in range(n_steps):
        s, x, y, z = _gradient_args(batch, backward, i)
        hu = hamiltonian_gradient_u(spec, s, x, y, z, u_bar, p[i], q[i], k[i])
        mean = hu.mean(axis=0)
        inner = np.dot(hu, np.where(hi * mean < lo * mean, hi, lo))
        residuals[i] = inner.mean()
        stderrs[i] = inner.std() / np.sqrt(batch.n_paths)
    allowance = _TOL_MC + 4.0 * stderrs
    passed = bool(np.all(residuals >= -allowance))
    return MaxConditionReport(
        residuals=residuals,
        stderrs=stderrs,
        worst=float(residuals.min()),
        passed=passed,
    )


def adjoint_csv(triple, report, path):
    """Per-step CSV of (t, mean p, mean q, mean |k|, worst residual);
    mean_p is the signed path mean of p's first component when n > 1."""
    times = triple.grid.times.tolist()
    # path means of time-major rows
    pm = triple.p.swapaxes(0, 1)[:, :, 0].mean(axis=1).tolist()
    qm = triple.q.swapaxes(0, 1).mean(axis=1).tolist()
    nan = [float("nan")]  # pads the per-step columns to the N+1 nodes
    # one (M,) norm per time row of k; the Frobenius norm of a 1 x 1 k is
    # |k| bit for bit unless k*k underflows
    scalar = triple.k.shape[-2:] == (1, 1)
    kn = [
        float((np.abs(ki[:, 0, 0]) if scalar else np.linalg.norm(ki, axis=(-2, -1))).mean())
        for ki in triple.k.swapaxes(0, 1)
    ] + nan
    res = report.residuals.tolist() + nan
    with open(path, "w") as fh:
        fh.write("t,mean_p,mean_q,mean_abs_k,worst_residual\n")
        for row in zip(times, pm, qm, kn, res):
            fh.write(",".join(map(repr, row)) + "\n")
