"""Adjoint process triple (p, q, k) along a simulated optimal trajectory.

The scalar multiplier q solves a forward linear SDE driven by the driver
gradients (q(t) = 1), and (p, k) solve the linear backward equation

    -dp = [b_x^T p - f_x^T q + sigma_x k] ds - k dW,
     p(T) = -phi_x(X(T))^T q(T),

where all coefficient gradients are evaluated along the batch's
(X, Y, Z, u).  The sigma_x k term contracts over noise columns:
sum_j (sigma^j_x)^T k^j, the dimensionally consistent reading.

The maximum condition tests the Hamiltonian's control gradient
H_u = b_u^T p - q f_u + sum_j (sigma^j_u)^T k^j, taken in closed form
from the control gradients the problem derives from its expressions.

(p, k) project with the regressions the backward pass fitted at each
step (`BackwardSolution.regressions`), rebuilding only the design; the
martingale integrand k is regressed from the centered increment
(p_{i+1} - E_hat[p_{i+1}]) dW, which removes the O(1/sqrt(M dt)) noise
of the raw product estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ControlBoxError, ProblemError, control_grid


@dataclass
class AdjointTriple:
    """Discrete adjoint processes along a batch.

    p has shape (M, N+1, n), q (M, N+1), k (M, N, n, d).  q[:, 0] = 1 and
    p[:, N] = -phi_x(X_N)^T q_N by construction.
    """

    grid: object
    p: np.ndarray
    q: np.ndarray
    k: np.ndarray


def _gradient_args(batch, backward, i):
    """(s, x, y, z) along the batch at step i < N."""
    return batch.grid.times[i], batch.states[:, i], backward.y[:, i], backward.z[:, i]


def solve_q(spec, batch, backward):
    """Forward Euler for dq = f_y q ds + f_z q dW from q(t) = 1.

    Uses the batch's stored Brownian increments.  Nonpositive values
    (the stochastic exponential should stay positive for bounded f_y,
    f_z) are returned as they are, never clipped; the CLI's adjoint stage
    counts the paths that reach them.
    """
    m = batch.n_paths
    n_steps = batch.grid.steps
    dt = batch.grid.dt
    q = np.empty((m, n_steps + 1))
    q[:, 0] = 1.0
    u = np.broadcast_to(batch.control, (m, spec.k))
    for i in range(n_steps):
        s, x, y, z = _gradient_args(batch, backward, i)
        fy = spec.driver_y(s, x, y, z, u)
        fz = spec.driver_z(s, x, y, z, u)
        growth = 1.0 + fy * dt + np.einsum("md,md->m", fz, batch.increments[:, i])
        q[:, i + 1] = q[:, i] * growth
        if not np.all(np.isfinite(q[:, i + 1])):
            raise ProblemError(f"non-finite q at step {i + 1}")
    return q


def solve_pk(spec, batch, backward, q):
    """Regression solve for (p, k) with the backward pass's projections."""
    m = batch.n_paths
    n_steps = batch.grid.steps
    dt = batch.grid.dt
    n, d = spec.n, spec.d

    p = np.empty((m, n_steps + 1, n))
    k = np.empty((m, n_steps, n, d))
    phix = spec.terminal_x(batch.states[:, n_steps])
    p[:, n_steps] = -phix * q[:, n_steps][:, None]
    u = np.broadcast_to(batch.control, (m, spec.k))

    for i in range(n_steps - 1, -1, -1):
        reg = backward.regressions[i]
        design = reg.basis(batch.states[:, i])
        cont = reg.fit(p[:, i + 1], design)  # (M, n)
        centered = p[:, i + 1] - cont
        targets = centered[:, :, None] * batch.increments[:, i][:, None, :]
        k[:, i] = reg.fit(targets.reshape(m, n * d), design).reshape(m, n, d) / dt

        s, x, y, z = _gradient_args(batch, backward, i)
        bx = spec.drift_x(s, x, u)  # (M, n, n)
        fx = spec.driver_x(s, x, y, z, u)  # (M, n)
        sx = spec.diffusion_x(s, x, u)  # (M, n, d, n)
        drift_term = (
            np.einsum("mab,ma->mb", bx, cont)
            - fx * q[:, i][:, None]
            + np.einsum("majb,maj->mb", sx, k[:, i])
        )
        p[:, i] = cont + drift_term * dt
        if not np.all(np.isfinite(p[:, i])):
            raise ProblemError(f"non-finite p at step {i}")
    return p, k


def solve_adjoint(spec, batch, backward):
    """Convenience wrapper: q then (p, k), packed into an AdjointTriple."""
    q = solve_q(spec, batch, backward)
    p, k = solve_pk(spec, batch, backward, q)
    return AdjointTriple(grid=batch.grid, p=p, q=q, k=k)


def hamiltonian(spec, t, x, y, z, u, p, q, k):
    """H = <p, b> - q f + tr[sigma^T k] at one point or a batch of points."""
    scalar = np.ndim(x) <= 1 and np.ndim(u) <= 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u2 = np.atleast_2d(np.asarray(u, dtype=float))
    if not spec.control_inside(u2):
        raise ControlBoxError(f"control {u} outside the control box")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    p2 = np.atleast_2d(np.asarray(p, dtype=float))
    q1 = np.atleast_1d(np.asarray(q, dtype=float))
    k2 = np.asarray(k, dtype=float).reshape(-1, spec.n, spec.d)

    b = spec.drift(t, x, u2)
    sg = spec.diffusion(t, x, u2)
    f = spec.driver(t, x, y, z, u2)
    val = (
        np.einsum("ma,ma->m", p2, b)
        - q1 * f
        + np.einsum("mad,mad->m", sg, k2)
    )
    return float(val[0]) if scalar else val


def hamiltonian_gradient_u(spec, t, x, y, z, u, p, q, k):
    """dH/du = b_u^T p - q f_u + sum_j (sigma_u^j)^T k^j along a batch."""
    return (
        np.einsum("mal,ma->ml", spec.drift_u(t, x, u), p)
        - q[:, None] * spec.driver_u(t, x, y, z, u)
        + np.einsum("majl,maj->ml", spec.diffusion_u(t, x, u), k)
    )


@dataclass
class MaxConditionReport:
    """Worst variational-inequality residual per step over a control grid.

    residuals[i] = min over grid controls u of the path average of
    <H_u(t_i), u - u_bar>; nonnegative residuals (up to tolerance plus
    Monte Carlo allowance) are consistent with optimality of the control
    u_bar the batch was simulated under.
    """

    times: np.ndarray
    residuals: np.ndarray
    stderrs: np.ndarray
    tol: float
    worst: float
    passed: bool


# the residual a step may fall below 0 by, before its Monte Carlo allowance
_TOL_MC = 1e-2


def check_maximum_condition(spec, batch, backward, triple, control_grid_size=11):
    """Evaluate <H_u, u - u_bar> >= 0 over a uniform control grid.

    The per-step pass allowance is _TOL_MC plus four standard errors of
    the minimizing grid point's path average, so Monte Carlo noise does
    not trigger false failures.
    """
    # (G, k): u_g - u_bar, the same on every path
    offsets = control_grid(spec, control_grid_size) - batch.control
    n_steps = batch.grid.steps
    times = batch.grid.times

    residuals = np.empty(n_steps)
    stderrs = np.empty(n_steps)
    u_bar = np.broadcast_to(batch.control, (batch.n_paths, spec.k))
    for i in range(n_steps):
        s, x, y, z = _gradient_args(batch, backward, i)
        hu = hamiltonian_gradient_u(
            spec, s, x, y, z, u_bar, triple.p[:, i], triple.q[:, i], triple.k[:, i]
        )
        # row g: <H_u, u_g - u_bar> on every path; rows reduce contiguously
        inner = np.einsum("mj,gj->gm", hu, offsets)
        means = inner.mean(axis=1)
        best = int(np.argmin(means))  # the first of tied grid points
        residuals[i] = means[best]
        stderrs[i] = inner[best].std() / np.sqrt(batch.n_paths)
    allowance = _TOL_MC + 4.0 * stderrs
    passed = bool(np.all(residuals >= -allowance))
    return MaxConditionReport(
        times=times[:n_steps],
        residuals=residuals,
        stderrs=stderrs,
        tol=_TOL_MC,
        worst=float(residuals.min()),
        passed=passed,
    )


def adjoint_csv(triple, report, path):
    """Per-step CSV of (t, mean p, mean q, mean |k|, worst residual);
    mean_p is the signed path mean of p's first component when n > 1."""
    times = triple.grid.times.tolist()
    pm = triple.p[:, :, 0].mean(axis=0).tolist()
    qm = triple.q.mean(axis=0).tolist()
    nan = [float("nan")]  # pads the per-step columns to the N+1 nodes
    kn = np.linalg.norm(triple.k, axis=(-2, -1)).mean(axis=0).tolist() + nan
    res = ([] if report is None else report.residuals.tolist()) + nan * len(times)
    with open(path, "w") as fh:
        fh.write("t,mean_p,mean_q,mean_abs_k,worst_residual\n")
        for row in zip(times, pm, qm, kn, res):
            fh.write(",".join(map(repr, row)) + "\n")
