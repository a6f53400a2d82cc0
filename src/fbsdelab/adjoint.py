"""Adjoint process triple (p, q, k) along a simulated optimal trajectory.

The scalar multiplier q solves a forward linear SDE driven by the driver
gradients (q(t) = 1), and (p, k) solve the linear backward equation

    -dp = [b_x^T p - f_x^T q + sigma_x k] ds - k dW,
     p(T) = -phi_x(X(T))^T q(T),

where all coefficient gradients are evaluated along the batch's
(X, Y, Z, u).  The sigma_x k term contracts over noise columns:
sum_j (sigma^j_x)^T k^j, the dimensionally consistent reading.

(p, k) project with the regressions the backward pass fitted at each
step (`BackwardSolution.regressions`), rebuilding only the design; the
martingale integrand k is regressed from the centered increment
(p_{i+1} - E_hat[p_{i+1}]) dW, which removes the O(1/sqrt(M dt)) noise
of the raw product estimator.
"""

from __future__ import annotations

import warnings
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
    policy_id: str
    spec_name: str = ""


def _gradient_args(spec, batch, backward, i):
    """(s, x, y, z, u) along the batch at step i."""
    times = batch.grid.times
    x = batch.states[:, i]
    y = backward.y[:, i]
    if i < batch.grid.steps:
        z = backward.z[:, i]
    else:
        z = backward.z[:, -1]  # gradients at T reuse the last stored Z
    u = batch.policy.controls(times[i], x, spec)
    return times[i], x, y, z, u


def solve_q(spec, batch, backward):
    """Forward Euler for dq = f_y q ds + f_z q dW from q(t) = 1.

    Uses the batch's stored Brownian increments.  Emits a warning when q
    takes nonpositive values (the stochastic exponential should stay
    positive for bounded f_y, f_z); values are reported, never clipped.
    """
    m = batch.n_paths
    n_steps = batch.grid.steps
    dt = batch.grid.dt
    q = np.empty((m, n_steps + 1))
    q[:, 0] = 1.0
    for i in range(n_steps):
        s, x, y, z, u = _gradient_args(spec, batch, backward, i)
        fy = spec.driver_y(s, x, y, z, u)
        fz = spec.driver_z(s, x, y, z, u)
        growth = 1.0 + fy * dt + np.einsum("md,md->m", fz, batch.increments[:, i])
        q[:, i + 1] = q[:, i] * growth
        if not np.all(np.isfinite(q[:, i + 1])):
            raise ProblemError(f"non-finite q at step {i + 1}")
    n_bad = int(np.count_nonzero(q.min(axis=1) <= 0.0))
    if n_bad:
        warnings.warn(
            f"q is nonpositive on {n_bad} of {m} paths "
            "(unbounded driver gradients?)",
            RuntimeWarning,
            stacklevel=2,
        )
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

    for i in range(n_steps - 1, -1, -1):
        reg = backward.regressions[i]
        design = reg.basis(batch.states[:, i])
        cont = reg.fit(p[:, i + 1], design)  # (M, n)
        centered = p[:, i + 1] - cont
        targets = centered[:, :, None] * batch.increments[:, i][:, None, :]
        k[:, i] = reg.fit(targets.reshape(m, n * d), design).reshape(m, n, d) / dt

        s, x, y, z, u = _gradient_args(spec, batch, backward, i)
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
    return AdjointTriple(
        grid=batch.grid,
        p=p,
        q=q,
        k=k,
        policy_id=batch.policy_id,
        spec_name=spec.name,
    )


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


_H_U_STEP = 1e-5


def hamiltonian_gradient_u(spec, t, x, y, z, u, p, q, k):
    """dH/du by central differences, one-sided at control-box faces."""
    m = x.shape[0]
    grad = np.empty((m, spec.k))
    for j in range(spec.k):
        h = _H_U_STEP * (1.0 + np.abs(u[:, j]))
        up = u.copy()
        dn = u.copy()
        up[:, j] = np.minimum(u[:, j] + h, spec.control_hi[j])
        dn[:, j] = np.maximum(u[:, j] - h, spec.control_lo[j])
        width = up[:, j] - dn[:, j]
        if np.any(width <= 0):
            # degenerate box axis: the Hamiltonian cannot vary along it
            grad[:, j] = 0.0
            continue
        # the probes are clamped to the box, so hamiltonian's check passes
        hp = hamiltonian(spec, t, x, y, z, up, p, q, k)
        hd = hamiltonian(spec, t, x, y, z, dn, p, q, k)
        grad[:, j] = (hp - hd) / width
    return grad


@dataclass
class MaxConditionReport:
    """Worst variational-inequality residual per step over a control grid.

    residuals[i] = min over grid controls u of the path average of
    <H_u(t_i), u - u_bar(t_i)>; nonnegative residuals (up to tolerance
    plus Monte Carlo allowance) are consistent with optimality of the
    control the batch was simulated under.
    """

    times: np.ndarray
    residuals: np.ndarray
    stderrs: np.ndarray
    tol: float
    worst: float
    passed: bool


def check_maximum_condition(
    spec, batch, backward, triple, control_grid_size=11, tol_mc=1e-2
):
    """Evaluate <H_u, u - u_bar> >= 0 over a uniform control grid.

    The per-step pass allowance is tol_mc plus four standard errors of
    the minimizing grid point's path average, so Monte Carlo noise does
    not trigger false failures.
    """
    grid_controls = control_grid(spec, control_grid_size)  # (G, k)
    n_steps = batch.grid.steps
    times = batch.grid.times

    residuals = np.empty(n_steps)
    stderrs = np.empty(n_steps)
    for i in range(n_steps):
        s, x, y, z, u_bar = _gradient_args(spec, batch, backward, i)
        hu = hamiltonian_gradient_u(
            spec, s, x, y, z, u_bar, triple.p[:, i], triple.q[:, i], triple.k[:, i]
        )
        # row g: <H_u, u_g - u_bar> on every path; rows reduce contiguously
        inner = np.einsum("mj,gmj->gm", hu, grid_controls[:, None, :] - u_bar)
        means = inner.mean(axis=1)
        best = int(np.argmin(means))  # the first of tied grid points
        residuals[i] = means[best]
        stderrs[i] = inner[best].std() / np.sqrt(batch.n_paths)
    allowance = tol_mc + 4.0 * stderrs
    passed = bool(np.all(residuals >= -allowance))
    return MaxConditionReport(
        times=times[:n_steps],
        residuals=residuals,
        stderrs=stderrs,
        tol=tol_mc,
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
