"""Least-squares Monte Carlo solver for the controlled backward equation.

Given a simulated PathBatch, the pair (Y, Z) of

    -dY = f(s, X, Y, Z, u) ds - Z dW,   Y(T) = phi(X(T)),

is approximated by backward recursion with empirical conditional
expectations: at each step the projection E_hat[. | X_i] is least-squares
regression onto global polynomials in the state of total degree p_deg
(ridge-regularized), with

    Z_i = E_hat[Y_{i+1} dW_i | X_i] / dt,
    Y_i = E_hat[Y_{i+1} | X_i] + f(t_i, X_i, Y_reg, Z_i, u) dt,

where the driver consumes the regressed continuation value (explicit
scheme).  Passing n_picard > 0 re-evaluates the driver at the updated Y
that many times (implicit refinement).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .problem import ProblemError


class RegressionError(ProblemError):
    """Normal equations too ill-conditioned to trust; reports the step."""

    def __init__(self, step, condition, threshold):
        self.step = step
        self.condition = condition
        super().__init__(
            f"regression at step {step} has condition estimate "
            f"{condition:.3e} > {threshold:.3e}"
        )


_RIDGE_SCALE = 1e-8
_COND_THRESHOLD = 1e12


def _monomials(n, degree):
    """Monomials of total degree <= degree, constant first, each a sorted
    tuple of coordinates: (0, 0, 1) is t_0^2 t_1.  Dropping a monomial's
    last coordinate gives one listed before it."""
    return [
        combo
        for total in range(degree + 1)
        for combo in itertools.combinations_with_replacement(range(n), total)
    ]


class _StepRegression:
    """Ridge-regularized polynomial projection onto functions of X_i.

    States are standardized coordinate-wise before taking powers; that
    spans the same polynomial space but keeps the Gram matrix tame.  Each
    design column is one multiply of a lower-degree column by a single
    standardized coordinate (for n = 1: 1, t, t*t, (t*t)*t), so a column
    of degree j carries j - 1 roundings and no `pow`.  The
    normal equations are solved for each monomial column divided by its
    root mean square `scale` (a zero column by 1), so the ridge term (1e-8
    times the trace of that scaled Gram matrix) weighs every column alike
    and shrinks a fit by about 1e-8 times the basis size whatever the
    states' spread; it makes degenerate designs -- e.g. a deterministic
    state column -- fall back to the plain mean.  The scaling acts on the
    (P, P) system only.  `basis` rebuilds the (M, P) `design` bit for bit,
    so a kept projection may drop it.
    """

    def __init__(self, x, degree):
        x = np.asarray(x, dtype=float)
        self.degree = degree
        self.mu = x.mean(axis=0)
        sd = x.std(axis=0)
        self.sd = np.where(sd > 1e-300, sd, 1.0)
        self.design = self.basis(x)
        gram = self.design.T @ self.design
        rms = np.sqrt(np.diag(gram) / x.shape[0])
        self.scale = np.where(rms > 0.0, rms, 1.0)
        gram = gram / np.outer(self.scale, self.scale)
        lam = _RIDGE_SCALE * np.trace(gram)
        gram = gram + lam * np.eye(gram.shape[0])
        self.condition = float(np.linalg.cond(gram))
        self.chol = np.linalg.cholesky(gram)

    def basis(self, x):
        """Standardized monomials of the states x: the (M, P) design."""
        t = (x - self.mu) / self.sd
        monomials = _monomials(x.shape[1], self.degree)
        design = np.empty((x.shape[0], len(monomials)))
        design[:, 0] = 1.0
        column = {(): 0}
        for j, combo in enumerate(monomials[1:], 1):
            lower = design[:, column[combo[:-1]]]
            np.multiply(lower, t[:, combo[-1]], out=design[:, j])
            column[combo] = j
        return design

    def fit(self, targets, design=None):
        """Fitted values at the design points; targets (M,) or (M, q)."""
        design = self.design if design is None else design
        scale = self.scale.reshape(self.scale.shape + (1,) * (np.ndim(targets) - 1))
        rhs = design.T @ targets / scale
        coef = np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, rhs))
        return design @ (coef / scale)


@dataclass
class BackwardSolution:
    """Discrete (Y, Z) processes along a batch, plus diagnostics.

    y and z are path-major views of time-major (N+1, M) and (N, M, d)
    buffers, like the batch's states.
    """

    grid: object
    y: np.ndarray  # (M, N+1)
    z: np.ndarray  # (M, N, d)
    conditions: np.ndarray  # per-step condition estimate of the Gram matrix
    pathwise_value: np.ndarray  # (M,) terminal + summed driver, for bootstraps
    # (N,) step i's _StepRegression (mu, sd, scale, Cholesky factor, condition)
    # with its design dropped; the adjoint pass projects with the same ones
    regressions: list


def solve_backward(spec, batch, p_deg, n_picard=0, cond_threshold=_COND_THRESHOLD):
    """Solve the backward equation along a batch by regression.

    Parameters
    ----------
    spec : the problem the batch was simulated from.
    batch : PathBatch from `simulate_forward`; the driver is evaluated at
        the control it carries.
    p_deg : total polynomial degree of the regression basis (>= 0).
    n_picard : extra driver passes at the updated Y (0 = explicit scheme).
    cond_threshold : raise RegressionError above this condition estimate.

    Returns a BackwardSolution with Y[:, N] = phi(X[:, N]) exactly.
    """
    if p_deg < 0:
        raise ProblemError("p_deg must be >= 0")
    x = batch.states.swapaxes(0, 1)
    dw = batch.increments.swapaxes(0, 1)
    m, n_steps = batch.n_paths, batch.grid.steps
    times = batch.grid.times
    dt = batch.grid.dt

    y = np.empty((n_steps + 1, m))
    z = np.empty((n_steps, m, spec.d))
    conditions = np.empty(n_steps)
    regressions = [None] * n_steps
    y[n_steps] = spec.terminal(x[n_steps])
    driver_sum = np.zeros(m)
    u = np.broadcast_to(batch.control, (m, spec.k))

    for i in range(n_steps - 1, -1, -1):
        reg = _StepRegression(x[i], p_deg)
        conditions[i] = reg.condition
        if reg.condition > cond_threshold:
            raise RegressionError(i, reg.condition, cond_threshold)
        z[i] = reg.fit(y[i + 1][:, None] * dw[i]) / dt
        cont = reg.fit(y[i + 1])
        fval = spec.driver(times[i], x[i], cont, z[i], u)
        ycur = cont + fval * dt
        for _ in range(n_picard):
            fval = spec.driver(times[i], x[i], ycur, z[i], u)
            ycur = cont + fval * dt
        y[i] = ycur
        driver_sum += fval * dt
        reg.design = None  # (M, P) per step is too much to keep
        regressions[i] = reg

    # deterministic start: the time-t conditional expectation is a constant
    if np.ptp(x[0], axis=0).max() == 0.0:
        y[0] = y[0].mean()

    return BackwardSolution(
        grid=batch.grid,
        y=y.swapaxes(0, 1),
        z=z.swapaxes(0, 1),
        conditions=conditions,
        pathwise_value=y[n_steps] + driver_sum,
        regressions=regressions,
    )


@dataclass
class CostReport:
    """Recursive cost J = -Y(t) with a bootstrap standard error."""

    j: float
    stderr: float
    n_paths: int
    steps: int
    seed: int

    def to_json(self):
        return json.dumps(
            {
                "J": self.j,
                "stderr": self.stderr,
                "M": self.n_paths,
                "N": self.steps,
                "seed": self.seed,
            },
            sort_keys=True,
        )

    @classmethod
    def of(cls, sol, seed):
        """J(t, x; u) = -Y(t) of a backward solution, with a path-resampling
        standard error.

        The bootstrap resamples the pathwise accumulant (terminal value plus
        summed driver) whose mean equals the reported Y(t) up to the ridge
        regularization, keeping regression surfaces frozen.
        """
        return cls(
            j=float(-sol.y[0, 0]),
            stderr=_bootstrap_stderr(sol.pathwise_value, seed),
            n_paths=sol.pathwise_value.shape[0],
            steps=sol.grid.steps,
            seed=seed,
        )


_N_BOOTSTRAP = 64


def _bootstrap_stderr(values, seed):
    m = values.shape[0]
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed & (2**64 - 1), 2**63 + 1], dtype=np.uint64))
    )
    means = np.empty(_N_BOOTSTRAP)
    for b in range(_N_BOOTSTRAP):
        idx = rng.integers(0, m, size=m)
        means[b] = values[idx].mean()
    return float(means.std())


def backward_perturbation_probe(
    spec, control, s, x_base, sizes, k, grid, n_paths, p_deg, seed, n_picard=0
):
    """Moment-bound probe for the backward pair under state perturbations.

    Couples batches from x_base and x_base + h*e1 with common random
    numbers, solves both backward, and fits constants for
    E[sup_r |Y_diff(r)|^{2k}] and E[(int |Z_diff|^2 dr)^k] against h^{2k}.
    Returns a pair of PerturbationReports (Y channel, Z channel).
    """
    from .forward import SimulationError, _check_sizes, _fit_constants, simulate_forward

    if k < 1:
        raise SimulationError("moment order k must be >= 1")
    sizes = _check_sizes(sizes)
    x_base = np.atleast_1d(np.asarray(x_base, dtype=float))
    base_batch = simulate_forward(spec, control, s, x_base, grid, n_paths, seed)
    base_sol = solve_backward(spec, base_batch, p_deg, n_picard=n_picard)
    dt = grid.dt
    y_moments, z_moments = [], []
    for h in sizes:
        shifted = x_base.copy()
        shifted[0] += h
        pert_batch = simulate_forward(spec, control, s, shifted, grid, n_paths, seed)
        pert_sol = solve_backward(spec, pert_batch, p_deg, n_picard=n_picard)
        ydiff = np.abs(pert_sol.y - base_sol.y)
        y_moments.append(float(np.mean(ydiff.max(axis=1) ** (2 * k))))
        zdiff = np.linalg.norm(pert_sol.z - base_sol.z, axis=-1)
        z_int = (zdiff**2).sum(axis=1) * dt
        z_moments.append(float(np.mean(z_int**k)))
    return (
        _fit_constants("Y", 2 * k, sizes, y_moments, seed),
        _fit_constants("Z", 2 * k, sizes, z_moments, seed),
    )


def backward_csv(sol, path):
    """Per-step CSV of (t, mean Y, std Y, mean |Z|, regression condition);
    the two per-step columns read NaN on the terminal row."""
    times = sol.grid.times.tolist()
    z = sol.z.swapaxes(0, 1)  # (N, M, d)
    # sqrt(z*z) == |z| in binary64 unless z*z underflows
    zn = np.abs(z[:, :, 0]) if z.shape[-1] == 1 else np.linalg.norm(z, axis=-1)
    nan = float("nan")
    with open(path, "w") as fh:
        fh.write("t,mean_y,std_y,mean_abs_z,condition\n")
        for i, (t, y) in enumerate(zip(times, sol.y.swapaxes(0, 1))):
            last = i == zn.shape[0]
            zcol = nan if last else float(zn[i].mean())
            cond = nan if last else float(sol.conditions[i])
            fh.write(
                f"{t!r},{float(y.mean())!r},{float(y.std())!r},{zcol!r},{cond!r}\n"
            )
