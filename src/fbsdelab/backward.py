"""Least-squares Monte Carlo solver for the controlled backward equation.

Given a simulated PathBatch, the pair (Y, Z) of

    -dY = f(s, X, Y, Z, u) ds - Z dW,   Y(T) = phi(X(T)),

is approximated by backward recursion with empirical conditional
expectations: at each step the projection E_hat[. | X_i] is least-squares
regression onto global polynomials in the state of total degree p_deg
(ridge-regularized), or the plain path mean where X_i holds one state
on every path (the start, or a state absorbed at 0), with

    Z_i = E_hat[Y_{i+1} dW_i | X_i] / dt,
    Y_i = E_hat[Y_{i+1} | X_i] + f(t_i, X_i, Y_reg, Z_i, u) dt,

where the driver consumes the regressed continuation value (explicit
scheme).  Passing n_picard > 0 re-evaluates the driver at the updated Y
that many times (implicit refinement).  A deterministic start gives a
constant Y(t) by construction.  The cost J = -Y(t) comes with the
standard error of the pathwise value's mean, std / sqrt(M).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .problem import ProblemError


# The ridge is this times the trace of the scaled Gram matrix, so the
# ridged matrix's condition number is at most 1 + 1 / _RIDGE_SCALE.
_RIDGE_SCALE = 1e-8


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
    spans the same polynomial space but keeps the Gram matrix tame.  The
    design is stored (P, M), one C-contiguous row per monomial, so the
    Gram matrix is `design @ design.T` and every product runs over rows.
    Each design row is one multiply of a lower-degree row by a single
    standardized coordinate (for n = 1: 1, t, t*t, (t*t)*t), so a row
    of degree j carries j - 1 roundings and no `pow`.  The
    normal equations are solved for each monomial row divided by its
    root mean square `scale` (a zero row by 1), so the ridge term (1e-8
    times the trace of that scaled Gram matrix) weighs every monomial alike
    and shrinks a fit by about 1e-8 times the basis size whatever the
    states' spread.  The scaling acts on the (P, P) system only.  `basis`
    rebuilds the (P, M) `design` bit for bit, so a kept projection may
    drop it.

    A row that holds one state on every path (`constant`) has the path
    mean as its exact conditional expectation: it keeps no design, Gram
    matrix, scale or Cholesky factor, `basis` builds nothing, `fit`
    returns the targets' mean broadcast read-only over the paths, and
    `condition` is 1.0.  The test is exact, one comparison of every path
    with path 0 made before any mean or sd: 0.0 and -0.0 are one state,
    and a path one ulp off spreads the row.
    """

    def __init__(self, x, degree):
        x = np.asarray(x, dtype=float)
        self.degree = degree
        self.constant = bool((x == x[0]).all())
        if self.constant:
            self.design, self.condition = None, 1.0
            return
        self.mu = x.mean(axis=0)
        # each coordinate's sd is taken on the row divided by the power of
        # two above its largest |x|, so the squares cannot overflow; the
        # scaling is exact, and so is the sd wherever x.std does not overflow
        s = np.ldexp(1.0, np.frexp(np.abs(x).max(axis=0))[1])
        sd = (x / s).std(axis=0) * s
        self.sd = np.where(sd > 1e-300, sd, 1.0)
        self.design = self.basis(x)
        gram = self.design @ self.design.T
        rms = np.sqrt(np.diag(gram) / x.shape[0])
        self.scale = np.where(rms > 0.0, rms, 1.0)
        gram = gram / np.outer(self.scale, self.scale)
        lam = _RIDGE_SCALE * np.trace(gram)
        gram = gram + lam * np.eye(gram.shape[0])
        self.condition = float(np.linalg.cond(gram))
        self.chol = np.linalg.cholesky(gram)

    def basis(self, x):
        """Standardized monomials of the (M, n) states x: the (P, M)
        design, one C-contiguous row per monomial; None on a constant row."""
        if self.constant:
            return None
        t = (x - self.mu) / self.sd
        monomials = _monomials(x.shape[1], self.degree)
        design = np.empty((len(monomials), x.shape[0]))
        design[0] = 1.0
        row = {(): 0}
        for j, combo in enumerate(monomials[1:], 1):
            np.multiply(design[row[combo[:-1]]], t[:, combo[-1]], out=design[j])
            row[combo] = j
        return design

    def fit(self, targets, design=None):
        """Fitted values at the design points, (M,) or (M, q) like the
        targets; `design` is a (P, M) `basis`."""
        if self.constant:
            return np.broadcast_to(targets.mean(axis=0), targets.shape)
        design = self.design if design is None else design
        scale = self.scale.reshape(self.scale.shape + (1,) * (np.ndim(targets) - 1))
        rhs = design @ targets / scale
        coef = np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, rhs))
        return ((coef / scale).T @ design).T


@dataclass
class BackwardSolution:
    """Discrete (Y, Z) processes along a batch, plus diagnostics.

    y and z are path-major views of time-major (N+1, M) and (N, M, d)
    buffers, like the batch's states.
    """

    grid: object
    y: np.ndarray  # (M, N+1)
    z: np.ndarray  # (M, N, d)
    # per-step condition estimate of the Gram matrix; 1.0 on a constant row
    conditions: np.ndarray
    pathwise_value: np.ndarray  # (M,) terminal + summed driver; CostReport's stderr
    # (N,) step i's _StepRegression (mu, sd, scale, Cholesky factor, condition)
    # with its design dropped: one object per step; nothing but `constant` and
    # `condition` on a constant row.  The adjoint pass projects with the same ones
    regressions: list


def solve_backward(spec, batch, p_deg, n_picard=0):
    """Solve the backward equation along a batch by regression.

    Parameters
    ----------
    spec : the problem the batch was simulated from.
    batch : PathBatch from `simulate_forward`; the driver is evaluated at
        the control it carries.
    p_deg : total polynomial degree of the regression basis (>= 0).
    n_picard : extra driver passes at the updated Y (0 = explicit scheme).

    Returns a BackwardSolution with Y[:, N] = phi(X[:, N]) exactly.  A
    non-finite Y or Z raises ProblemError naming its step.  Each step
    builds its own regression and drops its design after the step's fits,
    so one (P, M) design is alive at a time.
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
    fdt = np.empty(m)  # f dt of the step's last driver pass
    u = batch.control

    for i in range(n_steps - 1, -1, -1):
        reg = regressions[i] = _StepRegression(x[i], p_deg)
        conditions[i] = reg.condition
        np.multiply(y[i + 1][:, None], dw[i], out=z[i])  # the fit's targets
        np.divide(reg.fit(z[i]), dt, out=z[i])
        cont = reg.fit(y[i + 1])
        reg.design = None  # (P, M) per step is too much to keep
        y_drv = cont  # the driver's y: the regressed value, then y[i]
        for _ in range(n_picard + 1):
            np.multiply(spec.driver(times[i], x[i], y_drv, z[i], u), dt, out=fdt)
            np.add(cont, fdt, out=y[i])
            y_drv = y[i]
        if not (np.isfinite(y[i]).all() and np.isfinite(z[i]).all()):
            raise ProblemError(f"non-finite Y or Z at step {i}")
        driver_sum += fdt

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
    """Recursive cost J = -Y(t) with the standard error of the pathwise
    value's mean, std / sqrt(M)."""

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
        """J(t, x; u) = -Y(t) of a backward solution, with a standard error.

        The pathwise accumulant (terminal value plus summed driver) has a
        mean equal to the reported Y(t) up to the ridge regularization.
        With the regression surfaces frozen, its mean's standard error is
        the population std over sqrt(M): the exact value a path-resampling
        bootstrap estimates.  `seed` is the batch's, recorded with it.
        """
        values = sol.pathwise_value
        return cls(
            j=float(-sol.y[0, 0]),
            stderr=float(values.std() / np.sqrt(values.shape[0])),
            n_paths=values.shape[0],
            steps=sol.grid.steps,
            seed=seed,
        )


def backward_csv(sol, path):
    """Per-step CSV of (t, mean Y, std Y, mean |Z|, regression condition);
    the two per-step columns read NaN on the terminal row."""
    times = sol.grid.times.tolist()
    z = sol.z.swapaxes(0, 1)  # (N, M, d)
    with open(path, "w") as fh:
        fh.write("t,mean_y,std_y,mean_abs_z,condition\n")
        for i, (t, y) in enumerate(zip(times, sol.y.swapaxes(0, 1))):
            zcol = cond = float("nan")
            if i < z.shape[0]:
                # one (M,) norm at a time; sqrt(z*z) == |z| in binary64
                # unless z*z underflows
                zi = z[i]
                zn = np.abs(zi[:, 0]) if zi.shape[-1] == 1 else np.linalg.norm(zi, axis=-1)
                zcol, cond = float(zn.mean()), float(sol.conditions[i])
            fh.write(
                f"{t!r},{float(y.mean())!r},{float(y.std())!r},{zcol!r},{cond!r}\n"
            )
