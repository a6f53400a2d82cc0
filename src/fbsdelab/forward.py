"""Forward simulation of the controlled state equation.

Paths follow Euler-Maruyama on a uniform grid,

    X_{i+1} = X_i + b(t_i, X_i, u) dt + sigma(t_i, X_i, u) dW_i,

under one constant control u, checked against the control box before the
first step.  Brownian increments come from per-path counter-based streams
(Philox keyed by (seed, path index)), so batches are bit-reproducible
regardless of how work is split across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ControlBoxError, ProblemError


class SimulationError(ProblemError):
    pass


class NonFiniteStateError(SimulationError):
    """A simulated state left the finite range; reports path and step.

    Under linear-growth coefficients paths cannot blow up, so this
    signals a mis-specified problem rather than bad luck.
    """

    def __init__(self, path, step):
        self.path = path
        self.step = step
        super().__init__(f"non-finite state at path {path}, step {step}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [start, end] with `steps` intervals."""

    start: float
    end: float
    steps: int

    def __post_init__(self):
        if not (0.0 <= self.start < self.end):
            raise SimulationError(f"need 0 <= start < end, got [{self.start}, {self.end}]")
        if self.steps < 1:
            raise SimulationError("steps must be >= 1")

    @property
    def dt(self):
        return (self.end - self.start) / self.steps

    @property
    def times(self):
        # node `steps` lands on `end` exactly
        return np.linspace(self.start, self.end, self.steps + 1)


@dataclass
class PathBatch:
    """A Monte Carlo batch of forward paths and their increments.

    states has shape (M, N+1, n), increments (M, N, d), and control is
    the (k,) control every path ran under.  Arrays are frozen after
    construction; regenerating with the same arguments
    reproduces the batch bit-exactly.
    """

    grid: TimeGrid
    states: np.ndarray
    increments: np.ndarray
    seed: int
    control: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        self.states.setflags(write=False)
        self.increments.setflags(write=False)
        self.control.setflags(write=False)

    @property
    def n_paths(self):
        return self.states.shape[0]

    @property
    def n(self):
        return self.states.shape[2]

    @property
    def d(self):
        return self.increments.shape[2]


def _path_normals(seed, m, shape):
    key = np.array([seed & (2**64 - 1), m], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(shape)


def generate_increments(grid, n_paths, d, seed):
    """Gaussian increments of shape (n_paths, N, d), variance dt each.

    Each path draws from its own counter-based stream keyed by
    (seed, path index), which makes the result independent of worker
    count or path chunking.
    """
    if n_paths < 1:
        raise SimulationError("n_paths must be >= 1")
    n = grid.steps
    out = np.empty((n_paths, n, d))
    for m in range(n_paths):
        out[m] = _path_normals(seed, m, (n, d))
    out *= np.sqrt(grid.dt)
    return out


def simulate_forward(spec, control, t, x, grid, n_paths, seed):
    """Simulate the controlled state over a batch of Brownian paths.

    The grid must span [t, spec.horizon] and the (k,) control must lie in
    the control box (ControlBoxError otherwise).  Returns a PathBatch;
    raises NonFiniteStateError as soon as any path leaves the finite range.
    """
    if abs(grid.start - t) > 1e-12 or abs(grid.end - spec.horizon) > 1e-12:
        raise SimulationError(
            f"grid [{grid.start}, {grid.end}] does not span [t, T] = "
            f"[{t}, {spec.horizon}]"
        )
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (spec.n,):
        raise SimulationError(f"initial state must have shape ({spec.n},)")
    control = np.array(control, dtype=float, ndmin=1)
    if control.shape != (spec.k,):
        raise SimulationError(f"control must have shape ({spec.k},)")
    if not spec.control_inside(control, atol=0.0):
        raise ControlBoxError(f"control {control} outside the control box")
    dw = generate_increments(grid, n_paths, spec.d, seed)
    times = grid.times
    dt = grid.dt
    states = np.empty((n_paths, grid.steps + 1, spec.n))
    states[:, 0] = x
    xi = states[:, 0]
    u = np.broadcast_to(control, (n_paths, spec.k))
    for i in range(grid.steps):
        # overflow is reported below as the first non-finite state
        with np.errstate(over="ignore", invalid="ignore"):
            b = spec.drift(times[i], xi, u)
            sg = spec.diffusion(times[i], xi, u)
            xi = xi + b * dt + np.einsum("mnd,md->mn", sg, dw[:, i])
        if not np.all(np.isfinite(xi)):
            bad = np.argwhere(~np.isfinite(xi))
            raise NonFiniteStateError(int(bad[0, 0]), i + 1)
        states[:, i + 1] = xi
    return PathBatch(
        grid=grid,
        states=states,
        increments=dw,
        seed=seed,
        control=control,
        x0=x.copy(),
    )


@dataclass
class PerturbationReport:
    """Fitted constants of a moment bound across perturbation sizes.

    For each size h the probe couples a base batch and a batch started
    at x + h*e1 with common random numbers, estimates the requested
    moment of the difference process, and fits C_hat(h) = moment / h^2k.
    Stable fitted constants (max/min <= 3 across sizes) support the
    moment bound; the fitted constant reported is the max.
    """

    channel: str
    order: int
    sizes: list
    moments: list
    constants: list
    fitted_constant: float
    seed: int
    passed: bool


_STABILITY_FACTOR = 3.0


def _fit_constants(channel, order, sizes, moments, seed):
    constants = [m / h**order for m, h in zip(moments, sizes)]
    nonzero = [c for c in constants if c > 0.0]
    if not nonzero:
        passed = True  # identically zero difference process
        fitted = 0.0
    else:
        fitted = max(nonzero)
        passed = bool(fitted / min(nonzero) <= _STABILITY_FACTOR)
    return PerturbationReport(
        channel=channel,
        order=order,
        sizes=list(sizes),
        moments=list(moments),
        constants=constants,
        fitted_constant=fitted,
        seed=seed,
        passed=passed,
    )


def _check_sizes(sizes):
    sizes = [float(h) for h in sizes]
    if not sizes or any(h <= 0 for h in sizes):
        raise SimulationError("perturbation sizes must be strictly positive")
    if any(nxt >= prev for prev, nxt in zip(sizes, sizes[1:])):
        raise SimulationError("perturbation sizes must be strictly decreasing")
    return sizes


def perturbation_moment_probe(
    spec, control, s, x_base, sizes, k, grid, n_paths, seed
):
    """Probe E[sup_r |X^{x+h} (r) - X^x(r)|^{2k}] <= C h^{2k} empirically."""
    if k < 1:
        raise SimulationError("moment order k must be >= 1")
    sizes = _check_sizes(sizes)
    x_base = np.atleast_1d(np.asarray(x_base, dtype=float))
    base = simulate_forward(spec, control, s, x_base, grid, n_paths, seed)
    moments = []
    for h in sizes:
        shifted = x_base.copy()
        shifted[0] += h
        pert = simulate_forward(spec, control, s, shifted, grid, n_paths, seed)
        diff = np.linalg.norm(pert.states - base.states, axis=-1)
        sup = diff.max(axis=1)
        moments.append(float(np.mean(sup ** (2 * k))))
    return _fit_constants("X", 2 * k, sizes, moments, seed)


# --------------------------------------------------------------------------
# Exports
# --------------------------------------------------------------------------


def pathbatch_summary_csv(batch, path):
    """Per-node mean/std of the state (first coordinate norm for n > 1)."""
    times = batch.grid.times.tolist()
    norms = np.linalg.norm(batch.states, axis=-1)
    with open(path, "w") as fh:
        fh.write("t,mean_state_norm,std_state_norm\n")
        for t, col in zip(times, norms.T):
            fh.write(f"{t!r},{float(col.mean())!r},{float(col.std())!r}\n")
