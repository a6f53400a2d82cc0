"""Forward simulation of the controlled state equation.

Paths follow Euler-Maruyama on a uniform grid,

    X_{i+1} = X_i + b(t_i, X_i, u) dt + sigma(t_i, X_i, u) dW_i,

under one constant control u, checked against the control box before the
first step.  Brownian increments come from counter-based streams, one
per block of `_BLOCK` paths (Philox keyed by (seed, block index)), so
batches are bit-reproducible, a batch is a prefix of any larger batch
with the same seed, and results do not depend on chunking at block
boundaries.

The increments, the Euler loop and the adjoint's q recursion run on the
calling thread, one loop over every path per step.  A failure is the
first failing step's, and within that step an evaluator's error comes
before a non-finite result, which names the lowest failing path.

Monte Carlo arrays are stored time-major, (N+1, M, ...), so every
per-step access reads one contiguous row; here and in the backward and
adjoint solvers the path-major fields, (M, N+1, ...), are zero-copy
`swapaxes(0, 1)` views of those buffers, and code that loops over steps
indexes `field.swapaxes(0, 1)[i]`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def times(self):
        """The steps + 1 nodes, computed once and read-only; node `steps`
        lands on `end` exactly."""
        times = np.linspace(self.start, self.end, self.steps + 1)
        times.setflags(write=False)
        return times


@dataclass
class PathBatch:
    """A Monte Carlo batch of forward paths and their increments.

    states has shape (M, N+1, n), increments (M, N, d), and control is
    the (k,) control every path ran under.  states and increments are
    path-major views of time-major (N+1, M, n) and (N, M, d) buffers;
    `states.swapaxes(0, 1)[i]` is step i's contiguous row.  Arrays are
    frozen after construction; regenerating with the same arguments
    reproduces the batch bit-exactly.  The increments are
    `generate_increments`' streams: block b of 1,024 paths comes from the
    one Philox keyed by (seed, b), so a batch of fewer paths is a prefix
    of this one.
    """

    grid: TimeGrid
    states: np.ndarray
    increments: np.ndarray
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


# paths per Philox stream, drawn in one pass through the path-major
# scratch buffer
_BLOCK = 1024


def generate_increments(grid, n_paths, d, seed):
    """Gaussian increments of shape (n_paths, N, d), variance dt each.

    Block b, the `_BLOCK` paths from path `_BLOCK` b on (fewer in the
    last block), draws from one counter-based stream,
    `Philox(key=[seed, b])`, and path j of the block takes the j-th run
    of N d standard normals in it (step by step, each step's d noise
    columns together).  So a batch is a prefix of any larger batch with
    the same seed.  Each block is drawn path-major into one scratch
    buffer by one call and written, scaled by sqrt(dt), into the
    time-major (N, n_paths, d) buffer, of which the result is a view.
    """
    if n_paths < 1:
        raise SimulationError("n_paths must be >= 1")
    n = grid.steps
    out = np.empty((n, n_paths, d))
    sqrt_dt = np.sqrt(grid.dt)
    scratch = np.empty((min(_BLOCK, n_paths), n, d))
    for start in range(0, n_paths, _BLOCK):
        stop = min(start + _BLOCK, n_paths)
        block = scratch[: stop - start]
        key = np.array([seed & (2**64 - 1), start // _BLOCK], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key)).standard_normal(out=block)
        np.multiply(block.swapaxes(0, 1), sqrt_dt, out=out[:, start:stop])
    return out.swapaxes(0, 1)


def simulate_forward(spec, control, t, x, grid, n_paths, seed):
    """Simulate the controlled state over a batch of Brownian paths.

    The grid must span [t, spec.horizon] and the (k,) control must lie in
    the control box (ControlBoxError otherwise).  Returns a PathBatch.
    The Euler loop stops at the first failing step: an evaluator's error
    (DomainError) comes before a non-finite state, and
    NonFiniteStateError names the lowest path that left the finite range
    at that step.
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
    if not spec.control_inside(control):
        raise ControlBoxError(f"control {control} outside the control box")
    dw = generate_increments(grid, n_paths, spec.d, seed)
    dw_t = dw.swapaxes(0, 1)
    times = grid.times
    dt = grid.dt
    states = np.empty((grid.steps + 1, n_paths, spec.n))
    states[0] = x
    noise = np.empty((n_paths, spec.n))
    for i in range(grid.steps):
        xi, out = states[i], states[i + 1]
        # overflow is reported below as the first non-finite state; the
        # row is built in place as (xi + b dt) + sigma dW
        with np.errstate(over="ignore", invalid="ignore"):
            b = spec.drift(times[i], xi, control)
            sg = spec.diffusion(times[i], xi, control)
            np.multiply(b, dt, out=out)
            out += xi
            out += np.einsum("mnd,md->mn", sg, dw_t[i], out=noise)
        if not np.all(np.isfinite(out)):
            bad = np.argwhere(~np.isfinite(out))
            raise NonFiniteStateError(int(bad[0, 0]), i + 1)
    return PathBatch(
        grid=grid,
        states=states.swapaxes(0, 1),
        increments=dw,
        control=control,
        x0=x.copy(),
    )


# --------------------------------------------------------------------------
# Exports
# --------------------------------------------------------------------------


def pathbatch_summary_csv(batch, path):
    """Per-node mean/std of the state's Euclidean norm, |x| for n = 1."""
    times = batch.grid.times.tolist()
    with open(path, "w") as fh:
        fh.write("t,mean_state_norm,std_state_norm\n")
        # one (M,) norm at a time; sqrt(x*x) == |x| in binary64 unless x*x
        # underflows
        for t, states in zip(times, batch.states.swapaxes(0, 1)):
            row = np.abs(states[:, 0]) if batch.n == 1 else np.linalg.norm(states, axis=-1)
            fh.write(f"{t!r},{float(row.mean())!r},{float(row.std())!r}\n")
