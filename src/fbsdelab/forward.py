"""Forward simulation of the controlled state equation.

Paths follow Euler-Maruyama on a uniform grid,

    X_{i+1} = X_i + b(t_i, X_i, u) dt + sigma(t_i, X_i, u) dW_i,

under one constant control u, checked against the control box before the
first step.  Brownian increments come from counter-based streams, one
per block of `_BLOCK` paths (Philox keyed by (seed, block index)), so
batches are bit-reproducible, a batch is a prefix of any larger batch
with the same seed, and results do not depend on worker count or on
chunking at block boundaries.

Work that is independent across paths runs on every usable core: the
increments, the Euler loop and the adjoint's q recursion are split into
path slabs cut at block boundaries, one per worker, each running its
whole time loop.  Every element is computed by the same operations on the
same inputs whatever the split, so every result is bit-identical at any
worker count, and a failure raises the error the serial loop would: the
earliest failing step, rerun on all paths, so that within a step an
evaluator's error comes before a non-finite result and the lowest path
is reported.

Monte Carlo arrays are stored time-major, (N+1, M, ...), so every
per-step access reads one contiguous row; here and in the backward and
adjoint solvers the path-major fields, (M, N+1, ...), are zero-copy
`swapaxes(0, 1)` views of those buffers, and code that loops over steps
indexes `field.swapaxes(0, 1)[i]`.
"""

from __future__ import annotations

import os
import threading
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
    of this one and splitting the paths at block boundaries changes
    nothing.
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
# threads the Monte Carlo kernels split their work across: the usable cores
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _slabs(n_paths):
    """(start, stop) path ranges, one per worker (at most one per block),
    cut at block boundaries."""
    blocks = -(-n_paths // _BLOCK)
    w = min(_WORKERS, blocks)
    cuts = [min(blocks * j // w * _BLOCK, n_paths) for j in range(w + 1)]
    return list(zip(cuts, cuts[1:]))


def _run_parts(fn, parts):
    """[fn(part) for part in parts], the first part on the calling thread
    and the others on threads started and joined inside the call, each
    under the caller's numpy error state (a thread does not inherit it).

    An exception that escapes `fn` is raised here once every thread has
    finished; the kernels return their expected failures instead.
    """
    results = [None] * len(parts)
    escaped = []
    errstate = np.geterr()

    def run(j):
        try:
            with np.errstate(**errstate):
                results[j] = fn(parts[j])
        except BaseException as exc:  # re-raised on the calling thread
            escaped.append(exc)

    threads = [threading.Thread(target=run, args=(j,)) for j in range(1, len(parts))]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if escaped:
        raise escaped[0]
    return results


def _run_steps(step, n_steps, n_paths):
    """step(i, lo, hi) for every step i < n_steps, each path slab
    [lo, hi) of `_slabs` running every step in order on its own worker.

    A slab stops at its first failing step.  The earliest failing step is
    then rerun on all paths, which raises the error the serial loop raises.
    """

    def run(slab):
        for i in range(n_steps):
            try:
                step(i, *slab)
            except Exception as exc:
                return i, exc
        return None

    failed = [r for r in _run_parts(run, _slabs(n_paths)) if r is not None]
    if failed:
        i, exc = min(failed, key=lambda r: r[0])
        step(i, 0, n_paths)  # raises what the serial loop raised
        raise exc


def generate_increments(grid, n_paths, d, seed):
    """Gaussian increments of shape (n_paths, N, d), variance dt each.

    Block b, the `_BLOCK` paths from path `_BLOCK` b on (fewer in the
    last block), draws from one counter-based stream,
    `Philox(key=[seed, b])`, and path j of the block takes the j-th run
    of N d standard normals in it (step by step, each step's d noise
    columns together).  So a batch is a prefix of any
    larger batch with the same seed, and results do not depend on
    worker count or on chunking at block boundaries.  Each block is
    drawn path-major into a scratch buffer by one call and written,
    scaled by sqrt(dt), into the time-major (N, n_paths, d) buffer, of
    which the result is a view.  The blocks are split into contiguous
    ranges, one per worker (`_slabs`), each with its own scratch buffer.
    """
    if n_paths < 1:
        raise SimulationError("n_paths must be >= 1")
    n = grid.steps
    out = np.empty((n, n_paths, d))
    sqrt_dt = np.sqrt(grid.dt)

    def draw(slab):
        lo, hi = slab
        scratch = np.empty((min(_BLOCK, hi - lo), n, d))
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            block = scratch[: stop - start]
            key = np.array([seed & (2**64 - 1), start // _BLOCK], dtype=np.uint64)
            np.random.Generator(np.random.Philox(key=key)).standard_normal(out=block)
            np.multiply(block.swapaxes(0, 1), sqrt_dt, out=out[:, start:stop])

    _run_parts(draw, _slabs(n_paths))
    return out.swapaxes(0, 1)


def simulate_forward(spec, control, t, x, grid, n_paths, seed):
    """Simulate the controlled state over a batch of Brownian paths.

    The grid must span [t, spec.horizon] and the (k,) control must lie in
    the control box (ControlBoxError otherwise).  Returns a PathBatch.
    After the increments are drawn, each path slab (`_slabs`) runs the
    whole Euler loop on its own worker; the states are bit-identical at
    any worker count.  The first failure is the serial loop's: at the
    earliest step where any slab fails, the step is rerun on all paths,
    so an evaluator's error (DomainError) comes before a non-finite
    state, and NonFiniteStateError names the lowest path that left the
    finite range at that step.
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
    noise = np.empty((n_paths, spec.n))  # each slab writes its own rows

    def step(i, lo, hi):
        xi, out = states[i, lo:hi], states[i + 1, lo:hi]
        # overflow is reported below as the first non-finite state; the
        # row is built in place as (xi + b dt) + sigma dW
        with np.errstate(over="ignore", invalid="ignore"):
            b = spec.drift(times[i], xi, control)
            sg = spec.diffusion(times[i], xi, control)
            np.multiply(b, dt, out=out)
            out += xi
            out += np.einsum("mnd,md->mn", sg, dw_t[i, lo:hi], out=noise[lo:hi])
        if not np.all(np.isfinite(out)):
            bad = np.argwhere(~np.isfinite(out))
            raise NonFiniteStateError(lo + int(bad[0, 0]), i + 1)

    _run_steps(step, grid.steps, n_paths)
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
