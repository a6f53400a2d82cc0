"""Test-only probes of the library: moment bounds under a shifted start,
one implicit HJB step, and example31's closed-form jets.  Imported by the
tests, never collected."""

from dataclasses import dataclass

import numpy as np

from fbsdelab import backward, forward, hjb, problem


@dataclass
class PerturbationReport:
    """Fitted constants C_hat(h) = moment / h^order across sizes h.

    Stable constants (max/min <= 3) support the moment bound; the fitted
    constant reported is their max, 0 for an identically zero difference.
    """

    channel: str
    order: int
    sizes: list
    moments: list
    constants: list
    fitted_constant: float
    seed: int
    passed: bool


def _report(channel, order, sizes, moments, seed):
    constants = [m / h**order for m, h in zip(moments, sizes)]
    nonzero = [c for c in constants if c > 0.0]
    fitted = max(nonzero, default=0.0)
    passed = not nonzero or fitted / min(nonzero) <= 3.0
    return PerturbationReport(
        channel, order, sizes, moments, constants, fitted, seed, bool(passed)
    )


def _coupled(spec, control, s, x_base, sizes, k, grid, n_paths, seed, solve):
    """Checked sizes, and a generator of (base, shifted) pairs of
    solve(batch): the base from x_base, simulated once, and one shifted
    batch from x_base + h e1 per size h, all on seed's increments."""
    sizes = [float(h) for h in sizes]
    if k < 1:
        raise forward.SimulationError("moment order k must be >= 1")
    if not sizes or any(h <= 0 for h in sizes):
        raise forward.SimulationError("perturbation sizes must be strictly positive")
    if any(nxt >= prev for prev, nxt in zip(sizes, sizes[1:])):
        raise forward.SimulationError("perturbation sizes must be strictly decreasing")
    x_base = np.atleast_1d(np.asarray(x_base, dtype=float))

    def run(x):
        return solve(forward.simulate_forward(spec, control, s, x, grid, n_paths, seed))

    def pairs():
        base = run(x_base)
        for h in sizes:
            shifted = x_base.copy()
            shifted[0] += h
            yield base, run(shifted)

    return sizes, pairs()


def _sup_moment(diff, k):
    """E[sup_r |diff(r)|^{2k}] of (M, N+1) path magnitudes."""
    return float(np.mean(diff.max(axis=1) ** (2 * k)))


def perturbation_moment_probe(spec, control, s, x_base, sizes, k, grid, n_paths, seed):
    """Probe E[sup_r |X^{x+h}(r) - X^x(r)|^{2k}] <= C h^{2k} empirically."""
    sizes, pairs = _coupled(
        spec, control, s, x_base, sizes, k, grid, n_paths, seed, lambda batch: batch
    )
    moments = [
        _sup_moment(np.linalg.norm(pert.states - base.states, axis=-1), k)
        for base, pert in pairs
    ]
    return _report("X", 2 * k, sizes, moments, seed)


def backward_perturbation_probe(
    spec, control, s, x_base, sizes, k, grid, n_paths, p_deg, seed, n_picard=0
):
    """The (Y, Z) reports of E[sup_r |Y_diff(r)|^{2k}] and
    E[(int |Z_diff|^2 dr)^k] against h^{2k}, from solve_backward on the
    coupled batches."""

    def solve(batch):
        return backward.solve_backward(spec, batch, p_deg, n_picard=n_picard)

    sizes, pairs = _coupled(spec, control, s, x_base, sizes, k, grid, n_paths, seed, solve)
    y_moments, z_moments = [], []
    for base, pert in pairs:
        y_moments.append(_sup_moment(np.abs(pert.y - base.y), k))
        zdiff = np.linalg.norm(pert.z - base.z, axis=-1)
        z_moments.append(float(np.mean(((zdiff**2).sum(axis=1) * grid.dt) ** k)))
    return (
        _report("Y", 2 * k, sizes, y_moments, seed),
        _report("Z", 2 * k, sizes, z_moments, seed),
    )


def sweep_step(spec, xs, v, t, dt):
    """One implicit step of a value row from time t to t - dt, its policy
    started from the rows that maximize G at v."""
    return hjb._Sweep(spec, xs, problem.control_grid(spec)).step(v, t, dt)[0]


def example31_jets(s, horizon):
    """(sub-jet, super-jet interval) of example31's V at the optimal state
    x = 0, time s.

    The sub-jet is empty for every s (returned as None); the super-jet
    is the interval [-(T-s)-1, -1], degenerating to {-1} at s = T.
    """
    return None, (-(horizon - s) - 1.0, -1.0)
