"""Typed refusals of bad arguments, one case per check, across the modules."""

import dataclasses

import numpy as np
import pytest

from fbsdelab import adjoint as A
from fbsdelab import backward as B
from fbsdelab import cli as C
from fbsdelab import forward as F
from fbsdelab import hjb as H
from fbsdelab import jets as Jt
from fbsdelab import problem as P


def _spec(b="x1 * u1", n=1, lo=0.0):
    return P.spec_from_expressions(
        n, 1, 1, 1.0, [lo], [1.0], [b] * n, ["x1"] * n, "x1 - y", "x1"
    )


def _batch(spec, n_paths=8, steps=4):
    grid = F.TimeGrid(0.0, 1.0, steps)
    return F.simulate_forward(spec, spec.control_lo, 0.0, [0.0], grid, n_paths, 7)


def _coarse_connection():
    # from x = 0 the paths stay at node 0.0 of a grid with dx = 1, larger
    # than every step of the jet ladder
    spec = _spec()
    batch = _batch(spec)
    m, steps = batch.n_paths, batch.grid.steps
    triple = A.AdjointTriple(
        batch.grid,
        p=np.zeros((m, steps + 1, 1)),
        q=np.ones((m, steps + 1)),
        k=np.zeros((m, steps, 1, 1)),
    )
    vgrid = H.ValueGrid(2.0, 4, batch.grid, np.zeros((steps + 1, 5)))
    Jt.verify_connection(spec, batch, triple, vgrid, [0.5])


def _non_finite_p():
    # b_x = 1e200 on states that stay at 0: p grows by 1e200 dt a step
    spec = _spec("1e200 * x1 * u1", lo=1.0)
    batch = _batch(spec)
    sol = B.solve_backward(spec, batch, 1)
    A.solve_pk(spec, batch, sol, A.solve_q(spec, batch, sol))


_CASES = {
    "negative_p_deg": (
        lambda: B.solve_backward(_spec(), _batch(_spec()), -1),
        P.ProblemError, "p_deg must be >= 0",
    ),
    "no_paths": (
        lambda: F.generate_increments(F.TimeGrid(0.0, 1.0, 4), 0, 1, 7),
        F.SimulationError, "n_paths must be >= 1",
    ),
    "x0_length": (
        lambda: F.simulate_forward(
            _spec(), [0.0], 0.0, [0.0, 1.0], F.TimeGrid(0.0, 1.0, 4), 8, 7
        ),
        F.SimulationError, "initial state must have shape \\(1,\\)",
    ),
    "hjb_grid_short_of_T": (
        lambda: H.solve_hjb_fd(_spec(), 2.0, 20, F.TimeGrid(0.0, 0.5, 10)),
        P.ProblemError, "grid must end at the problem horizon",
    ),
    "connection_in_two_dimensions": (
        lambda: Jt.verify_connection(_spec(n=2), None, None, None, [0.5]),
        Jt.JetError, "requires a one-dimensional state",
    ),
    "value_grid_too_coarse": (
        _coarse_connection, Jt.JetError,
        "^value grid too coarse to probe jets at x = 0.0: fewer than two ladder "
        "steps are at least dx = 1.0 and at most 2.0, the distance to the "
        "grid's edge$",
    ),
    "non_finite_p": (_non_finite_p, P.ProblemError, "non-finite p at step 2$"),
    "unknown_stage": (
        lambda: C.ExperimentConfig(builtin="example31", stages=("bogus",)).validate(),
        P.ConfigError, "unknown stage 'bogus'",
    ),
    "zero_n": (
        lambda: dataclasses.replace(_spec(), n=0),
        P.ProblemError, "dimensions n, d, k must all be >= 1",
    ),
    "zero_horizon": (
        lambda: dataclasses.replace(_spec(), horizon=0.0),
        P.ProblemError, "horizon T must be strictly positive",
    ),
    "empty_box": (
        lambda: dataclasses.replace(_spec(), control_lo=np.array([2.0])),
        P.ConfigError, "empty control box: lo\\[0\\] = 2.0 > hi\\[0\\] = 1.0",
    ),
    "drift_entries": (
        lambda: P.spec_from_expressions(
            1, 1, 1, 1.0, [0.0], [1.0], ["x1", "x1"], ["x1"], "y", "x1"
        ),
        P.ConfigError, "expected 1 drift entries b1..b1, got 2",
    ),
    "diffusion_entries": (
        lambda: P.spec_from_expressions(
            1, 2, 1, 1.0, [0.0], [1.0], ["x1"], ["x1"], "y", "x1"
        ),
        P.ConfigError, "expected 2 diffusion entries, got 1",
    ),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_bad_arguments_refused_with_a_typed_error(case):
    call, error, match = _CASES[case]
    with pytest.raises(error, match=match):
        call()
