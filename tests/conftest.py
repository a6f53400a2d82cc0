import time

import numpy as np
import pytest

from fbsdelab import adjoint as adjoint_mod
from fbsdelab import backward as backward_mod
from fbsdelab import forward as forward_mod
from fbsdelab import hjb as hjb_mod
from fbsdelab import problem as problem_mod

ACCEPT_SEED = 4

# wall-clock build times of the shared heavy artifacts, keyed by fixture
# name; the acceptance runtime criteria read these
TIMINGS = {}


@pytest.fixture(scope="session")
def spec31():
    return problem_mod.builtin_problem("example31")


@pytest.fixture(scope="session")
def zero_control():
    return 0.0


@pytest.fixture(scope="session")
def pipeline_optimal(spec31, zero_control):
    """Full optimal-pair pipeline at acceptance sizes (M=50000, N=200)."""
    start = time.perf_counter()
    grid = forward_mod.TimeGrid(0.0, 1.0, 200)
    batch = forward_mod.simulate_forward(
        spec31, zero_control, 0.0, [0.0], grid, 50000, seed=ACCEPT_SEED
    )
    sol = backward_mod.solve_backward(spec31, batch, 3)
    triple = adjoint_mod.solve_adjoint(spec31, batch, sol)
    TIMINGS["pipeline_optimal"] = time.perf_counter() - start
    return {"grid": grid, "batch": batch, "sol": sol, "triple": triple}


@pytest.fixture(scope="session")
def pipeline_suboptimal(spec31, zero_control):
    """Control 0 started from x = 1, where control 1 is strictly better."""
    grid = forward_mod.TimeGrid(0.0, 1.0, 50)
    batch = forward_mod.simulate_forward(
        spec31, zero_control, 0.0, [1.0], grid, 20000, seed=ACCEPT_SEED
    )
    sol = backward_mod.solve_backward(spec31, batch, 3)
    triple = adjoint_mod.solve_adjoint(spec31, batch, sol)
    return {"grid": grid, "batch": batch, "sol": sol, "triple": triple}


@pytest.fixture(scope="session")
def vgrid400(spec31):
    start = time.perf_counter()
    grid = hjb_mod.cfl_time_grid(spec31, 2.0, 400, 11)
    vgrid = hjb_mod.solve_hjb_fd(spec31, 2.0, 400, grid, 11)
    TIMINGS["vgrid400"] = time.perf_counter() - start
    return vgrid


@pytest.fixture(scope="session")
def vgrid100(spec31):
    grid = hjb_mod.cfl_time_grid(spec31, 2.0, 100, 11)
    return hjb_mod.solve_hjb_fd(spec31, 2.0, 100, grid, 11)
