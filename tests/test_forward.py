import numpy as np
import pytest

from fbsdelab import forward as F
from fbsdelab import problem as P


def test_grid_nodes_hit_endpoints():
    grid = F.TimeGrid(0.25, 1.0, 3)
    assert grid.times[0] == 0.25
    assert grid.times[-1] == 1.0
    assert grid.dt == pytest.approx(0.25)
    with pytest.raises(F.SimulationError):
        F.TimeGrid(1.0, 1.0, 3)
    with pytest.raises(F.SimulationError):
        F.TimeGrid(0.0, 1.0, 0)


def test_increment_columns_within_clt_bound():
    grid = F.TimeGrid(0.0, 1.0, 100)
    m = 100000
    dw = F.generate_increments(grid, m, 1, seed=11)
    col_means = dw[:, :, 0].mean(axis=0)
    bound = 4.0 * np.sqrt(grid.dt) / np.sqrt(m)
    assert np.all(np.abs(col_means) <= bound)
    col_vars = dw[:, :, 0].var(axis=0)
    assert np.allclose(col_vars, grid.dt, rtol=0.1)


def test_single_increment():
    grid = F.TimeGrid(0.0, 1.0, 1)
    dw = F.generate_increments(grid, 1, 1, seed=0)
    assert dw.shape == (1, 1, 1)


def test_increments_bit_identical_and_prefix_stable():
    grid = F.TimeGrid(0.0, 1.0, 20)
    a = F.generate_increments(grid, 40, 2, seed=3)
    b = F.generate_increments(grid, 40, 2, seed=3)
    assert np.array_equal(a, b)
    # per-path keying: a smaller batch is a prefix of a larger one
    c = F.generate_increments(grid, 10, 2, seed=3)
    assert np.array_equal(a[:10], c)
    d = F.generate_increments(grid, 40, 2, seed=4)
    assert not np.array_equal(a, d)


def test_optimal_pair_paths_identically_zero(spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 60)
    batch = F.simulate_forward(spec31, zero_control, 0.0, [0.0], grid, 300, seed=7)
    assert np.all(batch.states == 0.0)


def test_driftless_martingale_mean(spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 100)
    m = 100000
    batch = F.simulate_forward(spec31, zero_control, 0.0, [1.0], grid, m, seed=11)
    xt = batch.states[:, -1, 0]
    se = xt.std() / np.sqrt(m)
    assert abs(xt.mean() - 1.0) <= 3.0 * se


def test_unit_control_grows_at_exponential_rate(spec31):
    grid = F.TimeGrid(0.0, 1.0, 100)
    m = 100000
    batch = F.simulate_forward(
        spec31, 1.0, 0.0, [1.0], grid, m, seed=11
    )
    xt = batch.states[:, -1, 0]
    se = xt.std() / np.sqrt(m)
    assert abs(xt.mean() - np.e) <= 3.0 * se


def test_martingale_bound_at_every_node(spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 100)
    m = 20000
    batch = F.simulate_forward(spec31, zero_control, 0.0, [1.0], grid, m, seed=2)
    means = batch.states[:, :, 0].mean(axis=0)
    stds = batch.states[:, :, 0].std(axis=0)
    assert np.all(np.abs(means - 1.0) <= 4.0 * stds / np.sqrt(m) + 1e-15)


def test_batch_determinism_and_immutability(spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 30)
    a = F.simulate_forward(spec31, zero_control, 0.0, [1.0], grid, 100, seed=5)
    b = F.simulate_forward(spec31, zero_control, 0.0, [1.0], grid, 100, seed=5)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.increments, b.increments)
    with pytest.raises(ValueError):
        a.states[0, 0, 0] = 99.0
    with pytest.raises(ValueError):
        a.control[0] = 1.0


def test_grid_must_span_horizon(spec31, zero_control):
    with pytest.raises(F.SimulationError):
        F.simulate_forward(
            spec31, zero_control, 0.0, [1.0], F.TimeGrid(0.0, 0.5, 10), 10, seed=0
        )


@pytest.mark.parametrize("control", [1.5, -1e-9])
def test_control_outside_box_rejected(spec31, control):
    grid = F.TimeGrid(0.0, 1.0, 10)
    with pytest.raises(P.ControlBoxError):
        F.simulate_forward(spec31, control, 0.0, [1.0], grid, 10, seed=0)


def test_control_of_wrong_length_rejected(spec31):
    grid = F.TimeGrid(0.0, 1.0, 10)
    with pytest.raises(F.SimulationError, match="control must have shape"):
        F.simulate_forward(spec31, [0.0, 0.0], 0.0, [1.0], grid, 10, seed=0)


@pytest.mark.filterwarnings("error")
def test_non_finite_state_reported():
    # multiplicative blow-up overflows the state within the horizon
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * 1000000"], ["0"], "0", "x1"
    )
    grid = F.TimeGrid(0.0, 1.0, 200)
    with pytest.raises(F.NonFiniteStateError) as err:
        F.simulate_forward(spec, 0.0, 0.0, [10.0], grid, 4, seed=0)
    assert err.value.step >= 1


def test_euler_strong_order_half(spec31, zero_control):
    # coupled refinement vs the pathwise-exact solution of dX = X dW
    grid = F.TimeGrid(0.0, 1.0, 200)
    m = 20000
    batch = F.simulate_forward(spec31, zero_control, 0.0, [1.0], grid, m, seed=5)
    w_total = batch.increments[:, :, 0].sum(axis=1)
    exact = np.exp(w_total - 0.5)
    e200 = np.sqrt(np.mean((batch.states[:, -1, 0] - exact) ** 2))
    dw100 = batch.increments[:, :, 0].reshape(m, 100, 2).sum(axis=2)
    x = np.ones(m)
    for i in range(100):
        x = x + x * dw100[:, i]
    e100 = np.sqrt(np.mean((x - exact) ** 2))
    assert 1.2 <= e100 / e200 <= 1.8


def test_perturbation_probe_constants_stable(spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 100)
    rep = F.perturbation_moment_probe(
        spec31, zero_control, 0.0, [1.0], [0.1, 0.05, 0.025], 1, grid, 2000, seed=9
    )
    assert rep.passed
    assert rep.order == 2
    # linear dynamics: the coupled difference is exactly proportional
    assert max(rep.constants) / min(rep.constants) == pytest.approx(1.0, rel=1e-9)
    assert rep.fitted_constant == max(rep.constants)


def test_perturbation_probe_rejects_bad_sizes(spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 10)
    with pytest.raises(F.SimulationError):
        F.perturbation_moment_probe(
            spec31, zero_control, 0.0, [1.0], [0.0], 1, grid, 10, seed=0
        )
    with pytest.raises(F.SimulationError):
        F.perturbation_moment_probe(
            spec31, zero_control, 0.0, [1.0], [0.05, 0.1], 1, grid, 10, seed=0
        )
    with pytest.raises(F.SimulationError):
        F.perturbation_moment_probe(
            spec31, zero_control, 0.0, [1.0], [0.1, 0.05], 0, grid, 10, seed=0
        )


def test_perturbation_probe_frozen_dynamics_exact():
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["0"], ["0"], "0", "x1"
    )
    grid = F.TimeGrid(0.0, 1.0, 10)
    rep = F.perturbation_moment_probe(
        spec, 0.0, 0.0, [1.0], [0.1, 0.05], 2, grid, 20, seed=0
    )
    assert rep.moments == pytest.approx([0.1**4, 0.05**4])


def test_pathbatch_summary_csv(tmp_path, spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 4)
    batch = F.simulate_forward(spec31, zero_control, 0.0, [1.0], grid, 16, seed=8)
    path = tmp_path / "summary.csv"
    F.pathbatch_summary_csv(batch, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,mean_state_norm,std_state_norm"
    assert len(lines) == 6
    assert len([float(v) for v in lines[1].split(",")]) == 3
