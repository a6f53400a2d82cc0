import numpy as np
import probes
import pytest

from fbsdelab import forward as F
from fbsdelab import problem as P


def test_grid_nodes_hit_endpoints():
    grid = F.TimeGrid(0.25, 1.0, 3)
    assert grid.times[0] == 0.25
    assert grid.times[-1] == 1.0
    assert grid.dt == pytest.approx(0.25)
    # computed once, and shared read-only
    assert grid.times is grid.times and not grid.times.flags.writeable
    assert np.array_equal(grid.times, np.linspace(0.25, 1.0, 4))
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
    # per-block keying: a smaller batch is a prefix of a larger one
    c = F.generate_increments(grid, 10, 2, seed=3)
    assert np.array_equal(a[:10], c)
    d = F.generate_increments(grid, 40, 2, seed=4)
    assert not np.array_equal(a, d)


def test_increments_match_per_block_philox_reference():
    # a fresh Philox keyed by (seed, b) for every block of 1,024 paths, its
    # normals taken path by path; 2,500 paths are two full blocks and a
    # partial one
    grid = F.TimeGrid(0.0, 1.0, 20)
    dw = F.generate_increments(grid, 2500, 2, seed=9)
    ref = np.empty((2500, 20, 2))
    for b, start in enumerate(range(0, 2500, F._BLOCK)):
        rows = min(F._BLOCK, 2500 - start)
        key = np.array([9, b], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        ref[start : start + rows] = gen.standard_normal((rows, 20, 2))
    ref *= np.sqrt(grid.dt)
    assert np.array_equal(dw, ref)


def test_increments_prefix_across_a_block_boundary():
    grid = F.TimeGrid(0.0, 1.0, 20)
    small = F.generate_increments(grid, 1500, 2, seed=9)
    large = F.generate_increments(grid, 2500, 2, seed=9)
    assert np.array_equal(small, large[:1500])


@pytest.mark.parametrize("m", [1, 1024, 1025, 2500])
def test_one_philox_per_block_of_paths(monkeypatch, m):
    # no per-path rewind: one stream is built per block of 1,024 paths, in
    # block order
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(kwargs.get("key"))
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    F.generate_increments(F.TimeGrid(0.0, 1.0, 5), m, 1, seed=2)
    assert [int(key[1]) for key in built] == list(range(-(-m // 1024)))


def _assert_time_major_view(arr):
    """arr is a path-major view of a buffer whose per-step rows are contiguous."""
    rows = arr.swapaxes(0, 1)
    assert arr.base is not None and np.shares_memory(arr, arr.base)
    assert arr.base.shape == rows.shape and arr.base.flags.c_contiguous
    assert all(row.flags.c_contiguous for row in rows)


def test_batch_fields_view_time_major_rows(spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 10)
    batch = F.simulate_forward(spec31, zero_control, 0.0, [1.0], grid, 50, seed=3)
    assert batch.states.shape == (50, 11, 1)
    assert batch.increments.shape == (50, 10, 1)
    _assert_time_major_view(batch.states)
    _assert_time_major_view(batch.increments)


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


# Brownian paths from 0 (b = 0, sigma = 1 until a coefficient fails): at
# seed 9 and N = 50 the first of 2,500 paths to pass 2.5 is path 2199, at
# step 23; the first 2,048 paths pass it only at step 32
_BROWNIAN = dict(t=0.0, x=[0.0], grid=F.TimeGrid(0.0, 1.0, 50), seed=9)


def _first_error(spec, n_paths=2500):
    """The exception simulate_forward raises on `n_paths` paths."""
    with pytest.raises(P.ProblemError) as err:
        F.simulate_forward(spec, 0.0, n_paths=n_paths, **_BROWNIAN)
    return type(err.value), str(err.value), getattr(err.value, "path", None)


def test_non_finite_state_same_path_and_step_at_any_worker_count():
    # the state jumps to inf on the step after a path passes 2.5
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["max(x1 - 2.5, 0) * 1e300 * 1e300"], ["1"], "0", "x1"
    )
    assert _first_error(spec) == (
        F.NonFiniteStateError, "non-finite state at path 2199, step 24", 2199
    )
    # the first 2,048 paths alone fail later
    assert _first_error(spec, 2048)[1] == "non-finite state at path 861, step 33"
    # every path blows up at the same step: the lowest one is reported
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["(x1 + 1) * 1e300"], ["1"], "0", "x1"
    )
    assert _first_error(spec) == (
        F.NonFiniteStateError, "non-finite state at path 0, step 2", 0
    )


@pytest.mark.parametrize(
    "b, sigma",
    [
        # only path 2199 passes 2.5, at step 23
        ("min(sqrt(2.5 - x1), 0)", "1"),
        # at step 18 paths past the first 2,048 pass 2.15 (the drift's sqrt
        # refuses them) while path 1414 falls below -2.5 (the diffusion's
        # log refuses it): the drift is evaluated first, so the sqrt error
        # is raised
        ("min(sqrt(2.15 - x1), 0)", "1 + 0 * log(x1 + 2.5)"),
    ],
)
def test_domain_error_is_the_serial_loops_at_any_worker_count(b, sigma):
    spec = P.spec_from_expressions(1, 1, 1, 1.0, [0.0], [1.0], [b], [sigma], "0", "x1")
    error = _first_error(spec)
    assert error[0] is P.DomainError and "sqrt" in error[1]
    if "log" in sigma:
        # the first 2,048 paths alone fail on the log
        assert "log" in _first_error(spec, 2048)[1]


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
    rep = probes.perturbation_moment_probe(
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
        probes.perturbation_moment_probe(
            spec31, zero_control, 0.0, [1.0], [0.0], 1, grid, 10, seed=0
        )
    with pytest.raises(F.SimulationError):
        probes.perturbation_moment_probe(
            spec31, zero_control, 0.0, [1.0], [0.05, 0.1], 1, grid, 10, seed=0
        )
    with pytest.raises(F.SimulationError):
        probes.perturbation_moment_probe(
            spec31, zero_control, 0.0, [1.0], [0.1, 0.05], 0, grid, 10, seed=0
        )


def test_perturbation_probe_frozen_dynamics_exact():
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["0"], ["0"], "0", "x1"
    )
    grid = F.TimeGrid(0.0, 1.0, 10)
    rep = probes.perturbation_moment_probe(
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
