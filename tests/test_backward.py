import numpy as np
import pytest
from test_forward import _assert_time_major_view

from fbsdelab import backward as B
from fbsdelab import forward as F
from fbsdelab import problem as P


def _cost(spec, control, x, grid, m, p_deg, seed, n_picard=0):
    """The backward stage's cost report from x at time 0 under a constant control."""
    batch = F.simulate_forward(spec, control, 0.0, x, grid, m, seed)
    sol = B.solve_backward(spec, batch, p_deg, n_picard=n_picard)
    return B.CostReport.of(sol, seed)


@pytest.fixture(scope="module")
def batch_x1(spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 50)
    return F.simulate_forward(spec31, zero_control, 0.0, [1.0], grid, 20000, seed=2)


@pytest.fixture(scope="module")
def sol_x1(spec31, zero_control, batch_x1):
    return B.solve_backward(spec31, batch_x1, 3)


def test_terminal_values_bit_exact(spec31, batch_x1, sol_x1):
    assert np.array_equal(sol_x1.y[:, -1], spec31.terminal(batch_x1.states[:, -1]))


def test_solution_fields_view_time_major_rows(sol_x1):
    assert sol_x1.y.shape == (20000, 51)
    assert sol_x1.z.shape == (20000, 50, 1)
    _assert_time_major_view(sol_x1.y)
    _assert_time_major_view(sol_x1.z)


def test_y0_constant_across_paths(sol_x1):
    assert np.ptp(sol_x1.y[:, 0]) == 0.0


def test_zero_start_solution_identically_zero(spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 50)
    batch = F.simulate_forward(spec31, zero_control, 0.0, [0.0], grid, 500, seed=1)
    sol = B.solve_backward(spec31, batch, 3)
    assert np.all(sol.y == 0.0)
    assert np.all(sol.z == 0.0)


def test_constant_target_on_lognormal_states_is_not_shrunk():
    # the ridge weighs every design column alike, so a wide state spread
    # (t^6 of the largest path) does not inflate it
    x = np.exp(np.random.default_rng(0).normal(0.0, 1.0, (50000, 1)))
    fitted = B._StepRegression(x, 3).fit(np.ones(50000))
    assert np.max(np.abs(fitted - 1.0)) < 1e-5


def test_y0_tracks_linear_bsde_oracle(sol_x1):
    # Y(s) = X(s) under control 0, so Y(0) = 1; generous unit-test bound
    assert sol_x1.y[0, 0] == pytest.approx(1.0, abs=0.02)


def test_martingale_residual_centered(spec31, batch_x1, sol_x1):
    # the path mean of the discrete increment identity is noise whose
    # scale is set by mean(Z dW) (the regression intercept removes it
    # from the Y side only), so that term's stderr enters the bound
    m = batch_x1.n_paths
    dt = batch_x1.grid.dt
    times = batch_x1.grid.times
    u = np.broadcast_to(batch_x1.control, (m, spec31.k))
    for i in range(0, 50, 7):
        reg = B._StepRegression(batch_x1.states[:, i], 3)
        cont = reg.fit(sol_x1.y[:, i + 1])
        fval = spec31.driver(times[i], batch_x1.states[:, i], cont, sol_x1.z[:, i], u)
        zdw = (sol_x1.z[:, i] * batch_x1.increments[:, i]).sum(axis=1)
        resid = sol_x1.y[:, i + 1] - sol_x1.y[:, i] + fval * dt - zdw
        bound = 4.0 * (resid.std() + zdw.std()) / np.sqrt(m)
        assert abs(resid.mean()) <= bound, f"step {i}"


def test_terminal_shift_propagates_at_driver_rate(spec31, zero_control, batch_x1, sol_x1):
    # phi -> phi + delta shifts Y(s) by delta e^{s-T} (driver x - y)
    delta = 0.1
    shifted = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"], "x1 - y",
        f"x1 + {delta}", lipschitz_hint=2.0,
    )
    sol2 = B.solve_backward(shifted, batch_x1, 3)
    m = batch_x1.n_paths
    times = batch_x1.grid.times
    for i in (0, 10, 25, 40):
        gap = sol2.y[:, i] - sol_x1.y[:, i]
        target = delta * np.exp(times[i] - 1.0)
        se = gap.std() / np.sqrt(m)
        allowance = 2.0 * se + delta * batch_x1.grid.dt
        assert abs(gap.mean() - target) <= allowance, f"step {i}"


def test_driver_reads_the_batch_control(spec31):
    # on one batch, f = x1 - y + u1 moves Y from the f = x1 - y solution by
    # d with d' = d - u, d(T) = 0; the explicit scheme's d_i = (1 - dt)
    # d_{i+1} + u dt gives d_0 = u (1 - (1 - dt)^N), and a solver reading
    # any other control than u misses it
    u = 0.5
    grid = F.TimeGrid(0.0, 1.0, 50)
    batch = F.simulate_forward(spec31, u, 0.0, [1.0], grid, 5000, seed=4)
    with_u = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"], "x1 - y + u1", "x1"
    )
    y_u = B.solve_backward(with_u, batch, 3).y[0, 0]
    y_plain = B.solve_backward(spec31, batch, 3).y[0, 0]
    target = u * (1.0 - (1.0 - grid.dt) ** grid.steps)
    assert y_u - y_plain == pytest.approx(target, abs=1e-6)


def test_doubling_m_and_n_consistent(spec31, zero_control):
    reports = []
    for m, n in ((20000, 50), (40000, 100)):
        grid = F.TimeGrid(0.0, 1.0, n)
        reports.append(
            _cost(spec31, zero_control, [1.0], grid, m, 3, seed=2)
        )
    assert abs(reports[0].j - reports[1].j) <= 2.0 * max(
        reports[0].stderr, reports[1].stderr
    )


def test_cost_at_zero_start_is_exactly_zero(spec31):
    grid = F.TimeGrid(0.0, 1.0, 50)
    for c in (0.0, 0.5, 1.0):
        rep = _cost(spec31, c, [0.0], grid, 400, 3, seed=9)
        assert rep.j == 0.0
        assert rep.stderr == 0.0


def test_cost_constant_policies_match_oracle(spec31):
    grid = F.TimeGrid(0.0, 1.0, 50)
    rep0 = _cost(spec31, 0.0, [1.0], grid, 20000, 3, seed=2)
    assert rep0.j == pytest.approx(-1.0, abs=0.03)
    rep1 = _cost(spec31, 1.0, [1.0], grid, 20000, 3, seed=2, n_picard=2)
    assert rep1.j == pytest.approx(-2.0, abs=0.05)
    assert rep0.stderr > 0.0
    assert "seed" in rep0.to_json()


def test_rank_deficiency_reported(spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 5)
    batch = F.simulate_forward(spec31, zero_control, 0.0, [0.0], grid, 50, seed=1)
    with pytest.raises(B.RegressionError, match="step"):
        B.solve_backward(spec31, batch, 3, cond_threshold=1.0)


def test_condition_diagnostics_recorded(sol_x1):
    assert sol_x1.conditions.shape == (50,)
    assert np.all(sol_x1.conditions >= 1.0)


def test_backward_perturbation_probe_stable(spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 50)
    rep_y, rep_z = B.backward_perturbation_probe(
        spec31, zero_control, 0.0, [1.0], [0.1, 0.05, 0.025], 1, grid, 4000, 3, seed=3
    )
    assert rep_y.passed and rep_z.passed
    # Y = X and Z = X: coupled differences scale exactly with the size
    assert max(rep_y.constants) / min(rep_y.constants) == pytest.approx(1.0, rel=1e-7)
    assert max(rep_z.constants) / min(rep_z.constants) == pytest.approx(1.0, rel=1e-7)


def test_backward_probe_single_size_vacuous(spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 20)
    rep_y, rep_z = B.backward_perturbation_probe(
        spec31, zero_control, 0.0, [1.0], [0.1], 1, grid, 500, 3, seed=3
    )
    assert rep_y.passed and rep_z.passed
    assert len(rep_y.constants) == 1


def test_backward_probe_null_data_zero():
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"], "0", "0"
    )
    grid = F.TimeGrid(0.0, 1.0, 20)
    rep_y, rep_z = B.backward_perturbation_probe(
        spec, 0.0, 0.0, [1.0], [0.1, 0.05], 1, grid, 500, 3, seed=3
    )
    assert rep_y.fitted_constant == 0.0
    assert rep_z.fitted_constant == 0.0
    assert rep_y.passed and rep_z.passed


def test_backward_csv_export(tmp_path, sol_x1):
    path = tmp_path / "backward.csv"
    B.backward_csv(sol_x1, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,mean_y,std_y,mean_abs_z,condition"
    assert len(lines) == 52
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert all(len(row) == 5 for row in rows)
    # step i's regression condition; NaN on the terminal row, as mean |Z|
    assert [row[4] for row in rows[:-1]] == sol_x1.conditions.tolist()
    assert np.isnan(rows[-1][3]) and np.isnan(rows[-1][4])


def _pow_design(reg, x):
    """The design as one float pow per monomial: the reference for `basis`."""
    t = (x - reg.mu) / reg.sd
    monomials = B._monomials(x.shape[1], reg.degree)
    design = np.empty((x.shape[0], len(monomials)))
    for j, combo in enumerate(monomials):
        powers = np.bincount(np.array(combo, dtype=int), minlength=x.shape[1])
        design[:, j] = np.prod(t**powers, axis=1)
    return design


@pytest.mark.parametrize("n", [1, 2])
def test_design_products_match_pow_reference(n):
    x = np.random.default_rng(5).normal(0.5, 2.0, (4000, n))
    reg = B._StepRegression(x, 3)
    design, reference = reg.basis(x), _pow_design(reg, x)
    assert design.shape == (4000, 4 if n == 1 else 10)
    assert np.array_equal(reg.design, design)
    assert np.array_equal(design[:, : n + 1], reference[:, : n + 1])
    ulp = np.finfo(float).eps
    assert np.all(np.abs(design - reference) <= 2.0 * ulp * np.abs(reference))


@pytest.mark.parametrize("n, value", [(1, 0.0), (2, 0.0), (1, 1.7), (2, -3.0)])
def test_design_exact_on_constant_states(n, value):
    # the pipeline's X = 0 paths standardize to t = 0: every column is exact
    x = np.full((300, n), value)
    reg = B._StepRegression(x, 3)
    assert np.array_equal(reg.basis(x), _pow_design(reg, x))
    assert np.array_equal(reg.design, reg.basis(x))
