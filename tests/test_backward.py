import warnings

import numpy as np
import probes
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
        f"x1 + {delta}",
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


@pytest.mark.parametrize("x0", [0.0, 1.0])
def test_cost_stderr_is_the_closed_form(spec31, x0):
    # std / sqrt(M) of the pathwise value, bit for bit, whatever the seed
    # recorded with it; 0.0 from the zero start, where every path is 0
    batch = F.simulate_forward(spec31, 0.5, 0.0, [x0], F.TimeGrid(0.0, 1.0, 20), 3000, 2)
    sol = B.solve_backward(spec31, batch, 3)
    values = sol.pathwise_value
    closed = values.std() / np.sqrt(values.shape[0])
    for seed in (0, 2, 2**64 - 1):
        rep = B.CostReport.of(sol, seed)
        assert rep.stderr == closed and rep.seed == seed
    assert (closed == 0.0) == (x0 == 0.0)


def test_cost_constant_policies_match_oracle(spec31):
    grid = F.TimeGrid(0.0, 1.0, 50)
    rep0 = _cost(spec31, 0.0, [1.0], grid, 20000, 3, seed=2)
    assert rep0.j == pytest.approx(-1.0, abs=0.03)
    rep1 = _cost(spec31, 1.0, [1.0], grid, 20000, 3, seed=2, n_picard=2)
    assert rep1.j == pytest.approx(-2.0, abs=0.05)
    assert rep0.stderr > 0.0
    assert "seed" in rep0.to_json()


def test_rank_deficient_condition_within_the_ridge_bound():
    # states on the two values -1, 1 span a two-dimensional space, so at
    # degree 3 (t^2 = 1, t^3 = t) the scaled Gram matrix has eigenvalues
    # 2M, 2M, 0, 0 and the ridge 4e-8 M alone lifts the zero ones: the
    # condition number is 1 + 1 / (2 _RIDGE_SCALE), under the bound
    # 1 + 1 / _RIDGE_SCALE of any spread design
    x = np.tile([-1.0, 1.0], 25)[:, None]
    reg = B._StepRegression(x, 3)
    assert not reg.constant
    assert reg.condition <= (1.0 + 1.0 / B._RIDGE_SCALE) * (1.0 + 1e-12)
    assert reg.condition == pytest.approx(1.0 + 0.5 / B._RIDGE_SCALE, rel=1e-6)


def test_non_finite_y_refused_at_its_step():
    # exp(50 * y) at y = phi = x + 10 overflows to inf at the last step
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"], "exp(50 * y)", "x1 + 10"
    )
    batch = F.simulate_forward(spec, 0.0, 0.0, [1.0], F.TimeGrid(0.0, 1.0, 10), 200, 0)
    with np.errstate(over="ignore"):
        with pytest.raises(P.ProblemError, match="non-finite Y or Z at step 9"):
            B.solve_backward(spec, batch, 3)


def test_condition_diagnostics_recorded(sol_x1):
    assert sol_x1.conditions.shape == (50,)
    assert np.all(sol_x1.conditions >= 1.0)


def test_backward_perturbation_probe_stable(spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 50)
    rep_y, rep_z = probes.backward_perturbation_probe(
        spec31, zero_control, 0.0, [1.0], [0.1, 0.05, 0.025], 1, grid, 4000, 3, seed=3
    )
    assert rep_y.passed and rep_z.passed
    # Y = X and Z = X: coupled differences scale exactly with the size
    assert max(rep_y.constants) / min(rep_y.constants) == pytest.approx(1.0, rel=1e-7)
    assert max(rep_z.constants) / min(rep_z.constants) == pytest.approx(1.0, rel=1e-7)


def test_backward_probe_single_size_vacuous(spec31, zero_control):
    grid = F.TimeGrid(0.0, 1.0, 20)
    rep_y, rep_z = probes.backward_perturbation_probe(
        spec31, zero_control, 0.0, [1.0], [0.1], 1, grid, 500, 3, seed=3
    )
    assert rep_y.passed and rep_z.passed
    assert len(rep_y.constants) == 1


def test_backward_probe_null_data_zero():
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"], "0", "0"
    )
    grid = F.TimeGrid(0.0, 1.0, 20)
    rep_y, rep_z = probes.backward_perturbation_probe(
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
    design, reference = reg.basis(x), _pow_design(reg, x).T
    assert design.shape == (4 if n == 1 else 10, 4000)
    assert design.flags.c_contiguous
    assert np.array_equal(reg.design, design)
    assert np.array_equal(design[: n + 1], reference[: n + 1])
    ulp = np.finfo(float).eps
    assert np.all(np.abs(design - reference) <= 2.0 * ulp * np.abs(reference))


@pytest.mark.parametrize("n, value", [(1, 0.0), (2, 0.0), (1, 1.7), (2, -3.0)])
def test_design_exact_on_constant_states(n, value):
    # the pipeline's X = 0 paths hold one state: the projection is the plain
    # path mean, with no design to build
    x = np.full((300, n), value)
    reg = B._StepRegression(x, 3)
    assert reg.design is None and reg.basis(x) is None
    targets = np.random.default_rng(4).normal(0.0, 1.0, 300)
    assert np.array_equal(reg.fit(targets), np.full(300, targets.mean()))


@pytest.mark.parametrize(
    "value, path0",
    [
        (0.0, 0.0), (0.3, 0.3), (-3.0, -3.0), (1e200, 1e200), (-3e170, -3e170),
        (0.0, -0.0), (0.3, np.nextafter(0.3, 1.0)), (1e200, np.nextafter(1e200, np.inf)),
    ],
    ids=[
        "0.0", "0.3", "-3.0", "1e+200", "-3e+170", "signed_zeros", "one_ulp_off",
        "one_ulp_above_1e+200",
    ],
)
@pytest.mark.parametrize("n", [1, 2])
def test_constant_states_project_by_the_plain_mean(n, value, path0):
    # 0.3 at M = 50000 has a rounding-level sd (its mean is not exact); the
    # fit is still the targets' mean bit for bit, broadcast read-only.  The
    # constant test is exact and comes before any sd, so 1e200 or -3e170
    # warn of no overflow.  0.0 and -0.0 are one state; one path one ulp
    # off spreads the row, which takes the ridge fit.  Above 1e200 that
    # spread squared overflows: the sd stays finite and the path's
    # standardized state finite and nonzero
    m = 50000
    x = np.full((m, n), value)
    x[0, -1] = path0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reg = B._StepRegression(x, 3)
    spread = path0 != value
    assert reg.constant is not spread
    if spread:
        assert reg.design.shape == (4 if n == 1 else 10, m) and reg.condition > 1.0
        assert np.all(np.isfinite(reg.sd))
        # design row n is the last coordinate, standardized
        assert np.isfinite(reg.design[n, 0]) and reg.design[n, 0] != 0.0
    else:
        assert reg.design is None and reg.condition == 1.0
    rng = np.random.default_rng(5)
    for targets in (rng.normal(0.0, 1.0, m), rng.normal(0.0, 1.0, (m, 3))):
        fitted = reg.fit(targets, reg.basis(x))
        assert fitted.shape == targets.shape
        mean = targets.mean(axis=0)
        plain = np.broadcast_to(mean, targets.shape)
        if spread:
            assert fitted.flags.writeable and not np.array_equal(fitted, plain)
            continue
        assert not fitted.flags.writeable and fitted.strides[0] == 0
        assert np.array_equal(fitted, plain)
        assert fitted[0].tobytes() == np.asarray(mean).tobytes()


def test_one_spread_coordinate_keeps_the_ridge_fit():
    # the plain mean needs every coordinate constant: one spread coordinate
    # keeps the polynomial design
    x = np.zeros((400, 2))
    x[:, 1] = np.random.default_rng(6).normal(0.0, 1.0, 400)
    reg = B._StepRegression(x, 3)
    assert not reg.constant and reg.design.shape == (10, 400)


# state rows 3-7 of the batch below hold the same bits
_SHARED_ROWS = range(3, 8)


def batch_with_equal_rows():
    """A hand-built (n = 2, d = 1) problem and batch of 300 paths over
    N = 10 steps, whose state rows 3-7 are equal and the others distinct;
    with p_deg = 3 the regressions have P = 10 monomials."""
    spec = P.spec_from_expressions(
        2, 1, 1, 1.0, [0.0], [1.0],
        ["x2 * u1", "0 - x1"], ["0.5", "0.3 * x1"],
        "x1 * x2 - y + z1", "x1 + x2 * x2",
    )
    grid = F.TimeGrid(0.0, 1.0, 10)
    rng = np.random.default_rng(11)
    states = rng.normal(0.0, 1.0, (11, 300, 2))
    states[_SHARED_ROWS] = states[_SHARED_ROWS[0]]
    increments = rng.normal(0.0, np.sqrt(grid.dt), (10, 300, 1))
    batch = F.PathBatch(
        grid=grid,
        states=states.swapaxes(0, 1),
        increments=increments.swapaxes(0, 1),
        control=np.array([0.5]),
        x0=states[0, 0],
    )
    return spec, batch
