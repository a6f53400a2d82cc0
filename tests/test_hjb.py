import warnings

import numpy as np
import probes
import pytest

from fbsdelab import forward as F
from fbsdelab import hjb as H
from fbsdelab import oracles
from fbsdelab import problem as P


def test_terminal_slice_exact(vgrid100, spec31):
    assert np.array_equal(vgrid100.values[-1], -spec31.terminal(vgrid100.xs[:, None]))


def test_solved_grid_matches_oracle(vgrid100):
    exact = oracles.example31_value(0.0, vgrid100.xs, 1.0)
    assert np.max(np.abs(vgrid100.values[0] - exact)[1:-1]) <= 0.05


def test_stationary_transport_free_equation_preserved():
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["0"], ["0"], "0", "x1"
    )
    grid = H.cfl_time_grid(spec, 1.0, 50)
    vg = H.solve_hjb_fd(spec, 1.0, 50, grid)
    assert np.array_equal(vg.values, np.tile(-vg.xs, (grid.steps + 1, 1)))


def test_cfl_violation_refused(spec31):
    # f_y = 25, and b = x1 * u1 points out of [-2, 2] with |b| up to 2 at
    # the end rows, whose diagonal is then 1 - dt (25 + 2 / dx), dx = 0.2:
    # the bound is dt <= 1/35, and the N rule takes half of it, N = 70
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"], "x1 + 25 * y", "x1"
    )
    assert H.cfl_max_dt(spec, 2.0, 20) == pytest.approx(1.0 / 35.0, rel=1e-12)
    with pytest.raises(H.CFLError, match="use at least N = 70 "):
        H.solve_hjb_fd(spec, 2.0, 20, F.TimeGrid(0.0, 1.0, 20))
    grid = H.cfl_time_grid(spec, 2.0, 20)
    assert grid.steps == 70
    assert H.solve_hjb_fd(spec, 2.0, 20, grid).cfl_ratio == pytest.approx(0.5)
    # example31's f_y = -1 and f_z = 0 leave the end rows' bound dx / 2:
    # N = 10 at J = 400, where dt |b| / dx reaches 20, is refused
    assert H.cfl_max_dt(spec31, 2.0, 400) == pytest.approx(0.005, rel=1e-12)
    with pytest.raises(H.CFLError, match="use at least N = 400 "):
        H.solve_hjb_fd(spec31, 2.0, 400, F.TimeGrid(0.0, 1.0, 10))


def _oscillating_sigma():
    # the driver reads z, so the bound dx / |sigma f_z| follows sigma,
    # and |sigma| reaches 6 between the levels of a coarse grid
    return P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["1 + 5 * sin(20 * s)"],
        "x1 - y + z1", "x1",
    )


# passes the bound of the first step, at t = 1 where |sigma| = 5.56, but
# not of the steps where |sigma| nears 6 (L = 2, J = 20: dx = 0.2)
_FIRST_LEVEL_N = 28


def test_time_dependent_cfl_checked_each_step():
    spec = _oscillating_sigma()
    grid = F.TimeGrid(0.0, 1.0, _FIRST_LEVEL_N)
    sweep = H._Sweep(spec, 2.0, 20, 0.0)
    assert not H._exceeds(grid.dt, sweep.slopes(1.0)[1])
    with pytest.raises(H.CFLError, match="use at least N") as err:
        H.solve_hjb_fd(spec, 2.0, 20, grid)
    assert err.value.dt_max < grid.dt < sweep.slopes(1.0)[1]
    assert err.value.n_required > grid.steps
    vg = H.solve_hjb_fd(spec, 2.0, 20, F.TimeGrid(0.0, 1.0, 2 * grid.steps))
    assert np.all(np.isfinite(vg.values))


def _rows_per_control(spec, xs, t, dt, controls):
    """The implicit rows of one level as a plain loop over the controls,
    in the sweep's arithmetic: (lower, diag, upper, h, b / dx), one row
    of each per control."""
    dx = (xs[-1] - xs[0]) / (xs.size - 1)
    x_cols = xs[:, None]
    rows = []
    for u in controls:
        uu = np.broadcast_to(u, (xs.size, spec.k))
        b = spec.drift(t, x_cols, uu)[:, 0]
        sg = spec.diffusion(t, x_cols, uu)[:, 0, :]
        f_y = spec.driver_y(t, x_cols, -spec.terminal(x_cols), 0.0 * sg, uu)
        h, bd = 0.5 * np.sum(sg * sg, axis=-1) / (dx * dx), b / dx
        lower = -dt * (h + np.maximum(-bd, 0.0))
        upper = -dt * (h + np.maximum(bd, 0.0))
        diag = 1.0 + dt * (2.0 * h + np.abs(bd) - f_y)
        diag[0] += 2.0 * lower[0]
        upper[0] -= lower[0]
        diag[-1] += 2.0 * upper[-1]
        lower[-1] -= upper[-1]
        lower[0] = upper[-1] = 0.0
        rows.append((lower, diag, upper, h, bd))
    return [np.array(r) for r in zip(*rows)]


def _bellman_residual(spec, xs, v, v_known, t, dt, controls):
    """max_u (B_u v - r_u) per node, written on divided differences over
    every control: B_u v = v - dt (L_u v + f_y v) and r_u = v_known -
    dt (f(t, x, -v_known, sigma^T p_known, u) + f_y v_known)."""
    dx = (xs[-1] - xs[0]) / (xs.size - 1)
    x_cols = xs[:, None]

    def differences(w):
        wp = np.concatenate(([2.0 * w[0] - w[1]], w, [2.0 * w[-1] - w[-2]]))
        fwd, bwd = (wp[2:] - wp[1:-1]) / dx, (wp[1:-1] - wp[:-2]) / dx
        return fwd, bwd, (wp[2:] - 2.0 * wp[1:-1] + wp[:-2]) / (dx * dx)

    fwd, bwd, dxx = differences(v)
    kfwd, kbwd, _ = differences(v_known)
    best = None
    for u in controls:
        uu = np.broadcast_to(u, (xs.size, spec.k))
        b = spec.drift(t, x_cols, uu)[:, 0]
        sg = spec.diffusion(t, x_cols, uu)[:, 0, :]
        up = b >= 0.0
        lv = 0.5 * np.sum(sg * sg, axis=-1) * dxx + b * np.where(up, fwd, bwd)
        z = -sg * np.where(up, kfwd, kbwd)[:, None]
        f_y = spec.driver_y(t, x_cols, -spec.terminal(x_cols), 0.0 * sg, uu)
        r = v_known - dt * (spec.driver(t, x_cols, -v_known, z, uu) + f_y * v_known)
        res = v - dt * (lv + f_y * v) - r
        best = res if best is None else np.maximum(best, res)
    return best


# two controls, b and sigma static and a driver without z and u: 121 rows
_TWO_CONTROL_PROBLEMS = {
    "two_controls_corners": (["x1 * u1"], ["1 + u2"], "cos(x1) - y"),
    "two_controls_mixed": (["x1 * u1 + 0.3 * u2"], ["1 + u2 * x1"], "x1 - y"),
}


# one-control problems: (b, sigma, f)
_ONE_CONTROL_PROBLEMS = {
    # b = sigma = 0 reduce G to the driver alone, y + 2
    "null_coefficients": ("0", "0", "y + 2"),
    # the other four read time
    # sigma grows with s, so each level has its own rows
    "time_dependent": ("x1 * u1", "x1 * (1 + s)", "x1 - y + u1"),
    # b alone reads s: so do the slopes, the N rule and the rows
    "drift_time": ("x1 * u1 * (1 + s)", "x1", "x1 - y"),
    # f reads s and z: the slopes read sigma and the N rule reads time
    "driver_time_z": ("x1 * u1", "x1", "x1 - y + s * z1"),
    # sigma reads s and f reads z: so do the slopes and the N rule
    "diffusion_time_z": ("x1 * u1", "x1 * (1 + s)", "x1 - y + z1"),
}


def _sweep_problem(name):
    if name in _ONE_CONTROL_PROBLEMS:
        b, sigma, f = _ONE_CONTROL_PROBLEMS[name]
        return P.spec_from_expressions(
            1, 1, 1, 1.0, [0.0], [1.0], [b], [sigma], f, "x1"
        ), 2.0
    if name in _TWO_CONTROL_PROBLEMS:
        b, sigma, f = _TWO_CONTROL_PROBLEMS[name]
        return P.spec_from_expressions(
            1, 1, 2, 1.0, [0.0, 0.0], [1.0, 1.0], b, sigma, f, "x1"
        ), 2.0
    return P.builtin_problem(name), 2.0 if name == "example31" else 4.0


# max_u (B_u v - r_u) of the solved levels against every control, relative
# to 1 + max |v|: the Thomas solve and the difference form move only bits
_BELLMAN_RESIDUAL = 1e-13


@pytest.mark.parametrize(
    "name",
    [
        "example31", "smooth1d", "time_dependent", "null_coefficients",
        *_TWO_CONTROL_PROBLEMS,
    ],
)
def test_sweep_bit_identical_to_per_control_loop(name):
    spec, half_width = _sweep_problem(name)
    grid = H.cfl_time_grid(spec, half_width, 40)
    vg = H.solve_hjb_fd(spec, half_width, 40, grid)
    controls = P.control_grid(spec)
    sweep = H._Sweep(spec, half_width, 40, 0.0)
    # the nodes and dx the solve steps on are those the value grid reports
    assert sweep.x_cols[:, 0].tobytes() == vg.xs.tobytes()
    assert np.float64(sweep.dx).tobytes() == np.float64(vg.dx).tobytes()
    scale = 1.0 + np.max(np.abs(vg.values))
    for i in (grid.steps - 1, grid.steps // 2, 0):
        t = grid.times[i + 1]
        # the level's rows, bit for bit those of a loop over every control
        rows = sweep.level(t, grid.dt)
        ref = _rows_per_control(spec, vg.xs, t, grid.dt, controls)
        for got, want in zip(rows, ref):
            assert np.array_equal(got, want)
    # at every level the Howard fixed point solves the Bellman equation
    for i in range(grid.steps):
        t = grid.times[i + 1]
        res = _bellman_residual(
            spec, vg.xs, vg.values[i], vg.values[i + 1], t, grid.dt, controls
        )
        assert np.max(np.abs(res)) <= _BELLMAN_RESIDUAL * scale, i
    # a step from the maximizing rows of its own known level, not the
    # previous level's policy, reaches the same fixed point
    i = grid.steps // 2
    stepped = probes.sweep_step(spec, vg.xs, vg.values[i + 1], grid.times[i + 1], grid.dt)
    assert np.max(np.abs(stepped - vg.values[i])) <= _BELLMAN_RESIDUAL * scale


def test_multidimensional_state_rejected():
    spec = P.spec_from_expressions(
        2, 1, 1, 1.0, [0.0], [1.0], ["x1", "x2"], ["x1", "x2"], "y", "x1 + x2"
    )
    with pytest.raises(P.ProblemError, match="one-dimensional"):
        H.solve_hjb_fd(spec, 1.0, 10, F.TimeGrid(0.0, 1.0, 10000))
    # before the coefficient scan, which reads sigma as one-dimensional
    with pytest.raises(P.ProblemError, match="one-dimensional"):
        H.cfl_time_grid(spec, 1.0, 10)


@pytest.mark.parametrize(
    "f1, f2",
    [
        ("x1 - y", "x1 - y"),
        # sigma^T p read through z: 0.6 z1 + 0.8 z2 = z1 of the one-column problem
        ("x1 - y + 0.1 * z1", "x1 - y + 0.1 * (0.6 * z1 + 0.8 * z2)"),
    ],
    ids=["driver_without_z", "driver_with_z"],
)
def test_two_noise_columns_match_one(f1, f2):
    # sigma = (0.6, 0.8) has |sigma| = 1: the same equation as sigma = 1,
    # in |sigma|^2, in sigma^T p and in the CFL bound's driver share
    one = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["1"], f1, "x1"
    )
    two = P.spec_from_expressions(
        1, 2, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["0.6", "0.8"], f2, "x1"
    )
    assert H.cfl_max_dt(two, 2.0, 100) == pytest.approx(
        H.cfl_max_dt(one, 2.0, 100), rel=1e-12
    )
    grid = H.cfl_time_grid(one, 2.0, 100)
    v1 = H.solve_hjb_fd(one, 2.0, 100, grid)
    v2 = H.solve_hjb_fd(two, 2.0, 100, grid)
    assert np.max(np.abs(v1.values - v2.values)) <= 1e-12


def test_degenerate_control_axis_has_one_grid_point():
    # lo == hi on the second axis fixes u2 = 0.5: one grid point on that
    # axis, and the value grid of the same problem with 0.5 written in
    two = P.spec_from_expressions(
        1, 1, 2, 1.0, [0.0, 0.5], [1.0, 0.5], ["x1 * u1 + u2"],
        ["x1 * u2 + 0.5"], "x1 - y + u1 * u2", "x1",
    )
    one = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1 + 0.5"],
        ["x1 * 0.5 + 0.5"], "x1 - y + u1 * 0.5", "x1",
    )
    controls = P.control_grid(two)
    assert controls.shape == (11, 2)
    assert np.array_equal(controls[:, 0], P.control_grid(one)[:, 0])
    assert np.all(controls[:, 1] == 0.5)
    grid = H.cfl_time_grid(one, 2.0, 100)
    v1 = H.solve_hjb_fd(one, 2.0, 100, grid)
    v2 = H.solve_hjb_fd(two, 2.0, 100, grid)
    assert np.array_equal(v1.values, v2.values)


def test_update_monotone_in_neighbors(vgrid400, spec31):
    # raising the known level at any single node, an end node included,
    # never lowers the update at an interior node
    xs = vgrid400.xs
    row = vgrid400.values[len(vgrid400.values) // 2].copy()
    dt = vgrid400.grid.dt
    base = probes.sweep_step(spec31, xs, row, 0.9, dt)
    rng = np.random.default_rng(3)
    for m in [0, xs.size - 1, *rng.integers(1, xs.size - 1, size=12)]:
        pert = row.copy()
        pert[m] += 1e-3
        upd = probes.sweep_step(spec31, xs, pert, 0.9, dt)
        assert np.all(upd[1:-1] >= base[1:-1] - 1e-13), m


def test_comparison_principle(spec31):
    # phi + 0.1 >= phi pointwise implies v(phi + 0.1) <= v(phi)
    shifted = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"], "x1 - y", "x1 + 0.1"
    )
    grid = H.cfl_time_grid(spec31, 2.0, 50)
    v_hi = H.solve_hjb_fd(shifted, 2.0, 50, grid)
    v_lo = H.solve_hjb_fd(spec31, 2.0, 50, grid)
    assert np.all(v_hi.values <= v_lo.values + 1e-12)


def test_consistency_residual_smooth_region(vgrid100, vgrid400, spec31):
    # the scheme reproduces the kinked solution exactly, so residuals on
    # x < 0 sit at the accumulation floor at both resolutions; genuine
    # O(dx) decay is unobservable below the floor
    floor = 1e-10
    residuals = []
    for vg in (vgrid100, vgrid400):
        i = vg.grid.steps // 2
        stepped = probes.sweep_step(
            spec31, vg.xs, vg.values[i + 1], vg.grid.times[i + 1], vg.grid.dt
        )
        res = np.abs(vg.values[i] - stepped) / vg.grid.dt
        residuals.append(res[vg.xs < -0.1].max())
    assert residuals[0] <= floor and residuals[1] <= floor or (
        residuals[0] / residuals[1] >= 1.5
    )


def test_regularity_probe_on_solved_grid(vgrid400):
    lip, growth = H.regularity_probe(vgrid400)
    assert lip == pytest.approx(2.0, abs=1e-9)
    assert growth <= 2.2


def _regularity_full_array(vgrid):
    """regularity_probe as the maxima of whole-grid |.| and quotient arrays."""
    slope = (np.abs(np.diff(vgrid.values, axis=1)) / vgrid.dx).max()
    growth = (np.abs(vgrid.values) / (1.0 + np.abs(vgrid.xs))[None, :]).max()
    return float(slope), float(growth)


def test_regularity_probe_equals_full_array_formula(vgrid400):
    # random values of both signs
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 1.0, (2055, 51))
    values *= rng.uniform(0.1, 10.0, 51)
    noisy = H.ValueGrid(3.0, 50, F.TimeGrid(0.0, 1.0, values.shape[0] - 1), values)
    for vg in (vgrid400, noisy):
        assert H.regularity_probe(vg) == _regularity_full_array(vg)


def test_regularity_probe_degenerate_grids():
    tg = F.TimeGrid(0.0, 1.0, 1)
    xs = np.linspace(-1, 1, 11)
    zero = H.ValueGrid(1.0, 10, tg, np.zeros((2, 11)))
    assert H.regularity_probe(zero) == (0.0, 0.0)
    # terminal slice only, phi(x) = x
    term = H.ValueGrid(1.0, 10, tg, (-xs)[None, :])
    lip, _ = H.regularity_probe(term)
    assert lip == pytest.approx(1.0)


def test_value_grid_exports(tmp_path, vgrid400):
    # 401 levels are written every 4th: 101 time slices, the last at T
    csv = tmp_path / "grid.csv"
    H.value_grid_csv(vgrid400, csv)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,x,v"
    assert len(lines) == 1 + 101 * 401
    assert len([float(v) for v in lines[1].split(",")]) == 3
    assert float(lines[-1].split(",")[0]) == 1.0
    meta = tmp_path / "meta.json"
    H.value_grid_meta_json(vgrid400, meta)
    import json

    data = json.loads(meta.read_text())
    assert data["J"] == 400
    assert data["control_grid_size"] == 11
    assert data["cfl_ratio"] <= 1.0 + 1e-9
    assert data["cfl_ratio"] == vgrid400.cfl_ratio
    # example31 settles every level in one solve
    assert data["scheme"] == "implicit"
    assert data["policy_solves"] == vgrid400.grid.steps
    assert data["max_level_solves"] == 1
    # and one static level and one policy: a single factorization
    assert data["factorizations"] == vgrid400.factorizations == 1


def test_value_grid_csv_appends_the_terminal_slice(tmp_path, spec31):
    # 104 levels are written every 2nd, 0 to 102, and the last, 103, after
    vgrid = H.solve_hjb_fd(spec31, 2.0, 40, F.TimeGrid(0.0, 1.0, 103))
    csv = tmp_path / "grid.csv"
    H.value_grid_csv(vgrid, csv)
    lines = csv.read_text().splitlines()
    assert len(lines) == 1 + 53 * 41
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times[0] == 0.0 and times[-1] == 1.0
    assert times[-42] == vgrid.grid.times[102]
    assert [float(line.split(",")[2]) for line in lines[-41:]] == vgrid.values[-1].tolist()


def test_each_row_differenced_once(spec31, vgrid400, monkeypatch):
    # f = x1 - y reads neither z nor u, so a step differences its known
    # row only for the first pick: one call for the terminal row and one
    # per solve
    calls = []
    differences = H._neg_differences

    def counted(v):
        calls.append(None)
        return differences(v)

    monkeypatch.setattr(H, "_neg_differences", counted)
    vg = H.solve_hjb_fd(spec31, 2.0, 400, vgrid400.grid)
    assert vg.policy_solves == vg.grid.steps == 400
    assert len(calls) == 401


def test_mid_sweep_refusal_names_a_passing_step_count():
    # the refusal's N meets the rule at every step time of its candidate
    # grids, so one rerun with it is not refused again
    spec = _oscillating_sigma()
    grid = F.TimeGrid(0.0, 1.0, _FIRST_LEVEL_N)
    with pytest.raises(H.CFLError, match="use at least N") as err:
        H.solve_hjb_fd(spec, 2.0, 20, grid)
    n_required = err.value.n_required
    assert n_required > grid.steps
    vg = H.solve_hjb_fd(spec, 2.0, 20, F.TimeGrid(0.0, 1.0, n_required))
    assert vg.cfl_ratio <= 0.5
    assert np.all(np.isfinite(vg.values))


def test_cfl_time_grid_passes_every_step_of_time_dependent_coefficients():
    spec = _oscillating_sigma()
    grid = H.cfl_time_grid(spec, 2.0, 20)
    assert grid.steps > 2 * _FIRST_LEVEL_N
    vg = H.solve_hjb_fd(spec, 2.0, 20, grid)
    assert vg.cfl_ratio <= 0.5
    assert np.all(np.isfinite(vg.values))


def test_solve_builds_one_sweep(spec31, monkeypatch):
    grid = H.cfl_time_grid(spec31, 2.0, 100)
    built = []

    class CountingSweep(H._Sweep):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(H, "_Sweep", CountingSweep)
    H.solve_hjb_fd(spec31, 2.0, 100, grid)
    assert len(built) == 1


def test_static_rule_and_phi_computed_once(monkeypatch):
    # example31's b and f ignore time: the N rule is computed once for all
    # the candidate grids' levels, and phi once by the grid's sweep and
    # once by the solve's, whose terminal row is that sweep's own
    spec = P.builtin_problem("example31")
    rule, computed = H._Sweep.rule_dt.__wrapped__, []

    def rule_dt(self, t):
        computed.append(t)
        return rule(self, t)

    monkeypatch.setattr(H._Sweep, "rule_dt", H._per_level(rule_dt))
    calls = _counting(spec, ("terminal",))
    grid = H.cfl_time_grid(spec, 2.0, 400)
    assert grid.steps == 400
    assert len(computed) == 1 and calls == {"terminal": 1}
    vg = H.solve_hjb_fd(spec, 2.0, 400, grid)
    assert calls == {"terminal": 2}
    assert np.array_equal(vg.values[-1], -spec.terminal(vg.xs[:, None]))


def test_time_dependent_solve_evaluates_b_once_per_step():
    # b grows with s: once per step, where the step's rows, its bound and
    # the end rows' share of it read the level's b; no scan before the sweep
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1 * (1 + s)"], ["x1"], "x1 - y", "x1"
    )
    half_width = 2.0
    grid = H.cfl_time_grid(spec, half_width, 100)
    drift, calls = spec.drift, []

    def counted(*args):
        calls.append(args[0])
        return drift(*args)

    spec.drift = counted
    H.solve_hjb_fd(spec, half_width, 100, grid)
    assert len(calls) == grid.steps


def _counting(spec, names):
    """Replace spec's evaluators `names` by wrappers that count calls."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in names:
        setattr(spec, name, counted(name, getattr(spec, name)))
    return calls


def test_hjb_stage_evaluates_time_dependent_sigma_once_per_level():
    # sigma = x1 * (1 + s) depends on time and b = x1 * u1 does not: the
    # stage, its grid and then its solve, evaluates sigma once per level,
    # in the solve, and b once in each, the grid's for its Courant number
    # and the end rows' bound
    spec, half_width = _sweep_problem("time_dependent")
    calls = _counting(spec, ("drift", "diffusion"))
    grid = H.cfl_time_grid(spec, half_width, 100)
    H.solve_hjb_fd(spec, half_width, 100, grid)
    assert grid.steps == 100
    assert calls == {"drift": 2, "diffusion": grid.steps}


def test_static_solve_evaluates_and_scales_coefficients_once(monkeypatch):
    # b, sigma and f ignore time: one evaluation of each, and one set of
    # implicit rows, for the whole sweep; f = x1 - y reads no z, so f_z
    # is not evaluated
    spec = P.builtin_problem("example31")
    grid = H.cfl_time_grid(spec, 2.0, 100)
    calls = _counting(spec, ("drift", "diffusion", "driver_y", "driver_z"))
    built, rows = [], H._Level

    def level(*args):
        built.append(args)
        return rows(*args)

    monkeypatch.setattr(H, "_Level", level)
    H.solve_hjb_fd(spec, 2.0, 100, grid)
    assert calls == {"drift": 1, "diffusion": 1, "driver_y": 1, "driver_z": 0}
    assert len(built) == 1


def test_cfl_ratio_is_against_the_tightest_step_bound():
    # f = x1 - y + z1 has f_y = -1 and f_z = 1, so the bound of level t
    # is dx / |sigma(t)| with sigma = 1 + 5 sin(20 t)
    spec = _oscillating_sigma()
    grid = H.cfl_time_grid(spec, 2.0, 20)
    vg = H.solve_hjb_fd(spec, 2.0, 20, grid)
    dx = 4.0 / 20
    tightest = np.min(dx / np.abs(1.0 + 5.0 * np.sin(20.0 * grid.times[1:])))
    assert vg.cfl_ratio == pytest.approx(grid.dt / tightest, rel=1e-12)


def test_non_finite_value_refused_at_its_time_level():
    # f is +inf at every node, so the first step, at time level N - 1,
    # leaves -inf; the refusal names that level and no step warns
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"], "x1 - y + 1e308 * 10", "x1"
    )
    grid = H.cfl_time_grid(spec, 2.0, 20)
    assert grid.steps == 20
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(P.ProblemError, match="non-finite value at time level 19"):
            H.solve_hjb_fd(spec, 2.0, 20, grid)


def test_zero_pivot_refused_at_its_time_level():
    # u = 1 only and b = x1 points out of [-2, 2] at both ends; with f_y = 0
    # and dt |b| / dx = 1 there the end rows' diagonal is 0
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [1.0], [1.0], ["x1 * u1"], ["x1"], "x1", "x1"
    )
    grid = F.TimeGrid(0.0, 1.0, 10)
    with pytest.raises(P.ProblemError, match="zero pivot at time level 9"):
        H.solve_hjb_fd(spec, 2.0, 20, grid)
    # the N rule keeps dt |b| / dx at 1/2
    assert H.cfl_time_grid(spec, 2.0, 20).steps == 20


def test_policy_iteration_cap_names_the_level(monkeypatch):
    # two_controls_corners needs more than one solve at some levels
    spec, half_width = _sweep_problem("two_controls_corners")
    grid = H.cfl_time_grid(spec, half_width, 40)
    vg = H.solve_hjb_fd(spec, half_width, 40, grid)
    assert vg.max_level_solves > 1 and vg.policy_solves > grid.steps
    monkeypatch.setattr(H, "_POLICY_SOLVES", 1)
    with pytest.raises(H.PolicyError, match="at time level") as err:
        H.solve_hjb_fd(spec, half_width, 40, grid)
    assert isinstance(err.value, P.ProblemError)
    assert 0 <= err.value.level < grid.steps


def _thomas(lower, diag, upper, rhs):
    """Textbook Thomas elimination and substitution in one pass."""
    n = len(diag)
    lower, diag, upper, x = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    ratio = [0.0] * n
    pivot = diag[0]
    ratio[0] = upper[0] / pivot
    x[0] /= pivot
    for j in range(1, n):
        pivot = diag[j] - lower[j] * ratio[j - 1]
        ratio[j] = upper[j] / pivot
        x[j] = (x[j] - lower[j] * x[j - 1]) / pivot
    for j in range(n - 2, -1, -1):
        x[j] -= ratio[j] * x[j + 1]
    return np.array(x)


def test_factor_and_substitute_bit_identical_to_one_pass_thomas():
    rng = np.random.default_rng(21)
    n = 401
    lower, upper = -rng.random(n), -rng.random(n)
    lower[0] = upper[-1] = 0.0
    diag = 1.0 + rng.random(n) - lower - upper
    factors = H._factor(lower, diag, upper)
    assert all(type(part) is list for part in factors)
    for _ in range(3):
        rhs = rng.standard_normal(n)
        assert np.array_equal(H._substitute(factors, rhs), _thomas(lower, diag, upper, rhs))
    with pytest.raises(ZeroDivisionError):
        H._factor(np.zeros(3), np.array([1.0, 0.0, 1.0]), np.zeros(3))


def _level_terms(sweep, grid):
    """Every array and number the sweep's per-level terms give at the
    grid's levels, in the solve's order."""
    terms = []
    for t in grid.times[:0:-1]:
        terms += [*sweep._drift(t), *sweep._diffusion(t), *sweep.slopes(t)]
        terms += [sweep.rule_dt(t), *sweep.level(t, grid.dt)]
    return terms


@pytest.mark.parametrize(
    "name, n_cells",
    [
        ("example31", 400), ("two_controls_corners", 40), ("time_dependent", 40),
        ("drift_time", 40), ("driver_time_z", 40), ("diffusion_time_z", 40),
    ],
)
def test_kept_factorization_bit_identical_to_factoring_every_solve(
    name, n_cells, monkeypatch
):
    # the reference replaces every `_per_level` term of the sweep by its
    # undecorated function: no term is kept, so a static flag that wrongly
    # keeps a term across time levels shows as a difference
    spec, half_width = _sweep_problem(name)
    grid = H.cfl_time_grid(spec, half_width, n_cells)
    kept = H.solve_hjb_fd(spec, half_width, n_cells, grid)
    terms = _level_terms(H._Sweep(spec, half_width, n_cells, 0.0), grid)
    per_level = {
        key: term.__wrapped__
        for key, term in vars(H._Sweep).items()
        if hasattr(term, "__wrapped__")
    }
    assert set(per_level) == {
        "_drift", "_diffusion", "slopes", "rule_dt", "level", "factors"
    }
    for key, compute in per_level.items():
        monkeypatch.setattr(H._Sweep, key, compute)
    assert H.cfl_time_grid(spec, half_width, n_cells).steps == grid.steps
    ref = H.solve_hjb_fd(spec, half_width, n_cells, grid)
    assert np.array_equal(kept.values, ref.values)
    assert (kept.policy_solves, kept.max_level_solves) == (
        ref.policy_solves, ref.max_level_solves
    )
    assert ref.factorizations == ref.policy_solves
    ref_terms = _level_terms(H._Sweep(spec, half_width, n_cells, 0.0), grid)
    assert len(terms) == len(ref_terms)
    for got, want in zip(terms, ref_terms):
        assert np.array_equal(got, want)
    if name == "two_controls_corners":
        # levels that take several solves: a moved policy factors again,
        # a policy that stays across levels does not
        assert kept.max_level_solves > 1
        assert 1 < kept.factorizations < grid.steps


def _count_factor(monkeypatch):
    calls = []
    factor = H._factor

    def counted(*args):
        calls.append(1)
        return factor(*args)

    monkeypatch.setattr(H, "_factor", counted)
    return calls


def test_static_level_with_a_settled_policy_factors_once(spec31, monkeypatch):
    calls = _count_factor(monkeypatch)
    grid = H.cfl_time_grid(spec31, 2.0, 400)
    vg = H.solve_hjb_fd(spec31, 2.0, 400, grid)
    assert vg.policy_solves == grid.steps == 400
    assert len(calls) == vg.factorizations == 1


def test_time_dependent_rows_factor_at_every_solve(monkeypatch):
    calls = _count_factor(monkeypatch)
    spec, half_width = _sweep_problem("time_dependent")
    grid = H.cfl_time_grid(spec, half_width, 100)
    vg = H.solve_hjb_fd(spec, half_width, 100, grid)
    assert vg.policy_solves > grid.steps
    assert len(calls) == vg.factorizations == vg.policy_solves


def _pick_by_argmax(g, policy):
    """The re-pick as the argmax and the tie rule alone."""
    nodes = np.arange(g.shape[1])
    best = g.argmax(axis=0)
    return np.where(g[policy, nodes] >= g[best, nodes], policy, best)


def test_pick_keeps_ties_moves_on_larger_rows_and_follows_argmax_on_nan(spec31):
    # h = bd = 0 and zero differences leave G's rows equal to `extra`
    sweep = H._Sweep(spec31, 1.0, 2, 0.0)
    zeros = np.zeros((2, 3))
    rows = H._Level(None, None, None, zeros, zeros, np.zeros((2, 3), int), None, None, None)
    nd = np.zeros(4)

    def pick(g, policy):
        return sweep._pick(rows, nd, np.array(g, dtype=float), policy)

    # a tie keeps the given policy, the very object
    policy = np.array([1, 0, 1])
    assert pick([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], policy) is policy
    # a strictly larger row moves its node only
    g = [[1.0, 5.0, 3.0], [2.0, 2.0, 3.0]]
    policy = np.array([0, 0, 0])
    moved = pick(g, policy)
    assert moved.tolist() == [1, 0, 0]
    assert np.array_equal(moved, _pick_by_argmax(np.array(g), policy))
    # NaN: what the argmax and the tie rule give
    g = [[np.nan, 1.0, 0.0], [0.0, np.nan, 1.0]]
    for policy in ([0, 0, 0], [1, 0, 1]):
        policy = np.array(policy)
        got = pick(g, policy)
        assert got is not policy
        assert np.array_equal(got, _pick_by_argmax(np.array(g), policy))
    assert pick(g, np.array([0, 0, 0])).tolist() == [0, 1, 1]


def test_outflow_beyond_the_end_row_bound_refused():
    # u = 1 only, b = sigma = x1 and f = x1: f_y = 0 and f_z = 0, so only
    # the end rows bound the step, where b = 2 points out of [-2, 2] and
    # their diagonal is 1 - dt |b| / dx (dx = 0.2): the bound is
    # dt <= 0.1, a Courant number of 1
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [1.0], [1.0], ["x1"], ["x1"], "x1", "x1"
    )
    assert H.cfl_max_dt(spec, 2.0, 20) == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(H.CFLError, match="use at least N = 20 ") as err:
        H.solve_hjb_fd(spec, 2.0, 20, F.TimeGrid(0.0, 1.0, 5))
    assert err.value.dt_max == pytest.approx(0.1, rel=1e-12)
    # beyond the bound the end rows' negative diagonal lowers interior
    # nodes when the known level rises; within it none is lowered
    xs = np.linspace(-2.0, 2.0, 21)
    assert _decreasing_nodes(spec, xs, -xs, 1.0, 0.2) != set()
    assert _decreasing_nodes(spec, xs, -xs, 1.0, 1.0 / 11.0) == set()
    vg = H.solve_hjb_fd(spec, 2.0, 20, F.TimeGrid(0.0, 1.0, 11))
    assert vg.cfl_ratio == pytest.approx(10.0 / 11.0, rel=1e-12)


def _decreasing_nodes(spec, xs, row, t, dt):
    """Interior nodes whose update at time level t decreases when the
    value of some single node is raised by 1e-3."""
    base = probes.sweep_step(spec, xs, row, t, dt)
    nodes = set()
    for m in range(xs.size):
        raised = row.copy()
        raised[m] += 1e-3
        upd = probes.sweep_step(spec, xs, raised, t, dt)
        nodes |= set(np.flatnonzero(upd[1:-1] < base[1:-1] - 1e-13) + 1)
    return nodes


def test_time_dependent_driver_bound_checked_each_step():
    # f_y = 40 sin(20 s)^2 peaks at 40 between the levels; at t = 1 it is
    # 33.3, and with the end rows' |b| / dx = 10 the bound is 1 / 43.3
    # there and 1/50 at the peaks: N = 44 passes the first step's bound
    # and not the peaks'
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"],
        "x1 + 40 * sin(20 * s) ^ 2 * y", "x1",
    )
    coarse = F.TimeGrid(0.0, 1.0, 44)
    sweep = H._Sweep(spec, 2.0, 20, 0.0)
    assert not H._exceeds(coarse.dt, sweep.slopes(1.0)[1])
    with pytest.raises(H.CFLError, match="use at least N"):
        H.solve_hjb_fd(spec, 2.0, 20, coarse)
    grid = H.cfl_time_grid(spec, 2.0, 20)
    vg = H.solve_hjb_fd(spec, 2.0, 20, grid)
    assert vg.cfl_ratio <= 0.5
    # the last peak before T, at s = 11 pi / 40
    i = int(np.argmin(np.abs(grid.times - 11.0 * np.pi / 40.0)))
    t, row = grid.times[i], vg.values[i]
    assert _decreasing_nodes(spec, vg.xs, row, t, grid.dt) == set()
    assert _decreasing_nodes(spec, vg.xs, row, t, coarse.dt) != set()
