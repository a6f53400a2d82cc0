import warnings

import numpy as np
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
    grid = H.cfl_time_grid(spec, 1.0, 50, 3)
    vg = H.solve_hjb_fd(spec, 1.0, 50, grid, 3)
    assert np.array_equal(vg.values, np.tile(-vg.xs, (grid.steps + 1, 1)))


def test_cfl_violation_refused(spec31):
    with pytest.raises(H.CFLError, match="use at least N"):
        H.solve_hjb_fd(spec31, 2.0, 400, F.TimeGrid(0.0, 1.0, 100), 11)


def _oscillating_sigma():
    return P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["1 + 5 * sin(20 * s)"],
        "x1 - y", "x1",
    )


# Too coarse for `_oscillating_sigma` at L = 2: the N of a bound taken
# from sigma at five time levels only, where sigma^2 is at most 30.9;
# between them it reaches 36, so dt is 1.16 times too large at the worst
# steps.
_FIVE_LEVEL_N = {20: 786, 100: 19405}


def test_time_dependent_cfl_checked_each_step():
    spec = _oscillating_sigma()
    grid = F.TimeGrid(0.0, 1.0, _FIVE_LEVEL_N[100])
    with pytest.raises(H.CFLError, match="use at least N") as err:
        H.solve_hjb_fd(spec, 2.0, 100, grid, 11)
    assert err.value.n_required > grid.steps
    fine = F.TimeGrid(0.0, 1.0, 2 * grid.steps)
    vg = H.solve_hjb_fd(spec, 2.0, 100, fine, 11)
    assert np.all(np.isfinite(vg.values))


def _reference_step(spec, xs, v, t, dt, controls):
    """The explicit update written as a plain loop over the controls, in
    the sweep's arithmetic: raw differences, coefficients divided by dx."""
    dx = xs[1] - xs[0]
    vp = np.concatenate(([2.0 * v[0] - v[1]], v, [2.0 * v[-1] - v[-2]]))
    nd = vp[:-1] - vp[1:]  # minus the backward (nd[:-1]) or forward (nd[1:])
    neg_dxx = nd[1:] - nd[:-1]
    x_cols = xs[:, None]
    best = None
    for u in controls:
        uu = np.broadcast_to(u, (xs.size, spec.k))
        b = spec.drift(t, x_cols, uu)[:, 0]
        sg = spec.diffusion(t, x_cols, uu)[:, 0, 0]
        p = np.where(b >= 0.0, nd[1:], nd[:-1])
        fval = spec.driver(t, x_cols, -v, ((sg / dx) * p)[:, None], uu)
        g = 0.5 * sg * sg / (dx * dx) * neg_dxx + p * (b / dx) + fval
        best = g if best is None else np.maximum(best, g)
    return v - dt * best


def _divided_reference_step(spec, xs, v, t, dt, controls):
    """The explicit update as a plain loop over the controls, on
    differences divided by dx: the same scheme up to rounding."""
    dx = xs[1] - xs[0]
    vp = np.concatenate(([2.0 * v[0] - v[1]], v, [2.0 * v[-1] - v[-2]]))
    dxx = (vp[2:] - 2.0 * vp[1:-1] + vp[:-2]) / (dx * dx)
    fwd = (vp[2:] - vp[1:-1]) / dx
    bwd = (vp[1:-1] - vp[:-2]) / dx
    x_cols = xs[:, None]
    best = None
    for u in controls:
        uu = np.broadcast_to(u, (xs.size, spec.k))
        b = spec.drift(t, x_cols, uu)[:, 0]
        sg = spec.diffusion(t, x_cols, uu)[:, 0, 0]
        d1 = np.where(b >= 0.0, fwd, bwd)
        fval = spec.driver(t, x_cols, -v, (-sg * d1)[:, None], uu)
        g = 0.5 * sg * sg * (-dxx) + (-d1) * b + fval
        best = g if best is None else np.maximum(best, g)
    return v - dt * best


def _reference_solve(reference_step, spec, xs, grid, controls):
    values = np.empty((grid.steps + 1, xs.size))
    values[-1] = -spec.terminal(xs[:, None])
    for i in range(grid.steps - 1, -1, -1):
        values[i] = reference_step(
            spec, xs, values[i + 1], grid.times[i + 1], grid.dt, controls
        )
    return values


# two controls, b and sigma static and a driver without z and u: the
# sweep keeps only the rows that can attain the maximum, this many of 121
_PRUNED_PROBLEMS = {
    "two_controls_corners": (["x1 * u1"], ["1 + u2"], "cos(x1) - y", 6),
    "two_controls_mixed": (["x1 * u1 + 0.3 * u2"], ["1 + u2 * x1"], "x1 - y", 75),
}


def _sweep_problem(name):
    if name == "time_dependent":
        # sigma grows with s, so each step has its own CFL bound
        return P.spec_from_expressions(
            1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1 * (1 + s)"],
            "x1 - y + u1", "x1",
        ), 2.0
    if name in _PRUNED_PROBLEMS:
        b, sigma, f, _ = _PRUNED_PROBLEMS[name]
        return P.spec_from_expressions(
            1, 1, 2, 1.0, [0.0, 0.0], [1.0, 1.0], b, sigma, f, "x1"
        ), 2.0
    return P.builtin_problem(name), 2.0 if name == "example31" else 4.0


@pytest.mark.parametrize(
    "name", ["example31", "smooth1d", "time_dependent", *_PRUNED_PROBLEMS]
)
def test_sweep_bit_identical_to_per_control_loop(name):
    spec, half_width = _sweep_problem(name)
    grid = H.cfl_time_grid(spec, half_width, 40, 11)
    vg = H.solve_hjb_fd(spec, half_width, 40, grid, 11)
    controls = P.control_grid(spec, 11)
    if name in _PRUNED_PROBLEMS:
        kept = H._Sweep(spec, vg.xs, controls).controls
        assert len(kept) == _PRUNED_PROBLEMS[name][3]
    ref = _reference_solve(_reference_step, spec, vg.xs, grid, controls)
    assert np.array_equal(vg.values, ref)
    i = grid.steps // 2
    stepped = H.sweep_step(
        spec, vg.xs, ref[i + 1], grid.times[i + 1], grid.dt, 11
    )
    assert np.array_equal(stepped, ref[i])
    # dividing the differences instead of the coefficients moves only bits
    divided = _reference_solve(_divided_reference_step, spec, vg.xs, grid, controls)
    assert np.max(np.abs(vg.values - divided)) <= 1e-14 * np.max(np.abs(vg.values))


def test_pruning_keeps_the_rows_that_can_attain_the_maximum(spec31):
    xs = np.linspace(-2.0, 2.0, 401)
    controls = P.control_grid(spec31, 11)
    # u = 0 and u = 1 attain it where x >= 0, u = 0.1 and u = 1 where b < 0
    kept = H._Sweep(spec31, xs, controls).controls
    assert np.array_equal(kept[:, 0], [0.0, 0.1, 1.0])
    # a driver that reads u differs between rows: every row is kept
    reads_u = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"], "x1 - y + u1", "x1"
    )
    assert np.array_equal(H._Sweep(reads_u, xs, controls).controls, controls)


def test_multidimensional_state_rejected():
    spec = P.spec_from_expressions(
        2, 1, 1, 1.0, [0.0], [1.0], ["x1", "x2"], ["x1", "x2"], "y", "x1 + x2"
    )
    with pytest.raises(P.ProblemError, match="one-dimensional"):
        H.solve_hjb_fd(spec, 1.0, 10, F.TimeGrid(0.0, 1.0, 10000), 3)
    # before the coefficient scan, which reads sigma as one-dimensional
    with pytest.raises(P.ProblemError, match="one-dimensional"):
        H.cfl_time_grid(spec, 1.0, 10, 3)


def _g_row(spec, t, x, r, p, big_a, u):
    """G at one node and one control, from the sweep's G rows."""
    sweep = H._Sweep(spec, np.array([x]), np.array([[u]]))
    g = sweep.hamiltonian(t, r, np.array([p]), big_a)
    assert g.shape == (1,)
    return float(g[0])


def test_generalized_hamiltonian_hand_values(spec31):
    assert _g_row(spec31, 0.0, 1.0, 0.0, 0.0, 0.0, 0.7) == pytest.approx(1.0)
    assert _g_row(spec31, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0) == pytest.approx(0.0)
    # all-zero coefficients reduce G to the driver alone
    nul = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["0"], ["0"], "y + 2", "x1"
    )
    assert _g_row(nul, 0.2, 0.5, 1.5, 2.0, -3.0, 0.3) == pytest.approx(3.5)


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
    controls = P.control_grid(two, 11)
    assert controls.shape == (11, 2)
    assert np.array_equal(controls[:, 0], P.control_grid(one, 11)[:, 0])
    assert np.all(controls[:, 1] == 0.5)
    grid = H.cfl_time_grid(one, 2.0, 100)
    v1 = H.solve_hjb_fd(one, 2.0, 100, grid)
    v2 = H.solve_hjb_fd(two, 2.0, 100, grid)
    assert np.array_equal(v1.values, v2.values)


def test_update_monotone_in_neighbors(vgrid400, spec31):
    # bumping any single neighbor value upward never decreases the update
    xs = vgrid400.xs
    row = vgrid400.values[len(vgrid400.values) // 2].copy()
    dt = vgrid400.grid.dt
    base = H.sweep_step(spec31, xs, row, 0.9, dt, 11)
    rng = np.random.default_rng(3)
    for j in rng.integers(2, xs.size - 2, size=12):
        for nb in (-1, 0, 1):
            pert = row.copy()
            pert[j + nb] += 1e-3
            upd = H.sweep_step(spec31, xs, pert, 0.9, dt, 11)
            assert upd[j] >= base[j] - 1e-13, (j, nb)


def test_comparison_principle(spec31):
    # phi + 0.1 >= phi pointwise implies v(phi + 0.1) <= v(phi)
    shifted = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"], "x1 - y", "x1 + 0.1",
        lipschitz_hint=2.0,
    )
    grid = H.cfl_time_grid(spec31, 2.0, 50, 5)
    v_hi = H.solve_hjb_fd(shifted, 2.0, 50, grid, 5)
    v_lo = H.solve_hjb_fd(spec31, 2.0, 50, grid, 5)
    assert np.all(v_hi.values <= v_lo.values + 1e-12)


def test_consistency_residual_smooth_region(vgrid100, vgrid400, spec31):
    # the scheme reproduces the kinked solution exactly, so residuals on
    # x < 0 sit at the accumulation floor at both resolutions; genuine
    # O(dx) decay is unobservable below the floor
    floor = 1e-10
    residuals = []
    for vg in (vgrid100, vgrid400):
        i = vg.grid.steps // 2
        stepped = H.sweep_step(
            spec31, vg.xs, vg.values[i + 1], vg.grid.times[i + 1], vg.grid.dt, 11
        )
        res = np.abs(vg.values[i] - stepped) / vg.grid.dt
        residuals.append(res[vg.xs < -0.1].max())
    assert residuals[0] <= floor and residuals[1] <= floor or (
        residuals[0] / residuals[1] >= 1.5
    )


def test_viscosity_smooth_probes_both_sides(vgrid400, spec31):
    rep = H.viscosity_check(vgrid400, spec31, [(0.5, 1.0), (0.5, -1.0)], fit_radius=3)
    for point in rep.points:
        assert point.sub_residual == pytest.approx(0.0, abs=1e-9)
        assert point.super_residual == pytest.approx(0.0, abs=1e-9)
    assert rep.worst_violation <= 1e-9


def test_viscosity_kink_supersolution_vacuous(vgrid400, spec31):
    rep = H.viscosity_check(vgrid400, spec31, [(0.5, 0.0)], fit_radius=3)
    point = rep.points[0]
    assert point.super_residual is None  # no touching quadratic from below
    assert point.sub_residual is not None
    assert point.sub_residual <= 1e-9


def test_viscosity_convex_kink_opposite(spec31):
    # |x| has an empty super-jet at 0: from-above must be vacuous
    tg = F.TimeGrid(0.0, 1.0, 10)
    xs = np.linspace(-2, 2, 81)
    fake = H.ValueGrid(2.0, 80, tg, np.tile(np.abs(xs), (11, 1)), 3)
    nul = P.spec_from_expressions(1, 1, 1, 1.0, [0.0], [1.0], ["0"], ["0"], "0", "x1")
    point = H.viscosity_check(fake, nul, [(0.5, 0.0)], fit_radius=3).points[0]
    assert point.sub_residual is None
    assert point.super_residual is not None


def test_viscosity_constant_grid_null_equation():
    tg = F.TimeGrid(0.0, 1.0, 10)
    vals = np.full((11, 81), 1.5)
    fake = H.ValueGrid(2.0, 80, tg, vals, 3)
    nul = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["0"], ["0"], "0", "0 - 1.5"
    )
    point = H.viscosity_check(fake, nul, [(0.5, 0.0)], fit_radius=3).points[0]
    assert point.sub_residual == pytest.approx(0.0, abs=1e-12)
    assert point.super_residual == pytest.approx(0.0, abs=1e-12)


def test_viscosity_probe_validation(vgrid100, spec31):
    with pytest.raises(P.ProblemError, match="edge"):
        H.viscosity_check(vgrid100, spec31, [(1.0, 0.0)], fit_radius=3)
    with pytest.raises(P.ProblemError, match="fit_radius"):
        H.viscosity_check(vgrid100, spec31, [(0.5, 0.0)], fit_radius=1)


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
    # random values of both signs, over more than one block of rows
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 1.0, (2 * H._REGULARITY_BLOCK_ROWS + 7, 51))
    values *= rng.uniform(0.1, 10.0, 51)
    noisy = H.ValueGrid(3.0, 50, F.TimeGrid(0.0, 1.0, values.shape[0] - 1), values, 3)
    for vg in (vgrid400, noisy):
        assert H.regularity_probe(vg) == _regularity_full_array(vg)


def test_regularity_probe_degenerate_grids():
    tg = F.TimeGrid(0.0, 1.0, 1)
    xs = np.linspace(-1, 1, 11)
    zero = H.ValueGrid(1.0, 10, tg, np.zeros((2, 11)), 2)
    assert H.regularity_probe(zero) == (0.0, 0.0)
    # terminal slice only, phi(x) = x
    term = H.ValueGrid(1.0, 10, tg, (-xs)[None, :], 2)
    lip, _ = H.regularity_probe(term)
    assert lip == pytest.approx(1.0)


def test_value_grid_exports(tmp_path, vgrid100, spec31):
    csv = tmp_path / "grid.csv"
    H.value_grid_csv(vgrid100, csv, max_time_slices=11)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,x,v"
    assert len(lines) <= 1 + 13 * 101
    assert len([float(v) for v in lines[1].split(",")]) == 3
    meta = tmp_path / "meta.json"
    H.value_grid_meta_json(vgrid100, meta)
    import json

    data = json.loads(meta.read_text())
    assert data["J"] == 100
    assert data["cfl_ratio"] <= 1.0 + 1e-9
    assert data["cfl_ratio"] == vgrid100.cfl_ratio


def test_mid_sweep_refusal_names_a_passing_step_count():
    # the refusal checks sigma at every step time of its candidate grids,
    # so one rerun with its N is not refused again
    spec = _oscillating_sigma()
    grid = F.TimeGrid(0.0, 1.0, _FIVE_LEVEL_N[20])
    with pytest.raises(H.CFLError, match="use at least N") as err:
        H.solve_hjb_fd(spec, 2.0, 20, grid, 11)
    n_required = err.value.n_required
    assert n_required > grid.steps
    vg = H.solve_hjb_fd(spec, 2.0, 20, F.TimeGrid(0.0, 1.0, n_required), 11)
    assert vg.cfl_ratio <= 1.0
    assert np.all(np.isfinite(vg.values))


def test_cfl_time_grid_passes_every_step_of_time_dependent_coefficients():
    spec = _oscillating_sigma()
    grid = H.cfl_time_grid(spec, 2.0, 20, 11)
    assert grid.steps > _FIVE_LEVEL_N[20]
    vg = H.solve_hjb_fd(spec, 2.0, 20, grid, 11)
    assert vg.cfl_ratio <= 1.0
    assert np.all(np.isfinite(vg.values))


def test_solve_builds_one_sweep(spec31, monkeypatch):
    grid = H.cfl_time_grid(spec31, 2.0, 100, 11)
    built = []

    class CountingSweep(H._Sweep):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(H, "_Sweep", CountingSweep)
    H.solve_hjb_fd(spec31, 2.0, 100, grid, 11)
    assert len(built) == 1


def test_time_dependent_solve_evaluates_b_once_per_step():
    # once per step, where the step and its CFL bound share the level's
    # coefficients; no scan before the sweep
    spec, half_width = _sweep_problem("time_dependent")
    grid = H.cfl_time_grid(spec, half_width, 100, 11)
    drift, calls = spec.drift, []

    def counted(*args):
        calls.append(args[0])
        return drift(*args)

    spec.drift = counted
    H.solve_hjb_fd(spec, half_width, 100, grid, 11)
    assert len(calls) == grid.steps


def test_static_solve_evaluates_and_scales_coefficients_once(monkeypatch):
    # b and sigma ignore time: one evaluation each, and one division of
    # them for the raw differences, for the whole sweep
    spec = P.builtin_problem("example31")
    grid = H.cfl_time_grid(spec, 2.0, 100, 11)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    spec.drift = counted("drift", spec.drift)
    spec.diffusion = counted("diffusion", spec.diffusion)
    monkeypatch.setattr(H._Sweep, "_scale", counted("scale", H._Sweep._scale))
    H.solve_hjb_fd(spec, 2.0, 100, grid, 11)
    assert sorted(calls) == ["diffusion", "drift", "scale"]


def test_cfl_ratio_is_against_the_tightest_step_bound():
    # sigma^2 = (1 + 5 sin(20 s))^2 peaks at 36; max |b| = 2 (x = 2,
    # u = 1), and f = x1 - y has f_y = -1 and f_z = 0, so the driver's
    # share is dx^2
    spec = _oscillating_sigma()
    grid = H.cfl_time_grid(spec, 2.0, 20, 11)
    vg = H.solve_hjb_fd(spec, 2.0, 20, grid, 11)
    dx = 4.0 / 20
    sig2 = (1.0 + 5.0 * np.sin(20.0 * grid.times[1:])) ** 2
    tightest = np.min(dx * dx / (sig2 + dx * 2.0 + dx * dx))
    assert vg.cfl_ratio == pytest.approx(grid.dt / tightest, rel=1e-12)


def test_non_finite_value_refused_at_its_time_level():
    # f is +inf at every node, so the first step, at time level N - 1,
    # leaves -inf; the refusal names that level and no step warns
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"], "x1 - y + 1e308 * 10", "x1"
    )
    grid = H.cfl_time_grid(spec, 2.0, 20, 11)
    assert grid.steps == 111
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(P.ProblemError, match="non-finite value at time level 110"):
            H.solve_hjb_fd(spec, 2.0, 20, grid, 11)


def _decreasing_nodes(spec, xs, row, t, dt):
    """Interior nodes whose update at time level t decreases when the
    value of some single node is raised by 1e-3."""
    base = H.sweep_step(spec, xs, row, t, dt, 11)
    nodes = set()
    for m in range(xs.size):
        raised = row.copy()
        raised[m] += 1e-3
        upd = H.sweep_step(spec, xs, raised, t, dt, 11)
        nodes |= set(np.flatnonzero(upd[1:-1] < base[1:-1] - 1e-13) + 1)
    return nodes


def test_time_dependent_driver_bound_checked_each_step():
    # |f_y| = 400 sin(20 s)^2 peaks at s = pi/40, between five levels
    # spread over [0, 1]; a bound with f_y from those levels alone gives
    # N = 478, whose steps near the peak are not monotone
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"],
        "x1 - 400 * sin(20 * s) ^ 2 * y", "x1",
    )
    with pytest.raises(H.CFLError, match="use at least N"):
        H.solve_hjb_fd(spec, 2.0, 20, F.TimeGrid(0.0, 1.0, 478), 11)
    grid = H.cfl_time_grid(spec, 2.0, 20, 11)
    vg = H.solve_hjb_fd(spec, 2.0, 20, grid, 11)
    assert vg.cfl_ratio <= 1.0
    i = int(np.argmin(np.abs(grid.times - np.pi / 40)))
    t, row = grid.times[i], vg.values[i]
    assert _decreasing_nodes(spec, vg.xs, row, t, grid.dt) == set()
    assert _decreasing_nodes(spec, vg.xs, row, t, 1.0 / 478) != set()
