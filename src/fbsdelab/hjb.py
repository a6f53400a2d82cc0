"""Monotone explicit finite-difference solver for the value equation.

The generalized value PDE in one spatial dimension, with d noise columns,

    -v_t + sup_u G(t, x, -v, -v_x, -v_xx, u) = 0,   v(T, x) = -phi(x),
    G(t, x, r, p, A, u) = 0.5 |sigma|^2 A + p b + f(t, x, r, sigma^T p, u),

where |sigma|^2 = sum_j sigma_1j^2 and sigma^T p has components
sigma_1j p, is swept backward in time with upwind first differences
(side chosen by the sign of b), central second differences, and linear
extrapolation of the outermost two nodes as the boundary rule.  The
explicit update is monotone in the neighboring values at the interior
nodes provided each step's dt satisfies the CFL bound of its own time
level t,

    dt <= dx^2 / (max |sigma|^2 + dx max |b| + dx max |sigma f_z| + dx^2 max |f_y|),

with every term taken at t, the maxima over the grid's nodes and
controls, |sigma f_z| = sum_j |sigma_1j f_zj|, the nominal spacing
dx = 2L / J, and f_y and f_z at y = -phi(x), z = 0.  The last two terms,
the driver's share, are exact for drivers affine in (y, z).
`_Sweep.dt_bound` is that bound and the only place it is computed:
`solve_hjb_fd` refuses the first step that exceeds it, and
`cfl_time_grid` raises N until every step passes.  When b, sigma and f
ignore time the bound is one number.  Monotone schemes of this type
converge to the PDE's viscosity solution, which is why one is used here.
The end nodes are the exception: the ghost nodes 2 v_0 - v_1 and
2 v_J - v_{J-1} cancel the second difference there and fold into rows 0
and J a weight on v_1 (v_{J-1}) of dt b / dx (-dt b / dx), which is
negative wherever b points out of [-L, L], whatever dt.  So the update is
not monotone at nodes 0 and J, and the monotonicity tests probe interior
nodes only.

The step divides coefficients, not differences: it forms the raw
differences of the row once, nd = v_{j-1} - v_j over the padded row and
a = nd_{j+1} - nd_j, shared by every control's row, and each row reads
them with its coefficients divided once, b / dx, |sigma|^2 / (2 dx^2) and,
for a driver that reads z, sigma / dx.  That is once per sweep when b and
sigma ignore time and once per time level otherwise.

One method, `_Sweep.hamiltonian`, gives sup_u G over the controls of the
grid, the maximum of G's (C, J+1) rows, one per control, with a driver
that reads neither z nor u added once, after the maximum; the step
updates with it, the bound reads the rows' coefficients, and the
viscosity probe evaluates it at a single node.  When b and sigma ignore
time and the driver reads neither z nor u, the rows are cut once to the
controls that can attain sup_u G at some node: within one upwind side a
row of G is then monotone in (|sigma|^2 / 2, b), so a row that another
row of its side dominates in both, with the signs of A and p, is never
needed (`_attaining_rows`).  The rows it keeps give the same maximum,
bit for bit, also with the divided coefficients; for example31 they are
3 of 11.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .forward import TimeGrid
from .problem import ProblemError, control_grid


class CFLError(ProblemError):
    def __init__(self, dt, dt_max, n_required, span):
        self.dt_max = dt_max
        self.n_required = n_required
        super().__init__(
            f"time step {dt:.3e} violates the monotonicity bound {dt_max:.3e}; "
            f"use at least N = {n_required} steps on [{span[0]}, {span[1]}]"
        )


@dataclass
class ValueGrid:
    """Finite-difference value approximation on [-L, L] x time grid."""

    space_half_width: float
    n_cells: int
    grid: TimeGrid
    values: np.ndarray  # (N+1, J+1)
    control_grid_size: int
    # grid.dt over the tightest bound its steps met; None if not solved
    cfl_ratio: float = None

    @property
    def dx(self):
        return 2.0 * self.space_half_width / self.n_cells

    @property
    def xs(self):
        return np.linspace(
            -self.space_half_width, self.space_half_width, self.n_cells + 1
        )

    def slice_at(self, t):
        """(time index, value row) at the grid time nearest to t."""
        i = int(np.argmin(np.abs(self.grid.times - t)))
        return i, self.values[i]


def _exceeds(dt, dt_max):
    return dt > dt_max * (1.0 + 1e-12)


def _steps_for(span, dt_max):
    return max(1, int(np.ceil((span[1] - span[0]) / dt_max)))


def _grid_sweep(spec, half_width, n_cells, control_grid_size, t_start):
    """The sweep over the J+1 nodes of [-L, L] from t_start to T."""
    xs = np.linspace(-half_width, half_width, n_cells + 1)
    return _Sweep(spec, xs, control_grid(spec, control_grid_size), t_start)


def cfl_max_dt(spec, half_width, n_cells, control_grid_size=11, t_start=0.0):
    """The tightest CFL bound over the steps of `cfl_time_grid`'s grid."""
    sweep = _grid_sweep(spec, half_width, n_cells, control_grid_size, t_start)
    return min(map(sweep.dt_bound, sweep.passing_grid().times[1:]))


def cfl_time_grid(spec, half_width, n_cells, control_grid_size=11, t_start=0.0):
    """TimeGrid on [t_start, T] whose every step passes the CFL bound of its
    own time level, as `solve_hjb_fd` checks it."""
    sweep = _grid_sweep(spec, half_width, n_cells, control_grid_size, t_start)
    return sweep.passing_grid()


def _coefficients_static(spec):
    """True when the expression variables show b and sigma ignore time."""
    return "s" not in spec.b_variables | spec.sigma_variables


def _attaining_rows(b, half_s2):
    """Indices of the rows of static (C, J+1) coefficients that can attain
    the maximum of G's rows at some node, when the driver reads neither z
    nor u.

    At one node and within one upwind side (b >= 0 or b < 0) the rows then
    share `step`'s raw differences a and nd, which carry the signs of A
    and p, and the driver value, so with h_c = |sigma_c|^2 / 2 row c of G
    is F(h_c, b_c) = fl(fl(h_c / dx^2) a + fl(b_c / dx) nd), monotone in
    each argument also under rounding: fl(h / dx^2) is monotone in h and
    fl(b / dx) in b, and the products with a and nd and their sum each
    round monotonically.  A row
    that another row of its side dominates -- is at least as large in
    both arguments, taken with the signs of A and p -- is therefore never
    above it, and the maximum is attained by an undominated row.  A row
    is kept when it is undominated at some node, on its side, for some
    pair of signs; of equal rows the first is kept.  The maximum over the
    kept rows equals the maximum over all in value (a zero could differ
    in sign only).  The vertices of each side's convex hull, where a
    linear G attains its maximum, are among the rows kept.  A row with a
    non-finite coefficient is always kept, so the sweep still meets it.
    """
    keep = ~(np.isfinite(b).all(axis=1) & np.isfinite(half_s2).all(axis=1))
    up = b >= 0.0
    no_row = np.full((1, b.shape[1]), -np.inf)
    for side in (up, ~up):
        for sign_h, sign_b in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
            hh = np.where(side, sign_h * half_s2, -np.inf)
            bb = np.where(side, sign_b * b, -np.inf)
            # per node, rows by hh and then bb, both descending; stable
            order = np.lexsort((-bb, -hh), axis=0)
            bb = np.take_along_axis(bb, order, axis=0)
            best_before = np.maximum.accumulate(np.concatenate((no_row, bb[:-1])))
            keep[order[bb > best_before]] = True
    return np.flatnonzero(keep)


class _Sweep:
    """Backward-in-time sweep state with loop invariants hoisted.

    `hamiltonian` gives sup_u G at the nodes `xs`, the maximum of G's
    rows, one per control; it needs no grid spacing, so `xs` may be one
    node.  `step` writes the row and its two linear-extrapolation ghost
    nodes into one buffer and takes two raw difference arrays, the
    negated first differences, from which each node gathers its upwind
    side's (forward where b >= 0) by the index array `coefficients`
    gives, and their differences, the negated central second
    differences; it updates with sup_u G of the coefficients divided by
    dx and dx^2 (`_scale`), so it divides no differences.  `dt_bound` is
    the CFL bound of one time level, from that level's own b, sigma,
    f_y and f_z, and `passing_grid` a grid on `span` = [t_start, T]
    whose every step passes it.  When the problem's expression variables
    show b and sigma are time-independent, they, the upwind gather and
    their divided forms (`static_scaled`) are computed once, otherwise
    once per step; the bound is computed once when f ignores time as
    well.  When the driver ignores z and u
    it is evaluated once per call on (J+1,), and when b and sigma are
    static as well the rows are cut once, here, to `_attaining_rows`;
    `controls` holds the rows kept.
    """

    def __init__(self, spec, xs, controls, t_start=0.0):
        if spec.n != 1:
            raise ProblemError("the finite-difference solver is one-dimensional")
        self.spec = spec
        self.xs = xs
        self.span = (t_start, spec.horizon)
        self.x_cols = xs[:, None]
        self.f_reads_zu = any(v[0] in "zu" for v in spec.f_variables)
        self.zeros_z = np.zeros((xs.size, spec.d))
        self._nodes = np.arange(xs.size)
        self._padded = np.empty(xs.size + 2)  # the row and one ghost node per side
        static = _coefficients_static(spec)
        self.static_coeffs = None
        self._static_bound = None
        self._bound_is_static = static and "s" not in spec.f_variables
        self._y_probe = -spec.terminal(self.x_cols)  # y = -phi(x)
        self._bind(controls)
        if static:
            self.static_coeffs = self.coefficients(0.0)
            if not self.f_reads_zu:
                b, _, _, half_s2 = self.static_coeffs
                keep = _attaining_rows(b, half_s2)
                self._bind(controls[keep])
                self.static_coeffs = tuple(c[keep] for c in self.static_coeffs)

    def _bind(self, controls):
        """Take `controls` as G's rows: (C, k), one control per row."""
        self.controls = controls
        shape = (len(controls), self.xs.size)
        self.x = np.broadcast_to(self.xs[None, :, None], shape + (1,))
        self.u = np.broadcast_to(controls[:, None, :], shape + (self.spec.k,))

    def coefficients(self, t):
        """(b, sigma's row, upwind gather, |sigma|^2 / 2) at time t.

        Each is (C, J+1), one row per control, but sigma's row, which is
        (C, J+1, d).  The gather holds, per node j, the index into `step`'s
        difference array of its upwind side: j + 1 where b >= 0, else j.
        """
        if self.static_coeffs is not None:
            return self.static_coeffs
        b = self.spec.drift(t, self.x, self.u)[..., 0]
        sg = self.spec.diffusion(t, self.x, self.u)[..., 0, :]
        return b, sg, self._nodes + (b >= 0.0), 0.5 * np.sum(sg * sg, axis=-1)

    def hamiltonian(self, t, r, p, big_a, coeffs=None):
        """sup_u G: per node the maximum over the controls' rows of
        0.5 |sigma|^2 A + p b + f(t, x, r, sigma^T p, u).  An f that reads
        neither z nor u is added after the maximum, which rounds the same
        because rounding a + f is monotone in a."""
        b, sg, _, half_s2 = coeffs or self.coefficients(t)
        if self.f_reads_zu:
            fval = self.spec.driver(t, self.x, r, sg * p[..., None], self.u)
            return (half_s2 * big_a + p * b + fval).max(axis=0)
        fval = self.spec.driver(t, self.x_cols, r, self.zeros_z, self.u[0])
        return (half_s2 * big_a + p * b).max(axis=0) + fval

    def step(self, v, t, dt, coeffs=None, out=None):
        """One explicit update of a value row at known time level t, into
        `out` when given.

        The differences stay raw: nd = vp[:-1] - vp[1:] over the padded
        row, whose nd[j] is minus the backward and nd[j + 1] minus the
        forward difference at node j, and a = nd[1:] - nd[:-1], minus the
        second difference.  Every row shares them; the rows divide their
        coefficients instead (`_scale`), so G's rows are
        |sigma|^2 / (2 dx^2) a + b / dx nd[gather].
        """
        vp = self._padded
        vp[0], vp[1:-1], vp[-1] = 2.0 * v[0] - v[1], v, 2.0 * v[-1] - v[-2]
        nd = vp[:-1] - vp[1:]
        scaled = self.static_scaled or self._scale(coeffs or self.coefficients(t))
        g = self.hamiltonian(t, -v, nd[scaled[2]], nd[1:] - nd[:-1], scaled)
        g *= dt
        return np.subtract(v, g, out=out)

    def _scale(self, coeffs):
        """`coefficients` divided for `step`'s raw differences: (b / dx,
        sigma's row / dx when the driver reads z or u, gather,
        |sigma|^2 / (2 dx^2)), with dx = xs[1] - xs[0]."""
        b, sg, gather, half_s2 = coeffs
        dx, dx2 = self._step_spacing
        return b / dx, sg / dx if self.f_reads_zu else sg, gather, half_s2 / dx2

    @cached_property
    def static_scaled(self):
        """`_scale` of the static coefficients, taken once on the first
        step; None when b or sigma depend on time."""
        return self.static_coeffs and self._scale(self.static_coeffs)

    @cached_property
    def _step_spacing(self):
        """(xs[1] - xs[0], its square): the spacing of `step`'s differences."""
        dx = self.xs[1] - self.xs[0]
        return dx, dx * dx

    @cached_property
    def dx(self):
        """The nominal spacing 2L / J, which `ValueGrid.dx` reports too."""
        return float(self.xs[-1] - self.xs[0]) / (self.xs.size - 1)

    def dt_bound(self, t, coeffs=None):
        """The CFL bound of time level t, from its own b and sigma (or
        `coeffs`, the level's `coefficients`) and its f_y and f_z."""
        if self._static_bound is not None:
            return self._static_bound
        b, sg, _, half_s2 = coeffs or self.coefficients(t)
        args = (t, self.x, self._y_probe, self.zeros_z, self.u)
        max_fy = float(np.max(np.abs(self.spec.driver_y(*args))))
        sfz = np.sum(np.abs(sg * self.spec.driver_z(*args)), axis=-1)
        dx, max_b, max_sfz = self.dx, float(np.max(np.abs(b))), float(np.max(sfz))
        driver_share = dx * max_sfz + dx * dx * max_fy
        denom = 2.0 * float(np.max(half_s2)) + dx * max_b + driver_share
        bound = np.inf if denom == 0.0 else dx * dx / denom
        if self._bound_is_static:
            self._static_bound = bound
        return bound

    def passing_grid(self):
        """TimeGrid on `span` whose every step passes its own CFL bound.

        Starts from one step, checks the bound at each step time of the
        candidate grid and raises N to the tightest bound seen until one
        grid passes every step.  For a static bound the first or the
        second candidate passes.
        """
        n = 1
        while True:
            grid = TimeGrid(*self.span, n)
            bound = min(map(self.dt_bound, grid.times[1:]))
            if not _exceeds(grid.dt, bound):
                return grid
            n = max(n + 1, _steps_for(self.span, bound))


def sweep_step(spec, xs, v, t, dt, control_grid_size=11):
    """Single explicit update of a value row (used directly by probes)."""
    return _Sweep(spec, xs, control_grid(spec, control_grid_size)).step(v, t, dt)


def solve_hjb_fd(spec, half_width, n_cells, grid, control_grid_size=11):
    """Solve the value PDE on [-L, L] x [grid.start, T].

    One-dimensional only (spec.n == 1).  Each step is checked against the
    CFL bound of its own time level (`_Sweep.dt_bound`, with dx = 2L / J)
    before it updates anything; the first step whose bound grid.dt
    exceeds raises CFLError, whose `n_required` passes every step.  The
    result's `cfl_ratio` is grid.dt over the tightest bound the steps
    met.  The terminal row is -phi exactly.
    """
    if abs(grid.end - spec.horizon) > 1e-12:
        raise ProblemError("grid must end at the problem horizon")
    sweep = _grid_sweep(spec, half_width, n_cells, control_grid_size, grid.start)
    times, dt = grid.times, grid.dt
    values = np.empty((grid.steps + 1, n_cells + 1))
    values[-1] = -spec.terminal(sweep.x_cols)
    tightest = np.inf
    for i in range(grid.steps - 1, -1, -1):
        t = times[i + 1]
        coeffs = sweep.coefficients(t)
        bound = sweep.dt_bound(t, coeffs)
        if bound < tightest:  # a looser bound passes where a tighter one did
            if _exceeds(dt, bound):
                raise CFLError(dt, bound, sweep.passing_grid().steps, sweep.span)
            tightest = bound
        sweep.step(values[i + 1], t, dt, coeffs, out=values[i])
        if not np.isfinite(values[i]).all():
            raise ProblemError(f"non-finite value at time level {i}")
    return ValueGrid(
        space_half_width=half_width,
        n_cells=n_cells,
        grid=grid,
        values=values,
        control_grid_size=control_grid_size,
        cfl_ratio=dt / tightest,
    )


# --------------------------------------------------------------------------
# Viscosity-inequality probes
# --------------------------------------------------------------------------


@dataclass
class ProbeResult:
    t: float
    x: float
    sub_residual: float = None  # None: no test function touches from above
    super_residual: float = None  # None: no test function touches from below


@dataclass
class ViscosityCheckReport:
    """Sub/supersolution residuals from locally fitted quadratics.

    At each probe point a full quadratic in (t, x) is least-squares
    fitted over the window; its linear part is then replaced by the
    midpoints of one-sided slopes at the probe (a least-squares slope is
    branch-averaged at a kink and no vertical shift can restore
    domination), and the result is shifted to touch the grid at the
    probe.  If it stays above (below) the grid on the window it is a
    valid from-above (from-below) test function; the corresponding
    inequality residual -phi_t + sup_u G(..., -phi_x, -phi_xx, u) should
    be <= 0 (>= 0).  worst_violation aggregates signed violations.
    """

    points: list
    worst_violation: float


_TOUCH_TOL = 1e-9
# quadratic-in-distance allowance: the touching notion is first-order
# (o(|x - x_hat|)), so remainders of order distance^2 -- e.g. the t|x|
# cross term a quadratic cannot represent at a kink -- must not veto a
# test function; 0.5 d^2 separates them from genuine first-order gaps
_TOUCH_CURVATURE = 0.5


def _one_sided_slope(vals, idx, h, side):
    """Two-step Richardson one-sided slope of a sampled axis at vals[idx]."""
    s1 = side * (vals[idx + side] - vals[idx]) / h
    s2 = side * (vals[idx + 2 * side] - vals[idx]) / (2.0 * h)
    return 2.0 * s1 - s2


def viscosity_check(vgrid, spec, probe_points, fit_radius=3):
    """Test the viscosity inequalities at interior probe points."""
    if fit_radius < 2:
        raise ProblemError("fit_radius must be >= 2")
    times = vgrid.grid.times
    xs = vgrid.xs
    v = vgrid.values
    n_t, n_x = v.shape
    results = []
    worst = 0.0
    controls = control_grid(spec, vgrid.control_grid_size)

    for t_probe, x_probe in probe_points:
        it = int(np.argmin(np.abs(times - t_probe)))
        jx = int(np.argmin(np.abs(xs - x_probe)))
        if not (
            fit_radius <= it < n_t - fit_radius
            and fit_radius <= jx < n_x - fit_radius
        ):
            raise ProblemError(
                f"probe point ({t_probe}, {x_probe}) too close to the grid edge"
            )
        t0, x0 = times[it], xs[jx]
        st = times[it + fit_radius] - times[it - fit_radius]
        sx = xs[jx + fit_radius] - xs[jx - fit_radius]
        window = v[
            it - fit_radius : it + fit_radius + 1,
            jx - fit_radius : jx + fit_radius + 1,
        ]
        tt = (times[it - fit_radius : it + fit_radius + 1] - t0) / st
        xx = (xs[jx - fit_radius : jx + fit_radius + 1] - x0) / sx
        tg, xg = np.meshgrid(tt, xx, indexing="ij")
        design = np.column_stack(
            [
                np.ones(tg.size),
                tg.ravel(),
                xg.ravel(),
                tg.ravel() ** 2,
                (tg * xg).ravel(),
                xg.ravel() ** 2,
            ]
        )
        coef, *_ = np.linalg.lstsq(design, window.ravel(), rcond=None)

        # replace the least-squares linear part by one-sided midpoints
        rc = fit_radius
        t_col = window[:, rc]
        x_row = window[rc, :]
        ht = times[it + 1] - times[it]
        hx = xs[jx + 1] - xs[jx]
        phi_t = 0.5 * (
            _one_sided_slope(t_col, rc, ht, +1) + _one_sided_slope(t_col, rc, ht, -1)
        )
        phi_x = 0.5 * (
            _one_sided_slope(x_row, rc, hx, +1) + _one_sided_slope(x_row, rc, hx, -1)
        )
        phi_xx = 2.0 * coef[5] / (sx * sx)
        coef = coef.copy()
        coef[1] = phi_t * st
        coef[2] = phi_x * sx

        fit = (design @ coef).reshape(window.shape)
        center = fit[rc, rc]
        gap = (fit - center + v[it, jx]) - window
        scale = 1.0 + np.max(np.abs(window))
        dt_off = (times[it - fit_radius : it + fit_radius + 1] - t0)[:, None]
        dx_off = (xs[jx - fit_radius : jx + fit_radius + 1] - x0)[None, :]
        allowance = _TOUCH_TOL * scale + _TOUCH_CURVATURE * (
            dt_off**2 + dx_off**2
        )

        # -phi_t + sup_u G(t0, x0, -v, -phi_x, -phi_xx, u), at one node
        g = _Sweep(spec, np.array([x0]), controls).hamiltonian(
            t0, -v[it, jx], np.array([-phi_x]), -phi_xx
        )
        lhs = -phi_t + float(g[0])

        res = ProbeResult(t=t0, x=x0)
        if np.all(gap >= -allowance):  # touches from above
            res.sub_residual = lhs
            worst = max(worst, res.sub_residual)
        if np.all(gap <= allowance):  # touches from below
            res.super_residual = lhs
            worst = max(worst, -res.super_residual)
        results.append(res)
    return ViscosityCheckReport(points=results, worst_violation=worst)


# time rows per block in regularity_probe: bounds its temporaries to a
# few MB where whole-grid temporaries are each as large as the grid
_REGULARITY_BLOCK_ROWS = 1024


def regularity_probe(vgrid):
    """(max adjacent slope, max |v| / (1 + |x|)) over all time slices.

    Division by dx and by 1 + |x| rounds monotonically, so the maxima of
    the quotients are the quotients of the maxima: the slope comes from
    the largest and smallest difference, the growth from each column's
    largest and smallest value, with no |.| or quotient array.
    """
    big = small = 0.0
    col_max = col_min = vgrid.values[0]
    for i in range(0, vgrid.values.shape[0], _REGULARITY_BLOCK_ROWS):
        block = vgrid.values[i : i + _REGULARITY_BLOCK_ROWS]
        diffs = np.diff(block, axis=1)
        big, small = np.maximum(big, diffs.max()), np.minimum(small, diffs.min())
        col_max = np.maximum(col_max, block.max(axis=0))
        col_min = np.minimum(col_min, block.min(axis=0))
    slope = np.maximum(big, -small) / vgrid.dx
    growth = np.maximum(col_max, -col_min) / (1.0 + np.abs(vgrid.xs))
    return float(slope), float(growth.max())


# --------------------------------------------------------------------------
# Exports
# --------------------------------------------------------------------------


def value_grid_csv(vgrid, path, max_time_slices=101):
    """CSV of (t, x, v) rows, downsampling time to at most max_time_slices."""
    times = vgrid.grid.times
    stride = max(1, int(np.ceil(times.size / max_time_slices)))
    idx = list(range(0, times.size, stride))
    if idx[-1] != times.size - 1:
        idx.append(times.size - 1)
    xs = [f",{x!r}," for x in vgrid.xs.tolist()]
    with open(path, "w") as fh:
        fh.write("t,x,v\n")
        for t, row in zip(times[idx].tolist(), vgrid.values[idx].tolist()):
            t = repr(t)
            fh.write("".join([f"{t}{x}{v!r}\n" for x, v in zip(xs, row)]))


def value_grid_meta_json(vgrid, path):
    meta = {
        "L": vgrid.space_half_width,
        "J": vgrid.n_cells,
        "N": vgrid.grid.steps,
        "control_grid_size": vgrid.control_grid_size,
        "dt": vgrid.grid.dt,
        "dx": vgrid.dx,
        "boundary_rule": "linear-extrapolation",
    }
    if vgrid.cfl_ratio is not None:
        meta["cfl_ratio"] = vgrid.cfl_ratio
    with open(path, "w") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")
