"""Monotone explicit finite-difference solver for the value equation.

The generalized value PDE in one spatial dimension, with d noise columns,

    -v_t + sup_u G(t, x, -v, -v_x, -v_xx, u) = 0,   v(T, x) = -phi(x),
    G(t, x, r, p, A, u) = 0.5 |sigma|^2 A + p b + f(t, x, r, sigma^T p, u),

where |sigma|^2 = sum_j sigma_1j^2 and sigma^T p has components
sigma_1j p, is swept backward in time with upwind first differences
(side chosen by the sign of b), central second differences, and linear
extrapolation of the outermost two nodes as the boundary rule.  The
explicit update is monotone in the neighboring values provided dt
satisfies the CFL bound

    dt <= dx^2 / (max |sigma|^2 + dx max|b| + c0),

where c0 = dx max sum_j |sigma_1j f_zj| + dx^2 max|f_y| absorbs the
driver's dependence on its value and z arguments;
`cfl_max_dt` computes the bound by pre-scanning the grid, and the solver
refuses to run when it is violated.  The pre-scan samples b and sigma
at a few time levels only, so when they depend on time the sweep also
checks each step's dt against the bound of that step's own b and sigma
and refuses there.  One method, `_Sweep.hamiltonian`, evaluates G for
all controls of the grid at once, as (C, J+1) rows, one per control; the
sweep's step takes their maximum, the CFL pre-scan reads the same rows'
coefficients, and the viscosity probe evaluates G at a single node with
it.  Monotone schemes of
this type converge to the PDE's viscosity solution, which is why one is
used here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
    cfl_ratio: float = None  # grid.dt over the CFL bound; None if not solved

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


def _scan_coefficients(spec, half_width, n_cells, control_grid_size, t_start):
    """Max |b|, |sigma|^2 and driver-gradient magnitudes over the grid."""
    if spec.n != 1:
        raise ProblemError("the finite-difference solver is one-dimensional")
    xs = np.linspace(-half_width, half_width, n_cells + 1)
    sweep = _Sweep(spec, xs, control_grid(spec, control_grid_size))
    y_probe = -spec.terminal(sweep.x_cols)
    z_probe = np.zeros((xs.size, spec.d))
    max_b = max_sig2 = max_fy = max_sfz = 0.0
    for t in np.linspace(t_start, spec.horizon, 5):
        b, sg, _, half_s2 = sweep.coefficients(t)
        fy = spec.driver_y(t, sweep.x, y_probe, z_probe, sweep.u)
        fz = spec.driver_z(t, sweep.x, y_probe, z_probe, sweep.u)
        max_b = max(max_b, float(np.max(np.abs(b))))
        max_sig2 = max(max_sig2, 2.0 * float(np.max(half_s2)))
        max_fy = max(max_fy, float(np.max(np.abs(fy))))
        max_sfz = max(max_sfz, float(np.max(np.sum(np.abs(sg * fz), axis=-1))))
    return max_b, max_sig2, max_fy, max_sfz


def _dt_bound(dx, max_sig2, max_b, c0):
    denom = max_sig2 + dx * max_b + c0
    return np.inf if denom == 0.0 else dx * dx / denom


def _refuse_above(dt, dt_max, span):
    """Raise CFLError when dt exceeds the bound dt_max on [span[0], span[1]]."""
    if dt > dt_max * (1.0 + 1e-12):
        n_req = int(np.ceil((span[1] - span[0]) / dt_max))
        raise CFLError(dt, dt_max, n_req, span)


def _cfl_terms(spec, half_width, n_cells, control_grid_size, t_start):
    """(largest monotone dt, the driver's share c0 of the bound)."""
    dx = 2.0 * half_width / n_cells
    max_b, max_sig2, max_fy, max_sfz = _scan_coefficients(
        spec, half_width, n_cells, control_grid_size, t_start
    )
    c0 = dx * max_sfz + dx * dx * max_fy
    return _dt_bound(dx, max_sig2, max_b, c0), c0


def cfl_max_dt(spec, half_width, n_cells, control_grid_size=11, t_start=0.0):
    """Largest monotone time step for the explicit sweep on this grid."""
    return _cfl_terms(spec, half_width, n_cells, control_grid_size, t_start)[0]


def cfl_time_grid(spec, half_width, n_cells, control_grid_size=11, t_start=0.0):
    """TimeGrid on [t_start, T] with the smallest CFL-admissible step count."""
    dt_max = cfl_max_dt(spec, half_width, n_cells, control_grid_size, t_start)
    n = max(1, int(np.ceil((spec.horizon - t_start) / dt_max)))
    return TimeGrid(t_start, spec.horizon, n)


def _coefficients_static(spec):
    """True when the expression variables show b and sigma ignore time."""
    return "s" not in spec.b_variables | spec.sigma_variables


def _pad_linear(v):
    """Extend one ghost node per side by linear extrapolation."""
    return np.concatenate(
        ([2.0 * v[0] - v[1]], v, [2.0 * v[-1] - v[-2]])
    )


class _Sweep:
    """Backward-in-time sweep state with loop invariants hoisted.

    `hamiltonian` gives G's rows, one per control, as (C, J+1) arrays at
    the nodes `xs`; it needs no grid spacing, so `xs` may be one node.
    `step` takes spatial derivatives with upwind first differences
    (forward where b >= 0), central second differences, and
    linear-extrapolation ghost nodes at both ends, and updates with the
    maximum of G's rows.  When the problem's expression variables show b
    and sigma are time-independent, they are evaluated once; otherwise
    once per step, and with `c0` given each step's dt is checked against
    the CFL bound of that step's own b and sigma (the pre-scan samples
    only a few time levels).  When the driver ignores z and u it is
    evaluated once per call on (J+1,).
    """

    def __init__(self, spec, xs, controls, c0=None, span=None):
        self.spec = spec
        self.xs = xs
        self.c0 = c0
        self.span = span
        shape = (len(controls), xs.size)
        self.x_cols = xs[:, None]
        self.x = np.broadcast_to(xs[None, :, None], shape + (1,))
        self.u = np.broadcast_to(controls[:, None, :], shape + (spec.k,))
        self.f_reads_zu = any(v[0] in "zu" for v in spec.f_variables)
        self.zeros_z = np.zeros((xs.size, spec.d))
        self.static_coeffs = None
        if _coefficients_static(spec):
            self.static_coeffs = self.coefficients(0.0)

    def coefficients(self, t):
        """(b, sigma's row, upwind mask, |sigma|^2 / 2) at time t.

        Each is (C, J+1), one row per control, but sigma's row, which is
        (C, J+1, d).
        """
        if self.static_coeffs is not None:
            return self.static_coeffs
        b = self.spec.drift(t, self.x, self.u)[..., 0]
        sg = self.spec.diffusion(t, self.x, self.u)[..., 0, :]
        return b, sg, b >= 0.0, 0.5 * np.sum(sg * sg, axis=-1)

    def hamiltonian(self, t, r, p, big_a, coeffs=None):
        """G's rows: 0.5 |sigma|^2 A + p b + f(t, x, r, sigma^T p, u) per control."""
        b, sg, _, half_s2 = coeffs or self.coefficients(t)
        if self.f_reads_zu:
            fval = self.spec.driver(t, self.x, r, sg * p[..., None], self.u)
        else:
            fval = self.spec.driver(t, self.x_cols, r, self.zeros_z, self.u[0])
        return half_s2 * big_a + p * b + fval

    def step(self, v, t, dt):
        """One explicit update of a value row at known time level t."""
        dx = self.xs[1] - self.xs[0]
        vp = _pad_linear(v)
        dxx = (vp[2:] - 2.0 * vp[1:-1] + vp[:-2]) / (dx * dx)
        fwd = (vp[2:] - vp[1:-1]) / dx
        bwd = (vp[1:-1] - vp[:-2]) / dx
        coeffs = self.coefficients(t)
        b, _, up, half_s2 = coeffs
        if self.c0 is not None:
            max_sig2 = 2.0 * float(np.max(half_s2))
            dt_max = _dt_bound(dx, max_sig2, float(np.max(np.abs(b))), self.c0)
            _refuse_above(dt, dt_max, self.span)
        g = self.hamiltonian(t, -v, -np.where(up, fwd, bwd), -dxx, coeffs)
        return v - dt * g.max(axis=0)


def sweep_step(spec, xs, v, t, dt, control_grid_size=11):
    """Single explicit update of a value row (used directly by probes)."""
    return _Sweep(spec, xs, control_grid(spec, control_grid_size)).step(v, t, dt)


def solve_hjb_fd(spec, half_width, n_cells, grid, control_grid_size=11):
    """Solve the value PDE on [-L, L] x [grid.start, T].

    One-dimensional only (spec.n == 1); raises CFLError when grid.dt
    exceeds the monotonicity bound, before the sweep for the pre-scanned
    bound and, when b or sigma depend on time, at the first step whose
    own coefficients it exceeds.  The terminal row is -phi exactly.
    """
    controls = control_grid(spec, control_grid_size)
    if abs(grid.end - spec.horizon) > 1e-12:
        raise ProblemError("grid must end at the problem horizon")
    dt_max = cfl_max_dt(
        spec, half_width, n_cells, control_grid_size, t_start=grid.start
    )
    span = (grid.start, grid.end)
    _refuse_above(grid.dt, dt_max, span)

    c0 = None
    if not _coefficients_static(spec):
        # the per-step check needs the driver's share c0 of the bound;
        # cfl_max_dt returns the bound alone, so this scans once more
        _, c0 = _cfl_terms(
            spec, half_width, n_cells, control_grid_size, grid.start
        )
    xs = np.linspace(-half_width, half_width, n_cells + 1)
    sweep = _Sweep(spec, xs, controls, c0, span)
    times = grid.times
    n_steps = grid.steps
    values = np.empty((n_steps + 1, n_cells + 1))
    values[n_steps] = -spec.terminal(xs[:, None])
    for i in range(n_steps - 1, -1, -1):
        values[i] = sweep.step(values[i + 1], times[i + 1], grid.dt)
        if not np.all(np.isfinite(values[i])):
            raise ProblemError(f"non-finite value at time level {i}")
    return ValueGrid(
        space_half_width=half_width,
        n_cells=n_cells,
        grid=grid,
        values=values,
        control_grid_size=control_grid_size,
        cfl_ratio=grid.dt / dt_max,
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
        lhs = -phi_t + float(g.max())

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
    """(max adjacent slope, max |v| / (1 + |x|)) over all time slices."""
    dx = vgrid.dx
    weight = 1.0 + np.abs(vgrid.xs)[None, :]
    slopes, growths = [], []
    for i in range(0, vgrid.values.shape[0], _REGULARITY_BLOCK_ROWS):
        block = vgrid.values[i : i + _REGULARITY_BLOCK_ROWS]
        slopes.append((np.abs(np.diff(block, axis=1)) / dx).max())
        growths.append((np.abs(block) / weight).max())
    return float(np.max(slopes)), float(np.max(growths))


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
    xs = vgrid.xs.tolist()
    with open(path, "w") as fh:
        fh.write("t,x,v\n")
        for t, row in zip(times[idx].tolist(), vgrid.values[idx].tolist()):
            for x, v in zip(xs, row):
                fh.write(f"{t!r},{x!r},{v!r}\n")


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
