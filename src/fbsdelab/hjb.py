"""Monotone implicit finite-difference solver for the value equation.

The generalized value PDE in one spatial dimension, with d noise columns,

    -v_t + sup_u G(t, x, -v, -v_x, -v_xx, u) = 0,   v(T, x) = -phi(x),
    G(t, x, r, p, A, u) = 0.5 |sigma|^2 A + p b + f(t, x, r, sigma^T p, u),

where |sigma|^2 = sum_j sigma_1j^2 and sigma^T p has components
sigma_1j p, is swept backward in time on the J+1 nodes of [-L, L],
dx = 2L / J, with upwind first differences (side chosen by the sign of
b), central second differences, and linear extrapolation of the
outermost two nodes as the boundary rule (ghost nodes 2 v_0 - v_1 and
2 v_J - v_{J-1}).  A step goes from the known level v' at time t to v
at t - dt, with b, sigma, f and its slopes taken at t.  It is implicit
in the drift and diffusion:

    max_u (B_u v - r_u) = 0,   B_u = I - dt (L_u + f_y),   r_u = v' - dt c_u,

where L_u v is |sigma|^2 / 2 times the second difference of v plus b
times its upwind difference.  The driver is linearized in y at the
known level, f(t, x, -v, z', u) ~ f(t, x, -v', z', u) - f_y (v - v'),
so c_u = f(t, x, -v', z', u) + f_y v', with z' = sigma^T p' read from
the upwind differences of v': the driver's z and u part stays
explicit.  f_y and f_z are taken at y = -phi(x), z = 0; for a driver
affine in y the linearization is exact and its y part fully implicit
(example31's f = x - y gives c_u = x).

Interior row j of B_u is -dt (h + b^-/dx) v_{j-1} + (1 + dt (2 h +
|b|/dx - f_y)) v_j - dt (h + b^+/dx) v_{j+1}, with h = |sigma|^2 /
(2 dx^2): whatever dt its off-diagonal weights are never positive, and
its row sum is 1 - dt f_y.  The step is monotone in v' at the interior
nodes when each B_u is an M-matrix there, which holds for dt f_y < 1,
and each r_u is nondecreasing in v'.  For a driver affine in (y, z),
r_u = v' - dt f(t, x, 0, z', u), whose weight on v'_j is
1 - dt sigma f_z / dx on the side b picks, at least
1 - dt |sigma f_z| / dx with |sigma f_z| = sum_j |sigma_1j f_zj|.

The end nodes are the exception: the ghost nodes cancel the second
difference there and leave rows 0 and J as (1 + dt (b/dx - f_y)) v_0 -
dt b/dx v_1 and (1 - dt (b/dx + f_y)) v_J + dt b/dx v_{J-1}, whose
off-diagonal weight is positive wherever b points out of [-L, L],
whatever dt.  So the step is not monotone at nodes 0 and J, and the
monotonicity tests probe interior nodes only.  Eliminating v_0 and v_J
leaves M-matrix rows with a larger diagonal, and a right-hand side
nondecreasing in r_0 and r_J, as long as the end rows' own diagonal
stays positive: with b_out the part of b that points out (-b at node 0,
b at node J, where positive), dt (b_out/dx + f_y) < 1.  A negative end
diagonal instead lowers the next row's, and a rise of v' then lowers
interior nodes.  All of this holds when, at every node and control,

    dt (max(f_y, 0) + |sigma f_z| / dx) <= 1,
    and at nodes 0 and J,  dt (max(f_y, 0) + b_out / dx) <= 1,

the driver's explicit share and the end rows' outflow (at equality with
f_y >= 0 an end row's pivot is 0, which the solve refuses).  The
diffusion adds nothing, and the drift only at the end rows: in the
interior the step is unconditionally monotone in both.  `_Sweep.slopes`
computes that bound, dt_bound, of one time level, and is the only place
it is computed; `solve_hjb_fd` refuses the first step that exceeds it.
It is exact for drivers affine in (y, z), and it covers the own-node
weight only: the neighbor weight dt sigma f_z / dx of the z difference
is nonnegative only where sigma f_z has the sign of b.

N is chosen for accuracy, not by the bound: `cfl_time_grid` takes the
fewest steps whose dt meets, at every level, the Courant rule
dt max |b| / dx <= 1/2 and dt <= dt_bound / 2.  The Courant rule makes
dt of the order of dx, where the step's first-order errors in time and
space balance; halving dt_bound keeps the end rows' diagonal at least
1/2 for the Thomas solve and the rule apart from the refusal, so
`cfl_ratio` is at most 1/2 on the rule's grids.  On example31 at L = 2
(f_y = -1, f_z = 0, |b| = 2 pointing out at both ends) the bound is
dx / 2 and both parts of the rule give dx / 4: N = J, `cfl_ratio` 1/2.
The rule evaluates b and the bound once when they ignore time, and at
every level of its candidate grids otherwise; sigma only when the
driver reads z.

Each step is solved by policy iteration (Howard's algorithm).  The
policy, one row per node, starts from the previous level's (on the
first step, the rows that maximize G at the terminal level); the
tridiagonal system of its rows is solved by the Thomas algorithm, split
into the elimination (`_factor`) and the substitution of a right-hand
side (`_substitute`); each node re-picks the row that maximizes
B_u v - r_u, keeping its row on a tie, and the loop stops when no node
changes.  With M-matrix rows the iteration converges in finitely many
solves; past `_POLICY_SOLVES` solves a level raises PolicyError.  The
factorization is a term of the sweep's memo, like the level's rows, and
a solve factors again only when the level or the policy changes: a
problem whose rows ignore time keeps one factorization while its policy
stays, so a policy that settles and stays is factored once, while rows
that depend on time are factored at every solve.  A re-pick first
tests the policy's rows against the per-node maximum and returns the
policy itself when no node would move.  On example31 every level takes
one solve, and the sweep one factorization.

The policy step maximizes G's (C, J+1) rows, one per control of the
grid, written in the raw differences nd_j = v_{j-1} - v_j and
a = nd_{j+1} - nd_j: B_u v - r_u = v - v' + dt G_u with G_u = h a +
(b/dx) nd[upwind] + c_u - f_y v.  When the driver reads neither z nor
u, c_u - f_y v is the same for every row and is left out of the
maximum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import wraps
from typing import NamedTuple

import numpy as np

from .forward import TimeGrid
from .problem import CONTROL_GRID_SIZE, ProblemError, control_grid

# policy-iteration solves per time level before the step gives up
_POLICY_SOLVES = 50


class CFLError(ProblemError):
    def __init__(self, dt, dt_max, n_required, span):
        self.dt_max = dt_max
        self.n_required = n_required
        super().__init__(
            f"time step {dt:.3e} violates the monotonicity bound {dt_max:.3e}; "
            f"use at least N = {n_required} steps on [{span[0]}, {span[1]}]"
        )


class PolicyError(ProblemError):
    def __init__(self, level):
        self.level = level
        super().__init__(
            f"policy iteration did not settle in {_POLICY_SOLVES} solves "
            f"at time level {level}"
        )


@dataclass
class ValueGrid:
    """Finite-difference value approximation on [-L, L] x time grid, its
    sup over u taken on `control_grid`'s fixed grid of the control box."""

    space_half_width: float
    n_cells: int
    grid: TimeGrid
    values: np.ndarray  # (N+1, J+1)
    # grid.dt over the tightest monotonicity bound (`_Sweep.slopes`) its
    # steps met, 0 when no step had one; None if not solved
    cfl_ratio: float = None
    # tridiagonal solves of the policy iteration: in all, and at the
    # level that took the most; None if not solved
    policy_solves: int = None
    max_level_solves: int = None
    # factorizations of a policy's tridiagonal (`_factor`) those solves
    # took; None if not solved
    factorizations: int = None

    @property
    def dx(self):
        return 2.0 * self.space_half_width / self.n_cells

    @property
    def xs(self):
        return np.linspace(
            -self.space_half_width, self.space_half_width, self.n_cells + 1
        )


def _exceeds(dt, dt_max):
    return dt > dt_max * (1.0 + 1e-12)


def _steps_for(span, dt_max):
    return max(1, int(np.ceil((span[1] - span[0]) / dt_max)))


def cfl_max_dt(spec, half_width, n_cells, t_start=0.0):
    """The tightest monotonicity bound (`_Sweep.slopes`) over the steps of
    `cfl_time_grid`'s grid; inf when neither the driver's share nor the
    end rows' outflow bounds the step."""
    sweep = _Sweep(spec, half_width, n_cells, t_start)
    return min(sweep.slopes(t)[1] for t in sweep.passing_grid().times[1:])


def cfl_time_grid(spec, half_width, n_cells, t_start=0.0):
    """TimeGrid on [t_start, T] with the fewest steps that meet the N rule
    at every level: Courant number dt max |b| / dx <= 1/2 and half the
    monotonicity bound, both taken over every control of `control_grid`,
    so `solve_hjb_fd` never refuses it."""
    sweep = _Sweep(spec, half_width, n_cells, t_start)
    return sweep.passing_grid()


def _neg_differences(v):
    """nd over the row and its two ghost nodes: nd[j] = v_{j-1} - v_j, so
    nd[j] is minus the backward and nd[j + 1] minus the forward
    difference at node j; J+2 entries."""
    vp = np.concatenate(([2.0 * v[0] - v[1]], v, [2.0 * v[-1] - v[-2]]))
    return vp[:-1] - vp[1:]


def _factor(lower, diag, upper):
    """Gaussian elimination without pivoting of the tridiagonal with
    sub-diagonal lower[1:], diagonal diag and super-diagonal upper[:-1]:
    (sub-diagonal, pivots, ratios) as Python float lists, the ratio of row
    j being upper[j] over its pivot; a zero pivot raises ZeroDivisionError."""
    lower, diag, upper = lower.tolist(), diag.tolist(), upper.tolist()
    pivots, ratios = [diag[0]], [upper[0] / diag[0]]
    for low, d, up in zip(lower[1:], diag[1:], upper[1:]):
        pivot = d - low * ratios[-1]
        ratios.append(up / pivot)
        pivots.append(pivot)
    return lower, pivots, ratios


def _substitute(factors, rhs):
    """Solve the tridiagonal system factored by `_factor` for rhs: forward
    then back substitution, in Python floats."""
    lower, pivots, ratios = factors
    rhs = rhs.tolist()
    prev = rhs[0] / pivots[0]
    x = [prev]
    for low, r, pivot in zip(lower[1:], rhs[1:], pivots[1:]):
        prev = (r - low * prev) / pivot
        x.append(prev)
    for j in range(len(x) - 2, -1, -1):
        prev = x[j] = x[j] - ratios[j] * prev
    return np.array(x, dtype=float)


class _Level(NamedTuple):
    """One time level's implicit rows, (C, J+1) each, one row per control.

    `lower`, `diag` and `upper` are the tridiagonal of B_u = I - dt (L_u +
    f_y) with the ghost nodes folded into rows 0 and J, from which a
    policy picks one row per node for `_factor`; `h`, `bd` and `gather`
    give G's rows h a + bd nd[gather] in the raw differences, with
    h = |sigma|^2 / (2 dx^2), bd = b / dx and gather, per node, the index
    into nd of its upwind side; `sgd` is sigma's row / dx (C, J+1, d),
    for z = sigma^T p; `f_y` is the driver's y slope; `bound` is the
    level's monotonicity bound (`_Sweep.slopes`).
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    h: np.ndarray
    bd: np.ndarray
    gather: np.ndarray
    sgd: np.ndarray
    f_y: np.ndarray
    bound: float


def _per_level(compute):
    """A `_Sweep` term under the sweep's memo, keyed by the term's name:
    compute(self, t, *args) is kept until the time level or `args`
    change, and for a term in `_static`, which ignores time, until `args`
    change."""
    name = compute.__name__

    @wraps(compute)
    def term(self, t, *args):
        key = (None if name in self._static else t, *args)
        hit = self._memo.get(name)
        if hit is None or hit[0] != key:
            hit = self._memo[name] = key, compute(self, t, *args)
        return hit[1]

    return term


class _Sweep:
    """Backward-in-time sweep state with loop invariants hoisted.

    The sweep runs on the J+1 nodes of [-L, L] with dx = 2L / J, the
    nodes and spacing `ValueGrid.xs` and `ValueGrid.dx` give, and each
    of its terms has one row per control of `control_grid`.  `level`
    gives a time level's implicit rows, `factors` the factorization
    (`_factor`) of a policy's rows and `step` one implicit step by
    policy iteration, whose solves substitute (`_substitute`) into
    `factors`; `factorizations` counts the factorizations made.
    `slopes` gives a level's f_y and monotonicity bound, `rule_dt` the N
    rule's dt and `passing_grid` the rule's grid on `span` =
    [t_start, T].  `terminal_row` is -phi(x).

    Each of b (`_drift`), sigma (`_diffusion`), the slopes, the N rule,
    a level's rows and their factorization is a method under
    `_per_level`, kept while its time level and arguments stay, and
    across time levels when the problem's expression variables show it
    ignores time: b and sigma by their own expressions, the slopes when
    b and f do and sigma too if f reads z, the rule when b and the
    slopes do, a level's rows and factorization when all of b, sigma
    and f do.
    """

    def __init__(self, spec, half_width, n_cells, t_start):
        if spec.n != 1:
            raise ProblemError("the finite-difference solver is one-dimensional")
        self.spec = spec
        xs = np.linspace(-half_width, half_width, n_cells + 1)
        self.dx = 2.0 * half_width / n_cells
        self.span = (t_start, spec.horizon)
        self.x_cols = xs[:, None]
        reads = {v[0] for v in spec.f_variables}
        self.f_reads_z = "z" in reads
        self.f_reads_zu = bool(reads & {"z", "u"})
        self.zeros_z = np.zeros((xs.size, spec.d))
        self._nodes = np.arange(xs.size)
        self.terminal_row = -spec.terminal(self.x_cols)  # also the slopes' y
        b, sigma, f = (
            "s" not in names
            for names in (spec.b_variables, spec.sigma_variables, spec.f_variables)
        )
        slopes = b and f and (sigma or not self.f_reads_z)
        static = {
            "_drift": b, "_diffusion": sigma, "slopes": slopes,
            "rule_dt": b and slopes, "level": b and sigma and f,
            "factors": b and sigma and f,
        }
        self._static = {name for name, s in static.items() if s}
        self._memo = {}
        self.factorizations = 0
        controls = control_grid(spec)
        shape = (len(controls), xs.size)
        self.x = np.broadcast_to(xs[None, :, None], shape + (1,))
        self.u = np.broadcast_to(controls[:, None, :], shape + (spec.k,))

    @_per_level
    def _drift(self, t):
        """(b, upwind gather) at time t, (C, J+1) each.  The gather holds,
        per node j, the index into the raw differences nd
        (`_neg_differences`) of its upwind side: j + 1 where b >= 0,
        else j."""
        b = self.spec.drift(t, self.x, self.u)[..., 0]
        return b, self._nodes + (b >= 0.0)

    @_per_level
    def _diffusion(self, t):
        """(sigma's row (C, J+1, d), |sigma|^2 / 2 (C, J+1)) at time t."""
        sg = self.spec.diffusion(t, self.x, self.u)[..., 0, :]
        return sg, 0.5 * np.sum(sg * sg, axis=-1)

    @_per_level
    def slopes(self, t):
        """(f_y, monotonicity bound) of time level t: the driver's y slope
        (C, J+1), with f_y and f_z at y = -phi(x), z = 0, and the bound
        1 / max of max(f_y, 0) + |sigma f_z| / dx over the nodes and of
        max(f_y, 0) + b_out / dx over the end rows, b_out the part of b
        that points out of [-L, L]; inf when that maximum is 0."""
        args = (t, self.x, self.terminal_row, self.zeros_z, self.u)
        f_y = self.spec.driver_y(*args)
        share = np.maximum(f_y, 0.0)
        b_out = np.maximum(self._drift(t)[0][:, [0, -1]] * [-1.0, 1.0], 0.0)
        ends = share[:, [0, -1]] + b_out / self.dx
        if self.f_reads_z:
            sg = self._diffusion(t)[0]
            share += np.sum(np.abs(sg * self.spec.driver_z(*args)), axis=-1) / self.dx
        worst = max(float(np.max(share)), float(np.max(ends)))
        return f_y, np.inf if worst == 0.0 else 1.0 / worst

    @_per_level
    def rule_dt(self, t):
        """The largest dt the N rule allows at time level t: Courant number
        dt max |b| / dx <= 1/2 and half the monotonicity bound."""
        max_b = float(np.max(np.abs(self._drift(t)[0])))
        courant = np.inf if max_b == 0.0 else 0.5 * self.dx / max_b
        return min(courant, 0.5 * self.slopes(t)[1])

    def passing_grid(self):
        """TimeGrid on `span` with the fewest steps that meet the N rule at
        every level.

        Starts from one step, checks the rule at each step time of the
        candidate grid and raises N to the tightest dt seen until one
        grid passes every step.  For a static rule the first or the
        second candidate passes.
        """
        n = 1
        while True:
            grid = TimeGrid(*self.span, n)
            dt_max = min(map(self.rule_dt, grid.times[1:]))
            if not _exceeds(grid.dt, dt_max):
                return grid
            n = max(n + 1, _steps_for(self.span, dt_max))

    @_per_level
    def level(self, t, dt):
        """The implicit rows of time level t for a step of dt (`_Level`)."""
        b, gather = self._drift(t)
        sg, half_s2 = self._diffusion(t)
        dx = self.dx
        h, bd = half_s2 / (dx * dx), b / dx
        f_y, bound = self.slopes(t)
        lower = -dt * (h + np.maximum(-bd, 0.0))
        upper = -dt * (h + np.maximum(bd, 0.0))
        diag = 1.0 + dt * (2.0 * h + np.abs(bd) - f_y)
        # rows 0 and J read the ghost nodes 2 v_0 - v_1 and 2 v_J - v_{J-1}
        diag[:, 0] += 2.0 * lower[:, 0]
        upper[:, 0] -= lower[:, 0]
        diag[:, -1] += 2.0 * upper[:, -1]
        lower[:, -1] -= upper[:, -1]
        lower[:, 0] = upper[:, -1] = 0.0
        sgd = sg / dx if self.f_reads_zu else None
        return _Level(lower, diag, upper, h, bd, gather, sgd, f_y, bound)

    def _pick(self, rows, nd, extra, policy):
        """Per node, the row of G in the raw differences, h a + bd nd_up +
        `extra`, that is largest, keeping `policy`'s row where it ties;
        `extra` is None when it is the same for every row."""
        g = rows.h * (nd[1:] - nd[:-1]) + rows.bd * nd[rows.gather]
        if extra is not None:
            g += extra
        if policy is None:
            return g.argmax(axis=0)
        own = g[policy, self._nodes]
        if (own >= g.max(axis=0)).all():
            return policy
        best = g.argmax(axis=0)
        return np.where(own >= g[best, self._nodes], policy, best)

    def step(self, v, t, dt, policy=None, index=0):
        """One implicit step from the known level v at time t to t - dt.

        Returns (value row, policy, tridiagonal solves).  The policy
        iteration starts from `policy`, one row index per node, or, when
        it is None, from the rows that maximize G at v.  The rows are the
        level's (`level`), and each solve substitutes into their
        factorization (`factors`).  A non-finite row or a zero pivot is
        refused, and so is a policy that has not settled after
        `_POLICY_SOLVES` solves, each naming time level `index`.  v is
        differenced only where it is read: for z when the driver reads z
        or u, and for the first pick.
        """
        rows = self.level(t, dt)
        nd = _neg_differences(v) if self.f_reads_zu or policy is None else None
        if self.f_reads_zu:
            z = rows.sgd * nd[rows.gather][..., None]
            fval = self.spec.driver(t, self.x, -v, z, self.u)
            c = fval + rows.f_y * v
        else:
            fval = self.spec.driver(t, self.x_cols, -v, self.zeros_z, self.u[0])
            c = fval + rows.f_y[0] * v
        rhs = v - dt * c
        if policy is None:
            policy = self._pick(rows, nd, fval if self.f_reads_zu else None, None)
        for solves in range(1, _POLICY_SOLVES + 1):
            try:
                factors = self.factors(t, dt, policy.tobytes())
            except ZeroDivisionError:
                raise ProblemError(f"zero pivot at time level {index}") from None
            new = _substitute(factors, rhs[policy, self._nodes] if self.f_reads_zu else rhs)
            if not np.isfinite(new).all():
                raise ProblemError(f"non-finite value at time level {index}")
            extra = c - rows.f_y * new if self.f_reads_zu else None
            settled = self._pick(rows, _neg_differences(new), extra, policy)
            if settled is policy or np.array_equal(settled, policy):
                return new, policy, solves
            policy = settled
        raise PolicyError(index)

    @_per_level
    def factors(self, t, dt, policy):
        """`_factor` of the rows of `level(t, dt)` that `policy`, an index
        array's bytes, picks per node; a zero pivot raises
        ZeroDivisionError."""
        rows = self.level(t, dt)
        pick = (np.frombuffer(policy, np.intp), self._nodes)
        factors = _factor(rows.lower[pick], rows.diag[pick], rows.upper[pick])
        self.factorizations += 1
        return factors


def solve_hjb_fd(spec, half_width, n_cells, grid):
    """Solve the value PDE on [-L, L] x [grid.start, T].

    One-dimensional only (spec.n == 1).  The sup over u is taken over
    `control_grid`'s fixed grid of the control box, CONTROL_GRID_SIZE
    points per axis.  Each step is checked against the monotonicity bound
    of its own time level (`_Sweep.slopes`, with dx = 2L / J) before it
    updates anything; the first step whose bound grid.dt exceeds raises
    CFLError, whose `n_required` is the N rule's (`cfl_time_grid`).  Each
    level is solved by policy iteration, its policy started from the
    previous level's.  The result's `cfl_ratio` is grid.dt over the
    tightest bound the steps met, 0 when none had one, `policy_solves`
    and `max_level_solves` count the tridiagonal solves and
    `factorizations` the factorizations they took.  The terminal row is
    -phi exactly.
    """
    if abs(grid.end - spec.horizon) > 1e-12:
        raise ProblemError("grid must end at the problem horizon")
    sweep = _Sweep(spec, half_width, n_cells, grid.start)
    times, dt = grid.times, grid.dt
    values = np.empty((grid.steps + 1, n_cells + 1))
    values[-1] = v = sweep.terminal_row
    tightest = np.inf
    policy = None
    solves = []
    for i in range(grid.steps - 1, -1, -1):
        t = times[i + 1]
        bound = sweep.level(t, dt).bound
        if bound < tightest:  # a looser bound passes where a tighter one did
            if _exceeds(dt, bound):
                raise CFLError(dt, bound, sweep.passing_grid().steps, sweep.span)
            tightest = bound
        v, policy, n = sweep.step(v, t, dt, policy, i)
        values[i] = v
        solves.append(n)
    return ValueGrid(
        space_half_width=half_width,
        n_cells=n_cells,
        grid=grid,
        values=values,
        cfl_ratio=dt / tightest,
        policy_solves=sum(solves),
        max_level_solves=max(solves),
        factorizations=sweep.factorizations,
    )


def regularity_probe(vgrid):
    """(max adjacent slope, max |v| / (1 + |x|)) over all time slices.

    Division by dx and by 1 + |x| rounds monotonically, so the maxima of
    the quotients are the quotients of the maxima: the slope comes from
    the largest and smallest difference, the growth from each column's
    largest and smallest value, with no |.| or quotient array.
    """
    v = vgrid.values
    diffs = np.diff(v, axis=1)
    slope = max(diffs.max(), -diffs.min()) / vgrid.dx
    growth = np.maximum(v.max(axis=0), -v.min(axis=0)) / (1.0 + np.abs(vgrid.xs))
    return float(slope), float(growth.max())


# --------------------------------------------------------------------------
# Exports
# --------------------------------------------------------------------------


# time slices value_grid_csv aims at: it writes every
# ceil(levels / _CSV_TIME_SLICES)-th level and the last
_CSV_TIME_SLICES = 101


def value_grid_csv(vgrid, path):
    """CSV of (t, x, v) rows at about `_CSV_TIME_SLICES` time slices."""
    times = vgrid.grid.times
    stride = max(1, int(np.ceil(times.size / _CSV_TIME_SLICES)))
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
        "control_grid_size": CONTROL_GRID_SIZE,
        "dt": vgrid.grid.dt,
        "dx": vgrid.dx,
        "boundary_rule": "linear-extrapolation",
        "scheme": "implicit",
        "cfl_ratio": vgrid.cfl_ratio,
        "policy_solves": vgrid.policy_solves,
        "max_level_solves": vgrid.max_level_solves,
        "factorizations": vgrid.factorizations,
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")
