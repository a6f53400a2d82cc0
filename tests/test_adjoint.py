import copy
import dataclasses
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_backward import _SHARED_ROWS, batch_with_equal_rows
from test_forward import _BROWNIAN, _assert_time_major_view
from test_problem import _smooth_expressions

from fbsdelab import adjoint as A
from fbsdelab import backward as B
from fbsdelab import forward as F
from fbsdelab import jets as J
from fbsdelab import problem as P


def _pipeline(spec, control, x0, n_steps, m, seed, p_deg=3):
    grid = F.TimeGrid(0.0, spec.horizon, n_steps)
    batch = F.simulate_forward(spec, control, 0.0, x0, grid, m, seed=seed)
    sol = B.solve_backward(spec, batch, p_deg)
    return batch, sol


def test_q_matches_exponential_first_order(spec31, zero_control):
    batch, sol = _pipeline(spec31, zero_control, [0.0], 100, 200, seed=1)
    q = A.solve_q(spec31, batch, sol)
    exact = np.exp(-batch.grid.times)
    assert np.max(np.abs(q - exact[None, :])) <= 2.5e-3
    assert np.all(q > 0.0)


def test_q_error_halves_with_dt(spec31, zero_control):
    errs = []
    for n in (100, 200):
        batch, sol = _pipeline(spec31, zero_control, [0.0], n, 50, seed=1)
        q = A.solve_q(spec31, batch, sol)
        errs.append(np.max(np.abs(q - np.exp(-batch.grid.times)[None, :])))
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def test_q_identically_one_when_driver_ignores_y_z():
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"], "x1", "x1"
    )
    batch, sol = _pipeline(spec, 0.5, [1.0], 20, 100, seed=1, p_deg=2)
    q = A.solve_q(spec, batch, sol)
    assert np.array_equal(q, np.ones_like(q))


def test_q_single_step_formula(spec31, zero_control):
    # dt = 1 and f_y = -1 drive q(T) to exactly 0; the one-step formula
    # itself is the point here
    batch, sol = _pipeline(spec31, zero_control, [1.0], 1, 50, seed=3, p_deg=1)
    q = A.solve_q(spec31, batch, sol)
    # f_y = -1, f_z = 0: q(T) = 1 + f_y dt exactly
    assert np.allclose(q[:, 1], 1.0 - batch.grid.dt)


def _per_path(spec):
    """The spec with f_y marked as reading x1, so solve_q runs per path."""
    return dataclasses.replace(spec, f_y_variables=frozenset({"x1"}))


def _rate_spec(f):
    return P.spec_from_expressions(1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"], f, "x1")


@pytest.mark.parametrize(
    "problem, x0, n_picard",
    [
        ("example31", 0.0, 0),
        ("example31", 1.0, 0),
        ("reversed", 1.0, 2),
        ("x1 - (1 + s) * y", 1.0, 0),
    ],
)
def test_q_column_gives_the_per_path_bits(spec31, problem, x0, n_picard):
    # a driver whose f_y reads no x, y, z and whose f reads no z gets q as
    # one broadcast column; every adjoint output keeps the per-path bits
    if problem == "example31":
        spec = spec31
    elif problem == "reversed":
        spec = P.parse_problem(_CONFIG_TEXT)[0]
    else:
        spec = _rate_spec(problem)
    grid = F.TimeGrid(0.0, 1.0, 20)
    batch = F.simulate_forward(spec, 0.0, 0.0, [x0], grid, 2100, seed=4)
    sol = B.solve_backward(spec, batch, 3, n_picard=n_picard)
    runs = []
    for s in (spec, _per_path(spec)):
        triple = A.solve_adjoint(s, batch, sol)
        report = A.check_maximum_condition(s, batch, sol, triple)
        runs.append((triple.q, triple.p, triple.k, report.residuals, report.stderrs))
    column, per_path = runs[0][0], runs[1][0]
    assert column.strides[0] == 0 and not column.flags.writeable
    _assert_time_major_view(per_path)
    assert np.ptp(column) > 0 and np.all(np.isfinite(runs[0][-1]))
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


@pytest.mark.parametrize(
    "f, column", [("x1 - y", True), ("x1 - y + 0 * z1", True), ("x1 * y", False)]
)
def test_q_skips_f_z_where_it_folds_to_zero(f, column):
    # f_z folds to 0, even where f reads z, so solve_q never evaluates it;
    # q keeps the bits of the step that adds the +-0.0 f_z dW term on every
    # path, and is one column when f_y reads no path variable
    spec = _rate_spec(f)
    assert "driver_z" in spec.zero_gradients
    batch, sol = _pipeline(spec, 0.5, [1.0], 20, 300, seed=2)

    def refuse(*args):
        raise AssertionError("solve_q evaluated f_z")

    q = A.solve_q(dataclasses.replace(spec, driver_z=refuse), batch, sol)
    unskipped = dataclasses.replace(spec, zero_gradients=spec.zero_gradients - {"driver_z"})
    reference = A.solve_q(unskipped, batch, sol)
    assert (q.strides[0] == 0) is column and reference.strides[0] != 0
    assert np.ptp(q) > 0 and np.array_equal(q, reference)


@pytest.mark.parametrize("problem", ["x1 * y", "smooth1d"])
def test_q_per_path_when_f_y_reads_x_or_f_reads_z(problem):
    spec = P.builtin_problem(problem) if problem == "smooth1d" else _rate_spec(problem)
    batch, sol = _pipeline(spec, 0.5, [0.5], 20, 300, seed=2)
    q = A.solve_q(spec, batch, sol)
    _assert_time_major_view(q)
    assert np.ptp(q[:, -1]) > 0


@pytest.mark.parametrize(
    "f, message",
    [
        ("sqrt(s - 0.5) * y + x1", "sqrt of a negative value"),
        ("max(s - 0.5, 0) * 1e300 * 1e300 * y + x1", "non-finite q at step 12$"),
    ],
)
def test_q_column_raises_the_per_path_error(f, message):
    spec = _rate_spec(f)
    grid = F.TimeGrid(0.0, 1.0, 20)
    batch = F.simulate_forward(spec, 0.0, 0.0, [1.0], grid, 300, seed=2)
    flat = types.SimpleNamespace(y=np.zeros((300, 21)), z=np.zeros((300, 20, 1)))
    errors = []
    for s in (spec, _per_path(spec)):
        with np.errstate(over="ignore"), pytest.raises(P.ProblemError, match=message) as err:
            A.solve_q(s, batch, flat)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]


@pytest.mark.parametrize(
    "f, first, first_2048",
    [
        # f_y is inf from the step a path passes 2.5: at seed 9 first path
        # 2199, at step 23; among the first 2,048 at 32
        ("max(x1 - 2.5, 0) * 1e300 * 1e300 * y", "non-finite q at step 24",
         "non-finite q at step 33"),
        # at step 18 path 1414 falls below -2.5 (f_y inf) while paths past
        # the first 2,048 pass 2.15 (f_y's sqrt refuses them): within the
        # step the evaluator's error is raised first
        ("(max(-2.5 - x1, 0) * 1e300 * 1e300 + sqrt(2.15 - x1) * 0) * y",
         "sqrt of a negative value", "non-finite q at step 19"),
    ],
)
def test_q_error_is_the_serial_loops_at_any_worker_count(f, first, first_2048):
    spec = P.spec_from_expressions(1, 1, 1, 1.0, [0.0], [1.0], ["0"], ["1"], f, "x1")

    def message(m):
        batch = F.simulate_forward(spec, 0.0, n_paths=m, **_BROWNIAN)
        n = batch.grid.steps
        flat = types.SimpleNamespace(y=np.zeros((m, n + 1)), z=np.zeros((m, n, 1)))
        with np.errstate(over="ignore"), pytest.raises(P.ProblemError) as err:
            A.solve_q(spec, batch, flat)
        return str(err.value)

    assert message(2500).startswith(first)
    assert message(2048) == first_2048


def test_max_condition_raises_the_earliest_steps_error(spec31, zero_control):
    # steps 5 and 6 fail; step 5's error is raised
    batch, sol = _pipeline(spec31, zero_control, [1.0], 10, 200, seed=3)
    triple = A.solve_adjoint(spec31, batch, sol)
    times = batch.grid.times

    def drift_u(t, x, u):
        if t in (times[5], times[6]):
            raise P.DomainError(f"refused at t = {float(t)}")
        return spec31.drift_u(t, x, u)

    failing = dataclasses.replace(spec31, drift_u=drift_u)
    with pytest.raises(P.DomainError, match=f"t = {float(times[5])}$"):
        A.check_maximum_condition(failing, batch, sol, triple)


# the perfbench config_text problem: example31 with the control reversed,
# a geometric Brownian motion started at x = 1
_CONFIG_TEXT = """\
[dims]
n = 1
d = 1
k = 1
lipschitz_hint = 2.0

[horizon]
T = 1.0

[control]
lo = 0.0
hi = 1.0

[initial]
t = 0.0
x = 1.0

[coefficients]
b1 = "x1 * (1 - u1)"
sigma1_1 = "x1"
f = "x1 - y"
phi = "x1"
"""


def test_max_condition_starts_no_thread(monkeypatch):
    # no Monte Carlo kernel starts a thread; smooth1d's driver reads z, so
    # its q runs on every path
    spec = P.builtin_problem("smooth1d")

    def refuse(self):
        raise AssertionError("a Monte Carlo kernel started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    batch, sol = _pipeline(spec, 0.0, [0.3], 25, 2500, seed=5)
    triple = A.solve_adjoint(spec, batch, sol)
    report = A.check_maximum_condition(spec, batch, sol, triple)
    _assert_time_major_view(triple.q)
    assert np.ptp(triple.q[:, -1]) > 0 and np.all(np.isfinite(report.residuals))


def _sweeps(monkeypatch, spec, batch, n_picard=0):
    """The backward solution and the adjoint triple, with whether each
    `basis` call of the backward sweep and of the adjoint sweep built a
    design (a constant row builds none)."""
    basis = B._StepRegression.basis
    built = ([], [])
    sweep = built[0]

    def recording_basis(self, x):
        design = basis(self, x)
        sweep.append(design is not None)
        return design

    with monkeypatch.context() as mp:
        mp.setattr(B._StepRegression, "basis", recording_basis)
        sol = B.solve_backward(spec, batch, 3, n_picard=n_picard)
        sweep = built[1]
        triple = A.solve_adjoint(spec, batch, sol)
    return sol, triple, built


def test_absorbed_pipeline_builds_no_design(monkeypatch, spec31, zero_control):
    # example31 from x = 0: X = 0 on every path, so each of the 20 steps
    # owns a constant regression and projects by the plain mean
    grid = F.TimeGrid(0.0, 1.0, 20)
    batch = F.simulate_forward(spec31, zero_control, 0.0, [0.0], grid, 2100, seed=6)
    sol, _, built = _sweeps(monkeypatch, spec31, batch)
    regs = sol.regressions
    assert len({id(r) for r in regs}) == 20 and all(r.constant for r in regs)
    assert built == ([], [False] * 20)
    assert np.all(sol.conditions == 1.0)


@pytest.mark.parametrize("n_picard", [0, 2])
def test_equal_rows_build_a_regression_each(monkeypatch, n_picard):
    # rows 3-7 hold the same bits, yet each step owns its regression and
    # the adjoint sweep builds each step's design once; a regression is a
    # function of its row, so the equal rows' ones hold the same factors
    spec, batch = batch_with_equal_rows()
    sol, triple, built = _sweeps(monkeypatch, spec, batch, n_picard)
    regs = sol.regressions
    assert len({id(r) for r in regs}) == 10
    assert all(r.design is None for r in regs)
    assert built == ([True] * 10, [True] * 10)
    first = regs[_SHARED_ROWS[0]]
    for i in _SHARED_ROWS:
        assert np.array_equal(regs[i].chol, first.chol)
        assert np.array_equal(regs[i].scale, first.scale)
    assert np.all(np.isfinite(triple.k)) and np.ptp(triple.p[:, 5]) > 0


def test_one_regression_over_changing_rows_rebuilds_the_design():
    # the design is the basis at the step's own row, even when a caller
    # hands solve_pk one regression object for every step
    spec, batch = batch_with_equal_rows()
    sol = B.solve_backward(spec, batch, 3)
    q = A.solve_q(spec, batch, sol)
    reg = sol.regressions[5]
    single = dataclasses.replace(sol, regressions=[reg] * 10)
    copies = dataclasses.replace(sol, regressions=[copy.copy(reg) for _ in range(10)])
    shared = A.solve_pk(spec, batch, single, q)
    fresh = A.solve_pk(spec, batch, copies, q)
    assert all(np.array_equal(a, b) for a, b in zip(shared, fresh))


def test_gbm_states_build_a_design_per_spread_row(monkeypatch):
    # the config_text problem from x = 1: row 0 holds one state, and the
    # geometric Brownian rows after it are spread and never repeat
    spec, _ = P.parse_problem(_CONFIG_TEXT)
    batch = F.simulate_forward(spec, 0.0, 0.0, [1.0], F.TimeGrid(0.0, 1.0, 25), 2100, seed=6)
    sol, _, built = _sweeps(monkeypatch, spec, batch, n_picard=2)
    regs = sol.regressions
    assert len({id(r) for r in regs}) == 25
    assert [r.constant for r in regs] == [True] + [False] * 24
    # both sweeps run from step 24 down to step 0
    assert built == ([True] * 24, [True] * 24 + [False])


def _read_only_results(spec):
    """The spec with every evaluator returning a read-only view of its result."""

    def freeze(evaluate):
        def frozen(*args):
            out = np.asarray(evaluate(*args)).view()
            out.setflags(write=False)
            return out

        return frozen

    names = [f.name for f in dataclasses.fields(spec) if f.type == "callable"]
    return dataclasses.replace(spec, **{name: freeze(getattr(spec, name)) for name in names})


@pytest.mark.parametrize("problem", ["example31", "reversed"])
def test_kernels_never_write_into_evaluator_results(spec31, problem):
    # the kernels build their rows in buffers they own, so evaluators whose
    # results are read-only give the same bits
    if problem == "example31":
        spec, n_picard = spec31, 0
    else:
        spec, n_picard = P.parse_problem(_CONFIG_TEXT)[0], 2
    frozen = _read_only_results(spec)
    assert frozen.drift(0.0, np.ones((3, 1)), [0.5]).flags.writeable is False

    def every_output(spec):
        grid = F.TimeGrid(0.0, 1.0, 20)
        batch = F.simulate_forward(spec, 0.5, 0.0, [1.0], grid, 2100, seed=8)
        sol = B.solve_backward(spec, batch, 3, n_picard=n_picard)
        triple = A.solve_adjoint(spec, batch, sol)
        report = A.check_maximum_condition(spec, batch, sol, triple)
        return (
            batch.states, sol.y, sol.z, sol.conditions, sol.pathwise_value,
            triple.q, triple.p, triple.k, report.residuals, report.stderrs,
        )

    plain, wrapped = every_output(spec), every_output(frozen)
    assert np.ptp(plain[0]) > 0 and np.all(np.isfinite(plain[-2]))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(plain, wrapped))


def test_pk_along_optimal_pair(spec31, zero_control):
    batch, sol = _pipeline(spec31, zero_control, [0.0], 100, 2000, seed=1)
    triple = A.solve_adjoint(spec31, batch, sol)
    s = batch.grid.times
    assert np.max(np.abs(triple.p[:, :, 0] + np.exp(-s)[None, :])) <= 5e-3
    assert np.max(np.abs(triple.k)) <= 1e-6


def test_pk_null_terminal_and_source():
    # phi = 0 and f independent of x give p = k = 0 identically
    spec = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"], "0 - y", "0"
    )
    batch, sol = _pipeline(spec, 0.5, [1.0], 20, 300, seed=1, p_deg=2)
    triple = A.solve_adjoint(spec, batch, sol)
    assert np.max(np.abs(triple.p)) == 0.0
    assert np.max(np.abs(triple.k)) == 0.0


def test_terminal_identity_every_path(spec31, zero_control):
    batch, sol = _pipeline(spec31, zero_control, [1.0], 30, 500, seed=6)
    triple = A.solve_adjoint(spec31, batch, sol)
    phix = spec31.terminal_x(batch.states[:, -1])
    resid = triple.p[:, -1] + phix * triple.q[:, -1][:, None]
    assert np.max(np.abs(resid)) <= 1e-12


def test_scaling_family_scales_p_k_fixes_q(zero_control, spec31):
    # f_c(s,x,y,z,u) = c f(s,x,y/c,z/c,u), phi_c = c phi: (p,k) scale by
    # c, q unchanged (the only scaling with that property)
    scaled = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1"], ["x1"],
        "2 * x1 - y", "2 * x1",
    )
    batch1, sol1 = _pipeline(spec31, zero_control, [1.0], 40, 3000, seed=8)
    batch2, sol2 = _pipeline(scaled, zero_control, [1.0], 40, 3000, seed=8)
    assert np.array_equal(batch1.states, batch2.states)
    t1 = A.solve_adjoint(spec31, batch1, sol1)
    t2 = A.solve_adjoint(scaled, batch2, sol2)
    assert np.allclose(t2.q, t1.q, rtol=1e-6, atol=1e-12)
    assert np.allclose(t2.p, 2.0 * t1.p, rtol=1e-6, atol=1e-9)
    assert np.allclose(t2.k, 2.0 * t1.k, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("deg", [1, 3])
def test_pk_projects_with_the_backward_regressions(deg):
    # (p, k) reuse the backward pass's per-step projection: a fresh
    # regression of the backward degree at the same states gives the same
    # bits, and one of another degree does not
    spec = P.builtin_problem("smooth1d")
    batch, sol = _pipeline(spec, 0.5, [0.5], 20, 400, seed=3, p_deg=deg)
    triple = A.solve_adjoint(spec, batch, sol)
    dt = batch.grid.dt
    u = np.broadcast_to(batch.control, (batch.n_paths, spec.k))
    for i in (0, 7, 19):
        assert sol.regressions[i].degree == deg
        reg = B._StepRegression(batch.states[:, i], deg)
        cont = reg.fit(triple.p[:, i + 1])
        centered = triple.p[:, i + 1] - cont
        k = reg.fit(centered * batch.increments[:, i]) / dt
        assert np.array_equal(triple.k[:, i, :, 0], k)
        s, x, y, z = A._gradient_args(batch, sol, i)
        drift_term = (
            np.einsum("mab,ma->mb", spec.drift_x(s, x, u), cont)
            - spec.driver_x(s, x, y, z, u) * triple.q[:, i][:, None]
            + np.einsum("majb,maj->mb", spec.diffusion_x(s, x, u), triple.k[:, i])
        )
        assert np.array_equal(triple.p[:, i], cont + drift_term * dt)
    fits = [
        B._StepRegression(batch.states[:, 7], d).fit(triple.p[:, 8])
        for d in (deg, 4 - deg)
    ]
    assert not np.array_equal(*fits)


def test_triple_fields_view_time_major_rows(spec31, zero_control):
    # example31's q is one column broadcast over the paths; per-path q keeps
    # its time-major buffer (test_q_per_path_when_f_y_reads_x_or_f_reads_z)
    batch, sol = _pipeline(spec31, zero_control, [1.0], 10, 200, seed=3)
    triple = A.solve_adjoint(spec31, batch, sol)
    assert triple.p.shape == (200, 11, 1)
    assert triple.q.shape == (200, 11)
    assert triple.k.shape == (200, 10, 1, 1)
    for arr in (triple.p, triple.k):
        _assert_time_major_view(arr)
    assert triple.q.strides[0] == 0 and not triple.q.flags.writeable


def _path_major(triple):
    return dataclasses.replace(
        triple,
        p=np.ascontiguousarray(triple.p),
        q=np.ascontiguousarray(triple.q),
        k=np.ascontiguousarray(triple.k),
    )


def test_max_condition_accepts_path_major_arrays(pipeline_suboptimal, spec31):
    pipe = pipeline_suboptimal
    reports = [
        A.check_maximum_condition(spec31, pipe["batch"], pipe["sol"], triple)
        for triple in (pipe["triple"], _path_major(pipe["triple"]))
    ]
    assert np.array_equal(reports[0].residuals, reports[1].residuals)
    assert np.array_equal(reports[0].stderrs, reports[1].stderrs)
    assert reports[0].passed == reports[1].passed


def test_connection_accepts_path_major_arrays(spec31, zero_control, vgrid100):
    batch, sol = _pipeline(spec31, zero_control, [0.0], 50, 500, seed=1)
    triple = A.solve_adjoint(spec31, batch, sol)
    check_times = [0.0, 0.5, 0.9]
    reports = [
        J.verify_connection(spec31, batch, t, vgrid100, check_times)
        for t in (triple, _path_major(triple))
    ]
    assert reports[0].to_json() == reports[1].to_json()


def _hamiltonian(spec, t, x, y, z, u, p, q, k):
    """Reference H = <p, b> - q f + tr[sigma^T k] at one point or a batch of
    points, whose control differences the H_u test takes."""
    scalar = np.ndim(x) <= 1 and np.ndim(u) <= 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u2 = np.atleast_2d(np.asarray(u, dtype=float))
    if not spec.control_inside(u2):
        raise P.ControlBoxError(f"control {u} outside the control box")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    p2 = np.atleast_2d(np.asarray(p, dtype=float))
    q1 = np.atleast_1d(np.asarray(q, dtype=float))
    k2 = np.asarray(k, dtype=float).reshape(-1, spec.n, spec.d)

    b = spec.drift(t, x, u2)
    sg = spec.diffusion(t, x, u2)
    f = spec.driver(t, x, y, z, u2)
    val = (
        np.einsum("ma,ma->m", p2, b)
        - q1 * f
        + np.einsum("mad,mad->m", sg, k2)
    )
    return float(val[0]) if scalar else val


def test_hamiltonian_hand_values(spec31):
    assert _hamiltonian(spec31, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 1.0, 0.0) == pytest.approx(-1.0)
    assert _hamiltonian(spec31, 0.3, 2.0, 1.0, 0.5, 0.7, 0.0, 0.0, 0.0) == 0.0
    # x = 0 annihilates b and sigma, leaving -q f = q y
    assert _hamiltonian(spec31, 0.3, 0.0, 2.5, 0.5, 0.7, -1.0, 3.0, 0.0) == pytest.approx(7.5)


def test_hamiltonian_rejects_outside_control(spec31):
    with pytest.raises(P.ControlBoxError):
        _hamiltonian(spec31, 0.0, 1.0, 0.0, 0.0, 3.0, -1.0, 1.0, 0.0)


@given(
    st.lists(_smooth_expressions(["s", "x1", "x2", "u1", "u2"]), min_size=6, max_size=6),
    _smooth_expressions(["s", "x1", "x2", "y", "z1", "z2", "u1", "u2"]),
)
@settings(max_examples=60, deadline=None)
def test_hamiltonian_gradient_u_matches_richardson_differences(bs, f):
    spec = P.spec_from_expressions(
        2, 2, 2, 1.0, [0.0, 0.0], [1.0, 1.0], bs[:2], bs[2:], f, "x1"
    )
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, (5, 2))
    y = rng.uniform(-1, 1, 5)
    z = rng.uniform(-1, 1, (5, 2))
    u = rng.uniform(0.1, 0.9, (5, 2))  # interior: every probe stays in the box
    p = rng.uniform(-1, 1, (5, 2))
    q = rng.uniform(0.5, 1.5, 5)
    k = rng.uniform(-1, 1, (5, 2, 2))
    exact = A.hamiltonian_gradient_u(spec, 0.3, x, y, z, u, p, q, k)

    def fd(h, j):
        e = np.zeros(2)
        e[j] = h
        up = _hamiltonian(spec, 0.3, x, y, z, u + e, p, q, k)
        dn = _hamiltonian(spec, 0.3, x, y, z, u - e, p, q, k)
        return (up - dn) / (2.0 * h)

    # Richardson extrapolation cancels the h^2 term of central differences
    richardson = np.stack(
        [(4.0 * fd(5e-4, j) - fd(1e-3, j)) / 3.0 for j in range(2)], axis=-1
    )
    assert exact.shape == richardson.shape
    np.testing.assert_allclose(exact, richardson, rtol=1e-6, atol=1e-6)


def test_max_condition_degenerate_box_axis():
    # lo == hi on the second axis fixes u2 = 0.5: the residuals are those
    # of the same problem with 0.5 written in place of u2
    two = P.spec_from_expressions(
        1, 1, 2, 1.0, [0.0, 0.5], [1.0, 0.5], ["x1 * u1 + u2"],
        ["x1 * u2 + 0.5"], "x1 - y + u1 * u2", "x1",
    )
    one = P.spec_from_expressions(
        1, 1, 1, 1.0, [0.0], [1.0], ["x1 * u1 + 0.5"],
        ["x1 * 0.5 + 0.5"], "x1 - y + u1 * 0.5", "x1",
    )
    reports = []
    for spec, control in ((two, [0.0, 0.5]), (one, [0.0])):
        batch, sol = _pipeline(spec, control, [0.5], 20, 300, seed=2, p_deg=2)
        triple = A.solve_adjoint(spec, batch, sol)
        reports.append(A.check_maximum_condition(spec, batch, sol, triple))
    assert np.all(np.isfinite(reports[0].residuals))
    assert np.array_equal(reports[0].residuals, reports[1].residuals)
    assert np.array_equal(reports[0].stderrs, reports[1].stderrs)


def test_max_condition_zero_on_optimal_pair(spec31, zero_control):
    batch, sol = _pipeline(spec31, zero_control, [0.0], 50, 500, seed=1)
    triple = A.solve_adjoint(spec31, batch, sol)
    rep = A.check_maximum_condition(spec31, batch, sol, triple)
    assert np.all(rep.residuals == 0.0)
    assert rep.passed


def test_kink_pair_projects_by_the_plain_mean(spec31, zero_control):
    # example31 from 0: X = 0 on every path, so each projection is the
    # exact path mean; the ridge's shrinkage (about 3e-7 here) is gone, and
    # p = -q and k = 0 hold to rounding
    batch, sol = _pipeline(spec31, zero_control, [0.0], 50, 2000, seed=1)
    triple = A.solve_adjoint(spec31, batch, sol)
    assert np.all(sol.conditions == 1.0)
    assert np.max(np.abs(triple.p[:, :, 0] + triple.q)) <= 1e-14
    assert np.max(np.abs(triple.k)) <= 1e-12


def test_deterministic_start_gives_a_constant_y0():
    # the reversed config problem from x0 = 0.3: row 0 holds one state, so
    # its projection is the plain mean and Y(t) is one value on every path
    spec, (t0, x0) = P.parse_problem(_CONFIG_TEXT.replace("x = 1.0", "x = 0.3"))
    grid = F.TimeGrid(t0, 1.0, 20)
    batch = F.simulate_forward(spec, 0.0, t0, x0, grid, 3000, seed=3)
    sol = B.solve_backward(spec, batch, 3, n_picard=2)
    assert sol.regressions[0].constant and not sol.regressions[1].constant
    assert sol.conditions[0] == 1.0 and sol.conditions[1] > 1.0
    assert np.ptp(sol.y[:, 0]) == 0.0 and np.ptp(sol.z[:, 0]) == 0.0
    assert np.ptp(sol.y[:, 1]) > 0.0


@pytest.mark.parametrize("problem", ["example31", "reversed"])
def test_zero_control_gradients_skip_their_terms(spec31, problem):
    # f_u and sigma_u fold to 0 on both pairs: skipping q f_u and sigma_u k
    # leaves the residuals of the unskipped formula, up to the sign of a 0
    if problem == "example31":
        spec, n_picard = spec31, 0
    else:
        spec, n_picard = P.parse_problem(_CONFIG_TEXT)[0], 2
    assert spec.zero_gradients == {"driver_u", "diffusion_u", "driver_z"}
    grid = F.TimeGrid(0.0, 1.0, 20)
    batch = F.simulate_forward(spec, 0.0, 0.0, [1.0], grid, 2000, seed=5)
    sol = B.solve_backward(spec, batch, 3, n_picard=n_picard)
    triple = A.solve_adjoint(spec, batch, sol)
    unskipped = dataclasses.replace(spec, zero_gradients=frozenset())
    p, q, k = (a.swapaxes(0, 1) for a in (triple.p, triple.q, triple.k))
    for i in range(grid.steps):
        args = A._gradient_args(batch, sol, i) + (batch.control,)
        hu = [A.hamiltonian_gradient_u(s, *args, p[i], q[i], k[i]) for s in (spec, unskipped)]
        assert np.any(hu[0] != 0.0) and np.all(hu[0] == hu[1])
    reports = [
        A.check_maximum_condition(s, batch, sol, triple) for s in (spec, unskipped)
    ]
    assert np.all(reports[0].residuals == reports[1].residuals)
    assert np.all(reports[0].stderrs == reports[1].stderrs)


def test_max_condition_flags_suboptimal_pair(pipeline_suboptimal, spec31):
    pipe = pipeline_suboptimal
    rep = A.check_maximum_condition(spec31, pipe["batch"], pipe["sol"], pipe["triple"])
    assert rep.worst < -1e-2
    assert not rep.passed


def test_max_condition_upper_corner(pipeline_suboptimal, spec31):
    pipe = pipeline_suboptimal
    rep = A.check_maximum_condition(spec31, pipe["batch"], pipe["sol"], pipe["triple"])
    # box [0, 1] from u_bar = 0: the minimizing corner is u = 1 and the
    # residual matches mean <H_u, 1 - 0> = mean(p X)
    i = 10
    hu_mean = (pipe["triple"].p[:, i, 0] * pipe["batch"].states[:, i, 0]).mean()
    assert rep.residuals[i] == pytest.approx(hu_mean, rel=1e-6)


def test_max_condition_is_the_box_minimum_off_unit_offsets():
    # u_bar = (0.5, 1) in [-1, 2] x [0, 3]: the corner offsets are
    # {-1.5, 1.5} on axis 1 and {-1, 2} on axis 2, not those of a unit box;
    # mean H_u is positive on axis 1 and negative on axis 2, so the
    # minimizing corner takes the lower end of axis 1, the upper of axis 2
    spec = P.spec_from_expressions(
        1, 1, 2, 1.0, [-1.0, 0.0], [2.0, 3.0], ["x1 * u1 + u2 * u2"],
        ["0.5 + 0.2 * u1 * u2"], "x1 - y - 3 * u1 * u2", "x1",
    )
    batch, sol = _pipeline(spec, [0.5, 1.0], [0.5], 20, 300, seed=2, p_deg=2)
    triple = A.solve_adjoint(spec, batch, sol)
    rep = A.check_maximum_condition(spec, batch, sol, triple)
    offsets = P.control_grid(spec) - batch.control
    brute = np.empty(batch.grid.steps)
    p, q, k = (a.swapaxes(0, 1) for a in (triple.p, triple.q, triple.k))
    u_bar = np.broadcast_to(batch.control, (batch.n_paths, 2))
    for i in range(batch.grid.steps):
        hu = A.hamiltonian_gradient_u(
            spec, *A._gradient_args(batch, sol, i), u_bar,
            p[i], q[i], k[i],
        )
        brute[i] = min((hu @ offset).mean() for offset in offsets)
    assert np.all(brute < -0.5)
    np.testing.assert_allclose(rep.residuals, brute, rtol=1e-12, atol=0.0)
    assert np.all(rep.residuals <= brute)


def test_adjoint_csv_export(tmp_path, spec31, zero_control):
    batch, sol = _pipeline(spec31, zero_control, [0.0], 10, 50, seed=1)
    triple = A.solve_adjoint(spec31, batch, sol)
    rep = A.check_maximum_condition(spec31, batch, sol, triple)
    path = tmp_path / "adjoint.csv"
    A.adjoint_csv(triple, rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,mean_p,mean_q,mean_abs_k,worst_residual"
    assert len(lines) == 12
    row = [float(v) for v in lines[1].split(",")]
    assert len(row) == 5
    # signed mean of p, which is -e^{-s} = -1 at s = 0
    assert abs(row[1] + 1.0) <= 2e-2
