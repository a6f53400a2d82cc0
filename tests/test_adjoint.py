import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_problem import _smooth_expressions

from fbsdelab import adjoint as A
from fbsdelab import backward as B
from fbsdelab import forward as F
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
        "2 * x1 - y", "2 * x1", lipschitz_hint=4.0,
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


def test_hamiltonian_hand_values(spec31):
    assert A.hamiltonian(spec31, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 1.0, 0.0) == pytest.approx(-1.0)
    assert A.hamiltonian(spec31, 0.3, 2.0, 1.0, 0.5, 0.7, 0.0, 0.0, 0.0) == 0.0
    # x = 0 annihilates b and sigma, leaving -q f = q y
    assert A.hamiltonian(spec31, 0.3, 0.0, 2.5, 0.5, 0.7, -1.0, 3.0, 0.0) == pytest.approx(7.5)


def test_hamiltonian_rejects_outside_control(spec31):
    with pytest.raises(P.ControlBoxError):
        A.hamiltonian(spec31, 0.0, 1.0, 0.0, 0.0, 3.0, -1.0, 1.0, 0.0)


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
        up = A.hamiltonian(spec, 0.3, x, y, z, u + e, p, q, k)
        dn = A.hamiltonian(spec, 0.3, x, y, z, u - e, p, q, k)
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
    rep = A.check_maximum_condition(spec31, batch, sol, triple, control_grid_size=11)
    assert np.all(rep.residuals == 0.0)
    assert rep.passed


def test_max_condition_flags_suboptimal_pair(pipeline_suboptimal, spec31):
    pipe = pipeline_suboptimal
    rep = A.check_maximum_condition(
        spec31, pipe["batch"], pipe["sol"], pipe["triple"], control_grid_size=11
    )
    assert rep.worst < -1e-2
    assert not rep.passed


def test_max_condition_coarsest_grid(pipeline_suboptimal, spec31):
    pipe = pipeline_suboptimal
    rep = A.check_maximum_condition(
        spec31, pipe["batch"], pipe["sol"], pipe["triple"], control_grid_size=2
    )
    # grid {0, 1}: the minimizing point is u = 1 and the residual matches
    # mean <H_u, 1 - 0> = mean(p X)
    i = 10
    hu_mean = (pipe["triple"].p[:, i, 0] * pipe["batch"].states[:, i, 0]).mean()
    assert rep.residuals[i] == pytest.approx(hu_mean, rel=1e-6)
    with pytest.raises(P.ProblemError):
        A.check_maximum_condition(
            spec31, pipe["batch"], pipe["sol"], pipe["triple"], control_grid_size=1
        )


def test_adjoint_csv_export(tmp_path, spec31, zero_control):
    batch, sol = _pipeline(spec31, zero_control, [0.0], 10, 50, seed=1)
    triple = A.solve_adjoint(spec31, batch, sol)
    rep = A.check_maximum_condition(spec31, batch, sol, triple, control_grid_size=3)
    path = tmp_path / "adjoint.csv"
    A.adjoint_csv(triple, rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,mean_p,mean_q,mean_abs_k,worst_residual"
    assert len(lines) == 12
    row = [float(v) for v in lines[1].split(",")]
    assert len(row) == 5
    # signed mean of p, which is -e^{-s} = -1 at s = 0
    assert abs(row[1] + 1.0) <= 2e-2
