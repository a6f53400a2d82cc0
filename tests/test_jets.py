import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsdelab import adjoint as A
from fbsdelab import backward as B
from fbsdelab import forward as F
from fbsdelab import hjb as H
from fbsdelab import jets as J
from fbsdelab import oracles
from fbsdelab import problem as P


def _v_slice(s, horizon=1.0):
    return lambda x: oracles.example31_value(s, x, horizon)


def test_kink_jets_match_oracle():
    est = J.estimate_jets_1d(_v_slice(0.5), 0.0)
    assert est.subjet.kind == "empty"
    assert est.superjet.kind == "interval"
    assert est.superjet.lo == pytest.approx(-1.5, abs=1e-9)
    assert est.superjet.hi == pytest.approx(-1.0, abs=1e-9)


def test_smooth_point_jets_collapse():
    est = J.estimate_jets_1d(_v_slice(0.5), -1.0)
    assert est.subjet.kind == "singleton"
    assert est.superjet.kind == "singleton"
    assert est.subjet.lo == pytest.approx(-1.0, abs=1e-9)


def test_absolute_value_kink():
    est = J.estimate_jets_1d(abs, 0.0)
    assert est.superjet.kind == "empty"
    assert est.subjet.kind == "interval"
    assert (est.subjet.lo, est.subjet.hi) == (pytest.approx(-1.0), pytest.approx(1.0))


@given(
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_jet_duality_under_negation(left, right, x_hat):
    v = lambda x: left * (x - x_hat) if x <= x_hat else right * (x - x_hat)
    est = J.estimate_jets_1d(v, x_hat)
    neg = J.estimate_jets_1d(lambda x: -v(x), x_hat)
    assert est.subjet.kind == neg.superjet.kind
    assert est.superjet.kind == neg.subjet.kind
    if est.subjet.kind != "empty":
        assert neg.superjet.lo == pytest.approx(-est.subjet.hi, abs=1e-9)
        assert neg.superjet.hi == pytest.approx(-est.subjet.lo, abs=1e-9)
    if est.superjet.kind != "empty":
        assert neg.subjet.lo == pytest.approx(-est.superjet.hi, abs=1e-9)
        assert neg.subjet.hi == pytest.approx(-est.superjet.lo, abs=1e-9)


def test_reported_member_satisfies_defining_inequality():
    v = _v_slice(0.5)
    x_hat = 0.0
    est = J.estimate_jets_1d(v, x_hat)
    steps = [h * (1.0 + abs(x_hat)) for h in J.DEFAULT_STEP_LADDER][-2:]
    for p in (est.superjet.lo, est.superjet.hi):
        for h in steps:
            tol = J.DEFAULT_TOL_JET * h
            assert v(x_hat + h) <= v(x_hat) + p * h + tol
            assert v(x_hat - h) <= v(x_hat) - p * h + tol


def test_step_validation():
    with pytest.raises(J.JetError):
        J.estimate_jets_1d(abs, 0.0, steps=[0.1])
    with pytest.raises(J.JetError):
        J.estimate_jets_1d(abs, 0.0, steps=[0.05, 0.1])
    with pytest.raises(J.JetError):
        J.estimate_jets_1d(abs, 0.0, steps=[0.1, -0.05])


def test_grid_column_interpolation():
    xs = np.linspace(-2, 2, 401)
    vals = oracles.example31_value(0.5, xs, 1.0)
    est = J.estimate_jets_1d((xs, vals), 0.0, steps=[0.08, 0.04, 0.02])
    assert est.superjet.lo == pytest.approx(-1.5, abs=1e-9)
    with pytest.raises(J.JetError):
        J.estimate_jets_1d((xs, vals), 1.99, steps=[0.08, 0.04])


def test_connection_full_pipeline(pipeline_optimal, vgrid400, spec31):
    pipe = pipeline_optimal
    rep = J.verify_connection(
        spec31, pipe["batch"], pipe["sol"], pipe["triple"], vgrid400,
        [0.0, 0.25, 0.5, 0.75, 0.95],
    )
    assert rep.passed
    for record in rep.records:
        assert record.pq_inv_median == pytest.approx(-1.0, abs=2e-2)
        assert record.subjet.kind == "empty"
        lo, hi = oracles.example31_jets(record.s, 1.0)[1]
        assert abs(record.superjet.lo - lo) <= 2e-2
        assert abs(record.superjet.hi - hi) <= 2e-2


def test_connection_sign_flip_fails_everywhere(pipeline_optimal, vgrid400, spec31):
    pipe = pipeline_optimal
    bad = dataclasses.replace(pipe["triple"], p=-pipe["triple"].p)
    rep = J.verify_connection(
        spec31, pipe["batch"], pipe["sol"], bad, vgrid400,
        [0.0, 0.25, 0.5, 0.75, 0.95],
    )
    assert not rep.passed
    assert all(not record.passed for record in rep.records)
    assert all(not record.member for record in rep.records)


def test_connection_smooth_start_matches_gradient():
    # from x = -1 the state stays negative where the value function is
    # linear with slope -1, and p q^-1 must agree with that gradient
    # example31 with T = 0.25
    spec = P.spec_from_expressions(
        1, 1, 1, 0.25, [0.0], [1.0], ["x1 * u1"], ["x1"], "x1 - y", "x1"
    )
    grid = F.TimeGrid(0.0, 0.25, 50)
    batch = F.simulate_forward(spec, 0.0, 0.0, [-1.0], grid, 64, seed=12)
    assert np.abs(batch.states).max() < 4.0
    sol = B.solve_backward(spec, batch, 3)
    triple = A.solve_adjoint(spec, batch, sol)
    hgrid = H.cfl_time_grid(spec, 4.0, 200, 11)
    vgrid = H.solve_hjb_fd(spec, 4.0, 200, hgrid, 11)
    rep = J.verify_connection(
        spec, batch, sol, triple, vgrid, [0.05, 0.125, 0.2]
    )
    assert rep.passed
    for record in rep.records:
        assert record.superjet.kind == "singleton"
        assert record.pq_inv_median == pytest.approx(-1.0, abs=2e-2)
        assert abs(record.superjet.lo - (-1.0)) <= 2e-2


def test_connection_q_floor(pipeline_optimal, vgrid400, spec31):
    pipe = pipeline_optimal
    tiny_q = dataclasses.replace(pipe["triple"], q=np.full_like(pipe["triple"].q, 1e-12))
    with pytest.raises(J.QInvertibilityError):
        J.verify_connection(
            spec31, pipe["batch"], pipe["sol"], tiny_q, vgrid400, [0.5]
        )


def test_connection_state_outside_domain(spec31, zero_control, vgrid100):
    grid = F.TimeGrid(0.0, 1.0, 20)
    batch = F.simulate_forward(spec31, 1.0, 0.0, [10.0], grid, 8, seed=1)
    sol = B.solve_backward(spec31, batch, 1)
    triple = A.solve_adjoint(spec31, batch, sol)
    with pytest.raises(J.JetError, match="outside"):
        J.verify_connection(spec31, batch, sol, triple, vgrid100, [0.5])


def test_nondegenerate_subjet_interval_forces_failure(pipeline_optimal, vgrid400, spec31):
    # a report can never pair a nondegenerate sub-jet with a node pass:
    # feed the checker a value grid with a convex kink at the origin
    pipe = pipeline_optimal
    tg = vgrid400.grid
    xs = vgrid400.xs
    vals = np.tile(np.abs(xs) - 1.0, (tg.steps + 1, 1))
    convex = H.ValueGrid(vgrid400.space_half_width, vgrid400.n_cells, tg, vals, 11)
    rep = J.verify_connection(
        spec31, pipe["batch"], pipe["sol"], pipe["triple"], convex, [0.5]
    )
    assert rep.records[0].subjet.kind == "interval"
    assert not rep.records[0].passed
    assert not rep.passed


def test_connection_report_exports(tmp_path, pipeline_optimal, vgrid400, spec31):
    pipe = pipeline_optimal
    rep = J.verify_connection(
        spec31, pipe["batch"], pipe["sol"], pipe["triple"], vgrid400, [0.0, 0.5]
    )
    payload = rep.to_json()
    assert '"pass": true' in payload
    for rec, out in zip(rep.records, json.loads(payload)["records"]):
        assert out["member_distance"] == rec.member_distance <= rep.tol_conn
        assert out["subjet_ok"] is rec.subjet_ok is True
    rep.records[0].member_distance = np.inf  # an empty super-jet
    assert json.loads(rep.to_json())["records"][0]["member_distance"] is None
    json.loads(rep.to_json(), parse_constant=lambda c: pytest.fail(f"non-strict {c}"))
    csv = tmp_path / "conn.csv"
    J.connection_csv(rep, csv)
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 3
